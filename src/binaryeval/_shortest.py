"""``repr`` of a whole ``float64`` column at once, as NUL-padded ASCII rows.

``repr`` writes the shortest decimal that reads back as the same double,
the one nearest to it when several are that short, in fixed notation
from 1e-4 up to 1e16 and in exponent notation outside. :func:`repr_codes`
lays out the fixed range in numpy and calls ``repr`` for the rest, which
in a ROC report is the rates below 1e-4, the initial point's ``inf`` and
any score outside the range.

The digits come from Schubfach (Giulietti 2020, "The Schubfach way to
render doubles"), as in ``java.lang.Double.toString``: the double and the
two ends of its rounding interval are scaled by a power of ten held as a
126-bit ``g``, rounded to odd, and the shortest decimal between the ends
is picked. numpy has no 64x64->128-bit product, so two are emulated on
32-bit limbs; the interval's ends differ from the double by a power of two
times ``g``, so their products follow by shifted adds. In the fixed range
the decimal exponent ``k`` lies in [-20, 0] and ``g`` takes 21 values.
"""

from __future__ import annotations

import functools

import numpy as np

# The fixed range, as the bit patterns of its ends: for non-negative
# doubles the order of the patterns is the order of the values.
_LOWEST = np.float64(1e-4).view(np.uint64)
_BEYOND = np.float64(1e16).view(np.uint64)
_K_MIN = -20

_U32 = np.uint64(0xFFFFFFFF)
_U63 = np.uint64((1 << 63) - 1)
# The powers of ten that fit a uint64, from Python ints: numpy's power loop faults in more of its library.
_TEN_TO = np.array([10**k for k in range(20)], dtype=np.uint64)

# Offsets into the table of 4-digit groups; see _tables.
_LEAD, _TRAIL, _UNIT_ZERO, _FRACTION_ZERO = 10_000, 20_000, 30_000, 30_001


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``g`` in two 63-bit halves for each ``k``, and the groups.

    Built on the first column formatted, so a run that writes no curve
    never pays for them.

    ``10**-k = beta * 2**r`` with ``2**125 <= beta < 2**126``, and
    ``g = floor(beta) + 1``. The groups are ``uint32`` words of four ASCII
    digits: word ``n`` is ``n`` written as ``%04d``; word ``_LEAD + n`` the
    same with its leading zeros as NULs, and ``_TRAIL + n`` with its
    trailing zeros as NULs, so that 0 is four NULs in both; then the units
    group of a zero integer part, ``"\\0\\0\\00"``, and the first group
    of a zero fraction, ``"0\\0\\0\\0"``.
    """
    # 10**-k < 2**67, so beta = 10**-k 2**(125 - floor(log2(10**-k))) is an integer.
    g = [(10**-k << (125 - ((-k * 913124641741) >> 38))) + 1 for k in range(_K_MIN, 1)]
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    # Column by column, so that no temporary is larger than a column.
    groups = np.zeros((30_002, 4), dtype=np.uint8)
    n = np.arange(10_000, dtype=np.uint16)
    for column, place in enumerate((1000, 100, 10, 1)):
        digit = groups[:10_000, column]
        digit[:] = n // place % 10 + ord("0")
        # A leading zero unless n reaches the place; a trailing zero if n is a multiple of ten times it.
        groups[_LEAD : _LEAD + 10_000, column] = digit * (n >= place)
        groups[_TRAIL : _TRAIL + 10_000, column] = digit * (n % (10 * place) != 0)
    groups[_UNIT_ZERO] = [0, 0, 0, ord("0")]
    groups[_FRACTION_ZERO] = [ord("0"), 0, 0, 0]
    groups = groups.view(np.uint32).ravel()
    return g1, g0, groups


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of ``a * b``, on 32-bit limbs.

    Only the low half of one cross product joins the middle sum, which
    keeps it below ``2**64`` for any two ``uint64`` operands.
    """
    a_high, a_low = a >> np.uint64(32), a & _U32
    b_high, b_low = b >> np.uint64(32), b & _U32
    low = a_low * b_low
    cross = a_high * b_low
    middle = a_low * b_high + (cross & _U32) + (low >> np.uint64(32))
    high = a_high * b_high + (cross >> np.uint64(32)) + (middle >> np.uint64(32))
    return high, (middle << np.uint64(32)) | (low & _U32)


def _round_to_odd(x1: np.ndarray, y1: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """``floor(c g / 2**127)``, its lowest bit set if anything was cut off.

    ``x1`` is the high half of ``c g0`` and ``(y1, y0)`` the product
    ``c g1``, with ``g = g1 2**63 + g0`` (Giulietti's figure 8).
    """
    z = (y0 >> np.uint64(1)) + x1
    return (y1 + (z >> np.uint64(63))) | (((z & _U63) + _U63) >> np.uint64(63))


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, k)`` with ``d * 10**k`` the shortest decimal ``repr`` writes, for positive doubles in the fixed range.

    ``d`` may end in zeros. Giulietti's ``toDecimal``: ``c 2**q`` is the
    double, and ``u``, ``w`` are the decimals ``s 10**k`` and ``(s+1) 10**k``
    (or ``s' 10**(k+1)`` and ``(s'+1) 10**(k+1)``, one digit shorter)
    around it; the one in the rounding interval wins, the nearer one if
    both are, an even ``s`` on a tie.
    """
    g1_of, g0_of, _ = _tables()
    one, two = np.uint64(1), np.uint64(2)
    c = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = (bits >> np.uint64(52)).astype(np.int64) - 1075
    k = (q * 661971961083) >> 41  # floor(log10(2**q))
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # in [2, 5]
    g1, g0 = g1_of[k - _K_MIN], g0_of[k - _K_MIN]
    x1, x0 = _product(g0, c << (h + two))
    y1, y0 = _product(g1, c << (h + two))
    vb = _round_to_odd(x1, y1, y0)
    # The interval's ends are 4c - 2 and 4c + 2 (in quarters of the double's
    # spacing), so their products subtract and add g shifted by h + 1. Below a
    # power of two the spacing halves, and Schubfach takes 4c - 1; in the fixed
    # range no power of two has a shorter decimal in the part that drops, as
    # the tests check for each of them.
    shift, back = h + one, np.uint64(63) - h
    right0, left0 = x0 + (g0 << shift), x0 - (g0 << shift)
    right1, left1 = y0 + (g1 << shift), y0 - (g1 << shift)
    vbr = _round_to_odd(x1 + (g0 >> back) + (right0 < x0), y1 + (g1 >> back) + (right1 < y0), right1)
    vbl = _round_to_odd(x1 - (g0 >> back) - (left0 > x0), y1 - (g1 >> back) - (left1 > y0), left1)
    del x1, x0, y1, y0, right0, left0, right1, left1
    odd = c & one  # an odd c excludes the interval's ends
    s = vb >> two  # 16 or 17 digits, as c is at least 2**52
    shorter = (s // np.uint64(10)) * np.uint64(10)
    u_in, w_in = vbl + odd <= shorter << two, ((shorter + np.uint64(10)) << two) + odd <= vbr
    d = np.where(u_in, shorter, shorter + np.uint64(10))
    longer = u_in == w_in
    t = s + one
    u_in, w_in = vbl + odd <= s << two, (t << two) + odd <= vbr
    middle = (s + t) << one
    nearer_s = np.where(u_in == w_in, (vb < middle) | ((vb == middle) & ((s & one) == 0)), u_in)
    return np.where(longer, np.where(nearer_s, s, t), d), k


def repr_codes(column: np.ndarray) -> np.ndarray:
    """``repr`` of each value of a ``float64`` column, as one row of ASCII codes per value.

    The rows are padded with NUL bytes, not only at their ends, so a
    value's text is its row with the NULs dropped. A value in the fixed
    range is a sign word, the integer part in groups of four digits, a
    point word and twenty decimals in groups; leading and trailing zeros
    are NULs, and groups that are NUL on every row are left out. A zero
    has the digits ``0.0``. Each run of equal values (equal bit patterns,
    so ``-0.0`` is not ``0.0``) is formatted once.
    """
    bits = column.view(np.uint64)
    starts = np.empty(bits.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if not starts.all():
        return repr_codes(column[starts])[np.cumsum(starts) - 1]
    _, _, groups = _tables()
    magnitude = bits & _U63
    fixed = (magnitude >= _LOWEST) & (magnitude < _BEYOND)
    digits, k = _digits(np.where(fixed, magnitude, _LOWEST))
    digits[~fixed] = 0
    places = np.where(fixed, -k, 0).astype(np.uint64)  # in [0, 20]
    # d 10**-places is whole + fraction, the fraction held as its first twelve
    # and its last eight of twenty decimals: 10**20 does not fit a uint64.
    scale = _TEN_TO[np.minimum(places, np.uint64(19))]
    whole = digits // scale
    rest = digits - whole * scale
    cut = _TEN_TO[np.maximum(places, np.uint64(12)) - np.uint64(12)]
    high = rest // cut
    low = (rest - high * cut) * _TEN_TO[np.minimum(np.uint64(20) - places, np.uint64(19))]
    high *= _TEN_TO[np.uint64(12) - np.minimum(places, np.uint64(12))]
    del digits, k, places, scale, rest, cut
    words = []
    negative = bits >> np.uint64(63) == 1
    if negative.any():
        words.append(np.where(negative, np.uint32(ord("-") << 24), np.uint32(0)))
    ten4 = np.uint64(10_000)
    # Integer groups, most significant first: NULs above the leading digit.
    for exponent in range(4 * ((len(str(int(whole.max()))) - 1) // 4), 0, -4):
        group = whole // _TEN_TO[exponent]
        leading = group < ten4
        group -= group // ten4 * ten4
        words.append(groups[group + leading * np.uint64(_LEAD)])
    group = whole - whole // ten4 * ten4
    words.append(groups[np.where(whole == 0, _UNIT_ZERO, group + (whole < ten4) * np.uint64(_LEAD))])
    words.append(np.full(column.size, ord("."), dtype=np.uint32))
    # Decimal groups, least significant first: NULs below the last digit.
    fraction = []
    trailing = np.ones(column.size, dtype=bool)
    for part, count in ((low, 2), (high, 3)):
        for _ in range(count):
            rest = part // ten4
            group = part - rest * ten4
            part = rest
            fraction.append(groups[group + trailing * np.uint64(_TRAIL)])
            trailing &= group == 0
    fraction[-1][trailing] = groups[_FRACTION_ZERO]
    while not fraction[0].any():
        fraction.pop(0)
    codes = np.stack(words + fraction[::-1], axis=1).view(np.uint8)
    outside = np.flatnonzero(~fixed & (magnitude != 0))
    if outside.size:
        strings = [repr(value).encode("ascii") for value in column[outside].tolist()]
        width = max(codes.shape[1], *map(len, strings))
        if width > codes.shape[1]:
            codes = np.concatenate([codes, np.zeros((column.size, width - codes.shape[1]), dtype=np.uint8)], axis=1)
        codes[outside] = np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(outside.size, width)
    return codes
