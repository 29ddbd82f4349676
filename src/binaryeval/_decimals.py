"""The double ``float()`` reads from each score field of a chunk, bit for bit.

:func:`read` gives NaN for a field outside the score grammar (ASCII text
of ``_SCORE_CHARS`` that ``float()`` accepts), such as ``nan``, ``1_0``
or ``1e``, and an infinity of its sign for one past the float range,
such as ``1e400``. A plain decimal, ``[+-]?digits[.digits]`` with 1 to 19
digits in all, either run possibly empty, and its point, if any, among
the first 8 bytes after its sign, is ``w / 10**k`` for a whole
``w < 10**19`` and ``k`` digits after the point. Plain decimals are read
in bulk, without a Python object per field; any other field by ``float()``.

The chunk is copied to one byte per code point and read as unaligned
little-endian 8-byte words: a field's sign and point from the word at its
start, each run of digits from the words that end at its last digit. The
mantissa ``w`` follows by SWAR. ``w <= 2**53`` is divided by the exact
``10.0**k`` (Clinger 1990, "How to Read Floating Point Numbers
Accurately"); a larger ``w`` is read by Eisel-Lemire.
"""

from __future__ import annotations

import math

import numpy as np

from binaryeval._shortest import _TEN_TO, _product

_SCORE_CHARS = b"0123456789.+-eE"  # the characters of the score grammar

# The chunk's bytes come after _PAD NULs and before 8, so that a word may
# start 24 bytes before a field or run 8 bytes past one. _TOP[t] keeps the
# top t bytes of a word: the last t bytes of the run it ends.
_PAD = 24
_TOP = np.array([((1 << 64) - 1) ^ (((1 << 64) - 1) >> 8 * t) for t in range(9)], dtype=np.uint64)
_POINTS, _ZEROS = np.uint64(0x2E2E2E2E2E2E2E2E), np.uint64(0x3030303030303030)  # "." and "0" eight times
# Added to bytes below 0x80, these set the top bit of each byte that is not 0 (or is 10 or more).
_NOT_ZERO, _NOT_DIGIT = np.uint64(0x7F7F7F7F7F7F7F7F), np.uint64(0x7676767676767676)
_HIGH = np.uint64(0x8080808080808080)
_PAIRS = np.uint64(0x000000FF000000FF)
_FOURS = np.uint64(100 + (1_000_000 << 32)), np.uint64(1 + (10_000 << 32))
_WORD_SCALE = np.array([1, 10**8, 10**16], dtype=np.uint64)
_TEN_TO_FLOAT = np.array([10.0**k for k in range(20)])
_EXACT = np.uint64(1 << 53)  # the largest mantissa Clinger's fast path takes
# For Eisel-Lemire, per k: the biased exponent of a double whose mantissa has
# 63 bits, floor(log2(10**-k)) + 63 + 1023, less one, as the mantissa's
# implicit bit (2**52, or 2**53 when rounding carried) adds one.
_EXPONENT = np.array([((-k * 217706) >> 16) + 63 + 1023 - 1 for k in range(20)], dtype=np.uint64)
# The high and low 64 bits of 5**-k for k in [0, 19], scaled into [2**127,
# 2**128), laid out as fast_float lays out its table: 5**0 is 2**127, and
# 5**-k for k > 0 is 2**(127 + z) // 5**k + 1, with 2**z the least power of
# two not below 5**k: one above the truncated value.
_HIGH_FIVES, _LOW_FIVES = np.array([divmod(five, 1 << 64) for five in [1 << 127] + [
    (1 << (127 + (5**k - 1).bit_length())) // 5**k + 1 for k in range(1, 20)]], dtype=np.uint64).T


def read(chunk: str, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The double ``float()`` reads from each field ``chunk[starts:ends]``, as one ``float64`` array.

    NaN for a field outside the score grammar or that ``float()``
    rejects, an infinity of its sign for one past the float range. The
    plain decimals are read in bulk, in place where it can be, as the
    per-field arrays set the peak memory of a chunk; the rest by
    :func:`_floats`.
    """
    # One byte per code point: "?" stands for any outside ASCII, which no plain decimal holds.
    text = np.zeros(_PAD + len(chunk) + 8, dtype=np.uint8)
    text[_PAD:-8] = np.frombuffer(chunk.encode("ascii", "replace"), dtype=np.uint8)
    # The 8 bytes from each offset; a field's position p starts word p + _PAD.
    words = np.ndarray((text.size - 7,), dtype="<u8", buffer=text, strides=(1,))
    head = words[starts + _PAD]
    sign = head & np.uint64(0xFF)
    negative = sign == ord("-")
    whole = starts + (negative | (sign == ord("+")))  # where the digits begin; their count below
    del sign
    # The point is the first "." among the first 8 bytes after the sign; any
    # other "." fails the check of the digits.
    head = words[whole + _PAD]
    head ^= _POINTS
    head += _NOT_ZERO
    np.invert(head, out=head)
    head &= _HIGH & ~_TOP.take(8 - (ends - whole), mode="clip")  # the top bit of each "." in the field
    head &= ~head + np.uint64(1)  # the first
    # A double's exponent holds the index of a power of two's bit: 8 per byte, plus 7.
    exponent = head.astype(np.float64).view(np.uint64) >> np.uint64(52)
    del head
    dotted = exponent >= np.uint64(1023 + 7)
    point = np.where(dotted, whole + ((exponent - np.uint64(1023 + 7)) >> np.uint64(3)).view(np.int64), ends)
    del exponent
    fraction = ends - point - dotted
    del dotted
    np.subtract(point, whole, out=whole)
    simple = (whole + fraction - 1).view(np.uint64) < np.uint64(19)
    # Each run's value, with the runs' checks of digits in ``simple``.
    units = _run(words, point, whole, simple)
    del point, whole
    mantissa = _run(words, ends, fraction, simple)
    units *= _TEN_TO.take(fraction, mode="clip")
    mantissa += units
    del units
    value = mantissa.astype(np.float64)
    value /= _TEN_TO_FLOAT.take(fraction, mode="clip")
    hard = np.flatnonzero(simple & (mantissa > _EXACT))
    if hard.size:
        value[hard] = _eisel_lemire(mantissa[hard], fraction[hard])
    np.negative(value, out=value, where=negative)
    rest = np.flatnonzero(~simple)
    if rest.size:
        value[rest] = _floats([chunk[start:end] for start, end in zip(starts[rest].tolist(), ends[rest].tolist())])
    return value


def _run(words: np.ndarray, ends: np.ndarray, lengths: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The value of each run of ``lengths`` digits that ends before ``ends``; ``digits`` is cleared where one is not "0" to "9".

    A run is read in words of eight that end at its last digit, with the
    bytes before the run masked off; each word becomes one number by SWAR
    (Lemire's ``parse_eight_digits_unrolled``). As many words as the
    longest run needs are read, up to three: a longer run is read wrong,
    and a shorter one reads 0 from the words past it.
    """
    value = np.zeros(ends.size, dtype=np.uint64)
    over = np.zeros(ends.size, dtype=np.uint64)
    for i in range(min(-(-int(lengths.max(initial=0)) // 8), 3)):
        word = words[ends + (_PAD - 8 - 8 * i)]
        word ^= _ZEROS
        word &= _TOP.take(lengths - 8 * i, mode="clip")
        # Each byte of the run was "0" to "9" and now holds its value.
        over |= word + _NOT_DIGIT
        tens = word >> np.uint64(8)
        word *= np.uint64(10)
        word += tens  # pairs
        np.right_shift(word, np.uint64(16), out=tens)
        tens &= _PAIRS
        tens *= _FOURS[1]
        word &= _PAIRS
        word *= _FOURS[0]
        word += tens
        del tens
        word >>= np.uint64(32)
        word *= _WORD_SCALE[i]
        value += word
    digits &= (over & _HIGH) == 0
    return value


def _eisel_lemire(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The double nearest ``w / 10**k``, for ``2**53 < w < 10**19`` and ``k`` in [0, 19].

    fast_float's ``compute_float`` (Lemire 2021, "Number Parsing at a
    Gigabyte per Second"): ``w``, shifted up to its top bit, times the
    128-bit ``5**-k`` of ``_HIGH_FIVES`` and ``_LOW_FIVES``, keeps 54
    bits, and rounds them half up, or to even on an exact tie. Mushtak and Lemire (2023, "Fast
    Number Parsing Without Fallback") prove that this product decides
    every 19-digit ``w``, so no case falls back.
    """
    # w >> 11 is below 2**53, so its double is exact and holds w's top bit in its exponent.
    zeros = np.uint64(1075) - ((w >> np.uint64(11)).astype(np.float64).view(np.uint64) >> np.uint64(52))
    w = w << zeros
    high, low = _product(w, _HIGH_FIVES.take(k))
    # Only where the 9 bits below the 55 kept are all ones can the next 64 bits carry into them.
    near = np.flatnonzero((high & np.uint64(0x1FF)) == np.uint64(0x1FF))
    if near.size:
        carry = _product(w[near], _LOW_FIVES.take(k[near]))[0]
        low[near] += carry
        high[near] += low[near] < carry
    upper = high >> np.uint64(63)
    shift = upper + np.uint64(9)
    mantissa = high >> shift
    # An exact tie drops only zero bits, and needs k <= 4; it rounds to the even mantissa.
    tie = low <= np.uint64(1)
    if tie.any():
        tie &= (k <= 4) & ((mantissa & np.uint64(3)) == np.uint64(1)) & ((mantissa << shift) == high)
        mantissa -= tie
    mantissa = (mantissa + np.uint64(1)) >> np.uint64(1)
    exponent = _EXPONENT.take(k) + upper - zeros
    return ((exponent << np.uint64(52)) + mantissa).view(np.float64)


def _floats(texts: list[str]) -> np.ndarray:
    """``float()`` of each text, NaN for one outside the score grammar or that ``float()`` rejects.

    ``float()`` maps over all of them at once unless one holds a character
    outside the grammar or, such as ``1e`` or ``.``, is no number.
    """
    joined = "".join(texts)
    if joined.isascii() and not joined.encode().translate(None, _SCORE_CHARS):
        try:
            return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
        except ValueError:
            pass
    return np.fromiter(map(_float, texts), dtype=np.float64, count=len(texts))


def _float(text: str) -> float:
    """``float(text)`` for a text in the score grammar; NaN for one outside it or that ``float()`` rejects."""
    if not text.isascii() or text.encode().translate(None, _SCORE_CHARS):
        return math.nan
    try:
        return float(text)
    except ValueError:
        return math.nan
