"""The package's public surface."""

from __future__ import annotations

import binaryeval


def test_every_exported_name_resolves():
    assert [name for name in binaryeval.__all__ if not hasattr(binaryeval, name)] == []
