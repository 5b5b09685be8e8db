"""Bit-sequence primitives: word validation and single deletions.

Words are plain Python strings over the characters '0' and '1'.  All
position arguments are 1-based (position 1 is the leftmost symbol).
"""

from __future__ import annotations

_BITS = str.maketrans("", "", "01")  # a deletion table for '0' and '1'


def validate_word(x: str) -> str:
    """Return ``x`` unchanged if it consists only of '0'/'1' characters."""
    # deleting every '0' and '1' leaves nothing exactly when the word is all bits
    if not isinstance(x, str) or x.translate(_BITS):
        raise ValueError(f"not a bit string: {x!r}")
    return x


def delete_at(x: str, i: int) -> str:
    """Remove the symbol at position ``i`` (1-based)."""
    if not 1 <= i <= len(x):
        raise ValueError(f"position {i} out of range for word of length {len(x)}")
    return x[: i - 1] + x[i:]
