"""Bit-sequence primitives: word validation, deletions and runs.

Words are plain Python strings over the characters '0' and '1'.  All
position arguments are 1-based (position 1 is the leftmost symbol).
"""

from __future__ import annotations

from collections import Counter

Interval = tuple[int, ...]  # consecutive 1-based positions of one run


def validate_word(x: str) -> str:
    """Return ``x`` unchanged if it consists only of '0'/'1' characters."""
    # strip leaves nothing exactly when every character is '0' or '1'
    if not isinstance(x, str) or x.strip("01"):
        raise ValueError(f"not a bit string: {x!r}")
    return x


def _check_bit(b: int) -> int:
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return b


def delete_at(x: str, i: int) -> str:
    """Remove the symbol at position ``i`` (1-based)."""
    if not 1 <= i <= len(x):
        raise ValueError(f"position {i} out of range for word of length {len(x)}")
    return x[: i - 1] + x[i:]


def run_supports(x: str, b: int) -> set[Interval]:
    """Position intervals of the maximal runs of symbol ``b`` in ``x``.

    Each interval is the tuple of consecutive 1-based positions it covers,
    e.g. ``run_supports("0001", 0) == {(1, 2, 3)}``.
    """
    _check_bit(b)
    target = "01"[b]
    out: set[Interval] = set()
    start = None
    for pos, c in enumerate(x, start=1):
        if c == target:
            if start is None:
                start = pos
        elif start is not None:
            out.add(tuple(range(start, pos)))
            start = None
    if start is not None:
        out.add(tuple(range(start, len(x) + 1)))
    return out


def run_support_multiset(words, b: int) -> Counter[Interval]:
    """Multiset union of :func:`run_supports` over a set of equal-length words."""
    _check_bit(b)
    words = list(words)
    if len({len(x) for x in words}) > 1:
        raise ValueError("words must all have the same length")
    counts: Counter[Interval] = Counter()
    for x in words:
        counts.update(run_supports(x, b))
    return counts
