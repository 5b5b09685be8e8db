"""Deletion sets and their cells.

For a set ``X`` of equal-length words, ``deletion_set(X, i, b)`` holds the
words obtained by deleting position ``i`` from the members whose i-th
symbol is ``b``.  A deleted word ``y`` is reachable that way for a unique
set of positions ``I = {i : y in deletion_set(X, i, b)}``; grouping the
deleted words by ``I`` yields the cells of :func:`cell_decomposition`.
The grouping pass discovers only the labels that actually occur, so the
work is proportional to ``n * |X|`` strings rather than the ``2**n``
candidate position sets.

:func:`cell` computes a single cell straight from the
intersection/complement formula and serves as an independent cross-check
for the grouping pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .bits import delete_at


class CellLabel(NamedTuple):
    """Measurement/cell label: a sorted tuple of positions plus the deleted bit."""

    positions: tuple[int, ...]
    bit: int

    def __str__(self) -> str:
        return "I={%s},b=%d" % (",".join(map(str, self.positions)), self.bit)

    @classmethod
    def of(cls, positions: Iterable[int], bit: int) -> "CellLabel":
        return cls(tuple(sorted(positions)), bit)


def _uniform_length(words) -> int:
    lengths = {len(x) for x in words}
    if len(lengths) > 1:
        raise ValueError("words must all have the same length")
    return lengths.pop() if lengths else 0


def deletion_set(words, i: int, b: int) -> set[str]:
    """Words obtained by deleting position ``i`` where the symbol there is ``b``."""
    words = set(words)
    n = _uniform_length(words)
    if words and not (2 <= n):
        raise ValueError("deletion sets need words of length >= 2")
    if words and not 1 <= i <= n:
        raise ValueError(f"position {i} out of range for length {n}")
    target = "01"[b]
    return {delete_at(x, i) for x in words if x[i - 1] == target}


@dataclass(frozen=True)
class CellDecomposition:
    """Non-empty cells of one word set for one bit, keyed by their label."""

    cells: dict[CellLabel, frozenset[str]]
    source_size: int

    def label_of(self, y: str) -> CellLabel | None:
        for label, members in self.cells.items():
            if y in members:
                return label
        return None


def cell_decomposition(words, b: int) -> CellDecomposition:
    """Group all deleted words of ``words`` (for bit ``b``) into their cells.

    Each deleted word lands in exactly one cell; empty cells are never
    materialized.
    """
    words = set(words)
    n = _uniform_length(words)
    target = "01"[b]
    reach: dict[str, set[int]] = {}
    for x in words:
        for i in range(1, n + 1):
            if x[i - 1] == target:
                reach.setdefault(delete_at(x, i), set()).add(i)
    grouped: dict[CellLabel, set[str]] = {}
    for y, positions in reach.items():
        grouped.setdefault(CellLabel.of(positions, b), set()).add(y)
    return CellDecomposition(
        cells={label: frozenset(ys) for label, ys in grouped.items()},
        source_size=len(words),
    )


def cell(words, positions: Iterable[int], b: int) -> set[str]:
    """The cell for position set ``I`` by the direct set formula.

    Intersection of ``deletion_set(words, i, b)`` over ``i in I``, minus
    every deletion set for ``i`` outside ``I``.  When ``I`` covers every
    position the complement part is empty and only the intersection
    remains.
    """
    words = set(words)
    n = _uniform_length(words)
    index = set(positions)
    if not index:
        raise ValueError("cell index must be non-empty")
    if not index <= set(range(1, n + 1)):
        raise ValueError(f"positions {sorted(index)} out of range for length {n}")
    first, *rest = sorted(index)
    out = deletion_set(words, first, b)
    for i in rest:
        if not out:
            return set()
        out &= deletion_set(words, i, b)
    for i in range(1, n + 1):
        if i not in index:
            out -= deletion_set(words, i, b)
            if not out:
                return set()
    return out
