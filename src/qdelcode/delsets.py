"""Single deletions of a family of word sets, and their cells.

For a set ``X`` of equal-length words, the ``(i, b)`` deletion set holds
the words obtained by deleting position ``i`` from the members whose i-th
symbol is ``b``.  A deleted word ``y`` is reachable that way for a unique
set of positions ``I``; grouping the deleted words by ``(I, b)`` yields the
cells of :func:`cell_decomposition`.

:func:`deletion_index` learns everything the condition checks need in one
walk over (cell, word, maximal run).  Deleting any position of a run gives
the same word, so each run costs one slice, and ``I`` is the union of the
runs that produce ``y``.  Only labels that occur are ever built, so the
work is proportional to the number of runs, at most ``n * |X|``, rather
than to the ``2**n`` candidate position sets.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

_RUNS = re.compile("0+|1+")


class CellLabel(NamedTuple):
    """Measurement/cell label: a sorted tuple of positions plus the deleted bit."""

    positions: tuple[int, ...]
    bit: int

    def __str__(self) -> str:
        return "I={%s},b=%d" % (",".join(map(str, self.positions)), self.bit)


@dataclass(frozen=True)
class CellDecomposition:
    """Non-empty cells of one word set for one bit, keyed by their label."""

    cells: dict[CellLabel, frozenset[str]]


@dataclass(frozen=True)
class DeletionIndex:
    """What one walk over the single deletions of a list of cells finds.

    ``cells`` maps each reachable label, in sorted order, to its deleted
    words, each with the index of the cell it belongs to: two cells never
    share a word at one label, because inserting the label's bit anywhere
    in its positions rebuilds the same codeword.  The witnesses are
    ``None`` when there is none, else the first one in this order:

    * ``collision``: codewords ``(u, x)``, ``u < x``, sharing a deleted word,
      by smallest ``x`` and then smallest ``u``;
    * ``crossing``: ``(y, owner, m)``, a deleted word ``y`` that cell ``m``
      shares with the earlier cell ``owner``, by smallest ``m`` and then ``y``;
    * ``clash``: ``(m, y)``, a word ``y`` that cell ``m`` reaches by both a
      0-deletion and a 1-deletion, by smallest ``m`` and then ``y``;
    * ``unstable``: ``(b, m)``, a cell whose ``b``-run support multiset
      differs from that of cell 0, by smallest ``b`` and then ``m``.
    """

    n: int
    sizes: tuple[int, ...]
    cells: dict[CellLabel, dict[str, int]]
    collision: tuple[str, str] | None
    crossing: tuple[str, int, int] | None
    clash: tuple[int, str] | None
    unstable: tuple[int, int] | None


def deletion_index(cells: Sequence[Iterable[str]]) -> DeletionIndex:
    """Walk every maximal run of every word of every cell once."""
    cells = [frozenset(c) for c in cells]
    lengths = {len(x) for cell in cells for x in cell}
    if len(lengths) > 1:
        raise ValueError("words must all have the same length")
    n = max(lengths, default=0)
    cell_of = {x: m for m, cell in enumerate(cells) for x in cell}
    owner: dict[str, str] = {}  # deleted word -> smallest codeword reaching it
    grouped: tuple[dict[int, dict[str, int]], ...] = ({}, {})  # per bit: mask -> y -> cell
    collision = crossing = clash = reference = None
    unstable: list[int | None] = [None, None]
    for m, cell in enumerate(cells):
        reach: tuple[dict[str, int], dict[str, int]] = ({}, {})  # per bit: y -> positions
        runs: tuple[list[int], list[int]] = ([], [])
        for x in cell:
            start = 0
            for run in _RUNS.findall(x):
                stop = start + len(run)
                b = run[0] == "1"
                mask = (1 << stop) - (1 << start)  # bit i-1 set for position i
                runs[b].append(mask)
                y = x[:start] + x[start + 1 :]
                first = owner.setdefault(y, x)
                if first == x:  # no other codeword reaches y yet
                    reach[b][y] = mask
                else:
                    reach[b][y] = reach[b].get(y, 0) | mask
                    pair = (max(first, x), min(first, x))
                    collision = pair if collision is None else min(collision, pair)
                    owner[y] = pair[1]
                    if cell_of[first] != m and (
                        crossing is None or (crossing[2] == m and y < crossing[0])
                    ):
                        crossing = (y, cell_of[first], m)
                start = stop
        both = reach[0].keys() & reach[1].keys()
        if both and clash is None:
            clash = (m, min(both))
        counts = (sorted(runs[0]), sorted(runs[1]))  # run-support multisets
        reference = reference or counts
        for b in (0, 1):
            if unstable[b] is None and counts[b] != reference[b]:
                unstable[b] = m
            for y, mask in reach[b].items():
                grouped[b].setdefault(mask, {})[y] = m
    labels = {
        CellLabel(tuple(i + 1 for i in range(n) if mask >> i & 1), b): owners
        for b in (0, 1)
        for mask, owners in grouped[b].items()
    }
    return DeletionIndex(
        n=n,
        sizes=tuple(len(c) for c in cells),
        cells=dict(sorted(labels.items())),
        collision=collision and collision[::-1],
        crossing=crossing,
        clash=clash,
        unstable=next(((b, m) for b, m in enumerate(unstable) if m is not None), None),
    )


def run_support_multisets(words: Iterable[str]) -> tuple[Counter[int], Counter[int]]:
    """The multisets of maximal-run supports of ``words``, for bit 0 and bit 1.

    A run covering positions ``i..j`` is the mask with bits ``i-1..j-1`` set,
    the encoding :func:`deletion_index` compares cells by.
    """
    runs: tuple[Counter[int], Counter[int]] = (Counter(), Counter())
    for x in words:
        start = 0
        for run in _RUNS.findall(x):
            stop = start + len(run)
            runs[run[0] == "1"][(1 << stop) - (1 << start)] += 1
            start = stop
    return runs


def cell_decomposition(words, b: int) -> CellDecomposition:
    """Group all deleted words of ``words`` (for bit ``b``) into their cells.

    Each deleted word lands in exactly one cell; empty cells are never
    materialized.
    """
    index = deletion_index([words])
    return CellDecomposition(
        cells={label: frozenset(ys) for label, ys in index.cells.items() if label.bit == b}
    )
