"""Single deletions of a family of word sets, and their cells.

For a set ``X`` of equal-length words, the ``(i, b)`` deletion set holds
the words obtained by deleting position ``i`` from the members whose i-th
symbol is ``b``.  A deleted word ``y`` is reachable that way for a unique
set of positions ``I``; grouping the deleted words by ``(I, b)`` yields the
cells ``D_{I,b}``.

:func:`cell_decomposition` learns everything the condition checks need in
one walk over (cell, word, maximal run).  Deleting any position of a run
gives the same word, so each run costs one slice, one store of ``y``'s
label in one map and one append of the run's key.  ``I`` is the union of
the runs of one cell that produce ``y``: a cell's label counts are its run
counts, merged where two of its words reach one ``y``.  A run's label is
made when the walk first meets that run, and the per-label map of deleted
words on first read.  The work grows with the number of runs, at most
``n * |X|``, not with the ``2**n`` position sets.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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
    """The cells ``D_{I,b}`` of a list of word sets, and the witnesses the
    same walk over their single deletions finds.

    ``label_of`` maps each deleted word to its label in the first cell
    reaching it, cell ``m``'s words ending at ``ends[m]``; ``shared`` lists
    each (cell, label) of the words reached twice.  ``counts[m]`` is cell
    ``m``'s count of deleted words per label, for cell 0 and the cells whose
    counts differ from cell 0's.  ``cells``, built on first read, maps each
    label of ``counts``, sorted, to its deleted words and their cells.
    The witnesses are ``None`` or the first one in this order:

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
    label_of: dict[str, CellLabel]
    ends: tuple[int, ...]
    shared: dict[str, list[tuple[int, CellLabel]]]
    counts: dict[int, dict[CellLabel, int]]
    collision: tuple[str, str] | None
    crossing: tuple[str, int, int] | None
    clash: tuple[int, str] | None
    unstable: tuple[int, int] | None

    @cached_property
    def cells(self) -> dict[CellLabel, dict[str, int]]:
        labels = set().union(*self.counts.values())  # every cell's labels are listed
        grouped: dict[CellLabel, dict[str, int]] = {label: {} for label in sorted(labels)}
        words = iter(self.label_of.items())
        for m, (start, stop) in enumerate(itertools.pairwise((0, *self.ends))):
            for y, label in itertools.islice(words, stop - start):
                grouped[label][y] = m
        for y, reached in self.shared.items():
            for m, label in reached:
                grouped[label][y] = m
        return grouped


def cell_decomposition(cells: Sequence[Iterable[str]]) -> CellDecomposition:
    """Walk every maximal run of every word of every cell once."""
    cells = [frozenset(c) for c in cells]
    lengths = {len(x) for cell in cells for x in cell}
    if len(lengths) > 1:
        raise ValueError("words must all have the same length")
    n = max(lengths, default=0)
    label_at: dict[int, CellLabel] = {}  # by key: bit i for each position i, bit 0 the bit
    table: list[dict[str, tuple[CellLabel, int, int]]] = [{} for _ in range(n)]  # runs met
    label_of: dict[str, CellLabel] = {}
    shared: dict[str, dict[tuple[int, int], int]] = {}  # y -> (cell, bit) -> key
    reachers: dict[str, list[str]] = {}  # y -> the codewords reaching it
    ends, counts, unstable, cell_of = [], {0: {}}, {}, None  # counts: see CellDecomposition
    for m, cell in enumerate(cells):
        keys, merged = [], Counter()  # merged: label counts minus run counts
        for x in cell:
            start = 0
            for run in _RUNS.findall(x):
                try:
                    label, key, stop = table[start][run]
                except KeyError:  # a run not met before; a merged union may have its label
                    stop, b = start + len(run), int(run[0])
                    key = ((1 << stop) - (1 << start)) << 1 | b
                    positions = tuple(range(start + 1, stop + 1))
                    label = label_at.setdefault(key, CellLabel(positions, b))
                    table[start][run] = (label, key, stop)
                y = x[:start] + x[start + 1 :]
                if label_of.setdefault(y, label) is not label:  # reached before
                    if y not in shared:  # by the stored run's bit inserted at its start
                        first = label_of[y]
                        i = first.positions[0] - 1
                        reachers[y] = [y[:i] + "01"[first.bit] + y[i:]]
                        cell_of = cell_of or {w: k for k, c in enumerate(cells) for w in c}
                        first_key = sum(1 << p for p in first.positions) | first.bit
                        shared[y] = {(cell_of[reachers[y][0]], first.bit): first_key}
                    reachers[y].append(x)
                    old = shared[y].get((m, label.bit), 0)
                    union = shared[y][m, label.bit] = old | key
                    if old:  # two words of this cell: one label, the OR of their keys
                        merged.update({old: -1, key: -1, union: 1})
                        positions = tuple(i for i in range(1, n + 1) if union >> i & 1)
                        label_at.setdefault(union, CellLabel(positions, label.bit))
                keys.append(key)
                start = stop
        ends.append(len(label_of))
        runs = sorted(keys)
        if m == 0:
            reference, counts[0] = (runs, merged), Counter(runs) + merged
        if (runs, merged) == reference:
            continue  # cell 0's runs (so its size: the run lengths add to n per word) and labels
        for b in (0, 1):
            if [k for k in runs if k & 1 == b] != [k for k in reference[0] if k & 1 == b]:
                unstable.setdefault(b, m)
        mine = Counter(runs) + merged
        if mine != counts[0]:  # check_c1 compares them scaled by the cell sizes
            counts[m] = mine
    label_of.update((y, label_at[next(iter(r.values()))]) for y, r in shared.items())
    spread = [(sorted({m for m, _ in r}), y) for y, r in shared.items()]
    crossing = min(((ms[1], y, ms[0]) for ms, y in spread if ms[1:]), default=None)
    collision = min(((xs[1], xs[0]) for xs in map(sorted, reachers.values())), default=None)
    clash = min(((m, y) for y, r in shared.items() for m, b in r if (m, 1 - b) in r), default=None)
    return CellDecomposition(
        n=n, sizes=tuple(len(c) for c in cells), label_of=label_of, ends=tuple(ends),
        shared={y: [(m, label_at[k]) for (m, _), k in r.items()] for y, r in shared.items()},
        counts={m: {label_at[k]: v for k, v in c.items()} for m, c in counts.items()},
        collision=collision and collision[::-1],
        crossing=crossing and (crossing[1], crossing[2], crossing[0]),
        clash=clash, unstable=min(unstable.items(), default=None),
    )


def run_support_multisets(words: Iterable[str]) -> tuple[Counter[int], Counter[int]]:
    """The multisets of maximal-run supports of ``words``, for bit 0 and bit 1.

    A run covering positions ``i..j`` is the mask with bits ``i-1..j-1`` set;
    :func:`cell_decomposition` keys a run by this mask shifted past its bit.
    """
    runs: tuple[Counter[int], Counter[int]] = (Counter(), Counter())
    for x in words:
        start = 0
        for run in _RUNS.findall(x):
            stop = start + len(run)
            runs[run[0] == "1"][(1 << stop) - (1 << start)] += 1
            start = stop
    return runs
