"""Ordered family sets of disjoint word sets, the encoder's basis order."""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .bits import validate_word


def _refuse_first(listed: Sequence[Collection[str]]) -> None:
    """Refuse the first empty cell, or word listed before, in list order."""
    first: dict[str, tuple[int, int]] = {}
    for j, cell in enumerate(listed):
        if not cell:
            raise ValueError(f"sets[{j}] is empty")
        for k, word in enumerate(cell):
            i, at = first.setdefault(word, (j, k))
            if (i, at) != (j, k):
                where = f"repeats sets[{i}][{at}]" if i == j else (
                    f"is also in sets[{i}][{at}]; cells must be pairwise disjoint"
                )
                raise ValueError(f"sets[{j}][{k}]: word {word!r} {where}")


class FamilySet:
    """An ordered list of disjoint, non-empty sets of equal-length words.

    The list position of a cell is the message index it encodes, so two
    family sets with the same cells in a different order are different
    codes.  This is the one place that enforces the cell rules: an empty
    cell, a word listed twice in one cell and a word in two cells are each
    refused with the first offending place, as ``sets[j]`` or
    ``sets[j][k]``.
    """

    def __init__(self, cells: Iterable[Collection[str]]):
        listed = list(cells)
        cell_sets = [frozenset(map(validate_word, cell)) for cell in listed]
        if not cell_sets:
            raise ValueError("family set must contain at least one cell")
        union = frozenset().union(*cell_sets)
        # hashing counts every problem; the places are searched only on failure
        if not all(cell_sets) or len(union) != sum(map(len, listed)):
            _refuse_first(listed)
        lengths = set(map(len, union))
        if len(lengths) != 1:
            raise ValueError("all words in a family set must have the same length")
        self.n: int = lengths.pop()
        self.cells: tuple[frozenset[str], ...] = tuple(cell_sets)
        self._words = union

    @property
    def size(self) -> int:
        """Number of cells (the code dimension M)."""
        return len(self.cells)

    def words(self) -> frozenset[str]:
        """Union of all cells."""
        return self._words

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FamilySet)
            and self.n == other.n
            and self.cells == other.cells
        )

    def __hash__(self) -> int:
        return hash((self.n, self.cells))

    def __repr__(self) -> str:
        return f"FamilySet(n={self.n}, cells={len(self.cells)}x{[len(c) for c in self.cells]})"
