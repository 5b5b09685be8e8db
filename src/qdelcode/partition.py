"""Condition checks and partition search for family sets.

A family set qualifies as a quantum-code basis when three checks pass:

* ratio condition: at every reachable cell label, all family members hold
  the same fraction of their words (checked as an integer cross-product
  identity, so no floating point is involved);
* external distance: no word deleted from one member is also reachable by
  deletion from another member;
* internal distance: within one member, no word is reachable both by
  deleting a 0 and by deleting a 1.

Equal-size, run-support-stable partitions of a single-deletion code
("homogeneous" partitions) satisfy all three; :func:`search_homogeneous`
enumerates them exhaustively for small codes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codes import ClassicalCode
from .delsets import CellDecomposition, CellLabel, cell_decomposition, run_support_multisets
from .errors import InvariantError, SizeGuardError
from .family import FamilySet

LambdaTable = dict[CellLabel, Fraction]


@dataclass(frozen=True)
class ConditionCheck:
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three condition checks, plus the ratio table on success.

    The same cell decomposition gives two codewords of the union sharing a
    deleted word (``collision``), run-support stability, homogeneity and,
    built on first read, each reachable label's deleted words with the
    index of their family cell (``cells``).
    """

    c1: ConditionCheck
    c2: ConditionCheck
    c3: ConditionCheck
    ratios: LambdaTable | None
    decomposition: CellDecomposition
    collision: tuple[str, str] | None
    stable: ConditionCheck
    homogeneous: ConditionCheck

    @property
    def cells(self) -> dict[CellLabel, dict[str, int]]:
        return self.decomposition.cells

    @property
    def all_passed(self) -> bool:
        return self.c1.passed and self.c2.passed and self.c3.passed

    def lines(self) -> list[str]:
        out = []
        for name, check in (("C1", self.c1), ("C2", self.c2), ("C3", self.c3)):
            status = "PASS" if check.passed else f"FAIL {check.witness}"
            out.append(f"{name} {status}")
        return out


def is_partition_of(fam: FamilySet, code: ClassicalCode) -> bool:
    """Whether the cells' union is exactly the code; :class:`FamilySet`
    cells are disjoint by construction."""
    return fam.words() == code.words


def check_c1(decomp: CellDecomposition) -> tuple[ConditionCheck, LambdaTable | None]:
    """Ratio condition: cell sizes scale with member sizes at every label.

    A cell whose label counts equal cell 0's has its size too (a word has
    one deleted word per position), so it passes; the others' counts are
    compared here.  On success returns the common ratio per label as exact
    fractions.  The per-position normalization (for each position, ratios
    over the labels containing it sum to one across both bits) holds by
    counting and is checked with zero tolerance.
    """
    sizes, counts = decomp.sizes, decomp.counts
    for label in sorted(set().union(*counts.values())):
        for m, other in counts.items():
            k0, km = counts[0].get(label, 0), other.get(label, 0)
            if sizes[0] * km != sizes[m] * k0:
                witness = (
                    f"label {label}: cells 0 and {m} have ratios "
                    f"{k0}/{sizes[0]} vs {km}/{sizes[m]}"
                )
                return ConditionCheck(False, witness), None
    ratios: LambdaTable = {label: Fraction(k, sizes[0]) for label, k in sorted(counts[0].items())}
    for i in range(1, decomp.n + 1):
        total = sum(
            (r for label, r in ratios.items() if i in label.positions),
            start=Fraction(0),
        )
        if total != 1:
            raise InvariantError(f"ratio normalization broken at position {i}: {total}")
    return ConditionCheck(True), ratios


def _verdict(witness, template: str) -> ConditionCheck:
    """A passing check, or a failing one naming ``witness`` through ``template``."""
    if witness is None:
        return ConditionCheck(True)
    return ConditionCheck(False, template.format(*witness))


def check_c2(decomp: CellDecomposition) -> ConditionCheck:
    """External distance: deleted words of distinct members never collide."""
    return _verdict(decomp.crossing, "deleted word {} reachable from cells {} and {}")


def check_c3(decomp: CellDecomposition) -> ConditionCheck:
    """Internal distance: within a member, 0-deletions never meet 1-deletions."""
    return _verdict(decomp.clash, "cell {}: word {} arises from both a 0-deletion and a 1-deletion")


def is_brs_stable(decomp: CellDecomposition) -> ConditionCheck:
    """Whether all cells share the same run-support multisets for both bits."""
    return _verdict(decomp.unstable, "cells 0 and {1} have different {0}-run support multisets")


def condition_report(fam: FamilySet) -> ConditionReport:
    """Run each check once on one cell decomposition of the family.

    Homogeneity is equal cell sizes plus run-support stability.
    """
    decomp = cell_decomposition(fam.cells)
    c1, ratios = check_c1(decomp)
    stable = is_brs_stable(decomp)
    homogeneous = stable
    if len(set(decomp.sizes)) > 1:
        homogeneous = ConditionCheck(False, f"cell sizes differ: {sorted(decomp.sizes)}")
    return ConditionReport(
        c1=c1,
        c2=check_c2(decomp),
        c3=check_c3(decomp),
        ratios=ratios,
        decomposition=decomp,
        collision=decomp.collision,
        stable=stable,
        homogeneous=homogeneous,
    )


def is_homogeneous(fam: FamilySet, code: ClassicalCode) -> tuple[bool, str]:
    """Partition + equal cell sizes + run-support stability.

    Whether the code itself corrects a single deletion is reported in the
    reason string but does not affect the verdict; the sufficiency
    corollary needs it, the partition structure does not.
    """
    if not is_partition_of(fam, code):
        return False, "not a partition of the code"
    report = condition_report(fam)
    if not report.homogeneous.passed:
        return False, report.homogeneous.witness
    if report.collision is not None:
        return True, "homogeneous (but the code itself does not correct a single deletion)"
    return True, "homogeneous"


def _equal_blocks(items: Sequence[str], block_size: int, keep) -> Iterable[list[tuple[str, ...]]]:
    """All partitions of ``items`` into blocks of ``block_size``, anchored on the
    smallest remaining item so each partition appears exactly once, in a
    deterministic order.  ``keep`` prunes candidate blocks early."""
    if not items:
        yield []
        return
    anchor, rest = items[0], items[1:]
    for companions in itertools.combinations(rest, block_size - 1):
        block = (anchor, *companions)
        if not keep(block):
            continue
        chosen = set(companions)
        remaining = [w for w in rest if w not in chosen]
        for tail in _equal_blocks(remaining, block_size, keep):
            yield [block, *tail]


SEARCH_WORD_LIMIT = 12


def guard_search_size(words: int) -> None:
    """Refuse to search a code of ``words`` words, past ``SEARCH_WORD_LIMIT``."""
    if words > SEARCH_WORD_LIMIT:
        raise SizeGuardError(f"search is limited to {SEARCH_WORD_LIMIT} words, code has {words}")


def search_homogeneous(code: ClassicalCode, max_cells: int) -> list[FamilySet]:
    """Exhaustively enumerate the homogeneous equal-size partitions of a code.

    Cheap necessary filters run first: a block size must divide the code,
    and every block's run-support multiset must equal the code's total
    multiset divided evenly, so blocks failing that signature are pruned
    before the recursion continues.  Refused past ``SEARCH_WORD_LIMIT`` words.
    """
    guard_search_size(len(code.words))
    words = sorted(code.words)
    totals = run_support_multisets(words)
    found: list[FamilySet] = []
    for cell_count in range(2, min(max_cells, len(words) // 2) + 1):
        if len(words) % cell_count != 0:
            continue
        block_size = len(words) // cell_count
        if any(count % cell_count for total in totals for count in total.values()):
            continue
        targets = tuple(
            Counter({mask: count // cell_count for mask, count in total.items()})
            for total in totals
        )

        def keep(block, _targets=targets):
            return run_support_multisets(block) == _targets

        for blocks in _equal_blocks(words, block_size, keep):
            fam = FamilySet(blocks)
            ok, why = is_homogeneous(fam, code)
            if not ok:
                raise InvariantError(
                    f"pruned enumeration produced a non-homogeneous partition: {why}"
                )
            found.append(fam)
    return found
