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

from .bits import run_support_multiset
from .codes import ClassicalCode, is_single_deletion_code
from .delsets import CellLabel, DeletionIndex, deletion_index
from .errors import InvariantError
from .family import FamilySet

LambdaTable = dict[CellLabel, Fraction]


class SizeGuardError(Exception):
    """Raised when an exhaustive enumeration would exceed its size guard."""


@dataclass(frozen=True)
class ConditionCheck:
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three condition checks, plus the ratio table on success.

    The same deletion index gives each reachable label's deleted words with
    the index of their family cell (``cells``), two codewords of the union
    sharing a deleted word (``collision``), run-support stability and
    homogeneity.
    """

    c1: ConditionCheck
    c2: ConditionCheck
    c3: ConditionCheck
    ratios: LambdaTable | None
    cells: dict[CellLabel, dict[str, int]]
    collision: tuple[str, str] | None
    stable: ConditionCheck
    homogeneous: ConditionCheck

    @property
    def all_passed(self) -> bool:
        return self.c1.passed and self.c2.passed and self.c3.passed

    def lines(self) -> list[str]:
        out = []
        for name, check in (("C1", self.c1), ("C2", self.c2), ("C3", self.c3)):
            status = "PASS" if check.passed else f"FAIL {check.witness}"
            out.append(f"{name} {status}")
        return out


def _coerce_cells(fam) -> list[frozenset[str]]:
    if isinstance(fam, FamilySet):
        return list(fam.cells)
    return [frozenset(cell) for cell in fam]


def is_partition_of(fam, code: ClassicalCode) -> bool:
    """Whether the cells are disjoint and their union is exactly the code."""
    cells = _coerce_cells(fam)
    total = sum(len(c) for c in cells)
    union = set().union(*cells) if cells else set()
    return len(union) == total and union == set(code.words)


def _ratios(index: DeletionIndex) -> tuple[ConditionCheck, LambdaTable | None]:
    """Ratio condition: cell sizes scale with member sizes at every label.

    On success returns the common ratio per label as exact fractions.
    The per-position normalization (for each position, ratios over the
    labels containing it sum to one across both bits) holds by counting
    and is checked with zero tolerance.
    """
    sizes = index.sizes
    ratios: LambdaTable = {}
    for label, owners in index.cells.items():
        counts = Counter(owners.values())
        for m in range(1, len(sizes)):
            if sizes[0] * counts[m] != sizes[m] * counts[0]:
                witness = (
                    f"label {label}: cells 0 and {m} have ratios "
                    f"{counts[0]}/{sizes[0]} vs {counts[m]}/{sizes[m]}"
                )
                return ConditionCheck(False, witness), None
        ratios[label] = Fraction(counts[0], sizes[0])
    for i in range(1, index.n + 1):
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


def _homogeneity(index: DeletionIndex) -> tuple[ConditionCheck, ConditionCheck]:
    """Run-support stability, and homogeneity: equal cell sizes and stability."""
    stable = _verdict(index.unstable, "cells 0 and {1} have different {0}-run support multisets")
    if len(set(index.sizes)) > 1:
        return stable, ConditionCheck(False, f"cell sizes differ: {sorted(index.sizes)}")
    return stable, stable


def condition_report(fam: FamilySet) -> ConditionReport:
    """Run all three checks, and the facts they share, from one deletion index."""
    index = deletion_index(fam.cells)
    c1, ratios = _ratios(index)
    stable, homogeneous = _homogeneity(index)
    return ConditionReport(
        c1=c1,
        c2=_verdict(index.crossing, "deleted word {} reachable from cells {} and {}"),
        c3=_verdict(index.clash, "cell {}: word {} arises from both a 0-deletion and a 1-deletion"),
        ratios=ratios,
        cells=index.cells,
        collision=index.collision,
        stable=stable,
        homogeneous=homogeneous,
    )


def check_c1(fam: FamilySet) -> tuple[ConditionCheck, LambdaTable | None]:
    """Ratio condition, with the exact ratio table on success."""
    return _ratios(deletion_index(fam.cells))


def check_c2(fam: FamilySet) -> ConditionCheck:
    """External distance: deleted words of distinct members never collide."""
    return condition_report(fam).c2


def check_c3(fam: FamilySet) -> ConditionCheck:
    """Internal distance: within a member, 0-deletions never meet 1-deletions."""
    return condition_report(fam).c3


def is_brs_stable(fam) -> tuple[bool, str | None]:
    """Whether all cells share the same run-support multisets for both bits."""
    stable, _ = _homogeneity(deletion_index(_coerce_cells(fam)))
    return stable.passed, stable.witness


def is_homogeneous(fam, code: ClassicalCode) -> tuple[bool, str]:
    """Partition + equal cell sizes + run-support stability.

    Whether the code itself corrects a single deletion is reported in the
    reason string but does not affect the verdict; the sufficiency
    corollary needs it, the partition structure does not.
    """
    cells = _coerce_cells(fam)
    if not is_partition_of(cells, code):
        return False, "not a partition of the code"
    index = deletion_index(cells)
    _, check = _homogeneity(index)
    if not check.passed:
        return False, check.witness
    if index.collision is not None:
        return True, "homogeneous (but the code itself does not correct a single deletion)"
    return True, "homogeneous"


@dataclass(frozen=True)
class SufficiencyReport:
    """Hypothesis/conclusion pairs for the sufficiency results, on one family."""

    members_are_deletion_codes: bool
    c3_follows: ConditionCheck
    cross_distance_at_least_4: bool
    c2_follows: ConditionCheck
    stable_equal_deletion_cells: bool
    c1_follows: ConditionCheck

    @property
    def consistent(self) -> bool:
        """True unless some proven implication failed (an implementation bug)."""
        return (
            (not self.members_are_deletion_codes or self.c3_follows.passed)
            and (not self.cross_distance_at_least_4 or self.c2_follows.passed)
            and (not self.stable_equal_deletion_cells or self.c1_follows.passed)
        )


def check_sufficiency_theorems(fam: FamilySet) -> SufficiencyReport:
    """Evaluate each sufficiency hypothesis on ``fam`` and the implied condition."""
    members_sdc = all(
        is_single_deletion_code(ClassicalCode(fam.n, member))[0] for member in fam.cells
    )
    # distance >= 4 between equal-length words: no shared deleted word
    cross_ok = all(
        deletion_index(pair).crossing is None for pair in itertools.combinations(fam.cells, 2)
    )
    report = condition_report(fam)
    return SufficiencyReport(
        members_are_deletion_codes=members_sdc,
        c3_follows=report.c3,
        cross_distance_at_least_4=cross_ok,
        c2_follows=report.c2,
        stable_equal_deletion_cells=report.homogeneous.passed and members_sdc,
        c1_follows=report.c1,
    )


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


def search_homogeneous(code: ClassicalCode, max_cells: int) -> list[FamilySet]:
    """Exhaustively enumerate the homogeneous equal-size partitions of a code.

    Cheap necessary filters run first: a block size must divide the code,
    and every block's run-support multiset must equal the code's total
    multiset divided evenly, so blocks failing that signature are pruned
    before the recursion continues.  Guarded to |code| <= 12.
    """
    words = sorted(code.words)
    if len(words) > 12:
        raise SizeGuardError(f"search is limited to 12 words, code has {len(words)}")
    found: list[FamilySet] = []
    for cell_count in range(2, min(max_cells, len(words) // 2) + 1):
        if len(words) % cell_count != 0:
            continue
        block_size = len(words) // cell_count
        if block_size < 2:
            continue
        targets = {}
        feasible = True
        for b in (0, 1):
            total = run_support_multiset(words, b)
            if any(count % cell_count for count in total.values()):
                feasible = False
                break
            targets[b] = Counter({iv: count // cell_count for iv, count in total.items()})
        if not feasible:
            continue

        def keep(block, _targets=targets):
            return all(run_support_multiset(block, b) == _targets[b] for b in (0, 1))

        for blocks in _equal_blocks(words, block_size, keep):
            fam = FamilySet(blocks)
            ok, why = is_homogeneous(fam, code)
            if not ok:
                raise InvariantError(
                    f"pruned enumeration produced a non-homogeneous partition: {why}"
                )
            found.append(fam)
    return found
