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

from .bits import delete_at, run_support_multiset
from .codes import ClassicalCode, is_single_deletion_code
from .delsets import CellLabel, cell_decomposition
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
    """Outcome of the three condition checks, plus the ratio table on success."""

    c1: ConditionCheck
    c2: ConditionCheck
    c3: ConditionCheck
    ratios: LambdaTable | None

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


def _decompositions(fam: FamilySet):
    """Per-member, per-bit cell decompositions (memoized on the family)."""
    cached = getattr(fam, "_decomp_cache", None)
    if cached is None:
        cached = [
            {b: cell_decomposition(member, b) for b in (0, 1)} for member in fam.cells
        ]
        fam._decomp_cache = cached  # type: ignore[attr-defined]
    return cached


def check_c1(fam: FamilySet) -> tuple[ConditionCheck, LambdaTable | None]:
    """Ratio condition: cell sizes scale with member sizes at every label.

    On success returns the common ratio per label as exact fractions.
    The per-position normalization (for each position, ratios over the
    labels containing it sum to one across both bits) holds by counting
    and is checked with zero tolerance.
    """
    decomps = _decompositions(fam)
    labels: set[CellLabel] = set()
    for per_bit in decomps:
        for decomp in per_bit.values():
            labels.update(decomp.cells)
    sizes = [len(member) for member in fam.cells]
    for label in sorted(labels):
        counts = [len(per_bit[label.bit].cells.get(label, ())) for per_bit in decomps]
        for m in range(1, len(counts)):
            if sizes[0] * counts[m] != sizes[m] * counts[0]:
                witness = (
                    f"label {label}: cells 0 and {m} have ratios "
                    f"{counts[0]}/{sizes[0]} vs {counts[m]}/{sizes[m]}"
                )
                return ConditionCheck(False, witness), None
    ratios: LambdaTable = {
        label: Fraction(
            len(decomps[0][label.bit].cells.get(label, ())), sizes[0]
        )
        for label in labels
    }
    for i in range(1, fam.n + 1):
        total = sum(
            (r for label, r in ratios.items() if i in label.positions),
            start=Fraction(0),
        )
        if total != 1:
            raise InvariantError(f"ratio normalization broken at position {i}: {total}")
    return ConditionCheck(True), ratios


def check_c2(fam: FamilySet) -> ConditionCheck:
    """External distance: deleted words of distinct members never collide.

    Checked as disjointness of the members' whole deleted-word sets,
    which is equivalent to the per-position formulation.
    """
    owner: dict[str, int] = {}
    for m, member in enumerate(fam.cells):
        seen: set[str] = set()
        for x in member:
            for i in range(1, fam.n + 1):
                seen.add(delete_at(x, i))
        for y in seen:
            if y in owner and owner[y] != m:
                return ConditionCheck(
                    False, f"deleted word {y} reachable from cells {owner[y]} and {m}"
                )
            owner[y] = m
    return ConditionCheck(True)


def check_c3(fam: FamilySet) -> ConditionCheck:
    """Internal distance: within a member, 0-deletions never meet 1-deletions."""
    for m, member in enumerate(fam.cells):
        by_bit: dict[int, set[str]] = {0: set(), 1: set()}
        for x in member:
            for i in range(1, fam.n + 1):
                by_bit[int(x[i - 1])].add(delete_at(x, i))
        clash = by_bit[0] & by_bit[1]
        if clash:
            y = sorted(clash)[0]
            return ConditionCheck(
                False, f"cell {m}: word {y} arises from both a 0-deletion and a 1-deletion"
            )
    return ConditionCheck(True)


def condition_report(fam: FamilySet) -> ConditionReport:
    """Run all three checks and bundle the results."""
    c1, ratios = check_c1(fam)
    return ConditionReport(c1=c1, c2=check_c2(fam), c3=check_c3(fam), ratios=ratios)


def is_brs_stable(fam) -> tuple[bool, str | None]:
    """Whether all cells share the same run-support multisets for both bits."""
    cells = _coerce_cells(fam)
    for b in (0, 1):
        reference = run_support_multiset(cells[0], b)
        for m in range(1, len(cells)):
            if run_support_multiset(cells[m], b) != reference:
                return False, f"cells 0 and {m} have different {b}-run support multisets"
    return True, None


def is_homogeneous(fam, code: ClassicalCode) -> tuple[bool, str]:
    """Partition + equal cell sizes + run-support stability.

    Whether the code itself corrects a single deletion is reported in the
    reason string but does not affect the verdict; the sufficiency
    corollary needs it, the partition structure does not.
    """
    cells = _coerce_cells(fam)
    if not is_partition_of(cells, code):
        return False, "not a partition of the code"
    sizes = {len(c) for c in cells}
    if len(sizes) > 1:
        return False, f"cell sizes differ: {sorted(len(c) for c in cells)}"
    stable, why = is_brs_stable(cells)
    if not stable:
        return False, why or "not run-support stable"
    sdc, _ = is_single_deletion_code(code)
    note = "" if sdc else " (but the code itself does not correct a single deletion)"
    return True, "homogeneous" + note


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
    cross_ok = True
    members = list(fam.cells)
    surfaces = [
        {w: set(delete_at(w, i) for i in range(1, fam.n + 1)) for w in member}
        for member in members
    ]
    for m1 in range(len(members)):
        for m2 in range(m1 + 1, len(members)):
            for x in members[m1]:
                if any(not surfaces[m1][x].isdisjoint(surfaces[m2][y]) for y in members[m2]):
                    cross_ok = False
    stable, _ = is_brs_stable(fam)
    equal_sizes = len({len(c) for c in fam.cells}) == 1
    c1, _ = check_c1(fam)
    return SufficiencyReport(
        members_are_deletion_codes=members_sdc,
        c3_follows=check_c3(fam),
        cross_distance_at_least_4=cross_ok,
        c2_follows=check_c2(fam),
        stable_equal_deletion_cells=stable and members_sdc and equal_sizes,
        c1_follows=c1,
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
