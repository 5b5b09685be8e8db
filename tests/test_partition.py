"""Condition checks, BRS stability, homogeneity, sufficiency, partition search."""

import importlib.util
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdelcode.codes import (
    ClassicalCode,
    HighRateParams,
    build_highrate_partition,
    highrate_code,
    is_single_deletion_code,
    vt_code,
)
from qdelcode import partition
from qdelcode.delsets import CellDecomposition, CellLabel, cell_decomposition, run_support_multisets
from qdelcode.errors import InvariantError
from qdelcode.family import FamilySet
from qdelcode.partition import (
    ConditionCheck,
    SizeGuardError,
    check_c1,
    check_c2,
    check_c3,
    condition_report,
    guard_search_size,
    is_brs_stable,
    is_homogeneous,
    is_partition_of,
    search_homogeneous,
)

from oracles import (
    SHORTEST,
    brute_cell,
    cell_label,
    check_sufficiency_theorems,
    deletion_set,
    direct_conditions,
    random_family_cells,
)

# the [7,4] Hamming code split into even-weight words and the rest
HAMMING_EVEN = [
    "0000000", "0001111", "0111100", "0110011",
    "1010101", "1011010", "1100110", "1101001",
]
HAMMING_ODD = [
    "1111111", "1110000", "1000011", "1001100",
    "0101010", "0100101", "0011001", "0010110",
]

# two 2-word cells with identical run-support multisets on 6 bits
BRS_PAIR = [["000101", "010111"], ["010101", "000111"]]


def shortest_family() -> FamilySet:
    return FamilySet(SHORTEST)


def even_weight_code(n: int) -> ClassicalCode:
    words = frozenset(
        "".join(bits)
        for bits in itertools.product("01", repeat=n)
        if bits.count("1") % 2 == 0
    )
    return ClassicalCode(n, words)


def test_is_partition_of_shortest():
    assert is_partition_of(shortest_family(), even_weight_code(4))


def test_is_partition_of_hamming_split():
    fam = FamilySet([HAMMING_EVEN, HAMMING_ODD])
    hamming = ClassicalCode(7, frozenset(HAMMING_EVEN) | frozenset(HAMMING_ODD))
    assert is_partition_of(fam, hamming)


def test_is_partition_of_rejects_overlap_and_gaps():
    two = ClassicalCode(2, frozenset({"00", "11"}))
    with pytest.raises(ValueError) as exc:  # an overlapping family cannot be built
        FamilySet([["00"], ["00", "11"]])
    assert str(exc.value) == (
        "sets[1][0]: word '00' is also in sets[0][0]; cells must be pairwise disjoint"
    )
    assert not is_partition_of(FamilySet([["00"]]), two)
    assert not is_partition_of(FamilySet([["00"], ["11"], ["01"]]), two)


def test_check_c1_shortest():
    check, ratios = check_c1(cell_decomposition(SHORTEST))
    assert check.passed
    assert ratios == {
        cell_label([1, 2, 3, 4], 0): Fraction(1, 2),
        cell_label([1, 2, 3, 4], 1): Fraction(1, 2),
    }


def test_check_c1_single_cell():
    check, ratios = check_c1(cell_decomposition([["0000"]]))
    assert check.passed
    assert ratios == {cell_label([1, 2, 3, 4], 0): Fraction(1)}


def test_check_c1_fail_witness():
    check, ratios = check_c1(cell_decomposition([["0000", "1111"], ["0011"]]))
    assert not check.passed
    assert check.witness is not None
    assert ratios is None


def test_check_c1_refuses_a_decomposition_that_misses_a_position():
    """No family leaves position 1 out of every label; a hand-built one does."""
    label = CellLabel((2,), 0)
    broken = CellDecomposition(
        n=2, sizes=(1,), label_of={"0": label}, ends=(1,), shared={},
        counts={0: {label: 1}}, collision=None, crossing=None, clash=None, unstable=None,
    )
    with pytest.raises(InvariantError, match="^ratio normalization broken at position 1: 0$"):
        check_c1(broken)


def test_lambda_tables_normalize_per_position():
    families = [
        shortest_family(),
        build_highrate_partition(HighRateParams(1, 4)),
        build_highrate_partition(HighRateParams(2, 4)),
    ]
    for fam in families:
        check, ratios = check_c1(cell_decomposition(fam.cells))
        assert check.passed
        assert all(v > 0 for v in ratios.values())
        for i in range(1, fam.n + 1):
            per_position = sum(
                (v for label, v in ratios.items() if i in label.positions),
                start=Fraction(0),
            )
            assert per_position == 1


def test_check_c2_shortest_and_witness():
    assert check_c2(cell_decomposition(SHORTEST)).passed
    bad = check_c2(cell_decomposition([["0000"], ["1000"]]))
    assert not bad.passed
    assert "000" in bad.witness
    assert check_c2(cell_decomposition([["0000"]])).passed  # nothing to collide with


def test_check_c3_values():
    assert check_c3(cell_decomposition(SHORTEST)).passed
    assert check_c3(cell_decomposition([["0000"]])).passed
    bad = check_c3(cell_decomposition([["001", "101"]]))
    assert not bad.passed
    assert "01" in bad.witness
    # these two look like candidates for failure but their 0- and
    # 1-deletion sets are in fact disjoint
    assert check_c3(cell_decomposition([["0110", "1001"]])).passed
    assert check_c3(cell_decomposition([["01", "10"]])).passed


def _c2_quantified(fam: FamilySet) -> bool:
    for m1, m2 in itertools.combinations(range(fam.size), 2):
        for i1 in range(1, fam.n + 1):
            for i2 in range(1, fam.n + 1):
                for b1 in (0, 1):
                    for b2 in (0, 1):
                        d1 = deletion_set(fam.cells[m1], i1, b1)
                        d2 = deletion_set(fam.cells[m2], i2, b2)
                        if d1 & d2:
                            return False
    return True


def _c3_quantified(fam: FamilySet) -> bool:
    for member in fam.cells:
        for i1 in range(1, fam.n + 1):
            for i2 in range(1, fam.n + 1):
                if deletion_set(member, i1, 0) & deletion_set(member, i2, 1):
                    return False
    return True


def test_c2_c3_match_quantified_forms():
    """The fast set-union checks agree with the literal all-pairs loops."""
    rng = random.Random("partition-quantified")
    pools = [None, sorted(vt_code(5, 0).words), sorted(vt_code(6, 0).words)]
    for k in range(60):
        cells = random_family_cells(rng, pools[k % len(pools)])
        fam = FamilySet(cells)
        if fam.n < 2:
            continue
        assert check_c2(cell_decomposition(fam.cells)).passed == _c2_quantified(fam)
        assert check_c3(cell_decomposition(fam.cells)).passed == _c3_quantified(fam)


@st.composite
def small_families(draw):
    """1..4 disjoint cells of short words, so deleted words often coincide
    across cells, across bits and between two words of one cell."""
    n = draw(st.integers(1, 6))
    word = st.text(alphabet="01", min_size=n, max_size=n)
    words = draw(st.lists(word, min_size=1, max_size=10, unique=True))
    k = draw(st.integers(1, min(4, len(words))))
    return [words[j::k] for j in range(k)]


@given(small_families())
@example([["0110", "1010"], ["1111"]])  # 110 comes from both words of cell 0
@example([["0101"], ["1010"]])  # C2 fails on two deleted words, 010 and 101
@example(BRS_PAIR)
@settings(max_examples=300, deadline=None)
def test_deletion_index_matches_direct_recomputation(cells):
    fam = FamilySet(cells)
    index = cell_decomposition(fam.cells)
    oracle = direct_conditions(cells)
    assert list(index.cells) == sorted(index.cells)
    by_cell: dict = {}
    for label, owners in index.cells.items():
        for m, cell in enumerate(cells):
            words = {y for y, k in owners.items() if k == m}
            assert words == brute_cell(cell, label.positions, label.bit)
            if words:
                by_cell.setdefault((label.positions, label.bit), {})[m] = words
    assert by_cell == oracle["cells"]
    assert index.crossing == oracle["crossing"]
    assert index.clash == oracle["clash"]
    assert index.collision == oracle["collision"]
    assert index.unstable == oracle["unstable"]

    report = condition_report(fam)
    if oracle["c1"] is None:
        assert report.c1 == ConditionCheck(True)
        assert report.ratios == {CellLabel(*key): r for key, r in oracle["ratios"].items()}
    else:
        positions, b, m = oracle["c1"]
        per = oracle["cells"][(positions, b)]
        c0, cm = len(per.get(0, ())), len(per.get(m, ()))
        s0, sm = len(cells[0]), len(cells[m])
        label = CellLabel(positions, b)
        witness = f"label {label}: cells 0 and {m} have ratios {c0}/{s0} vs {cm}/{sm}"
        assert report.c1 == ConditionCheck(False, witness)
        assert report.ratios is None
    if oracle["crossing"] is None:
        assert report.c2 == ConditionCheck(True)
    else:
        y, owner, m = oracle["crossing"]
        witness = f"deleted word {y} reachable from cells {owner} and {m}"
        assert report.c2 == ConditionCheck(False, witness)
    if oracle["clash"] is None:
        assert report.c3 == ConditionCheck(True)
    else:
        m, y = oracle["clash"]
        witness = f"cell {m}: word {y} arises from both a 0-deletion and a 1-deletion"
        assert report.c3 == ConditionCheck(False, witness)
    assert report.collision == oracle["collision"]
    assert is_single_deletion_code(ClassicalCode(fam.n, fam.words())) == (
        oracle["collision"] is None, oracle["collision"]
    )
    assert report.stable.passed == (oracle["unstable"] is None) == is_brs_stable(index).passed
    equal = len({len(c) for c in cells}) == 1
    assert report.homogeneous.passed == (equal and oracle["unstable"] is None)


def test_brs_stable_worked_example():
    check = is_brs_stable(cell_decomposition(BRS_PAIR))
    stable, witness = check.passed, check.witness
    assert stable and witness is None
    # run masks: bit i-1 is set for position i
    assert run_support_multisets(BRS_PAIR[0]) == (
        Counter({0b000111: 1, 0b010000: 1, 0b000001: 1, 0b000100: 1}),
        Counter({0b001000: 1, 0b100000: 1, 0b000010: 1, 0b111000: 1}),
    )
    assert run_support_multisets(BRS_PAIR[1]) == run_support_multisets(BRS_PAIR[0])


def test_brs_unstable_example():
    check = is_brs_stable(cell_decomposition([["0000", "1001"], ["0110", "1111"]]))
    stable, witness = check.passed, check.witness
    assert not stable
    assert witness


def test_brs_unstable_names_the_bit_whose_runs_differ():
    """The two cells share their 1-run multisets; only the 0-runs differ."""
    cells = [["1010", "0000"], ["1000", "0010"]]
    assert run_support_multisets(cells[0])[1] == run_support_multisets(cells[1])[1]
    assert is_brs_stable(cell_decomposition(cells)) == ConditionCheck(
        False, "cells 0 and 1 have different 0-run support multisets"
    )


def test_tracer_sees_every_stage_of_the_check():
    """The benchmark tracer times each named stage inside ``condition_report``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    fam = FamilySet(SHORTEST)
    with tracing.Tracer() as tracer:
        partition.condition_report(fam)
    spans, counts, _ = tracer.drain()
    stages = ["delsets.cell_decomposition", "partition.check_c1", "partition.check_c2",
              "partition.check_c3", "partition.is_brs_stable"]
    root, *children = [(name, parent) for name, _, _, parent in spans]
    assert root == ("partition.condition_report", -1)
    assert sorted(children) == [(stage, 0) for stage in stages]
    assert counts["delsets.labels"] == 2
    assert counts["delsets.deleted_words"] == 8


def test_brs_trivial_and_order_invariant():
    assert is_brs_stable(cell_decomposition([["0101"]])).passed
    rng = random.Random("partition-brs-order")
    for _ in range(20):
        cells = random_family_cells(rng)
        forward = is_brs_stable(cell_decomposition(cells)).passed
        backward = is_brs_stable(cell_decomposition(list(reversed(cells)))).passed
        assert forward == backward


def test_is_homogeneous_highrate():
    params = HighRateParams(1, 4)
    fam = build_highrate_partition(params)
    verdict, reason = is_homogeneous(fam, highrate_code(params))
    assert verdict
    assert "homogeneous" in reason


def test_is_homogeneous_shortest_fails_on_sizes():
    verdict, reason = is_homogeneous(shortest_family(), even_weight_code(4))
    assert not verdict
    assert "sizes" in reason


def test_is_homogeneous_refuses_a_family_that_misses_a_word():
    code = ClassicalCode(2, frozenset({"00", "11", "01"}))
    verdict = is_homogeneous(FamilySet([["00"], ["11"]]), code)
    assert verdict == (False, "not a partition of the code")


def test_is_homogeneous_single_cell():
    code = ClassicalCode(4, frozenset({"0000", "1111"}))
    verdict, _ = is_homogeneous(FamilySet([["0000", "1111"]]), code)
    assert verdict


def test_brs_pair_family_conditions():
    """Both members correct one deletion, so C1 and C3 are forced; the
    cross-cell distance is only 2, so C2 fails and the union is not a
    single-deletion code."""
    fam = FamilySet(BRS_PAIR)
    union = ClassicalCode(6, fam.words())
    verdict, reason = is_homogeneous(fam, union)
    assert verdict
    assert "does not correct" in reason
    report = condition_report(fam)
    assert report.c1.passed
    assert report.c3.passed
    assert not report.c2.passed
    sufficiency = check_sufficiency_theorems(fam)
    assert sufficiency.members_are_deletion_codes
    assert sufficiency.stable_equal_deletion_cells
    assert not sufficiency.cross_distance_at_least_4
    assert sufficiency.consistent


def test_sufficiency_on_highrate_families():
    for E, N in [(1, 4), (2, 4), (1, 8)]:
        fam = build_highrate_partition(HighRateParams(E, N))
        report = check_sufficiency_theorems(fam)
        assert report.members_are_deletion_codes
        assert report.cross_distance_at_least_4
        assert report.stable_equal_deletion_cells
        assert report.c1_follows.passed
        assert report.c2_follows.passed
        assert report.c3_follows.passed
        assert report.consistent


def test_sufficiency_never_contradicted_on_random_families():
    rng = random.Random("partition-sufficiency")
    pools = [None, sorted(vt_code(4, 0).words), sorted(vt_code(6, 0).words)]
    for k in range(80):
        fam = FamilySet(random_family_cells(rng, pools[k % len(pools)]))
        assert check_sufficiency_theorems(fam).consistent


def test_condition_report_lines():
    lines = condition_report(shortest_family()).lines()
    assert lines == ["C1 PASS", "C2 PASS", "C3 PASS"]
    bad = condition_report(FamilySet([["0000"], ["1000"]])).lines()
    assert bad[1].startswith("C2 FAIL")


def test_search_vt4_finds_nothing():
    assert search_homogeneous(vt_code(4, 0), 12) == []


def test_search_vt6_finds_nothing():
    assert search_homogeneous(vt_code(6, 0), 12) == []


def test_search_three_words_has_no_candidates():
    code = ClassicalCode(3, frozenset({"000", "011", "101"}))
    assert search_homogeneous(code, 12) == []


def test_search_guard():
    with pytest.raises(SizeGuardError):
        search_homogeneous(vt_code(7, 0), 12)  # 16 words


def test_search_guard_boundary():
    guard_search_size(12)  # the limit itself is searched
    with pytest.raises(SizeGuardError, match="^search is limited to 12 words, code has 13$"):
        guard_search_size(13)


def test_search_highrate_rediscovers_construction():
    params = HighRateParams(1, 4)
    found = search_homogeneous(highrate_code(params), 12)
    assert build_highrate_partition(params) in found
    code = highrate_code(params)
    for fam in found:
        verdict, _ = is_homogeneous(fam, code)
        assert verdict
        # the source is a single-deletion code, so all three conditions follow
        assert condition_report(fam).all_passed


def test_search_respects_max_cells():
    params = HighRateParams(1, 4)
    everything = search_homogeneous(highrate_code(params), 12)
    limited = search_homogeneous(highrate_code(params), 2)
    assert limited == [fam for fam in everything if fam.size <= 2]
    assert all(fam.size <= 2 for fam in limited)


def test_search_tries_no_cell_count_above_max_cells():
    """(1,4) has 8 words: a 4-cell partition exists, and 4 is one past 3."""
    code = highrate_code(HighRateParams(1, 4))
    assert [fam.size for fam in search_homogeneous(code, 3)] == [2, 2, 2]
    assert [fam.size for fam in search_homogeneous(code, 4)] == [2, 2, 2, 4]
