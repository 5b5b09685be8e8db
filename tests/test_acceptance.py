"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``; the
``-v`` listing carries the same verdict per test).  Tolerances: exact
rational arithmetic where the claim is exact, 1e-9 for fidelities and
probabilities, 1e-12 for dense-matrix comparisons.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from qdelcode.codes import (
    HighRateParams,
    build_highrate_partition,
    find_params_for_rate,
    highrate_code,
    is_single_deletion_code,
    rate,
    vt_code,
)
from qdelcode.delsets import cell_decomposition
from qdelcode.family import FamilySet
from qdelcode.partition import (
    check_c1,
    check_c2,
    check_c3,
    is_brs_stable,
    is_homogeneous,
    is_partition_of,
    search_homogeneous,
)
from qdelcode.quantum import (
    CodeInstance,
    SparseState,
    delete_qubit,
    encode,
    random_message,
    roundtrip_verify,
)

from oracles import (
    SHORTEST,
    deletion_set,
    density_matrix,
    min_levenshtein,
    partial_trace,
    pure,
    random_family_cells,
    random_words,
)

FID_TOL = 1e-9
DENSE_TOL = 1e-12


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def roundtrip_ok(code: CodeInstance, trials: int, seed: int) -> bool:
    rep = roundtrip_verify(code, trials=trials, seed=seed)
    return (
        rep.min_fidelity >= 1 - FID_TOL
        and rep.max_empty_probability < FID_TOL
        and rep.max_probability_error <= FID_TOL
        and rep.passed
    )


def test_criterion_1_shortest_code_roundtrip():
    start = time.perf_counter()
    code = CodeInstance(FamilySet(SHORTEST))
    ok = roundtrip_ok(code, trials=25, seed=2024)
    elapsed = time.perf_counter() - start
    report(1, "shortest-code round trip", ok and elapsed < 1.0)


def test_criterion_2_highrate_roundtrip():
    start = time.perf_counter()
    ok = True
    for E, N in [(1, 4), (2, 4)]:
        code = CodeInstance(build_highrate_partition(HighRateParams(E, N)))
        ok = ok and roundtrip_ok(code, trials=25, seed=2024)
    elapsed = time.perf_counter() - start
    report(2, "high-rate round trip", ok and elapsed < 30.0)


def test_criterion_3_homogeneity_and_conditions():
    ok = True
    for E, N in [(1, 4), (1, 8), (2, 4), (2, 8)]:
        params = HighRateParams(E, N)
        fam = build_highrate_partition(params)
        code = highrate_code(params)
        ok = ok and is_partition_of(fam, code)
        ok = ok and len({len(c) for c in fam.cells}) == 1
        decomp = cell_decomposition(fam.cells)
        ok = ok and is_brs_stable(decomp).passed
        ok = ok and is_homogeneous(fam, code)[0]
        c1, ratios = check_c1(decomp)
        ok = ok and c1.passed and check_c2(decomp).passed and check_c3(decomp).passed
        ok = ok and all(isinstance(v, Fraction) and v > 0 for v in ratios.values())
        for i in range(1, fam.n + 1):
            total = sum(
                (v for label, v in ratios.items() if i in label.positions),
                start=Fraction(0),
            )
            ok = ok and total == 1  # exact, no tolerance
    report(3, "homogeneity and conditions", ok)


def test_criterion_4_classical_deletion_facts():
    start = time.perf_counter()
    ok = all(
        is_single_deletion_code(vt_code(n, a))[0]
        for n in range(1, 11)
        for a in range(n + 1)
    )
    ok = ok and all(
        len(vt_code(n, 0).words) >= 2**n / (n + 1) for n in range(1, 13)
    )
    ok = ok and min_levenshtein(highrate_code(HighRateParams(1, 4))) >= 4
    ok = ok and min_levenshtein(highrate_code(HighRateParams(2, 4))) >= 4
    elapsed = time.perf_counter() - start
    report(4, "classical deletion-code facts", ok and elapsed < 10.0)


def test_criterion_5_rate_targets():
    ok = rate(HighRateParams(2, 8)) == Fraction(3, 8)
    for target in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        ok = ok and rate(find_params_for_rate(target)) > target
    report(5, "rate formula and rate targets", ok)


def _labels_and_cells(member, b):
    cells = cell_decomposition([member]).cells
    return {label: frozenset(ys) for label, ys in cells.items() if label.bit == b}


def _lemma_delEqXIb(member, n) -> bool:
    for b in (0, 1):
        cells = _labels_and_cells(member, b)
        for j in range(1, n + 1):
            union: set[str] = set()
            count = 0
            for label, words in cells.items():
                if j in label.positions:
                    union |= words
                    count += len(words)
            if union != deletion_set(member, j, b) or count != len(union):
                return False
    return True


def _lemma_delIncludion(member, n) -> bool:
    for b in (0, 1):
        for label, words in _labels_and_cells(member, b).items():
            for i in range(1, n + 1):
                ds = deletion_set(member, i, b)
                if i in label.positions:
                    if not words <= ds:
                        return False
                elif words & ds:
                    return False
    return True


def _lemma_Jofx(member, n) -> bool:
    for b in (0, 1):
        cells = _labels_and_cells(member, b)
        everything = {y for words in cells.values() for y in words}
        for y in everything:
            reach = frozenset(
                i for i in range(1, n + 1) if y in deletion_set(member, i, b)
            )
            homes = [label for label, words in cells.items() if y in words]
            if len(homes) != 1 or frozenset(homes[0].positions) != reach:
                return False
    return True


def _supports(fam: FamilySet):
    """Measurement supports: for each label, the union of all members' cells."""
    supports: dict = {}
    for member in fam.cells:
        for b in (0, 1):
            for label, words in _labels_and_cells(member, b).items():
                supports.setdefault(label, set()).update(words)
    return supports


def _projection_lemmas_hold(fam: FamilySet) -> bool:
    """Cell-disjointness statements and their converses.

    Within one member, cells of opposite deleted bits are pairwise
    disjoint exactly when C3 holds; across two members, the full
    deleted-word sets are disjoint exactly when C2 holds.  Both together
    force the measurement supports to be pairwise disjoint.
    """
    decomp = cell_decomposition(fam.cells)
    c2 = check_c2(decomp).passed
    c3 = check_c3(decomp).passed

    within_ok = True
    for member in fam.cells:
        per_bit = {b: _labels_and_cells(member, b) for b in (0, 1)}
        for w0 in per_bit[0].values():
            for w1 in per_bit[1].values():
                if w0 & w1:
                    within_ok = False
    if within_ok != c3:
        return False

    across_ok = True
    for m1, m2 in itertools.combinations(range(fam.size), 2):
        words1 = {
            y
            for b in (0, 1)
            for words in _labels_and_cells(fam.cells[m1], b).values()
            for y in words
        }
        words2 = {
            y
            for b in (0, 1)
            for words in _labels_and_cells(fam.cells[m2], b).values()
            for y in words
        }
        if words1 & words2:
            across_ok = False
    if across_ok != c2:
        return False

    if c2 and c3:
        supports = _supports(fam)
        total = sum(len(s) for s in supports.values())
        union = set().union(*supports.values())
        if total != len(union):
            return False
    return True


def _dense_projector_algebra(fam: FamilySet) -> bool:
    """Dense-matrix check of the measurement algebra for short words.

    Idempotence and hermiticity hold for any family; orthogonality of
    distinct outcome projectors and completeness (sum plus the no-match
    projector equals the identity) additionally need C2 and C3.
    """
    supports = _supports(fam)
    dim = 2 ** (fam.n - 1)
    mats = []
    union: set[str] = set()
    for label in sorted(supports):
        diag = np.zeros(dim)
        for y in supports[label]:
            diag[int(y, 2)] = 1.0
        mats.append(np.diag(diag))
        union |= supports[label]
    empty_diag = np.ones(dim)
    for y in union:
        empty_diag[int(y, 2)] = 0.0
    empty = np.diag(empty_diag)

    for P in mats + [empty]:
        if np.max(np.abs(P @ P - P)) > DENSE_TOL:
            return False
        if np.max(np.abs(P - P.conj().T)) > DENSE_TOL:
            return False

    decomp = cell_decomposition(fam.cells)
    if check_c2(decomp).passed and check_c3(decomp).passed:
        everything = mats + [empty]
        for a in range(len(everything)):
            for b in range(a + 1, len(everything)):
                if np.max(np.abs(everything[a] @ everything[b])) > DENSE_TOL:
                    return False
        if np.max(np.abs(sum(everything) - np.eye(dim))) > DENSE_TOL:
            return False
    return True


def test_criterion_6_lemma_suite():
    rng = random.Random("acceptance-lemmas")
    pools = [
        None,
        None,
        None,
        None,
        None,
        sorted(vt_code(5, 0).words),
        sorted(vt_code(6, 0).words),
    ]
    ok = True
    dense_checked = 0
    for k in range(200):
        fam = FamilySet(random_family_cells(rng, pools[k % len(pools)]))
        if fam.n < 2:
            continue
        for member in fam.cells:
            ok = ok and _lemma_delEqXIb(member, fam.n)
            ok = ok and _lemma_delIncludion(member, fam.n)
            ok = ok and _lemma_Jofx(member, fam.n)
        ok = ok and _projection_lemmas_hold(fam)
        if fam.n <= 5:
            ok = ok and _dense_projector_algebra(fam)
            dense_checked += 1
    report(6, "lemma suite over 200 random families", ok and dense_checked >= 30)


def test_criterion_7_search_reproduction():
    start = time.perf_counter()
    ok = search_homogeneous(vt_code(4, 0), 12) == []
    params = HighRateParams(1, 4)
    ok = ok and build_highrate_partition(params) in search_homogeneous(
        highrate_code(params), 12
    )
    elapsed = time.perf_counter() - start
    report(7, "search reproduction", ok and elapsed < 5.0)


def test_criterion_8_deletion_channel_oracle():
    ok = True
    code = CodeInstance(FamilySet(SHORTEST))
    rng = random.Random("acceptance-channel")
    code_states = [encode(code, code.basis_message(m)) for m in range(2)]
    code_states.append(encode(code, code.uniform_message()))
    code_states += [encode(code, random_message(code, rng)) for _ in range(10)]
    for state in code_states:
        for i in range(1, 5):
            got = density_matrix(delete_qubit(state, i))
            want = partial_trace(density_matrix(pure(state)), 4, i)
            ok = ok and np.max(np.abs(got - want)) <= DENSE_TOL
    for _ in range(40):
        n = rng.randint(2, 5)
        words = random_words(rng, n, rng.randint(1, 2**n))
        amps = {w: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for w in words}
        _, state = SparseState.from_unnormalized(n, amps)
        i = rng.randint(1, n)
        got = density_matrix(delete_qubit(state, i))
        want = partial_trace(density_matrix(pure(state)), n, i)
        ok = ok and np.max(np.abs(got - want)) <= DENSE_TOL
    report(8, "deletion channel matches dense partial trace", ok)
