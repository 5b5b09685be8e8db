"""Classical code constructions: VT codes and the high-rate sandwich lift."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qdelcode.codes import (
    ClassicalCode,
    HighRateParams,
    build_highrate_partition,
    find_params_for_rate,
    highrate_code,
    is_single_deletion_code,
    min_exponent_for_rate,
    rate,
    vt_code,
)

from oracles import (
    highrate_cosets,
    insert_at,
    lift,
    min_levenshtein,
    parity_check_code,
    random_words,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_vt_4_0_is_known():
    assert vt_code(4, 0).words == {"0000", "1001", "0110", "1111"}


def test_vt_trivial_and_validation():
    assert vt_code(1, 0).words == {"0"}
    assert vt_code(1, 1).words == {"1"}
    with pytest.raises(ValueError):
        vt_code(0, 0)
    # residues are taken mod n+1
    assert vt_code(4, 5).words == vt_code(4, 0).words


@pytest.mark.parametrize("n", range(1, 9))
def test_vt_codes_correct_one_deletion(n):
    for a in range(n + 1):
        ok, witness = is_single_deletion_code(vt_code(n, a))
        assert ok, witness


@pytest.mark.parametrize("n", range(1, 11))
def test_vt_zero_meets_cardinality_bound(n):
    assert len(vt_code(n, 0).words) >= 2**n / (n + 1)


def test_vt_residues_partition_the_cube():
    for n in (3, 5, 6):
        total = sum(len(vt_code(n, a).words) for a in range(n + 1))
        assert total == 2**n


def test_is_single_deletion_code_witness():
    ok, witness = is_single_deletion_code(ClassicalCode(4, frozenset({"0000", "1000"})))
    assert not ok
    assert set(witness) == {"0000", "1000"}
    ok, witness = is_single_deletion_code(ClassicalCode(4, frozenset({"0000", "1111"})))
    assert ok and witness is None
    # single word: nothing to collide with
    assert is_single_deletion_code(ClassicalCode(3, frozenset({"010"})))[0]


def test_classical_code_refuses_a_word_that_is_not_bits():
    with pytest.raises(ValueError, match="^not a bit string: 'ab'$"):
        ClassicalCode(2, frozenset({"ab", "cd"}))
    with pytest.raises(ValueError, match="^not a bit string: 2$"):
        ClassicalCode(1, frozenset({"0", 2}))
    assert ClassicalCode(3).words == frozenset()  # an empty code stays legal


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_classical_code_names_its_smallest_bad_word(hash_seed):
    """Set order follows string hashes; the named word must not."""
    script = (
        "from qdelcode.codes import ClassicalCode\n"
        "ClassicalCode(2, frozenset(['00', 'x1', 'b0', '1z', 'ab', '0c', 'zz']))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "ValueError: not a bit string: '0c'"


def test_is_single_deletion_matches_distance_route():
    """Two independent criteria: surface disjointness vs pairwise d >= 4."""
    rng = random.Random("codes-dual")
    for _ in range(60):
        n = rng.randint(2, 7)
        words = random_words(rng, n, rng.randint(2, 9))
        code = ClassicalCode(n, frozenset(words))
        assert is_single_deletion_code(code)[0] == (min_levenshtein(code) >= 4)


def test_min_levenshtein():
    assert min_levenshtein(ClassicalCode(4, frozenset({"0000", "1111"}))) == 8
    assert min_levenshtein(vt_code(4, 0)) == 4
    with pytest.raises(ValueError):
        min_levenshtein(ClassicalCode(3, frozenset({"010"})))


def test_classical_code_validation_and_rate():
    with pytest.raises(ValueError):
        ClassicalCode(3, frozenset({"01"}))
    assert ClassicalCode(4, frozenset({"0000", "1001", "0110", "1111"})).rate == 0.5


def test_insertion_balls_disjoint_for_deletion_codes():
    """Correcting one deletion also means one-insertion balls never meet."""
    cases = [highrate_code(HighRateParams(1, 4))]
    cases += [vt_code(n, 0) for n in range(2, 8)]
    for code in cases:
        assert is_single_deletion_code(code)[0]
        owner: dict[str, str] = {}
        for x in sorted(code.words):
            ball = {
                insert_at(x, g, b) for g in range(code.n + 1) for b in (0, 1)
            }
            for w in ball:
                assert owner.setdefault(w, x) == x, (w, owner[w], x)


def test_sandwich_map_example():
    assert lift((0, 1, 0, 1), HighRateParams(1, 4)) == "100110100110"
    assert lift((0, 1, 2, 3), HighRateParams(2, 4)) == "1000" "1010" "1100" "1110"
    assert "100110100110" in highrate_code(HighRateParams(1, 4)).words


def test_sandwich_map_blocks_are_framed():
    """Every block of a lifted word starts with 1, ends with 0, and codes
    its symbol; the symbols form a parity-check word."""
    for E, N in [(1, 4), (2, 4), (1, 8), (2, 8)]:
        width = E + 2
        for word in highrate_code(HighRateParams(E, N)).words:
            assert len(word) == width * N
            blocks = [word[width * r : width * (r + 1)] for r in range(N)]
            assert all(block[0] == "1" and block[-1] == "0" for block in blocks)
            assert sum(int(block[1:-1], 2) for block in blocks) % 2**E == 0


def test_parity_check_code_sizes_and_sums():
    for E, N in [(1, 4), (2, 4), (1, 8)]:
        params = HighRateParams(E, N)
        code = parity_check_code(params)
        assert len(code) == (2**E) ** (N - 1)
        assert all(sum(word) % 2**E == 0 for word in code)
        assert all(len(word) == N for word in code)


# (E, N): the smallest code (1, 2) has one cell
ORACLE_GRID = [(1, 2), (1, 4), (2, 4), (1, 8), (2, 8)]


@pytest.mark.parametrize("E, N", ORACLE_GRID)
def test_highrate_code_matches_parity_check_oracle(E, N):
    """The coset enumeration yields the lifted parity-check code, each word once."""
    params = HighRateParams(E, N)
    image = {lift(a, params) for a in parity_check_code(params)}
    assert len(image) == (2**E) ** (N - 1)
    assert highrate_code(params).words == image


@pytest.mark.parametrize("E, N", [(E, N) for E, N in ORACLE_GRID if E * (N - 2) >= 1])
def test_partition_matches_coset_oracle(E, N):
    """Cells come in the order sorting the oracle's cosets gives."""
    params = HighRateParams(E, N)
    fam = build_highrate_partition(params)
    assert fam.cells == tuple(frozenset(coset) for coset in highrate_cosets(params))


def test_highrate_code_sizes():
    assert len(highrate_code(HighRateParams(1, 4)).words) == 8
    assert highrate_code(HighRateParams(1, 4)).n == 12
    assert len(highrate_code(HighRateParams(2, 4)).words) == 64
    assert highrate_code(HighRateParams(2, 4)).n == 16


def test_highrate_min_distance():
    assert min_levenshtein(highrate_code(HighRateParams(1, 4))) >= 4


def test_highrate_params_validation():
    with pytest.raises(ValueError):
        HighRateParams(1, 3)  # N must be a multiple of 2^E
    with pytest.raises(ValueError):
        HighRateParams(2, 6)
    with pytest.raises(ValueError, match="^E and N must be positive$"):
        HighRateParams(0, 4)
    with pytest.raises(ValueError):
        build_highrate_partition(HighRateParams(1, 2))  # only one cell


def test_highrate_params_huge_exponent_names_the_power():
    """N < 2^E is refused from N's bit length, without printing 2^E."""
    with pytest.raises(ValueError, match=r"^N=4 must be a multiple of 2\^E=2\^100000$"):
        HighRateParams(100000, 4)
    with pytest.raises(ValueError, match=r"^N=3 must be a multiple of 2\^E=2$"):
        HighRateParams(1, 3)
    with pytest.raises(ValueError, match=r"^N=12 must be a multiple of 2\^E=8$"):
        HighRateParams(3, 12)


def test_highrate_params_size_exponents():
    params = HighRateParams(2, 8)
    assert 2**params.words_log2 == len(highrate_code(params).words)
    assert 2**params.dimension_log2 == build_highrate_partition(params).size
    assert (HighRateParams(1, 2).words_log2, HighRateParams(1, 2).dimension_log2) == (1, 0)


def test_partition_cells_are_cosets():
    for E, N in [(1, 4), (2, 4), (1, 8)]:
        params = HighRateParams(E, N)
        fam = build_highrate_partition(params)
        assert fam.size == (2**E) ** (N - 2)
        assert all(len(cell) == 2**E for cell in fam.cells)
        # canonical order: cells sorted by their smallest word
        smallest = [min(cell) for cell in fam.cells]
        assert smallest == sorted(smallest)


def test_partition_cells_collect_constant_shifts():
    """Each cell is the image of one coset a + (i, i, ..., i)."""
    params = HighRateParams(2, 4)
    fam = build_highrate_partition(params)
    q = params.alphabet
    for cell in fam.cells:
        words = sorted(cell)
        # recover the symbols from the framed blocks of one member
        width = params.E + 2
        base = tuple(
            int(words[0][width * r + 1 : width * r + 1 + params.E], 2)
            for r in range(params.N)
        )
        expected = {lift(tuple((s + i) % q for s in base), params) for i in range(q)}
        assert set(cell) == expected


def test_rate_values():
    assert rate(HighRateParams(2, 8)) == Fraction(3, 8)
    assert rate(HighRateParams(1, 4)) == Fraction(1, 6)


@pytest.mark.parametrize(
    "target,expected",
    [
        (Fraction(1, 10), HighRateParams(1, 4)),
        (Fraction(1, 3), HighRateParams(2, 8)),
        (Fraction(1, 2), HighRateParams(3, 16)),
    ],
)
def test_find_params_known_targets(target, expected):
    assert find_params_for_rate(target) == expected


def test_find_params_high_target():
    params = find_params_for_rate(0.9)
    assert rate(params) > Fraction(9, 10)
    assert params.E == 19  # E must exceed 2R/(1-R) = 18


def test_find_params_always_beats_target():
    rng = random.Random("codes-rates")
    for _ in range(25):
        target = Fraction(rng.randint(1, 99), 100)
        params = find_params_for_rate(target)
        assert rate(params) > target


def test_find_params_minimality_small_targets():
    """No admissible (E, N) with shorter words than the returned one."""
    for target in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        best = find_params_for_rate(target)
        for E in range(1, 7):
            block = 2**E
            for N in range(block, best.bit_length // (E + 2) + 1, block):
                if E * (N - 2) < 1:
                    continue
                params = HighRateParams(E, N)
                if params.bit_length < best.bit_length:
                    assert rate(params) <= target


@pytest.mark.parametrize(
    "target, E",
    [(Fraction(1, 2), 3), (Fraction(1, 3), 2), (Fraction(9, 10), 19), (Fraction(999, 1000), 1999)],
)
def test_min_exponent_for_rate(target, E):
    """The first integer above 2R/(1-R); at exactly 2R/(1-R) the rate bound E/(E+2) ties R."""
    assert min_exponent_for_rate(target) == E
    assert Fraction(E, E + 2) > target >= Fraction(E - 1, E + 1)


def test_find_params_rejects_degenerate_targets():
    with pytest.raises(ValueError):
        find_params_for_rate(0)
    with pytest.raises(ValueError):
        find_params_for_rate(1)
