"""Deletion sets and cells against the worked example and brute-force set algebra."""

import random

import pytest

from qdelcode.delsets import cell_decomposition

from oracles import (
    brute_cell,
    brute_deletion_set,
    cell,
    cell_label,
    deletion_set,
    label_of,
    random_words,
)

# the four-word set whose deletion sets and cells are fully known by hand
X4 = ["0101", "1010", "0100", "1111"]

EXPECTED_DELETION_SETS = {
    (1, 0): {"101", "100"},
    (1, 1): {"010", "111"},
    (2, 0): {"110"},
    (2, 1): {"001", "000", "111"},
    (3, 0): {"011", "010"},
    (3, 1): {"100", "111"},
    (4, 0): {"101", "010"},
    (4, 1): {"010", "111"},
}


@pytest.mark.parametrize("i,b", sorted(EXPECTED_DELETION_SETS))
def test_deletion_set_worked_example(i, b):
    assert deletion_set(X4, i, b) == EXPECTED_DELETION_SETS[(i, b)]


def test_deletion_set_errors():
    with pytest.raises(ValueError):
        deletion_set(X4, 0, 0)
    with pytest.raises(ValueError):
        deletion_set(X4, 5, 0)
    with pytest.raises(ValueError):
        deletion_set(["01", "011"], 1, 0)
    with pytest.raises(ValueError):
        deletion_set(["0"], 1, 0)


def test_cell_decomposition_worked_example():
    decomp = cell_decomposition(X4, 0)
    assert decomp.cells == {
        cell_label([3, 4], 0): frozenset({"010"}),
        cell_label([3], 0): frozenset({"011"}),
        cell_label([1], 0): frozenset({"100"}),
        cell_label([1, 4], 0): frozenset({"101"}),
        cell_label([2], 0): frozenset({"110"}),
    }
    assert label_of(decomp, "010") == cell_label([3, 4], 0)
    assert label_of(decomp, "111") is None


def test_cell_matches_decomposition_on_worked_example():
    decomp = cell_decomposition(X4, 0)
    for label, members in decomp.cells.items():
        assert cell(X4, label.positions, 0) == set(members)
    # an index set no deleted word attains
    assert cell(X4, [1, 2], 0) == set()


def test_cell_with_full_index_set():
    # all-ones word: every deletion position gives the same word
    assert cell(["1111"], [1, 2, 3, 4], 1) == {"111"}
    assert cell(["1111"], [1], 1) == set()


def test_cell_rejects_bad_index_sets():
    with pytest.raises(ValueError):
        cell(X4, [], 0)
    with pytest.raises(ValueError):
        cell(X4, [0, 1], 0)


def test_cell_decomposition_refuses_mixed_lengths():
    with pytest.raises(ValueError, match="^words must all have the same length$"):
        cell_decomposition(["00", "000"], 0)


def test_label_str_format():
    assert str(cell_label([3, 1, 2], 0)) == "I={1,2,3},b=0"
    assert str(cell_label([4], 1)) == "I={4},b=1"


def test_labels_are_reachability_sets():
    """Each deleted word's label is exactly its set of source positions."""
    rng = random.Random("delsets-labels")
    for _ in range(40):
        n = rng.randint(2, 7)
        words = random_words(rng, n, rng.randint(1, 10))
        for b in (0, 1):
            decomp = cell_decomposition(words, b)
            union = set()
            for label, members in decomp.cells.items():
                union |= members
                for y in members:
                    reachable = {
                        i for i in range(1, n + 1) if y in deletion_set(words, i, b)
                    }
                    assert reachable == set(label.positions)
            # cells partition the union of all deletion sets
            total = sum(len(m) for m in decomp.cells.values())
            assert total == len(union)
            everything = set()
            for i in range(1, n + 1):
                everything |= deletion_set(words, i, b)
            assert union == everything


def test_cell_agrees_with_bruteforce():
    rng = random.Random("delsets-brute")
    for _ in range(40):
        n = rng.randint(2, 7)
        words = random_words(rng, n, rng.randint(1, 10))
        for b in (0, 1):
            decomp = cell_decomposition(words, b)
            for label, members in decomp.cells.items():
                got = cell(words, label.positions, b)
                assert got == set(members)
                assert got == brute_cell(words, label.positions, b)
            for i in range(1, n + 1):
                assert deletion_set(words, i, b) == brute_deletion_set(words, i, b)


def test_deletion_set_is_union_of_cells_containing_position():
    """The deletion set at i is the disjoint union of cells whose label has i."""
    rng = random.Random("delsets-union")
    for _ in range(40):
        n = rng.randint(2, 7)
        words = random_words(rng, n, rng.randint(1, 10))
        for b in (0, 1):
            decomp = cell_decomposition(words, b)
            for i in range(1, n + 1):
                pieces = [
                    members
                    for label, members in decomp.cells.items()
                    if i in label.positions
                ]
                union = set().union(*pieces) if pieces else set()
                assert union == deletion_set(words, i, b)
                assert sum(len(p) for p in pieces) == len(union)


def test_random_words_draws_without_building_the_cube():
    """Distinct words of length n, capped at 2^n; n = 40 returns at once."""
    rng = random.Random("delsets-random-words")
    assert random_words(rng, 0, 3) == [""]
    assert sorted(random_words(rng, 2, 9)) == ["00", "01", "10", "11"]
    words = random_words(rng, 40, 50)
    assert len(set(words)) == 50
    assert all(len(w) == 40 and not w.strip("01") for w in words)
