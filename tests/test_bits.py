"""Bit-string primitives against hand-checked values and slow oracles."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelcode.bits import delete_at, validate_word
from qdelcode.delsets import run_support_multisets

from oracles import (
    deletion_surface,
    edit_distance_bfs,
    insert_at,
    lcs_bruteforce,
    lcs_length,
    levenshtein,
    run_supports,
)

words = st.text(alphabet="01", min_size=0, max_size=10)
nonempty_words = st.text(alphabet="01", min_size=1, max_size=10)


def all_words(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def test_validate_word():
    assert validate_word("0110") == "0110"
    assert validate_word("") == ""
    with pytest.raises(ValueError):
        validate_word("012")
    with pytest.raises(ValueError):
        validate_word(b"01")


def test_delete_at_positions():
    assert delete_at("0101", 1) == "101"
    assert delete_at("0101", 2) == "001"
    assert delete_at("0101", 4) == "010"
    with pytest.raises(ValueError):
        delete_at("0101", 0)
    with pytest.raises(ValueError):
        delete_at("0101", 5)


def test_insert_at_gaps():
    assert insert_at("01", 0, 1) == "101"
    assert insert_at("01", 1, 1) == "011"
    assert insert_at("01", 2, 0) == "010"
    with pytest.raises(ValueError):
        insert_at("01", 3, 0)
    with pytest.raises(ValueError):
        insert_at("01", 0, 2)


def test_deletion_surface_examples():
    assert deletion_surface("0101") == {"101", "001", "011", "010"}
    assert deletion_surface("0000") == {"000"}
    assert deletion_surface("0") == {""}
    with pytest.raises(ValueError):
        deletion_surface("")


def test_levenshtein_examples():
    assert levenshtein("0101", "0101") == 0
    assert levenshtein("0101", "1010") == 2
    assert levenshtein("0000", "1111") == 8
    assert levenshtein("01", "0") == 1
    assert levenshtein("", "101") == 3


def test_lcs_examples():
    assert lcs_length("0101", "1010") == 3
    assert lcs_length("0011", "1100") == 2
    assert lcs_length("", "111") == 0


def test_levenshtein_exhaustive_against_bfs():
    """Exact agreement with breadth-first search on all short pairs."""
    pool = [w for n in range(5) for w in all_words(n)]
    for x in pool:
        for y in pool:
            assert levenshtein(x, y) == edit_distance_bfs(x, y)


@given(st.text(alphabet="01", max_size=6), st.text(alphabet="01", max_size=6))
@settings(max_examples=150, deadline=None)
def test_levenshtein_sampled_against_bfs(x, y):
    assert levenshtein(x, y) == edit_distance_bfs(x, y)


@given(st.text(alphabet="01", max_size=7), st.text(alphabet="01", max_size=7))
@settings(max_examples=150, deadline=None)
def test_lcs_against_bruteforce(x, y):
    assert lcs_length(x, y) == lcs_bruteforce(x, y)


@given(words, words)
def test_levenshtein_symmetric_and_bounded(x, y):
    d = levenshtein(x, y)
    assert d == levenshtein(y, x)
    assert d >= abs(len(x) - len(y))
    assert (d - (len(x) + len(y))) % 2 == 0  # parity fixed by the lengths


@given(nonempty_words, nonempty_words)
def test_equal_length_distance_even(x, y):
    if len(x) == len(y):
        assert levenshtein(x, y) % 2 == 0


@given(nonempty_words, st.data())
def test_insert_then_delete_is_identity(x, data):
    gap = data.draw(st.integers(min_value=0, max_value=len(x)))
    b = data.draw(st.integers(min_value=0, max_value=1))
    assert delete_at(insert_at(x, gap, b), gap + 1) == x


@given(nonempty_words, st.data())
def test_delete_then_reinsert_is_identity(x, data):
    i = data.draw(st.integers(min_value=1, max_value=len(x)))
    bit = int(x[i - 1])
    assert insert_at(delete_at(x, i), i - 1, bit) == x


def test_surfaces_intersect_iff_distance_at_most_two():
    """For equal lengths, sharing a deleted word is the same as d <= 2."""
    for n in range(1, 6):
        for x in all_words(n):
            sx = deletion_surface(x)
            for y in all_words(n):
                intersects = bool(sx & deletion_surface(y))
                assert intersects == (levenshtein(x, y) <= 2)


def mask(*positions):
    """The run mask of 1-based ``positions``: bit i-1 set for position i."""
    return sum(1 << (i - 1) for i in positions)


def test_run_supports_examples():
    # runs of 00111011: 00, 111, 0, 11
    assert run_support_multisets(["00111011"]) == (
        Counter({mask(1, 2): 1, mask(6): 1}),
        Counter({mask(3, 4, 5): 1, mask(7, 8): 1}),
    )
    assert run_support_multisets(["0001"])[0] == Counter({mask(1, 2, 3): 1})
    assert run_support_multisets(["1111"])[0] == Counter()
    assert run_support_multisets([""]) == (Counter(), Counter())


def test_run_support_multiset_example():
    # R_0 of {0001, 0011, 0101, 0111} has (1,) twice
    zeros, _ = run_support_multisets(["0001", "0011", "0101", "0111"])
    assert zeros == {mask(1, 2, 3): 1, mask(1, 2): 1, mask(1): 2, mask(3): 1}


@given(nonempty_words)
def test_runs_partition_the_positions(x):
    covered = 0
    for b, runs in enumerate(run_support_multisets([x])):
        for m in runs.elements():
            assert covered & m == 0
            covered |= m
            assert (m + (m & -m)) & m == 0  # one block of consecutive positions
            assert {x[i] for i in range(len(x)) if m >> i & 1} == {"01"[b]}
    assert covered == (1 << len(x)) - 1


@given(st.integers(0, 8).flatmap(lambda n: st.lists(st.text("01", min_size=n, max_size=n), max_size=6)))
def test_run_support_multisets_match_oracle(words):
    expected = tuple(
        Counter(mask(*interval) for x in words for interval in run_supports(x, b)) for b in (0, 1)
    )
    assert run_support_multisets(words) == expected
