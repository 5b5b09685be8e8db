"""FamilySet: the one validator of a family's cells."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelcode.family import FamilySet


@pytest.mark.parametrize("cells, message", [
    ([["00"], [], ["11"]], "sets[1] is empty"),
    ([["00", "01"], ["10"], ["11", "01"]],
     "sets[2][1]: word '01' is also in sets[0][1]; cells must be pairwise disjoint"),
    ([["000", "111"], ["010", "101", "010"]], "sets[1][2]: word '010' repeats sets[1][0]"),
    # two or more problems: the first in list order is named
    ([["00", "11"], ["11", "11"], []],
     "sets[1][0]: word '11' is also in sets[0][1]; cells must be pairwise disjoint"),
    ([["01", "10", "01"], ["10"]], "sets[0][2]: word '01' repeats sets[0][0]"),
    ([["00"], [], ["00"]], "sets[1] is empty"),
], ids=["empty", "overlap", "repeat", "overlap-first", "repeat-first", "empty-first"])
def test_refusals_name_the_first_place(cells, message):
    with pytest.raises(ValueError) as exc:
        FamilySet(cells)
    assert str(exc.value) == message


def test_refuses_no_cells_and_mixed_lengths():
    with pytest.raises(ValueError, match="at least one cell"):
        FamilySet([])
    with pytest.raises(ValueError, match="same length"):
        FamilySet([["0"], ["00"]])


listed_cells = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.text("01", min_size=n, max_size=n), max_size=4), min_size=1, max_size=4
    )
)


@given(listed_cells)
@settings(max_examples=200, deadline=None)
def test_accepts_exactly_the_families_without_empty_cells_or_repeats(listed):
    flat = [w for cell in listed for w in cell]
    valid = all(listed) and len(set(flat)) == len(flat)
    try:
        fam = FamilySet(listed)
    except ValueError as exc:
        assert not valid
        assert str(exc).startswith("sets[")
        return
    assert valid
    assert fam.cells == tuple(frozenset(cell) for cell in listed)
    assert fam.words() == frozenset(flat)


def test_families_with_other_cells_differ():
    assert FamilySet([["00"]]) != FamilySet([["11"]])
