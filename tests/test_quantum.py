"""Sparse simulator: states, the deletion channel, measurement and recovery."""

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelcode import quantum
from qdelcode.codes import HighRateParams, build_highrate_partition
from qdelcode.delsets import CellLabel
from qdelcode.errors import InvariantError
from qdelcode.family import FamilySet
from qdelcode.partition import ConditionCheck, condition_report
from qdelcode.quantum import (
    PRUNE_TOL,
    CodeInstance,
    CodeValidationError,
    DecodeError,
    Ensemble,
    RecoverySpanError,
    RoundtripReport,
    SparseState,
    decode_branch,
    delete_qubit,
    encode,
    fidelity,
    measure,
    roundtrip_verify,
)

from oracles import (
    SHORTEST,
    SweepRows,
    amplitudes_by_recount,
    cell_label,
    cell_words,
    cells_by_grouping,
    decode_branch_by_inner_products,
    deleted_word_entries,
    density_matrix,
    inner,
    messages_by_states,
    partial_trace,
    pure,
    random_message,
    random_words,
    roundtrip_rows_by_states,
    tsv_by_rows,
    uniform_message,
    uniform_state,
)


def shortest_code() -> CodeInstance:
    return CodeInstance(FamilySet(SHORTEST))


def random_state(rng: random.Random, qubits: int, support: int) -> SparseState:
    words = random_words(rng, qubits, support)
    amps = {w: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for w in words}
    _, state = SparseState.from_unnormalized(qubits, amps)
    return state


def test_sparse_state_validation():
    s = SparseState.basis(3, "010")
    assert s.amplitudes == {"010": 1.0}
    with pytest.raises(ValueError):
        SparseState(2, {"01": 0.5})  # not normalized
    with pytest.raises(ValueError):
        SparseState(2, {"011": 1.0})  # wrong length
    with pytest.raises(ValueError):
        SparseState.from_unnormalized(2, {"01": 0.0})


def test_sparse_state_checks_every_word_and_the_norm():
    with pytest.raises(ValueError, match="length 3"):
        SparseState(3, {"010": 0.6, "0110": 0.8})  # the bad word comes last
    with pytest.raises(ValueError, match="not normalized"):
        SparseState(2, {"00": 0.6, "11": 0.6})
    # a pruned amplitude is dropped before its word is looked at
    assert SparseState(2, {"00": 1.0, "111": 1e-16}).amplitudes == {"00": 1.0}
    amps = {"00": 3.0, "11": 4.0j}
    weight, state = SparseState.from_unnormalized(2, amps)
    assert weight == 25.0
    assert state.amplitudes == {"00": pytest.approx(0.6), "11": pytest.approx(0.8j)}
    assert quantum._checked(amps, 25.0) == state.amplitudes
    # a caller that hands in a wrong squared norm fails the normalization check
    with pytest.raises(ValueError, match="not normalized"):
        quantum._checked(amps, 24.0)
    with pytest.raises(ValueError, match="zero vector"):
        quantum._checked(amps, 0.0)


def test_from_unnormalized_normalizes_once(monkeypatch):
    """One ``_checked`` pass, with the same floats as the two passes it
    replaces: the second one multiplied by exactly 1.0."""
    rng = random.Random("from-unnormalized-once")
    amps = {format(k, "012b"): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in range(4096)}
    weight = quantum._norm_sq(amps)
    twice = quantum._checked(quantum._checked(amps, weight))
    calls = []
    checked = quantum._checked

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(quantum, "_checked", counted)
    got, state = SparseState.from_unnormalized(12, amps)
    assert (got, len(calls)) == (weight, 1)

    def bits(amplitudes):
        return [(x, a.real.hex(), a.imag.hex()) for x, a in amplitudes.items()]

    assert bits(state.amplitudes) == bits(twice)


def test_nan_fails_every_check():
    nan = float("nan")
    with pytest.raises(ValueError, match="not normalized"):
        SparseState(2, {"00": nan})
    with pytest.raises(ValueError):
        SparseState.from_unnormalized(2, {"00": 1.0, "11": nan})
    with pytest.raises(ValueError, match="must be positive"):
        Ensemble(((nan, SparseState.basis(1, "0")),))
    code = shortest_code()
    with pytest.raises(RecoverySpanError):
        quantum._recovered(code, next(iter(code.cells)), {0: complex(nan, 0.0)})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(float("inf"), 0.0)], ids=repr)
@pytest.mark.parametrize("build", [SparseState, SparseState.from_unnormalized], ids=["init", "from_unnormalized"])
def test_non_finite_amplitude_is_named(build, value):
    with pytest.raises(ValueError) as exc:
        build(2, {"00": 1.0, "11": value})
    assert str(exc.value) == f"state is not normalized: amplitude of '11' is {value!r}"
    # the first one in the state's order is named
    with pytest.raises(ValueError, match="amplitude of '01' is inf"):
        build(2, {"00": 1.0, "01": float("inf"), "11": value})


def test_sparse_state_refuses_a_word_that_is_not_bits():
    with pytest.raises(ValueError, match="^not a bit string: '0a'$"):
        SparseState(2, {"00": 0.6, "0a": 0.8})
    with pytest.raises(ValueError, match="^not a bit string: 'ab'$"):
        SparseState.from_unnormalized(2, {"ab": 2.0})
    # a pruned word is dropped before it is looked at
    assert SparseState(2, {"00": 1.0, "ab": 1e-16}).amplitudes == {"00": 1.0}


def test_sparse_state_refuses_a_key_that_is_not_a_string():
    with pytest.raises(ValueError, match="^not a bit string: 5$"):
        SparseState(1, {5: 1.0})
    # the bit-word rule comes before the length test
    with pytest.raises(ValueError, match="^not a bit string: '0a'$"):
        SparseState(1, {"0a": 1.0})


def test_sparse_state_uniform_and_inner():
    u = uniform_state(["00", "11"])
    assert inner(u, SparseState.basis(2, "00")) == pytest.approx(1 / math.sqrt(2))
    assert inner(u, u) == pytest.approx(1.0)
    assert inner(SparseState.basis(2, "01"), SparseState.basis(2, "10")) == 0
    with pytest.raises(ValueError):
        inner(u, SparseState.basis(3, "000"))


def test_sparse_state_prunes_tiny_amplitudes():
    s = SparseState(1, {"0": 1.0, "1": 1e-16})
    assert set(s.amplitudes) == {"0"}


def test_ensemble_validation():
    """Each bad input names its fault; with several faults, positivity
    wins over the weight sum, which wins over the qubit counts."""
    s, t = SparseState.basis(1, "0"), SparseState.basis(2, "00")
    cases = [
        ((), "ensemble needs at least one member"),
        (((0.5, s), (-0.5, s)), "ensemble weights must be positive"),
        (((1.0, s), (0.0, s)), "ensemble weights must be positive"),
        (((0.7, s),), "ensemble weights sum to 0.7, not 1"),
        (((2, s),), "ensemble weights sum to 2, not 1"),
        (((0.1, s), (0.2, s), (0.3, s)), "ensemble weights sum to 0.6000000000000001, not 1"),
        (((0.5, s), (0.5, t)), "ensemble members must agree on qubit count"),
        (((0.7, t), (0.7, s), (-1.0, s)), "ensemble weights must be positive"),
        (((0.7, s), (0.7, t)), "ensemble weights sum to 1.4, not 1"),
    ]
    for members, message in cases:
        with pytest.raises(ValueError) as exc:
            Ensemble(members)
        assert str(exc.value) == message
    assert pure(s).qubits == 1


def test_code_instance_shortest():
    code = shortest_code()
    assert (code.n, code.dimension, code.message_qubits) == (4, 2, 1)
    assert tuple(code.cells) == (
        cell_label([1, 2, 3, 4], 0),
        cell_label([1, 2, 3, 4], 1),
    )
    cells = cell_words(code)[cell_label([1, 2, 3, 4], 0)]
    assert cells == [frozenset({"000"}), frozenset({"011", "101", "110"})]
    assert code.message_words == ("0", "1")
    assert code.message_word(1) == "1"
    with pytest.raises(ValueError):
        code.message_word(2)
    label = code.label_of["101"]
    assert (label, code.cells[label]["101"]) == (cell_label([1, 2, 3, 4], 0), 1)
    assert code.amplitudes[label] == [1.0, pytest.approx(1 / math.sqrt(3))]
    # every 3-bit word is a deleted word of exactly one cell
    assert len(code.label_of) == 8


def test_code_instance_rejects_invalid_families():
    with pytest.raises(ValueError):
        CodeInstance(FamilySet([["0000", "1111"]]))  # one cell encodes nothing
    with pytest.raises(CodeValidationError) as exc:
        CodeInstance(FamilySet([["0000"], ["1000"]]))
    assert not exc.value.report.c2.passed
    assert str(exc.value) == (
        "family fails validation:\n"
        "  C1 FAIL label I={1},b=1: cells 0 and 1 have ratios 0/1 vs 1/1\n"
        "  C2 FAIL deleted word 000 reachable from cells 0 and 1\n"
        "  C3 PASS"
    )


def test_code_instance_invariants_raise_typed_errors(monkeypatch):
    # a condition report that wrongly passes a C2-failing family must not
    # yield a code, even under python -O
    passed = ConditionCheck(True)
    family = FamilySet([["0000"], ["1000"]])
    report = replace(condition_report(family), c1=passed, c2=passed, c3=passed, ratios={})
    monkeypatch.setattr(quantum, "condition_report", lambda family: report)
    with pytest.raises(InvariantError):
        CodeInstance(family)


def test_code_instance_refuses_a_passing_report_without_ratios(monkeypatch):
    family = FamilySet(SHORTEST)
    report = replace(condition_report(family), ratios=None)
    assert report.all_passed
    monkeypatch.setattr(quantum, "condition_report", lambda family: report)
    with pytest.raises(InvariantError, match="^conditions passed without a ratio table$"):
        CodeInstance(family)


@pytest.mark.parametrize("family", ["shortest", "1-4"])
@pytest.mark.parametrize("corruption", ["cell-missing", "word-shared"])
def test_code_instance_refuses_corrupted_cells(monkeypatch, family, corruption):
    """A passing report whose counts miss a label in one cell, or whose
    walk lists one deleted word under two (cell, label) entries, yields no
    code."""
    fam = FamilySet(SHORTEST) if family == "shortest" else build_highrate_partition(HighRateParams(1, 4))
    report = condition_report(fam)
    first, second = list(report.decomposition.cells)[:2]
    counts, shared = report.decomposition.counts, report.decomposition.shared
    if corruption == "cell-missing":
        kept = {label: c for label, c in counts.get(1, counts[0]).items() if label != first}
        counts = {**counts, 1: kept}
        message = f"some cell misses {first} although C1 passed"
    else:
        y, m = next(iter(report.decomposition.cells[first].items()))
        shared = {**shared, y: [(m, first), (m, second)]}
        message = "two labels share a deleted word although C2 and C3 passed"
    corrupted = replace(report.decomposition, counts=counts, shared=shared)
    monkeypatch.setattr(
        quantum, "condition_report", lambda family: replace(report, decomposition=corrupted)
    )
    with pytest.raises(InvariantError) as exc:
        CodeInstance(fam)
    assert str(exc.value) == message


def test_encode_plain_and_superposed():
    code = shortest_code()
    enc0 = encode(code, code.basis_message(0))
    assert enc0.amplitudes == pytest.approx(
        {"0000": 1 / math.sqrt(2), "1111": 1 / math.sqrt(2)}
    )
    plus = SparseState(1, {"0": 1 / math.sqrt(2), "1": 1 / math.sqrt(2)})
    enc = encode(code, plus)
    assert enc.amplitudes["0000"] == pytest.approx(0.5)
    assert enc.amplitudes["0110"] == pytest.approx(1 / math.sqrt(12))


def test_encode_domain_errors():
    code = shortest_code()
    with pytest.raises(ValueError):
        encode(code, SparseState.basis(2, "00"))  # wrong register size
    # three cells of a valid sixteen-cell family still pass all checks,
    # which gives a dimension strictly below a power of two
    fam16 = build_highrate_partition(HighRateParams(2, 4))
    code3 = CodeInstance(FamilySet([sorted(c) for c in fam16.cells[:3]]))
    assert code3.dimension == 3 and code3.message_qubits == 2
    with pytest.raises(ValueError, match="index 3, but the code dimension is 3"):
        encode(code3, SparseState.basis(2, "11"))


def cell_amplitudes(code: CodeInstance, message: SparseState) -> dict[str, complex]:
    """The encoded state written out: alpha_m / sqrt(|C_m|) on every codeword
    of cell m, message word by message word, pruned as states are."""
    want = {}
    for word, alpha in message.amplitudes.items():
        cell = code.family.cells[int(word, 2)]
        amp = alpha / math.sqrt(len(cell))
        if abs(amp) >= PRUNE_TOL:
            want.update(dict.fromkeys(cell, amp))
    return want


def encode_cases():
    rng = random.Random("quantum-encode")
    for params in [(1, 4), (2, 4), (1, 8)]:
        code = highrate_code_instance(*params)
        for m in range(code.dimension):
            yield code, code.basis_message(m)
        yield code, uniform_message(code)
        for _ in range(3):
            yield code, random_message(code, rng)
    cells = highrate_code_instance(2, 4).family.cells
    code3 = CodeInstance(FamilySet([sorted(c) for c in cells[:3]]))
    yield code3, SparseState(2, {"00": 0.6, "10": 0.8j})
    # 1.2e-15 survives in the message but falls below PRUNE_TOL once spread
    # over a cell; 1e-16 is pruned from the message itself
    tiny = {"00": 0.6, "01": 1.2e-15, "10": 1e-16, "11": 0.8}
    yield highrate_code_instance(1, 4), SparseState(2, tiny)


def test_encode_puts_the_cell_amplitude_on_every_codeword():
    """``encode`` checked on its own, not through the sweep that shares its encoder."""
    pruned = 0
    for code, message in encode_cases():
        got = encode(code, message)
        want = cell_amplitudes(code, message)
        assert got.qubits == code.n
        assert list(got.amplitudes.items()) == list(want.items())
        pruned += len(want) < sum(len(code.family.cells[int(w, 2)]) for w in message.amplitudes)
    assert pruned == 1


def test_delete_qubit_hand_example():
    code = shortest_code()
    mixed = delete_qubit(encode(code, code.basis_message(1)), 4)
    branches = {
        frozenset(state.amplitudes): weight for weight, state in mixed.members
    }
    assert branches == {
        frozenset({"001", "010", "100"}): pytest.approx(0.5),
        frozenset({"011", "101", "110"}): pytest.approx(0.5),
    }
    for _, state in mixed.members:
        for amp in state.amplitudes.values():
            assert amp == pytest.approx(1 / math.sqrt(3))


def test_delete_qubit_collapses_pure_branch():
    mixed = delete_qubit(SparseState.basis(3, "010"), 2)
    assert len(mixed.members) == 1
    weight, state = mixed.members[0]
    assert weight == pytest.approx(1.0)
    assert state.amplitudes == {"00": pytest.approx(1.0)}
    with pytest.raises(ValueError):
        delete_qubit(SparseState.basis(3, "010"), 4)


def test_delete_qubit_names_a_word_that_is_not_bits():
    """``delete_qubit`` never meets such a word: ``SparseState`` refuses it."""
    with pytest.raises(ValueError, match="not a bit string: 'ab'"):
        SparseState(2, {"ab": 1.0})


def test_delete_qubit_matches_dense_partial_trace():
    rng = random.Random("quantum-trace")
    for _ in range(30):
        n = rng.randint(2, 5)
        state = random_state(rng, n, rng.randint(1, 2**n))
        i = rng.randint(1, n)
        got = density_matrix(delete_qubit(state, i))
        want = partial_trace(density_matrix(pure(state)), n, i)
        assert np.max(np.abs(got - want)) < 1e-12


def test_measure_exhaustive_on_shortest():
    code = shortest_code()
    cells = cell_words(code)
    for i in range(1, 5):
        mixed = delete_qubit(encode(code, code.basis_message(0)), i)
        results = measure(code, mixed)
        probs = {outcome.label: outcome.probability for outcome, _ in results}
        # both branch weights match the 1/2 ratio table of this family
        assert probs == {
            cell_label([1, 2, 3, 4], 0): pytest.approx(0.5),
            cell_label([1, 2, 3, 4], 1): pytest.approx(0.5),
        }
        assert sum(probs.values()) == pytest.approx(1.0)
        for outcome, post in results:
            for _, state in post.members:
                assert set(state.amplitudes) <= set(
                    cells[outcome.label][0]
                ) | set(cells[outcome.label][1])


def test_measure_refuses_a_wrong_qubit_count():
    code = CodeInstance(build_highrate_partition(HighRateParams(1, 4)))
    state = pure(SparseState.basis(code.n, "0" * code.n))
    with pytest.raises(ValueError, match="^measurement expects 11 qubits, got 12$"):
        measure(code, state)


def test_corrupted_input_lands_outside_every_cell():
    fam = build_highrate_partition(HighRateParams(1, 4))
    code = CodeInstance(fam)
    junk = pure(SparseState.basis(code.n - 1, "0" * (code.n - 1)))
    results = measure(code, junk)
    assert len(results) == 1
    outcome, _ = results[0]
    assert outcome.label is None
    assert outcome.probability == pytest.approx(1.0)
    with pytest.raises(ValueError, match="not reachable"):
        decode_branch(code, outcome.label, results[0][1])


def test_decode_branch_recovers_basis_states():
    code = shortest_code()
    label = cell_label([1, 2, 3, 4], 0)
    for m in range(2):
        branch = pure(uniform_state(cell_words(code)[label][m]))
        decoded = decode_branch(code, label, branch)
        assert fidelity(code.basis_message(m), decoded) == pytest.approx(1.0)


def test_decode_branch_rejects_states_outside_span():
    code = shortest_code()
    label = cell_label([1, 2, 3, 4], 0)
    odd = SparseState(3, {"011": 1 / math.sqrt(2), "101": -1 / math.sqrt(2)})
    with pytest.raises(RecoverySpanError):
        decode_branch(code, label, pure(odd))
    with pytest.raises(ValueError):
        decode_branch(code, cell_label([1], 0), pure(odd))


@functools.cache
def highrate_code_instance(E: int, N: int) -> CodeInstance:
    return CodeInstance(build_highrate_partition(HighRateParams(E, N)))


@functools.cache
def outside_words(E: int, N: int) -> list[str]:
    """Some words of length n-1 that no cell of the code contains."""
    code = highrate_code_instance(E, N)
    every = ("".join(bits) for bits in itertools.product("01", repeat=code.n - 1))
    return list(itertools.islice((y for y in every if y not in code.label_of), 64))


amplitudes = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@given(
    params=st.sampled_from([(1, 4), (2, 4), (1, 8)]),
    kind=st.sampled_from(["span", "ragged", "other-label", "non-code"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_decode_branch_matches_inner_product_oracle(params, kind, data):
    """``span`` members are combinations of the label's recovery states;
    ``ragged`` members put arbitrary amplitudes on words of the label's
    cells, which usually leaves the span; the last two kinds add one word
    of another label, or of no cell at all, which always does."""
    code = highrate_code_instance(*params)
    label = data.draw(st.sampled_from(tuple(code.cells)))
    every_cell = cell_words(code)
    cells = every_cell[label]
    own = sorted(set().union(*cells))
    stray = outside_words(*params) if kind == "non-code" else sorted(
        y for other in code.cells if other != label
        for c in every_cell[other] for y in c
    )
    members = []
    for _ in range(data.draw(st.integers(1, 3))):
        amps: dict[str, complex] = {}
        if kind == "span":
            picked = st.lists(st.integers(0, code.dimension - 1), min_size=1, max_size=4, unique=True)
            for m in data.draw(picked):
                coeff = data.draw(amplitudes) / math.sqrt(len(cells[m]))
                amps.update(dict.fromkeys(cells[m], coeff))
        else:
            words = data.draw(st.lists(st.sampled_from(own), min_size=1, max_size=8, unique=True))
            amps = {y: data.draw(amplitudes) for y in words}
        if kind in ("other-label", "non-code"):
            amps[data.draw(st.sampled_from(stray))] = data.draw(amplitudes)
        _, state = SparseState.from_unnormalized(code.n - 1, amps)
        members.append((data.draw(st.floats(0.1, 1.0)), state))
    total = sum(w for w, _ in members)
    branch = Ensemble(tuple((w / total, s) for w, s in members))

    def outcome(decoder):
        try:
            return decoder(code, label, branch)
        except RecoverySpanError:
            return None

    want = outcome(decode_branch_by_inner_products)
    got = outcome(decode_branch)
    if kind == "span":
        assert want is not None
    elif kind != "ragged":
        assert want is None
    assert (got is None) == (want is None)
    if want is None:
        return
    assert len(got.members) == len(want.members)
    for (w_got, s_got), (w_want, s_want) in zip(got.members, want.members):
        assert w_got == w_want
        keys = list(s_got.amplitudes)
        assert keys == sorted(keys)  # message words come out in ascending order
        for word in set(keys) | set(s_want.amplitudes):
            assert abs(s_got.amplitudes.get(word, 0) - s_want.amplitudes.get(word, 0)) < 1e-12


def test_decode_roundtrip_random_messages():
    code = shortest_code()
    rng = random.Random("quantum-roundtrip")
    for _ in range(10):
        message = random_message(code, rng)
        for i in range(1, 5):
            mixed = delete_qubit(encode(code, message), i)
            mixture = 0.0
            for outcome, post in measure(code, mixed):
                assert outcome.label is not None
                fid = fidelity(message, decode_branch(code, outcome.label, post))
                assert fid == pytest.approx(1.0, abs=1e-12)  # every branch, not only the mixture
                mixture += outcome.probability * fid
            assert mixture == pytest.approx(1.0, abs=1e-12)


def test_fidelity_hand_value():
    zero = SparseState.basis(1, "0")
    one = SparseState.basis(1, "1")
    mixed = Ensemble(((0.5, zero), (0.5, one)))
    assert fidelity(zero, mixed) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(SparseState.basis(2, "00"), mixed)


def test_roundtrip_report_shortest():
    code = shortest_code()
    report = roundtrip_verify(code, trials=25, seed=0)
    assert report.passed
    assert report.min_fidelity >= 1 - 1e-9
    assert report.max_empty_probability < 1e-9
    assert report.max_probability_error <= 1e-9
    # 4 positions x (2 basis + uniform + 25 random) x 2 branches
    assert len(SweepRows.of(report).rows) == 4 * 28 * 2


def test_roundtrip_tsv_layout_and_determinism():
    code = shortest_code()
    a = roundtrip_verify(code, trials=3, seed=11).to_tsv()
    b = roundtrip_verify(code, trials=3, seed=11).to_tsv()
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "i\ttrial\toutcome_label\tbranch_probability\tfidelity"
    first = lines[1].split("\t")
    assert first[0] == "1" and first[1] == "basis-0"
    assert first[2].startswith("I=")
    # for this family every branch has probability 1/2 and fidelity 1
    # regardless of the message, so a different seed gives the same rows
    assert roundtrip_verify(code, trials=3, seed=12).to_tsv() == a


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("family", ["1-4", "2-4", "1-8", "shortest"])
def test_sweep_messages_are_the_amplitudes_of_the_message_states(family, seed):
    """The sweep's amplitude maps are those the message states hold: the
    same names, words in the same order and the same values, each a
    ``complex``.  Compared by ``repr``, since ``1.0 == 1 + 0j``."""
    if family == "shortest":
        code = shortest_code()
    else:
        code = highrate_code_instance(*map(int, family.split("-")))
    got = [(name, repr(list(amps.items()))) for name, amps in quantum._messages(code, 3, seed)]
    want = [
        (name, repr(list(state.amplitudes.items())))
        for name, state in messages_by_states(code, 3, seed)
    ]
    assert len(got) == code.dimension + 1 + 3
    assert got == want


def test_roundtrip_encodes_each_message_once(monkeypatch):
    """Each message's amplitudes are built once and swept over every position."""
    code = highrate_code_instance(1, 4)
    built = []
    messages = quantum._messages

    def counting_messages(*args):
        for trial, message in messages(*args):
            built.append(trial)
            yield trial, message

    monkeypatch.setattr(quantum, "_messages", counting_messages)
    report = roundtrip_verify(code, trials=3, seed=4)
    assert built == [
        *(f"basis-{m}" for m in range(code.dimension)), "uniform", "rand-0", "rand-1", "rand-2"
    ]
    # rows stay position-major, each position listing the messages in order
    rows = SweepRows.of(report).rows
    positions = [r.position for r in rows]
    assert positions == sorted(positions) and set(positions) == set(range(1, code.n + 1))
    trials = [r.trial for r in rows if r.position == 1]
    assert list(dict.fromkeys(trials)) == [
        *(f"basis-{m}" for m in range(code.dimension)), "uniform", "rand-0", "rand-1", "rand-2"
    ]


# Two-cell families whose cells are unions of weight classes, the
# permutation-invariant codes: (n, weights of cell 0, weights of cell 1).
# These are all that pass C1-C3 among such pairs for n = 3..7; the first
# is the shortest code.  Their cells differ in size, which the high-rate
# codes never have.
WEIGHT_CLASS_FAMILIES = [
    (4, (0, 4), (2,)),
    (6, (1, 5), (3,)),
    (6, (0, 6), (3,)),
    (6, (0, 6), (2, 4)),
    (7, (0, 7), (2, 5)),
]


@functools.cache
def weight_class_code(n: int, *weights: tuple[int, ...]) -> CodeInstance:
    words = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    return CodeInstance(FamilySet([[w for w in words if w.count("1") in ws] for ws in weights]))


@st.composite
def sweep_codes(draw) -> CodeInstance:
    """A high-rate code, a weight-class family in either cell order, or two,
    three or five cells of a high-rate partition, optionally reversed and
    complemented.  With three or five cells the message words are not all
    words of the message register: three cells on 2 qubits leave ``11``."""
    kind = draw(st.sampled_from(["highrate", "weight-class", "some-cells"]))
    params = draw(st.sampled_from([(1, 4), (2, 4), (1, 8)]))
    if kind == "highrate":
        return highrate_code_instance(*params)
    if kind == "weight-class":
        n, *weights = draw(st.sampled_from(WEIGHT_CLASS_FAMILIES))
        return weight_class_code(n, *(weights[::-1] if draw(st.booleans()) else weights))
    cells = highrate_code_instance(*params).family.cells
    size = draw(st.sampled_from([k for k in (2, 3, 5) if k <= len(cells)]))
    picked = draw(st.lists(st.integers(0, len(cells) - 1), min_size=size, max_size=size,
                           unique=True))
    words = [sorted(cells[m]) for m in picked]
    if draw(st.booleans()):
        words = [[w[::-1] for w in cell] for cell in words]
    if draw(st.booleans()):
        words = [[w.translate(str.maketrans("01", "10")) for w in cell] for cell in words]
    return CodeInstance(FamilySet(words))


def assert_index_matches_oracle(code: CodeInstance) -> dict:
    """Each deleted word's label, message and amplitude in ``code`` equal
    the brute-force ones; no other word is indexed.  Returns the oracle's."""
    want = deleted_word_entries(code.family.cells)
    assert code.label_of.keys() == want.keys()
    assert sum(map(len, code.cells.values())) == len(want)
    for y, (positions, bit, m, amplitude) in want.items():
        label = code.label_of[y]
        assert (label.positions, label.bit, code.cells[label][y]) == (positions, bit, m)
        assert code.amplitudes[label][m] == amplitude
    return want


@pytest.mark.parametrize("family", ["1-4", "2-4", "1-8", "shortest", "weight-class-6"])
def test_code_instance_index_matches_oracle(family):
    """Also on words of length n - 1 outside the cells, every one up to
    n = 16 and a sample above: none has a label or sits in a label's cells."""
    if family == "shortest":
        code = shortest_code()
    elif family == "weight-class-6":
        code = weight_class_code(6, (0, 6), (2, 4))
    else:
        code = highrate_code_instance(*map(int, family.split("-")))
    want = assert_index_matches_oracle(code)
    if code.n <= 16:
        words = map("".join, itertools.product("01", repeat=code.n - 1))
    else:
        rng = random.Random(family)
        words = (format(rng.getrandbits(code.n - 1), f"0{code.n - 1}b") for _ in range(4096))
    for y in words:
        if y not in want:
            assert code.label_of.get(y) is None
            assert not any(y in owners for owners in code.cells.values())


@given(code=sweep_codes())
@settings(max_examples=40, deadline=None)
def test_code_instance_index_matches_oracle_on_random_codes(code):
    assert_index_matches_oracle(code)


@pytest.mark.parametrize("family", ["shortest", "1-4", "2-4"])
def test_code_instance_shares_labels_and_amplitudes(monkeypatch, family):
    """The code keeps the report's cells map itself, keys its words and
    amplitude lists by that map's label objects and holds one float per
    distinct count: no object per deleted word or per (label, message)."""
    fam = FamilySet(SHORTEST) if family == "shortest" else build_highrate_partition(
        HighRateParams(*map(int, family.split("-")))
    )
    reports = []

    def recorded(family):
        reports.append(condition_report(family))
        return reports[-1]

    monkeypatch.setattr(quantum, "condition_report", recorded)
    code = CodeInstance(fam)
    assert code.cells is reports[0].decomposition.cells
    assert all(a is b for a, b in zip(code.amplitudes, code.cells, strict=True))
    assert {id(label) for label in code.label_of.values()} == set(map(id, code.cells))
    assert list(code.amplitudes) == list(code.cells)
    counts = {k for owners in code.cells.values() for k in Counter(owners.values()).values()}
    assert len({id(a) for scales in code.amplitudes.values() for a in scales}) == len(counts)


def assert_cells_and_amplitudes_match_oracles(code: CodeInstance):
    """The per-label map and the recovery amplitudes equal the ones grouped
    and recounted word by word, in keys, order and values.  Returns the
    family's decomposition."""
    decomposition = condition_report(code.family).decomposition
    want = cells_by_grouping(decomposition)
    for cells in (decomposition.cells, code.cells):
        assert [(k, list(v.items())) for k, v in cells.items()] == [
            (k, list(v.items())) for k, v in want.items()
        ]
    assert list(code.amplitudes.items()) == list(
        amplitudes_by_recount(want, code.dimension).items()
    )
    return decomposition


def test_cells_and_amplitudes_match_oracles():
    """Among these families some list counts of several cells and merged
    words, the two parts of the walk the code reads besides cell 0."""
    codes = [
        shortest_code(),
        *(weight_class_code(n, *weights) for n, *weights in WEIGHT_CLASS_FAMILIES),
        *(highrate_code_instance(*params) for params in [(1, 4), (2, 4), (1, 8)]),
    ]
    decompositions = [assert_cells_and_amplitudes_match_oracles(code) for code in codes]
    assert any(len(d.counts) > 1 and d.shared for d in decompositions)


@given(code=sweep_codes())
@settings(max_examples=60, deadline=None)
def test_cells_and_amplitudes_match_oracles_on_random_codes(code):
    assert_cells_and_amplitudes_match_oracles(code)


@given(
    code=sweep_codes(),
    trials=st.integers(0, 3),
    seed=st.integers(0, 1000),
)
@settings(max_examples=120, deadline=None)
def test_roundtrip_matches_single_step_oracle(code, trials, seed):
    """The compiled sweep gives exactly the rows and maxima of the state
    pipeline, and prints and counts them as one row at a time would."""
    got = roundtrip_verify(code, trials=trials, seed=seed)
    want = roundtrip_rows_by_states(code, trials, seed)
    rows = SweepRows.of(got).rows
    assert rows == want.rows
    assert got.to_tsv() == tsv_by_rows(want.rows)
    assert got.branches == len(rows)
    assert got.min_fidelity == want.min_fidelity
    assert got.max_empty_probability == want.max_empty_probability
    assert got.max_probability_error == want.max_probability_error


def _sweep_outcome(run):
    """The rows and maxima of a sweep, or the type, cause type and text of
    its error.  A report must print and count its rows as one row at a
    time would."""
    try:
        result = run()
    except (DecodeError, InvariantError, ValueError) as exc:
        return type(exc), type(exc.__cause__), str(exc)
    if isinstance(result, RoundtripReport):
        report, result = result, SweepRows.of(result)
        assert report.to_tsv() == tsv_by_rows(result.rows)
        assert report.branches == len(result.rows)
    return result


def _corrupt(code: CodeInstance, y: str, corruption: str, label: CellLabel | None = None):
    """Corrupt deleted word y's entry in the index after construction:
    index it under the next message ("wrong-message"), drop it
    ("unindexed"), give it ``label``, whose cells do not list it
    ("relabeled"), or move it with its message to ``label`` in both maps
    ("moved")."""
    owners = code.cells[code.label_of[y]]
    if corruption == "wrong-message":
        owners[y] = (owners[y] + 1) % code.dimension
    elif corruption == "unindexed":
        del owners[y], code.label_of[y]
    else:
        if corruption == "moved":
            code.cells[label][y] = owners.pop(y)
        code.label_of[y] = label


@pytest.mark.parametrize("family", ["shortest", "1-4"])
def test_roundtrip_corrupted_index_matches_oracle(family):
    """With one deleted word indexed under the wrong message, not indexed
    at all, or labeled by the next label, whose cells do not list it, both
    paths fail alike: the same first error, or the same report with its
    EMPTY probability measured."""
    fam = FamilySet(SHORTEST) if family == "shortest" else build_highrate_partition(HighRateParams(1, 4))
    labels = list(CodeInstance(fam).cells)
    seen = set()
    for y in sorted(CodeInstance(fam).label_of):
        for corruption in ("wrong-message", "unindexed", "relabeled"):
            code = CodeInstance(fam)
            other = labels[(labels.index(code.label_of[y]) + 1) % len(labels)]
            _corrupt(code, y, corruption, other)
            want = _sweep_outcome(lambda: roundtrip_rows_by_states(code, 1, 0))
            got = _sweep_outcome(lambda: roundtrip_verify(code, trials=1, seed=0))
            assert got == want
            if isinstance(want, tuple):
                assert want[:2] == (DecodeError, RecoverySpanError)
                seen.add("raised")
            elif want.max_empty_probability > 0:
                seen.add("empty")
            # a word the label's cells do not list leaves norm outside the span
            assert corruption != "relabeled" or isinstance(want, tuple)
    assert seen == {"raised", "empty"}


@pytest.mark.parametrize("E, N, moves", [
    (1, 4, None),  # every deleted word to every other label of its bit: 448 moves
    (2, 4, [
        ("000100010101110", cell_label((1, 2), 1)),
        ("100010001110010", cell_label((13, 14, 15), 1)),
        ("100010001010111", cell_label((15, 16), 0)),
        ("100010110001110", cell_label((6, 7, 8), 0)),
    ]),
])
def test_roundtrip_moved_word_matches_oracle(E, N, moves):
    """A deleted word moved with its message to another label of its bit,
    in both maps, leaves its cell with a shape no other cell has, so its
    basis message must not share another's round trip.  A sharing key
    without the labels fails every (1,4) move, and one without the
    codeword counts (a set of labels) fails the (2,4) moves listed."""
    fam = build_highrate_partition(HighRateParams(E, N))
    if moves is None:
        index = CodeInstance(fam)
        moves = [
            (y, label) for y, own in sorted(index.label_of.items())
            for label in index.cells if label != own and label.bit == own.bit
        ]
        assert len(moves) == 448
    for y, label in moves:
        code = CodeInstance(fam)
        _corrupt(code, y, "moved", label)
        want = _sweep_outcome(lambda: roundtrip_rows_by_states(code, 0, 0))
        got = _sweep_outcome(lambda: roundtrip_verify(code, trials=0, seed=0))
        assert got == want
        assert E == 1 or want[:2] == (DecodeError, RecoverySpanError)


def test_roundtrip_raises_its_first_failure_in_row_order():
    """Rows and errors come in one order, position then message.  On (1,4)
    with seed 1, a deleted word of cell 0 indexed under cell 1 fails only
    rand-0, at position 11, and one of cell 1 indexed under cell 2 fails
    only rand-1, at position 1.  With both, rand-1's failure is raised,
    although rand-0 comes first among the messages."""

    def first_failure(*words: str) -> str:
        code = CodeInstance(build_highrate_partition(HighRateParams(1, 4)))
        for y in words:
            owners = code.cells[code.label_of[y]]
            owners[y] = (owners[y] + 1) % code.dimension
        with pytest.raises(DecodeError) as raised:
            roundtrip_verify(code, trials=2, seed=1)
        oracle = _sweep_outcome(lambda: roundtrip_rows_by_states(code, 2, 1))
        assert oracle[2] == str(raised.value)
        return str(raised.value)

    late, early = "10010010010", "00100110110"
    assert first_failure(late).startswith("position 11, message rand-0, ")
    assert first_failure(early).startswith("position 1, message rand-1, ")
    assert first_failure(late, early).startswith("position 1, message rand-1, ")


@pytest.mark.parametrize("name, value", [
    ("NORM_TOL", 0.0),
    ("BRANCH_TOL", 0.0),
    ("PRUNE_TOL", 0.05),
    ("PRUNE_TOL", 0.2),
    ("PRUNE_TOL", 0.45),
    ("OUTCOME_EPS", 0.5),
])
def test_roundtrip_tolerances_act_like_oracle(monkeypatch, name, value):
    """With a tolerance moved so that its checks fire, or so that pruning
    drops whole cells and codewords, both paths still agree exactly."""
    monkeypatch.setattr(quantum, name, value)
    outcomes = set()
    for code in (shortest_code(), weight_class_code(6, (0, 6), (2, 4)), highrate_code_instance(1, 4)):
        want = _sweep_outcome(lambda: roundtrip_rows_by_states(code, 3, 5))
        got = _sweep_outcome(lambda: roundtrip_verify(code, trials=3, seed=5))
        assert got == want
        outcomes.add(want[0] if isinstance(want, tuple) else "report")
    # each setting fails at least one check, or at least one sweep finishes
    assert outcomes


def test_sweep_normalization_prunes_and_checks():
    """The sweep's normalization keeps SparseState's prune and norm check."""
    values, squares = quantum._normalized([3.0 + 0j, 4.0j, 1e-16 + 0j], 25.0)
    scale = 1.0 / math.sqrt(25.0)
    assert values == [3.0 * scale + 0j, 4.0j * scale, 0j]  # the pruned amplitude becomes zero
    assert squares == [abs(v) ** 2 for v in values]
    with pytest.raises(ValueError, match="not normalized"):
        quantum._normalized([3.0 + 0j, 4.0j], 24.0)


def test_roundtrip_builds_no_intermediate_states(monkeypatch):
    """The sweep builds no state and no ensemble at all: its messages are
    amplitude maps."""
    built = {"states": 0, "ensembles": 0}
    state_init, ensemble_check = SparseState.__init__, Ensemble.__post_init__

    def counting_state(self, *args):
        built["states"] += 1
        state_init(self, *args)

    def counting_ensemble(self):
        built["ensembles"] += 1
        ensemble_check(self)

    monkeypatch.setattr(SparseState, "__init__", counting_state)
    monkeypatch.setattr(Ensemble, "__post_init__", counting_ensemble)
    code = highrate_code_instance(1, 4)
    roundtrip_verify(code, trials=2, seed=1)
    assert built == {"states": 0, "ensembles": 0}


def count_measurements(code: CodeInstance, monkeypatch) -> int:
    """How many times the sweep measures with two random messages; the
    rows must still be the state pipeline's."""
    calls = []
    round_trip = quantum._round_trip

    def counting(*args):
        calls.append(1)
        return round_trip(*args)

    monkeypatch.setattr(quantum, "_round_trip", counting)
    report = roundtrip_verify(code, trials=2, seed=3)
    assert SweepRows.of(report) == roundtrip_rows_by_states(code, 2, 3)
    return len(calls)


@pytest.mark.parametrize("family, per_form", [
    ("1-4", 1 + 1 + 2), ("2-4", 1 + 1 + 2), ("1-8", 1 + 1 + 2), ("shortest", 2 + 1 + 2),
])
def test_roundtrip_shares_the_basis_messages_of_alike_cells(monkeypatch, family, per_form):
    """On the high-rate codes every cell sheds its deleted words alike, so
    all basis messages share one measurement per channel form; the uniform
    and random messages are measured on their own.  The shortest code's
    cells differ in size, so its two basis messages never share.  A
    position whose form an earlier one had measures nothing: a high-rate
    code has E + 2 forms, the shortest code one."""
    if family == "shortest":
        code, forms = shortest_code(), 1
    else:
        E, N = map(int, family.split("-"))
        code, forms = highrate_code_instance(E, N), E + 2
    assert count_measurements(code, monkeypatch) == forms * per_form


@given(code=sweep_codes(), trials=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_roundtrip_shares_one_round_trip_per_cell_size(code, trials):
    """By C1 every cell sheds lambda_L |C_m| deleted words at each label L,
    so on a validated code the basis messages of cells of one size share
    one round trip per channel form and those of different sizes do not:
    per form, one per cell size, one for the uniform message and one per
    random message."""
    calls = []
    round_trip = quantum._round_trip
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "_round_trip", lambda *args: calls.append(1) or round_trip(*args))
        report = roundtrip_verify(code, trials=trials)
    sizes = len(set(map(len, code.family.cells)))
    assert len(calls) == len(report.forms) * (sizes + 1 + trials)


def test_roundtrip_sharing_ignores_hash_seed():
    """Shapes list labels in order and forms key labels by rank, so the
    (2,4) sweep shares alike under every hash seed, although its cells are
    frozensets: four forms of four measurements each."""
    script = (
        "from qdelcode import quantum\n"
        "from qdelcode.codes import HighRateParams, build_highrate_partition\n"
        "calls, round_trip = [], quantum._round_trip\n"
        "quantum._round_trip = lambda *args: calls.append(1) or round_trip(*args)\n"
        "code = quantum.CodeInstance(build_highrate_partition(HighRateParams(2, 4)))\n"
        "quantum.roundtrip_verify(code, trials=2, seed=3)\n"
        "print(len(calls))\n"
    )
    src = str(Path(quantum.__file__).resolve().parents[1])
    counts = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        counts.add(run.stdout)
    assert counts == {"16\n"}


@pytest.mark.parametrize("E, N", [(1, 4), (2, 4), (1, 8)])
def test_highrate_positions_measure_once_per_form(monkeypatch, E, N):
    """The channel at a position of a high-rate code depends only on the
    position's offset in its block, so E + 2 forms serve all n positions;
    every other position renames the rows of the first with its form."""
    code = highrate_code_instance(E, N)
    forms = []
    form = quantum._form

    def recording(*args):
        ranked, found = form(*args)
        forms.append(found)
        return ranked, found

    monkeypatch.setattr(quantum, "_form", recording)
    calls = []
    round_trip = quantum._round_trip
    monkeypatch.setattr(quantum, "_round_trip", lambda *args: calls.append(1) or round_trip(*args))
    report = roundtrip_verify(code, trials=0)
    assert len(forms) == code.n
    assert len(set(forms)) == E + 2
    assert len(calls) == (E + 2) * 2  # the basis messages share one, the uniform one its own
    assert SweepRows.of(report) == roundtrip_rows_by_states(code, 0, 0)


@pytest.mark.parametrize("E, N, trials, held, branches", [
    (1, 8, 25, 540, 4320),
    (2, 8, 0, 57358, 458864),
])
def test_report_holds_the_rows_of_positions_that_open_a_form(E, N, trials, held, branches):
    """The report keeps one row list per channel form, that of the position
    that opened it; every position names its form and its own labels."""
    code = highrate_code_instance(E, N)
    report = roundtrip_verify(code, trials=trials)
    assert sum(map(len, report.forms)) == held
    assert report.branches == branches
    assert [i for i, _, _ in report.positions] == list(range(1, code.n + 1))
    # the first block has one position per offset, so it opens every form
    assert [form for _, form, _ in report.positions][:E + 2] == list(range(E + 2))
    assert len(report.forms) == E + 2


def test_roundtrip_2_8_without_trials_is_pinned():
    """The (2,8) sweep without random messages, its TSV sha256 recorded
    before positions shared their round trips.  It is the first pinned
    E = 2 code with more than one block per offset class, and its
    codewords inside a cell come in hash order."""
    report = roundtrip_verify(CodeInstance(build_highrate_partition(HighRateParams(2, 8))), trials=0)
    assert len(SweepRows.of(report).rows) == 458864
    assert hashlib.sha256(report.to_tsv().encode()).hexdigest() == (
        "9bae7932960d16eb6ad69ccfaaf492b88a28aa3aceef95b27c1b1bf23bdd265a"
    )


def test_roundtrip_sharing_keys_on_the_recovery_amplitudes():
    """With one message's recovery amplitude changed at one label, the
    sweep still agrees with the state pipeline: a key without the
    amplitudes would hand that message the result of another cell."""
    outcomes = set()
    for factor in (0.5, 2.0):
        code = CodeInstance(build_highrate_partition(HighRateParams(1, 4)))
        label = next(iter(code.amplitudes))
        scaled = list(code.amplitudes[label])
        scaled[-1] *= factor
        code.amplitudes[label] = scaled
        want = _sweep_outcome(lambda: roundtrip_rows_by_states(code, 1, 0))
        got = _sweep_outcome(lambda: roundtrip_verify(code, trials=1, seed=0))
        assert got == want
        outcomes.add(want[:2] if isinstance(want, tuple) else "report")
    assert (DecodeError, RecoverySpanError) in outcomes
