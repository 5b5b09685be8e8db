"""Sparse simulator: states, the deletion channel, measurement and recovery."""

import functools
import itertools
import math
import random
from dataclasses import replace

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
    CodeInstance,
    CodeValidationError,
    DecodeError,
    Ensemble,
    RecoverySpanError,
    SparseState,
    decode,
    decode_branch,
    delete_qubit,
    encode,
    fidelity,
    measure,
    random_message,
    roundtrip_verify,
)

from oracles import (
    cell_words,
    decode_branch_by_inner_products,
    density_matrix,
    partial_trace,
    random_words,
)

SHORTEST = [["0000", "1111"], ["0011", "0101", "0110", "1001", "1010", "1100"]]


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
    weight, state = SparseState.from_unnormalized(2, amps, weight=25.0)
    assert weight == 25.0
    assert state.amplitudes == {"00": pytest.approx(0.6), "11": pytest.approx(0.8j)}
    # a caller that hands in a wrong squared norm fails the normalization check
    with pytest.raises(ValueError, match="not normalized"):
        SparseState.from_unnormalized(2, amps, weight=24.0)
    with pytest.raises(ValueError, match="zero vector"):
        SparseState.from_unnormalized(2, amps, weight=0.0)


def test_sparse_state_uniform_and_inner():
    u = SparseState.uniform(["00", "11"])
    assert u.inner(SparseState.basis(2, "00")) == pytest.approx(1 / math.sqrt(2))
    assert u.inner(u) == pytest.approx(1.0)
    assert SparseState.basis(2, "01").inner(SparseState.basis(2, "10")) == 0
    with pytest.raises(ValueError):
        u.inner(SparseState.basis(3, "000"))


def test_sparse_state_prunes_tiny_amplitudes():
    s = SparseState(1, {"0": 1.0, "1": 1e-16})
    assert set(s.amplitudes) == {"0"}


def test_ensemble_validation():
    s = SparseState.basis(1, "0")
    with pytest.raises(ValueError):
        Ensemble(())
    with pytest.raises(ValueError):
        Ensemble(((0.5, s), (-0.5, s)))
    with pytest.raises(ValueError):
        Ensemble(((0.7, s),))
    with pytest.raises(ValueError):
        Ensemble(((0.5, s), (0.5, SparseState.basis(2, "00"))))
    assert Ensemble.pure(s).qubits == 1


def test_code_instance_shortest():
    code = shortest_code()
    assert (code.n, code.dimension, code.message_qubits) == (4, 2, 1)
    assert code.reachable_labels == (
        CellLabel.of([1, 2, 3, 4], 0),
        CellLabel.of([1, 2, 3, 4], 1),
    )
    cells = cell_words(code)[CellLabel.of([1, 2, 3, 4], 0)]
    assert cells == [frozenset({"000"}), frozenset({"011", "101", "110"})]
    assert code.message_words == ("0", "1")
    assert code.message_word(1) == "1"
    with pytest.raises(ValueError):
        code.message_word(2)
    entry = code.word_index["101"]
    assert (entry.label, entry.message) == (CellLabel.of([1, 2, 3, 4], 0), 1)
    assert entry.amplitude == pytest.approx(1 / math.sqrt(3))
    # every 3-bit word is a deleted word of exactly one cell
    assert len(code.word_index) == 8


def test_code_instance_rejects_invalid_families():
    with pytest.raises(ValueError):
        CodeInstance(FamilySet([["0000", "1111"]]))  # one cell encodes nothing
    with pytest.raises(CodeValidationError) as exc:
        CodeInstance(FamilySet([["0000"], ["1000"]]))
    assert not exc.value.report.c2.passed


def test_code_instance_invariants_raise_typed_errors(monkeypatch):
    # a condition report that wrongly passes a C2-failing family must not
    # yield a code, even under python -O
    passed = ConditionCheck(True)
    family = FamilySet([["0000"], ["1000"]])
    report = replace(condition_report(family), c1=passed, c2=passed, c3=passed, ratios={})
    monkeypatch.setattr(quantum, "condition_report", lambda family: report)
    with pytest.raises(InvariantError):
        CodeInstance(family)


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
    with pytest.raises(ValueError):
        encode(code3, SparseState.basis(2, "11"))  # index 3 out of range


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


def test_delete_qubit_matches_dense_partial_trace():
    rng = random.Random("quantum-trace")
    for _ in range(30):
        n = rng.randint(2, 5)
        state = random_state(rng, n, rng.randint(1, 2**n))
        i = rng.randint(1, n)
        got = density_matrix(delete_qubit(state, i))
        want = partial_trace(density_matrix(Ensemble.pure(state)), n, i)
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
            CellLabel.of([1, 2, 3, 4], 0): pytest.approx(0.5),
            CellLabel.of([1, 2, 3, 4], 1): pytest.approx(0.5),
        }
        assert sum(probs.values()) == pytest.approx(1.0)
        for outcome, post in results:
            for _, state in post.members:
                assert set(state.amplitudes) <= set(
                    cells[outcome.label][0]
                ) | set(cells[outcome.label][1])


def test_measure_sampled_is_deterministic():
    code = shortest_code()
    mixed = delete_qubit(encode(code, code.uniform_message()), 2)
    first = measure(code, mixed, mode="sampled", seed=7)
    second = measure(code, mixed, mode="sampled", seed=7)
    assert len(first) == len(second) == 1
    assert first[0][0] == second[0][0]
    exhaustive_labels = {o.label for o, _ in measure(code, mixed)}
    assert first[0][0].label in exhaustive_labels
    with pytest.raises(ValueError):
        measure(code, mixed, mode="smeared")


def test_decode_and_roundtrip_reject_unknown_mode(monkeypatch):
    code = shortest_code()
    mixed = delete_qubit(encode(code, code.uniform_message()), 2)

    def no_work(*args):
        raise AssertionError("an unknown mode must be refused before any work")

    monkeypatch.setattr(quantum, "_measure_all", no_work)
    monkeypatch.setattr(quantum, "encode", no_work)
    with pytest.raises(ValueError, match="unknown mode 'smeared'"):
        decode(code, mixed, mode="smeared")
    with pytest.raises(ValueError, match="unknown mode 'smeared'"):
        roundtrip_verify(code, trials=1, mode="smeared")


def test_corrupted_input_lands_outside_every_cell():
    fam = build_highrate_partition(HighRateParams(1, 4))
    code = CodeInstance(fam)
    junk = Ensemble.pure(SparseState.basis(code.n - 1, "0" * (code.n - 1)))
    results = measure(code, junk)
    assert len(results) == 1
    outcome, _ = results[0]
    assert outcome.label is None
    assert outcome.probability == pytest.approx(1.0)
    with pytest.raises(DecodeError):
        decode(code, junk)


def test_decode_branch_recovers_basis_states():
    code = shortest_code()
    label = CellLabel.of([1, 2, 3, 4], 0)
    for m in range(2):
        branch = Ensemble.pure(SparseState.uniform(cell_words(code)[label][m]))
        decoded = decode_branch(code, label, branch)
        assert fidelity(code.basis_message(m), decoded) == pytest.approx(1.0)


def test_decode_branch_rejects_states_outside_span():
    code = shortest_code()
    label = CellLabel.of([1, 2, 3, 4], 0)
    odd = SparseState(3, {"011": 1 / math.sqrt(2), "101": -1 / math.sqrt(2)})
    with pytest.raises(RecoverySpanError):
        decode_branch(code, label, Ensemble.pure(odd))
    with pytest.raises(ValueError):
        decode_branch(code, CellLabel.of([1], 0), Ensemble.pure(odd))


@functools.cache
def highrate_code_instance(E: int, N: int) -> CodeInstance:
    return CodeInstance(build_highrate_partition(HighRateParams(E, N)))


@functools.cache
def outside_words(E: int, N: int) -> list[str]:
    """Some words of length n-1 that no cell of the code contains."""
    code = highrate_code_instance(E, N)
    every = ("".join(bits) for bits in itertools.product("01", repeat=code.n - 1))
    return list(itertools.islice((y for y in every if y not in code.word_index), 64))


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
    label = data.draw(st.sampled_from(code.reachable_labels))
    every_cell = cell_words(code)
    cells = every_cell[label]
    own = sorted(set().union(*cells))
    stray = outside_words(*params) if kind == "non-code" else sorted(
        y for other in code.reachable_labels if other != label
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
    for trial in range(10):
        message = random_message(code, rng)
        for i in range(1, 5):
            mixed = delete_qubit(encode(code, message), i)
            assert fidelity(message, decode(code, mixed)) == pytest.approx(1.0, abs=1e-12)
            sampled = decode(code, mixed, mode="sampled", seed=trial)
            assert fidelity(message, sampled) == pytest.approx(1.0, abs=1e-12)


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
    assert len(report.rows) == 4 * 28 * 2


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


def test_roundtrip_encodes_each_message_once(monkeypatch):
    code = highrate_code_instance(1, 4)
    encoded = []

    def counting_encode(code, message):
        encoded.append(message)
        return encode(code, message)

    monkeypatch.setattr(quantum, "encode", counting_encode)
    for mode in ("exhaustive", "sampled"):
        encoded.clear()
        report = roundtrip_verify(code, trials=3, seed=4, mode=mode)
        assert len(encoded) == code.dimension + 1 + 3
        # rows stay position-major, each position listing the messages in order
        positions = [r.position for r in report.rows]
        assert positions == sorted(positions) and set(positions) == set(range(1, code.n + 1))
        trials = [r.trial for r in report.rows if r.position == 1]
        assert list(dict.fromkeys(trials)) == [
            *(f"basis-{m}" for m in range(code.dimension)), "uniform", "rand-0", "rand-1", "rand-2"
        ]


def test_roundtrip_sampled_mode():
    code = shortest_code()
    report = roundtrip_verify(code, trials=2, seed=3, mode="sampled")
    assert report.passed
    # one sampled branch per (position, message)
    assert len(report.rows) == 4 * (2 + 1 + 2)
