"""Exact sparse simulation of the encode / delete / measure / recover pipeline.

States are finite maps from basis words to complex amplitudes; mixed
states are weighted lists of such pure states.  Nothing here ever builds
a dense vector or matrix, which keeps code lengths of 16+ qubits cheap:
the encoded states are supported on the code words only, deleting a
qubit splits that support in two, and the decoding measurement is
diagonal in the computational basis, so it only reshuffles support sets.

The recovery step never materializes a unitary either.  For a measured
label the family's cells give one uniform-superposition state per
message index, and these states have disjoint supports.  So the
coefficient of message m in a branch is the sum of the branch's
amplitudes on the words of cell m, times 1/sqrt(|cell|).  One index maps
every deleted word to its (label, message, amplitude) triple, so decoding
a branch walks that branch's own support, O(support) rather than one
inner product per message.  Reading the coefficients off onto the message
register acts exactly like the recovery unitary followed by discarding
the zeroed work register.

Tolerances: normalization and orthogonality are exact up to roundoff and
are checked at 1e-12; branch fidelity and leftover-outcome probability at
1e-9; amplitudes below 1e-15 are pruned.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, NamedTuple

from .delsets import CellLabel
from .errors import InvariantError
from .family import FamilySet
from .partition import ConditionReport, condition_report

NORM_TOL = 1e-12
BRANCH_TOL = 1e-9
PRUNE_TOL = 1e-15
OUTCOME_EPS = 1e-12

Mode = Literal["exhaustive", "sampled"]


class CodeValidationError(Exception):
    """The family set failed a condition required for error correction."""

    def __init__(self, report: ConditionReport):
        self.report = report
        super().__init__("; ".join(report.lines()))


class DecodeError(Exception):
    """Decoding failed: probability mass landed outside every cell."""


class RecoverySpanError(DecodeError):
    """A measured branch lies outside the span of the recovery basis."""


def _norm_sq(amplitudes: dict[str, complex]) -> float:
    return sum(abs(a) ** 2 for a in amplitudes.values())


class SparseState:
    """A normalized pure state on ``qubits`` qubits with finite support."""

    __slots__ = ("qubits", "amplitudes")

    def __init__(self, qubits: int, amplitudes: dict[str, complex]):
        # one pass prunes, checks word lengths and sums the squared norm
        amps: dict[str, complex] = {}
        norm_sq = 0.0
        for x, a in amplitudes.items():
            size = abs(a)
            if size < PRUNE_TOL:
                continue
            if len(x) != qubits:
                raise ValueError(f"all basis words must have length {qubits}")
            amps[x] = complex(a)
            norm_sq += size * size
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |.|^2 = {norm_sq!r}")
        self.qubits = qubits
        self.amplitudes = amps

    @classmethod
    def basis(cls, qubits: int, word: str) -> "SparseState":
        return cls(qubits, {word: 1.0})

    @classmethod
    def uniform(cls, words: Iterable[str]) -> "SparseState":
        words = sorted(set(words))
        if not words:
            raise ValueError("uniform state needs at least one word")
        amp = 1.0 / math.sqrt(len(words))
        return cls(len(words[0]), {w: amp for w in words})

    @classmethod
    def from_unnormalized(
        cls, qubits: int, amplitudes: dict[str, complex], *, weight: float | None = None
    ) -> tuple[float, "SparseState"]:
        """Normalize; returns the squared norm and the normalized state.

        A caller that already summed the squared norm passes it as
        ``weight``; a wrong one still fails the normalization check.
        """
        if weight is None:
            weight = _norm_sq(amplitudes)
        if weight <= 0:
            raise ValueError("zero vector cannot be normalized")
        scale = 1.0 / math.sqrt(weight)
        return weight, cls(qubits, {x: a * scale for x, a in amplitudes.items()})

    def inner(self, other: "SparseState") -> complex:
        """<self|other> over the common support."""
        if self.qubits != other.qubits:
            raise ValueError("qubit counts differ")
        small, big = self.amplitudes, other.amplitudes
        if len(big) < len(small):
            return sum(big[x].conjugate() * small[x] for x in big if x in small).conjugate()
        return sum(small[x].conjugate() * big[x] for x in small if x in big)

    def __repr__(self) -> str:
        terms = ", ".join(f"{x}: {a:.4g}" for x, a in sorted(self.amplitudes.items()))
        return f"SparseState({self.qubits}, {{{terms}}})"


@dataclass(frozen=True)
class Ensemble:
    """A mixed state as a weighted list of pure states."""

    members: tuple[tuple[float, SparseState], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if any(w <= 0 for w, _ in self.members):
            raise ValueError("ensemble weights must be positive")
        total = sum(w for w, _ in self.members)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        if len({s.qubits for _, s in self.members}) != 1:
            raise ValueError("ensemble members must agree on qubit count")

    @classmethod
    def pure(cls, state: SparseState) -> "Ensemble":
        return cls(((1.0, state),))

    @property
    def qubits(self) -> int:
        return self.members[0][1].qubits


class MeasurementOutcome(NamedTuple):
    """One measurement result; ``label is None`` is the leftover projector."""

    label: CellLabel | None
    probability: float

    def describe(self) -> str:
        return "EMPTY" if self.label is None else str(self.label)


class CellEntry(NamedTuple):
    """Where a deleted word sits: its cell's label and message index, and
    the amplitude 1/sqrt(|cell|) of the word in that cell's uniform state."""

    label: CellLabel
    message: int
    amplitude: float


class CodeInstance:
    """A validated family set with everything precomputed for simulation.

    Construction runs the three condition checks and refuses families
    that fail any of them.  It keeps the reachable labels, the message
    words and one index from every deleted word to its
    :class:`CellEntry` (``word_index``); the measurement splits by the
    entry's label and decoding sums by its message, so neither ever
    looks at words outside the state it is given.  Condition checks
    guarantee the cell supports are pairwise disjoint, which makes the
    measurement diagonal and the recovery states orthonormal by
    construction.
    """

    def __init__(self, family: FamilySet):
        if family.size < 2:
            raise ValueError("the encoder needs at least two cells")
        report = condition_report(family)
        if not report.all_passed:
            raise CodeValidationError(report)
        if report.ratios is None:
            raise InvariantError("conditions passed without a ratio table")
        self.family = family
        self.n = family.n
        self.dimension = family.size
        self.message_qubits = (self.dimension - 1).bit_length()

        width = f"0{self.message_qubits}b"
        self.message_words: tuple[str, ...] = tuple(
            format(m, width) for m in range(self.dimension)
        )

        self.reachable_labels: tuple[CellLabel, ...] = tuple(report.cells)
        self._reachable = frozenset(self.reachable_labels)
        self.word_index: dict[str, CellEntry] = {}
        for label, owners in report.cells.items():
            sizes = Counter(owners.values())  # words of each cell at this label
            if len(sizes) != self.dimension:
                raise InvariantError(f"some cell misses {label} although C1 passed")
            entries = [
                CellEntry(label, m, 1.0 / math.sqrt(sizes[m])) for m in range(self.dimension)
            ]
            self.word_index.update((y, entries[m]) for y, m in owners.items())
        if len(self.word_index) != sum(map(len, report.cells.values())):
            raise InvariantError("two labels share a deleted word although C2 and C3 passed")

    def message_word(self, m: int) -> str:
        if not 0 <= m < self.dimension:
            raise ValueError(f"message index {m} out of range")
        return self.message_words[m]

    def basis_message(self, m: int) -> SparseState:
        return SparseState.basis(self.message_qubits, self.message_word(m))

    def uniform_message(self) -> SparseState:
        amp = 1.0 / math.sqrt(self.dimension)
        return SparseState(self.message_qubits, dict.fromkeys(self.message_words, amp))


def encode(code: CodeInstance, message: SparseState) -> SparseState:
    """Map each message basis state to the uniform superposition of its cell."""
    if message.qubits != code.message_qubits:
        raise ValueError(
            f"message must use {code.message_qubits} qubits, got {message.qubits}"
        )
    out: dict[str, complex] = {}
    for word, alpha in message.amplitudes.items():
        m = int(word, 2)
        if m >= code.dimension:
            raise ValueError(
                f"message has amplitude on index {m}, but the code dimension is {code.dimension}"
            )
        cell = code.family.cells[m]
        scale = alpha / math.sqrt(len(cell))
        for x in cell:
            out[x] = out.get(x, 0.0) + scale
    return SparseState(code.n, out)


def delete_qubit(state: SparseState, i: int) -> Ensemble:
    """Trace out qubit ``i`` (1-based) of a pure state.

    The result is the two-branch ensemble given by the value of the
    deleted qubit; its density operator equals the partial trace exactly,
    because the cross blocks between the two values of qubit ``i`` have
    zero trace over that qubit.
    """
    if not 1 <= i <= state.qubits:
        raise ValueError(f"position {i} out of range for {state.qubits} qubits")
    branches: dict[str, dict[str, complex]] = {"0": {}, "1": {}}
    for x, a in state.amplitudes.items():
        part = branches[x[i - 1]]
        y = x[: i - 1] + x[i:]
        part[y] = part.get(y, 0.0) + a
    members = []
    for part in (branches["0"], branches["1"]):
        weight = _norm_sq(part)
        if weight < PRUNE_TOL:
            continue
        _, member = SparseState.from_unnormalized(state.qubits - 1, part, weight=weight)
        members.append((weight, member))
    total = sum(w for w, _ in members)
    return Ensemble(tuple((w / total, s) for w, s in members))


def _measure_all(
    code: CodeInstance, mixed: Ensemble
) -> list[tuple[MeasurementOutcome, Ensemble]]:
    """All measurement outcomes with positive probability, leftover last.

    Projectors are diagonal with disjoint supports, so measuring splits
    every member's amplitudes by the label of each basis word; the
    leftover projector collects the words outside every cell.
    """
    if mixed.qubits != code.n - 1:
        raise ValueError(f"measurement expects {code.n - 1} qubits, got {mixed.qubits}")
    index = code.word_index
    # per label: (probability, squared norm, amplitudes) of each member's piece
    pieces: dict[CellLabel | None, list[tuple[float, float, dict[str, complex]]]] = {}
    probability: dict[CellLabel | None, float] = {}
    for weight, state in mixed.members:
        split: dict[CellLabel | None, dict[str, complex]] = {}
        for y, a in state.amplitudes.items():
            entry = index.get(y)
            split.setdefault(None if entry is None else entry.label, {})[y] = a
        for label, amps in split.items():
            piece_weight = _norm_sq(amps)
            probability[label] = probability.get(label, 0.0) + weight * piece_weight
            pieces.setdefault(label, []).append((weight * piece_weight, piece_weight, amps))
    total = sum(probability.values())
    if abs(total - 1.0) > BRANCH_TOL:
        raise InvariantError(f"outcome probabilities sum to {total!r}")

    ordered = sorted((lbl for lbl in probability if lbl is not None))
    results: list[tuple[MeasurementOutcome, Ensemble]] = []
    for label in [*ordered, *([None] if None in probability else [])]:
        prob = probability[label]
        if prob <= OUTCOME_EPS:
            continue
        members = []
        for piece_prob, piece_weight, amps in pieces[label]:
            _, post = SparseState.from_unnormalized(code.n - 1, amps, weight=piece_weight)
            members.append((piece_prob / prob, post))
        results.append((MeasurementOutcome(label, prob), Ensemble(tuple(members))))
    return results


def measure(
    code: CodeInstance,
    mixed: Ensemble,
    mode: Mode = "exhaustive",
    seed: int | None = None,
) -> list[tuple[MeasurementOutcome, Ensemble]]:
    """Perform the decoding measurement.

    Exhaustive mode lists every outcome with probability above 1e-12
    together with its renormalized post-measurement state; sampled mode
    draws a single outcome from the same distribution using ``seed``.
    """
    _check_mode(mode)
    results = _measure_all(code, mixed)
    if mode == "exhaustive":
        return results
    rng = random.Random(f"measure:{seed}")
    return [_sample_outcome(results, rng)]


def _check_mode(mode: str) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")


def _sample_outcome(results, rng: random.Random):
    pick = rng.random() * sum(o.probability for o, _ in results)
    acc = 0.0
    for outcome, post in results:
        acc += outcome.probability
        if pick <= acc:
            return outcome, post
    return results[-1]


def decode_branch(code: CodeInstance, label: CellLabel, branch: Ensemble) -> Ensemble:
    """Recover the message register from a measured branch.

    Every pure member is expanded in the label's orthonormal recovery
    states by one walk over its support: each word of the label's cells
    adds its amplitude times 1/sqrt(|cell|) to the coefficient of its
    message, and the coefficient of message m becomes the amplitude of
    message word m.  Words outside the label's cells only leave residual
    norm outside the span, which signals a corrupted input or an invalid
    code and raises.
    """
    if label not in code._reachable:
        raise ValueError(f"outcome {label} is not reachable for this code")
    index = code.word_index
    words = code.message_words
    members = []
    for weight, state in branch.members:
        coeffs: dict[int, complex] = {}
        for y, a in state.amplitudes.items():
            entry = index.get(y)
            if entry is not None and entry.label == label:
                m = entry.message
                coeffs[m] = coeffs.get(m, 0.0) + entry.amplitude * a
        in_span = sum(abs(c) ** 2 for c in coeffs.values())
        if 1.0 - in_span >= BRANCH_TOL:
            raise RecoverySpanError(
                f"branch for {label} has residual norm {1.0 - in_span:.3e} outside the recovery span"
            )
        amps: dict[str, complex] = {}
        kept = 0.0
        for m in sorted(coeffs):
            size = abs(coeffs[m])
            if size >= PRUNE_TOL:
                amps[words[m]] = coeffs[m]
                kept += size**2
        _, decoded = SparseState.from_unnormalized(code.message_qubits, amps, weight=kept)
        members.append((weight, decoded))
    return Ensemble(tuple(members))


class _Branches(NamedTuple):
    """The labelled outcomes of one measurement, EMPTY dropped."""

    total: float  # probability of all outcomes, EMPTY included
    empty: float  # probability of the EMPTY outcome
    outcomes: list[tuple[MeasurementOutcome, Ensemble]]


def _measured_branches(
    code: CodeInstance, mixed: Ensemble, rng: random.Random | None
) -> _Branches:
    """Measure, drop the EMPTY outcome and, given ``rng``, sample one branch.

    This is the one path from a corrupted state to the branches that get
    decoded; :func:`decode` and :func:`roundtrip_verify` both take it.
    """
    results = _measure_all(code, mixed)
    total = sum(o.probability for o, _ in results)
    empty = sum(o.probability for o, _ in results if o.label is None)
    outcomes = [(o, post) for o, post in results if o.label is not None]
    if rng is not None and outcomes:
        outcomes = [_sample_outcome(outcomes, rng)]
    return _Branches(total, empty, outcomes)


def decode(
    code: CodeInstance,
    mixed: Ensemble,
    mode: Mode = "exhaustive",
    seed: int | None = None,
) -> Ensemble:
    """Measurement followed by recovery on every branch.

    Exhaustive mode mixes the decoded branches with their outcome
    probabilities; sampled mode decodes one sampled branch.
    """
    _check_mode(mode)
    rng = random.Random(f"decode:{seed}") if mode == "sampled" else None
    measured = _measured_branches(code, mixed, rng)
    if measured.empty >= BRANCH_TOL:
        raise DecodeError(
            f"probability {measured.empty:.3e} fell outside every cell; input is not a corrupted codeword"
        )
    total = sum(o.probability for o, _ in measured.outcomes)
    members = []
    for outcome, post in measured.outcomes:
        decoded = decode_branch(code, outcome.label, post)
        share = outcome.probability / total if mode == "exhaustive" else 1.0
        members.extend((share * w, s) for w, s in decoded.members)
    return Ensemble(tuple(members))


def fidelity(pure: SparseState, mixed: Ensemble) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if pure.qubits != mixed.qubits:
        raise ValueError("qubit counts differ")
    return sum(w * abs(pure.inner(s)) ** 2 for w, s in mixed.members)


@dataclass(frozen=True)
class RoundtripRow:
    position: int
    trial: str
    outcome: str
    probability: float
    fidelity: float


@dataclass(frozen=True)
class RoundtripReport:
    """Per-branch results of encode -> delete -> decode over a trial sweep."""

    rows: tuple[RoundtripRow, ...]
    min_fidelity: float
    max_empty_probability: float
    max_probability_error: float

    @property
    def passed(self) -> bool:
        return (
            self.min_fidelity >= 1.0 - BRANCH_TOL
            and self.max_empty_probability < BRANCH_TOL
            and self.max_probability_error <= 1e-9
        )

    def to_tsv(self) -> str:
        lines = ["i\ttrial\toutcome_label\tbranch_probability\tfidelity"]
        for r in self.rows:
            lines.append(
                f"{r.position}\t{r.trial}\t{r.outcome}\t{r.probability:.12g}\t{r.fidelity:.12g}"
            )
        return "\n".join(lines) + "\n"


def random_message(code: CodeInstance, rng: random.Random) -> SparseState:
    """A message with independent complex-normal amplitudes, normalized."""
    amps = {
        word: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        for word in code.message_words
    }
    _, state = SparseState.from_unnormalized(code.message_qubits, amps)
    return state


def _messages(code: CodeInstance, trials: int, seed: int) -> Iterator[tuple[str, SparseState]]:
    """The named messages of a round-trip sweep, built one at a time."""
    for m in range(code.dimension):
        yield f"basis-{m}", code.basis_message(m)
    yield "uniform", code.uniform_message()
    for t in range(trials):
        yield f"rand-{t}", random_message(code, random.Random(f"roundtrip:{seed}:msg:{t}"))


def roundtrip_verify(
    code: CodeInstance,
    trials: int = 25,
    seed: int = 0,
    mode: Mode = "exhaustive",
) -> RoundtripReport:
    """Run the full pipeline for every deletion position and many messages.

    Messages are the deterministic corner cases (every basis message and
    the uniform superposition) plus ``trials`` seeded random messages.
    Every measured branch is decoded separately and compared with the
    original message, so the report captures the worst branch, not just
    the mixture.
    """
    _check_mode(mode)
    # rows are reported position-major, but each message is encoded once
    # and swept over every position, so collect them per position
    rows_at: list[list[RoundtripRow]] = [[] for _ in range(code.n)]
    min_fid = 1.0
    max_empty = 0.0
    max_prob_err = 0.0
    for trial, message in _messages(code, trials, seed):
        encoded = encode(code, message)
        for i, rows in enumerate(rows_at, start=1):
            mixed = delete_qubit(encoded, i)
            rng = (
                random.Random(f"roundtrip:{seed}:pick:{i}:{trial}")
                if mode == "sampled"
                else None
            )
            measured = _measured_branches(code, mixed, rng)
            max_prob_err = max(max_prob_err, abs(measured.total - 1.0))
            max_empty = max(max_empty, measured.empty)
            for outcome, post in measured.outcomes:
                try:
                    decoded = decode_branch(code, outcome.label, post)
                except DecodeError as exc:
                    raise DecodeError(
                        f"position {i}, message {trial}, outcome {outcome.describe()}: {exc}"
                    ) from exc
                fid = fidelity(message, decoded)
                min_fid = min(min_fid, fid)
                rows.append(
                    RoundtripRow(i, trial, outcome.describe(), outcome.probability, fid)
                )
    return RoundtripReport(
        rows=tuple(itertools.chain.from_iterable(rows_at)),
        min_fidelity=min_fid,
        max_empty_probability=max_empty,
        max_probability_error=max_prob_err,
    )
