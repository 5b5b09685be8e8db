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
amplitudes on the words of cell m, times 1/sqrt(|cell|).  The code keeps
the deletion index's cells (per label, each deleted word's message), a
map from every deleted word to its label and, per label, one list of
the 1/sqrt(|cell|) amplitudes by message, read off the label counts the
walk already took for C1.  So decoding a branch walks
that branch's own support, O(support) rather than one inner product per
message.  Reading the coefficients off onto the message register acts
exactly like the recovery unitary followed by discarding the zeroed work
register.

The single-step functions (:func:`encode`, :func:`delete_qubit`,
:func:`measure`, :func:`decode_branch`, :func:`fidelity`) are the API on
arbitrary states; ``measure`` lists every outcome, and a caller decodes
each branch it wants.  The sweep of :func:`roundtrip_verify` shares the
encoder, the outcome rule (sum check, label order, cut) and the recovery
coefficients with them, but not their states: it compiles the deletion
channel once per call, one table per position whose rows carry every
codeword's bit there, its deleted word's label and message, and its cell
(the Kraus operators <0|_i and <1|_i in sparse form), and walks each
encoded message, held per cell, through those rows.  It does their float
operations in their order, with their checks, so its results equal
theirs exactly, and it raises the first failure in row order.  Basis
messages of cells with one shape at a position (:func:`_shape`; by C1,
cells of one size) share one round trip there.  Positions share too: a
position's split of its rows (:func:`_split`: per deleted bit and label,
the cells and messages of its codewords, labels named by rank) is, with
the labels' recovery amplitudes, its channel form, and a position whose
form equals an earlier one's takes that position's rows under its own
label names.  On a high-rate code, whose blocks are all ``1 <E bits> 0``
and whose cells take every symbol once per block, the form depends only
on the position's offset in its block, so E + 2 positions run every message.

Tolerances: normalization and orthogonality are exact up to roundoff and
are checked at 1e-12; branch fidelity and leftover-outcome probability at
1e-9; amplitudes below 1e-15 are pruned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .bits import validate_word
from .delsets import CellLabel
from .errors import InvariantError
from .family import FamilySet
from .partition import ConditionReport, condition_report

NORM_TOL = 1e-12
BRANCH_TOL = 1e-9
PRUNE_TOL = 1e-15
OUTCOME_EPS = 1e-12


class CodeValidationError(Exception):
    """The family set failed a condition required for error correction."""

    def __init__(self, report: ConditionReport):
        self.report = report
        lines = "".join(f"\n  {line}" for line in report.lines())
        super().__init__(f"family fails validation:{lines}")


class DecodeError(Exception):
    """Decoding failed: a measured branch could not be recovered."""


class RecoverySpanError(DecodeError):
    """A measured branch lies outside the span of the recovery basis."""


def _norm_sq(amplitudes: dict[str, complex]) -> float:
    return sum(abs(a) ** 2 for a in amplitudes.values())


def _check_norm(norm_sq: float) -> None:
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # a NaN fails too
        raise ValueError(f"state is not normalized: |.|^2 = {norm_sq!r}")


def _refuse_non_finite(amplitudes: dict[str, complex]) -> None:
    """Name the first amplitude that is NaN or infinite, if there is one."""
    for x, a in amplitudes.items():
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"state is not normalized: amplitude of {x!r} is {a!r}")


def _checked(amplitudes: dict[str, complex], weight: float = 1.0) -> dict[str, complex]:
    """The amplitudes of a normalized state, from those of a state whose
    squared norm is ``weight``: one pass divides each by sqrt(weight),
    prunes and sums the squared norm, which must then be 1.  A wrong
    ``weight`` fails that check.  A failing state is then searched for a
    NaN or infinite amplitude, which the error names.  Words are not read:
    :class:`SparseState` checks the words it admits."""
    if not weight > 0:
        _refuse_non_finite(amplitudes)
        raise ValueError("zero vector cannot be normalized")
    scale = 1.0 / math.sqrt(weight)
    amps: dict[str, complex] = {}
    norm_sq = 0.0
    for x, a in amplitudes.items():
        a = a * scale
        size = abs(a)
        if size < PRUNE_TOL:
            continue
        amps[x] = complex(a)
        norm_sq += size * size
    try:
        _check_norm(norm_sq)
    except ValueError:
        _refuse_non_finite(amplitudes)
        raise
    return amps


def _overlap(left: dict[str, complex], right: dict[str, complex]) -> complex:
    """<left|right> over the common support, walking the smaller one."""
    if len(right) < len(left):
        return sum(right[x].conjugate() * left[x] for x in right if x in left).conjugate()
    return sum(left[x].conjugate() * right[x] for x in left if x in right)


class _Weighted(NamedTuple):
    """Amplitudes and their squared norm, for the constructor to normalize by."""

    amplitudes: dict[str, complex]
    weight: float


class SparseState:
    """A normalized pure state on ``qubits`` qubits, supported on finitely many bit words."""

    __slots__ = ("qubits", "amplitudes")

    def __init__(self, qubits: int, amplitudes: dict[str, complex]):
        self.qubits = qubits
        amplitudes, weight = amplitudes if type(amplitudes) is _Weighted else (amplitudes, 1.0)
        self.amplitudes = _checked(amplitudes, weight)
        for x in self.amplitudes:  # pruned words are never looked at
            if len(validate_word(x)) != qubits:
                raise ValueError(f"all basis words must have length {qubits}")

    @classmethod
    def _of_checked(cls, qubits: int, amplitudes: dict[str, complex]) -> "SparseState":
        """Wrap amplitudes that are already pruned and normalized, as
        :func:`_checked` leaves them, on words of a checked state's length."""
        state = cls.__new__(cls)
        state.qubits = qubits
        state.amplitudes = amplitudes
        return state

    @classmethod
    def basis(cls, qubits: int, word: str) -> "SparseState":
        return cls(qubits, {word: 1.0})

    @classmethod
    def from_unnormalized(
        cls, qubits: int, amplitudes: dict[str, complex]
    ) -> tuple[float, "SparseState"]:
        """Normalize; returns the squared norm and the normalized state.

        The constructor normalizes by that norm in its one :func:`_checked`
        pass and checks the words, as for ``SparseState(...)``.
        """
        weight = _norm_sq(amplitudes)
        return weight, cls(qubits, _Weighted(amplitudes, weight))

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
        # one pass; the checks still fail in this order: positivity, the
        # weight sum (added left to right from 0, as ``sum`` does), qubits
        qubits = self.members[0][1].qubits
        total = 0
        agree = True
        for w, s in self.members:
            if not w > 0:  # a NaN fails too
                raise ValueError("ensemble weights must be positive")
            total += w
            agree = agree and s.qubits == qubits
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"ensemble weights sum to {total!r}, not 1")
        if not agree:
            raise ValueError("ensemble members must agree on qubit count")

    @property
    def qubits(self) -> int:
        return self.members[0][1].qubits


class MeasurementOutcome(NamedTuple):
    """One measurement result; ``label is None`` is the leftover projector."""

    label: CellLabel | None
    probability: float


class CodeInstance:
    """A validated family set with everything precomputed for simulation.

    Construction runs the three condition checks and refuses families
    that fail any of them.  It keeps the message words and three views
    of the deletion index:

    * ``cells``: each reachable label's deleted words with the index of
      the cell they belong to, the condition report's own map;
    * ``label_of``: every deleted word's label, the decomposition's own
      map, whose label objects are the keys of ``cells``;
    * ``amplitudes``: per label, entry m is 1/sqrt of the number of cell
      m's deleted words there, one float per distinct number.  The
      numbers are the decomposition's ``counts``: cell 0's for every
      cell, replaced for the cells listed there, so no deleted word is
      counted again.

    The measurement splits a state by ``label_of`` and decoding sums by
    ``cells[label]``, so neither ever looks at words outside the state
    it is given.  Condition checks guarantee the cell supports are
    pairwise disjoint, which makes the measurement diagonal and the
    recovery states orthonormal by construction.
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

        decomposition = report.decomposition
        self.cells: dict[CellLabel, dict[str, int]] = decomposition.cells
        self.label_of: dict[str, CellLabel] = decomposition.label_of
        self.amplitudes: dict[CellLabel, list[float]] = {}
        counts = decomposition.counts  # cell 0 and the cells whose counts differ
        roots = {size: 1.0 / math.sqrt(size) for c in counts.values() for size in c.values()}
        for label in self.cells:
            sizes = {m: c.get(label) for m, c in counts.items()}
            if None in sizes.values():
                raise InvariantError(f"some cell misses {label} although C1 passed")
            scales = self.amplitudes[label] = [roots[sizes[0]]] * self.dimension
            for m, size in sizes.items():
                scales[m] = roots[size]
        if any(len(reached) > 1 for reached in decomposition.shared.values()):
            raise InvariantError("two labels share a deleted word although C2 and C3 passed")

    def message_word(self, m: int) -> str:
        if not 0 <= m < self.dimension:
            raise ValueError(f"message index {m} out of range")
        return self.message_words[m]

    def basis_message(self, m: int) -> SparseState:
        return SparseState.basis(self.message_qubits, self.message_word(m))


def _encoded(code: CodeInstance, message: dict[str, complex]) -> dict[int, complex]:
    """:func:`encode` held per cell: message index to the amplitude that
    every codeword of its cell carries.

    Prunes and checks the norm codeword by codeword, cell-major in the
    message's order, as :class:`SparseState` would check the encoded
    state; the sweep's messages list their words in ascending order, the
    order of its codeword tables.
    """
    cells = code.family.cells
    amps: dict[int, complex] = {}
    norm_sq = 0.0
    for word, alpha in message.items():
        m = int(word, 2)
        if m >= code.dimension:
            raise ValueError(
                f"message has amplitude on index {m}, but the code dimension is {code.dimension}"
            )
        a = 0.0 + alpha / math.sqrt(len(cells[m]))
        size = abs(a)
        if size < PRUNE_TOL:
            continue
        amps[m] = a
        for _ in cells[m]:
            norm_sq += size * size
    _check_norm(norm_sq)
    return amps


def encode(code: CodeInstance, message: SparseState) -> SparseState:
    """Map each message basis state to the uniform superposition of its cell."""
    if message.qubits != code.message_qubits:
        raise ValueError(
            f"message must use {code.message_qubits} qubits, got {message.qubits}"
        )
    cells = code.family.cells
    encoded = _encoded(code, message.amplitudes)
    return SparseState._of_checked(code.n, {x: a for m, a in encoded.items() for x in cells[m]})


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
        amps = _checked(part, weight)
        members.append((weight, SparseState._of_checked(state.qubits - 1, amps)))
    total = sum(w for w, _ in members)
    return Ensemble(tuple((w / total, s) for w, s in members))


def _outcomes(probability: dict[CellLabel | None, float]) -> list[CellLabel | None]:
    """The measured outcomes: labels in order, EMPTY (``None``) last,
    without those of probability 1e-12 or less.  Checks that the
    probabilities, added in that order, sum to 1, so the check does not
    depend on the order in which they were measured."""
    labels: list[CellLabel | None] = sorted(lbl for lbl in probability if lbl is not None)
    if None in probability:
        labels.append(None)
    total = sum(map(probability.__getitem__, labels))
    if not abs(total - 1.0) <= BRANCH_TOL:
        raise InvariantError(f"outcome probabilities sum to {total!r}")
    return [label for label in labels if probability[label] > OUTCOME_EPS]


def measure(code: CodeInstance, mixed: Ensemble) -> list[tuple[MeasurementOutcome, Ensemble]]:
    """Perform the decoding measurement: every outcome with probability
    above 1e-12, leftover last, with its renormalized post-measurement state.

    Projectors are diagonal with disjoint supports, so measuring splits
    every member's amplitudes by the label of each basis word; the
    leftover projector collects the words outside every cell.
    """
    if mixed.qubits != code.n - 1:
        raise ValueError(f"measurement expects {code.n - 1} qubits, got {mixed.qubits}")
    label_of = code.label_of
    # per label: (probability, squared norm, amplitudes) of each member's piece
    pieces: dict[CellLabel | None, list[tuple[float, float, dict[str, complex]]]] = {}
    probability: dict[CellLabel | None, float] = {}
    for weight, state in mixed.members:
        split: dict[CellLabel | None, dict[str, complex]] = {}
        for y, a in state.amplitudes.items():
            split.setdefault(label_of.get(y), {})[y] = a
        for label, amps in split.items():
            piece_weight = _norm_sq(amps)
            probability[label] = probability.get(label, 0.0) + weight * piece_weight
            pieces.setdefault(label, []).append((weight * piece_weight, piece_weight, amps))
    results: list[tuple[MeasurementOutcome, Ensemble]] = []
    for label in _outcomes(probability):
        prob = probability[label]
        members = []
        for piece_prob, piece_weight, amps in pieces[label]:
            post = _checked(amps, piece_weight)
            members.append((piece_prob / prob, SparseState._of_checked(code.n - 1, post)))
        results.append((MeasurementOutcome(label, prob), Ensemble(tuple(members))))
    return results


_measure_all = measure  # the benchmark tracer patches this name as well


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
    if branch.qubits != code.n - 1:
        raise ValueError(f"decoding expects {code.n - 1} qubits, got {branch.qubits}")
    owners = code.cells.get(label)
    if owners is None:
        raise ValueError(f"outcome {label} is not reachable for this code")
    scales = code.amplitudes[label]
    members = []
    for weight, state in branch.members:
        pairs = ((owners.get(y), a) for y, a in state.amplitudes.items())
        decoded = _recovered(code, label, _coefficients(scales, pairs))
        members.append((weight, SparseState._of_checked(code.message_qubits, decoded)))
    return Ensemble(tuple(members))


def _coefficients(scales: list, pairs: Iterable[tuple[int | None, complex]]) -> dict[int, complex]:
    """The recovery coefficients of a branch from its (message index,
    amplitude) pairs: each adds its amplitude times 1/sqrt(|cell|),
    ``scales`` of its message, into that message's coefficient; a word
    outside the label's cells (message None) adds nothing."""
    coeffs: dict[int, complex] = {}
    for m, a in pairs:
        if m is not None:
            coeffs[m] = coeffs.get(m, 0.0) + scales[m] * a
    return coeffs


def _recovered(
    code: CodeInstance, label: CellLabel, coeffs: dict[int, complex]
) -> dict[str, complex]:
    """The normalized message amplitudes of a branch whose recovery
    coefficients (message index to coefficient) are ``coeffs``.

    Raises :class:`RecoverySpanError` when the coefficients leave norm
    outside the recovery span; emits message words in ascending order.
    """
    in_span = _norm_sq(coeffs)
    if not 1.0 - in_span < BRANCH_TOL:
        raise RecoverySpanError(
            f"branch for {label} has residual norm {1.0 - in_span:.3e} outside the recovery span"
        )
    words = code.message_words
    order = sorted(coeffs)
    amps = {words[m]: coeffs[m] for m in order if abs(coeffs[m]) >= PRUNE_TOL}
    # nothing pruned or reordered: _norm_sq(amps) would add in_span's squares again
    same = len(amps) == len(coeffs) and order == list(coeffs)
    return _checked(amps, in_span if same else _norm_sq(amps))


def fidelity(pure: SparseState, mixed: Ensemble) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if pure.qubits != mixed.qubits:
        raise ValueError("qubit counts differ")
    return _fidelity(pure.amplitudes, ((w, s.amplitudes) for w, s in mixed.members))


def _fidelity(
    reference: dict[str, complex], members: Iterable[tuple[float, dict[str, complex]]]
) -> float:
    """<psi| rho |psi> for the amplitudes of a pure state and of the members of rho."""
    return sum(w * abs(_overlap(reference, amps)) ** 2 for w, amps in members)


@dataclass(frozen=True)
class RoundtripReport:
    """Per-branch results of encode -> delete -> decode over a trial sweep.

    Positions with one channel form have the same rows up to label names
    (:func:`roundtrip_verify`), so each form's rows are held once:
    ``forms[f]`` lists the (trial, rank of the outcome label, probability,
    fidelity) rows of the position that opened form f, and ``positions``
    lists each position's number, its form's index and its labels in
    order, as the TSV names them.  A row's outcome at a position is the
    position's label of the row's rank.
    """

    forms: tuple[tuple[tuple[str, int, float, float], ...], ...]
    positions: tuple[tuple[int, int, tuple[str, ...]], ...]
    min_fidelity: float
    max_empty_probability: float
    max_probability_error: float

    @property
    def passed(self) -> bool:
        return (
            self.min_fidelity >= 1.0 - BRANCH_TOL
            and self.max_empty_probability < BRANCH_TOL
            and self.max_probability_error <= BRANCH_TOL
        )

    @property
    def branches(self) -> int:
        """The number of rows: one per position, message and decoded branch."""
        return sum(len(self.forms[form]) for _, form, _ in self.positions)

    def to_tsv(self) -> str:
        """The rows as a TSV table with a header; each form's floats are
        formatted once, and each position's rows are joined in one piece."""
        formatted = [
            [(f"\t{trial}\t", rank, f"\t{p:.12g}\t{f:.12g}\n") for trial, rank, p, f in rows]
            for rows in self.forms
        ]
        pieces = ["i\ttrial\toutcome_label\tbranch_probability\tfidelity\n"]
        for i, form, names in self.positions:
            rows = formatted[form]
            pieces.append("".join([f"{i}{trial}{names[rank]}{tail}" for trial, rank, tail in rows]))
        return "".join(pieces)


def _messages(code: CodeInstance, trials: int, seed: int) -> Iterator[tuple[str, dict]]:
    """The named messages of a round-trip sweep, built one at a time as the
    amplitude maps their states would hold, on the code's own words."""
    words = code.message_words
    for m, word in enumerate(words):
        yield f"basis-{m}", _checked({word: 1.0})
    yield "uniform", _checked(dict.fromkeys(words, 1.0 / math.sqrt(code.dimension)))
    for t in range(trials):
        rng = random.Random(f"roundtrip:{seed}:msg:{t}")
        amps = {word: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for word in words}
        yield f"rand-{t}", _checked(amps, _norm_sq(amps))


def _normalized(amplitudes: dict[int, complex], weight: float, cells) -> tuple[dict, dict]:
    """:func:`_checked` on a state held per cell, whose squared norm is
    ``weight``: ``cells`` lists the cell of each codeword in order and
    ``amplitudes`` the amplitude every codeword of a cell carries.  Returns
    the scaled amplitudes by cell, those below the prune tolerance set to
    zero (a zero adds nothing to any later sum, as a dropped word does),
    and their ``abs(a) ** 2``.  Scales and checks the norm codeword by
    codeword, in ``cells`` order, as the state's own check would."""
    scale = 1.0 / math.sqrt(weight)
    scaled: dict[int, complex] = {}
    squares: dict[int, float] = {}
    norm_sq = 0.0
    for c in cells:
        a = amplitudes[c] * scale
        size = abs(a)
        if size < PRUNE_TOL:
            a, size = 0j, 0.0
        norm_sq += size * size
        scaled[c] = a
        squares[c] = size**2
    _check_norm(norm_sq)
    return scaled, squares


# per value of the deleted bit: the cell of each of its codewords, and its
# pieces, the codewords whose deleted words share a label: by rank, the
# label's rank (EMPTY last), each codeword's cell and each deleted word's
# message index (None for EMPTY)
_Split = tuple[tuple[tuple[int, ...], tuple[tuple[int, tuple, tuple], ...]], ...]


def _split(rows: Iterable[tuple], rank: dict[CellLabel | None, int]) -> _Split:
    """Bucket a position's table ``rows`` by their bit, then by label.

    A row is a codeword's bit at the position, its deleted word's label and
    message index, and its cell; ``rank`` gives each label's rank among the
    position's labels, EMPTY (None) last.  Buckets keep the rows' order, as
    ``delete_qubit`` and ``measure`` meet the codewords, and name each
    codeword by its cell; pieces come by rank.  The split of every row is
    the position's channel form (:func:`roundtrip_verify`).
    """
    buckets: tuple[tuple[list[int], dict], ...] = (([], {}), ([], {}))
    for bit, label, m, cell in rows:
        cells, pieces = buckets[bit]
        piece = pieces.get(label)
        if piece is None:
            piece = pieces[label] = ([], [])
        piece[0].append(cell)
        piece[1].append(m)
        cells.append(cell)
    return tuple(
        (tuple(cells), tuple(sorted(
            (rank[label], tuple(own), tuple(messages)) for label, (own, messages) in pieces.items()
        )))
        for cells, pieces in buckets
    )


def _shape(rows: list, m: int, scales: dict[CellLabel, list[float]]) -> tuple | None:
    """Basis message m's sharing key at a position, from ``rows``, its
    cell's slice of the position table: per codeword, sorted, its bit, its
    deleted word's label and the cell's recovery amplitude there.  None if
    a deleted word is EMPTY or indexed under another message."""
    if any(owner != m for _, _, owner, _ in rows):
        return None
    return tuple([(bit, label, scales[label][m]) for bit, label, _, _ in sorted(rows)])


def _round_trip(
    code: CodeInstance, split: _Split, labels: list[CellLabel | None],
    encoded: dict[int, complex], squares: dict[int, float], message: dict[str, complex], where: str,
) -> tuple[float, float, list[tuple[CellLabel, float, float]]]:
    """Delete, measure and recover one encoded message at one position.

    Does the float operations of ``delete_qubit``, ``measure``,
    ``decode_branch`` and ``fidelity`` in their order, with the same
    checks, outcome rule and coefficient rule, on amplitudes held per
    cell instead of states; a piece's rank is read as its label in ``labels``,
    EMPTY (None) last.  Returns the probability of all kept outcomes, that
    of EMPTY, and (label, probability, fidelity with ``message``) of every
    other kept outcome.  Every kept outcome is renormalized before any is
    decoded; a decode failure names ``where`` (position and message) and
    the outcome.
    """
    members = []
    for cells, pieces in split:
        weight = sum(map(squares.__getitem__, cells))
        if weight < PRUNE_TOL:
            continue
        values, squares_b = _normalized(encoded, weight, cells)
        members.append((weight, values, squares_b, pieces))
    total = sum(w for w, _, _, _ in members)

    probability: dict[CellLabel | None, float] = {}
    parts: dict[CellLabel | None, list] = {}
    for weight, values, squares_b, pieces in members:
        weight /= total
        for r, cells, messages in pieces:
            piece_weight = sum(map(squares_b.__getitem__, cells))
            if not piece_weight:
                continue  # only pruned codewords, which the dict path drops
            label = labels[r]
            piece_prob = weight * piece_weight
            probability[label] = probability.get(label, 0.0) + piece_prob
            parts.setdefault(label, []).append((piece_prob, piece_weight, values, cells, messages))
    outcomes = []
    for label in _outcomes(probability):
        prob = probability[label]
        posts = []
        for piece_prob, piece_weight, values, cells, messages in parts[label]:
            post, _ = _normalized(values, piece_weight, cells)
            posts.append((piece_prob / prob, zip(messages, map(post.__getitem__, cells))))
        outcomes.append((label, prob, posts))
    total = sum(prob for _, prob, _ in outcomes)
    empty = sum(prob for label, prob, _ in outcomes if label is None)
    branches = []
    for label, prob, posts in outcomes:
        if label is None:
            continue
        decoded = []
        for weight, pairs in posts:
            try:
                coeffs = _coefficients(code.amplitudes[label], pairs)
                decoded.append((weight, _recovered(code, label, coeffs)))
            except DecodeError as exc:
                raise DecodeError(f"{where}, outcome {label}: {exc}") from exc
        branches.append((label, prob, _fidelity(message, decoded)))
    return total, empty, branches


def roundtrip_verify(code: CodeInstance, trials: int = 25, seed: int = 0) -> RoundtripReport:
    """Run the full pipeline for every deletion position and many messages.

    Messages are the deterministic corner cases (every basis message and
    the uniform superposition) plus ``trials`` seeded random messages.
    Every measured branch is decoded separately and compared with the
    original message, so the report captures the worst branch, not just
    the mixture.

    The deletion channel is compiled once per position: a table with one
    row per codeword, cell-major as :func:`encode` walks them, carrying its
    bit there, its deleted word's label and message index, and its cell
    (the Kraus operators <0|_i and <1|_i in sparse form).  Every message
    is encoded first, held per cell, then run through each position's
    table; a message on a few cells walks their rows only.  Sharing the
    outcome and coefficient rules of the single-step functions, the
    sweep's outputs equal theirs exactly.  Report rows come by position,
    then message; the first failure in that order is raised.

    Within a position, each cell has a shape there (:func:`_shape`): its
    table rows sorted, each as its bit, label and recovery amplitude,
    so a pair's repeats count its codewords.  Basis messages of cells with
    one shape share one whole round trip per position, each with its own
    rows.  This is exact: a basis message's round trip reads its cell's
    shape, its encoded amplitude 1/sqrt(|C_m|), |C_m| the shape's length,
    and its amplitude 1.  By C1 every cell sheds lambda_L |C_m| deleted
    words at each label L, so on a validated code the cells of one size
    share one round trip per form; the labels and counts only part cells
    at an index corrupted after construction.

    Positions share their round trips by channel form: the split of the
    position's table (:func:`_split`), which names each label by its rank
    among the position's labels, EMPTY last, and each codeword by its
    cell, then each label's recovery amplitudes in rank order.  The first
    position with a form runs every message, and the report holds its
    rows, each outcome kept as its label's rank; a later one with an
    equal form, compared exactly, takes those rows, each label read as the
    label of equal rank there, so the report keeps only its form and its
    labels (:class:`RoundtripReport`).  This is exact: the float
    operations read a codeword only through its cell's encoded amplitude
    and its deleted word's message, in bucket order, and a label only
    through its order (:func:`_outcomes`) and its recovery amplitudes.
    Every codeword of a cell carries one amplitude, so which codeword of a
    cell sits where does not matter, and a message on a few cells walks
    the split of its own cells' rows, with the same ranks.  The message
    sequences are kept rather than per-cell counts: at a corrupted index
    one cell can have two messages, and the order in which they reach
    :func:`_coefficients` decides what :func:`_recovered` normalizes by.
    Each form comes from the position's own table, which reads the index
    that decoding uses, so the sweep still verifies every position; and a
    failure is raised at the first position of its form, before any
    position could copy it.
    """
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    cells = code.family.cells
    starts = list(itertools.accumulate(map(len, cells), initial=0))  # cell m: its rows' slice
    messages = []
    for trial, message in _messages(code, trials, seed):
        encoded = _encoded(code, message)
        squares = {m: abs(a) ** 2 for m, a in encoded.items()}  # as _norm_sq takes them
        messages.append((trial, message, encoded, squares))

    label_of, owners, scales = code.label_of, code.cells, code.amplitudes
    forms: dict[tuple, int] = {}  # each channel form's index in held
    held: list[tuple] = []  # per form: the rows of the position that opened it
    positions: list[tuple[int, int, tuple[str, ...]]] = []
    min_fid = 1.0
    max_empty = 0.0
    max_prob_err = 0.0
    for i in range(1, code.n + 1):
        table = []  # cell-major, the order encode walks
        for c, cell in enumerate(cells):
            for x in cell:
                y = x[: i - 1] + x[i:]
                label = label_of.get(y)
                owner = None if label is None else owners[label].get(y)
                table.append((x[i - 1] == "1", label, owner, c))
        ranked = sorted({row[1] for row in table} - {None})
        rank: dict[CellLabel | None, int] = {label: r for r, label in enumerate(ranked)}
        rank[None] = len(ranked)
        every = _split(table, rank)  # the channel form
        form = (every, tuple(tuple(scales[label]) for label in ranked))
        labels = tuple(map(str, ranked))
        index = forms.get(form)
        if index is not None:  # the same channel up to label names: its rows by rank
            positions.append((i, index, labels))
            continue
        named = [*ranked, None]
        rows: list[tuple[str, int, float, float]] = []
        shared: dict[tuple, tuple] = {}  # per shape: the round trip of its first basis message
        for m, (trial, message, encoded, squares) in enumerate(messages):
            basis = m < code.dimension  # basis message m is on cell m alone
            key = _shape(table[starts[m] : starts[m + 1]], m, scales) if basis else None
            found = shared.get(key)
            if found is None:
                if len(encoded) < code.dimension:  # walk the message's own cells only
                    own = (row for c in encoded for row in table[starts[c] : starts[c + 1]])
                    split = _split(own, rank)
                else:
                    split = every
                where = f"position {i}, message {trial}"
                found = _round_trip(code, split, named, encoded, squares, message, where)
                if key is not None:
                    shared[key] = found
            total, empty, outcomes = found
            max_prob_err = max(max_prob_err, abs(total - 1.0))
            max_empty = max(max_empty, empty)
            for label, prob, fid in outcomes:
                min_fid = min(min_fid, fid)
                rows.append((trial, rank[label], prob, fid))
        forms[form] = len(held)
        positions.append((i, len(held), labels))
        held.append(tuple(rows))
    return RoundtripReport(
        forms=tuple(held),
        positions=tuple(positions),
        min_fidelity=min_fid,
        max_empty_probability=max_empty,
        max_probability_error=max_prob_err,
    )
