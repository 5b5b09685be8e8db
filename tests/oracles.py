"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: breadth-first search
for edit distance, subsequence enumeration for LCS, dense numpy matrices
for the quantum channel, one inner product per message for recovery.
None of it imports the fast code paths it is meant to check, so
agreement is evidence, not tautology.  The sufficiency checker is the one
bridge: it sets the package's condition verdicts against hypotheses that
the slow code here evaluates.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qdelcode.delsets import CellLabel
from qdelcode.partition import ConditionCheck, condition_report
from qdelcode.quantum import (
    BRANCH_TOL,
    PRUNE_TOL,
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
    random_message,
)

# The shortest code: {0000, 1111} and the six words of weight 2.
SHORTEST = [["0000", "1111"], ["0011", "0101", "0110", "1001", "1010", "1100"]]


def cell_label(positions, bit: int) -> CellLabel:
    """The label of the cell of ``positions``, in any order, and ``bit``."""
    return CellLabel(tuple(sorted(positions)), bit)


def uniform_state(words) -> SparseState:
    """The uniform superposition of the distinct ``words``."""
    words = sorted(set(words))
    if not words:
        raise ValueError("uniform state needs at least one word")
    amp = 1.0 / math.sqrt(len(words))
    return SparseState(len(words[0]), {w: amp for w in words})


def inner(left: SparseState, right: SparseState) -> complex:
    """<left|right>, summed over the words of ``left``."""
    if left.qubits != right.qubits:
        raise ValueError("qubit counts differ")
    return sum(a.conjugate() * right.amplitudes.get(x, 0) for x, a in left.amplitudes.items())


def pure(state: SparseState) -> Ensemble:
    """The one-member ensemble of a pure state."""
    return Ensemble(((1.0, state),))


def describe(outcome) -> str:
    """A measurement outcome's name: its label, or EMPTY for the leftover."""
    return "EMPTY" if outcome.label is None else str(outcome.label)


def _delete_neighbors(w: str) -> set[str]:
    return {w[:i] + w[i + 1 :] for i in range(len(w))}


def _insert_neighbors(w: str) -> set[str]:
    return {w[:i] + b + w[i:] for i in range(len(w) + 1) for b in "01"}


def edit_distance_bfs(x: str, y: str) -> int:
    """Insert/delete distance by breadth-first search.

    Intermediate words longer than both inputs are pruned; a shortest
    path never needs them (delete down to a common subsequence, then
    insert up), so the search stays finite.
    """
    if x == y:
        return 0
    cap = max(len(x), len(y))
    frontier, seen = {x}, {x}
    for dist in itertools.count(1):
        nxt = set()
        for w in frontier:
            step = _delete_neighbors(w)
            if len(w) < cap:
                step |= _insert_neighbors(w)
            for v in step:
                if v == y:
                    return dist
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
        assert frontier, f"no path from {x!r} to {y!r}"


def _is_subsequence(s: str, y: str) -> bool:
    it = iter(y)
    return all(c in it for c in s)


def lcs_bruteforce(x: str, y: str) -> int:
    """Longest common subsequence by enumerating subsequences of x."""
    for r in range(min(len(x), len(y)), 0, -1):
        for idxs in itertools.combinations(range(len(x)), r):
            if _is_subsequence("".join(x[i] for i in idxs), y):
                return r
    return 0


def lcs_length(x: str, y: str) -> int:
    """Length of a longest common subsequence, by the standard row DP."""
    if len(y) < len(x):
        x, y = y, x
    prev = [0] * (len(x) + 1)
    for cy in y:
        cur = [0]
        for i, cx in enumerate(x, start=1):
            cur.append(prev[i - 1] + 1 if cx == cy else max(cur[i - 1], prev[i]))
        prev = cur
    return prev[len(x)]


def levenshtein(x: str, y: str) -> int:
    """Insert/delete edit distance (no substitutions): |x|+|y|-2*lcs."""
    return len(x) + len(y) - 2 * lcs_length(x, y)


def min_levenshtein(code) -> int:
    """Minimum insert/delete distance over distinct codeword pairs of a
    ``ClassicalCode``."""
    if len(code.words) < 2:
        raise ValueError("minimum distance needs at least two words")
    return min(levenshtein(x, y) for x, y in itertools.combinations(sorted(code.words), 2))


def deletion_surface(x: str) -> set[str]:
    """All words reachable from ``x`` by one deletion (duplicate-free)."""
    if len(x) < 1:
        raise ValueError("deletion surface needs a non-empty word")
    return _delete_neighbors(x)


def insert_at(x: str, i: int, b: int) -> str:
    """Insert bit ``b`` after position ``i``: a gap index from 0 (before
    the first symbol) to ``len(x)`` (after the last)."""
    if not 0 <= i <= len(x):
        raise ValueError(f"gap index {i} out of range for word of length {len(x)}")
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return insert_bit(x, i + 1, "01"[b])


def state_vector(state) -> np.ndarray:
    """Dense 2^n vector of a sparse state; basis index = int(word, 2)."""
    v = np.zeros(2**state.qubits, dtype=complex)
    for word, amp in state.amplitudes.items():
        v[int(word, 2)] = amp
    return v


def density_matrix(ensemble) -> np.ndarray:
    """Dense density matrix of a weighted ensemble of sparse states."""
    dim = 2**ensemble.qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for w, s in ensemble.members:
        v = state_vector(s)
        rho += w * np.outer(v, v.conj())
    return rho


def insert_bit(w: str, i: int, b: str) -> str:
    """Insert bit b so that deleting position i (1-based) recovers w."""
    return w[: i - 1] + b + w[i - 1 :]


def partial_trace(rho: np.ndarray, n: int, i: int) -> np.ndarray:
    """Trace out qubit i (1-based, leftmost = 1) of an n-qubit matrix.

    Straight from the definition: entry (y, z) of the result sums rho
    over the two ways of reinserting the traced bit into y and z.
    """
    m = 2 ** (n - 1)
    out = np.zeros((m, m), dtype=complex)
    words = [format(k, f"0{n - 1}b") for k in range(m)]
    for y, wy in enumerate(words):
        for z, wz in enumerate(words):
            for b in "01":
                out[y, z] += rho[int(insert_bit(wy, i, b), 2), int(insert_bit(wz, i, b), 2)]
    return out


def _uniform_length(words) -> int:
    lengths = {len(x) for x in words}
    if len(lengths) > 1:
        raise ValueError("words must all have the same length")
    return lengths.pop() if lengths else 0


def deletion_set(words, i: int, b: int) -> set[str]:
    """Words obtained by deleting position ``i`` where the symbol there is ``b``."""
    words = set(words)
    n = _uniform_length(words)
    if words and not (2 <= n):
        raise ValueError("deletion sets need words of length >= 2")
    if words and not 1 <= i <= n:
        raise ValueError(f"position {i} out of range for length {n}")
    target = "01"[b]
    return {x[: i - 1] + x[i:] for x in words if x[i - 1] == target}


def cell(words, positions, b: int) -> set[str]:
    """The cell for position set ``I`` by the direct set formula.

    Intersection of ``deletion_set(words, i, b)`` over ``i in I``, minus
    every deletion set for ``i`` outside ``I``.  When ``I`` covers every
    position the complement part is empty and only the intersection
    remains.
    """
    words = set(words)
    n = _uniform_length(words)
    index = set(positions)
    if not index:
        raise ValueError("cell index must be non-empty")
    if not index <= set(range(1, n + 1)):
        raise ValueError(f"positions {sorted(index)} out of range for length {n}")
    first, *rest = sorted(index)
    out = deletion_set(words, first, b)
    for i in rest:
        if not out:
            return set()
        out &= deletion_set(words, i, b)
    for i in range(1, n + 1):
        if i not in index:
            out -= deletion_set(words, i, b)
            if not out:
                return set()
    return out


def label_of(cells, y: str):
    """The label of the cell holding ``y`` in a map of labels to cells, by a
    linear scan; ``None`` when no cell holds it."""
    for label, members in cells.items():
        if y in members:
            return label
    return None


def brute_deletion_set(words, i: int, b: int) -> set[str]:
    """(i, b)-deletion set by filtering on the bit before deleting."""
    return {w[: i - 1] + w[i:] for w in words if w[i - 1] == str(b)}


def brute_cell(words, positions, b: int) -> set[str]:
    """Cell by literal set algebra over all per-position deletion sets."""
    n = len(next(iter(words)))
    result = None
    for i in positions:
        d = brute_deletion_set(words, i, b)
        result = d if result is None else result & d
    assert result is not None
    for i in range(1, n + 1):
        if i not in positions:
            result -= brute_deletion_set(words, i, b)
    return result


def run_supports(x: str, b: int) -> list[tuple[int, ...]]:
    """Position tuples of the maximal runs of bit ``b`` in ``x``."""
    out, pos = [], 1
    for c, group in itertools.groupby(x):
        k = len(list(group))
        if c == str(b):
            out.append(tuple(range(pos, pos + k)))
        pos += k
    return out


def direct_conditions(cells) -> dict:
    """Every fact of a cell decomposition, recomputed one position at a time.

    Keys: ``cells`` maps ``(positions, b)`` to ``{m: words}`` for every
    cell ``m`` reaching that label; ``c1`` is ``None`` or the first failing
    ``(positions, b, m)``; ``ratios`` is the lambda table on success;
    ``crossing``, ``clash``, ``collision`` and ``unstable`` follow the
    order documented on ``qdelcode.delsets.CellDecomposition``.
    """
    cells = [sorted(c) for c in cells]
    n, count = len(cells[0][0]), len(cells)
    positions = range(1, n + 1)
    reach = []  # per cell, per bit: deleted word -> its position set
    for c in cells:
        per_bit = {}
        for b in (0, 1):
            dels = {i: brute_deletion_set(c, i, b) for i in positions}
            ys = set().union(*dels.values())
            per_bit[b] = {y: tuple(i for i in positions if y in dels[i]) for y in ys}
        reach.append(per_bit)

    grouped: dict = {}
    for m, per_bit in enumerate(reach):
        for b in (0, 1):
            for y, where in per_bit[b].items():
                grouped.setdefault((where, b), {}).setdefault(m, set()).add(y)
    out: dict = {
        "cells": {key: {m: frozenset(ys) for m, ys in per.items()} for key, per in grouped.items()}
    }

    sizes = [len(c) for c in cells]
    out["c1"] = out["ratios"] = None
    for key in sorted(grouped):
        counts = [len(grouped[key].get(m, ())) for m in range(count)]
        bad = [m for m in range(1, count) if sizes[0] * counts[m] != sizes[m] * counts[0]]
        if bad:
            out["c1"] = (*key, bad[0])
            break
    else:
        out["ratios"] = {
            key: Fraction(len(per.get(0, ())), sizes[0]) for key, per in grouped.items()
        }

    everything = [set(per_bit[0]) | set(per_bit[1]) for per_bit in reach]
    out["crossing"] = None
    for m in range(count):
        shared = [y for y in everything[m] if any(y in everything[k] for k in range(m))]
        if shared:
            y = min(shared)
            out["crossing"] = (y, min(k for k in range(m) if y in everything[k]), m)
            break
    clashes = [(m, set(r[0]) & set(r[1])) for m, r in enumerate(reach)]
    out["clash"] = next(((m, min(both)) for m, both in clashes if both), None)

    words = sorted(w for c in cells for w in c)
    surface = {w: {w[:i] + w[i + 1 :] for i in range(n)} for w in words}
    pairs = [(u, x) for x in words for u in words if u < x and surface[u] & surface[x]]
    out["collision"] = pairs[0] if pairs else None

    multisets = [
        [Counter(iv for x in c for iv in run_supports(x, b)) for c in cells] for b in (0, 1)
    ]
    unstable = [
        (b, m) for b in (0, 1) for m in range(1, count) if multisets[b][m] != multisets[b][0]
    ]
    out["unstable"] = unstable[0] if unstable else None
    return out


@dataclass(frozen=True)
class SufficiencyReport:
    """Hypothesis/conclusion pairs for the sufficiency results, on one family."""

    members_are_deletion_codes: bool
    c3_follows: ConditionCheck
    cross_distance_at_least_4: bool
    c2_follows: ConditionCheck
    stable_equal_deletion_cells: bool
    c1_follows: ConditionCheck

    @property
    def consistent(self) -> bool:
        """True unless some proven implication failed (an implementation bug)."""
        return (
            (not self.members_are_deletion_codes or self.c3_follows.passed)
            and (not self.cross_distance_at_least_4 or self.c2_follows.passed)
            and (not self.stable_equal_deletion_cells or self.c1_follows.passed)
        )


def check_sufficiency_theorems(fam) -> SufficiencyReport:
    """Each sufficiency hypothesis on a ``FamilySet``, from
    :func:`direct_conditions`, next to the condition that
    ``condition_report`` finds and the hypothesis implies.

    Between equal-length words, distance >= 4 means no shared deleted word,
    so the cross-distance hypothesis is the absence of a crossing.
    """
    members_sdc = all(direct_conditions([member])["collision"] is None for member in fam.cells)
    oracle = direct_conditions(fam.cells)
    equal = len({len(member) for member in fam.cells}) == 1
    report = condition_report(fam)
    return SufficiencyReport(
        members_are_deletion_codes=members_sdc,
        c3_follows=report.c3,
        cross_distance_at_least_4=oracle["crossing"] is None,
        c2_follows=report.c2,
        stable_equal_deletion_cells=members_sdc and equal and oracle["unstable"] is None,
        c1_follows=report.c1,
    )


def parity_check_code(params) -> set[tuple[int, ...]]:
    """All length-N words over Z_{2^E} whose symbols sum to zero."""
    q = 2**params.E
    out = set()
    for prefix in itertools.product(range(q), repeat=params.N - 1):
        out.add(prefix + ((-sum(prefix)) % q,))
    return out


def lift(symbols, params) -> str:
    """The sandwich image ``1 <E bits> 0`` per symbol, spelled out."""
    return "".join("1" + format(a, f"0{params.E}b") + "0" for a in symbols)


def highrate_cosets(params) -> list[list[str]]:
    """The lifted cosets ``a + (i, ..., i)`` of the parity-check code.

    Each coset is sorted, and the cosets are sorted by their smallest word.
    """
    q = 2**params.E
    seen: set[tuple[int, ...]] = set()
    cosets = []
    for a in parity_check_code(params):
        if a in seen:
            continue
        coset = [tuple((s + i) % q for s in a) for i in range(q)]
        seen.update(coset)
        cosets.append(sorted(lift(c, params) for c in coset))
    return sorted(cosets, key=lambda coset: coset[0])


def write_family_file_by_json_dump(path, family, metadata=None) -> None:
    """The family file as ``json.dump`` writes it, indented by two, with a newline."""
    payload: dict = {"n": family.n, "sets": [sorted(cell) for cell in family.cells]}
    if metadata:
        payload["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _is_bit_word(word) -> bool:
    return isinstance(word, str) and all(c in "01" for c in word)


def first_word_refusal(sets, n: int) -> str | None:
    """The family-file reader's refusal of the first word, in list order, that
    is not a bit word of length ``n``; None when every word is one."""
    for j, cell in enumerate(sets):
        for k, word in enumerate(cell):
            if not _is_bit_word(word):
                return f"sets[{j}][{k}]: expected a string of 0/1, got {word!r}"
            if len(word) != n:
                return f"sets[{j}][{k}]: word {word!r} has length {len(word)}, expected n={n}"
    return None


def first_bit_word_refusal(sets) -> str | None:
    """``FamilySet``'s refusal of the first word, in list order, that is not a
    bit word; None when every word is one."""
    for cell in sets:
        for word in cell:
            if not _is_bit_word(word):
                return f"not a bit string: {word!r}"
    return None


def random_words(rng: random.Random, n: int, count: int) -> list[str]:
    """Distinct random words of length n; count is capped at 2^n.

    Draws integers, never the 2^n words, so any n is cheap; a leading 1
    bit keeps the leading zeros, and gives ``""`` for n = 0.
    """
    return [format(k | 1 << n, "b")[1:] for k in rng.sample(range(2**n), min(count, 2**n))]


def random_family_cells(rng: random.Random, structured_pool: list[str] | None = None):
    """A random valid family: 2..4 disjoint non-empty cells of equal-length words.

    With a pool given (e.g. a VT code's words), draws from it instead of
    the full cube, which produces families much closer to real codes.
    """
    if structured_pool:
        n = len(structured_pool[0])
        words = list(structured_pool)
        rng.shuffle(words)
        words = words[: min(len(words), rng.randint(4, 10))]
    else:
        n = rng.randint(2, 8)
        words = random_words(rng, n, rng.randint(4, 10))
    cell_count = rng.randint(2, min(4, len(words) // 2))
    cells: list[list[str]] = [[] for _ in range(cell_count)]
    for j, w in enumerate(words):
        cells[j % cell_count].append(w)
    rng.shuffle(cells)
    return cells


def cell_words(code) -> dict:
    """``cells[label][m]``: the deleted words of cell m at each reachable
    label, as a frozenset, grouped from ``code.cells``."""
    cells = {label: [set() for _ in range(code.dimension)] for label in code.cells}
    for label, owners in code.cells.items():
        for y, m in owners.items():
            cells[label][m].add(y)
    return {label: [frozenset(c) for c in groups] for label, groups in cells.items()}


def cells_by_grouping(decomposition) -> dict:
    """The per-label map of ``decomposition`` grouped word by word: each
    word of ``label_of``, cell by cell as ``ends`` splits them, then each
    (cell, label) of ``shared``, under its label; labels sorted."""
    grouped: dict = {}
    words = iter(decomposition.label_of.items())
    for m, (start, stop) in enumerate(itertools.pairwise((0, *decomposition.ends))):
        for y, label in itertools.islice(words, stop - start):
            grouped.setdefault(label, {})[y] = m
    for y, reached in decomposition.shared.items():
        for m, label in reached:
            grouped.setdefault(label, {})[y] = m
    return dict(sorted(grouped.items()))


def amplitudes_by_recount(cells, dimension: int) -> dict:
    """Per label of a per-label map, entry m is 1/sqrt of the number of
    cell m's deleted words there, counted word by word."""
    amplitudes = {}
    for label, owners in cells.items():
        sizes = Counter(owners.values())
        amplitudes[label] = [1.0 / math.sqrt(sizes[m]) for m in range(dimension)]
    return amplitudes


def deleted_word_entries(cells) -> dict[str, tuple[tuple[int, ...], int, int, float]]:
    """Every deleted word of a family that passes C2 and C3, by deleting
    every position of every codeword: the positions and bit of its label,
    the index of the cell that reaches it, and 1/sqrt of the number of
    that cell's deleted words with the same label."""
    ways: dict[str, set[tuple[int, int, int]]] = {}
    for m, words in enumerate(cells):
        for x in words:
            for i in range(1, len(x) + 1):
                ways.setdefault(x[: i - 1] + x[i:], set()).add((i, int(x[i - 1]), m))
    keys = {}
    for y, found in ways.items():
        ((bit, m),) = {(b, m) for _, b, m in found}  # one of each under C2 and C3
        keys[y] = (tuple(sorted({i for i, _, _ in found})), bit, m)
    counts = Counter(keys.values())
    return {y: (*key, 1.0 / math.sqrt(counts[key])) for y, key in keys.items()}


def decode_branch_by_inner_products(code, label, branch) -> Ensemble:
    """Recovery by expanding each member in all of the label's recovery states.

    Builds the uniform superposition over every cell of ``label`` and
    takes one inner product with each, so a branch costs O(dimension)
    inner products however small its support.  Coefficients below the
    prune tolerance are dropped; residual norm outside the span raises
    :class:`RecoverySpanError`, as ``decode_branch`` does.
    """
    cells = cell_words(code).get(label)
    if cells is None:
        raise ValueError(f"outcome {label} is not reachable for this code")
    basis = [uniform_state(c) for c in cells]
    members = []
    for weight, state in branch.members:
        amps: dict[str, complex] = {}
        in_span = 0.0
        for m, psi in enumerate(basis):
            coeff = inner(psi, state)
            if abs(coeff) >= PRUNE_TOL:
                amps[code.message_word(m)] = coeff
            in_span += abs(coeff) ** 2
        if 1.0 - in_span >= BRANCH_TOL:
            raise RecoverySpanError(f"residual norm {1.0 - in_span:.3e} outside the span")
        _, decoded = SparseState.from_unnormalized(code.message_qubits, amps)
        members.append((weight, decoded))
    return Ensemble(tuple(members))


@dataclass(frozen=True, slots=True)
class RoundtripRow:
    """One TSV row of a sweep: a decoded branch of one round trip."""

    position: int
    trial: str
    outcome: str
    probability: float
    fidelity: float


@dataclass(frozen=True)
class SweepRows:
    """The rows and the three maxima of a sweep, as tests compare them."""

    rows: tuple[RoundtripRow, ...]
    min_fidelity: float
    max_empty_probability: float
    max_probability_error: float

    @classmethod
    def of(cls, report: RoundtripReport) -> "SweepRows":
        """A report's maxima and its rows, expanded by position and then
        message: each position's form rows, each outcome read as the
        position's label of the row's rank."""
        return cls(
            tuple(
                RoundtripRow(i, trial, labels[rank], prob, fid)
                for i, form, labels in report.positions
                for trial, rank, prob, fid in report.forms[form]
            ),
            report.min_fidelity,
            report.max_empty_probability,
            report.max_probability_error,
        )


def tsv_by_rows(rows) -> str:
    """The sweep's TSV table written one row at a time, formatting every
    row's floats: what ``RoundtripReport.to_tsv`` must print."""
    lines = ["i\ttrial\toutcome_label\tbranch_probability\tfidelity"]
    for r in rows:
        lines.append(
            f"{r.position}\t{r.trial}\t{r.outcome}\t{r.probability:.12g}\t{r.fidelity:.12g}"
        )
    return "\n".join(lines) + "\n"


def roundtrip_rows_by_states(code, trials: int, seed: int) -> SweepRows:
    """``roundtrip_verify`` through the single-step functions on states.

    Every message is built and encoded first; then, position by position,
    each encoded state goes through ``delete_qubit``, ``measure``,
    ``decode_branch`` and ``fidelity``, each building and checking its own
    ``SparseState`` and ``Ensemble``.  Same messages, seeds, row order and
    error text as the compiled sweep, which must agree with it exactly: the
    first failure in row order (position, then message) is the one raised.
    """
    def messages():
        for m in range(code.dimension):
            yield f"basis-{m}", code.basis_message(m)
        yield "uniform", code.uniform_message()
        for t in range(trials):
            yield f"rand-{t}", random_message(code, random.Random(f"roundtrip:{seed}:msg:{t}"))

    encoded = [(trial, message, encode(code, message)) for trial, message in messages()]
    rows: list[RoundtripRow] = []
    min_fid, max_empty, max_prob_err = 1.0, 0.0, 0.0
    for i in range(1, code.n + 1):
        for trial, message, state in encoded:
            results = measure(code, delete_qubit(state, i))
            total = sum(o.probability for o, _ in results)
            empty = sum(o.probability for o, _ in results if o.label is None)
            outcomes = [(o, post) for o, post in results if o.label is not None]
            max_prob_err = max(max_prob_err, abs(total - 1.0))
            max_empty = max(max_empty, empty)
            for outcome, post in outcomes:
                try:
                    decoded = decode_branch(code, outcome.label, post)
                except DecodeError as exc:
                    raise DecodeError(
                        f"position {i}, message {trial}, outcome {describe(outcome)}: {exc}"
                    ) from exc
                fid = fidelity(message, decoded)
                min_fid = min(min_fid, fid)
                rows.append(RoundtripRow(i, trial, describe(outcome), outcome.probability, fid))
    return SweepRows(tuple(rows), min_fid, max_empty, max_prob_err)
