"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this file as a fresh child process for every run, so
that peak RSS belongs to this workload alone.  The run has three rounds.
Each round sets up the inputs (several times when set-up is quick), then
repeats the workload's operation for a third of ``--seconds``.  The median
set-up time is reported; spreading the set-ups over the run keeps one slow
spell of the machine from swaying all of them.  Every operation goes
through a correctness gate; an operation that fails the gate or raises is
counted as failed and its time is dropped.  The raw samples go to stdout
as one JSON line.

With ``--trace 1`` every set-up and operation runs twice on the same
input, once untraced and once inside a :class:`tracing.Tracer`, in
alternating order.  The traced copies give per-layer self times and
counts; the difference between the copies is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from qdelcode import cli, quantum

import tracing

FIDELITY_TOL = 1e-9
MAX_TIMED_S = 120.0  # stop short of min_ops rather than overrun the run's time limit
ROUNDS = 3
SETUP_MIN_S = 4.0  # over all rounds
SETUP_MAX_REPS = 100  # per round
MIN_TRACED_PAIRS = 2
TRACED_SETUPS = 3

COUNTED = (
    "codes.words",
    "delsets.cell_decomposition_calls",
    "delsets.deleted_words",
    "delsets.labels",
    "bits.delete_at_calls",
    "quantum.branches",
    "cli.tsv_bytes",
)
# Layers that no set-up runs; the set-up phase does not report them.
OP_ONLY_LAYERS = (
    "quantum.encode", "quantum.delete_qubit", "quantum.measure", "quantum.decode",
    "quantum.fidelity", "quantum.roundtrip_verify", "quantum.branches",
    "quantum.max_support", "cli.to_tsv", "cli.tsv_bytes",
)

CHECK_HEADER = "family: 4096 cells, 16384 words of length 32"
TSV_HEADER = "i\ttrial\toutcome_label\tbranch_probability\tfidelity"


class SetupError(Exception):
    """Set-up produced something other than the expected input."""


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``qdelcode <argv>`` through ``cli.main``, with stdout and stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def construct(E: int, N: int, path: Path) -> None:
    code, out, err = run_cli(["construct", "--E", str(E), "--N", str(N), "--out", str(path)])
    if code != 0 or not out.endswith(f"wrote {path}\n"):
        raise SetupError(f"construct --E {E} --N {N} exited {code}: {out}{err}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One workload: ``setup`` builds the inputs, ``run`` is the timed operation.

    ``setup`` writes the family file ``path``.  ``sample(i)`` draws the input
    of operation ``i`` (untimed), ``ok`` is the correctness gate on ``run``'s
    result, and ``release`` drops what the last set-up built.
    """

    min_ops = 3
    path: Path

    def sample(self, i: int):
        return None

    def release(self) -> None:
        pass

    def word_positions(self) -> int:
        """n·|C| of the family the set-up wrote: the deletions one pass needs."""
        family, _ = cli.read_family_file(str(self.path))
        return family.n * len(family.words())


class CheckWorkload(Workload):
    """``qdelcode check`` on the (E,N)=(2,8) family; the seed is not used."""

    def __init__(self, workdir: Path, seed: int):
        self.path = workdir / "family-2-8.json"
        self.reference: str | None = None

    def setup(self) -> None:
        construct(2, 8, self.path)

    def run(self, _):
        return run_cli(["check", str(self.path)])

    def ok(self, _, result) -> bool:
        code, out, _err = result
        lines = out.splitlines()
        if code != 0 or lines[:1] != [CHECK_HEADER] or lines[-1:] != ["PASS"]:
            return False
        if not {"C1 PASS", "C2 PASS", "C3 PASS"} <= set(lines):
            return False
        if self.reference is None:
            self.reference = digest(out)
        return digest(out) == self.reference


class RoundtripWorkload(Workload):
    """Seeded (message, position) round trips through a (2,8) ``CodeInstance``.

    Every fourth message is complex-normal random, the rest are basis
    messages; each round trip decodes every non-EMPTY branch.  ``branches``
    counts the decoded branches of the round trips that passed the gate.
    """

    min_ops = 100

    def __init__(self, workdir: Path, seed: int):
        self.path = workdir / "family-2-8.json"
        self.rng = random.Random(f"roundtrip-2-8:{seed}")
        self.code = None
        self.branches = 0

    def release(self) -> None:
        self.code = None

    def setup(self) -> None:
        construct(2, 8, self.path)
        family, _ = cli.read_family_file(str(self.path))
        self.code = quantum.CodeInstance(family)
        if (self.code.n, self.code.dimension) != (32, 4096):
            raise SetupError(f"(2,8) code has n={self.code.n}, dimension={self.code.dimension}")

    def sample(self, i: int):
        code, rng = self.code, self.rng
        position = rng.randint(1, code.n)
        if i % 4 != 3:
            return code.basis_message(rng.randrange(code.dimension)), position
        amps = {
            code.message_word(m): complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            for m in range(code.dimension)
        }
        _, message = quantum.SparseState.from_unnormalized(code.message_qubits, amps)
        return message, position

    def run(self, sample):
        message, position = sample
        code = self.code
        mixed = quantum.delete_qubit(quantum.encode(code, message), position)
        total, empty, fidelities = 0.0, 0.0, []
        for outcome, post in quantum.measure(code, mixed):
            total += outcome.probability
            if outcome.label is None:
                empty += outcome.probability
            else:
                decoded = quantum.decode_branch(code, outcome.label, post)
                fidelities.append(quantum.fidelity(message, decoded))
        return total, empty, fidelities

    def ok(self, _, result) -> bool:
        total, empty, fidelities = result
        passed = (
            abs(total - 1.0) < FIDELITY_TOL
            and empty < FIDELITY_TOL
            and bool(fidelities)
            and min(fidelities) >= 1.0 - FIDELITY_TOL
        )
        if passed:
            self.branches += len(fidelities)
        return passed


class SimulateWorkload(Workload):
    """``qdelcode simulate`` on the (1,8) family, exhaustive, seeded by the run."""

    def __init__(self, workdir: Path, seed: int):
        self.path = workdir / "family-1-8.json"
        self.seed = seed
        self.reference: str | None = None

    def setup(self) -> None:
        construct(1, 8, self.path)

    def run(self, _):
        return run_cli(
            ["simulate", str(self.path), "--seed", str(self.seed), "--mode", "exhaustive"]
        )

    def ok(self, _, result) -> bool:
        code, tsv, err = result
        lines, notes = tsv.splitlines(), err.splitlines()
        if code != 0 or notes[-1:] != ["PASS"] or lines[:1] != [TSV_HEADER]:
            return False
        rows = [line.split("\t") for line in lines[1:]]
        if f"branches: {len(rows)}" not in notes:
            return False
        if any(len(r) != 5 or r[2] == "EMPTY" or float(r[4]) < 1.0 - FIDELITY_TOL for r in rows):
            return False
        if self.reference is None:
            self.reference = digest(tsv)
        return digest(tsv) == self.reference


WORKLOADS = {
    "check-2-8": CheckWorkload,
    "roundtrip-2-8": RoundtripWorkload,
    "simulate-1-8": SimulateWorkload,
}


def attempt(workload, sample):
    """Run one operation; returns (seconds, result or None if it raised)."""
    start = perf_counter()
    try:
        result = workload.run(sample)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result = None
    return perf_counter() - start, result


def timed_setup(workload) -> float:
    workload.release()  # freeing the previous set-up's objects is not set-up work
    gc.collect()
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def measure_setup(workload, seconds: float) -> list[float]:
    """Set up at least once and until ``seconds`` of set-up have passed."""
    times = [timed_setup(workload)]
    while sum(times) < seconds and len(times) < SETUP_MAX_REPS:
        times.append(timed_setup(workload))
    return times


class Tally:
    """Gate outcomes and the times of the operations that passed."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def add(self, workload, sample, seconds: float, result) -> bool:
        self.attempted += 1
        if result is None or not workload.ok(sample, result):
            self.failed += 1
            return False
        self.times.append(seconds)
        return True


def measure_ops(workload, seconds: float, tally: Tally, min_ops: int) -> float:
    """Repeat the operation for ``seconds``, and until ``min_ops`` were attempted.

    Returns the length of the timed phase.
    """
    gc.collect()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (tally.attempted >= min_ops or elapsed >= MAX_TIMED_S):
            return elapsed
        sample = workload.sample(tally.attempted)
        tally.add(workload, sample, *attempt(workload, sample))


def measure(workload, seconds: float, tally: Tally) -> tuple[list[float], float]:
    """Set-up times and the length of the timed phases over all rounds.

    The last round goes on until the run has attempted ``min_ops`` operations.
    """
    setups: list[float] = []
    timed = 0.0
    for r in range(ROUNDS):
        setups += measure_setup(workload, SETUP_MIN_S / ROUNDS)
        min_ops = workload.min_ops if r == ROUNDS - 1 else 0
        timed += measure_ops(workload, seconds / ROUNDS, tally, min_ops)
    return setups, timed


class PhaseTrace:
    """Paired untraced/traced timings and the traced copies' spans for one phase."""

    def __init__(self, name: str):
        self.name = name
        self.units = 0
        self.untraced = 0.0
        self.traced = 0.0
        self.differences: list[float] = []
        self.self_time: dict[str, float] = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
        self.roots = 0.0
        self.counts: dict[str, int] = {}
        self.max_support = 0
        self.spans: list[list] = []

    def add(self, untraced: float, traced: float, tracer: tracing.Tracer) -> None:
        spans, counts, support = tracer.drain()
        own, roots = tracing.self_times(spans)
        for name, seconds in own.items():
            self.self_time[name] += seconds
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.max_support = max(self.max_support, support)
        self.roots += roots
        self.untraced += untraced
        self.traced += traced
        self.differences.append(traced - untraced)
        self.spans.extend([self.name, self.units, *span] for span in spans)
        self.units += 1

    def metrics(self, word_positions: int) -> dict[str, float]:
        """Per-unit means of self times and counts, keyed by metric name."""
        units = max(self.units, 1)
        counts = self.counts
        slots = counts.get("quantum.decode_slots", 0)
        out = {f"{name}_s": t / units for name, t in self.self_time.items()}
        out.update((key, counts.get(key, 0) / units) for key in COUNTED)
        out.update({
            "bits.deletions_per_word_position":
                counts.get("bits.delete_at_calls", 0) / units / word_positions,
            "quantum.decode_useful_ratio":
                counts.get("quantum.decode_nonzero", 0) / slots if slots else 0.0,
            "quantum.max_support": self.max_support,
            "trace.untraced_s": self.untraced / units,
            "trace.traced_s": self.traced / units,
            "trace.overhead_s": (self.traced - self.untraced) / units,
            "trace.overhead_se_s": (
                statistics.stdev(self.differences) / len(self.differences) ** 0.5
                if len(self.differences) > 1 else 0.0
            ),
            "trace.unspanned_s": (self.traced - self.roots) / units,
            "trace.samples": self.units,
        })
        if self.name == "op":
            return out
        return {
            f"{self.name}.{k}": v for k, v in out.items() if not k.startswith(OP_ONLY_LAYERS)
        }


def paired(fn, i: int, tracer: tracing.Tracer):
    """Call ``fn`` untraced and inside ``tracer``, untraced first on even ``i``.

    Returns the untraced result, then the traced one.
    """
    out = {}
    for traced in (False, True) if i % 2 == 0 else (True, False):
        if traced:
            with tracer:
                out[traced] = fn()
        else:
            out[traced] = fn()
    return out[False], out[True]


def trace_run(workload, seconds: float, tally: Tally) -> tuple[PhaseTrace, PhaseTrace]:
    tracer = tracing.Tracer()
    setup = PhaseTrace("setup")
    for i in range(TRACED_SETUPS):
        setup.add(*paired(lambda: timed_setup(workload), i, tracer), tracer)

    ops = PhaseTrace("op")
    gc.collect()
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (i >= MIN_TRACED_PAIRS or elapsed >= MAX_TIMED_S):
            return setup, ops
        sample = workload.sample(i)
        (untraced, plain), (traced, observed) = paired(
            lambda: attempt(workload, sample), i, tracer
        )
        passed = tally.add(workload, sample, untraced, plain)
        if tally.add(workload, sample, traced, observed) and passed:
            ops.add(untraced, traced, tracer)
        else:
            tracer.drain()
        i += 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, required=True,
                   help="file for the traced run's spans (JSON lines)")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    tally = Tally()
    result: dict = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        setup, ops = trace_run(workload, args.seconds, tally)
        word_positions = workload.word_positions()
        result["layers"] = {**ops.metrics(word_positions), **setup.metrics(word_positions)}
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in setup.spans + ops.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        result["setup_s"], result["timed_s"] = measure(workload, args.seconds, tally)
        if isinstance(workload, RoundtripWorkload):
            result["branches"] = workload.branches
    result.update(attempted=tally.attempted, failed=tally.failed, op_s=tally.times)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
