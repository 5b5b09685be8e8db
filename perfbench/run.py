"""The qdelcode benchmark: one workload run, reported as metrics.

Usage, from the root of a qdelcode source tree:

    python3 perfbench/run.py --workload check-2-8 --seed 1 --seconds 20 --trace 0

Workloads are ``check-2-8``, ``roundtrip-2-8`` and ``simulate-1-8`` (see
README.md).  The run happens in a fresh child process (``workload.py``)
that imports qdelcode from ``src/``; this process only starts it, waits for
it and turns its raw samples into metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Scratch files (family files, the traced run's spans) go under
``.perfbench-work/`` in the source tree.  Exit status: 0 when every
operation passed its correctness gate, 1 when one failed or the child
did, 2 when the tree holds no qdelcode sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def end_to_end(raw: dict, peak_rss_mb: float) -> tuple[dict, list[str]]:
    """Contract metrics and the human-readable report lines of an untraced run."""
    ops, setups = raw["op_s"], raw["setup_s"]
    p50, p90 = statistics.median(ops), percentile(ops, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    q1, _, q3 = statistics.quantiles(ops, n=4) if len(ops) > 1 else (p50, p50, p50)
    spread = f"n={len(ops)}, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"
    lines = [
        f"setup_s: {statistics.median(setups):.4f} s "
        f"(median of {len(setups)}, range {min(setups):.4f}-{max(setups):.4f} s)"
    ]
    workload = raw["workload"]
    if workload == "check-2-8":
        lines.append(f"check_s: {p50:.4f} s ({spread})")
    elif workload == "roundtrip-2-8":
        lines.append(f"roundtrip_p50_ms: {p50 * 1e3:.3f} ms ({spread})")
        lines.append(f"roundtrip_p90_ms: {p90 * 1e3:.3f} ms ({spread})")
        lines.append(
            f"branches_per_s: {raw['branches'] / raw['timed_s']:.2f} 1/s "
            f"({raw['branches']} branches in {raw['timed_s']:.2f} s)"
        )
    else:
        lines.append(f"simulate_s: {p50:.4f} s ({spread})")
    lines.append(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(raw: dict, spans_file: Path) -> tuple[dict, list[str]]:
    """Contract metrics and report lines of a traced run.

    For each phase the report sets the sum of the layers' self times
    against the untraced time: the layers account for the untraced time
    when the two differ by no more than the tracing overhead.
    """
    layers = raw["layers"]
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "ratio" if "ratio" in name or "per_" in name else "count"
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"spans written to {spans_file}"]
    for prefix, label in (("setup.", "set-up"), ("", "operation")):
        own = sorted(
            (
                (v, k) for k, v in layers.items()
                if k.endswith("_s") and v > 0 and "trace." not in k
                and k.startswith("setup.") == bool(prefix)
            ),
            reverse=True,
        )
        untraced = layers[prefix + "trace.untraced_s"]
        overhead = layers[prefix + "trace.overhead_s"]
        self_sum = sum(v for v, _ in own)
        lines.append(
            f"{label}: untraced {untraced:.4f} s, "
            f"traced {layers[prefix + 'trace.traced_s']:.4f} s, "
            f"overhead {overhead:.4f} s "
            f"(standard error {layers[prefix + 'trace.overhead_se_s']:.4f} s), "
            f"outside spans {layers[prefix + 'trace.unspanned_s']:.4f} s "
            f"(mean of {layers[prefix + 'trace.samples']})"
        )
        lines.append(
            f"  self times sum {self_sum:.4f} s, {self_sum - untraced:+.4f} s from untraced: "
            + ("within" if abs(self_sum - untraced) <= overhead else "not within")
            + " the overhead"
        )
        lines.extend(f"  {k.removeprefix(prefix)} self {v:.5f} s" for v, k in own)
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one qdelcode benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qdelcode" / "__init__.py").is_file():
        print(f"{root}: no qdelcode sources under src/qdelcode", file=sys.stderr)
        return 2
    work = root / ".perfbench-work"
    work.mkdir(exist_ok=True)
    spans_file = work / f"spans-{args.workload}.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        cmd = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", tmp, "--spans", str(spans_file),
        ]
        child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"workload {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    if child.returncode != 0:
        print(f"workload {args.workload} exited {child.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(out.splitlines()[-1])
    if not args.trace and not raw["op_s"]:
        print(f"no operation passed its gate: {raw['failed']} of {raw['attempted']} failed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if args.trace:
        metrics, lines = per_layer(raw, spans_file)
    else:
        metrics, lines = end_to_end(raw, peak_rss_mb)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"failed_ops: {raw['failed']} of {raw['attempted']} attempted")
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
