"""Run the benchmark twice over ten seeds, and once traced, and report.

Usage, from the root of a qdelcode source tree:

    python3 perfbench/prove.py --out perfbench/baseline.json

Runs ``BENCHMARK.json``'s command on every workload with seeds 1..10,
cycling through the workloads so that a slow spell of the machine lands
on every workload alike, and then runs the same set a second time.  For
each set and end-to-end metric it prints the median of the ten runs and
the spread, the distance between the first and third quartile as a
share of the median, next to the metric's bound; and the shift of the
second set's median from the first's, as a share of the first.

Then it runs every workload once traced (seed 1) and prints, for the
set-up and the operation, the untraced and traced time, the tracing
overhead, the time outside every span and the sum of the layers' self
times, and whether that sum is within the overhead of the untraced time.

``--out`` writes all of it, every run's values and the environment
(Python, commit, CPU count) as JSON.  One call takes about 50 minutes on
a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)
SETS = 2
TRACED_SEED = 1


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def one_set(bench: dict, workloads: list[str]) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            result = run(bench, workload, seed, 0)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
    out = {}
    for workload, results in runs.items():
        out[workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            out[workload]["metrics"][metric] = {
                "unit": first["unit"], **spread(values), "values": values
            }
    return out


def traced(bench: dict, workload: str) -> dict:
    """The tracing figures of one traced run, per phase."""
    layers = {k: v["value"] for k, v in run(bench, workload, TRACED_SEED, 1)["metrics"].items()}
    out = {}
    for phase, prefix in (("setup", "setup."), ("op", "")):
        figures = {
            key: layers[prefix + "trace." + key]
            for key in (
                "untraced_s", "traced_s", "overhead_s", "overhead_se_s", "unspanned_s", "samples"
            )
        }
        figures["self_sum_s"] = sum(
            v for k, v in layers.items()
            if k.endswith("_s") and "trace." not in k and k.startswith("setup.") == bool(prefix)
        )
        gap = figures["self_sum_s"] - figures["untraced_s"]
        figures["self_sum_minus_untraced_s"] = gap
        figures["within_overhead"] = abs(gap) <= figures["overhead_s"]
        out[phase] = figures
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "sets": [],
        "shift": {},
        "traced_seed": TRACED_SEED,
        "traced": {},
    }
    for _ in range(SETS):
        report["sets"].append(one_set(bench, workloads))
    first, last = report["sets"][0], report["sets"][-1]
    for workload in workloads:
        shifts = report["shift"][workload] = {}
        for metric, bound in bounds.items():
            spreads = "  ".join(
                f"spread {s[workload]['metrics'][metric]['spread']:.3f}" for s in report["sets"]
            )
            a = first[workload]["metrics"][metric]["median"]
            b = last[workload]["metrics"][metric]["median"]
            shifts[metric] = (b - a) / a
            print(
                f"{workload:14} {metric:12} median {a:12.5g}  {spreads}  "
                f"shift {shifts[metric]:+.3f}  bound {bound}"
            )
        print(f"{workload:14} failed_ops " + ", ".join(
            f"{s[workload]['failed']} of {s[workload]['attempted']}" for s in report["sets"]
        ) + " attempted")
    for workload in workloads:
        report["traced"][workload] = figures = traced(bench, workload)
        for phase, f in figures.items():
            print(
                f"{workload:14} traced {phase:5} untraced {f['untraced_s']:.4f} s  "
                f"self sum {f['self_sum_s']:.4f} s  overhead {f['overhead_s']:+.4f} s "
                f"(se {f['overhead_se_s']:.4f} s)  "
                f"outside spans {f['unspanned_s']:.4f} s  "
                + ("within" if f["within_overhead"] else "not within") + " the overhead"
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
