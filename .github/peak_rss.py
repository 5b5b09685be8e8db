"""Run one command and check its exit status and its peak resident memory.

    python3 .github/peak_rss.py --max-mb N --status S [--stdout F] [--stderr F] -- ARGV...

The command's standard output goes to F, or is discarded; its standard
error goes to F, or to this script's.  Prints the command, its exit status
and its peak RSS (the largest of any process it waited for, as
``getrusage(RUSAGE_CHILDREN)`` reports it), and exits 1 unless the command
exited with status S and its peak RSS is at most N MB.
"""

import argparse
import contextlib
import resource
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--max-mb", type=int, required=True, help="peak RSS bound in MB")
    parser.add_argument("--status", type=int, required=True, help="expected exit status")
    parser.add_argument("--stdout", help="file for the command's standard output")
    parser.add_argument("--stderr", help="file for the command's standard error")
    parser.add_argument("command", nargs="+", help="the command and its arguments, after --")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as files:
        out = files.enter_context(open(args.stdout, "wb")) if args.stdout else subprocess.DEVNULL
        err = files.enter_context(open(args.stderr, "wb")) if args.stderr else None
        status = subprocess.run(args.command, stdout=out, stderr=err).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(args.command)}: exit {status}, peak RSS {peak_mb:.0f} MB")
    failures = []
    if status != args.status:
        failures.append(f"exit {status}, expected {args.status}")
    if not peak_mb <= args.max_mb:
        failures.append(f"peak RSS {peak_mb:.0f} MB is above {args.max_mb} MB")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
