"""Command-line surface: build, check, and simulate family-set files.

Family sets travel as JSON files with keys ``n`` (word length), ``sets``
(a list of lists of '0'/'1' strings; list position is the message index,
position 1 is the leftmost bit) and optional ``metadata``.  No timestamps
or host details go into the files, so identical invocations produce
byte-identical output.

Exit codes: 0 success/pass, 1 validation failure or FAIL verdict, 2 I/O
or parse error, 3 size guard exceeded.  Commands raise every refusal, as
:class:`SizeGuardError` or as :class:`CommandError` with its exit code;
only :func:`main` prints a refusal to stderr and picks its exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .bits import validate_word
from .codes import (
    ClassicalCode,
    HighRateParams,
    build_highrate_partition,
    find_params_for_rate,
    highrate_code,
    is_single_deletion_code,
    min_exponent_for_rate,
    rate,
    vt_code,
)
from .family import FamilySet
from .errors import SizeGuardError
from .partition import SEARCH_WORD_LIMIT, condition_report, guard_search_size, search_homogeneous
from .quantum import CodeInstance, CodeValidationError, DecodeError, roundtrip_verify

EXIT_PASS = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_GUARD = 3

SIMULATION_GUARD = 10**6
DELETION_BUDGET = 10**8  # characters of single deletions that check and simulate may hold


class CommandError(Exception):
    """A command refuses: :func:`main` prints the message and returns ``exit_code``."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def write_family_file(path: str, family: FamilySet, metadata: dict | None = None) -> None:
    """Write ``family`` as the bytes of ``json.dump(payload, fh, indent=2)`` and a newline.

    Words are bit strings and need no escaping, so each cell is joined in C
    and written as one piece; the file is never held as one string.
    """
    tail = ""
    if metadata:  # one level deep in the payload: its lines move two spaces in
        tail = ',\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  ")
    cells = ('",\n      "'.join(sorted(cell)) for cell in family.cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "n": {family.n},\n  "sets": [\n    [\n      "{next(cells)}')
        fh.writelines(f'"\n    ],\n    [\n      "{cell}' for cell in cells)
        fh.write(f'"\n    ]\n  ]{tail}\n}}\n')


def _write(path: str, family: FamilySet, metadata: dict) -> None:
    """Write a family file and say so; an OS error becomes a :class:`CommandError`."""
    try:
        write_family_file(path, family, metadata)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror or exc}", EXIT_IO)
    print(f"wrote {path}")


def _refuse_word(path: str, j: int, cell: list, n: int) -> None:
    """Refuse the first word of ``sets[j]`` that is no bit word of length ``n``."""
    for k, word in enumerate(cell):
        try:
            validate_word(word)
        except ValueError:
            raise CommandError(
                f"{path}: sets[{j}][{k}]: expected a string of 0/1, got {word!r}", EXIT_IO
            )
        if len(word) != n:
            raise CommandError(
                f"{path}: sets[{j}][{k}]: word {word!r} has length {len(word)}, expected n={n}",
                EXIT_IO,
            )


def read_family_file(path: str) -> tuple[FamilySet, dict]:
    """Parse and validate a family-set file.

    Structural problems (bad JSON, wrong types, non-bit words, a bad
    ``metadata``) raise with exit code 2 and a location diagnostic.  The
    cell rules are :class:`FamilySet`'s: its refusal of an empty cell, or of
    a word listed twice in one cell or in two, raises with exit code 1 and
    names the places.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CommandError(f"{path}: {exc.strerror or exc}", EXIT_IO)
    except UnicodeDecodeError as exc:
        raise CommandError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}", EXIT_IO)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CommandError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}", EXIT_IO
        )
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the recursion limit
        raise CommandError(f"{path}: {exc}", EXIT_IO)
    if not isinstance(data, dict):
        raise CommandError(f"{path}: top level must be an object", EXIT_IO)
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CommandError(f"{path}: 'n' must be a positive integer", EXIT_IO)
    sets = data.get("sets")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise CommandError(f"{path}: 'sets' must be a list of lists", EXIT_IO)
    try:
        family, refusal = FamilySet(sets), None
    except ValueError as exc:
        refusal = exc
    if refusal is not None or family.n != n:  # only then is a bad word searched for its place
        for j, cell in enumerate(sets):
            _refuse_word(path, j, cell, n)
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CommandError(f"{path}: 'metadata' must be an object", EXIT_IO)
    if refusal is not None:
        raise CommandError(f"{path}: {refusal}", EXIT_VALIDATION) from refusal
    return family, metadata


def _above_guard(exponent: int) -> bool:
    """Whether 2**exponent words pass ``SIMULATION_GUARD``."""
    # 2**exponent > SIMULATION_GUARD exactly when exponent reaches the
    # guard's bit length; comparing exponents never builds a huge power
    return exponent >= SIMULATION_GUARD.bit_length()


def _enumeration_guard(exponent: int, what: str) -> None:
    """Refuse to enumerate 2**exponent words when that passes the guard."""
    if _above_guard(exponent):
        raise SizeGuardError(
            f"refusing to enumerate {what}: 2^{exponent} words, "
            f"above the {SIMULATION_GUARD} guard"
        )


def _deletion_guard(family: FamilySet) -> None:
    """Refuse when the single deletions, runs(x) of n - 1 bits per word x, pass the budget."""
    words, n = family.words(), family.n
    if len(words) * n * (n - 1) > DELETION_BUDGET:  # else the runs cannot pass it
        estimate = sum(x.count("01") + x.count("10") + 1 for x in words) * (n - 1)
        if estimate > DELETION_BUDGET:
            raise SizeGuardError(
                f"refusing to index the single deletions: {estimate} characters "
                f"(runs x (n-1) over the words), above the {DELETION_BUDGET}-character budget"
            )


def _vt(n: int, a: int) -> tuple[str, ClassicalCode]:
    """``vt_code(n, a)`` with its name ``VT_n(a mod n+1)``, refused past the
    guard or for invalid parameters."""
    _enumeration_guard(n, f"the VT_{n} candidates")
    try:
        code = vt_code(n, a)
    except ValueError as exc:
        raise CommandError(f"invalid parameters: {exc}", EXIT_VALIDATION) from exc
    return f"VT_{n}({a % (n + 1)})", code


def _highrate_params(E: int, N: int) -> HighRateParams:
    """``HighRateParams(E, N)``, refused when invalid or when its code passes the guard."""
    try:
        params = HighRateParams(E, N)
    except ValueError as exc:
        raise CommandError(f"invalid parameters: {exc}", EXIT_VALIDATION) from exc
    _enumeration_guard(params.words_log2, "the parity-check code")
    return params


def cmd_vt(args) -> int:
    name, code = _vt(args.n, args.a)
    bound = 2**args.n / (args.n + 1)
    sdc, _ = is_single_deletion_code(code)
    print(f"{name}: {len(code.words)} words of length {args.n}")
    print(f"rate: {code.rate:.6g}")
    print(
        f"cardinality bound 2^n/(n+1) = {bound:.6g}: "
        + ("met" if len(code.words) >= bound else "not met")
    )
    print(f"single-deletion code: {'yes' if sdc else 'no'}")
    if args.out:
        _write(args.out, FamilySet([sorted(code.words)]), {"kind": "vt", "n": args.n, "a": args.a})
    return EXIT_PASS


def cmd_check(args) -> int:
    family, _ = read_family_file(args.file)
    _deletion_guard(family)
    report = condition_report(family)
    print(f"family: {family.size} cells, {len(family.words())} words of length {family.n}")
    pair = report.decomposition.collision
    suffix = "" if pair is None else f" (deletions collide for {pair[0]} and {pair[1]})"
    print(f"single-deletion code (union): {'yes' if pair is None else 'no'}{suffix}")
    sizes = [len(c) for c in family.cells]
    print(f"equal cell sizes: {'yes' if len(set(sizes)) == 1 else f'no {sorted(sizes)}'}")
    for name, check in (("run-support stable", report.stable), ("homogeneous", report.homogeneous)):
        print(f"{name}: {'yes' if check.passed else f'no, {check.witness}'}")
    for line in report.lines():
        print(line)
    if report.ratios is not None:
        print("lambda table:")
        for label in sorted(report.ratios):
            print(f"  {label}: {report.ratios[label]}")
    print("PASS" if report.all_passed else "FAIL")
    return EXIT_PASS if report.all_passed else EXIT_VALIDATION


def cmd_construct(args) -> int:
    params = _highrate_params(args.E, args.N)
    try:
        family = build_highrate_partition(params)
    except ValueError as exc:  # fewer than two cells
        raise CommandError(f"invalid parameters: {exc}", EXIT_VALIDATION) from exc
    r = rate(params)
    print(
        f"length {params.bit_length}, dimension {family.size}, rate {r} = {float(r):.6g}"
    )
    _write(args.out, family, {"kind": "highrate", "E": args.E, "N": args.N, "t": 1})
    return EXIT_PASS


def cmd_simulate(args) -> int:
    family, _ = read_family_file(args.file)
    total = len(family.words())
    if total > SIMULATION_GUARD:
        raise SizeGuardError(
            f"refusing to simulate: encoded states span {total} basis words, "
            f"above the {SIMULATION_GUARD} guard"
        )
    # one round trip per deletion position and message: every basis
    # message, the uniform one and the random trials
    round_trips = family.n * (family.size + 1 + args.trials)
    if round_trips > SIMULATION_GUARD:
        raise SizeGuardError(
            f"refusing to simulate: {round_trips} round trips (positions x messages), "
            f"above the {SIMULATION_GUARD} guard"
        )
    _deletion_guard(family)
    try:
        code = CodeInstance(family)
    except CodeValidationError as exc:
        raise CommandError(str(exc), EXIT_VALIDATION) from exc
    except ValueError as exc:
        raise CommandError(f"family cannot be simulated: {exc}", EXIT_VALIDATION) from exc
    try:
        report = roundtrip_verify(code, trials=args.trials, seed=args.seed)
    except DecodeError as exc:
        raise CommandError(f"decoding failed: {exc}", EXIT_VALIDATION) from exc
    print(report.to_tsv(), end="", flush=True)  # dropped when stdout is closed
    _note(
        f"branches: {report.branches}\n"
        f"min fidelity: {report.min_fidelity:.12g}\n"
        f"max EMPTY probability: {report.max_empty_probability:.3g}\n"
        f"max outcome probability error: {report.max_probability_error:.3g}\n"
        + ("PASS" if report.passed else "FAIL")
    )
    return EXIT_PASS if report.passed else EXIT_VALIDATION


def _smallest_legal_n(E: int) -> int:
    # the smallest multiple of 2^E with at least two cells, E(N-2) >= 1
    return 4 if E == 1 else 2**E


def _table_row(params: HighRateParams) -> str:
    r = rate(params)
    row = (
        f"E={params.E}  N={params.N}  length={params.bit_length}  "
        f"dimension=2^{params.dimension_log2}  rate={r} ({float(r):.4f})"
    )
    if _above_guard(params.words_log2):
        row += "  [not desk-simulable]"
    return row


def _digit_limit() -> int:
    """Python's integer digit limit, the default one when it is switched off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _printable_params_for_rate(target: Fraction) -> HighRateParams:
    """``find_params_for_rate(target)``, refused when its row cannot be printed.

    Python refuses to print an integer past its digit limit.  Every number
    in a row is at most the length (E+2)N >= 2^E, so the smallest usable E
    is checked before the search builds 2^E, and the length after it.
    """
    digits = _digit_limit()
    limit = 10**digits
    E = min_exponent_for_rate(target)
    if E < limit.bit_length():  # 2^E < 10^digits
        params = find_params_for_rate(target)
        if params.bit_length < limit:
            return params
        E = params.E
    raise SizeGuardError(
        f"refusing to tabulate E={E}: its numbers would pass Python's {digits}-digit limit"
    )


def cmd_rate_table(args) -> int:
    """Print the ladder (E = 1..6, each at its smallest legal N) and mark the
    code :func:`find_params_for_rate` returns, appended when it is off the ladder."""
    target: Fraction = args.R
    shortest = _printable_params_for_rate(target)
    rows = [HighRateParams(E, _smallest_legal_n(E)) for E in range(1, 7)]
    if shortest not in rows:
        rows.append(shortest)
    for params in rows:
        marker = f"  <-- shortest code above {target}" if params == shortest else ""
        print(_table_row(params) + marker)
    return EXIT_PASS


def _parse_source(text: str) -> tuple[str, ClassicalCode]:
    """The code that ``--source`` names; text that does not parse exits 2.

    A high-rate code too large to search is refused before it is built."""
    kind, *fields = text.replace(":", " ").split() or [""]
    try:
        x, y = map(int, fields)
    except ValueError:  # not two integers
        kind = ""
    if kind == "vt":
        return _vt(x, y)
    if kind == "highrate":
        params = _highrate_params(x, y)
        guard_search_size(2**params.words_log2)
        return f"highrate E={x} N={y}", highrate_code(params)
    raise CommandError(
        f"cannot parse source {text!r}; expected 'vt:<n>:<a>' or 'highrate:<E>:<N>'", EXIT_IO
    )


def cmd_search(args) -> int:
    desc, code = _parse_source(args.source)
    found = search_homogeneous(code, args.max_cells)
    if not found:
        print(f"{desc}: none found")
        return EXIT_PASS
    print(f"{desc}: {len(found)} homogeneous partition(s)")
    for fam in found:
        print("  " + " | ".join(",".join(sorted(cell)) for cell in fam.cells))
    return EXIT_PASS


def _rate_argument(text: str) -> Fraction:
    # Fraction builds 10^|exponent| for a decimal, so the exponent is bounded
    # first: past the digit limit, 1/10^k could not be printed anyway
    try:
        exponent = abs(Decimal(text).adjusted())
    except InvalidOperation:  # p/q or not a number, or an exponent past Decimal's range
        exponent = math.inf
        try:
            float(text)  # reads every decimal, so then the exponent is at fault
        except ValueError:
            exponent = 0  # Fraction reads p/q in linear time and refuses the rest
    if exponent > (digits := _digit_limit()):
        raise argparse.ArgumentTypeError(f"target rate's exponent passes the {digits}-digit limit")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("target rate must lie strictly between 0 and 1")
    try:
        str(value)  # the table prints the target
    except ValueError as exc:  # past Python's integer digit limit
        raise argparse.ArgumentTypeError(f"target rate has too many digits: {exc}")
    return value


def _integer_at_least(low: int, reason: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(reason)
        return value

    return parse


_count_argument = _integer_at_least(0, "must not be negative")
_cells_argument = _integer_at_least(2, "must be at least 2: a family needs two cells")


@functools.cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdelcode",
        description="Construct, check, and simulate quantum single-deletion codes "
        "built from partitioned classical deletion codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vt", help="build a VT code and report its basic facts")
    p.add_argument("--n", type=int, required=True, help="word length (>= 1)")
    p.add_argument("--a", type=int, required=True, help="checksum residue mod n+1")
    p.add_argument("--out", help="write the code as a one-set family file")
    p.set_defaults(func=cmd_vt)

    p = sub.add_parser("check", help="validate a family file and report all conditions")
    p.add_argument("file", help="family-set JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build the high-rate partition for (E, N)")
    p.add_argument("--E", type=int, required=True, help="bits per symbol")
    p.add_argument("--N", type=int, required=True, help="symbols per codeword (multiple of 2^E)")
    p.add_argument("--out", required=True, help="output family file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="round-trip a family file through the deletion channel")
    p.add_argument("file", help="family-set JSON file")
    p.add_argument(
        "--trials", type=_count_argument, default=25, help="random messages per position"
    )
    p.add_argument("--seed", type=int, default=0, help="seed of the random messages")
    p.add_argument(
        "--mode", choices=("exhaustive",),
        help="exhaustive is the only mode: every branch is decoded; the flag stays only so"
        " that existing command lines keep running",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rate-table", help="tabulate achievable rates against a target")
    p.add_argument("--R", type=_rate_argument, required=True, help="target rate in (0, 1)")
    p.set_defaults(func=cmd_rate_table)

    p = sub.add_parser("search", help="enumerate homogeneous partitions of a small code")
    p.add_argument(
        "--source",
        required=True,
        help="code to search: 'vt:<n>:<a>' or 'highrate:<E>:<N>'",
    )
    p.add_argument(
        "--max-cells", type=_cells_argument, default=SEARCH_WORD_LIMIT // 2,
        help=f"largest cell count to try (>= 2); default {SEARCH_WORD_LIMIT // 2}, as search takes"
        f" at most {SEARCH_WORD_LIMIT} words and a cell holds at least 2",
    )
    p.set_defaults(func=cmd_search)
    return parser


def _to_null(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so that what it still
    buffers is dropped and the interpreter's flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _note(text: str) -> None:
    """Print ``text`` to stderr; a stderr that cannot be written drops it, so
    the exit code stays the command's own."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        _to_null(sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()
    except CommandError as exc:
        _note(str(exc))
        return exc.exit_code
    except SizeGuardError as exc:
        _note(str(exc))
        return EXIT_GUARD
    except OSError as exc:
        # commands turn their file errors into CommandError, and stderr drops
        # its own, so stdout failed: its reader is gone or its device is full
        if not isinstance(exc, BrokenPipeError):
            _note(f"cannot write output: {exc.strerror or exc}")
        _to_null(sys.stdout)
        return EXIT_IO
    return code


if __name__ == "__main__":
    raise SystemExit(main())
