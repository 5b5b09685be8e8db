"""End-to-end checks of the command-line surface and the family file format."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdelcode import cli, quantum
from qdelcode.codes import HighRateParams, build_highrate_partition, find_params_for_rate
from qdelcode.delsets import CellDecomposition
from qdelcode.family import FamilySet
from qdelcode.partition import SEARCH_WORD_LIMIT
from qdelcode.quantum import DecodeError

from oracles import (
    SHORTEST,
    first_bit_word_refusal,
    first_word_refusal,
    write_family_file_by_json_dump,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def write_shortest(path) -> str:
    cli.write_family_file(str(path), FamilySet(SHORTEST))
    return str(path)


def test_vt_summary(capsys):
    assert cli.main(["vt", "--n", "4", "--a", "0"]) == 0
    out = capsys.readouterr().out
    assert "4 words of length 4" in out
    assert "rate: 0.5" in out
    assert "single-deletion code: yes" in out


def test_vt_prints_the_readme_block(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"\$ qdelcode vt --n 4 --a 0\n(.*?)```", readme, re.S)
    assert len(block.splitlines()) == 4
    assert cli.main(["vt", "--n", "4", "--a", "0"]) == 0
    assert capsys.readouterr().out == block


def test_vt_bound_is_met_with_equality(capsys):
    assert cli.main(["vt", "--n", "3", "--a", "0"]) == 0
    assert "cardinality bound 2^n/(n+1) = 2: met\n" in capsys.readouterr().out  # 2 words


def test_os_errors_name_their_reason(tmp_path, capsys):
    missing = tmp_path / "no" / "f.json"
    assert cli.main(["vt", "--n", "3", "--a", "0", "--out", str(missing)]) == 2
    assert capsys.readouterr().err == f"cannot write {missing}: No such file or directory\n"
    assert cli.main(["check", str(missing)]) == 2
    assert capsys.readouterr().err == f"{missing}: No such file or directory\n"


def test_vt_writes_checkable_file(tmp_path, capsys):
    out = tmp_path / "vt40.json"
    assert cli.main(["vt", "--n", "4", "--a", "0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4
    assert sorted(data["sets"][0]) == ["0000", "0110", "1001", "1111"]
    assert data["metadata"]["kind"] == "vt"
    capsys.readouterr()
    assert cli.main(["check", str(out)]) == 0


@pytest.mark.parametrize("n", ["0", "-3"])
def test_vt_rejects_lengths_below_one(capsys, n):
    assert cli.main(["vt", "--n", n, "--a", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "invalid parameters: vt_code needs n >= 1\n"
    assert captured.out == ""


def test_vt_unwritable_path(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "f.json"
    assert cli.main(["vt", "--n", "3", "--a", "0", "--out", str(missing)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_construct_and_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "hr.json"
    assert cli.main(["construct", "--E", "1", "--N", "4", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "length 12, dimension 4, rate 1/6" in stdout
    assert cli.main(["check", str(out)]) == 0
    report = capsys.readouterr().out
    assert "homogeneous: yes" in report
    assert "C1 PASS" in report and "C2 PASS" in report and "C3 PASS" in report
    assert ": 1/2" in report  # every lambda entry of this family
    assert report.strip().endswith("PASS")


def test_construct_rejects_bad_parameters(capsys):
    assert cli.main(["construct", "--E", "1", "--N", "3", "--out", "x.json"]) == 1
    assert "multiple" in capsys.readouterr().err


def test_construct_rejects_huge_exponent(tmp_path, capsys):
    """N < 2^E is named without building 2^E, which would pass the digit limit."""
    out = tmp_path / "x.json"
    assert cli.main(["construct", "--E", "100000", "--N", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "invalid parameters: N=4 must be a multiple of 2^E=2^100000\n"
    assert not out.exists()


def test_construct_output_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["construct", "--E", "2", "--N", "4", "--out", str(a)])
    cli.main(["construct", "--E", "2", "--N", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# sha256 of the family file `qdelcode construct` writes, recorded before one
# ordered coset enumeration replaced the sort-and-dedupe partition build
CONSTRUCT_GOLDEN = [
    ((1, 4), "ad9f63e170370cd21217bd1b4e96c3e6fedf69ee69f70171d50aca51cbfff40f"),
    ((2, 4), "c117d3383fa976ce1c17f47ebe9f1c7baa67b2a7308b40089bb6c498f51622e0"),
    ((1, 8), "67d737f0be9b05bc7b7b5117db2bc1fed7b7fad84be2ca67ed53af2dfa7b3ac2"),
    ((2, 8), "96d9306d2501980f84eb8e604243ccb2d8ebd37859d264d23b61f46b381ef294"),
]


@pytest.mark.parametrize("params, digest", CONSTRUCT_GOLDEN)
def test_construct_output_is_pinned(tmp_path, capsys, params, digest):
    path = tmp_path / "family.json"
    E, N = params
    assert cli.main(["construct", "--E", str(E), "--N", str(N), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_check_reports_failing_family(tmp_path, capsys):
    path = tmp_path / "bad.json"
    cli.write_family_file(str(path), FamilySet([["0000"], ["1000"]]))
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "C2 FAIL" in out
    assert out.strip().endswith("FAIL")


def test_check_parse_diagnostics(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"n": 4, "sets": [["0000"],')
    assert cli.main(["check", str(garbled)]) == 2
    assert "line 1" in capsys.readouterr().err

    badword = tmp_path / "badword.json"
    badword.write_text(json.dumps({"n": 4, "sets": [["0000"], ["01a0"]]}))
    assert cli.main(["check", str(badword)]) == 2
    assert "sets[1][0]" in capsys.readouterr().err

    shortword = tmp_path / "short.json"
    shortword.write_text(json.dumps({"n": 4, "sets": [["0000"], ["011"]]}))
    assert cli.main(["check", str(shortword)]) == 2
    assert "length 3" in capsys.readouterr().err

    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"n": 2, "sets": [["00"], ["00", "11"]]}))
    assert cli.main(["check", str(overlap)]) == 1
    assert "disjoint" in capsys.readouterr().err

    assert cli.main(["check", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("sets, err", [
    ([["000", "000", "111"], ["010"]], "sets[0][1]: word '000' repeats sets[0][0]"),
    ([["000", "111"], ["010", "101", "010", "010"]], "sets[1][2]: word '010' repeats sets[1][0]"),
])
def test_check_refuses_a_word_repeated_in_one_cell(tmp_path, capsys, sets, err):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"n": 3, "sets": sets}))
    assert cli.main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{path}: {err}\n"
    assert captured.out == ""
    # a structural error in the same file still exits 2
    path.write_text(json.dumps({"n": 3, "sets": sets, "metadata": []}))
    assert cli.main(["check", str(path)]) == 2


@pytest.mark.parametrize("sets, err", [
    ([["00"], ["00", "11"]],
     "sets[1][0]: word '00' is also in sets[0][0]; cells must be pairwise disjoint"),
    ([["00", "01"], ["10"], ["11", "01"]],
     "sets[2][1]: word '01' is also in sets[0][1]; cells must be pairwise disjoint"),
    ([["00"], [], ["11"]], "sets[1] is empty"),
    ([["00"], ["11"], []], "sets[2] is empty"),
])
def test_check_names_the_witness_of_a_cell_refusal(tmp_path, capsys, sets, err):
    """An empty cell, or a word in two cells, is refused with exit 1 and its places."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2, "sets": sets}))
    assert cli.main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{path}: {err}\n"
    assert captured.out == ""
    # a structural error in the same file still exits 2
    path.write_text(json.dumps({"n": 2, "sets": sets, "metadata": []}))
    assert cli.main(["check", str(path)]) == 2


def test_family_file_may_hold_one_bit_words(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 1, "sets": [["0"], ["1"]]}))
    family, _ = cli.read_family_file(str(path))
    assert (family.n, family.cells) == (1, (frozenset({"0"}), frozenset({"1"})))


@pytest.mark.parametrize("sets, line", [
    ([["0"], ["1"]], "C2 FAIL deleted word '' reachable from cells 0 and 1"),
    ([["0", "1"]], "C3 FAIL cell 0: word '' arises from both a 0-deletion and a 1-deletion"),
])
def test_check_names_an_empty_witness_word(tmp_path, capsys, sets, line):
    """Deleting the one bit of a length-1 word leaves the empty word, which
    the report prints as '' rather than as nothing."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 1, "sets": sets}))
    assert cli.main(["check", str(path)]) == 1
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("content, diagnostic", [
    (b"[" * 100_000, "recursion depth"),
    (b'{"n": ' + b"1" * 5000 + b"}", "digits"),
    (b'{"n": 4, "sets": [["\xff"]]}', "not UTF-8"),
    (b'{"n": true, "sets": [["0"], ["1"]]}', "'n' must be a positive integer"),
], ids=["deep-nesting", "long-integer", "not-utf8", "boolean-n"])
def test_check_rejects_unreadable_json(tmp_path, capsys, content, diagnostic):
    path = tmp_path / "family.json"
    path.write_bytes(content)
    assert cli.main(["check", str(path)]) == 2
    assert diagnostic in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
bit_words = st.text("01", min_size=1, max_size=3)
bad_n = json_values.filter(lambda v: type(v) is not int) | st.integers(max_value=0)
bad_sets = (
    json_values.filter(lambda v: not (isinstance(v, list) and all(isinstance(s, list) for s in v)))
    | st.lists(st.lists(st.text(max_size=3).filter(lambda w: w.strip("01")), min_size=1), min_size=1)
    | st.lists(st.lists(json_values.filter(lambda v: not isinstance(v, str)), min_size=1), min_size=1)
)
bad_metadata = json_values.filter(lambda v: not isinstance(v, dict))


@st.composite
def mistyped_families(draw):
    """A family-shaped object with at least one of n, sets, metadata mistyped."""
    wrong = draw(st.sets(st.sampled_from(["n", "sets", "metadata"]), min_size=1))
    fields = {
        "n": bad_n if "n" in wrong else st.integers(1, 3),
        "sets": bad_sets if "sets" in wrong else st.lists(st.lists(bit_words, max_size=3), max_size=3),
        "metadata": bad_metadata if "metadata" in wrong else st.dictionaries(st.text(max_size=3), json_values, max_size=2),
    }
    return {key: draw(value) for key, value in fields.items()}


@given(payload=json_values)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_check_fuzz_arbitrary_json(tmp_path, payload):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["check", str(path)]) in (1, 2)


@given(payload=mistyped_families())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_check_fuzz_mistyped_fields(tmp_path, payload):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["check", str(path)]) == 2


def test_simulate_shortest(tmp_path, capsys):
    path = write_shortest(tmp_path / "shortest.json")
    assert cli.main(["simulate", path, "--trials", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "i\ttrial\toutcome_label\tbranch_probability\tfidelity"
    assert len(lines) == 1 + 4 * (2 + 1 + 2) * 2
    assert "PASS" in captured.err
    assert "min fidelity: 1" in captured.err


def test_simulate_mode_exhaustive_is_the_default(tmp_path, capsys):
    """``--mode exhaustive``, the only mode, changes nothing: existing
    command lines that pass it print what the bare command prints."""
    path = write_shortest(tmp_path / "shortest.json")
    assert cli.main(["simulate", path, "--trials", "2"]) == 0
    default = capsys.readouterr()
    assert cli.main(["simulate", path, "--trials", "2", "--mode", "exhaustive"]) == 0
    assert capsys.readouterr() == default


def test_simulate_refuses_sampled_mode(tmp_path, capsys):
    path = write_shortest(tmp_path / "shortest.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", path, "--mode", "sampled"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --mode: invalid choice: 'sampled'" in captured.err


def test_simulate_seeds_with_zero_by_default(tmp_path, capsys, monkeypatch):
    """``--seed`` seeds the random messages, and the default is 0.  The
    messages are compared, not the output: on a code that passes, every
    row reads the same for every message."""
    path = write_shortest(tmp_path / "shortest.json")
    make = quantum.random_message
    runs = []
    for extra in ([], ["--seed", "0"], ["--seed", "1"]):
        built = []
        monkeypatch.setattr(quantum, "random_message", lambda *a: built.append(make(*a)) or built[-1])
        assert cli.main(["simulate", path, "--trials", "2", *extra]) == 0
        runs.append((capsys.readouterr(), [message.amplitudes for message in built]))
    (default, by_default), (zero, by_zero), (_, by_one) = runs
    assert zero == default and by_zero == by_default and len(by_default) == 2
    assert by_one != by_default


def test_simulate_accepts_zero_trials(tmp_path, capsys):
    path = write_shortest(tmp_path / "shortest.json")
    assert cli.main(["simulate", path, "--trials", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * (2 + 1) * 2


def test_simulate_rejects_negative_trials(tmp_path, capsys):
    path = write_shortest(tmp_path / "shortest.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", path, "--trials", "-3"])
    assert exc.value.code == 2
    assert "--trials: must not be negative" in capsys.readouterr().err


def test_simulate_rejects_trials_that_are_not_an_integer(tmp_path, capsys):
    path = write_shortest(tmp_path / "shortest.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", path, "--trials", "x"])
    assert exc.value.code == 2
    assert "argument --trials: not an integer: 'x'" in capsys.readouterr().err


def test_simulate_round_trip_guard(tmp_path, capsys, monkeypatch):
    path = write_shortest(tmp_path / "shortest.json")
    assert cli.main(["simulate", path, "--trials", "100000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "400000012 round trips" in captured.err  # 4 positions x (2 + 1 + 10^8) messages
    # n x (dimension + 1 + trials) = 4 x 5 round trips at --trials 2
    monkeypatch.setattr(cli, "SIMULATION_GUARD", 20)
    assert cli.main(["simulate", path, "--trials", "2"]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", path, "--trials", "3"]) == 3
    assert "24 round trips (positions x messages), above the 20 guard" in capsys.readouterr().err


def test_simulate_guards_allow_exactly_the_guard(tmp_path, capsys, monkeypatch):
    path = write_shortest(tmp_path / "shortest.json")  # 8 words, 4 x 3 round trips at --trials 0
    monkeypatch.setattr(cli, "SIMULATION_GUARD", 8)
    assert cli.main(["simulate", path, "--trials", "0"]) == 3
    assert capsys.readouterr().err.startswith("refusing to simulate: 12 round trips")
    monkeypatch.setattr(cli, "SIMULATION_GUARD", 12)
    assert cli.main(["simulate", path, "--trials", "0"]) == 0


@pytest.mark.parametrize("argv, words", [
    (["check"], ["01" * 16000]),
    (["simulate", "--trials", "0"], ["01" * 16000, "10" * 16000]),
])
def test_deletion_budget_refuses_long_alternating_words_at_once(tmp_path, capsys, argv, words):
    """An alternating 32,000-bit word has 32,000 single deletions of 31,999
    bits, past the budget: refused before any is built.  The README's
    alternating 8,000-bit word stays under it."""
    path = str(tmp_path / "long.json")
    cli.write_family_file(path, FamilySet([[w] for w in words]))
    start = time.perf_counter()
    assert cli.main([argv[0], path, *argv[1:]]) == 3
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"refusing to index the single deletions: {len(words) * 32000 * 31999} characters "
        "(runs x (n-1) over the words), above the 100000000-character budget\n"
    )
    cli._deletion_guard(FamilySet([["01" * 4000]]))  # 8,000 x 7,999 characters


def test_deletion_budget_allows_exactly_the_budget(tmp_path, capsys, monkeypatch):
    """The shortest code's 8 words have 20 runs: 60 characters of deletions."""
    path = write_shortest(tmp_path / "shortest.json")
    for argv in (["check", path], ["simulate", path, "--trials", "0"]):
        monkeypatch.setattr(cli, "DELETION_BUDGET", 59)
        assert cli.main(argv) == 3
        assert "deletions: 60 characters" in capsys.readouterr().err
        monkeypatch.setattr(cli, "DELETION_BUDGET", 60)
        assert cli.main(argv) == 0
        capsys.readouterr()


def test_simulate_refuses_broken_family(tmp_path, capsys):
    path = tmp_path / "broken.json"
    cli.write_family_file(str(path), FamilySet([["0000"], ["1000"]]))
    assert cli.main(["simulate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any simulation output
    assert "C2 FAIL" in captured.err


def test_simulate_guard(tmp_path, capsys, monkeypatch):
    path = write_shortest(tmp_path / "shortest.json")
    monkeypatch.setattr(cli, "SIMULATION_GUARD", 4)
    assert cli.main(["simulate", path]) == 3
    assert "guard" in capsys.readouterr().err


def test_rate_table_midrange(capsys):
    assert cli.main(["rate-table", "--R", "0.5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 7  # (3,16) is off the ladder, so it is appended
    assert lines[5].startswith("E=6  N=64  length=512  dimension=2^372")
    assert lines[6].startswith("E=3  N=16  length=80  ")
    assert lines[6].endswith("  <-- shortest code above 1/2")
    assert "[not desk-simulable]" in lines[2]


def test_rate_table_high_target(capsys):
    assert cli.main(["rate-table", "--R", "0.9"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 7  # sweep never passes 0.9, so one row is appended
    assert "E=19  N=524288" in lines[6]
    assert "shortest code above 9/10" in lines[6]
    assert "[not desk-simulable]" in lines[6]


def test_rate_table_marks_the_first_rate_strictly_above(capsys):
    assert cli.main(["rate-table", "--R", "1/4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("E=2  N=4  ") and "rate=1/4 (0.2500)" in lines[1]
    assert "<--" not in lines[1]  # a rate equal to the target is not above it
    assert lines[6].startswith("E=1  N=10  ")  # length 30, rate 4/15
    assert lines[6].endswith("  <-- shortest code above 1/4")
    assert sum("<--" in line for line in lines) == 1


# the six ladder rows of `rate-table`, unmarked, as every target prints them
LADDER = [
    "E=1  N=4  length=12  dimension=2^2  rate=1/6 (0.1667)",
    "E=2  N=4  length=16  dimension=2^4  rate=1/4 (0.2500)",
    "E=3  N=8  length=40  dimension=2^18  rate=9/20 (0.4500)  [not desk-simulable]",
    "E=4  N=16  length=96  dimension=2^56  rate=7/12 (0.5833)  [not desk-simulable]",
    "E=5  N=32  length=224  dimension=2^150  rate=75/112 (0.6696)  [not desk-simulable]",
    "E=6  N=64  length=512  dimension=2^372  rate=93/128 (0.7266)  [not desk-simulable]",
]

RATE_GRID = sorted(
    {Fraction(p, q) for q in range(2, 25) for p in range(1, q)}
    | {Fraction(9, 10), Fraction(999, 1000)}
)


def test_rate_table_marks_the_code_find_params_for_rate_returns(capsys):
    for target in RATE_GRID:
        assert cli.main(["rate-table", "--R", str(target)]) == 0, target
        lines = capsys.readouterr().out.splitlines()
        marker = f"  <-- shortest code above {target}"
        (marked,) = [line for line in lines if "<--" in line]
        params = find_params_for_rate(target)
        head = f"E={params.E}  N={params.N}  "
        assert marked.startswith(head) and marked.endswith(marker), target
        on_ladder = any(row.startswith(head) for row in LADDER)
        assert len(lines) == (6 if on_ladder else 7), target
        assert [line.removesuffix(marker) for line in lines[:6]] == LADDER, target


def test_rate_table_prints_the_readme_block(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"\$ qdelcode rate-table --R 0.5\n(.*?)```", readme, re.S)
    shown = [line for line in block.splitlines() if line != "..."]
    assert len(shown) >= 2 and shown[-1].endswith("  <-- shortest code above 1/2")
    assert cli.main(["rate-table", "--R", "0.5"]) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    assert all(line in printed for line in shown)  # in order: `in` consumes the iterator


def test_rate_table_marker_follows_the_guard(capsys, monkeypatch):
    assert cli.main(["rate-table", "--R", "0.5"]) == 0
    default = capsys.readouterr().out.split("\n")
    assert "[not desk-simulable]" not in default[1]  # E=2, N=4: 2^6 words
    monkeypatch.setattr(cli, "SIMULATION_GUARD", 16)
    assert cli.main(["rate-table", "--R", "0.5"]) == 0
    lowered = capsys.readouterr().out.split("\n")
    assert "[not desk-simulable]" not in lowered[0]  # E=1, N=4: 2^3 words
    assert "[not desk-simulable]" in lowered[1]


def test_rate_table_near_digit_limit(capsys):
    assert cli.main(["rate-table", "--R", "0.999"]) == 0
    last = capsys.readouterr().out.strip().split("\n")[-1]
    assert last.startswith("E=1999  N=")
    assert last.endswith("  [not desk-simulable]  <-- shortest code above 999/1000")


@pytest.mark.parametrize("target, E", [
    ("0.99999", 199999),
    ("0.9999999", 19999999),
    ("0.99986", 14284),  # 2^E fits the digit limit, the length (E+2)2^E does not
])
def test_rate_table_refuses_past_digit_limit(capsys, target, E):
    start = time.perf_counter()
    assert cli.main(["rate-table", "--R", target]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"refusing to tabulate E={E}: ")
    assert "digit limit" in err


@pytest.mark.parametrize("target", ["1e-10000000", "1e10000000", "1e99999999999999999999"])
def test_rate_table_refuses_a_huge_exponent_at_once(capsys, target):
    """Fraction would build 10^|exponent| first, seconds for 10^(10^7)."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate-table", "--R", target])
    assert time.perf_counter() - start < 0.1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "target rate's exponent passes the 4300-digit limit" in captured.err


@pytest.mark.parametrize("target, want", [
    ("0.3", "3/10"), ("1/2", "1/2"), ("3e-1", "3/10"), (" 0.25 ", "1/4"),
])
def test_rate_table_reads_ordinary_targets_as_fractions(capsys, target, want):
    assert cli.main(["rate-table", "--R", target]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f"<-- shortest code above {want}")


@pytest.mark.parametrize("target", ["0", "1"])
def test_rate_table_rejects_the_ends_of_the_interval(capsys, target):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate-table", "--R", target])
    assert exc.value.code == 2
    assert "target rate must lie strictly between 0 and 1" in capsys.readouterr().err


def test_rate_table_follows_the_interpreter_digit_limit(capsys):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert cli.main(["rate-table", "--R", "0.9995"]) == 3  # 2^3999 has 1,204 digits
        assert capsys.readouterr().err.startswith(
            "refusing to tabulate E=3999: its numbers would pass Python's 640-digit limit"
        )
        sys.set_int_max_str_digits(0)  # no limit: the table keeps the default one
        assert cli.main(["rate-table", "--R", "0.5"]) == 0
        assert cli.main(["rate-table", "--R", "0.99999"]) == 3
        assert "4300-digit limit" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(old)


def test_rate_table_rejects_bad_targets():
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate-table", "--R", "1.2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["rate-table", "--R", "zero"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate-table", "--R", "0." + "1" * 4300])  # its denominator cannot be printed
    assert exc.value.code == 2


def test_search_vt(capsys):
    assert cli.main(["search", "--source", "vt:4:0"]) == 0
    assert "none found" in capsys.readouterr().out


def test_search_highrate_finds_canonical(capsys):
    assert cli.main(["search", "--source", "highrate:1:4"]) == 0
    out = capsys.readouterr().out
    assert "homogeneous partition" in out
    canonical = "100100100100,110110110110"
    assert canonical in out


def test_search_space_separated_source(capsys):
    assert cli.main(["search", "--source", "vt 4 0"]) == 0
    assert "none found" in capsys.readouterr().out


def test_search_names_a_vt_code_as_vt_does(capsys):
    """``a`` is named modulo n+1, as ``qdelcode vt`` names the same code."""
    assert cli.main(["search", "--source", "vt:4:5"]) == 0
    assert capsys.readouterr().out == "VT_4(0): none found\n"
    assert cli.main(["vt", "--n", "4", "--a", "5"]) == 0
    assert capsys.readouterr().out.startswith("VT_4(0): ")


def test_search_guard(capsys):
    assert cli.main(["search", "--source", "vt:7:0"]) == 3
    assert "12" in capsys.readouterr().err


@pytest.mark.parametrize("argv, size", [
    (["vt", "--n", "30", "--a", "0"], "2^30"),
    (["search", "--source", "vt:22:0"], "2^22"),
    (["search", "--source", "highrate:2:16"], "2^30"),
    (["construct", "--E", "3", "--N", "16", "--out", "never-written.json"], "2^45"),
])
def test_enumeration_guards_fire_before_building(tmp_path, monkeypatch, capsys, argv, size):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 3
    assert f"{size} words, above the {cli.SIMULATION_GUARD} guard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_enumeration_guard_boundary(monkeypatch, capsys):
    monkeypatch.setattr(cli, "SIMULATION_GUARD", 16)
    assert cli.main(["vt", "--n", "4", "--a", "0"]) == 0  # 16 candidates
    assert cli.main(["vt", "--n", "5", "--a", "0"]) == 3  # 32 candidates
    assert "2^5 words, above the 16 guard" in capsys.readouterr().err


@pytest.mark.parametrize("cells", ["-1", "0", "1"])
def test_search_rejects_fewer_than_two_cells(capsys, cells):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--source", "vt:4:0", "--max-cells", cells])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --max-cells: must be at least 2" in captured.err


def test_search_max_cells_defaults_to_the_most_a_searchable_code_has():
    """Cells hold at least two words and a searched code at most
    ``SEARCH_WORD_LIMIT``, so no larger cell count can be tried."""
    args = cli.build_parser().parse_args(["search", "--source", "vt:4:0"])
    assert args.max_cells == SEARCH_WORD_LIMIT // 2 == 6


def test_search_two_cells_still_runs(capsys):
    assert cli.main(["search", "--source", "highrate:1:4", "--max-cells", "2"]) == 0
    assert capsys.readouterr().out.startswith("highrate E=1 N=4: ")


def test_search_bad_source(capsys):
    assert cli.main(["search", "--source", "steane:7"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def _decoding_fails(*args, **kwargs):
    raise DecodeError("x")


# refusals after the arguments parse: argv, the family file it reads (as
# family.json), whether decoding is made to fail, exit code and exact stderr
REFUSALS = {
    "vt-length": (["vt", "--n", "0", "--a", "0"], None, False, 1,
                  "invalid parameters: vt_code needs n >= 1\n"),
    "construct-params": (["construct", "--E", "1", "--N", "3", "--out", "x.json"], None, False, 1,
                         "invalid parameters: N=3 must be a multiple of 2^E=2\n"),
    "construct-one-cell": (
        ["construct", "--E", "1", "--N", "2", "--out", "x.json"], None, False, 1,
        "invalid parameters: dimension too small: E(N-2)=0 gives fewer than two cells\n",
    ),
    "simulate-one-cell": (["simulate", "family.json"], [["0000", "1111"]], False, 1,
                          "family cannot be simulated: the encoder needs at least two cells\n"),
    "simulate-fails-validation": (
        ["simulate", "family.json"], [["0000"], ["1000"]], False, 1,
        "family fails validation:\n"
        "  C1 FAIL label I={1},b=1: cells 0 and 1 have ratios 0/1 vs 1/1\n"
        "  C2 FAIL deleted word 000 reachable from cells 0 and 1\n"
        "  C3 PASS\n",
    ),
    "simulate-decoding": (["simulate", "family.json"], SHORTEST, True, 1, "decoding failed: x\n"),
    "search-params": (["search", "--source", "highrate:1:3"], None, False, 1,
                      "invalid parameters: N=3 must be a multiple of 2^E=2\n"),
    "search-vt-length": (["search", "--source", "vt:0:0"], None, False, 1,
                         "invalid parameters: vt_code needs n >= 1\n"),
    "search-not-an-integer": (
        ["search", "--source", "vt:x:0"], None, False, 2,
        "cannot parse source 'vt:x:0'; expected 'vt:<n>:<a>' or 'highrate:<E>:<N>'\n",
    ),
    "search-source": (
        ["search", "--source", "steane:7"], None, False, 2,
        "cannot parse source 'steane:7'; expected 'vt:<n>:<a>' or 'highrate:<E>:<N>'\n",
    ),
    "search-too-many-words": (["search", "--source", "highrate:1:20"], None, False, 3,
                              "search is limited to 12 words, code has 524288\n"),
    "vt-enumeration-guard": (["vt", "--n", "20", "--a", "0"], None, False, 3,
        "refusing to enumerate the VT_20 candidates: 2^20 words, above the 1000000 guard\n"),
    "rate-table-digit-limit": (["rate-table", "--R", "0.99999"], None, False, 3,
        "refusing to tabulate E=199999: its numbers would pass Python's 4300-digit limit\n"),
}


def test_search_refuses_a_large_high_rate_source_before_building_it(monkeypatch, capsys):
    def never(params):
        raise AssertionError(f"built the code of {params}")

    monkeypatch.setattr(cli, "highrate_code", never)
    assert cli.main(["search", "--source", "highrate:1:20"]) == 3
    assert capsys.readouterr().err == "search is limited to 12 words, code has 524288\n"


@pytest.mark.parametrize("argv, sets, decoding_fails, exit_code, stderr", REFUSALS.values(), ids=REFUSALS)
def test_refusals_are_pinned(tmp_path, monkeypatch, capsys, argv, sets, decoding_fails, exit_code, stderr):
    monkeypatch.chdir(tmp_path)
    if sets is not None:
        cli.write_family_file("family.json", FamilySet(sets))
    if decoding_fails:
        monkeypatch.setattr(cli, "roundtrip_verify", _decoding_fails)
    assert cli.main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if sets is None else ["family.json"])


# exit code and sha256 of the stdout of `qdelcode search`, recorded before
# the block pruning moved from position tuples to run masks
SEARCH_GOLDEN = [
    pytest.param(["highrate:1:4"], 0,
                 "fb1a72963f342e2e85cfb2ad0b49ad3706a4e48b561885d875e4917254b883f3",
                 id="highrate:1:4"),
    pytest.param(["highrate:1:4", "--max-cells", "2"], 0,
                 "6be51cd3ca5b4c8c32e67eae3b2a03a7e916311d6d89b442953f763c67cd34b1",
                 id="highrate:1:4-max-cells-2"),
    pytest.param(["vt:4:0"], 0,
                 "94bb35d0bcb0b0c143bcf9ace6c768cb4f087780a93d4a0ca5bcbe955587e710",
                 id="vt:4:0"),
    pytest.param(["vt:6:0"], 0,
                 "36fc9886b5a113d4104128bc4a55275442b226b4851ec781b3a064e00f57f79e",
                 id="vt:6:0"),
]


@pytest.mark.parametrize("argv, exit_code, digest", SEARCH_GOLDEN)
def test_search_output_is_pinned(capsys, argv, exit_code, digest):
    assert cli.main(["search", "--source", *argv]) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the stdout TSV of `qdelcode simulate` on freshly constructed
# families, recorded before decoding walked branch supports; the summary
# on stderr is pinned verbatim
SIMULATE_GOLDEN = [
    pytest.param((2, 4), 0,
                 "22ab6b67312c49711140f0e871c7b05695135e3d5e1fbb033734b7025b94c823", 2352, "1.11e-15",
                 id="2-4-seed-0"),
    pytest.param((1, 4), 5,
                 "e1fcf90f6cb36535f4b0f447c73399a6e678d23c446d4e5b7432afe39d568b50", 720, "4.44e-16",
                 id="1-4-seed-5"),
    # recorded before each state's checks ran in one pass
    pytest.param((1, 8), 1,
                 "69d5093d1cdc4c20d2021c0ed03a0ab64dde1681543843f88d130d753c3bb744", 4320, "1.11e-15",
                 id="1-8-seed-1"),
    # recorded before the round trips walked per-position tables; the
    # ("shortest", 3) case runs the shortest code with --trials 3, whose
    # cells have sizes 2 and 6, a path the high-rate codes never reach
    pytest.param((1, 8), 11,
                 "69d5093d1cdc4c20d2021c0ed03a0ab64dde1681543843f88d130d753c3bb744", 4320, "1.33e-15",
                 id="1-8-seed-11"),
    pytest.param(("shortest", 3), 0,
                 "60c26d14dbcc3174b517dcfa6ac54757a5b671f602328cb80390a400cdf138a9", 48, "2.22e-16",
                 id="shortest-trials-3-seed-0"),
]


@pytest.mark.parametrize("params, seed, digest, branches, prob_err", SIMULATE_GOLDEN)
def test_simulate_output_is_pinned(tmp_path, capsys, params, seed, digest, branches, prob_err):
    path = str(tmp_path / "family.json")
    extra = []
    if params[0] == "shortest":
        write_shortest(path)
        extra = ["--trials", str(params[1])]
    else:
        E, N = params
        assert cli.main(["construct", "--E", str(E), "--N", str(N), "--out", path]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", path, "--seed", str(seed), *extra]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == (
        f"branches: {branches}\nmin fidelity: 1\nmax EMPTY probability: 0\n"
        f"max outcome probability error: {prob_err}\nPASS\n"
    )


def _regrouped_1_8() -> FamilySet:
    # the (1,8) words in consecutive sorted pairs: same union, C1 fails
    words = sorted(build_highrate_partition(HighRateParams(1, 8)).words())
    return FamilySet([words[k : k + 2] for k in range(0, len(words), 2)])


CHECK_FIXTURES = {
    "1-4": lambda: build_highrate_partition(HighRateParams(1, 4)),
    "2-4": lambda: build_highrate_partition(HighRateParams(2, 4)),
    "1-8": lambda: build_highrate_partition(HighRateParams(1, 8)),
    "c1-regrouped-1-8": _regrouped_1_8,
    "c2-0000-1000": lambda: FamilySet([["0000"], ["1000"]]),
    "c3-clash": lambda: FamilySet([["001", "101"], ["111"]]),
    "union-not-sdc": lambda: FamilySet([["0000", "0001"], ["1111", "1110"]]),
    "c2-0101-1010": lambda: FamilySet([["0101"], ["1010"]]),
    "shortest": lambda: FamilySet(SHORTEST),
}

# exit code and sha256 of the stdout of `qdelcode check`, recorded before
# one deletion index replaced the separate passes
CHECK_GOLDEN = [
    ("1-4", 0,
     "a8b5bdbc9c8d6c3bf4d7ec2b165b48ebb73aa5fef28edde9ed69016f82e06968"),
    ("2-4", 0,
     "645bdbef2c71a057864f570771ce0ff5213f7a16b4c1674969d2e73fe3974dfa"),
    ("1-8", 0,
     "14cd54a2ce5d8aa71e61ad2122985d5c0c6a91d4d783abfaed3f7151383993b6"),
    ("c1-regrouped-1-8", 1,
     "412e544cf9e190c2590be1d8506b1b22373a3e2a3a401a09f3e9c6304114729b"),
    ("c2-0000-1000", 1,
     "9e13d7f85ada706b814c4cdb21c2d77ee78202ea92561585ece643e83f9fc25a"),
    ("c3-clash", 1,
     "c96ab792bc4fe209c5564eb48fef7e413458524cff08b54ad6057e26e02b16eb"),
    ("union-not-sdc", 1,
     "ca93cc3582645df7e2bd1256a507ad0edbb7182d5dfd9c2ecc5004a0466bec5a"),
    # recorded after the C2 witness became the smallest colliding word;
    # before, it named 010 or 101 depending on PYTHONHASHSEED
    ("c2-0101-1010", 1,
     "e86d274d841b7f5c91c99ac526479a2257ceead557f3fd7402c3cceb7c38391c"),
    # recorded before the walk read C1 off each cell's runs: every cell-1
    # word is reached twice, so its labels are merged runs
    ("shortest", 0,
     "2f6476949c0d3c50e26b87bd05aae20392767b9cb8335f22d16ec0c9d28f764c"),
]


@pytest.mark.parametrize("name, exit_code, digest", CHECK_GOLDEN)
def test_check_output_is_pinned(tmp_path, capsys, name, exit_code, digest):
    path = str(tmp_path / "family.json")
    cli.write_family_file(path, CHECK_FIXTURES[name]())
    assert cli.main(["check", path]) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_check_never_builds_the_label_map(tmp_path, capsys, monkeypatch):
    """``check`` reads every verdict off the walk; only the simulator
    builds the per-label map of deleted words."""

    def refuse(decomp):
        raise AssertionError("check built the per-label map")

    monkeypatch.setattr(CellDecomposition, "cells", property(refuse))
    path = str(tmp_path / "family.json")
    cli.write_family_file(path, CHECK_FIXTURES["1-8"]())
    assert cli.main(["check", path]) == 0
    digest = {name: d for name, _, d in CHECK_GOLDEN}["1-8"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, exit_code", [
    pytest.param(name, exit_code, id=name)
    for name, exit_code in [
        ("c2-0101-1010", 1), ("union-not-sdc", 1), ("c3-clash", 1), ("c1-regrouped-1-8", 1),
        ("shortest", 0),
    ]
])
def test_check_output_ignores_hash_seed(tmp_path, name, exit_code):
    path = str(tmp_path / "family.json")
    cli.write_family_file(path, CHECK_FIXTURES[name]())
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
        run = subprocess.run(
            [sys.executable, "-m", "qdelcode.cli", "check", path],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == exit_code
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_simulate_output_ignores_hash_seed(tmp_path):
    # the (2,4) family and the shortest code, whose unequal cells would
    # show a dependence on frozenset order
    families = [build_highrate_partition(HighRateParams(2, 4)), FamilySet(SHORTEST)]
    for k, family in enumerate(families):
        path = str(tmp_path / f"family-{k}.json")
        cli.write_family_file(path, family)
        outputs = set()
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
            run = subprocess.run(
                [sys.executable, "-m", "qdelcode.cli", "simulate", path],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert run.returncode == 0
            outputs.add((run.stdout, run.stderr))
        assert len(outputs) == 1


def command_argv(command: str, path: str) -> list[str]:
    return {"vt": ["vt", "--n", "4", "--a", "0"], "check": ["check", path],
            "simulate": ["simulate", path, "--trials", "1"]}[command]


@pytest.mark.parametrize("command", ["vt", "check", "simulate"])
def test_closed_pipe_exits_2_without_traceback(tmp_path, command):
    """A reader that went away is an I/O error, not a crash."""
    path = write_shortest(tmp_path / "family.json")
    argv = command_argv(command, path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "qdelcode.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("command", ["vt", "check", "simulate"])
def test_full_stdout_exits_2_with_one_line(tmp_path, command):
    """An output that cannot be written is an I/O error named on one line, not a crash."""
    path = write_shortest(tmp_path / "family.json")
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "qdelcode.cli", *command_argv(command, path)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    assert run.returncode == 2
    assert run.stderr.splitlines() == ["cannot write output: No space left on device"]


def stderr_full_argv(case: str, tmp_path) -> list[str]:
    path = write_shortest(tmp_path / "family.json")
    return {"check-missing": ["check", str(tmp_path / "missing.json")],
            "search-guard": ["search", "--source", "highrate:1:20"],
            "simulate-pass": ["simulate", path, "--trials", "1"]}[case]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("case, exit_code", [
    ("check-missing", 2), ("search-guard", 3), ("simulate-pass", 0),
])
def test_full_stderr_keeps_the_exit_code(tmp_path, case, exit_code):
    """A stderr that cannot be written drops its lines: the exit code and
    stdout are those of a run whose stderr is read."""
    argv = [sys.executable, "-m", "qdelcode.cli", *stderr_full_argv(case, tmp_path)]
    env = {**os.environ, "PYTHONPATH": SRC}
    plain = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    with open("/dev/full", "w") as full:
        run = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=full, text=True, timeout=60)
    assert plain.returncode == exit_code and plain.stderr
    assert (run.returncode, run.stdout) == (exit_code, plain.stdout)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_full_stdout_and_stderr_exit_2(tmp_path):
    argv = [sys.executable, "-m", "qdelcode.cli", *stderr_full_argv("simulate-pass", tmp_path)]
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            argv, env={**os.environ, "PYTHONPATH": SRC}, stdout=full, stderr=full, timeout=60,
        )
    assert run.returncode == 2


def _exit_code(argv: list[str]) -> int:
    """``cli.main(argv)``, with a usage error's ``SystemExit`` read as its code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_one_process_runs_each_command_as_its_own_process_does(tmp_path, capsys):
    """``main`` builds its parser once per process; every call still gets the
    exit code and output of a process of its own."""
    path = write_shortest(tmp_path / "family.json")
    runs = [
        ["vt", "--n", "4", "--a", "0"],
        ["check", path],
        ["rate-table", "--R", "0.3"],
        ["simulate", path, "--trials", "1", "--seed", "3"],
        ["search", "--source", "vt:4:0", "--max-cells", "2"],
        ["check", str(tmp_path / "missing.json")],
        ["simulate", path, "--trials", "-1"],
        ["construct", "--E", "1", "--N", "4", "--out", str(tmp_path / "c.json")],
        ["simulate", path],
        ["vt", "--n", "5", "--a", "1"],
    ]
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv in runs:
        alone = subprocess.run(
            [sys.executable, "-m", "qdelcode.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert _exit_code(argv) == alone.returncode, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (alone.stdout, alone.stderr), argv
    assert cli.build_parser() is cli.build_parser()


json_leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
metadata_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def layouts(draw) -> FamilySet:
    """A family of distinct words of one length, as one cell, as one-word
    cells or cut into cells at random places."""
    n = draw(st.integers(1, 6))
    words = draw(st.lists(st.text("01", min_size=n, max_size=n), min_size=1, max_size=40, unique=True))
    shape = draw(st.sampled_from(["one cell", "one-word cells", "cut"]))
    if shape == "one cell":
        return FamilySet([words])
    if shape == "one-word cells":
        return FamilySet([[w] for w in words])
    cuts = draw(st.sets(st.integers(1, len(words) - 1), max_size=10)) if len(words) > 1 else set()
    bounds = [0, *sorted(cuts), len(words)]
    return FamilySet([words[a:b] for a, b in zip(bounds, bounds[1:])])


@given(layouts(), st.none() | st.dictionaries(st.text(), metadata_values, max_size=4))
@example(FamilySet([["1"]]), None)
@example(FamilySet([["0"], ["1"]]), {})
@example(
    FamilySet([[format(i, "06b")] for i in range(64)]),
    {"kind": "Varšamov–Tenengolʹc", "nested": {"list": [1, "ü\n", {"deep": []}], "empty": {}}},
)
@example(build_highrate_partition(HighRateParams(2, 4)), {"kind": "highrate", "E": 2, "N": 4, "t": 1})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_family_file_bytes_match_json_dump(tmp_path, family, metadata):
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    cli.write_family_file(str(fast), family, metadata)
    write_family_file_by_json_dump(str(slow), family, metadata)
    assert fast.read_bytes() == slow.read_bytes()


not_strings = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.lists(st.text("01", max_size=3), max_size=2)
    | st.dictionaries(st.text("01", max_size=3), st.integers(), max_size=1)
)


@st.composite
def corrupted_sets(draw) -> tuple[int, list[list]]:
    """``(n, sets)``: a family of at least two distinct n-bit words in which
    one word, in the first, a middle or the last cell, is a non-string, holds
    a character other than 0/1, or has the wrong length."""
    n = draw(st.integers(1, 5))
    words = draw(st.lists(st.text("01", min_size=n, max_size=n), min_size=2, max_size=12, unique=True))
    size = draw(st.integers(1, 3))
    sets = [words[k : k + size] for k in range(0, len(words), size)]
    where = draw(st.sampled_from(["first", "middle", "last"]))
    j = {"first": 0, "middle": len(sets) // 2, "last": len(sets) - 1}[where]
    k = draw(st.integers(0, len(sets[j]) - 1))
    kind = draw(st.sampled_from(["not a string", "bad character", "wrong length"]))
    if kind == "not a string":
        bad = draw(not_strings)
    elif kind == "bad character":
        i = draw(st.integers(0, n - 1))
        char = draw(st.characters().filter(lambda c: c not in "01"))
        bad = sets[j][k][:i] + char + sets[j][k][i + 1 :]
    else:
        bad = draw(st.text("01", max_size=n + 3).filter(lambda w: len(w) != n))
    sets[j][k] = bad
    return n, sets


@given(corrupted_sets())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_words_are_refused_as_a_walk_over_every_word_would(tmp_path, case):
    """``FamilySet`` and the family-file reader check a cell at a time, yet
    name the first bad word and its place exactly as a per-word walk does."""
    n, sets = case
    with pytest.raises(ValueError) as exc:
        FamilySet(sets)
    expected = first_bit_word_refusal(sets) or "all words in a family set must have the same length"
    assert str(exc.value) == expected
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": n, "sets": sets}), encoding="utf-8")
    with pytest.raises(cli.CommandError) as exc:
        cli.read_family_file(str(path))
    assert (str(exc.value), exc.value.exit_code) == (f"{path}: {first_word_refusal(sets, n)}", 2)


@pytest.mark.parametrize("command", ["vt", "check", "simulate"])
def test_closed_stdout_keeps_stderr_and_exit_code(tmp_path, command):
    """Started with stdout closed, a command drops what it would print
    there; its stderr and exit code are those of a run whose stdout is read."""
    path = write_shortest(tmp_path / "family.json")
    argv = [sys.executable, "-m", "qdelcode.cli", *command_argv(command, path)]
    env = {**os.environ, "PYTHONPATH": SRC}
    plain = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    closed = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", *argv],
        env=env, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert plain.returncode == 0 and plain.stdout
    assert (closed.returncode, closed.stderr) == (plain.returncode, plain.stderr)


def test_simulate_under_python_O_matches_plain_run(tmp_path):
    """No check of the pipeline is an ``assert``: ``python -O`` prints the
    same bytes."""
    path = write_shortest(tmp_path / "family.json")
    env = {**os.environ, "PYTHONPATH": SRC}
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "qdelcode.cli", "simulate", path, "--trials", "2"],
            env=env, capture_output=True, timeout=60,
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0 and plain.stderr.endswith(b"PASS\n")
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode, plain.stdout, plain.stderr,
    )


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
