"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import re
from functools import reduce
from pathlib import Path

import qdelcode

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdelcode"


def test_no_assert_statements_in_package():
    """Invariants raise typed exceptions; ``python -O`` would strip an ``assert``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.glob("*.py"))) >= 8
    assert found == []


def test_no_private_imports_between_modules():
    """Modules share only public names; ``from .x import _y`` couples them."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").startswith("qdelcode"):
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name[0] == "_"]
    assert found == []


def test_only_cli_main_reports_failures():
    """Commands raise; only ``cli.main`` prints a refusal and returns its exit code."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for handler in ast.walk(fn):
            if isinstance(handler, ast.ExceptHandler) and any(
                isinstance(node, ast.Return)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
                for node in ast.walk(handler)
            ):
                found.append(f"{fn.name}:{handler.lineno}")
    assert found == []


def test_round_trip_rules_are_written_once():
    """The single-step functions and the sweep share one outcome rule, one
    recovery coefficient sum and one fidelity sum, and recover a branch in
    two places only: ``decode_branch`` and the sweep's ``_round_trip``."""
    text = (PACKAGE / "quantum.py").read_text(encoding="utf-8")
    assert text.count("outcome probabilities sum to") == 1
    assert text.count("scales[m] * a") == 1
    assert text.count("abs(_overlap(") == 1
    recovery = {"_coefficients", "_recovered"}
    callers = {
        fn.name: {
            node.func.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in recovery
        }
        for fn in ast.walk(ast.parse(text))
        if isinstance(fn, ast.FunctionDef)
    }
    assert {name: called for name, called in callers.items() if called} == {
        "decode_branch": recovery,
        "_round_trip": recovery,
    }


def test_channel_form_is_written_once():
    """The sweep keys its forms by the split of every codeword with the
    labels' recovery amplitudes: ``_split`` names labels by rank and
    codewords by cell, so no second per-position pass (a ``_form`` that
    rewrites the split) computes a key, and the sweep calls no other
    module function per position."""
    tree = ast.parse((PACKAGE / "quantum.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_form" not in functions
    sweep = functions["roundtrip_verify"]
    calls = [node for node in ast.walk(sweep) if isinstance(node, ast.Call)]
    called = {node.func.id for node in calls if isinstance(node.func, ast.Name) and node.func.id in functions}
    assert called == {"_messages", "_encoded", "_split", "_shape", "_round_trip"}
    assigned = {
        target.id: node.value
        for node in ast.walk(sweep)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    (key,) = (
        node.args[0]
        for node in calls
        if isinstance(node.func, ast.Attribute) and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "forms"
    )
    form = assigned[key.id]
    every = assigned[form.elts[0].id]
    assert isinstance(every, ast.Call) and every.func.id == "_split"


def test_position_table_is_the_one_codeword_record():
    """A position's table rows carry their cell, so the sweep keeps no
    parallel codeword sequences beside it and ``_split`` reads rows alone."""
    tree = ast.parse((PACKAGE / "quantum.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assigned = {
        node.id
        for node in ast.walk(functions["roundtrip_verify"])
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert {"table", "starts"} <= assigned
    assert sorted(assigned & {"codewords", "cell_of", "spans"}) == []
    assert [arg.arg for arg in functions["_split"].args.args] == ["rows", "rank"]


def test_sweep_reaches_no_single_step_name():
    """``roundtrip_verify`` shares only kernels with the single steps: the
    module-level functions it reaches, following every name and attribute
    each one references, name no state, ensemble or single-step function."""
    tree = ast.parse((PACKAGE / "quantum.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, reached = {"roundtrip_verify"}, set()
    while todo := (names & functions.keys()) - reached:
        reached |= todo
        for node in (node for name in todo for node in ast.walk(functions[name])):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    assert {"_messages", "_encoded", "_round_trip", "_checked"} <= reached
    single_steps = {
        "SparseState", "Ensemble", "MeasurementOutcome", "encode", "delete_qubit", "measure",
        "_measure_all", "decode_branch", "fidelity", "basis_message", "message_word",
    }
    assert sorted(names & single_steps) == []


def test_round_trips_decode_every_outcome():
    """The sweep and its oracle decode every kept outcome: neither keeps a
    sampled pick of one outcome."""
    for path in (PACKAGE / "quantum.py", ROOT / "tests" / "oracles.py"):
        text = path.read_text(encoding="utf-8")
        assert [word for word in ("sampled", "_pick", ":pick:") if word in text] == [], path.name


def test_state_word_rule_is_written_once():
    """Only ``SparseState.__init__`` checks a state's words; ``_checked``,
    which normalizes every state the single steps derive, does not read them."""
    text = (PACKAGE / "quantum.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    (state,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SparseState")
    (init,) = (node for node in state.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    (checked,) = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_checked")
    assert text.count("must have length") == 1
    assert "must have length" in ast.get_source_segment(text, init)
    assert "len(" not in ast.get_source_segment(text, checked)


def test_cell_rules_are_written_once():
    """One C1 rule writes the ratio witness, and ``delsets`` reads the runs
    of a word in two places only: the cell walk and ``run_support_multisets``."""
    found = {
        path.name: path.read_text(encoding="utf-8").count("have ratios")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sum(found.values()) == 1
    assert (PACKAGE / "delsets.py").read_text(encoding="utf-8").count("_RUNS.findall") <= 2


def test_family_rules_are_written_once():
    """Only ``FamilySet`` enforces the cell rules; no other module re-checks them."""
    found = {
        path.name: path.read_text(encoding="utf-8").count("cells must be pairwise disjoint")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: count for name, count in found.items() if count} == {"family.py": 1}


def test_bit_word_rule_is_written_once():
    """Only ``bits.validate_word`` writes the bit-word rule and its refusal;
    everything else that admits words calls it."""
    for needle in ('str.maketrans("", "", "01")', "not a bit"):
        found = {
            path.name: path.read_text(encoding="utf-8").count(needle)
            for path in sorted(PACKAGE.glob("*.py"))
        }
        assert {name: count for name, count in found.items() if count} == {"bits.py": 1}, needle


def test_traced_names_exist():
    """Every name the benchmark tracer patches resolves, so ``--trace 1`` keeps working."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod, attr, _, _ in tracing.TRACED:
        owner = importlib.import_module(f"qdelcode.{mod}")
        try:
            fn = reduce(getattr, attr.split("."), owner)
        except AttributeError:
            missing.append(f"{mod}.{attr}")
            continue
        assert callable(fn), f"{mod}.{attr}"
    assert len(tracing.TRACED) >= 23
    assert missing == []


def _uncalled(definitions, pattern: str) -> list[str]:
    """The definitions that nothing outside their own lines names.

    ``definitions(tree)`` yields ``(node, shown)`` for the definitions to
    check in one module's syntax tree; ``pattern`` is a regular expression
    with ``{}`` where the escaped name goes.  A definition counts as named
    when another line of the package, the benchmark or the README matches.
    """
    modules = {
        path: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    )
    unused = []
    for path, lines in modules.items():
        for node, shown in definitions(ast.parse("\n".join(lines), filename=str(path))):
            named = re.compile(pattern.format(re.escape(node.name))).search
            own = range(node.lineno - 1, node.end_lineno)
            elsewhere = (
                line
                for other, other_lines in modules.items()
                for k, line in enumerate(other_lines)
                if other != path or k not in own
            )
            if not named(outside) and not any(map(named, elsewhere)):
                unused.append(f"{path.name}:{shown}")
    assert len(modules) >= 7
    return unused


def test_public_names_have_a_non_test_caller():
    """Each public function and class is named outside its own definition by
    another line of the package, by the benchmark or by the README."""

    def public(tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                yield node, node.name

    assert _uncalled(public, r"\b{}\b") == []


def test_public_members_have_a_non_test_caller():
    """Each public method of a package class, classmethods and properties
    included, is named as ``.name`` outside its own definition by the
    package, the benchmark or the README."""

    def members(tree):
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                        yield node, f"{cls.name}.{node.name}"

    assert _uncalled(members, r"\.{}\b") == []


def test_package_namespace_is_the_documented_pipeline():
    assert sorted(qdelcode.__all__) == [
        "CodeInstance",
        "CodeValidationError",
        "DecodeError",
        "HighRateParams",
        "InvariantError",
        "build_highrate_partition",
        "roundtrip_verify",
    ]
    assert all(callable(getattr(qdelcode, name)) for name in qdelcode.__all__)


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    exec(compile(example, "README.md", "exec"), {})
