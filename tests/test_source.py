"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

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
