"""Every imported name is used: a dead import misstates what a module needs.
Each report type is built in one place, so its fields are filled in once."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for p in (ROOT / "src" / "parabolic_escape").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
FILES += sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os.path\nimport sys as system\nfrom math import pi, tau\nsystem.exit(pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def call_sites(source: str, name: str) -> int:
    """Number of calls to ``name`` (bare or as an attribute) in ``source``."""
    calls = (node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call))
    return sum(getattr(f, "id", None) == name or getattr(f, "attr", None) == name for f in calls)


def test_call_site_counter():
    source = "A(1)\nm.A(2)\nB(A)\nreplace(a, x=1)\n"
    assert call_sites(source, "A") == 2
    assert call_sites(source, "replace") == 1


@pytest.mark.parametrize("name", ["EscapeReport", "InducedAnalysis"])
def test_reports_built_at_one_site(name):
    sources = (ROOT / "src" / "parabolic_escape").glob("*.py")
    assert sum(call_sites(p.read_text(), name) for p in sources) == 1
