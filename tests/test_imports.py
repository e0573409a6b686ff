"""Every imported name is used: a dead import misstates what a module needs.
Every parameter in ``src/`` is read, or listed with the reason it is not.
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


def unused_parameters(source: str) -> list:
    """(qualified name, parameter) of each function parameter that the
    function's body never reads; ``self`` and ``cls`` are not counted, and a
    read inside a nested function counts for the enclosing one."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
                read = {n.id for stmt in child.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                found.extend((prefix + child.name, a.arg) for a in params if a.arg not in read | {"self", "cls"})
            visit(child, prefix + child.name + "." if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_checker_finds_an_unused_parameter():
    source = (
        "def f(a, b, *rest, c=d):\n    return a\n"
        "class K:\n    def g(self, x):\n        def inner(y):\n            return x\n        return inner\n"
    )
    assert unused_parameters(source) == [("K.g.inner", "y"), ("f", "b"), ("f", "c"), ("f", "rest")]


# (module, function, parameter) left unread on purpose, with the reason
UNREAD_PARAMETERS = {
    ("escape.py", "induced_analysis", "grid_size"): "perfbench passes it to every method",
    ("operators.py", "combine_branch_matrices", "sys"): "perfbench passes it",
    ("maps.py", "Weights.mass", "k"): "interface stub",
    ("maps.py", "Weights.tail", "n"): "interface stub",
    ("maps.py", "Weights.cell_index", "x"): "interface stub",
    ("maps.py", "Weights.cell_index", "cap"): "interface stub",
    ("maps.py", "ExplicitWeights.cell_index", "cap"): "a finite list ends before any cap",
    ("maps.py", "_Farey.walk", "m"): "every family has the same walk signature",
    ("maps.py", "_Pwl.walk", "m"): "every family has the same walk signature",
}


def test_every_parameter_is_read():
    sources = sorted((ROOT / "src" / "parabolic_escape").glob("*.py"))
    found = {(p.name, name, arg) for p in sources for name, arg in unused_parameters(p.read_text())}
    assert found == set(UNREAD_PARAMETERS)


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
