"""Every imported name is used: a dead import misstates what a module needs.
Every parameter in ``src/`` is read, or listed with the reason it is not.
Every public name in ``src/`` has a caller, or is listed with the reason it
has none.  Each report type is built in one place, so its fields are filled
in once.  A MapSpec holds its fields only, takes no lock and hands out
read-only arrays; a record freezes its own copy of each array it is handed.
Every source parses with the grammar of the oldest Python that
pyproject.toml declares."""

import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest

import parabolic_escape
from parabolic_escape.maps import ExplicitWeights, MapSpec, preimage_sequence
from parabolic_escape.montecarlo import SurvivalCurve
from parabolic_escape.operators import Grid
from parabolic_escape.spectral import SpectralTriple

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
    ("escape.py", "sandwich_bounds", "grid_size"): "perfbench passes it",
    ("operators.py", "combine_branch_matrices", "sys"): "perfbench passes it",
    ("maps.py", "ExplicitWeights.cell_index", "cap"): "a finite list ends before any cap",
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


def test_escape_forms_no_weighted_sum_of_pieces():
    # N_t, its masses and the unit equation live in collocation alone
    source = (ROOT / "src" / "parabolic_escape" / "escape.py").read_text()
    assert call_sites(source, "tensordot") == call_sites(source, "leading_pair") == 0


def public_definitions(source: str) -> list:
    """Qualified names of the public top-level functions and classes of
    ``source``, and of the public methods of those classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{f.name}" for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def names_read(source: str) -> set:
    """Every identifier of a Name node and every attribute of an Attribute node."""
    nodes = list(ast.walk(ast.parse(source)))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def string_constants(source: str) -> set:
    return {n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def uncalled(definitions: list, read: set) -> list:
    """The qualified names whose last part is not in ``read``."""
    return sorted(q for q in definitions if q.rsplit(".", 1)[-1] not in read)


def test_checker_finds_an_uncalled_public_name():
    source = (
        "def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
        "class K:\n    def method(self):\n        pass\n    def spare(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "used()\nK().method()\n"
    )
    defined = public_definitions(source)
    assert defined == ["used", "unused", "K", "K.method", "K.spare"]
    assert uncalled(defined, names_read(source)) == ["K.spare", "unused"]
    # a benchmark that names its targets by string calls them too
    assert uncalled(defined, names_read(source) | string_constants('TARGETS = (("m", "unused"),)')) == ["K.spare"]


# public names that nothing in src/ or perfbench/ calls, kept on purpose, with the reason
UNCALLED_PUBLIC = {
    "escape.escape_rate_original": "the original-map rate that acceptance test 1 checks",
    "induced.forward_jump": "the round-trip oracle |G(zeta_n(x)) - x|",
    "induced.branch_weight_sums": "the summability diagnostic of the induced potential",
    "operators.pwl_exact_matrix": "the exact oracle of the pwl family",
    "maps.validate_hypotheses": "documented in the README",
    "maps.MapSpec.pomeau_manneville": "one constructor per map family",
}


def test_every_public_name_has_a_caller():
    sources = sorted((ROOT / "src" / "parabolic_escape").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(names_read(p.read_text()) for p in sources + bench),
                       *(string_constants(p.read_text()) for p in bench))
    defined = [f"{p.stem}.{q}" for p in sources if p.name != "__init__.py" for q in public_definitions(p.read_text())]
    assert uncalled(defined, read) == sorted(UNCALLED_PUBLIC)


def test_every_exported_name_resolves():
    missing = [name for name in parabolic_escape.__all__ if not hasattr(parabolic_escape, name)]
    assert missing == []
    assert len(set(parabolic_escape.__all__)) == len(parabolic_escape.__all__)


def python_floor() -> tuple:
    """(major, minor) of the ``requires-python = ">=X.Y"`` line of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    return int(found[1]), int(found[2])


def test_every_source_parses_at_the_declared_python_floor():
    # the grammar of the oldest Python the package claims; a newer construct
    # (``except*`` is 3.11) would fail only on the interpreter it excludes
    floor = python_floor()
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def imported_modules(source: str) -> set:
    """Top-level names of the modules that ``source`` imports."""
    nodes = list(ast.walk(ast.parse(source)))
    found = {a.name.split(".")[0] for n in nodes if isinstance(n, ast.Import) for a in n.names}
    return found | {n.module.split(".")[0] for n in nodes if isinstance(n, ast.ImportFrom) and n.module}


@pytest.mark.parametrize("m", [
    MapSpec.lsv(0.5), MapSpec.pomeau_manneville(2.0), MapSpec.farey(), MapSpec.pwl(0.5),
    MapSpec.pwl(1.0, ExplicitWeights((0.5, 0.3, 0.2))),
], ids=lambda m: m.family)
def test_map_spec_is_immutable_and_hands_out_read_only_arrays(m):
    # the chain is a function of the map: nothing to guard with a lock, no
    # attribute beyond the fields, and no array a caller could write into the
    # shared memo of heads, cuts and series through
    assert "threading" not in imported_modules((ROOT / "src" / "parabolic_escape" / "maps.py").read_text())
    assert set(vars(m)) == {f.name for f in dataclasses.fields(MapSpec)}
    held = [v for part in (m.branches, m.weights) if part is not None for v in vars(part).values()]
    arrays = [v for v in held if isinstance(v, np.ndarray)]
    top = getattr(m.weights, "kmax", None)  # a short explicit list ends early, with its tails held
    assert len(arrays) == 4 if m.family in ("pm", "lsv") else len(arrays) == (top is not None)
    top = top or 300
    arrays += [preimage_sequence(m, N).values for N in (1, 2, min(40, top), top)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = a.copy()


def test_records_freeze_a_copy_of_the_callers_arrays():
    nodes = np.linspace(0.0, 1.0, 5)
    grid = Grid(nodes)
    h, nu = np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 0.25)
    triple = SpectralTriple(0.5, h, nu, grid)
    n_values, survivors = np.arange(1, 4), np.array([90, 80, 70])
    curve = SurvivalCurve(n_values, survivors, 100, 0, 0.1)
    for given, held in ((nodes, grid.nodes), (h, triple.eigenfunction), (nu, triple.eigenmeasure),
                        (n_values, curve.n_values), (survivors, curve.survivors)):
        before = held.copy()
        given[1] += 1  # the caller's array stays writable
        assert np.array_equal(held, before)
        assert not held.flags.writeable
