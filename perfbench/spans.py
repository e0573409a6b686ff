"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``parabolic_escape`` module that binds it, so calls from one layer into
another are caught as well as calls from the benchmark.  ``restore`` puts the
originals back.  A span records its name, start, end, parent and thread; spans
stay in memory until ``take`` hands them over.  Counts are read from returned
values, never from timers.

Spans started in a worker thread have no parent: the thread pool does not say
which span submitted the work.  Self times therefore add up over threads and
can exceed the wall time of a pass that runs threads.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np

PACKAGE = "parabolic_escape"
LAYERS = ("maps", "roots", "induced", "operators", "spectral", "escape", "montecarlo")


def _size(result, args, kwargs) -> int:
    return int(np.size(result))


def _branch_points(result, args, kwargs) -> int:
    return int(np.size(result[0]))


def _pieces(result, args, kwargs) -> tuple:
    system, grid = args[0], args[1]
    # (system, grid) by value: the ideal is one build of the pieces per pair
    key = (system.map.family, system.map.s, system.branch_count,
           hashlib.blake2b(np.ascontiguousarray(grid.nodes).tobytes(), digest_size=16).digest())
    return (sum(p.nnz for p in result), key)


def _nnz(result, args, kwargs) -> int:
    return int(result.matrix.nnz)


def _cells(result, args, kwargs) -> int:
    return int(result.n_cells)


def _eigen(result, args, kwargs) -> tuple:
    st = result.stats
    return (st["iterations"], st["pruned_cells"], st["transient_cells"], len(result.eigenfunction))


def _survivors(result, args, kwargs) -> int:
    return int(result.survivors.sum())


# (module, function, measure): the span is named "<module>.<function>"
TARGETS = (
    ("roots", "solve_monotone", _size),
    ("maps", "left_inverse", _size),
    ("maps", "right_inverse", _size),
    ("maps", "preimage_sequence", None),
    ("maps", "eval_map", _size),
    ("induced", "zeta_and_log_weight", _branch_points),
    ("operators", "markov_grid", _cells),
    ("operators", "hole_grid", _cells),
    ("operators", "induced_branch_matrices", _pieces),
    ("operators", "combine_branch_matrices", None),
    ("operators", "assemble_ulam_open", _nnz),
    ("spectral", "leading_eigen", _eigen),
    ("spectral", "cylinder_masses", None),
    ("spectral", "invariant_function", None),
    ("spectral", "invariant_mass", None),
    ("escape", "compute_escape", None),
    ("escape", "sandwich_bounds", None),
    ("escape", "induced_analysis", None),
    ("escape", "_bracket_and_solve", None),
    ("montecarlo", "survival_curve", _survivors),
    ("montecarlo", "mc_escape_rate", None),
)


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    thread: int
    name: str
    start: float
    end: float
    info: object


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = None
                if returned and measure is not None:
                    try:
                        info = measure(result, args, kwargs)
                    except Exception:  # noqa: BLE001 - a changed return type loses the count, not the call
                        pass
                # list.append is atomic, so worker threads may record spans too
                spans.append(Span(sid, parent, threading.get_ident(), name, start, end, info))

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at every module of the package that binds it.
        Targets missing from the library are listed in ``absent``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.absent = []
        for mod_name, attr, measure in targets:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------

COUNT, SECONDS, RATIO, RATE = "count", "s", "ratio", "1/s"


def pass_metrics(spans: list, pass_s: float, main_thread: int) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    span_of = {}
    for sp in spans:
        by_name[sp.name].append(sp)
        span_of[sp.sid] = sp
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def secs(*names):
        return sum(sp.end - sp.start for n in names for sp in by_name[n])

    def total(name, pick=lambda info: info):
        return sum(pick(sp.info) for sp in by_name[name] if sp.info is not None)

    def has_ancestor(sp, name):
        while sp is not None and sp.parent is not None:
            sp = span_of.get(sp.parent)
            if sp is not None and sp.name == name:
                return True
        return False

    self_by_layer = defaultdict(float)
    for sp in spans:
        self_by_layer[sp.name.split(".")[0]] += (sp.end - sp.start) - child_time[sp.sid]
    outside = pass_s - sum(sp.end - sp.start for sp in spans if sp.parent is None and sp.thread == main_thread)

    pieces_calls = calls("operators.induced_branch_matrices")
    pieces_pairs = {sp.info[1] for sp in by_name["operators.induced_branch_matrices"] if sp.info is not None}
    eigen = [sp.info for sp in by_name["spectral.leading_eigen"] if sp.info is not None]
    eigen_cells = sum(e[3] for e in eigen)
    pruned = sum(e[1] for e in eigen)
    def outermost(name):
        return sum(1 for sp in by_name[name]
                   if not any(has_ancestor(sp, a) for a in ("escape.compute_escape", "escape.sandwich_bounds")))

    # a rate is what a caller asked for: one per outermost compute_escape, two
    # per outermost sandwich_bounds (its lower and upper Markov rates)
    rates = outermost("escape.compute_escape") + 2 * outermost("escape.sandwich_bounds")
    curve_s = secs("montecarlo.survival_curve")
    steps = total("montecarlo.survival_curve")

    m = {
        "roots.solve_calls": (calls("roots.solve_monotone"), COUNT),
        "roots.solve_points": (total("roots.solve_monotone"), COUNT),
        "roots.solve_s": (secs("roots.solve_monotone"), SECONDS),
        "maps.inverse_calls": (calls("maps.left_inverse", "maps.right_inverse"), COUNT),
        "maps.inverse_points": (total("maps.left_inverse") + total("maps.right_inverse"), COUNT),
        "maps.inverse_s": (secs("maps.left_inverse", "maps.right_inverse"), SECONDS),
        "maps.preimage_s": (secs("maps.preimage_sequence"), SECONDS),
        "maps.eval_points": (total("maps.eval_map"), COUNT),
        "maps.eval_s": (secs("maps.eval_map"), SECONDS),
        "induced.branch_evals": (calls("induced.zeta_and_log_weight"), COUNT),
        "induced.branch_points": (total("induced.zeta_and_log_weight"), COUNT),
        "induced.branch_s": (secs("induced.zeta_and_log_weight"), SECONDS),
        "operators.grid_s": (secs("operators.markov_grid", "operators.hole_grid"), SECONDS),
        "operators.grid_cells": (total("operators.markov_grid") + total("operators.hole_grid"), COUNT),
        "operators.pieces_calls": (pieces_calls, COUNT),
        "operators.pieces_s": (secs("operators.induced_branch_matrices"), SECONDS),
        "operators.pieces_nnz": (total("operators.induced_branch_matrices", lambda i: i[0]), COUNT),
        "operators.pieces_per_rate": (pieces_calls / len(pieces_pairs) if pieces_pairs else 0.0, RATIO),
        "operators.combine_calls": (calls("operators.combine_branch_matrices"), COUNT),
        "operators.combine_s": (secs("operators.combine_branch_matrices"), SECONDS),
        "operators.ulam_s": (secs("operators.assemble_ulam_open"), SECONDS),
        "operators.ulam_nnz": (total("operators.assemble_ulam_open"), COUNT),
        "spectral.eigen_calls": (calls("spectral.leading_eigen"), COUNT),
        "spectral.eigen_s": (secs("spectral.leading_eigen"), SECONDS),
        "spectral.power_iters": (sum(e[0] for e in eigen), COUNT),
        "spectral.pruned_cells": (pruned, COUNT),
        "spectral.transient_cells": (sum(e[2] for e in eigen), COUNT),
        "spectral.pruned_frac": (pruned / eigen_cells if eigen_cells else 0.0, RATIO),
        "spectral.masses_s": (secs("spectral.cylinder_masses"), SECONDS),
        "spectral.invariant_s": (secs("spectral.invariant_function"), SECONDS),
        "escape.rates": (rates, COUNT),
        "escape.zsolve_evals": (sum(1 for sp in by_name["spectral.leading_eigen"]
                                    if has_ancestor(sp, "escape._bracket_and_solve")), COUNT),
        "escape.zsolve_s": (secs("escape._bracket_and_solve"), SECONDS),
        "montecarlo.curve_s": (curve_s, SECONDS),
        "montecarlo.fit_s": (secs("montecarlo.mc_escape_rate"), SECONDS),
        "montecarlo.point_steps": (steps, COUNT),
        "montecarlo.point_steps_per_s": (steps / curve_s if curve_s > 0 else 0.0, RATE),
        "bench.self_s": (outside, SECONDS),
        "trace.spans": (len(spans), COUNT),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer.get(layer, 0.0), SECONDS)
    return m
