"""Command-line surface: escape, sweep, fit, sandwich, mc, verify.

A JSON config file can predefine any flag (keys use underscores, e.g.
``hole_index``); explicit flags override the file.  Every JSON report embeds
the resolved configuration so that outputs re-parse into the exact run that
produced them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import escape as esc
from . import montecarlo as mc
from . import operators as ops
from . import spectral
from .exceptions import ConfigError, EscapeError
from .induced import build_induced
from .maps import FAMILIES, ExplicitWeights, Hole, MapSpec, ZipfWeights, default_pwl_weights

COMMANDS = ("escape", "sweep", "fit", "sandwich", "mc", "verify")
METHODS = ("induced", "ulam", "montecarlo")


@dataclass
class RunConfig:
    command: str
    map: str = "lsv"
    s: float = 1.0
    pwl_weights: Optional[str] = None  # "zipf", "harmonic", or a JSON file path
    hole_index: Optional[str] = None  # "N" or "start:stop:geom[:ratio]" / "start:stop:step"
    epsilon: Optional[float] = None
    method: str = "induced"
    grid: int = 4096
    samples: int = 1_000_000
    tmax: int = 60
    window: Optional[str] = None  # "lo:hi"
    seed: int = 0
    threads: int = 1
    output: Optional[str] = None
    format: str = "json"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.map not in FAMILIES:
            raise ConfigError(f"unknown map family {self.map!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.command in ("escape", "sweep", "fit", "mc"):
            if (self.hole_index is None) == (self.epsilon is None):
                raise ConfigError("exactly one of --hole-index and --epsilon is required")
        if self.command == "sandwich" and self.epsilon is None:
            raise ConfigError("sandwich needs --epsilon")
        if not self.s > 0:
            raise ConfigError("--s must be positive")
        if self.grid < 8:
            raise ConfigError("--grid must be at least 8")
        if self.threads < 1:
            raise ConfigError("--threads must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**data)


def build_map(cfg: RunConfig) -> MapSpec:
    if cfg.map == "pm":
        return MapSpec.pomeau_manneville(cfg.s)
    if cfg.map == "lsv":
        return MapSpec.lsv(cfg.s)
    if cfg.map == "farey":
        return MapSpec.farey()
    spec_name = cfg.pwl_weights
    if spec_name is None:
        weights = default_pwl_weights(cfg.s)
    elif spec_name == "zipf":
        weights = ZipfWeights(cfg.s)
    elif spec_name == "harmonic":
        weights = default_pwl_weights(1.0)
    else:
        with open(spec_name) as fh:
            values = json.load(fh)
        weights = ExplicitWeights(tuple(values))
    return MapSpec.pwl(cfg.s, weights)


def parse_index_range(text: str) -> list:
    """Parse "N", "start:stop:step" or "start:stop:geom[:ratio]"."""
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) not in (3, 4):
        raise ConfigError(f"bad hole-index range {text!r}")
    start, stop = int(parts[0]), int(parts[1])
    if start < 1 or stop < start:
        raise ConfigError(f"bad hole-index range {text!r}")
    if parts[2] == "geom":
        ratio = float(parts[3]) if len(parts) == 4 else 2.0
        if ratio <= 1.0:
            raise ConfigError("geometric ratio must exceed 1")
        out = []
        value = float(start)
        while value <= stop + 1e-9:
            n = int(math.ceil(value))
            if not out or n > out[-1]:
                out.append(n)
            value *= ratio
        if out[-1] != stop:
            out.append(stop)
        return out
    if len(parts) != 3:
        raise ConfigError(f"bad hole-index range {text!r}")
    step = int(parts[2])
    if step < 1:
        raise ConfigError("step must be >= 1")
    return list(range(start, stop + 1, step))


def parse_window(text: Optional[str], tmax: int):
    if text is None:
        return None
    lo, _, hi = text.partition(":")
    window = (int(lo), int(hi))
    if not 1 <= window[0] < window[1] <= tmax:
        raise ConfigError(f"window {text!r} outside 1..{tmax}")
    return window


def _emit(cfg: RunConfig, payload: dict, csv_text: Optional[str]) -> None:
    if cfg.format == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _hole(cfg: RunConfig, index: Optional[int] = None) -> Hole:
    if index is not None:
        return Hole.markov(index)
    if cfg.epsilon is not None:
        return Hole.interval(cfg.epsilon)
    return Hole.markov(int(parse_index_range(cfg.hole_index)[0]))


def run(cfg: RunConfig) -> int:
    """Execute one configuration; returns a process exit status."""
    cfg.validate()
    m = build_map(cfg)
    window = parse_window(cfg.window, cfg.tmax)

    if cfg.command == "escape":
        report = esc.compute_escape(
            m,
            _hole(cfg),
            method=cfg.method,
            grid_size=cfg.grid,
            samples=cfg.samples,
            n_max=cfg.tmax,
            window=window,
            seed=cfg.seed,
            threads=cfg.threads,
        )
        payload = {"config": cfg.to_dict(), "results": [report.to_dict()]}
        _emit(cfg, payload, esc.reports_csv_text([report]))
        return 0

    if cfg.command in ("sweep", "fit"):
        if cfg.hole_index is None:
            raise ConfigError(f"{cfg.command} needs --hole-index (a value or range)")
        indices = parse_index_range(cfg.hole_index)
        result = esc.sweep(
            m,
            indices,
            method=cfg.method,
            grid_size=cfg.grid,
            samples=cfg.samples,
            n_max=cfg.tmax,
            window=window,
            seed=cfg.seed,
            threads=cfg.threads,
        )
        payload = {
            "config": cfg.to_dict(),
            "results": [r.to_dict() for r in result.reports],
            "failures": [{"N": n, "error": msg} for n, msg in result.failures],
        }
        if cfg.command == "fit":
            fit = esc.fit_scaling(result.reports, cfg.s)
            payload["fit"] = {
                "regime": fit.regime,
                "value": fit.value,
                "variation": fit.variation,
                "r_squared": fit.r_squared,
                "n_points": fit.n_points,
            }
        _emit(cfg, payload, esc.reports_csv_text(result.reports))
        return 0

    if cfg.command == "sandwich":
        bounds = esc.sandwich_bounds(m, cfg.epsilon, grid_size=cfg.grid)
        payload = {
            "config": cfg.to_dict(),
            "result": {
                "N_epsilon": bounds.index,
                "gamma_lower": bounds.gamma_lower,
                "gamma_upper": bounds.gamma_upper,
            },
        }
        csv_text = "N_epsilon,gamma_lower,gamma_upper\n" + (
            f"{bounds.index},{bounds.gamma_lower:.17g},{bounds.gamma_upper:.17g}\n"
        )
        _emit(cfg, payload, csv_text)
        return 0

    if cfg.command == "mc":
        curve = mc.survival_curve(
            m, _hole(cfg), n_max=cfg.tmax, samples=cfg.samples, seed=cfg.seed, threads=cfg.threads
        )
        est = mc.mc_escape_rate(curve, window)
        payload = {
            "config": cfg.to_dict(),
            "result": {"gamma": est.gamma, "stderr": est.stderr, "window": list(est.window)},
            "curve": [
                {"n": int(n), "survivors": int(k)}
                for n, k in zip(curve.n_values, curve.survivors)
            ],
        }
        _emit(cfg, payload, mc.curve_csv_text(curve))
        return 0

    if cfg.command == "verify":
        return run_verify(cfg)

    raise ConfigError(f"unknown command {cfg.command!r}")


# ---------------------------------------------------------------------------
# built-in oracle suite
# ---------------------------------------------------------------------------

def _verify_checks(grid_size: int):
    """(name, passed, detail) rows for the self-check table."""
    rows = []

    # exactly solvable piecewise-linear family, generic pipeline
    m = MapSpec.pwl(1.0)
    for n in (2, 5, 10):
        ia = esc.induced_analysis(m, n, exact_pwl=False, grid_size=64)
        lam_exact = n / (n + 1)
        h = sum(1.0 / k for k in range(1, n + 2))
        gamma_ratio = math.log1p(1.0 / n) * (n / (n + 1)) / (h - 1.0)
        ok = abs(ia.eigenvalue - lam_exact) <= 1e-12 and abs(ia.gamma_formula - gamma_ratio) <= 1e-10
        rows.append(
            (
                f"pwl closed forms N={n}",
                ok,
                f"lambda gap {abs(ia.eigenvalue - lam_exact):.2e}, ratio gap {abs(ia.gamma_formula - gamma_ratio):.2e}",
            )
        )

    # operator factorization identity
    pts = np.linspace(0.013, 0.987, 50)
    f = lambda x: np.asarray(x, float) ** 2  # noqa: E731
    for fam, mk in (("pwl", MapSpec.pwl(1.0)), ("lsv", MapSpec.lsv(0.5)), ("farey", MapSpec.farey())):
        sys_n = build_induced(mk, 4)
        res = ops.identity_residual(sys_n, 0.9, f, pts)
        rows.append((f"operator identity {fam}", res <= 1e-10, f"residual {res:.2e}"))

    # cross-method agreement on the exact induced route
    m = MapSpec.lsv(0.5)
    ia = esc.induced_analysis(m, 4, grid_size=grid_size)
    rep_u = esc.compute_escape(m, Hole.markov(4), method="ulam", grid_size=grid_size)
    rel = abs(ia.gamma - rep_u.gamma) / ia.gamma
    rows.append(("cross-method lsv N=4", rel <= 2e-3, f"relative gap {rel:.2e}"))

    # mass consistency (needs a reasonably fine grid regardless of --grid)
    sys_n = build_induced(m, 4)
    grid = ops.markov_grid(m, 4, max(grid_size, 4096))
    pieces = ops.induced_branch_matrices(sys_n, grid)
    triple = spectral.leading_eigen(ops.combine_branch_matrices(sys_n, grid, pieces))
    check = spectral.invariant_mass(sys_n, triple)
    rows.append(("mass identity lsv N=4", check.discrepancy <= 1e-6, f"discrepancy {check.discrepancy:.2e}"))
    return rows


def run_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    rows = _verify_checks(cfg.grid)
    failed = [r for r in rows if not r[1]]
    width = max(len(r[0]) for r in rows)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed in {time.perf_counter() - t0:.1f}s")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolic-escape",
        description="Escape rates of intermittent interval maps with holes at the origin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("escape", "one escape-rate computation"),
        ("sweep", "escape rates over a range of Markov holes"),
        ("fit", "sweep plus shrinking-hole scaling fit"),
        ("sandwich", "Markov bounds for a general hole"),
        ("mc", "Monte Carlo survival curve and rate"),
        ("verify", "run the built-in oracle suite"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--map", choices=FAMILIES)
        p.add_argument("--s", type=float)
        p.add_argument("--pwl-weights", dest="pwl_weights", help='"zipf", "harmonic", or a JSON file of weights')
        p.add_argument("--hole-index", dest="hole_index", help="N, start:stop:step, or start:stop:geom[:ratio]")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--grid", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tmax", type=int)
        p.add_argument("--window", help="lo:hi")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--output")
        p.add_argument("--format", choices=("csv", "json"))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {"command": args.command}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_data = json.load(fh)
        file_data.pop("command", None)
        data.update(file_data)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except EscapeError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
