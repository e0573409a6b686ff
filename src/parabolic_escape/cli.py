"""Command-line surface: escape, sweep, fit, sandwich, mc, verify.

``COMMANDS`` names the options each command reads, and a command accepts no
other: as a flag, an unknown option is an argparse error, and as a key of the
JSON ``--config`` file (keys use underscores, e.g. ``hole_index``) it is a
ConfigError.  Explicit flags override the file.  Every JSON report embeds the
command and the options it read, so that outputs re-parse into the exact run
that produced them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import escape as esc
from . import montecarlo as mc
from . import operators as ops
from . import spectral
from .exceptions import ConfigError, DomainError, EscapeError
from .induced import build_induced
from .maps import FAMILIES, ExplicitWeights, Hole, MapSpec, ZipfWeights, default_pwl_weights

METHODS = ("induced", "ulam", "montecarlo")

# argparse settings of each option; the flag is ``--`` plus the name with dashes
OPTIONS = {
    "map": dict(choices=FAMILIES),
    "s": dict(type=float),
    "pwl_weights": dict(help='"zipf", "harmonic", or a JSON file of weights'),
    "hole_index": dict(help="N, start:stop:step, or start:stop:geom[:ratio]"),
    "epsilon": dict(type=float),
    "method": dict(choices=METHODS),
    "grid": dict(type=int),
    "samples": dict(type=int),
    "tmax": dict(type=int),
    "window": dict(help="lo:hi"),
    "seed": dict(type=int),
    "threads": dict(type=int),
    "output": dict(),
    "format": dict(choices=("csv", "json")),
}
_MAP = ("map", "s", "pwl_weights")
_RUN = ("samples", "tmax", "window", "seed", "threads", "output", "format")
# name: (help, the options the command reads)
COMMANDS = {
    "escape": ("one escape-rate computation", _MAP + ("hole_index", "epsilon", "method", "grid") + _RUN),
    "sweep": ("escape rates over a range of Markov holes", _MAP + ("hole_index", "method", "grid") + _RUN),
    "fit": ("sweep plus shrinking-hole scaling fit", _MAP + ("hole_index", "method", "grid") + _RUN),
    "sandwich": ("Markov bounds for a general hole", _MAP + ("epsilon", "output", "format")),
    "mc": ("Monte Carlo survival curve and rate", _MAP + ("hole_index", "epsilon") + _RUN),
    "verify": ("run the built-in oracle suite", ("grid",)),
}


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


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
        holes = [o for o in ("hole_index", "epsilon") if o in COMMANDS[self.command][1]]
        if holes and sum(getattr(self, o) is not None for o in holes) != 1:
            flags = " and ".join(map(_flag, holes))
            raise ConfigError(f"{self.command} needs {'exactly one of ' if len(holes) > 1 else ''}{flags}")
        if not 0 < self.s < math.inf:
            raise ConfigError("--s must be positive and finite")
        if self.grid < 8:
            raise ConfigError("--grid must be at least 8")
        if self.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("--seed must be >= 0")

    def to_dict(self) -> dict:
        """The command and the options it reads."""
        options = COMMANDS[self.command][1]
        return {k: v for k, v in asdict(self).items() if k == "command" or k in options}

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        command = data.get("command")
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        hints = get_type_hints(RunConfig)
        unknown = set(data) - {"command", *COMMANDS[command][1]}
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in data.items():
            allowed = get_args(hints[key]) or (hints[key],)
            # bool is an int subclass, but no option is a flag
            if isinstance(value, bool) or not isinstance(value, allowed + ((int,) if float in allowed else ())):
                names = " or ".join(t.__name__ for t in allowed)
                raise ConfigError(f"config key {key!r} must be {names}, got {value!r}")
        return RunConfig(**data)


def build_map(cfg: RunConfig) -> MapSpec:
    spec_name = cfg.pwl_weights
    if spec_name is None:
        weights = None  # the family default
    elif spec_name == "zipf":
        weights = ZipfWeights(cfg.s)
    elif spec_name == "harmonic":
        weights = default_pwl_weights(1.0)
    else:
        values = _read_json(spec_name, "pwl weights file")
        if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
            raise ConfigError(f"pwl weights file {spec_name!r} must hold a JSON list of numbers")
        try:
            weights = ExplicitWeights(tuple(values))
        except DomainError as exc:
            raise ConfigError(f"pwl weights file {spec_name!r}: {exc}") from None
        if abs(weights.tail(0) - 1.0) > 1e-9:  # the tolerance of the weights_normalized check
            raise ConfigError(f"pwl weights in {spec_name!r} sum to {weights.tail(0)!r}, not 1")
    return MapSpec(cfg.map, cfg.s, weights)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _number(kind, part: str, text: str):
    """``kind(part)`` for one field of the option value ``text``."""
    try:
        return kind(part)
    except ValueError:
        raise ConfigError(f"cannot read {part!r} of {text!r} as {kind.__name__}") from None


def parse_index_range(text: str) -> list:
    """Parse "N", "start:stop:step" or "start:stop:geom[:ratio]"."""
    parts = text.split(":")
    if len(parts) == 1:
        return [_number(int, parts[0], text)]
    if len(parts) not in (3, 4):
        raise ConfigError(f"bad hole-index range {text!r}")
    start, stop = _number(int, parts[0], text), _number(int, parts[1], text)
    if start < 1 or stop < start:
        raise ConfigError(f"bad hole-index range {text!r}")
    if parts[2] == "geom":
        ratio = _number(float, parts[3], text) if len(parts) == 4 else 2.0
        if not ratio > 1.0:
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
    step = _number(int, parts[2], text)
    if step < 1:
        raise ConfigError("step must be >= 1")
    return list(range(start, stop + 1, step))


def parse_window(text: Optional[str], tmax: int):
    if text is None:
        return None
    lo, _, hi = text.partition(":")
    window = (_number(int, lo, text), _number(int, hi, text))
    if not 1 <= window[0] < window[1] <= tmax:
        raise ConfigError(f"window {text!r} outside 1..{tmax}")
    return window


def _emit(cfg: RunConfig, payload: dict, csv_text: str) -> None:
    text = csv_text if cfg.format == "csv" else json.dumps(payload, indent=2) + "\n"
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _hole(cfg: RunConfig) -> Hole:
    if cfg.epsilon is not None:
        return Hole.interval(cfg.epsilon)
    indices = parse_index_range(cfg.hole_index)
    if len(indices) > 1:
        raise ConfigError(f"{cfg.command} takes one hole index, not the range {cfg.hole_index!r}; use sweep")
    return Hole.markov(indices[0])


def run(cfg: RunConfig) -> int:
    """Execute one configuration; returns a process exit status."""
    cfg.validate()
    if cfg.command == "verify":
        return run_verify(cfg)
    if cfg.output:  # checked before computing, so a long run cannot lose its result
        folder = os.path.dirname(os.path.abspath(cfg.output))
        if os.path.isdir(cfg.output):
            raise ConfigError(f"cannot write output {cfg.output!r}: it is a directory")
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"cannot write output {cfg.output!r}: no writable directory {folder!r}")
    m = build_map(cfg)
    window = parse_window(cfg.window, cfg.tmax)
    options = dict(
        method=cfg.method,
        grid_size=cfg.grid,
        samples=cfg.samples,
        n_max=cfg.tmax,
        window=window,
        seed=cfg.seed,
        threads=cfg.threads,
    )

    if cfg.command == "escape":
        report = esc.compute_escape(m, _hole(cfg), **options)
        payload = {"results": [report.to_dict()]}
        csv_text = esc.reports_csv_text([report])
    elif cfg.command in ("sweep", "fit"):
        result = esc.sweep(m, parse_index_range(cfg.hole_index), **options)
        payload = {
            "results": [r.to_dict() for r in result.reports],
            "failures": [{"N": n, "error": msg} for n, msg in result.failures],
        }
        if cfg.command == "fit":
            payload["fit"] = asdict(esc.fit_scaling(result.reports, cfg.s))
        csv_text = esc.reports_csv_text(result.reports)
    elif cfg.command == "sandwich":
        bounds = esc.sandwich_bounds(m, cfg.epsilon)
        row = {"N_epsilon": bounds.index, "gamma_lower": bounds.gamma_lower, "gamma_upper": bounds.gamma_upper}
        payload = {"result": row}
        csv_text = ",".join(row) + "\n" + ",".join(f"{v:.17g}" for v in row.values()) + "\n"
    else:  # mc
        curve = mc.survival_curve(
            m, _hole(cfg), n_max=cfg.tmax, samples=cfg.samples, seed=cfg.seed, threads=cfg.threads
        )
        est = mc.mc_escape_rate(curve, window)
        payload = {
            "result": {"gamma": est.gamma, "stderr": est.stderr, "window": list(est.window)},
            "curve": [
                {"n": int(n), "survivors": int(k)}
                for n, k in zip(curve.n_values, curve.survivors)
            ],
        }
        csv_text = mc.curve_csv_text(curve)
    _emit(cfg, {"config": cfg.to_dict(), **payload}, csv_text)
    return 0


# ---------------------------------------------------------------------------
# built-in oracle suite
# ---------------------------------------------------------------------------

def _verify_checks(grid_size: int):
    """(name, passed, detail) rows for the self-check table."""
    rows = []

    # exactly solvable piecewise-linear family, generic pipeline
    m = MapSpec.pwl(1.0)
    for n in (2, 5, 10):
        ia = esc.induced_analysis(m, n, exact_pwl=False)
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
    ia = esc.induced_analysis(m, 4)
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
    for name, (doc, options) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON file with default options")
        for option in options:
            p.add_argument(_flag(option), **OPTIONS[option])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {"command": args.command}
    if args.config:
        file_data = _read_json(args.config, "config file")
        if not isinstance(file_data, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object")
        file_data.pop("command", None)
        data.update(file_data)
    for option in COMMANDS[args.command][1]:
        if getattr(args, option) is not None:
            data[option] = getattr(args, option)
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
