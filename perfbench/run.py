"""Escape-rate benchmark: one workload per run, closed loop, fresh interpreter.

    python3 perfbench/run.py --workload induced-lsv-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload.  A pass runs the workload's fixed list of
operations one at a time, each starting when the previous one returns; passes
repeat until the next one would overrun ``--seconds`` (at least one pass runs).
Results are checked after each pass, outside its timing.  The library is
imported from ``src/`` next to this directory, never from an installed copy.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one warm-up
pass untraced, then alternates traced passes, with wrappers around the
library's public functions (see spans.py), and untraced ones.  It checks that
every result is bitwise identical to the warm-up pass's and prints the
per-layer metrics; the tracing overhead is the traced minus the untraced pass
time.  ``--workload all`` runs every workload in both modes, each in a fresh
interpreter, and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the machine, the inputs and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def _import_library():
    """Import parabolic_escape from the checkout's src/ or exit with code 2."""
    if not (SRC / "parabolic_escape" / "__init__.py").is_file():
        _fail(f"no library source at {SRC / 'parabolic_escape'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import parabolic_escape

    if Path(parabolic_escape.__file__).resolve().parent != SRC / "parabolic_escape":
        _fail(f"parabolic_escape imported from {parabolic_escape.__file__}, not from {SRC}")


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so readings from parent and child compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters up to "library imported, inputs built"
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> None:
    """Import the library, build the workload's inputs, print the clock."""
    _import_library()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    print(repr(_monotonic()), flush=True)


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        start = _monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ops: list):
    """Run the operations in order; a raised exception becomes a ``None`` result."""
    results, op_times, errors = [], [], []
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            results.append(op.call())
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            results.append(None)
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        op_times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, op_times, results, errors


class Run:
    """The passes of one run with their checks and failure counts."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = wl.ops()
        self.ref = None
        self.ref_error = None
        self.pass_times, self.op_times, self.results = [], [], []
        self.attempted = self.failed = 0
        self.errors: list = []

    def one_pass(self) -> float:
        pass_s, op_times, results, errors = run_pass(self.ops)
        if not self.pass_times:
            try:
                self.ref = self.wl.reference()
            except Exception as exc:  # noqa: BLE001 - without an oracle every check fails
                self.ref_error = f"reference: {type(exc).__name__}: {exc}"
                errors.append(self.ref_error)
        ok = [False] * len(results) if self.ref_error else self.wl.check(results, self.ref)
        self.attempted += len(results)
        self.failed += sum(1 for good in ok if not good)
        self.errors += errors + [f"check failed: {op.label} -> {r}" for op, r, good in zip(self.ops, results, ok)
                                 if not good and r is not None]
        self.pass_times.append(pass_s)
        self.op_times += op_times
        self.results.append(results)
        return pass_s

    def loop(self, seconds: float) -> None:
        """Passes until the next one would end after ``seconds`` of measured time."""
        spent = 0.0
        while True:
            spent += self.one_pass()
            if spent + statistics.median(self.pass_times) > seconds:
                return


def _bitwise(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and [float(x).hex() for x in a] == [float(x).hex() for x in b])


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple:
    from workloads import WORKLOADS

    setup = [] if trace else measure_setup(name, seed)
    wl = WORKLOADS[name](seed)
    run = Run(wl)
    report = {"workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": int(trace),
              "inputs": wl.inputs, "ops_per_pass": len(run.ops), "environment": environment()}

    if not trace:
        run.loop(seconds)
        k = len(run.ops)
        op_medians = {op.label: statistics.median(run.op_times[i::k]) for i, op in enumerate(run.ops)}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(run.pass_times), "s"),
            "op_p50_s": (statistics.median(run.op_times), "s"),
            # the slowest operation of the list, each timed by its median over passes
            "op_tail_s": (max(op_medians.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        report.update(setup_samples=setup, pass_samples=run.pass_times, op_samples=len(run.op_times),
                      op_medians_s=op_medians, fail_frac=run.failed / run.attempted)
    else:
        import spans

        # the first pass warms the process and is the bitwise reference; then
        # traced and untraced passes alternate so both see a warm process
        run.one_pass()
        tracer = spans.Tracer()
        main = threading.get_ident()
        per_pass, traced, untraced = [], [], []
        spent = run.pass_times[0]
        while True:
            tracer.install()
            try:
                pass_s = run.one_pass()
            finally:
                tracer.restore()
            per_pass.append(spans.pass_metrics(tracer.take(), pass_s, main))
            traced.append(pass_s)
            untraced.append(run.one_pass())
            spent += pass_s + untraced[-1]
            if spent + pass_s + untraced[-1] > seconds:
                break
        mismatched = sum(1 for later in run.results[1:] for a, b in zip(run.results[0], later)
                         if not _bitwise(a, b))
        if mismatched:
            run.failed += mismatched
            run.errors.append(f"{mismatched} results differ bitwise from the first untraced pass")
        metrics = {key: (statistics.fmean(p[key][0] for p in per_pass), unit)
                   for key, (_, unit) in per_pass[0].items()}
        metrics["trace.pass_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        report.update(warmup_pass_s=run.pass_times[0], traced_pass_samples=traced,
                      untraced_pass_samples=untraced, absent=tracer.absent,
                      self_share={k[:-len(".self_s")]: v / self_total
                                  for k, (v, _) in metrics.items() if k.endswith(".self_s")},
                      fail_frac=run.failed / run.attempted)

    report["errors"] = run.errors[:20]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: int) -> dict:
    """Every workload in both modes, each in a fresh interpreter; prints a table."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    reports = []
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=True,
            )
            *_, report_line, result_line = out.stdout.strip().splitlines()
            report, result = json.loads(report_line), json.loads(result_line)
            reports.append(report)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"# {name} (trace {trace}): {report['why']}")
            print(f"{name:<20} {'fail_frac':<28} {report['fail_frac']:>14.6g} ratio")
            for key, m in result["metrics"].items():
                print(f"{name:<20} {key:<28} {m['value']:>14.6g} {m['unit']}")
                combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps({"reports": reports}))
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    _import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or 'all'")
    else:
        report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
