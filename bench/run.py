"""Benchmark of vecmkit: three closed-loop workloads with one caller each.

Run from the repository root:

    python3 bench/run.py --workload study69 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --smoke

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give every metric with its unit and sample
count, the failures, and the environment. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("study69", "rolling_k12", "cli69")

SETUP_PROBES = 7
CLI_PROBES = 10
SMOKE_UNITS = 10
SMOKE_PROBES = 2
CHILD_TIMEOUT_S = 120
# Busy seconds per latency window, rounded up to whole cycles of unit kinds.
WINDOW_S = 1.0

# Per-layer metrics: (function, statistics) from the spans, per unit of work.
SPAN_METRICS = (
    ("numerics.cholesky_lower", ("calls", "self_ms")),
    ("numerics.ols", ("calls", "self_ms")),
    ("numerics.generalized_symmetric_eigen", ("self_ms",)),
    ("numerics.chi_square_sf", ("calls", "self_ms")),
    ("vecm._concentrate", ("calls", "self_ms")),
    ("vecm.johansen_trace", ("total_ms",)),
    ("vecm.fit_vecm", ("total_ms",)),
    ("vecm.forecast_vecm", ("total_ms",)),
    ("var.fit_var", ("calls", "self_ms")),
    ("var.forecast_var", ("self_ms",)),
    ("diagnostics.lag_order_selection", ("calls", "total_ms")),
    ("diagnostics.lm_autocorrelation", ("total_ms",)),
    ("diagnostics.normality_suite", ("total_ms",)),
    ("diagnostics.vecm_stability", ("total_ms",)),
    ("irf.ma_coefficients", ("calls", "self_ms")),
    ("irf.orthogonalized_irf", ("total_ms",)),
    ("shock.run_three_stage", ("total_ms", "self_ms")),
    ("quarterly.load_frame", ("total_ms",)),
    ("formatting.write_csv", ("total_ms",)),
    ("formatting.write_json", ("total_ms",)),
)
SPAN_UNITS = {"calls": "calls/unit", "total_ms": "ms/unit", "self_ms": "ms/unit"}


class Runner:
    """Runs and checks units of one workload through one call.

    A unit that raises or fails its check counts in ``failed``; its latency
    is left out of the percentiles but its time still counts as busy.

    Latencies are also kept in windows of about ``WINDOW_S`` busy seconds,
    each a whole number of cycles, for ``windowed``.
    """

    def __init__(self, workload, call):
        self.workload = workload
        self.call = call
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []  # seconds, verified units only
        self.busy = 0.0
        self.windows: list[tuple[list[float], float]] = [([], 0.0)]  # (latencies, busy)
        self.child_rss_kb = 0

    def step(self, i: int) -> None:
        self.workload.prepare(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.call(i)
            elapsed = time.perf_counter() - start
            self.child_rss_kb = max(self.child_rss_kb, getattr(out, "maxrss_kb", 0))
            self.workload.check(i, out)
        except Exception as exc:  # a failed unit is counted, never dropped
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.failures.append(f"unit {i}: {type(exc).__name__}: {exc}")
        else:
            self.latencies.append(elapsed)
            self.windows[-1][0].append(elapsed)
        self.busy += elapsed
        window, window_busy = self.windows[-1]
        self.windows[-1] = (window, window_busy + elapsed)
        if window_busy + elapsed >= WINDOW_S and self.attempted % self.workload.cycle == 0:
            self.windows.append(([], 0.0))

    @property
    def units_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy else 0.0


def drive(runners: list[Runner], first: int, seconds: float, units: int | None) -> int:
    """Closed loop with one caller: the next unit starts when the last ends.

    Units first, first+1, ... go to the runners in turn, one whole cycle of
    the workload's unit kinds each, until ``units`` units are done or,
    without ``units``, until ``seconds`` pass at the end of a round. Returns
    the next unit index.
    """
    cycle = runners[0].workload.cycle
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        done = i - first
        if units is not None:
            if done >= units:
                return i
        elif done % (cycle * len(runners)) == 0 and time.perf_counter() >= deadline:
            return i
        runners[done // cycle % len(runners)].step(i)
        i += 1


def windowed(runner: Runner, percentile) -> float:
    """A latency percentile taken within each window of the run, then
    averaged over the windows, weighted by their busy time.

    The host this was sized on switches between a fast and a slow state
    every few seconds. Pooled over a run, a percentile of that two-mode mix
    jumps from one mode to the other when the run's share of slow time
    crosses its level; averaged over windows it moves in proportion to that
    share, as ``units_per_s`` does. Every verified unit counts.
    """
    windows = [(w, busy) for w, busy in runner.windows if w]
    total = sum(busy for _, busy in windows)
    return sum(percentile(w) * busy for w, busy in windows) / total if total else 0.0


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _wall(argv: list[str], env: dict) -> float:
    """Wall seconds of one fresh run of argv, spawn to exit."""
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(args, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready.

    The probe reports CLOCK_MONOTONIC when ready; that clock is shared by
    every process on the machine, so it is comparable with the spawn time.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    start = time.monotonic()
    proc = subprocess.run(argv, check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - start


def probe_setup(args) -> int:
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print(repr(time.monotonic()))
    return 0


def run_untraced(args, workdir: Path):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    warm = Runner(workload, workload.unit)
    warm.step(0)  # lazy imports and first-touch costs stay out of the timing
    timed = Runner(workload, workload.unit)
    # The set-up probes are spread over the run, between units, so that one
    # slow spell of the machine does not decide their median. Their time
    # counts within --seconds.
    probes = SMOKE_PROBES if args.smoke else SETUP_PROBES
    setups = []
    i = 1
    start = time.perf_counter()
    for j in range(probes):
        setups.append(setup_seconds(args, workdir / f"probe{j}"))
        left = start + args.seconds * (j + 1) / probes - time.perf_counter()
        i = drive([timed], i, left, SMOKE_UNITS // probes if args.smoke else None)

    latencies = timed.latencies
    n = len(latencies)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  warm.child_rss_kb, timed.child_rss_kb)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "units_per_s": _metric(timed.units_per_s, "1/s", n),
        "unit_p50_ms": _metric(windowed(timed, statistics.median) * 1e3, "ms", n),
        "unit_p90_ms": _metric(windowed(timed, _p90) * 1e3, "ms", n),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB", 1),
    }
    return [warm, timed], metrics


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_traced(args, workdir: Path):
    from tracer import Tracer
    from workloads import WORKLOADS, child_env

    workload = WORKLOADS[args.workload](args.seed, workdir)
    warm = Runner(workload, workload.inprocess_unit)
    warm.step(0)  # also imports every module the unit uses, before wrapping

    # Interpreter start and import run back to back in each round; the
    # difference is taken within a round, where drift in machine speed
    # cancels best. Their time counts within --seconds.
    start = time.perf_counter()
    probes = SMOKE_PROBES if args.smoke else CLI_PROBES
    env = child_env()
    python_s, import_s = [], []
    for _ in range(probes):
        python_s.append(_wall([sys.executable, "-c", "pass"], env))
        import_s.append(_wall([sys.executable, "-c", "import vecmkit.cli"], env) - python_s[-1])

    # Plain and traced units alternate, so drift in machine speed reaches
    # both alike and trace.overhead_frac measures the tracer alone.
    tracer = Tracer()

    def traced_unit(i):
        tracer.unit = i
        tracer.install()
        try:
            return workload.inprocess_unit(i)
        finally:
            tracer.uninstall()

    plain = Runner(workload, workload.inprocess_unit)
    traced = Runner(workload, traced_unit)
    left = start + args.seconds - time.perf_counter()
    drive([plain, traced], 1, left, 2 * SMOKE_UNITS if args.smoke else None)

    n = max(traced.attempted, 1)
    summary = tracer.summary()
    metrics = {}
    for func, stats in SPAN_METRICS:
        for stat in stats:
            metrics[f"{func}.{stat}"] = _metric(summary[func][stat] / n, SPAN_UNITS[stat], n)
    metrics["numerics.ols.qr_flops"] = _metric(tracer.qr_flops / n, "flop/unit", n)
    metrics["formatting.bytes_written"] = _metric(tracer.bytes_written / n, "B/unit", n)
    metrics["cli.python_ms"] = _metric(statistics.median(python_s) * 1e3, "ms", probes)
    metrics["cli.import_ms"] = _metric(statistics.median(import_s) * 1e3, "ms", probes)
    # What a command costs once the interpreter runs and vecmkit.cli is
    # imported: the untraced in-process cli69 units, measured directly.
    # Subtracting the two medians from fresh-process latency instead leaves
    # a few ms under tens of ms of noise.
    compute = plain.latencies if args.workload == "cli69" else []
    compute_ms = statistics.median(compute) * 1e3 if compute else 0.0
    metrics["cli.compute_ms"] = _metric(compute_ms, "ms", len(compute))
    overhead = plain.units_per_s / traced.units_per_s - 1.0 if traced.units_per_s else 0.0
    metrics["trace.overhead_frac"] = _metric(overhead, "fraction", len(traced.latencies))

    return [warm, plain, traced], metrics


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas_vendor,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_one(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        runners, metrics = (run_traced if args.trace else run_untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:44s} {m['value']:>16.6g} {m['unit']:10s} n={m['samples']}")
    print(f"{args.workload:12s} {'failed_frac':44s} {failed / attempted:>16.6g} {'fraction':10s} "
          f"n={attempted}")
    for r in runners:
        for line in r.failures[:10]:
            print(f"FAILED {args.workload}: {line}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line maps each to its result."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            code = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run {SMOKE_UNITS} units per phase instead of --seconds")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads, so this process and every child use one BLAS thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "vecmkit" / "__init__.py").is_file():
        print(f"error: no vecmkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
