#!/usr/bin/env python3
"""Benchmark of the curvlab CLI: one client, closed loop, one process per request.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: requests run ``python -m
curvlab.cli`` against ``src/``, so nothing needs installing.  The inputs
are generated from ``--seed`` under ``bench/.work/``.  Passes over the
workload's request list repeat while another pass still fits in
``--seconds`` (at least one pass runs), and every output is checked
against the planted parameters.  End-to-end times are normalised to the
machine's speed during the run (see ``REF_S``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures
``curvlab --help`` start-up, runs one CLI pass for ``wall_s``, then replays
the workload in this process with spans around each layer (``tracing.py``)
and prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread in the benchmark and in every request: on a small shared
# machine, threads contending with neighbours make timings unsteady.  Set
# before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("kahler-classify", "model-roundtrip", "fit-distribution")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
RUN_LIMIT_S = 150.0   # a run must end within 180 s; stop starting passes past this

# Machine speed.  Co-tenant load on a shared machine slows the same CPU-bound
# code by 1.3-1.6x for stretches of seconds to minutes, longer than a run.  A
# fixed reference task is timed between requests, and each request's time is
# divided by the mean of the reference times around it.  End-to-end times are
# these ratios times REF_S: seconds on a machine where the reference takes
# REF_S between requests (it took 0.02-0.03 s on the 2-core machine the
# benchmark was tuned on).  Raw seconds are printed as well.
REF_S = 0.02


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CURVLAB_TOL"}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    return env


def run_cli(argv: list[str], timeout: float) -> tuple[int | None, str, str]:
    """One ``curvlab`` process: (exit code or None on timeout, stdout, stderr)."""
    try:
        proc = subprocess.run([sys.executable, "-m", "curvlab.cli", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", "timed out"
    return proc.returncode, proc.stdout, proc.stderr


def reference() -> float:
    """Seconds for a fixed mix of interpreter and BLAS work, like a request's."""
    m = np.random.default_rng(0).standard_normal((120, 120))
    m = m + m.T
    start = perf_counter()
    for _ in range(3):
        np.linalg.eigh(m)
        sum(i * i for i in range(60_000))
    return perf_counter() - start


def timed_against_reference(fn, *args):
    """(result, seconds, seconds / mean of the reference times around the call)."""
    before = reference()
    start = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - start
    return result, seconds, 2.0 * seconds / (before + reference())


class Run:
    """Counts, timings and problems of one benchmark run."""

    def __init__(self, steps, seconds: float):
        self.steps = steps
        self.seconds = seconds
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self.request_s: dict[str, list[float]] = {s.label: [] for s in steps}
        self.request_ratio: dict[str, list[float]] = {s.label: [] for s in steps}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def record(self, step, code, out, err) -> None:
        self.attempted += 1
        problems = ["timed out"] if code is None else checks.check(step, code, out, err)
        self.failed += bool(problems)
        self.problems += [f"{step.label}: {p}" for p in problems]

    def cli_pass(self) -> float:
        """One pass of fresh processes; outputs are checked after the pass is timed."""
        results = []
        start = perf_counter()
        for step in self.steps:
            (code, out, err), seconds, ratio = timed_against_reference(
                run_cli, step.argv(), max(1.0, self.remaining()))
            self.request_s[step.label].append(seconds)
            self.request_ratio[step.label].append(ratio)
            results.append((step, code, out, err))
            if code is None:
                break
        wall = perf_counter() - start
        for result in results:
            self.record(*result)
        self.passes += 1
        return wall

    def one_pass(self, per_request: dict[str, list[float]]) -> float:
        """A pass over the request list, from each request's median over the passes."""
        return sum(statistics.median(v) for v in per_request.values() if v)

    def another_fits(self, last_pass: float) -> bool:
        elapsed = perf_counter() - self.started
        return elapsed + last_pass <= min(self.seconds, RUN_LIMIT_S) and not self.problems


def setup(workload: str, seed: int, workdir: Path):
    """Write the inputs SETUP_REPEATS times: (steps, median seconds, median ratio)."""
    times, ratios = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        steps, seconds, ratio = timed_against_reference(
            workloads.WORKLOADS[workload], workdir, seed)
        times.append(seconds)
        ratios.append(ratio)
    return steps, statistics.median(times), statistics.median(ratios)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "clients": 1,
    }


def blas_threads():
    """Threads OpenBLAS reports in this process, else the pinned setting."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = [], ctypes.c_int
        return query()
    return int(BLAS_ENV["OPENBLAS_NUM_THREADS"])


def check_program() -> str | None:
    """Warm the bytecode cache and make sure requests import curvlab from SRC."""
    proc = subprocess.run(
        [sys.executable, "-c", "import curvlab.cli, curvlab; print(curvlab.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    where = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or SRC.resolve() not in where.parents:
        return f"curvlab does not import from {SRC}: {proc.stderr.strip() or where}"
    return None


def end_to_end(run: Run, setup_raw: float, setup_ratio: float) -> dict:
    while run.another_fits(run.cli_pass()):
        pass
    raw = [t for times in run.request_s.values() for t in times]
    ratios = [r for rs in run.request_ratio.values() for r in rs]
    print(f"raw seconds: wall {run.one_pass(run.request_s):.6g}, request p50 "
          f"{statistics.median(raw):.6g}, setup {setup_raw:.6g}; reference "
          f"{statistics.median(t / r for t, r in zip(raw, ratios)):.6g} (REF_S {REF_S})")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (REF_S * run.one_pass(run.request_ratio), "s"),
        "request_p50_s": (REF_S * statistics.median(ratios), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (REF_S * setup_ratio, "s"),
    }


def per_layer(run: Run, workload: str, seed: int) -> dict:
    import tracing   # imports curvlab, from SRC
    startup = statistics.median(
        timed_against_reference(run_cli, ["--help"], max(1.0, run.remaining()))[1]
        for _ in range(STARTUP_REPEATS))
    run.cli_pass()
    wall = run.one_pass(run.request_s)
    tracer = tracing.Tracer()
    passes = []
    with tracing.install(tracer):
        while True:
            start = perf_counter()
            first = tracer.request + 1
            for step in run.steps:
                run.record(step, *tracer.run(step.argv()))
            passes.append(tracer.totals(range(first, tracer.request + 1)))
            if not run.another_fits(perf_counter() - start):
                break
    tracer.dump(HERE / ".work" / f"trace-{workload}-seed{seed}.json")
    units = {"_s": "s", "_MBps": "MB/s", "_us_per_tangent": "us"}
    metrics = {"cli.startup_s": (startup, "s")}
    for name in passes[0]:
        if name == "attributed_s":
            continue
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (statistics.median(p[name] for p in passes), unit)
    attributed = statistics.median(p["attributed_s"] for p in passes)
    metrics["trace.coverage"] = ((attributed + len(run.steps) * startup) / wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "curvlab" / "__init__.py").is_file():
        print(f"error: no curvlab sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # the reference task and the requests must share a CPU; children inherit this
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    problem = check_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        steps, setup_raw, setup_ratio = setup(args.workload, args.seed, workdir)
        run = Run(steps, args.seconds)
        if args.trace:
            metrics = per_layer(run, args.workload, args.seed)
        else:
            metrics = end_to_end(run, setup_raw, setup_ratio)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} seed {args.seed}, {len(steps)} requests per pass, "
          f"{run.passes} CLI passes, mix: " + ", ".join(s.label for s in steps))
    print(f"failed_ratio: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} requests)")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
