#!/usr/bin/env python3
"""Time the library stages in process, one dimension at a time.

For each dimension d, builds a Kahler model kappa R1 + RA with A = mu J for
a rotated complex structure J (mu^2 = kappa, so ``classify_kahler`` reaches
Case 3 through a full recovery) and sphere samples of the distribution of
A, then times each stage on it.  A stage's time is the median of
``--repeats`` calls.  ``io.save_tensor_s`` writes the built model to a
file in a temporary directory, which ``io.load_tensor_s`` reads back;
``io.save_tensor_model_s`` writes the same bytes from the model's
``ModelSlabs``, as ``generate`` does: its finiteness sweep, then each slab
computed as it is written.  ``io.load_tensor_v1_s`` reads the same model
from a schema 1 file that ``json.dump(payload, indent=2, sort_keys=True)``
wrote, the layout of the benchmark's files and of files written before
schema 2; ``io.load_samples_s`` reads back the samples that
``save_samples`` wrote there.  Two rows time whole CLI processes:
``cli.teardown_s`` is the time from a child's ``main()`` raising
``SystemExit`` (a ``decompose`` of the file ``io.load_tensor_s`` reads,
whose ``finally`` prints ``time.time()`` to stderr) to this process seeing the child exit, and ``cli.startup_s``
is the wall time of ``python -m curvlab.cli lemma-suite --dims x``, which
does not depend on d and is reported once.  That process imports the CLI,
does no command work (``cmd_lemma_suite`` rejects the dimensions before
the lemma module is imported) and exits 1 through ``main``, after its
``gc.freeze()``, as every request does; a ``--help`` process exits inside
argparse and pays the collections at shutdown that requests skip.
Stages that the benchmark traces use
its per-layer names from BENCHMARK.json; the Jacobi operators (one call
on ``unit_sphere_samples(d, 2 * d, seed=1)``) and ``nullity_space`` have
no benchmark name and are reported as ``curvature.jacobi_operator_s`` and
``curvature.nullity_space_s``.  The
file I/O stages also run once under tracemalloc, and their peak traced
memory is reported in MiB, so the memory claims for the tensor and sample
files come from the same harness as their times.  As in the benchmark,
BLAS runs with one thread and the process is pinned to one CPU, which
keeps the timings steady on a shared machine.

Prints one JSON object: {"dims": [...], "repeats": n, "cli.startup_s":
median seconds, "seconds": {stage: {d: median seconds}},
"tracemalloc_peak_mib": {"io.save_tensor": {d: MiB},
"io.save_tensor_model": {d: MiB}, "io.load_tensor": {d: MiB},
"io.load_tensor_v1": {d: MiB}, "io.load_samples": {d: MiB}}}.  Run it as

    PYTHONPATH=src python scripts/layer_timings.py --dims 4,8,16,32,48
"""

import os

# One BLAS thread, set before numpy is first imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from curvlab import (  # noqa: E402
    almost_isotropy_scan,
    build_model,
    classify_kahler,
    fit_skew_from_samples,
    jacobi_operator,
    load_samples,
    load_tensor,
    nullity_space,
    recover_decomposition,
    save_samples,
    save_tensor,
    standard_complex_structure,
    unit_sphere_samples,
    validate_symmetries,
)
from curvlab.curvature import ModelSlabs  # noqa: E402
from curvlab.io import TENSOR_BASIS, TENSOR_CONVENTION  # noqa: E402
from curvlab.models import distribution_samples  # noqa: E402

KAPPA = 0.7
TRACED_STAGES = ("io.save_tensor_s", "io.save_tensor_model_s", "io.load_tensor_s",
                 "io.load_tensor_v1_s", "io.load_samples_s")


def stages(d: int, directory: Path):
    """(name, zero-argument call) for every timed stage at dimension d."""
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    j = q @ standard_complex_structure(d) @ q.T
    a = np.sqrt(KAPPA) * j
    tensor = build_model(KAPPA, 1, a)
    directions = unit_sphere_samples(d, 2 * d, seed=1)
    points = unit_sphere_samples(d, d + 2 * d, seed=2)[d:]
    samples = distribution_samples(a, points)
    path = directory / f"model-d{d}.json"
    save_tensor(tensor, path)
    v1_path = directory / f"model-v1-d{d}.json"
    with open(v1_path, "w", encoding="utf-8") as handle:
        json.dump({"schema_version": 1, "dim": d, "components": tensor.components.ravel().tolist(),
                   "basis": TENSOR_BASIS, "convention": TENSOR_CONVENTION},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    samples_path = directory / f"samples-d{d}.json"
    save_samples(samples, samples_path)
    return [
        ("io.save_tensor_s", lambda: save_tensor(tensor, path)),
        ("io.save_tensor_model_s", lambda: save_tensor(ModelSlabs(KAPPA, 1, a), path)),
        ("io.load_tensor_s", lambda: load_tensor(path)),
        ("io.load_tensor_v1_s", lambda: load_tensor(v1_path)),
        ("io.load_samples_s", lambda: load_samples(samples_path)),
        ("curvature.build_model_s", lambda: build_model(KAPPA, 1, a)),
        ("curvature.validate_symmetries_s", lambda: validate_symmetries(tensor)),
        ("curvature.validate_symmetries_j_s", lambda: validate_symmetries(tensor, j)),
        ("curvature.jacobi_operator_s", lambda: jacobi_operator(tensor, directions)),
        ("isotropy.almost_isotropy_scan_s", lambda: almost_isotropy_scan(tensor)),
        ("isotropy.recover_decomposition_s", lambda: recover_decomposition(tensor)),
        ("kahler.classify_kahler_s", lambda: classify_kahler(tensor, j)),
        ("curvature.nullity_space_s", lambda: nullity_space(tensor)),
        ("sphere.fit_skew_from_samples_s", lambda: fit_skew_from_samples(samples)),
    ]


TEARDOWN_CHILD = """
import sys, time
from curvlab.cli import main
sys.argv = ["curvlab", "decompose", sys.argv[1]]
try:
    main()
finally:
    print(time.time(), file=sys.stderr)
"""


def teardown_seconds(path: Path) -> float:
    """Time from a decompose child's main() exiting to the child's exit."""
    proc = subprocess.run([sys.executable, "-c", TEARDOWN_CHILD, str(path)],
                          capture_output=True, text=True)
    ended = time.time()
    if proc.returncode != 0:
        raise RuntimeError(f"decompose {path} exited {proc.returncode}: {proc.stderr}")
    return ended - float(proc.stderr.splitlines()[-1])


def startup_process() -> None:
    """A CLI process that ends through ``main``'s exit without doing any command's work."""
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli", "lemma-suite", "--dims", "x"],
                          capture_output=True, text=True)
    if proc.returncode != 1:
        raise RuntimeError(f"lemma-suite --dims x exited {proc.returncode}: {proc.stderr}")


def median_seconds(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_mib(call) -> float:
    """Peak memory traced by tracemalloc during one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="4,8,16,32,48",
                        help="comma-separated even dimensions (default 4,8,16,32,48)")
    parser.add_argument("--repeats", type=int, default=3, help="calls per stage (default 3)")
    args = parser.parse_args(argv)
    dims = [int(part) for part in args.dims.split(",")]
    if any(d < 2 or d % 2 for d in dims) or args.repeats < 1:
        parser.error("dimensions must be even and at least 2, repeats at least 1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seconds: dict[str, dict[str, float]] = {}
    peaks: dict[str, dict[str, float]] = {}
    with tempfile.TemporaryDirectory() as directory:
        for d in dims:
            for name, call in stages(d, Path(directory)):
                seconds.setdefault(name, {})[str(d)] = median_seconds(call, args.repeats)
                if name in TRACED_STAGES:
                    peaks.setdefault(name.removesuffix("_s"), {})[str(d)] = peak_mib(call)
            path = Path(directory) / f"model-d{d}.json"
            seconds.setdefault("cli.teardown_s", {})[str(d)] = statistics.median(
                teardown_seconds(path) for _ in range(args.repeats))
    startup = median_seconds(startup_process, args.repeats)
    print(json.dumps({"dims": dims, "repeats": args.repeats, "cli.startup_s": startup,
                      "seconds": seconds, "tracemalloc_peak_mib": peaks}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
