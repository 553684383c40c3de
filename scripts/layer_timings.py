#!/usr/bin/env python3
"""Time the library stages in process, one dimension at a time.

For each dimension d, builds a Kahler model kappa R1 + RA with A = mu J for
a rotated complex structure J (mu^2 = kappa, so ``classify_kahler`` reaches
Case 3 through a full recovery) and sphere samples of the distribution of
A, then times each stage on it.  A stage's time is the median of
``--repeats`` calls.  ``io.save_tensor_s`` writes the model to a file in a
temporary directory, which ``io.load_tensor_s`` reads back;
``io.load_samples_s`` reads back the samples that ``save_samples`` wrote
there.  Stages that the benchmark traces use its per-layer names from
BENCHMARK.json; the Jacobi operators (one call at the scan's default 2d
samples) and ``nullity_space`` have no benchmark name and are reported as
``curvature.jacobi_operator_s`` and ``curvature.nullity_space_s``.  The
file I/O stages also run once under tracemalloc, and their peak traced
memory is reported in MiB, so the memory claims for the tensor and sample
files come from the same harness as their times.  As in the benchmark,
BLAS runs with one thread and the process is pinned to one CPU, which
keeps the timings steady on a shared machine.

Prints one JSON object: {"dims": [...], "repeats": n, "seconds": {stage:
{d: median seconds}}, "tracemalloc_peak_mib": {"io.save_tensor": {d: MiB},
"io.load_tensor": {d: MiB}, "io.load_samples": {d: MiB}}}.  Run it as

    PYTHONPATH=src python scripts/layer_timings.py --dims 4,8,16,32,48
"""

import os

# One BLAS thread, set before numpy is first imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
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
from curvlab.models import distribution_samples  # noqa: E402

KAPPA = 0.7
TRACED_STAGES = ("io.save_tensor_s", "io.load_tensor_s", "io.load_samples_s")


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
    samples_path = directory / f"samples-d{d}.json"
    save_samples(samples, samples_path)
    return [
        ("io.save_tensor_s", lambda: save_tensor(tensor, path)),
        ("io.load_tensor_s", lambda: load_tensor(path)),
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
    print(json.dumps({"dims": dims, "repeats": args.repeats, "seconds": seconds,
                      "tracemalloc_peak_mib": peaks}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
