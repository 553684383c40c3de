#!/usr/bin/env python3
"""Empirical study of the uniqueness gap in distribution fitting.

The least-squares fit recovers a skew projective class from sampled
tangent data; its spectral gap measures how uniquely the data pins the
class down.  This script sweeps the number of sample points for a
nondegenerate operator and for one with a 2-dimensional kernel (where
uniqueness is not guaranteed a priori), and prints the random-tangent
baseline residual for comparison.
"""

import argparse

import numpy as np

from curvlab import (
    DistributionSamples,
    fit_skew_from_samples,
    random_skew,
    unit_sphere_samples,
)
from curvlab.lemmas import line_angle
from curvlab.models import block_diagonal_skew, distribution_samples


def random_samples(d, count, seed):
    # tangent directions must come from an independent stream, otherwise the
    # first draw reproduces the sample point itself
    rng = np.random.default_rng(77_000 + seed)
    entries = []
    for s in unit_sphere_samples(d, count, seed)[d:]:
        tangents = []
        for _ in range(2):
            t = rng.standard_normal(d)
            t -= np.dot(t, s) * s
            tangents.append(t / np.linalg.norm(t))
        entries.append((s, np.asarray(tangents)))
    return DistributionSamples(d, entries)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=6)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    d = args.dim

    print(f"dimension {d}; angles are to the planted class, radians\n")
    header = f"{'points':>7} {'operator':<12} {'gap':>10} {'residual':>10} {'angle':>10}"
    print(header)
    for count in (d + 2, d + 6, d + 14, d + 30):
        for name, planted in (
            ("dense", random_skew(d, 1)),
            ("singular", block_diagonal_skew(d, [1.0] * (d // 2 - 1))),
        ):
            gaps, residuals, angles = [], [], []
            for seed in range(args.seeds):
                points = unit_sphere_samples(d, count, 100 + seed)[d:]
                fit = fit_skew_from_samples(distribution_samples(planted, points))
                gaps.append(fit.gap)
                residuals.append(fit.residual)
                angles.append(line_angle(fit.skew, planted))
            print(
                f"{count - d:>7} {name:<12} {np.median(gaps):>10.3e} "
                f"{np.median(residuals):>10.3e} {np.median(angles):>10.3e}"
            )

    baseline = [
        fit_skew_from_samples(random_samples(d, d + 30, 200 + seed)).residual
        for seed in range(args.seeds)
    ]
    print(f"\nrandom-tangent baseline residual (median): {np.median(baseline):.3e}")
    print("a gap near zero marks sample sets that several classes fit equally well")


if __name__ == "__main__":
    main()
