#!/usr/bin/env python3
"""Build one representative tensor per classification case and classify it.

Writes the tensor files to an output directory (default: ./gallery) so the
CLI can be exercised against them, and prints what the classifier recovered
next to the generating parameters.  The quaternionic counterexample is
included to show a tensor that passes the almost-isotropy scan yet fails
the Kahler screen.
"""

import argparse
import pathlib

import numpy as np

from curvlab import (
    NotKahler,
    almost_isotropy_scan,
    build_model,
    build_r1,
    classify_kahler,
    save_tensor,
    standard_complex_structure,
)
from curvlab.models import (
    case2_instance,
    case3_instance,
    case4_instance,
    holomorphic_plane,
    quaternion_instance,
    random_unit,
    two_plane_operator,
)


def describe(result) -> str:
    if result.case == 1:
        return f"case 1: kappa = {result.kappa:.6g}"
    if result.case == 2:
        return (
            f"case 2: kappa = {result.kappa:.6g}, tau = {result.tau}, "
            f"mu = ({result.mu1:.6g}, {result.mu2:.6g})"
        )
    if result.case == 3:
        return f"case 3: kappa = {result.kappa:.6g} (holomorphic curvature {4 * result.kappa:.6g})"
    return f"case 4: c = {result.c:.6g}, plane dimension {result.w.dimension}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="gallery", help="where to write tensor files")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    gallery = [
        ("surface", 0.75 * build_r1(2), standard_complex_structure(2)),
    ]
    instance = case2_instance(args.seed)
    gallery.append(("two-plane", instance["tensor"], instance["j"]))
    # mu1 - mu2 = 1e-8: ten times the Case 2 / Case 3 boundary of the default tolerance
    j = standard_complex_structure(4)
    w1 = holomorphic_plane(j, random_unit(4, np.random.default_rng(args.seed)))
    mu1, mu2 = 1.0 + 1e-8, 1.0
    a, _ = two_plane_operator(j, mu1, mu2, w1)
    gallery.append(("two-plane-near", build_model(mu1 * mu2, 1, a), j))
    instance = case3_instance(6, -1.0)
    gallery.append(("space-form", instance["tensor"], instance["j"]))
    instance = case4_instance(6, 2.0, seed=args.seed)
    gallery.append(("flat-plane", instance["tensor"], instance["j"]))

    print(f"{'name':<14} {'scan kappa':>12}  classification")
    for name, tensor, j in gallery:
        path = out / f"{name}.json"
        save_tensor(tensor, path)
        scan = almost_isotropy_scan(tensor)
        result = classify_kahler(tensor, j)
        print(f"{name:<14} {scan.kappa:>12.6g}  {describe(result)}")

    quaternion = quaternion_instance()
    path = out / "quaternion.json"
    save_tensor(quaternion["tensor"], path)
    scan = almost_isotropy_scan(quaternion["tensor"])
    try:
        classify_kahler(quaternion["tensor"], quaternion["j"])
        verdict = "unexpectedly accepted"
    except NotKahler as exc:
        verdict = f"rejected ({exc})"
    print(f"{'quaternion':<14} {scan.kappa:>12.6g}  {verdict}")
    print(f"\ntensor files written to {out}/")


if __name__ == "__main__":
    main()
