"""Command-line interface.

Subcommands: generate, classify, decompose, fit-distribution, lemma-suite.
Exit codes: 0 success, 1 unreadable or malformed input (usage errors
included), 2 mathematical rejection (not almost isotropic, not Kahler,
broken convention or structure).  The environment variable CURVLAB_TOL
overrides the default tolerance of 1e-9; a --tol flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as cio
from .curvature import build_model
from .errors import (
    CurvlabError,
    InputFormatError,
    MathematicalRejection,
    NonPositiveTolerance,
    ParseError,
)
from .isotropy import recover_decomposition
from .kahler import Case1, Case2, Case3, classify_kahler
from .lemmas import run_suite
from .linalg import (
    DEFAULT_TOL,
    random_skew,
    require_complex_structure,
    require_tol,
    standard_complex_structure,
)
from .sphere import fit_skew_from_samples

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECTED = 2


def _resolve_tol(flag_value: float | None) -> float:
    if flag_value is not None:
        source, raw = "--tol", flag_value
    else:
        source, raw = "CURVLAB_TOL", os.environ.get("CURVLAB_TOL")
        if raw is None:
            return DEFAULT_TOL
    try:
        return require_tol(raw)
    except NonPositiveTolerance as exc:
        raise ParseError(f"{source} must be a finite positive number, got {raw!r}") from exc


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(cio.render_json(report))
    else:
        print(cio.render_text(report))


def _subspace_payload(subspace) -> list:
    return [column.tolist() for column in subspace.basis.T]


def _resolve_skew_spec(spec: str, dim: int) -> np.ndarray:
    if spec == "zero":
        return np.zeros((dim, dim))
    if spec == "J":
        return standard_complex_structure(dim)
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"invalid random seed in A-spec {spec!r}") from exc
        return random_skew(dim, seed)
    return cio.load_matrix(spec, expected_dim=dim)


def cmd_generate(args) -> int:
    tol = _resolve_tol(args.tol)
    skew = _resolve_skew_spec(args.skew_spec, args.dim)
    tensor = build_model(args.kappa, args.tau, skew if np.any(skew) else None, dim=args.dim)
    cio.save_tensor(tensor, args.out)
    singular_top = float(np.linalg.svd(skew, compute_uv=False)[0]) if np.any(skew) else 0.0
    lam_edge = args.kappa + 3.0 * args.tau * singular_top**2
    report = {
        "command": "generate",
        "params": {
            "dim": args.dim,
            "kappa": args.kappa,
            "tau": args.tau,
            "A": args.skew_spec,
        },
        "tolerance": tol,
        "output": {"path": str(args.out), "sha256": cio.file_digest(args.out)},
        "results": {"lambda_range": sorted([args.kappa, lam_edge])},
        "status": "ok",
    }
    _emit(report, args.format)
    return EXIT_OK


def _case_payload(result) -> dict:
    if isinstance(result, Case1):
        return {"case": 1, "kappa": result.kappa}
    if isinstance(result, Case2):
        return {
            "case": 2,
            "kappa": result.kappa,
            "tau": result.tau,
            "mu1": result.mu1,
            "mu2": result.mu2,
            "W1": _subspace_payload(result.w1),
            "W2": _subspace_payload(result.w2),
        }
    if isinstance(result, Case3):
        return {"case": 3, "kappa": result.kappa}
    return {"case": 4, "c": result.c, "W": _subspace_payload(result.w)}


def cmd_classify(args) -> int:
    tol = _resolve_tol(args.tol)
    tensor = cio.load_tensor(args.tensor, tol)
    if args.j_spec == "standard":
        j = standard_complex_structure(tensor.dim)
    else:
        try:
            j = require_complex_structure(cio.load_matrix(args.j_spec, expected_dim=tensor.dim))
        except ValueError as exc:
            raise ParseError(f"{args.j_spec}: {exc}") from exc
    report = {
        "command": "classify",
        "input": {"path": str(args.tensor), "sha256": cio.file_digest(args.tensor)},
        "tolerance": tol,
    }
    try:
        result = classify_kahler(tensor, j, tol)
    except MathematicalRejection as exc:
        report["status"] = "rejected"
        report["reason"] = type(exc).__name__
        report["detail"] = str(exc)
        _emit(report, args.format)
        return EXIT_REJECTED
    report["status"] = "ok"
    report["results"] = _case_payload(result)
    _emit(report, args.format)
    return EXIT_OK


def cmd_decompose(args) -> int:
    tol = _resolve_tol(args.tol)
    tensor = cio.load_tensor(args.tensor, tol)
    decomposition = recover_decomposition(tensor, tol)
    report = {
        "command": "decompose",
        "input": {"path": str(args.tensor), "sha256": cio.file_digest(args.tensor)},
        "tolerance": tol,
        "results": {
            "kappa": decomposition.kappa,
            "tau": decomposition.tau,
            "A": decomposition.skew.tolist(),
            "residual": decomposition.residual,
        },
        "status": "ok",
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_fit_distribution(args) -> int:
    samples = cio.load_samples(args.samples)
    fit = fit_skew_from_samples(samples)
    report = {
        "command": "fit-distribution",
        "input": {"path": str(args.samples), "sha256": cio.file_digest(args.samples)},
        "results": {
            "A": fit.skew.tolist(),
            "residual": fit.residual,
            "gap": fit.gap,
        },
        "status": "ok",
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_lemma_suite(args) -> int:
    dims = [int(part) for part in args.dims.split(",") if part.strip()]
    results = run_suite(dims=dims, trials=args.trials, seed=args.seed)
    all_passed = all(result.passed for result in results)
    if args.format == "json":
        report = {
            "command": "lemma-suite",
            "params": {"dims": dims, "trials": args.trials, "seed": args.seed},
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "status": "ok" if all_passed else "failed",
        }
        print(cio.render_json(report))
    else:
        width = max(len(result.name) for result in results)
        for result in results:
            flag = "PASS" if result.passed else "FAIL"
            print(f"{flag}  {result.name:<{width}}  {result.detail}")
        print(f"{'all passed' if all_passed else 'FAILURES PRESENT'} "
              f"({sum(r.passed for r in results)}/{len(results)})")
    return EXIT_OK if all_passed else EXIT_REJECTED


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as malformed input (exit 1), not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvlab",
        description="Construct, validate, decompose, and classify almost isotropic "
        "algebraic curvature tensors; fit skew classes to sphere distribution samples.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("generate", help="write a model tensor file kappa*R1 + tau*RA")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--kappa", type=float, required=True)
    gen.add_argument("--tau", type=int, required=True, choices=(-1, 0, 1))
    gen.add_argument("--A", dest="skew_spec", default="zero",
                     help="'zero', 'J', 'random:SEED', or a path to a matrix JSON file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--tol", type=float, default=None)
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.set_defaults(func=cmd_generate)

    cls = sub.add_parser("classify", help="classify a Kahler almost isotropic tensor file")
    cls.add_argument("tensor")
    cls.add_argument("--J", dest="j_spec", default="standard",
                     help="'standard' or a path to a matrix JSON file")
    cls.add_argument("--tol", type=float, default=None)
    cls.add_argument("--format", choices=("text", "json"), default="text")
    cls.set_defaults(func=cmd_classify)

    dec = sub.add_parser("decompose", help="recover (kappa, tau, A) from a tensor file")
    dec.add_argument("tensor")
    dec.add_argument("--tol", type=float, default=None)
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.set_defaults(func=cmd_decompose)

    fit = sub.add_parser("fit-distribution",
                         help="fit a skew projective class to sampled tangent data")
    fit.add_argument("samples")
    fit.add_argument("--format", choices=("text", "json"), default="text")
    fit.set_defaults(func=cmd_fit_distribution)

    suite = sub.add_parser("lemma-suite", help="run the seeded structural property suite")
    suite.add_argument("--dims", default="4,6")
    suite.add_argument("--trials", type=int, default=25)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--format", choices=("text", "json"), default="text")
    suite.set_defaults(func=cmd_lemma_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (InputFormatError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except CurvlabError as exc:
        print(f"rejected ({type(exc).__name__}): {exc}", file=sys.stderr)
        code = EXIT_REJECTED
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
