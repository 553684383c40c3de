"""Command-line interface.

Subcommands: generate, classify, decompose, fit-distribution, lemma-suite.
Exit codes: 0 success, 1 unreadable or malformed input (usage errors
included), 2 mathematical rejection (not almost isotropic, not Kahler,
broken convention or structure) or a numerical failure.  For classify and
decompose, --tol is the only override of the default tolerance of 1e-9.
An --A or --J that does not resolve to a skew operator or a complex
structure (the A-spec J at an odd --dim included) is malformed input.

Each ``cmd_*`` returns its report; ``main`` adds the command name, prints
it in the one --format every subcommand takes, and exits 0 when its status
is "ok", else 2.  classify reports the fields of its Case1-Case4 result by
name, a plane as its basis columns under the name upper-cased (W, W1, W2);
lemma-suite reports the fields of each CheckResult.

Each subcommand loads only the modules it runs: the library functions in
``_LAZY`` are module attributes imported on first use, and the commands
call them through the module (``_this.name``), so patching the attribute
replaces the call.  fit-distribution loads errors, linalg, io and sphere;
generate loads errors, linalg, io and curvature, decompose adds isotropy,
and classify adds isotropy and kahler; only lemma-suite loads lemmas and
models.

The process entry -- the ``curvlab`` console script and ``python -m
curvlab.cli``, both ``main()`` with no argv -- calls ``gc.freeze()`` just
before ``sys.exit``: the collections that run at interpreter shutdown then
skip numpy's and curvlab's objects instead of walking them, which takes
about 20 ms off every request.  Streams are still flushed and atexit
callbacks still run; an argparse exit (``--help``, a usage error) or an
uncaught exception ends the process as before.  ``main(argv)`` called in
process returns its exit code and leaves the caller's garbage collector as
it was.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import _lazy_getattr
from . import io as cio
from .errors import (
    CurvlabError,
    InputFormatError,
    MathematicalRejection,
    NonPositiveTolerance,
    ParseError,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    _lapack,
    random_skew,
    require_complex_structure,
    require_skew,
    require_tol,
    standard_complex_structure,
)

_LAZY = {
    "ModelSlabs": "curvature",
    # no command calls build_model: generate streams ModelSlabs into the
    # writer; bench/tracing.py patches the name and needs it to resolve
    "build_model": "curvature",
    "recover_decomposition": "isotropy",
    "classify_kahler": "kahler",
    "fit_skew_from_samples": "sphere",
    "run_suite": "lemmas",
}
__getattr__ = _lazy_getattr(globals(), _LAZY)
_this = sys.modules[__name__]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECTED = 2


def _resolve_tol(flag_value: float | None) -> float:
    if flag_value is None:
        return DEFAULT_TOL
    try:
        return require_tol(flag_value)
    except NonPositiveTolerance as exc:
        raise ParseError(f"--tol must be a finite positive number, got {flag_value!r}") from exc


def _emit(report: dict, fmt: str) -> None:
    """Print ``report``, built of plain JSON values, as JSON or as text (lemma-suite: a table)."""
    render_text = _suite_table if report["command"] == "lemma-suite" else cio.render_text
    print(cio.render_json(report) if fmt == "json" else render_text(report))


def _matrix_file(path: str, dim: int, require) -> np.ndarray:
    """The --A or --J matrix file ``path``: a ``dim`` x ``dim`` matrix that passes ``require``."""
    return cio.as_input(path, require, cio.load_matrix(path, expected_dim=dim))


def _resolve_skew_spec(spec: str, dim: int) -> np.ndarray | None:
    if spec == "zero":
        return None
    if spec == "J":
        return cio.as_input(f"A-spec {spec!r}", standard_complex_structure, dim)
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"invalid random seed in A-spec {spec!r}") from exc
        if seed < 0:
            raise ParseError(f"invalid random seed in A-spec {spec!r}")
        return random_skew(dim, seed)
    return _matrix_file(spec, dim, require_skew)


def cmd_generate(args) -> dict:
    if args.dim < 2:  # before the A-spec, so that the message names the dimension
        raise ParseError(f"dimension must be at least 2, got {args.dim}")
    skew = _resolve_skew_spec(args.skew_spec, args.dim)
    model = _this.ModelSlabs(args.kappa, args.tau, skew if np.any(skew) else None, dim=args.dim)
    cio.save_tensor(model, args.out)
    singular_top = (float(_lapack(np.linalg.svd, skew, compute_uv=False)[0])
                    if np.any(skew) else 0.0)
    lam_edge = args.kappa + 3.0 * args.tau * singular_top**2
    return {
        "params": {"dim": args.dim, "kappa": args.kappa, "tau": args.tau, "A": args.skew_spec},
        "output": {"path": str(args.out), "sha256": cio.file_digest(args.out)},
        "results": {"lambda_range": sorted([args.kappa, lam_edge])},
        "status": "ok",
    }


def _case_payload(result) -> dict:
    """A Case1-Case4 result's fields; a plane as its basis columns, under its name upper-cased."""
    payload = {}
    for name, value in vars(result).items():
        if isinstance(value, Subspace):
            name, value = name.upper(), value.basis.T.tolist()
        payload[name] = value
    return payload


def cmd_classify(args) -> dict:
    tol = _resolve_tol(args.tol)
    tensor = cio.load_tensor(args.tensor, tol)
    j = (standard_complex_structure(tensor.dim) if args.j_spec == "standard"
         else _matrix_file(args.j_spec, tensor.dim, require_complex_structure))
    report = {
        "input": {"path": str(args.tensor), "sha256": cio.file_digest(args.tensor)},
        "tolerance": tol,
    }
    try:
        result = _this.classify_kahler(tensor, j, tol)
    except MathematicalRejection as exc:
        return {**report, "status": "rejected", "reason": type(exc).__name__, "detail": str(exc)}
    return {**report, "status": "ok", "results": _case_payload(result)}


def cmd_decompose(args) -> dict:
    tol = _resolve_tol(args.tol)
    tensor = cio.load_tensor(args.tensor, tol)
    decomposition = _this.recover_decomposition(tensor, tol)
    return {
        "input": {"path": str(args.tensor), "sha256": cio.file_digest(args.tensor)},
        "tolerance": tol,
        "results": {"kappa": decomposition.kappa, "tau": decomposition.tau,
                    "A": decomposition.skew.tolist(), "residual": decomposition.residual},
        "status": "ok",
    }


def cmd_fit_distribution(args) -> dict:
    samples = cio.load_samples(args.samples)
    fit = _this.fit_skew_from_samples(samples)
    return {
        "input": {"path": str(args.samples), "sha256": cio.file_digest(args.samples)},
        "results": {"A": fit.skew.tolist(), "residual": fit.residual, "gap": fit.gap},
        "status": "ok",
    }


def cmd_lemma_suite(args) -> dict:
    try:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"--dims must be comma-separated integers, got {args.dims!r}") from exc
    results = _this.run_suite(dims=dims, trials=args.trials, seed=args.seed)
    return {
        "params": {"dims": dims, "trials": args.trials, "seed": args.seed},
        "results": [vars(result) for result in results],
        "status": "ok" if all(result.passed for result in results) else "failed",
    }


def _suite_table(report: dict) -> str:
    """lemma-suite's text report: one PASS or FAIL line per check, then the count passed."""
    results = report["results"]
    width = max(len(r["name"]) for r in results)
    lines = [f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']:<{width}}  {r['detail']} = "
             f"{r['value']:.3g} (threshold {r['threshold']:g})" for r in results]
    passed = sum(r["passed"] for r in results)
    summary = "all passed" if report["status"] == "ok" else "FAILURES PRESENT"
    return "\n".join([*lines, f"{summary} ({passed}/{len(results)})"])


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

    cls = sub.add_parser("classify", help="classify a Kahler almost isotropic tensor file")
    cls.add_argument("tensor")
    cls.add_argument("--J", dest="j_spec", default="standard",
                     help="'standard' or a path to a matrix JSON file")
    cls.add_argument("--tol", type=float, default=None)

    dec = sub.add_parser("decompose", help="recover (kappa, tau, A) from a tensor file")
    dec.add_argument("tensor")
    dec.add_argument("--tol", type=float, default=None)

    fit = sub.add_parser("fit-distribution",
                         help="fit a skew projective class to sampled tangent data")
    fit.add_argument("samples")

    suite = sub.add_parser("lemma-suite", help="run the seeded structural property suite")
    suite.add_argument("--dims", default="4,6")
    suite.add_argument("--trials", type=int, default=25)
    suite.add_argument("--seed", type=int, default=0)

    for name, command in sub.choices.items():
        command.add_argument("--format", choices=("text", "json"), default="text")
        command.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = {"command": args.subcommand, **args.func(args)}
        _emit(report, args.format)
        code = EXIT_OK if report["status"] == "ok" else EXIT_REJECTED
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except CurvlabError as exc:
        print(f"rejected ({type(exc).__name__}): {exc}", file=sys.stderr)
        code = EXIT_REJECTED
    if argv is None:
        gc.freeze()  # the process ends here; see the module docstring
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
