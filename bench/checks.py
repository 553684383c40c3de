"""Output checks: each curvlab process against the parameters planted in its input.

``check(step, code, stdout, stderr)`` returns a list of problems; an empty
list means the process did what the planted input requires.  Tolerances
are relative to the size of the planted tensor or operator and far above
rounding error, so any failure is a wrong answer, not noise.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import Step, standard_j

REL_TOL = 1e-8       # kappa, c, A entries, relative to max(1, scale)
ANGLE_TOL = 1e-6     # radians, planes and projective classes
OVERLAP_TOL = 1e-8   # |<t, A s>| for a fitted, Frobenius-normalized A


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def plane_angle(p: np.ndarray, q: np.ndarray) -> float:
    """Largest principal angle between the column spans of p and q."""
    p, _ = np.linalg.qr(p)
    q, _ = np.linalg.qr(q)
    if p.shape[1] != q.shape[1]:
        return float(np.pi / 2)
    sines = np.linalg.svd(p - q @ (q.T @ p), compute_uv=False)
    return float(np.arcsin(min(1.0, sines.max())))


def line_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between the lines spanned by two matrices (sign ignored)."""
    cosine = abs(float(np.sum(a * b))) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(min(1.0, cosine)))


def _close(value, planted: float, scale: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - planted) <= REL_TOL * max(1.0, scale)


def _check_rejection(expect, code, report, stderr) -> list[str]:
    name = expect["reject"]
    if code != 2:
        return [f"expected rejection {name} with exit 2, got exit {code}"]
    if report is not None:
        if report.get("status") != "rejected" or report.get("reason") != name:
            return [f"expected rejection {name}, report says "
                    f"{report.get('status')}/{report.get('reason')}"]
        return []
    if f"rejected ({name})" not in stderr:
        return [f"expected rejection {name}, stderr says {stderr.strip()[:200]!r}"]
    return []


def _check_generate(expect, results, report) -> list[str]:
    problems = []
    params = report.get("params", {})
    if params.get("dim") != expect["dim"] or params.get("kappa") != expect["kappa"] \
            or params.get("tau") != expect["tau"]:
        problems.append(f"params echoed wrongly: {params}")
    output = report.get("output", {})
    if output.get("sha256") != sha256(expect["out"]):
        problems.append("reported sha256 differs from the written file")
    a = expect["A"]
    top = float(np.linalg.svd(a, compute_uv=False)[0]) if np.any(a) else 0.0
    edge = expect["kappa"] + 3.0 * expect["tau"] * top**2
    lam = results.get("lambda_range")
    want = sorted([expect["kappa"], edge])
    if not (isinstance(lam, list) and len(lam) == 2
            and all(_close(x, y, abs(edge)) for x, y in zip(lam, want))):
        problems.append(f"lambda_range {lam} differs from {want}")
    return problems


def _check_decompose(expect, results, report) -> list[str]:
    problems = []
    a = expect["A"]
    scale = max(abs(expect["kappa"]), 3.0 * float(np.max(np.abs(a))) ** 2)
    if results.get("tau") != expect["tau"]:
        problems.append(f"tau {results.get('tau')} != planted {expect['tau']}")
    if not _close(results.get("kappa"), expect["kappa"], scale):
        problems.append(f"kappa {results.get('kappa')} != planted {expect['kappa']}")
    got = np.asarray(results.get("A"), dtype=float)
    if got.shape != a.shape:
        problems.append(f"A has shape {got.shape}, planted {a.shape}")
    else:
        err = min(np.max(np.abs(got - a)), np.max(np.abs(got + a)))
        if err > REL_TOL * max(1.0, float(np.max(np.abs(a)))):
            problems.append(f"A differs from planted by {err:.3e} (up to sign)")
    residual = results.get("residual")
    if not isinstance(residual, float) or not 0.0 <= residual <= report.get("tolerance", 0.0):
        problems.append(f"residual {residual} exceeds tolerance {report.get('tolerance')}")
    return problems


def _check_classify(expect, results, report) -> list[str]:
    case = results.get("case")
    if case != expect["case"]:
        return [f"case {case} != planted case {expect['case']}"]
    if case == 3:
        if not _close(results.get("kappa"), expect["kappa"], 4.0):
            return [f"kappa {results.get('kappa')} != planted {expect['kappa']}"]
        return []
    problems = []
    if not _close(results.get("c"), expect["c"], abs(expect["c"])):
        problems.append(f"c {results.get('c')} != planted {expect['c']}")
    with open(expect["A_file"], encoding="utf-8") as handle:
        a = np.asarray(json.load(handle)["matrix"], dtype=float)
    d = a.shape[0]
    planted_plane = standard_j(d).T @ a   # A = sqrt|c| J P_W, so -J A spans W
    u, singular, _ = np.linalg.svd(planted_plane)
    planted_plane = u[:, singular > 1e-12 * singular[0]]
    w = np.asarray(results.get("W"), dtype=float)
    if w.ndim != 2 or w.shape[1:] != (d,):
        return problems + [f"W has shape {w.shape}"]
    angle = plane_angle(w.T, planted_plane)
    if angle > ANGLE_TOL:
        problems.append(f"W is {angle:.3e} rad from the planted plane")
    return problems


def _check_fit(expect, results, report) -> list[str]:
    problems = []
    a = np.asarray(results.get("A"), dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or abs(np.linalg.norm(a) - 1.0) > 1e-9:
        return [f"fitted A is not a Frobenius-unit square matrix: shape {a.shape}"]
    worst = max(float(np.max(np.abs(t @ (a @ s)))) for s, t in expect["entries"])
    if worst > OVERLAP_TOL:
        problems.append(f"fitted A leaves overlap {worst:.3e} on a sampled tangent")
    residual = results.get("residual")
    if not isinstance(residual, float) or residual > OVERLAP_TOL:
        problems.append(f"reported residual {residual} is not near zero")
    if expect["planted"] is not None:
        angle = line_angle(a, expect["planted"])
        if angle > ANGLE_TOL:
            problems.append(f"fit is {angle:.3e} rad from the planted class")
    return problems


CHECKERS = {
    "generate": _check_generate,
    "decompose": _check_decompose,
    "classify": _check_classify,
    "fit-distribution": _check_fit,
}


def check(step: Step, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one process's exit code and output; [] when correct."""
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {stdout[:200]!r}"]
    if "reject" in step.expect:
        return _check_rejection(step.expect, code, report, stderr)
    if code != 0:
        return [f"exit {code}: {stderr.strip()[:200]!r}"]
    if report is None or report.get("status") != "ok" or report.get("command") != step.command:
        return [f"report is not an ok {step.command} report"]
    return CHECKERS[step.command](step.expect, report.get("results", {}), report)
