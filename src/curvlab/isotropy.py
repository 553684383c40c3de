"""Almost isotropy detection and inversion of the model decomposition.

A tensor is almost isotropic with constant kappa when every Jacobi
operator satisfies rank(J_s - kappa * Id on s-perp) <= 1.  For a model
tensor the deviation (J_s - kappa * Id) / 3 equals tau (As)(As)^T, which
is what :func:`recover_decomposition` exploits: it reads one anchor
eigenpair plus polarized slices, taking one column of A from the largest
deviation at a basis vector and every other column, with a consistent
sign, from the tensor's slices polarized in that basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureTensor, _max_abs, _model_conventions, _model_slab, jacobi_operator
from .errors import (
    InconsistentKappa,
    InconsistentTau,
    NoDominantEigenvalue,
    NotAlmostIsotropic,
    SignResolutionFailure,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    canonical_sign_matrix,
    require_tol,
    require_within,
    scale_of,
    symmetric_spectrum,
    threshold,
    unit_sphere_samples,
)


@dataclass(frozen=True)
class IsotropyReport:
    """Outcome of a sphere scan for almost isotropy.

    ``worst_rank_residual`` is the largest second deviation of any sampled
    Jacobi spectrum from kappa, i.e. the size of the part that a rank-one
    perturbation cannot explain.
    """

    kappa: float
    is_isotropic: bool
    is_almost_isotropic: bool
    worst_rank_residual: float
    samples_used: int

    def __post_init__(self):
        if self.is_isotropic and not self.is_almost_isotropic:
            raise ValueError("isotropic implies almost isotropic")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Model parameters (kappa, tau, A) with the reconstruction residual.

    ``skew`` carries the canonical global sign (first row-major nonzero
    entry positive); the opposite sign produces the identical tensor.
    ``residual`` is ||R - kappa R1 - tau RA|| / max(1, ||R||) in max norm.
    """

    kappa: float
    tau: int
    skew: np.ndarray
    residual: float

    def __post_init__(self):
        _model_conventions(self.kappa, self.tau, self.skew, None)
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def _spectra_on_complement(r: CurvatureTensor, samples) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (n, d-1) and eigenvectors (n, d, d-1) of each J_s on s-perp.

    J_s kills s, so subtracting shift * s s^T, shift above the spectral norm,
    makes (-shift, s) the lowest eigenpair and leaves the rest in place; that
    pair is dropped.  The kept eigenvectors are orthogonal to s even when
    kappa = 0 puts the eigenvalue of s inside the kappa-cluster.  The bound
    is the largest absolute row sum: it squares nothing, so it stays finite
    where the Frobenius norm would overflow (|J_s| above about 1e154).
    """
    samples = np.asarray(samples, dtype=float)
    # near the float max the stack or the shift overflows to inf and eigh
    # raises NumericalFailure; numpy's warnings on the way are not printed
    with np.errstate(over="ignore", invalid="ignore"):
        jac = jacobi_operator(r, samples)
        shift = 1.0 + 2.0 * np.abs(jac).sum(axis=2).max(axis=1)
        deflated = jac - shift[:, None, None] * (samples[:, :, None] * samples[:, None, :])
    eigenvalues, vectors = symmetric_spectrum(deflated)
    return eigenvalues[:, 1:], vectors[:, :, 1:]


def _tightest_windows(spectra: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of sorted values: mean and width of the tightest ``size``-window."""
    windows = np.lib.stride_tricks.sliding_window_view(spectra, size, axis=1)
    widths = windows[:, :, -1] - windows[:, :, 0]
    best = np.argmin(widths, axis=1)
    rows = np.arange(spectra.shape[0])
    return windows[rows, best].mean(axis=1), widths[rows, best]


def kappa_at(r: CurvatureTensor, s, tol: float = DEFAULT_TOL) -> tuple[float, int]:
    """Per-sample isotropy constant: the Jacobi eigenvalue of multiplicity >= d-2.

    Returns the clustered eigenvalue and its multiplicity on s-perp.  In
    dimension 3 a single sample cannot distinguish kappa from the extremal
    eigenvalue; use :func:`almost_isotropy_scan`, which votes across
    samples, instead.
    """
    if r.dim == 3:
        raise ValueError(
            "kappa is ambiguous at a single sample in dimension 3; "
            "use almost_isotropy_scan"
        )
    (eigenvalues,), _ = _spectra_on_complement(r, [s])
    limit = threshold(tol, eigenvalues)
    size = max(1, r.dim - 2)
    centers, widths = _tightest_windows(eigenvalues[None], size)
    require_within(widths[0], limit, NoDominantEigenvalue,
                   f"no eigenvalue cluster of size {size}: tightest width")
    kappa_s = float(centers[0])
    multiplicity = int(np.sum(np.abs(eigenvalues - kappa_s) <= limit))
    return kappa_s, multiplicity


def _consensus_kappa_d3(spectra: np.ndarray, limit: float) -> float:
    # every observed eigenvalue is a candidate; pick the one that some
    # eigenvalue of every sample comes closest to matching
    candidates = np.unique(spectra.ravel())
    per_sample_min = np.abs(spectra[:, :, None] - candidates[None, None, :]).min(axis=1)
    worst = per_sample_min.max(axis=0)
    order = np.lexsort((candidates, worst))
    best = candidates[order[0]]
    matched = spectra[np.arange(spectra.shape[0]),
                      np.abs(spectra - best).argmin(axis=1)]
    close = matched[np.abs(matched - best) <= limit]
    return float(np.mean(close)) if close.size else float(best)


def almost_isotropy_scan(r: CurvatureTensor, *, tol: float = DEFAULT_TOL) -> IsotropyReport:
    """Scan sampled unit vectors for a shared isotropy constant.

    The samples are always the same max(2d, 12) unit vectors: e_1..e_d,
    then normalized Gaussian draws from ``numpy.random.default_rng(0)``
    (``unit_sphere_samples(d, max(2d, 12))``).
    Every sampled Jacobi spectrum is tested for an eigenvalue cluster of
    multiplicity d-2; the clustered values must agree on a single kappa
    (``InconsistentKappa`` otherwise).  Samples whose spectrum has no such
    cluster do not abort the scan: they mark the report as not almost
    isotropic, with kappa estimated best-effort, so that broken inputs
    still produce a diagnosable report.
    """
    return _scan(r, tol)[0]


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-d array, bit for bit, without importing ``numpy.ma``.

    The middle element of the sorted values, or the mean ``(a + b) / 2`` of
    the two middle ones, which is the sum and division ``np.median`` does.
    """
    ordered = np.sort(values)
    half = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _scan(r, tol):
    """The scan's report, the eigenvalues and eigenvectors it computed, and its threshold."""
    d = r.dim
    samples = unit_sphere_samples(d, max(2 * d, 12))
    spectra, vectors = _spectra_on_complement(r, samples)
    limit = threshold(tol, spectra)

    if d == 3:
        kappa = _consensus_kappa_d3(spectra, limit)
    else:
        centers, widths = _tightest_windows(spectra, max(1, d - 2))
        clustered = centers[widths <= limit]
        if clustered.size:
            require_within(float(clustered.max() - clustered.min()), limit,
                           InconsistentKappa, "per-sample constants disagree by")
            kappa = float(np.mean(clustered))
        else:
            kappa = _median(centers)

    deviations = np.sort(np.abs(spectra - kappa), axis=1)[:, ::-1]
    worst_full = float(deviations[:, 0].max())
    worst_rank = float(deviations[:, 1].max()) if d - 1 >= 2 else 0.0
    report = IsotropyReport(
        kappa=kappa,
        is_isotropic=worst_full <= limit,
        is_almost_isotropic=worst_rank <= limit,
        worst_rank_residual=worst_rank,
        samples_used=len(samples),
    )
    return report, spectra, vectors, limit


def extremal_curvature(r: CurvatureTensor, kappa: float, s) -> float:
    """trace(J_s on s-perp) - (d - 2) kappa: the eigenvalue off the cluster."""
    return float(np.trace(jacobi_operator(r, s)) - (r.dim - 2) * kappa)


def eigenspace_at(r: CurvatureTensor, kappa: float, s, tol: float = DEFAULT_TOL) -> Subspace:
    """The kappa-eigenspace of the Jacobi operator restricted to s-perp."""
    (eigenvalues,), (vectors,) = _spectra_on_complement(r, [s])
    keep = np.abs(eigenvalues - kappa) <= threshold(tol, np.append(eigenvalues, kappa))
    return Subspace(r.dim, vectors[:, keep])


def _model_columns(r, eigenvalues, vectors, kappa, limit):
    """tau and the columns of A, up to one global sign, from one anchor column.

    Takes the spectra of J_{e_i} on e_i-perp, i = 1..d.  There the deviation
    (J_{e_i} - kappa) / 3 is tau (A e_i)(A e_i)^T for a model; the scan has
    already decided that its rank is at most one.  At the basis
    vector a with the largest deviation, its top eigenpair (top, u) gives
    the anchor column A e_a = sqrt|top| u.  Polarizing J in e_a and e_b
    gives the slice D_b = (R[., a, b, .] + R[., b, a, .] + kappa (e_a e_b^T
    + e_b e_a^T)) / 3 = tau (A e_a (A e_b)^T + A e_b (A e_a)^T), so every
    other column is A e_b = (D_b u - u (u . D_b u) / 2) / (tau sqrt|top|).
    Columns are returned as rows: ``rows[b]`` is A e_b.
    """
    d = vectors.shape[1]
    deviations = (eigenvalues - kappa) / 3.0
    order = np.argsort(np.abs(deviations), axis=1)
    top = np.take_along_axis(deviations, order[:, -1:], axis=1)[:, 0]
    signs = np.sign(top[np.abs(top) > limit])  # basis vectors in ker(A) give none
    if signs.size == 0:
        return 0, np.zeros((d, d))
    if np.any(signs != signs[0]):
        raise InconsistentTau("rank-one deviations carry both signs across basis vectors")
    tau = int(signs[0])
    a = int(np.argmax(np.abs(top)))
    u = vectors[a, :, order[a, -1]].copy()
    u[a] = 0.0  # A e_a is orthogonal to e_a for skew A
    length = np.sqrt(abs(top[a]))
    # row b is 3 D_b u before its kappa term; e_b e_a^T u is 0 since u[a] = 0
    slices = np.tensordot(u, r.components[:, a] + r.components[:, :, a], axes=1)
    slices[:, a] += kappa * u
    slices /= 3.0
    rows = (slices - np.outer(slices @ u / 2.0, u)) / (tau * length)
    rows[a] = length * u
    return tau, rows


def recover_decomposition(r: CurvatureTensor, tol: float = DEFAULT_TOL) -> Decomposition:
    """Invert the model form: find (kappa, tau, A) with R = kappa R1 + tau RA.

    Steps: estimate kappa and decide rank(J_s - kappa) <= 1 by sphere scan,
    the one home of that condition; read the shared sign tau from the
    deviations at the basis vectors; recover A from one anchor eigenpair
    plus polarized slices (see ``_model_columns``); canonicalize the global
    sign; verify the reconstruction residual, which is the final check.

    The basis-vector spectra come from the scan, whose fixed n = max(2d, 12)
    samples start with e_1..e_d (see :func:`almost_isotropy_scan`), and the
    residual is read one model slab at a time (see ``curvature._model_slab``),
    so the model is never built: O(n d^4) time and O(n d^2 + d^3) memory
    beyond the tensor.
    """
    tol = require_tol(tol)
    d = r.dim
    try:
        report, spectra, vectors, scan_limit = _scan(r, tol)
    except InconsistentKappa as exc:
        raise NotAlmostIsotropic(str(exc)) from exc
    require_within(report.worst_rank_residual, scan_limit, NotAlmostIsotropic, "worst rank residual")
    kappa = report.kappa
    max_abs = r.max_abs
    tau, rows = _model_columns(r, spectra[:d], vectors[:d], kappa, threshold(tol, max_abs))
    skew = (rows.T - rows) / 2.0
    skew = canonical_sign_matrix(skew, zero_tol=threshold(tol, skew))

    # max |R - model| one model slab at a time, never building the model
    slab, scratch = np.empty((d,) * 3), np.empty((d,) * 3)
    residual = 0.0
    for i in range(d):
        _model_slab(slab, i, kappa, tau, skew, scratch)
        residual = max(residual, _max_abs(np.subtract(slab, r.components[i], out=slab)))
    residual /= scale_of(max_abs)
    require_within(residual, tol, SignResolutionFailure, "reconstruction residual")
    return Decomposition(kappa=kappa, tau=tau, skew=skew, residual=residual)
