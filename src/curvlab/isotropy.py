"""Almost isotropy detection and inversion of the model decomposition.

A tensor is almost isotropic with constant kappa when every Jacobi
operator satisfies rank(J_s - kappa * Id on s-perp) <= 1.  For a model
tensor the deviation (J_s - kappa * Id) / 3 equals tau (As)(As)^T, which
is what :func:`recover_decomposition` exploits: it reads off each column
of A up to sign from the deviations at basis vectors, then resolves the
signs through skew symmetry and, across disconnected column blocks,
through probes at mixed directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureTensor, build_model, jacobi_operator
from .errors import (
    ConventionViolation,
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
    scale_of,
    symmetric_spectrum,
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
        if self.tau not in (-1, 0, 1):
            raise ConventionViolation(f"tau must be -1, 0, or +1, got {self.tau!r}")
        if (self.tau == 0) != (not np.any(self.skew)):
            raise ConventionViolation("tau must be 0 exactly when A = 0")
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
    tol = require_tol(tol)
    if r.dim == 3:
        raise ValueError(
            "kappa is ambiguous at a single sample in dimension 3; "
            "use almost_isotropy_scan"
        )
    (eigenvalues,), _ = _spectra_on_complement(r, [s])
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    size = max(1, r.dim - 2)
    centers, widths = _tightest_windows(eigenvalues[None], size)
    if widths[0] > tol * scale:
        raise NoDominantEigenvalue(
            f"no eigenvalue cluster of size {size}: tightest width {widths[0]:.3e}"
        )
    kappa_s = float(centers[0])
    multiplicity = int(np.sum(np.abs(eigenvalues - kappa_s) <= tol * scale))
    return kappa_s, multiplicity


def _consensus_kappa_d3(spectra: np.ndarray, tol: float, scale: float) -> float:
    # every observed eigenvalue is a candidate; pick the one that some
    # eigenvalue of every sample comes closest to matching
    candidates = np.unique(spectra.ravel())
    per_sample_min = np.abs(spectra[:, :, None] - candidates[None, None, :]).min(axis=1)
    worst = per_sample_min.max(axis=0)
    order = np.lexsort((candidates, worst))
    best = candidates[order[0]]
    matched = spectra[np.arange(spectra.shape[0]),
                      np.abs(spectra - best).argmin(axis=1)]
    close = matched[np.abs(matched - best) <= tol * scale]
    return float(np.mean(close)) if close.size else float(best)


def almost_isotropy_scan(
    r: CurvatureTensor,
    n_samples: int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> IsotropyReport:
    """Scan sampled unit vectors for a shared isotropy constant.

    Every sampled Jacobi spectrum is tested for an eigenvalue cluster of
    multiplicity d-2; the clustered values must agree on a single kappa
    (``InconsistentKappa`` otherwise).  Samples whose spectrum has no such
    cluster do not abort the scan: they mark the report as not almost
    isotropic, with kappa estimated best-effort, so that broken inputs
    still produce a diagnosable report.
    """
    tol = require_tol(tol)
    d = r.dim
    if n_samples is None:
        n_samples = max(2 * d, 12)
    if n_samples < 1:
        raise ValueError("scan needs at least one sample")
    spectra, _ = _spectra_on_complement(r, unit_sphere_samples(d, n_samples, seed))
    scale = max(1.0, float(np.max(np.abs(spectra))))

    if d == 3:
        kappa = _consensus_kappa_d3(spectra, tol, scale)
    else:
        centers, widths = _tightest_windows(spectra, max(1, d - 2))
        clustered = centers[widths <= tol * scale]
        if clustered.size:
            spread = float(clustered.max() - clustered.min())
            if spread > tol * scale:
                raise InconsistentKappa(
                    f"per-sample constants disagree by {spread:.3e} "
                    f"(tolerance {tol * scale:.3e})"
                )
            kappa = float(np.mean(clustered))
        else:
            kappa = float(np.median(centers))

    deviations = np.sort(np.abs(spectra - kappa), axis=1)[:, ::-1]
    worst_full = float(deviations[:, 0].max())
    worst_rank = float(deviations[:, 1].max()) if d - 1 >= 2 else 0.0
    return IsotropyReport(
        kappa=kappa,
        is_isotropic=worst_full <= tol * scale,
        is_almost_isotropic=worst_rank <= tol * scale,
        worst_rank_residual=worst_rank,
        samples_used=n_samples,
    )


def extremal_curvature(r: CurvatureTensor, kappa: float, s) -> float:
    """trace(J_s on s-perp) - (d - 2) kappa: the eigenvalue off the cluster."""
    return float(np.trace(jacobi_operator(r, s)) - (r.dim - 2) * kappa)


def eigenspace_at(r: CurvatureTensor, kappa: float, s, tol: float = DEFAULT_TOL) -> Subspace:
    """The kappa-eigenspace of the Jacobi operator restricted to s-perp."""
    tol = require_tol(tol)
    (eigenvalues,), (vectors,) = _spectra_on_complement(r, [s])
    scale = max(1.0, abs(kappa), float(np.max(np.abs(eigenvalues))))
    keep = np.abs(eigenvalues - kappa) <= tol * scale
    return Subspace(r.dim, vectors[:, keep])


def _column_candidates(r, kappa, tol, scale):
    """Per basis vector: tau sign and |A e_i| up to sign, from rank-one deviations.

    On e_i-perp the deviation (J_{e_i} - kappa) / 3 is tau (A e_i)(A e_i)^T
    for a model, so its largest eigenpair carries the column.
    """
    d = r.dim
    eigenvalues, vectors = _spectra_on_complement(r, np.eye(d))
    deviations = (eigenvalues - kappa) / 3.0
    order = np.argsort(np.abs(deviations), axis=1)
    ranked = np.take_along_axis(deviations, order, axis=1)
    bad = np.flatnonzero(np.any(np.abs(ranked[:, :-1]) > tol * scale, axis=1))
    if bad.size:
        raise NotAlmostIsotropic(
            f"Jacobi deviation at basis vector {bad[0]} has rank above one "
            f"(second eigenvalue {ranked[bad[0], -2]:.3e})"
        )
    top = ranked[:, -1]
    present = np.abs(top) > tol * scale  # basis vectors in ker(A) give no column
    columns = np.sqrt(np.abs(top) * present) * vectors[np.arange(d), :, order[:, -1]].T
    np.fill_diagonal(columns, 0.0)  # A e_i is orthogonal to e_i for skew A
    return columns, np.where(present, np.sign(top), 0.0)


def _sign_components(columns: np.ndarray, nonzero: np.ndarray, theta: float):
    """Connected components of columns linked by usable skew-symmetry overlaps.

    Overlap between columns i and j fixes the relative sign via
    <e_j, A e_i> = -<e_i, A e_j>; component-internal signs follow by BFS.
    """
    adjacency: dict[int, list[tuple[int, float]]] = {int(i): [] for i in nonzero}
    for pos, i in enumerate(nonzero):
        for j in nonzero[pos + 1:]:
            if abs(columns[j, i]) > theta and abs(columns[i, j]) > theta:
                relative = -1.0 if columns[j, i] * columns[i, j] > 0 else 1.0
                adjacency[int(i)].append((int(j), relative))
                adjacency[int(j)].append((int(i), relative))
    eps = np.zeros(columns.shape[0])
    components: list[list[int]] = []
    for i in nonzero:
        if eps[i] != 0.0:
            continue
        eps[i] = 1.0
        component = [int(i)]
        queue = [int(i)]
        while queue:
            node = queue.pop()
            for neighbor, relative in adjacency[node]:
                if eps[neighbor] == 0.0:
                    eps[neighbor] = eps[node] * relative
                    component.append(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    return eps, components


def _merge_components_by_probes(r, kappa, tau, columns, eps, components):
    """Fix relative signs across column blocks with mixed-direction probes.

    A probe at s = (e_i + e_j)/sqrt(2) compares the observed rank-one
    deviation with tau (As)(As)^T for both relative sign choices; the
    mixed terms differ, so exact data always discriminates.
    """
    norms = np.linalg.norm(columns, axis=0)
    heads = [max(component, key=lambda idx: norms[idx]) for component in components]
    # component k is probed from the largest column of components 0..k-1
    anchors = [max(heads[:k], key=lambda idx: norms[idx]) for k in range(1, len(heads))]
    eye = np.eye(columns.shape[0])
    probes = (eye[anchors] + eye[heads[1:]]) / np.sqrt(2.0)
    # (J_s - kappa * proj_{s-perp}) / 3; for models this is tau (As)(As)^T
    ambient = eye - probes[:, :, None] * probes[:, None, :]
    observed = (jacobi_operator(r, probes) - kappa * ambient) / 3.0
    # eps[i] may have flipped in an earlier merge, so merge in order
    for i, j, deviation, component in zip(anchors, heads[1:], observed, components[1:]):
        residuals = []
        for relative in (1.0, -1.0):
            a_s = (eps[i] * columns[:, i] + relative * eps[j] * columns[:, j]) / np.sqrt(2.0)
            residuals.append(float(np.max(np.abs(deviation - tau * np.outer(a_s, a_s)))))
        if residuals[0] > residuals[1]:
            eps[component] = -eps[component]
    return eps


def recover_decomposition(
    r: CurvatureTensor,
    tol: float = DEFAULT_TOL,
    n_samples: int | None = None,
    seed: int = 0,
) -> Decomposition:
    """Invert the model form: find (kappa, tau, A) with R = kappa R1 + tau RA.

    Steps: estimate kappa by sphere scan; extract each |A e_i| and the
    shared sign tau from the rank-one Jacobi deviations at basis vectors;
    resolve column signs by skew symmetry where columns overlap and by
    mixed-direction probes across disjoint blocks; canonicalize the global
    sign; verify the reconstruction residual.
    """
    tol = require_tol(tol)
    d = r.dim
    try:
        report = almost_isotropy_scan(r, n_samples, seed, tol)
    except (InconsistentKappa, NoDominantEigenvalue) as exc:
        raise NotAlmostIsotropic(str(exc)) from exc
    if not report.is_almost_isotropic:
        raise NotAlmostIsotropic(
            f"worst rank residual {report.worst_rank_residual:.3e} exceeds tolerance"
        )
    kappa = report.kappa
    scale = max(1.0, r.max_abs)

    columns, signs = _column_candidates(r, kappa, tol, scale)
    nonzero = np.flatnonzero(signs)

    if nonzero.size == 0:
        tau = 0
        skew = np.zeros((d, d))
    else:
        present = set(signs[nonzero])
        if len(present) > 1:
            raise InconsistentTau(
                "rank-one deviations carry both signs across basis vectors"
            )
        tau = int(signs[nonzero[0]])
        theta = np.sqrt(tol) * float(np.max(np.abs(columns)))
        eps, components = _sign_components(columns, nonzero, theta)
        if len(components) > 1:
            eps = _merge_components_by_probes(r, kappa, tau, columns, eps, components)
        raw = columns * eps[None, :]
        skew = (raw - raw.T) / 2.0
        skew = canonical_sign_matrix(skew, zero_tol=tol * scale_of(skew))

    reconstructed = build_model(kappa, tau, skew if tau != 0 else None, dim=d)
    residual = float(np.max(np.abs(r.components - reconstructed.components)))
    residual /= max(1.0, r.max_abs)
    if residual > tol:
        raise SignResolutionFailure(
            f"reconstruction residual {residual:.3e} exceeds tolerance {tol:g}"
        )
    return Decomposition(kappa=kappa, tau=tau, skew=skew, residual=residual)
