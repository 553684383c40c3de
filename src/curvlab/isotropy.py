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
    canonical_sign_columns,
    canonical_sign_matrix,
    require_tol,
    require_unit,
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


def _complement_basis(s: np.ndarray) -> np.ndarray:
    """Columns spanning s-perp (deterministic for identical s)."""
    return Subspace.span([s]).complement().basis


def _jacobi_eigs_on_complement(r: CurvatureTensor, s: np.ndarray):
    """Eigendata of the Jacobi operator restricted to the hyperplane s-perp."""
    q = _complement_basis(s)
    restricted = q.T @ jacobi_operator(r, s) @ q
    eigenvalues, vectors = symmetric_spectrum(restricted)
    return eigenvalues, vectors, q


def _tightest_window(eigenvalues: np.ndarray, size: int) -> tuple[int, float]:
    """Start index and width of the tightest window of ``size`` sorted values."""
    starts = len(eigenvalues) - size + 1
    widths = [eigenvalues[i + size - 1] - eigenvalues[i] for i in range(starts)]
    best = int(np.argmin(widths))
    return best, float(widths[best])


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
    s = require_unit(s)
    eigenvalues, _, _ = _jacobi_eigs_on_complement(r, s)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    size = max(1, r.dim - 2)
    start, width = _tightest_window(eigenvalues, size)
    if width > tol * scale:
        raise NoDominantEigenvalue(
            f"no eigenvalue cluster of size {size}: tightest width {width:.3e}"
        )
    kappa_s = float(np.mean(eigenvalues[start:start + size]))
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
    samples = unit_sphere_samples(d, n_samples, seed)
    spectra = np.empty((n_samples, d - 1))
    for row, s in enumerate(samples):
        spectra[row], _, _ = _jacobi_eigs_on_complement(r, s)
    scale = max(1.0, float(np.max(np.abs(spectra))))

    if d == 3:
        kappa = _consensus_kappa_d3(spectra, tol, scale)
    else:
        size = max(1, d - 2)
        clustered = []
        centers = []
        for row in range(n_samples):
            start, width = _tightest_window(spectra[row], size)
            center = float(np.mean(spectra[row, start:start + size]))
            centers.append(center)
            if width <= tol * scale:
                clustered.append(center)
        if clustered:
            spread = max(clustered) - min(clustered)
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
    s = require_unit(s)
    return float(np.trace(jacobi_operator(r, s)) - (r.dim - 2) * kappa)


def eigenspace_at(r: CurvatureTensor, kappa: float, s, tol: float = DEFAULT_TOL) -> Subspace:
    """The kappa-eigenspace of the Jacobi operator restricted to s-perp."""
    s = require_unit(s)
    eigenvalues, vectors, q = _jacobi_eigs_on_complement(r, s)
    scale = max(1.0, abs(kappa), float(np.max(np.abs(eigenvalues))))
    keep = np.abs(eigenvalues - kappa) <= tol * scale
    lifted = q @ vectors[:, keep]
    return Subspace(r.dim, canonical_sign_columns(lifted))


def _deviation_matrix(r: CurvatureTensor, kappa: float, s: np.ndarray) -> np.ndarray:
    """(J_s - kappa * proj_{s-perp}) / 3; for models this is tau (As)(As)^T."""
    eye = np.eye(r.dim)
    return (jacobi_operator(r, s) - kappa * (eye - np.outer(s, s))) / 3.0


def _column_candidates(r, kappa, tol, scale):
    """Per basis vector: tau sign and |A e_i| up to sign, from rank-one deviations."""
    d = r.dim
    eye = np.eye(d)
    columns = np.zeros((d, d))
    signs = np.zeros(d)
    for i in range(d):
        deviation = _deviation_matrix(r, kappa, eye[i])
        eigenvalues, vectors = symmetric_spectrum(deviation)
        order = np.argsort(np.abs(eigenvalues))[::-1]
        top = eigenvalues[order[0]]
        if abs(eigenvalues[order[1]]) > tol * scale:
            raise NotAlmostIsotropic(
                f"Jacobi deviation at basis vector {i} has rank above one "
                f"(second eigenvalue {eigenvalues[order[1]]:.3e})"
            )
        if abs(top) <= tol * scale:
            continue  # basis vector sits in the kernel of A
        signs[i] = np.sign(top)
        column = np.sqrt(abs(top)) * vectors[:, order[0]]
        column[i] = 0.0  # A e_i is orthogonal to e_i for skew A
        columns[:, i] = column
    return columns, signs


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
    anchor = list(components[0])
    for component in components[1:]:
        i = max(anchor, key=lambda idx: norms[idx])
        j = max(component, key=lambda idx: norms[idx])
        s = np.zeros(columns.shape[0])
        s[i] = 1.0
        s[j] = 1.0
        s /= np.linalg.norm(s)
        observed = _deviation_matrix(r, kappa, s)
        residuals = {}
        for relative in (1.0, -1.0):
            a_s = (eps[i] * columns[:, i] + relative * eps[j] * columns[:, j]) / np.sqrt(2.0)
            residuals[relative] = float(np.max(np.abs(observed - tau * np.outer(a_s, a_s))))
        best = 1.0 if residuals[1.0] <= residuals[-1.0] else -1.0
        if best < 0:
            for idx in component:
                eps[idx] = -eps[idx]
        anchor.extend(component)
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
