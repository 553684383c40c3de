"""Codimension-one totally geodesic distributions on the unit sphere.

A nonzero skew operator A induces the distribution
``D[A]_s = span(s, As)-perp`` on the unit sphere; s -> As is a Killing
field, so every great circle is either everywhere or nowhere tangent to
D[A].  This module evaluates the distribution, tests tangency along great
circles, reconstructs the projective class [A] from sampled tangent data
by constrained least squares, and verifies the three-part decomposition of
D[A] at points mixing kernel and non-kernel directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySamples, NotOrthonormal, PreconditionViolated, ZeroOperator
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    canonical_sign_matrix,
    null_space,
    require_skew,
    require_unit,
    scale_of,
    symmetric_spectrum,
)

_SAMPLE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DistributionSamples:
    """Sampled tangent data: pairs of a unit base point and tangent vectors.

    Each entry is ``(s, tangents)`` with s a unit vector and tangents a
    (k, dim) array of unit rows orthogonal to s; k may be zero.
    """

    dim: int
    entries: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        checked = []
        for s, tangents in self.entries:
            s = np.asarray(s, dtype=float)
            tangents = np.asarray(tangents, dtype=float).reshape(-1, self.dim)
            if s.shape != (self.dim,):
                raise ValueError(f"base point has shape {s.shape}, expected ({self.dim},)")
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(tangents))):
                raise ValueError("sample data must be finite")
            if abs(np.linalg.norm(s) - 1.0) > _SAMPLE_TOL:
                raise ValueError("base point is not a unit vector")
            if tangents.size:
                norms = np.linalg.norm(tangents, axis=1)
                if np.max(np.abs(norms - 1.0)) > _SAMPLE_TOL:
                    raise ValueError("tangent vectors must be normalized")
                if np.max(np.abs(tangents @ s)) > _SAMPLE_TOL:
                    raise ValueError("tangent vectors must be orthogonal to the base point")
            checked.append((s, tangents))
        object.__setattr__(self, "entries", checked)

    @classmethod
    def from_raw(cls, dim: int, entries) -> "DistributionSamples":
        """Build from unnormalized data, rescaling base points and tangents."""
        prepared = []
        for s, tangents in entries:
            s = np.asarray(s, dtype=float)
            norm = np.linalg.norm(s)
            if norm == 0:
                raise ValueError("base point must be nonzero")
            tangents = np.asarray(tangents, dtype=float).reshape(-1, dim)
            t_norms = np.linalg.norm(tangents, axis=1)
            if np.any(t_norms == 0):
                raise ValueError("tangent vectors must be nonzero")
            prepared.append((s / norm, tangents / t_norms[:, None]))
        return cls(dim, prepared)

    @property
    def tangent_count(self) -> int:
        return sum(t.shape[0] for _, t in self.entries)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Least-squares fit of a skew operator to sampled tangent data.

    ``skew`` is Frobenius-normalized with canonical sign; ``residual`` is
    the minimized sum of squared <t, As> overlaps; ``gap`` is the spectral
    gap of the quadratic form above its least eigenvalue.  A gap near zero
    means several projective classes fit the data equally well, which is a
    property of the samples rather than an error.
    """

    skew: np.ndarray
    residual: float
    gap: float


def distribution_at(a, s, tol: float = DEFAULT_TOL) -> Subspace:
    """The subspace span(s, As)-perp; all of s-perp at kernel points."""
    a = require_skew(a)
    if not np.any(a):
        raise ZeroOperator("distribution requires a nonzero skew operator")
    s = require_unit(s)
    image = a @ s
    if float(np.linalg.norm(image)) <= tol * scale_of(a):
        spanning = [s]
    else:
        spanning = [s, image]
    return Subspace.span(spanning, dim=a.shape[0]).complement()


def tangency_profile(a, s, w, times) -> float:
    """Largest |<c'(t), A c(t)>| along the great circle c = cos(t) s + sin(t) w.

    The overlap of a Killing field with a geodesic is constant, so the
    profile is flat: zero when w starts tangent to D[A], a fixed positive
    value otherwise.
    """
    a = require_skew(a)
    s = require_unit(s, name="base point")
    w = require_unit(w, name="direction")
    if abs(float(np.dot(s, w))) > _SAMPLE_TOL:
        raise NotOrthonormal("great-circle direction must be orthogonal to the base point")
    times = np.asarray(times, dtype=float).ravel()
    if times.size == 0:
        return 0.0
    cos_t = np.cos(times)[:, None]
    sin_t = np.sin(times)[:, None]
    points = cos_t * s + sin_t * w
    velocities = -sin_t * s + cos_t * w
    overlaps = np.einsum("ti,ti->t", velocities, points @ a.T)
    return float(np.max(np.abs(overlaps)))


def fit_skew_from_samples(samples: DistributionSamples) -> FitResult:
    """Recover the projective class [A] that the sampled tangents annihilate.

    Minimizes Q(A) = sum <t, As>^2 over skew A with ||A||_F = 1 by
    assembling the quadratic form on the m = d(d-1)/2 independent entries
    and taking its least eigenvector.  With ``i, j = triu_indices(d, 1)``,
    the overlap <t, As> is g . a[i, j] for the row g = t[i] s[j] - s[i] t[j],
    so an entry (s, T) with k tangent rows contributes G^T G, where
    G = T[:, i] * s[j] - s[i] * T[:, j] has shape (k, m): one matrix
    product per sample point.  Time is O(N m^2) for N tangents in all, and
    memory O(m^2 + k m), independent of N.
    """
    if samples.tangent_count == 0:
        raise EmptySamples("no tangent vectors to fit against")
    d = samples.dim
    upper_i, upper_j = np.triu_indices(d, k=1)
    m = upper_i.size
    form = np.zeros((m, m))
    for s, tangents in samples.entries:
        g = tangents[:, upper_i] * s[upper_j] - s[upper_i] * tangents[:, upper_j]
        form += g.T @ g
    eigenvalues, vectors = symmetric_spectrum(form)
    skew = np.zeros((d, d))
    skew[upper_i, upper_j] = vectors[:, 0]
    skew = skew - skew.T
    skew /= float(np.linalg.norm(skew))
    skew = canonical_sign_matrix(skew)
    # summed from the overlaps, not read as a^T F a: the form's rounding
    # would put it near 1e-15 at exact samples, where the overlaps give 1e-30
    residual = sum(float(np.sum((t @ (skew @ s)) ** 2)) for s, t in samples.entries)
    gap = float(eigenvalues[1] - eigenvalues[0]) if m >= 2 else float("inf")
    return FitResult(skew=skew, residual=residual, gap=gap)


def sphere_structure_check(a, k, m, big_t: float, tol: float = DEFAULT_TOL) -> float:
    """Principal-angle gap between D[A] at a mixed point and its decomposition.

    For unit k in ker(A), unit m orthogonal to ker(A), and 0 < T < pi/2,
    the distribution at s = cos(T) k + sin(T) m decomposes as

        (k-perp intersect ker A) + (D_m intersect T_m S_M) + span(-sin(T) k + cos(T) m)

    with M = ker(A)-perp.  Returns the largest principal angle between the
    two sides (pi/2 if their dimensions disagree).
    """
    a = require_skew(a)
    if not np.any(a):
        raise ZeroOperator("structure check requires a nonzero skew operator")
    d = a.shape[0]
    kernel = null_space(a, tol)
    if kernel.dimension == 0:
        raise PreconditionViolated("operator has trivial kernel, no valid kernel direction")
    k = np.asarray(k, dtype=float)
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.norm(k) - 1.0) > _SAMPLE_TOL or abs(np.linalg.norm(m) - 1.0) > _SAMPLE_TOL:
        raise PreconditionViolated("k and m must be unit vectors")
    if float(np.linalg.norm(a @ k)) > tol * scale_of(a):
        raise PreconditionViolated("k must lie in the kernel of the operator")
    if float(np.linalg.norm(kernel.projector() @ m)) > tol:
        raise PreconditionViolated("m must be orthogonal to the kernel")
    if not 0.0 < big_t < np.pi / 2.0:
        raise PreconditionViolated("mixing angle must lie strictly between 0 and pi/2")

    s = np.cos(big_t) * k + np.sin(big_t) * m
    s /= np.linalg.norm(s)
    left = distribution_at(a, s, tol)

    complement_m = kernel.complement()
    # k-perp inside the kernel
    residual_basis = kernel.projector() @ (np.eye(d) - np.outer(k, k))
    kernel_part = Subspace.span(residual_basis.T, dim=d, tol=1e-10)
    # D_m cut down to the tangent space of the kernel-complement sphere
    d_m = distribution_at(a, m, tol)
    tangent_m = Subspace.span(
        (complement_m.projector() @ (np.eye(d) - np.outer(m, m))).T, dim=d, tol=1e-10
    )
    middle_part = d_m.intersection(tangent_m)
    circle_dir = -np.sin(big_t) * k + np.cos(big_t) * m
    pieces = [kernel_part.basis.T, middle_part.basis.T, circle_dir[None, :]]
    right = Subspace.span(np.vstack(pieces), dim=d)
    return left.angle_to(right)
