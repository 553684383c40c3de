"""Codimension-one totally geodesic distributions on the unit sphere.

A nonzero skew operator A induces the distribution
``D[A]_s = span(s, As)-perp`` on the unit sphere; s -> As is a Killing
field, so every great circle is either everywhere or nowhere tangent to
D[A].  This module evaluates the distribution, tests tangency along great
circles, reconstructs the projective class [A] from sampled tangent data
by constrained least squares, and verifies the three-part decomposition of
D[A] at points mixing kernel and non-kernel directions.  Sampled tangent
data is checked one entry at a time, so a rejection names the first fault
of the first faulty entry, in a message that starts ``entry <i>: ``: a
``DimensionMismatch`` (ragged rows, or a base point or tangent array of
the wrong shape), ``PreconditionViolated`` (anything but real numbers: a
boolean, null, a string or an integer beyond the float range, as
``linalg.require_numbers`` reads them; or from ``from_raw`` a zero
vector), ``NotUnit`` (NaN, inf or off unit length) or ``NotOrthonormal``
(tangent not orthogonal to its base point).  Tolerance rejects read
``<what> <value> exceeds <threshold>``, a NaN or inf reads ``sample data
must be finite (found NaN or inf)``.  These constructors are the one home
of the entry checks: ``io.load_samples`` checks only the file's structure,
hands the raw entries to ``from_raw`` and re-raises every reject as
``ParseError`` (CLI exit 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptySamples, NotOrthonormal, NotUnit, PreconditionViolated, ZeroOperator
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    _lapack,
    _require_finite,
    canonical_sign_matrix,
    null_space,
    require_numbers,
    require_skew,
    require_unit,
    require_within,
    threshold,
)

_SAMPLE_TOL = 1e-10

#: Sample points per block of the fit; bounds its scratch memory for any point count.
_FIT_BLOCK = 64


def _tangent_rows(dim: int, where: str, tangents) -> np.ndarray:
    """``tangents`` as a (k, dim) float array; [] holds none and a flat list of dim numbers one."""
    rows = require_numbers(tangents, f"{where}tangents")
    if rows.shape not in ((0,), (dim,)) and (rows.ndim != 2 or rows.shape[1] != dim):
        raise DimensionMismatch(f"{where}tangents have shape {rows.shape}, expected (k, {dim})")
    return rows.reshape(-1, dim)


def _entry(dim: int, index: int, s, tangents) -> tuple[np.ndarray, np.ndarray]:
    """Entry ``index`` as float arrays, checked in order: shape, finite, unit, orthogonal."""
    where = f"entry {index}: "
    s = require_numbers(s, f"{where}base point")
    if s.shape != (dim,):
        raise DimensionMismatch(f"{where}base point has shape {s.shape}, expected ({dim},)")
    tangents = _tangent_rows(dim, where, tangents)
    _require_finite(s, NotUnit, f"{where}sample data")
    _require_finite(tangents, NotUnit, f"{where}sample data")
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf, off unit length
        point_norm, norms = np.linalg.norm(s, axis=0), np.linalg.norm(tangents, axis=1)
    require_within(float(abs(point_norm - 1.0)), _SAMPLE_TOL, NotUnit,
                   f"{where}base point is not a unit vector: |norm - 1|")
    deviation = np.max(np.abs(norms - 1.0), initial=0.0)
    require_within(float(deviation), _SAMPLE_TOL, NotUnit,
                   f"{where}tangent vectors must be normalized: largest |norm - 1|")
    overlap = np.max(np.abs(np.einsum("ij,j->i", tangents, s)), initial=0.0)
    require_within(float(overlap), _SAMPLE_TOL, NotOrthonormal,
                   f"{where}tangent vectors must be orthogonal to the base point: largest overlap")
    return s, tangents


def _binade_scaled(v: np.ndarray) -> np.ndarray:
    """Each row of v times the power of two that puts its largest entry in [0.5, 1)."""
    return np.ldexp(v, -np.frexp(np.abs(v).max(axis=-1, keepdims=True, initial=0.0))[1])


@dataclass(frozen=True, eq=False)
class DistributionSamples:
    """Sampled tangent data: pairs of a unit base point and tangent vectors.

    Each entry is ``(s, tangents)`` with s a unit vector and tangents a
    (k, dim) array of unit rows orthogonal to s; k may be zero.  Entries are
    checked in order, and a rejection reports the first fault of the first
    faulty entry.  The data is held stacked: base points as the rows of one
    (P, dim) array, and every tangent, entry after entry, as the rows of one
    (N, dim) array; each entry is a pair of views into them.
    """

    dim: int
    entries: list[tuple[np.ndarray, np.ndarray]]
    _points: np.ndarray = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        entries = [_entry(self.dim, index, *entry) for index, entry in enumerate(self.entries)]
        points = np.array([s for s, _ in entries]).reshape(-1, self.dim)
        rows = np.concatenate([np.zeros((0, self.dim)), *(t for _, t in entries)])
        offsets = np.cumsum([0, *(len(t) for _, t in entries)])
        object.__setattr__(self, "entries", [
            (s, rows[start:stop]) for s, start, stop in zip(points, offsets, offsets[1:])])
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_offsets", offsets)

    @classmethod
    def from_raw(cls, dim: int, entries) -> "DistributionSamples":
        """Build from unnormalized data, rescaling base points and tangents.

        Every entry is read, and its zero vectors rejected, before the
        constructor checks any.
        """
        def normalized(index, s, tangents):
            where = f"entry {index}: "
            # rescaled by a power of two, the squares stay in range; the quotients are unchanged
            s = _binade_scaled(require_numbers(s, f"{where}base point"))
            # squares summed left to right: np.linalg.norm rounds differently and moves the fit
            norm = np.sqrt(np.cumsum(np.append(0.0, s * s))[-1])
            if norm == 0:
                raise PreconditionViolated(f"{where}base point must be nonzero")
            tangents = _binade_scaled(_tangent_rows(dim, where, tangents))
            norms = np.linalg.norm(tangents, axis=1)
            if np.any(norms == 0):
                raise PreconditionViolated(f"{where}tangent vectors must be nonzero")
            return s / norm, tangents / norms[:, None]

        # only a vector holding NaN or inf is not rescaled, so only it can overflow or
        # divide inf by inf; the NaN that leaves is rejected by the constructor
        with np.errstate(over="ignore", invalid="ignore"):
            entries = [normalized(index, *entry) for index, entry in enumerate(entries)]
        return cls(dim, entries)

    @property
    def tangent_count(self) -> int:
        return int(self._offsets[-1])

    def _blocks(self):
        """(base points, their tangent rows, row counts) for up to _FIT_BLOCK points at a time.

        Points without tangents contribute nothing and are left out.
        """
        for start in range(0, len(self._points), _FIT_BLOCK):
            offsets = self._offsets[start:start + _FIT_BLOCK + 1]
            counts = np.diff(offsets)
            keep = counts > 0
            if np.any(keep):
                yield (self._points[start:start + _FIT_BLOCK][keep],
                       self._rows[offsets[0]:offsets[-1]], counts[keep])


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
    if float(np.linalg.norm(image)) <= threshold(tol, a):
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
    require_within(abs(float(np.dot(s, w))), _SAMPLE_TOL, NotOrthonormal,
                   "great-circle direction must be orthogonal to the base point: overlap")
    times = np.asarray(times, dtype=float).ravel()
    if times.size == 0:
        return 0.0
    cos_t = np.cos(times)[:, None]
    sin_t = np.sin(times)[:, None]
    points = cos_t * s + sin_t * w
    velocities = -sin_t * s + cos_t * w
    overlaps = np.einsum("ti,ti->t", velocities, points @ a.T)
    return float(np.max(np.abs(overlaps)))


def _gram_stack(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """T^T T for each run of ``counts`` consecutive rows T (every count positive).

    The runs are zero-padded to the longest one, so one batched product
    forms every Gram matrix.
    """
    owner = np.repeat(np.arange(counts.size), counts)
    slot = np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.zeros((counts.size, int(counts.max()), rows.shape[1]))
    padded[owner, slot] = rows
    return padded.transpose(0, 2, 1) @ padded


def _fit_form(samples: DistributionSamples) -> np.ndarray:
    """The fit's quadratic form F on the m = d(d-1)/2 entries a[i, j], i < j.

    With P = T^T T the Gram matrix of a point's tangent rows and S = s s^T,

        F[(i,j),(k,l)] = sum over points of
                         P[i,k] S[j,l] + S[i,k] P[j,l] - P[i,l] S[j,k] - S[i,l] P[j,k],

    the antisymmetrization of sum P (x) S over both index pairs.  The rows
    (i, j > i) of F, one slab i at a time, come from two (d x n)(n x d^2)
    products over a block of n points: O(d^4) per point, where summing
    G^T G over the (k x m) rows G of a point's k tangents costs O(k d^4).
    Points are taken _FIT_BLOCK at a time, so memory is O(m^2 + d^3)
    whatever the number of points or tangents (a point with k > d tangents
    adds O(k d)).
    """
    d = samples.dim
    upper_i, upper_j = np.triu_indices(d, k=1)
    slab = np.concatenate(([0], np.cumsum(np.arange(d - 1, 0, -1))))  # rows of (i, j > i)
    form = np.zeros((upper_i.size, upper_i.size))
    for points, rows, counts in samples._blocks():
        n = counts.size
        gram = _gram_stack(rows, counts)
        outer = points[:, :, None] * points[:, None, :]
        for i in range(d - 1):
            # c[k, (j, l)] = sum over points of P[i,k] S[j,l] + S[i,k] P[j,l], j > i
            c = gram[:, i].T @ outer[:, i + 1:].reshape(n, -1)
            c += outer[:, i].T @ gram[:, i + 1:].reshape(n, -1)
            c = c.reshape(d, d - 1 - i, d).transpose(1, 0, 2)
            form[slab[i]:slab[i + 1]] += c[:, upper_i, upper_j] - c[:, upper_j, upper_i]
    return form


def fit_skew_from_samples(samples: DistributionSamples) -> FitResult:
    """Recover the projective class [A] that the sampled tangents annihilate.

    Minimizes Q(A) = sum <t, As>^2 over skew A with ||A||_F = 1: the least
    eigenvector of the quadratic form of ``_fit_form``.  Time is
    O(P d^4 + m^3) for P points and m = d(d-1)/2, memory O(m^2 + d^3).  The
    O(m^3) = O(d^6) term is the full ``eigh`` of the m x m form: the fit
    needs only the two least eigenvalues and one eigenvector, but numpy has
    no solver for a subset of the spectrum.
    """
    if samples.tangent_count == 0:
        raise EmptySamples("no tangent vectors to fit against")
    d = samples.dim
    form = _fit_form(samples)
    # only column 0 is read, and canonical_sign_matrix fixes the sign of skew
    eigenvalues, vectors = _lapack(np.linalg.eigh, form)
    skew = np.zeros((d, d))
    skew[np.triu_indices(d, k=1)] = vectors[:, 0]
    skew = skew - skew.T
    skew /= float(np.linalg.norm(skew))
    skew = canonical_sign_matrix(skew)
    # summed from the overlaps, not read as a^T F a: the form's rounding
    # would put it near 1e-15 at exact samples, where the overlaps give 1e-30
    residual = 0.0
    for points, rows, counts in samples._blocks():
        overlaps = np.einsum("ij,ij->i", rows, np.repeat(points @ skew.T, counts, axis=0))
        residual += float(overlaps @ overlaps)
    gap = float(eigenvalues[1] - eigenvalues[0]) if form.shape[0] >= 2 else float("inf")
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
    for name, v in (("k", k), ("m", m)):
        require_within(abs(float(np.linalg.norm(v)) - 1.0), _SAMPLE_TOL, PreconditionViolated,
                       f"{name} must be a unit vector: |norm - 1|")
    require_within(float(np.linalg.norm(a @ k)), threshold(tol, a), PreconditionViolated,
                   "k must lie in the kernel of the operator: |Ak|")
    require_within(float(np.linalg.norm(kernel.projector() @ m)), tol, PreconditionViolated,
                   "m must be orthogonal to the kernel: its kernel component")
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
