"""Dense linear algebra substrate shared by every other module.

All values are plain float64 numpy arrays over a fixed orthonormal basis
of R^d: vectors are 1-d arrays, operators are (d, d) arrays, and the inner
product is the standard dot product.  Every function is pure; anything
random takes an explicit seed, so identical calls give bitwise-identical
results.  Eigenvector and basis signs are canonicalized (first entry above
the noise floor made positive) to keep spectral output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonOrthonormalBasis,
    NonPositiveTolerance,
    NotOrthonormal,
    NotSkew,
    NotUnit,
    NumericalFailure,
    OddDimension,
    PreconditionViolated,
)

#: Default relative tolerance for rank decisions and residual checks.
DEFAULT_TOL = 1e-9

#: Unit-norm slack accepted wherever a unit vector is required.
UNIT_TOL = 1e-12

#: Gram-matrix slack accepted for orthonormal tuples and subspace bases.
ORTHO_TOL = 1e-10

#: Slack accepted for skew symmetry (relative) and for complex structures.
STRUCTURE_TOL = 1e-12

_SIGN_FLOOR = 1e-12


def _lapack(routine, *args, **kwargs):
    """Call a ``numpy.linalg`` routine; its ``LinAlgError`` becomes ``NumericalFailure``."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"numpy.linalg.{routine.__name__}: {exc}") from exc


def require_within(value, threshold, error, what: str) -> None:
    """Raise ``error`` unless ``value <= threshold``, so a NaN value always fails.

    The one home of every scalar tolerance reject in the package; the
    message reads ``"<what> <value> exceeds <threshold>"``.
    """
    if not value <= threshold:
        raise error(f"{what} {value:.3e} exceeds {threshold:.3e}")


def _require_finite(a: np.ndarray, error, what: str) -> None:
    """Raise ``error`` on a NaN or inf entry of ``a``, before arithmetic can warn on it."""
    if a.size:
        require_within(float(np.max(np.abs(a))), np.finfo(float).max, error,
                       f"{what} must be finite: largest entry")


def scale_of(a) -> float:
    """max(1, largest absolute entry): the reference for relative tolerances."""
    return max(1.0, float(np.max(np.abs(np.asarray(a, dtype=float)), initial=0.0)))


def require_unit(v, name: str = "vector") -> np.ndarray:
    """Validate a unit vector, or a stack of unit vectors along the last axis."""
    v = np.asarray(v, dtype=float)
    deviation = np.abs(np.linalg.norm(np.atleast_1d(v), axis=-1) - 1.0)
    require_within(float(np.max(deviation, initial=0.0)), UNIT_TOL, NotUnit,
                   f"{name} is not a unit vector: |norm - 1|")
    return v


def require_orthonormal(vectors) -> np.ndarray:
    """Stack vectors as rows after checking their Gram matrix is the identity."""
    rows = np.asarray([np.asarray(v, dtype=float) for v in vectors])
    _require_finite(rows, NotOrthonormal, "vectors")
    resid = float(np.max(np.abs(rows @ rows.T - np.eye(len(rows))))) if rows.size else 0.0
    require_within(resid, ORTHO_TOL, NotOrthonormal, "vectors are not orthonormal: Gram residual")
    return rows


def require_skew(a) -> np.ndarray:
    """Validate skew symmetry relative to max(1, largest entry)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSkew(f"operator must be a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise NotSkew(f"operator must not be empty, got shape {a.shape}")
    _require_finite(a, NotSkew, "operator")
    require_within(float(np.max(np.abs(a + a.T))), threshold(STRUCTURE_TOL, a), NotSkew,
                   "operator is not skew symmetric: residual")
    return a


def require_complex_structure(j, dim: int | None = None) -> np.ndarray:
    """Validate J^T J = Id and J^2 = -Id on R^dim, else raise ``PreconditionViolated``."""
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise PreconditionViolated(f"complex structure must be square, got shape {j.shape}")
    _require_finite(j, PreconditionViolated, "complex structure")
    d = j.shape[0]
    if d % 2:
        raise OddDimension(f"complex structure needs even dimension, got {d}")
    eye = np.eye(d)
    require_within(float(np.max(np.abs(j.T @ j - eye))), STRUCTURE_TOL, PreconditionViolated,
                   "complex structure is not orthogonal: |J^T J - Id|")
    require_within(float(np.max(np.abs(j @ j + eye))), STRUCTURE_TOL, PreconditionViolated,
                   "complex structure does not square to -Id: |J^2 + Id|")
    if dim is not None and d != dim:
        raise DimensionMismatch(f"complex structure is {d}-dimensional, expected {dim}")
    return j


def standard_complex_structure(d: int) -> np.ndarray:
    """The block-diagonal structure J e_{2k-1} = e_{2k}, J e_{2k} = -e_{2k-1}."""
    if d < 2 or d % 2:
        raise OddDimension(f"standard complex structure needs even d >= 2, got {d}")
    j = np.zeros((d, d))
    for k in range(0, d, 2):
        j[k + 1, k] = 1.0
        j[k, k + 1] = -1.0
    return j


def canonical_sign_columns(u: np.ndarray) -> np.ndarray:
    """Flip column signs so the first entry above ``_SIGN_FLOOR`` is positive.

    Leading axes beyond the last two are batch axes: ``u`` of shape
    (..., m, k) has each of its k columns treated on its own.
    """
    u = np.asarray(u, dtype=float)
    above = np.abs(u) > _SIGN_FLOOR
    first = above & (np.cumsum(above, axis=-2) == 1)
    flip = np.any(first & (u < 0), axis=-2, keepdims=True)
    return np.where(flip, -u, u)


def canonical_sign_matrix(a: np.ndarray, zero_tol: float = _SIGN_FLOOR) -> np.ndarray:
    """Flip the whole matrix so its first row-major nonzero entry is positive."""
    flat = np.asarray(a, dtype=float).ravel()
    nonzero = np.flatnonzero(np.abs(flat) > zero_tol)
    if nonzero.size and flat[nonzero[0]] < 0:
        # adding 0.0 clears the negative zeros the flip would introduce
        return -np.asarray(a, dtype=float) + 0.0
    return np.array(a, dtype=float, copy=True)


def symmetric_spectrum(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and sign-canonicalized orthonormal eigenvectors.

    The input is expected to be symmetric; only its lower triangle is read.
    A stack of shape (..., d, d) gives one spectrum per matrix.  Output is
    deterministic for identical input.
    """
    s = np.asarray(s, dtype=float)
    eigenvalues, vectors = _lapack(np.linalg.eigh, s)
    return eigenvalues, canonical_sign_columns(vectors)


def require_tol(tol) -> float:
    """Validate a tolerance argument: finite and strictly positive."""
    try:
        value = float(tol)
    except (TypeError, ValueError) as exc:
        raise NonPositiveTolerance(f"tolerance must be a number, got {tol!r}") from exc
    if not (np.isfinite(value) and value > 0):
        raise NonPositiveTolerance(f"tolerance must be finite and positive, got {tol!r}")
    return value


def threshold(tol, reference) -> float:
    """``tol * scale_of(reference)`` after ``require_tol(tol)``: every relative bound.

    Pass a tensor's ``max_abs`` as the reference, not its d^4 components.
    """
    return require_tol(tol) * scale_of(reference)


def rank_with_tol(mat, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol * max(1, largest singular value)``."""
    mat = np.asarray(mat, dtype=float)
    _require_finite(mat, PreconditionViolated, "matrix")
    singular = _lapack(np.linalg.svd, mat, compute_uv=False)
    return int(np.sum(singular > threshold(tol, singular[:1])))


def unit_sphere_samples(d: int, n: int, seed: int = 0) -> np.ndarray:
    """n deterministic unit vectors as rows, standard basis vectors first.

    The first min(n, d) rows are standard basis vectors; the rest are
    normalized Gaussian draws from ``numpy.random.default_rng(seed)``.
    """
    if d < 1:
        raise PreconditionViolated(f"dimension must be at least 1, got {d}")
    if n < 0:
        raise PreconditionViolated(f"sample count must be nonnegative, got {n}")
    out = np.zeros((n, d))
    head = min(n, d)
    out[:head] = np.eye(d)[:head]
    rest = n - head
    if rest > 0:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((rest, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        # second pass pins the norm to within one ulp of 1
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        out[head:] = g
    return out


def random_skew(d: int, seed: int = 0) -> np.ndarray:
    """Seeded dense skew matrix M - M^T (exactly skew, zero diagonal)."""
    if d < 2:
        raise PreconditionViolated(f"dimension must be at least 2, got {d}")
    if seed < 0:
        raise PreconditionViolated(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    return m - m.T


def null_space(mat, tol: float = DEFAULT_TOL) -> "Subspace":
    """Orthonormal basis of the kernel at relative tolerance ``tol``.

    A tall matrix takes the thin SVD, whose right factor is already the
    full n x n; the left factor then stays m x n instead of m x m.
    """
    mat = np.asarray(mat, dtype=float)
    m, n = mat.shape
    _, singular, vt = _lapack(np.linalg.svd, mat, full_matrices=m < n)
    rank = int(np.sum(singular > threshold(tol, singular[:1])))
    kernel = canonical_sign_columns(vt[rank:].T)
    return Subspace(n, kernel)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^dim, stored as orthonormal basis columns.

    ``basis`` has shape (dim, k); k = 0 encodes the zero subspace.
    """

    dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.dim:
            raise NonOrthonormalBasis(
                f"basis must have shape ({self.dim}, k), got {b.shape}"
            )
        _require_finite(b, NonOrthonormalBasis, "basis")
        if b.shape[1]:
            require_within(float(np.max(np.abs(b.T @ b - np.eye(b.shape[1])))), ORTHO_TOL,
                           NonOrthonormalBasis, "basis Gram matrix deviates from identity by")
        object.__setattr__(self, "basis", b)

    @classmethod
    def empty(cls, dim: int) -> "Subspace":
        return cls(dim, np.zeros((dim, 0)))

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim, np.eye(dim))

    @classmethod
    def span(cls, vectors, dim: int | None = None, tol: float = 1e-12) -> "Subspace":
        """Orthonormalized span of the given vectors (rank cut at ``tol``)."""
        tol = require_tol(tol)
        mat = np.asarray([np.asarray(v, dtype=float) for v in vectors])
        if mat.size == 0:
            if dim is None:
                raise DimensionMismatch("cannot infer dimension from an empty span")
            return cls.empty(dim)
        mat = mat.T  # columns are the spanning vectors
        d = mat.shape[0]
        if dim is not None and dim != d:
            raise DimensionMismatch(f"vectors have length {d}, expected {dim}")
        _require_finite(mat, PreconditionViolated, "vectors")
        u, singular, _ = _lapack(np.linalg.svd, mat, full_matrices=False)
        top = float(singular[0]) if singular.size else 0.0
        # purely relative, not threshold(): tiny spanning vectors keep their span
        rank = int(np.sum(singular > tol * max(top, 1e-300)))
        return cls(d, canonical_sign_columns(u[:, :rank]))

    @property
    def dimension(self) -> int:
        return int(self.basis.shape[1])

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix sum_b b b^T over basis columns."""
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        if self.dimension == 0:
            return Subspace.full(self.dim)
        if self.dimension == self.dim:
            return Subspace.empty(self.dim)
        u, _, _ = _lapack(np.linalg.svd, self.basis, full_matrices=True)
        return Subspace(self.dim, canonical_sign_columns(u[:, self.dimension:]))

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=float)
        resid = float(np.linalg.norm(v - self.projector() @ v))
        return resid <= threshold(ORTHO_TOL, v)

    def principal_angles(self, other: "Subspace") -> np.ndarray:
        """Principal angles (ascending), one per dimension of the smaller space.

        Small angles are computed from sines (singular values of the
        projection residual) rather than arccos, which loses half the
        significant digits near zero.
        """
        if self.dim != other.dim:
            raise DimensionMismatch("subspaces live in different ambient dimensions")
        small, big = (self, other) if self.dimension <= other.dimension else (other, self)
        if small.dimension == 0:
            return np.zeros(0)
        cosines = np.clip(
            _lapack(np.linalg.svd, small.basis.T @ big.basis, compute_uv=False), -1.0, 1.0
        )
        residual = small.basis - big.basis @ (big.basis.T @ small.basis)
        sines = np.clip(np.sort(_lapack(np.linalg.svd, residual, compute_uv=False)), 0.0, 1.0)
        return np.where(cosines**2 > 0.5, np.arcsin(sines), np.arccos(cosines))

    def angle_to(self, other: "Subspace") -> float:
        """Largest principal angle; pi/2 when the dimensions differ."""
        if self.dim != other.dim:
            raise DimensionMismatch("subspaces live in different ambient dimensions")
        if self.dimension != other.dimension:
            return float(np.pi / 2)
        if self.dimension == 0:
            return 0.0
        return float(self.principal_angles(other)[-1])

    def intersection(self, other: "Subspace") -> "Subspace":
        """Common subspace, via the eigenvalue-2 eigenspace of P_self + P_other."""
        if self.dim != other.dim:
            raise DimensionMismatch("subspaces live in different ambient dimensions")
        eigenvalues, vectors = _lapack(np.linalg.eigh, self.projector() + other.projector())
        keep = eigenvalues >= 2.0 - 1e-8
        return Subspace(self.dim, canonical_sign_columns(vectors[:, keep]))
