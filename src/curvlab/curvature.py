"""Algebraic curvature tensors: model constructors and curvature functionals.

A curvature tensor is stored as the full d^4 component array
``R[i, j, k, l] = <R(e_i, e_j)e_k, e_l>`` over the standard orthonormal
basis.  The two building blocks are

    R1(x, y)z  = <y, z> x - <x, z> y
    RA(x, y)z  = 2<x, Ay> Az + <x, Az> Ay - <y, Az> Ax     (A skew)

and the model family ``kappa * R1 + tau * RA`` with tau in {-1, 0, +1},
normalized so that tau = 0 exactly when A = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConventionViolation,
    DimensionMismatch,
    NonFiniteComponents,
    NotOrthonormal,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    null_space,
    require_complex_structure,
    require_orthonormal,
    require_skew,
    require_unit,
)


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Rank-4 component array over the standard orthonormal basis.

    Construction does not enforce the curvature symmetries; use
    :func:`validate_symmetries` to measure them.  This keeps deliberately
    perturbed tensors constructible for testing and validation.  Non-finite
    components are rejected with ``NonFiniteComponents``, since a NaN
    residual would pass every tolerance comparison.
    """

    dim: int
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if c.shape != (self.dim,) * 4:
            raise ValueError(
                f"components must have shape {(self.dim,) * 4}, got {c.shape}"
            )
        if not np.isfinite(c).all():
            raise NonFiniteComponents("components must be finite (found NaN or inf)")
        object.__setattr__(self, "components", c)

    @classmethod
    def from_components(cls, components) -> "CurvatureTensor":
        c = np.asarray(components, dtype=float)
        if c.ndim != 4:
            raise ValueError(f"components must be rank 4, got rank {c.ndim}")
        return cls(c.shape[0], c)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))

    def __add__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("cannot add tensors of different dimensions")
        return CurvatureTensor(self.dim, self.components + other.components)

    def __sub__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("cannot subtract tensors of different dimensions")
        return CurvatureTensor(self.dim, self.components - other.components)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return CurvatureTensor(self.dim, float(scalar) * self.components)

    __rmul__ = __mul__

    def __neg__(self):
        return CurvatureTensor(self.dim, -self.components)


@dataclass(frozen=True)
class SymmetryReport:
    """Max-norm violations of the curvature identities.

    ``kahler_residual`` is populated only when a complex structure was
    supplied to :func:`validate_symmetries`.
    """

    antisymmetry_residual: float
    pair_exchange_residual: float
    bianchi_residual: float
    kahler_residual: float | None = None

    @property
    def worst_base_residual(self) -> float:
        return max(
            self.antisymmetry_residual,
            self.pair_exchange_residual,
            self.bianchi_residual,
        )


def build_r1(dim: int) -> CurvatureTensor:
    """Constant-curvature-one tensor R1[i,j,k,l] = d_jk d_il - d_ik d_jl."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    eye = np.eye(dim)
    comp = np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    return CurvatureTensor(dim, comp)


def build_ra(a) -> CurvatureTensor:
    """Skew-operator tensor RA[i,j,k,l] = 2 A_ij A_lk + A_ik A_lj - A_jk A_li."""
    a = require_skew(a)
    comp = (
        2.0 * np.einsum("ij,lk->ijkl", a, a)
        + np.einsum("ik,lj->ijkl", a, a)
        - np.einsum("jk,li->ijkl", a, a)
    )
    return CurvatureTensor(a.shape[0], comp)


def build_model(kappa: float, tau: int, a=None, dim: int | None = None) -> CurvatureTensor:
    """The model tensor kappa * R1 + tau * RA.

    tau must be -1, 0, or +1, and tau = 0 exactly when A = 0 (any overall
    scale belongs in A, not tau).  When tau = 0 the operator may be omitted
    and ``dim`` given instead.
    """
    if tau not in (-1, 0, 1):
        raise ConventionViolation(f"tau must be -1, 0, or +1, got {tau!r}")
    tau = int(tau)
    if a is None:
        if dim is None:
            raise ValueError("either a skew operator or a dimension is required")
        a = np.zeros((dim, dim))
    a = require_skew(a)
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"operator is {a.shape[0]}x{a.shape[0]}, dim={dim}")
    is_zero = not np.any(a)
    if tau == 0 and not is_zero:
        raise ConventionViolation("tau = 0 requires A = 0")
    if tau != 0 and is_zero:
        raise ConventionViolation("tau != 0 requires a nonzero A")
    result = kappa * build_r1(a.shape[0])
    if tau != 0:
        result = result + tau * build_ra(a)
    return result


def validate_symmetries(r: CurvatureTensor, j=None) -> SymmetryReport:
    """Measure the antisymmetry, pair-exchange, Bianchi, and Kahler residuals.

    Each residual is the largest absolute violation of the corresponding
    identity over all index quadruples.  The Kahler residual compares
    R(x, y)z against R(Jx, Jy)z and is computed only when ``j`` is given.

    The base residuals cost O(d^4).  The Kahler residual rotates the first
    two slots by J with two matrix products, one over each slot, which
    costs O(d^5) time and O(d^4) memory for any orthogonal ``j``.
    """
    c = r.components
    anti = float(np.max(np.abs(c + c.transpose(1, 0, 2, 3))))
    pair = float(np.max(np.abs(c - c.transpose(2, 3, 0, 1))))
    bianchi = float(
        np.max(np.abs(c + c.transpose(1, 2, 0, 3) + c.transpose(2, 0, 1, 3)))
    )
    kahler = None
    if j is not None:
        j = require_complex_structure(j)
        if j.shape[0] != r.dim:
            raise DimensionMismatch(
                f"complex structure is {j.shape[0]}-dimensional, tensor is {r.dim}"
            )
        d = r.dim
        # rotated[i, j, kl] = sum_ab J[a, i] J[b, j] c[a, b, kl] as two GEMMs:
        # first over a, then over b batched across i
        half = (j.T @ c.reshape(d, d**3)).reshape(d, d, d * d)
        rotated = np.matmul(j.T, half)
        np.subtract(c.reshape(d, d, d * d), rotated, out=rotated)
        kahler = float(np.max(np.abs(rotated, out=rotated)))
    return SymmetryReport(anti, pair, bianchi, kahler)


def jacobi_operator(r: CurvatureTensor, v) -> np.ndarray:
    """The symmetric matrix of w -> R(w, v)v for unit v; a stack for rows v.

    v of shape (d,) gives a d x d matrix, unit rows of shape (n, d) give
    (n, d, d).  Each matrix has v in its kernel; restrict to the hyperplane
    v-perp before reading off rank or multiplicities.  Entry [l, i] is
    sum_jk R[i, j, k, l] v_j v_k: one matmul of the rows v (x) v against the
    view R.reshape(d, d*d, d), in O(n d^4) time without copying R.
    """
    v = require_unit(v)
    d = r.dim
    if v.ndim not in (1, 2) or v.shape[-1] != d:
        raise DimensionMismatch(f"vector has shape {v.shape}, tensor dim {d}")
    rows = v.reshape(-1, d)
    outer = (rows[:, :, None] * rows[:, None, :]).reshape(-1, d * d)
    stack = np.matmul(outer, r.components.reshape(d, d * d, d)).transpose(1, 2, 0)
    return stack if v.ndim == 2 else stack[0]


def sectional_curvature(r: CurvatureTensor, v, w) -> float:
    """<R(v, w)w, v> for an orthonormal pair {v, w}."""
    rows = require_orthonormal([v, w])
    v, w = rows[0], rows[1]
    return float(np.einsum("ijkl,i,j,k,l->", r.components, v, w, w, v))


def ricci(r: CurvatureTensor) -> np.ndarray:
    """Ricci operator Ric[i, j] = sum_k R[k, i, j, k] (trace of x -> R(x, v)w)."""
    return np.einsum("kijk->ij", r.components)


def nullity_space(r: CurvatureTensor, tol: float = DEFAULT_TOL) -> Subspace:
    """Kernel of v -> R(., v)., i.e. the vectors the tensor never sees."""
    d = r.dim
    mat = r.components.transpose(0, 2, 3, 1).reshape(d**3, d)
    return null_space(mat, tol)


def holomorphic_sectional(r: CurvatureTensor, j, v) -> float:
    """Sectional curvature of the plane span(v, Jv) for unit v."""
    j = require_complex_structure(j)
    if j.shape[0] != r.dim:
        raise DimensionMismatch(
            f"complex structure is {j.shape[0]}-dimensional, tensor is {r.dim}"
        )
    v = require_unit(v)
    return sectional_curvature(r, v, j @ v)


def berger_check(r: CurvatureTensor, frame, kmin: float, kmax: float) -> float:
    """Slack in the mixed curvature bound for an orthonormal 4-frame.

    Returns (2/3)(kmax - kmin) - |<R(f1, f2)f3, f4>| given caller-supplied
    bounds kmin <= sec <= kmax; a nonnegative value means the inequality
    |<R(f1,f2)f3,f4>| <= (2/3)(kmax - kmin) holds for this frame.
    """
    rows = require_orthonormal(frame)
    if rows.shape != (4, r.dim):
        raise NotOrthonormal(
            f"frame must consist of 4 vectors of length {r.dim}, got {rows.shape}"
        )
    f1, f2, f3, f4 = rows
    mixed = float(np.einsum("ijkl,i,j,k,l->", r.components, f1, f2, f3, f4))
    return (2.0 / 3.0) * (kmax - kmin) - abs(mixed)
