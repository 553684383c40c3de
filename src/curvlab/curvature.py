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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConventionViolation,
    DimensionMismatch,
    NonFiniteComponents,
    NotKahler,
    NotOrthonormal,
    PreconditionViolated,
    SymmetryViolation,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    null_space,
    require_complex_structure,
    require_orthonormal,
    require_skew,
    require_unit,
    require_within,
)


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Rank-4 component array over the standard orthonormal basis.

    Construction does not enforce the curvature symmetries; use
    :func:`validate_symmetries` to measure them.  This keeps deliberately
    perturbed tensors constructible for testing and validation.  Non-finite
    components are rejected with ``NonFiniteComponents``, since a NaN
    residual would pass every tolerance comparison.  ``max_abs``, the
    largest absolute entry, is set from the same two reductions; changing
    ``components`` in place after construction defeats both.
    """

    dim: int
    components: np.ndarray
    max_abs: float = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if self.dim < 2:
            raise PreconditionViolated(f"dimension must be at least 2, got {self.dim}")
        if c.shape != (self.dim,) * 4:
            raise DimensionMismatch(
                f"components must have shape {(self.dim,) * 4}, got {c.shape}"
            )
        top, bottom = c.max(), c.min()
        if not (np.isfinite(top) and np.isfinite(bottom)):  # NaN propagates
            raise NonFiniteComponents("components must be finite (found NaN or inf)")
        object.__setattr__(self, "components", c)
        object.__setattr__(self, "max_abs", abs(float(max(top, -bottom))))

    def _with(self, compute):
        """The tensor of ``compute()``; a result beyond the float range raises NonFiniteComponents."""
        with np.errstate(over="ignore", invalid="ignore"):
            return CurvatureTensor(self.dim, compute())

    def __add__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("cannot add tensors of different dimensions")
        return self._with(lambda: self.components + other.components)

    def __sub__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("cannot subtract tensors of different dimensions")
        return self._with(lambda: self.components - other.components)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return self._with(lambda: float(scalar) * self.components)

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

    def require(self, limit: float, where: str = "") -> None:
        """Raise unless every measured residual is within ``limit``.

        The first failing base identity raises ``SymmetryViolation``, named
        after ``where``; then a measured Kahler residual raises ``NotKahler``.
        """
        for name, resid in (("antisymmetry", self.antisymmetry_residual),
                            ("pair-exchange", self.pair_exchange_residual),
                            ("first Bianchi", self.bianchi_residual)):
            require_within(resid, limit, SymmetryViolation,
                           f"{where}{name} identity fails with residual")
        if self.kahler_residual is not None:
            require_within(self.kahler_residual, limit, NotKahler, "Kahler residual")


def _max_abs(x: np.ndarray) -> float:
    """max |x| over all entries, read in two reductions with no |x| temporary."""
    return abs(float(max(x.max(), -x.min())))


def _model_slab(out, i, kappa, tau, a, scratch) -> None:
    """Write slab i of kappa R1 + tau RA: out[j, k, l] = R[i, j, k, l].

    O(d^3) time, with one d^3 ``scratch``.  Every entry is bitwise equal to
    the einsum build ``kappa * R1 + tau * (2 E1 + E2 - E3)``, signed zeros
    included: einsum adds each product to +0.0, so the RA sum has no -0.0,
    while tau = -1 and kappa <= -0.0 leave -0.0 where the sum vanishes.
    R1 is kappa * 0.0 except at [j, j, i] (kappa) and [j, i, j] (-kappa).
    """
    zero = kappa * 0.0
    others = np.flatnonzero(np.arange(out.shape[0]) != i)
    if tau == 0:
        out.fill(zero)
        diagonal = cross = -0.0  # kappa R1 + (-0.0) is kappa R1 exactly
    else:
        np.multiply(a[i][:, None, None], a.T, out=out)  # A_ij A_lk
        out *= 2.0
        np.multiply(a[i][:, None], a.T[:, None, :], out=scratch)  # A_ik A_lj
        out += scratch
        np.multiply(a[:, :, None], a[:, i], out=scratch)  # A_jk A_li
        out -= scratch
        out += 0.0  # einsum's +0.0: the RA sum holds no -0.0
        if tau < 0:
            np.negative(out, out=out)
        diagonal, cross = out[others, others, i], out[others, i, others]
        if tau < 0:  # for tau = 1, adding kappa * 0.0 changes nothing
            out += zero
    out[others, others, i] = kappa + diagonal
    out[others, i, others] = -kappa + cross


_OVERFLOW = "components must be finite: the model kappa*R1 + tau*RA overflows the float range"


def _model_conventions(kappa: float, tau: int, a, dim: int | None):
    """Check the model conventions and return (kappa, tau, A) for ``_model_slab``.

    tau must be -1, 0, or +1, and tau = 0 exactly when A = 0 (any overall
    scale belongs in A, not tau).  When tau = 0 the operator may be omitted
    and ``dim`` given instead.  A non-finite kappa is NonFiniteComponents.
    """
    if tau not in (-1, 0, 1):
        raise ConventionViolation(f"tau must be -1, 0, or +1, got {tau!r}")
    if dim is not None and dim < 2:
        raise PreconditionViolated(f"dimension must be at least 2, got {dim}")
    if a is None:
        if dim is None:
            raise PreconditionViolated("either a skew operator or a dimension is required")
        a = np.zeros((dim, dim))
    a = require_skew(a)
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"operator is {a.shape[0]}x{a.shape[0]}, dim={dim}")
    is_zero = not np.any(a)
    if tau == 0 and not is_zero:
        raise ConventionViolation("tau = 0 requires A = 0")
    if tau != 0 and is_zero:
        raise ConventionViolation("tau != 0 requires a nonzero A")
    kappa = float(kappa)
    if not np.isfinite(kappa):
        raise NonFiniteComponents("components must be finite (found NaN or inf)")
    return kappa, int(tau), a


def _model_tensor(kappa: float, tau: int, a: np.ndarray) -> CurvatureTensor:
    """kappa R1 + tau RA, filled slab by slab.

    A model beyond the float range is reported once, as NonFiniteComponents,
    rather than through numpy's overflow and invalid-value warnings.
    """
    d = a.shape[0]
    comp, scratch = np.empty((d,) * 4), np.empty((d,) * 3)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d):
            _model_slab(comp[i], i, float(kappa), tau, a, scratch)
    try:
        return CurvatureTensor(d, comp)
    except NonFiniteComponents:
        raise NonFiniteComponents(_OVERFLOW) from None


class ModelSlabs:
    """The model kappa * R1 + tau * RA as a source of its slabs R[i].

    Construction checks the conventions of ``build_model`` and computes
    every slab once, so a model beyond the float range is reported as
    build_model reports it, NonFiniteComponents, before any slab is used:
    O(d^4) time, as one ``build_model`` sweep, and O(d^3) memory.
    Iterating yields the d slabs in order, each written by ``_model_slab``
    into one d^3 buffer that the next slab overwrites, bitwise equal to
    ``build_model(...).components[i]``.
    """

    def __init__(self, kappa: float, tau: int, a=None, dim: int | None = None):
        self.kappa, self.tau, self.skew = _model_conventions(kappa, tau, a, dim)
        self.dim = self.skew.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for slab in self:
                if not (np.isfinite(slab.max()) and np.isfinite(slab.min())):
                    raise NonFiniteComponents(_OVERFLOW)

    def __iter__(self):
        slab, scratch = np.empty((self.dim,) * 3), np.empty((self.dim,) * 3)
        for i in range(self.dim):
            _model_slab(slab, i, self.kappa, self.tau, self.skew, scratch)
            yield slab


def build_r1(dim: int) -> CurvatureTensor:
    """Constant-curvature-one tensor R1[i,j,k,l] = d_jk d_il - d_ik d_jl."""
    return build_model(1.0, 0, dim=dim)


def build_ra(a) -> CurvatureTensor:
    """Skew-operator tensor RA[i,j,k,l] = 2 A_ij A_lk + A_ik A_lj - A_jk A_li."""
    a = require_skew(a)
    return _model_tensor(0.0, 1, a)


def build_model(kappa: float, tau: int, a=None, dim: int | None = None) -> CurvatureTensor:
    """The model tensor kappa * R1 + tau * RA.

    tau must be -1, 0, or +1, and tau = 0 exactly when A = 0 (any overall
    scale belongs in A, not tau).  When tau = 0 the operator may be omitted
    and ``dim`` given instead.  The array is filled one slab R[i] at a time,
    in O(d^4) time with O(d^3) memory beyond the output.  It is bitwise
    equal to the einsum build of the formula, signed zeros included:
    tau = -1 with kappa <= -0.0 leaves -0.0 wherever RA vanishes, and every
    other zero is +0.0.  To write the model to a file, pass
    ``ModelSlabs(kappa, tau, a, dim)`` to ``io.save_tensor``, which needs
    one slab, not this array.
    """
    return _model_tensor(*_model_conventions(kappa, tau, a, dim))


def validate_symmetries(r: CurvatureTensor, j=None) -> SymmetryReport:
    """Measure the antisymmetry, pair-exchange, Bianchi, and Kahler residuals.

    Each residual is the largest absolute violation of the corresponding
    identity over all index quadruples.  The Kahler residual compares
    R(x, y)z against R(Jx, Jy)z and is computed only when ``j`` is given.

    The base residuals are read one slab c[i] at a time, in O(d^4) time
    with one d^3 scratch array, and equal the full-array residuals bit for
    bit.  The Kahler residual rotates the first two slots by J with two
    matrix products over each block of d (k, l) columns: O(d^5) time and
    O(d^3) extra memory for any orthogonal ``j``.
    """
    c, d = r.components, r.dim
    scratch = np.empty((d,) * 3)
    anti = pair = bianchi = 0.0
    for i in range(d):
        # c[i, j, k, l] plus c[j, i, k, l]; c[k, l, i, j] minus c[i, j, k, l],
        # laid out as [k, l, j] so that the transposed read is the slab c[i];
        # c[i, j, k, l] plus c[k, i, j, l] and c[j, k, i, l]
        anti = max(anti, _max_abs(np.add(c[i], c[:, i], out=scratch)))
        pair = max(pair, _max_abs(np.subtract(c[:, :, i], c[i].transpose(1, 2, 0), out=scratch)))
        np.add(c[i], c[:, i].transpose(1, 0, 2), out=scratch)
        bianchi = max(bianchi, _max_abs(np.add(scratch, c[:, :, i], out=scratch)))
    kahler = None
    if j is not None:
        j = require_complex_structure(j, dim=d)
        # rotated[i, j, kl] = sum_ab J[a, i] J[b, j] c[a, b, kl] as two GEMMs,
        # first over b batched across a, then over a
        kahler, columns = 0.0, c.reshape(d, d, d * d)
        for start in range(0, d * d, d):
            block = columns[:, :, start:start + d]
            rotated = (j.T @ np.matmul(j.T, block).reshape(d, d * d)).reshape(d, d, d)
            kahler = max(kahler, _max_abs(np.subtract(block, rotated, out=rotated)))
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
    j = require_complex_structure(j, dim=r.dim)
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
