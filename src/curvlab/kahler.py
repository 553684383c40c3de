"""Classification of Kahler almost isotropic tensors into four structural cases.

For an even-dimensional model with orthogonal complex structure J, the
Kahler almost isotropic tensors fall into exactly four families:

    Case1  d = 2                      R = kappa * R1
    Case2  d = 4, kappa != 0          A = J(mu1 P_W1 + mu2 P_W2), mu1 mu2 = kappa/tau
    Case3  d >= 6 and kappa != 0      R = kappa (R1 + RJ)   (also d = 4 with mu1 = mu2)
    Case4  kappa = 0, d >= 4          R = c * R_{J P_W} for a holomorphic plane W

The classifier recomputes everything from the tensor itself, so it doubles
as a validator for hand-built inputs: any failed consequence (B = AJ not
commuting with J, eigenplanes not J-invariant, broken eigenvalue product)
raises ``StructureViolation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureTensor, ricci, validate_symmetries
from .errors import (
    DimensionMismatch,
    InconsistentTau,
    NotKahler,
    SignResolutionFailure,
    StructureViolation,
    SymmetryViolation,
)
from .isotropy import recover_decomposition
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    require_complex_structure,
    require_orthonormal,
    require_skew,
    require_tol,
    scale_of,
    symmetric_spectrum,
)


@dataclass(frozen=True)
class Case1:
    """Dimension 2: constant sectional curvature kappa."""

    kappa: float
    case: int = 1


@dataclass(frozen=True, eq=False)
class Case2:
    """Dimension 4, kappa != 0: two holomorphic eigenplanes with mu1 mu2 = kappa/tau.

    Reported with mu1 >= mu2 and mu1 + mu2 >= 0.  The joint sign of the
    pair is not determined by the tensor (negating A negates both), so the
    normalization above fixes a representative.
    """

    kappa: float
    tau: int
    mu1: float
    mu2: float
    w1: Subspace
    w2: Subspace
    case: int = 2


@dataclass(frozen=True)
class Case3:
    """Constant holomorphic curvature 4*kappa: R = kappa (R1 + RJ)."""

    kappa: float
    case: int = 3


@dataclass(frozen=True, eq=False)
class Case4:
    """kappa = 0: R = c * R_{J P_W} for a holomorphic plane W (empty when R = 0)."""

    c: float
    w: Subspace
    case: int = 4


KahlerClass = Case1 | Case2 | Case3 | Case4


@dataclass(frozen=True, eq=False)
class BAnalysis:
    """Spectral data of B = A J.

    When A and J commute, B is symmetric and its eigenspaces are
    J-invariant; ``eigenvalues`` then lists one value per clustered
    eigenspace and ``eigenplanes`` the corresponding subspaces.  For the
    anticommuting or mixed cases the spectral fields stay empty.
    """

    b: np.ndarray
    commute_type: str
    eigenvalues: list[float]
    eigenplanes: list[Subspace]


def commute_type(a, j, tol: float = DEFAULT_TOL) -> str:
    """Classify AJ versus JA: "commute", "anticommute", or "neither"."""
    a = require_skew(a)
    j = require_complex_structure(j)
    if a.shape != j.shape:
        raise DimensionMismatch("operator and complex structure dimensions differ")
    threshold = tol * scale_of(a)
    commutator = float(np.max(np.abs(a @ j - j @ a)))
    anticommutator = float(np.max(np.abs(a @ j + j @ a)))
    if commutator <= threshold:
        return "commute"
    if anticommutator <= threshold:
        return "anticommute"
    return "neither"


def _cluster_sorted(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Index groups of sorted values split where consecutive gaps exceed width."""
    groups: list[np.ndarray] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > width:
            groups.append(np.arange(start, i))
            start = i
    return groups


def analyze_b_operator(a, j, tol: float = DEFAULT_TOL) -> BAnalysis:
    """Commutation type and (when commuting) clustered eigenplanes of B = AJ."""
    a = require_skew(a)
    j = require_complex_structure(j)
    if a.shape != j.shape:
        raise DimensionMismatch("operator and complex structure dimensions differ")
    b = a @ j
    kind = commute_type(a, j, tol)
    eigenvalues: list[float] = []
    eigenplanes: list[Subspace] = []
    if kind == "commute":
        spectrum, vectors = symmetric_spectrum(b)
        width = tol * max(1.0, float(np.max(np.abs(spectrum))))
        for group in _cluster_sorted(spectrum, width):
            eigenvalues.append(float(np.mean(spectrum[group])))
            eigenplanes.append(Subspace(b.shape[0], vectors[:, group]))
    return BAnalysis(b=b, commute_type=kind, eigenvalues=eigenvalues, eigenplanes=eigenplanes)


def _require_j_invariant(plane: Subspace, j: np.ndarray, tol: float, what: str):
    p = plane.projector()
    resid = float(np.max(np.abs((np.eye(plane.dim) - p) @ j @ p)))
    if resid > tol:
        raise StructureViolation(f"{what} is not J-invariant (residual {resid:.3e})")


def _canonical_mu_pair(mu1, mu2, w1, w2):
    # the tensor fixes the pair only up to joint negation; normalize to
    # mu1 >= mu2 with mu1 + mu2 >= 0
    if mu1 + mu2 < 0:
        mu1, mu2 = -mu1, -mu2
    if mu1 < mu2:
        mu1, mu2, w1, w2 = mu2, mu1, w2, w1
    return mu1, mu2, w1, w2


def classify_kahler(r: CurvatureTensor, j, tol: float = DEFAULT_TOL) -> KahlerClass:
    """Classify a Kahler almost isotropic tensor into its structural case.

    The tensor is re-validated from scratch: curvature symmetries, the
    Kahler symmetry, almost isotropy, and every structural consequence of
    the case analysis.  Raises ``NotKahler`` when the Kahler residual
    exceeds tolerance, ``NotAlmostIsotropic`` when the rank condition
    fails, and ``StructureViolation`` when the classification constraints
    are violated (which signals the input is not a genuine Kahler almost
    isotropic tensor even though both screens passed numerically).
    """
    tol = require_tol(tol)
    j = require_complex_structure(j)
    report = validate_symmetries(r, j)
    max_abs = r.max_abs
    scale = max(1.0, max_abs)
    if report.worst_base_residual > tol * scale:
        raise SymmetryViolation(
            f"curvature symmetries fail (worst residual {report.worst_base_residual:.3e})"
        )
    if report.kahler_residual > tol * scale:
        raise NotKahler(
            f"Kahler residual {report.kahler_residual:.3e} exceeds {tol * scale:.3e}"
        )

    try:
        decomposition = recover_decomposition(r, tol)
    except (InconsistentTau, SignResolutionFailure) as exc:
        raise StructureViolation(str(exc)) from exc
    kappa, tau, a = decomposition.kappa, decomposition.tau, decomposition.skew
    d = r.dim

    if d == 2:
        return Case1(kappa=kappa)

    if tau == 0:
        # an isotropic Kahler tensor in dimension >= 4 must vanish
        if max_abs > tol * scale:
            raise StructureViolation(
                "isotropic (tau = 0) Kahler tensor must vanish in dimension >= 4"
            )
        return Case4(c=0.0, w=Subspace.empty(d))

    analysis = analyze_b_operator(a, j, tol)
    if analysis.commute_type != "commute":
        raise StructureViolation(
            f"recovered skew operator {analysis.commute_type}s with J; "
            "a Kahler almost isotropic tensor requires AJ = JA"
        )
    b = analysis.b
    scale_b = scale_of(b)

    if abs(kappa) <= tol * scale:
        # flat case: A = mu * J P_W for a single holomorphic plane W
        nonzero = [
            (value, plane)
            for value, plane in zip(analysis.eigenvalues, analysis.eigenplanes)
            if abs(value) > tol * scale_b
        ]
        if len(nonzero) != 1 or nonzero[0][1].dimension != 2:
            raise StructureViolation(
                "flat case requires exactly one 2-dimensional nonzero eigenplane of B"
            )
        beta, plane = nonzero[0]
        mu = -beta
        _require_j_invariant(plane, j, tol * scale_b, "eigenplane of B")
        structure = j @ (mu * plane.projector())
        if float(np.max(np.abs(a - structure))) > tol * scale_of(a):
            raise StructureViolation("skew operator is not J composed with a plane projection")
        return Case4(c=float(tau * mu * mu), w=plane)

    ratio = kappa / tau
    if d >= 6:
        mu_hat = float(np.trace(b)) / d
        if float(np.max(np.abs(b - mu_hat * np.eye(d)))) > tol * scale_b:
            raise StructureViolation(
                "B = AJ must be a multiple of the identity in dimension >= 6"
            )
        if abs(mu_hat * mu_hat - ratio) > tol * max(1.0, abs(ratio)):
            raise StructureViolation("eigenvalue of B fails mu^2 = kappa/tau")
        return Case3(kappa=kappa)

    # d == 4 with kappa != 0
    groups = list(zip(analysis.eigenvalues, analysis.eigenplanes))
    if len(groups) == 1:
        beta = groups[0][0]
        mu = -beta
        if abs(mu * mu - ratio) > tol * max(1.0, abs(ratio)):
            raise StructureViolation("eigenvalue of B fails mu^2 = kappa/tau")
        return Case3(kappa=kappa)
    if len(groups) != 2 or any(plane.dimension != 2 for _, plane in groups):
        raise StructureViolation(
            "B must have one or two J-invariant eigenplanes in dimension 4"
        )
    (beta1, plane1), (beta2, plane2) = groups
    mu1, mu2 = -beta1, -beta2
    for plane in (plane1, plane2):
        _require_j_invariant(plane, j, tol * scale_b, "eigenplane of B")
    if abs(mu1 * mu2 - ratio) > tol * max(1.0, abs(ratio)):
        raise StructureViolation(
            f"eigenvalue product {mu1 * mu2:.6g} fails mu1 mu2 = kappa/tau = {ratio:.6g}"
        )
    structure = j @ (mu1 * plane1.projector() + mu2 * plane2.projector())
    if float(np.max(np.abs(a - structure))) > tol * scale_of(a):
        raise StructureViolation("skew operator is not J composed with weighted plane projections")
    if abs(mu1 - mu2) <= tol * scale_b:
        return Case3(kappa=kappa)
    mu1, mu2, plane1, plane2 = _canonical_mu_pair(mu1, mu2, plane1, plane2)
    return Case2(kappa=kappa, tau=tau, mu1=float(mu1), mu2=float(mu2), w1=plane1, w2=plane2)


def identity_residuals(kappa: float, tau: int, a, j, x, y) -> tuple[float, float]:
    """Residual norms of the two Kahler compatibility identities.

    With B = AJ and {x, y} orthonormal, a Kahler model tensor satisfies

        kappa [<x,Jy> Jy - x]
            = tau [<x,(3A + 2JB)y> Ay + <x,By> By - <y,By> Bx]

        kappa [<y,By> Jx - <y,Bx> Jy - <x,Ay> y]
            = tau [2<x,(A + JB)y> A^2 y + <y,A^2 y> Ax - <x,A^2 y> Ay
                   + <By,Ay> Bx - <Bx,Ay> By]

    Both are invariant under jointly negating A, matching the sign freedom
    of the decomposition.  Returned values are Euclidean norms of
    (left side - right side).
    """
    a = require_skew(a)
    j = require_complex_structure(j)
    rows = require_orthonormal([x, y])
    x, y = rows[0], rows[1]
    b = a @ j
    ax, ay = a @ x, a @ y
    bx, by = b @ x, b @ y
    jx, jy = j @ x, j @ y
    a2y = a @ ay

    lhs_one = kappa * (np.dot(x, jy) * jy - x)
    rhs_one = tau * (
        np.dot(x, 3.0 * ay + 2.0 * (j @ by)) * ay
        + np.dot(x, by) * by
        - np.dot(y, by) * bx
    )
    res_one = float(np.linalg.norm(lhs_one - rhs_one))

    lhs_two = kappa * (np.dot(y, by) * jx - np.dot(y, bx) * jy - np.dot(x, ay) * y)
    rhs_two = tau * (
        2.0 * np.dot(x, ay + j @ by) * a2y
        + np.dot(y, a2y) * ax
        - np.dot(x, a2y) * ay
        + np.dot(by, ay) * bx
        - np.dot(bx, ay) * by
    )
    res_two = float(np.linalg.norm(lhs_two - rhs_two))
    return res_one, res_two


def relations_residuals(kappa: float, tau: int, mu1: float, mu2: float, e1, e2, j) -> tuple[float, float]:
    """Residuals of the scalar eigenvalue relations for a B-eigenpair.

    For orthonormal eigenvectors e1, e2 of B = AJ with eigenvalues mu1 and
    mu2 (either sign convention, applied to both jointly):

        kappa (1 - <e1,Je2>^2) = tau (mu1 mu2 - mu2^2 <e1,Je2>^2)
        kappa mu2 (1 - <e1,Je2>^2) = tau mu1 mu2^2 (1 - <e1,Je2>^2)

    Returns the absolute residuals of the two relations.
    """
    j = require_complex_structure(j)
    rows = require_orthonormal([e1, e2])
    e1, e2 = rows[0], rows[1]
    overlap_sq = float(np.dot(e1, j @ e2)) ** 2
    res_three = abs(kappa * (1.0 - overlap_sq) - tau * (mu1 * mu2 - mu2**2 * overlap_sq))
    res_four = abs(
        kappa * mu2 * (1.0 - overlap_sq) - tau * mu1 * mu2**2 * (1.0 - overlap_sq)
    )
    return res_three, res_four


def einstein_check(r: CurvatureTensor, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the Ricci operator is a constant multiple of the identity.

    Returns (is_einstein, constant) with constant = trace(Ric)/d.  For a
    model tensor this holds exactly when A^2 is a multiple of the identity.
    """
    ric = ricci(r)
    constant = float(np.trace(ric)) / r.dim
    resid = float(np.max(np.abs(ric - constant * np.eye(r.dim))))
    return resid <= tol * scale_of(ric), constant
