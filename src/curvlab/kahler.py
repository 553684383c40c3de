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
    require_within,
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
    j = require_complex_structure(j, dim=len(a))
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
    j = require_complex_structure(j, dim=len(a))
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


def _require_j_invariant(plane: Subspace, j: np.ndarray, tol: float):
    p = plane.projector()
    require_within(float(np.max(np.abs((np.eye(plane.dim) - p) @ j @ p))), tol,
                   StructureViolation, "eigenplane of B is not J-invariant: residual")


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
    require_within(report.worst_base_residual, tol * scale, SymmetryViolation,
                   "curvature symmetries fail: worst residual")
    require_within(report.kahler_residual, tol * scale, NotKahler, "Kahler residual")

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
        require_within(max_abs, tol * scale, StructureViolation, "isotropic (tau = 0) "
                       "Kahler tensor must vanish in dimension >= 4: largest entry")
        return Case4(c=0.0, w=Subspace.empty(d))

    analysis = analyze_b_operator(a, j, tol)
    if analysis.commute_type != "commute":
        relation = {"anticommute": "anticommutes",
                    "neither": "neither commutes nor anticommutes"}[analysis.commute_type]
        raise StructureViolation(f"recovered skew operator {relation} with J; "
                                 "a Kahler almost isotropic tensor requires AJ = JA")
    b = analysis.b
    scale_b = scale_of(b)
    groups = list(zip(analysis.eigenvalues, analysis.eigenplanes))

    if abs(kappa) <= tol * scale:
        # flat case: A = mu * J P_W for a single holomorphic plane W
        nonzero = [(value, plane) for value, plane in groups if abs(value) > tol * scale_b]
        if len(nonzero) != 1 or nonzero[0][1].dimension != 2:
            raise StructureViolation("flat case requires exactly one 2-dimensional nonzero "
                                     "eigenplane of B")
        mu, plane = -nonzero[0][0], nonzero[0][1]
        _require_j_invariant(plane, j, tol * scale_b)
        require_within(float(np.max(np.abs(a - j @ (mu * plane.projector())))), tol * scale_of(a),
                       StructureViolation,
                       "skew operator is not J composed with a plane projection: residual")
        return Case4(c=float(tau * mu * mu), w=plane)

    ratio = kappa / tau
    ratio_tol = tol * max(1.0, abs(ratio))
    # Case 3: B is a multiple of the identity in dimension >= 6, and may be in dimension 4
    if d >= 6:
        mu = float(np.trace(b)) / d
        require_within(float(np.max(np.abs(b - mu * np.eye(d)))), tol * scale_b,
                       StructureViolation,
                       "B = AJ must be a multiple of the identity in dimension >= 6: residual")
    elif len(groups) == 1:
        mu = groups[0][0]  # B's eigenvalue is -mu, and only mu^2 is checked
    if d >= 6 or len(groups) == 1:
        require_within(abs(mu * mu - ratio), ratio_tol, StructureViolation,
                       "eigenvalue of B fails mu^2 = kappa/tau: residual")
        return Case3(kappa=kappa)

    # d == 4 with kappa != 0 and two eigenvalues of B
    if len(groups) != 2 or any(plane.dimension != 2 for _, plane in groups):
        raise StructureViolation("B must have one or two J-invariant eigenplanes in dimension 4")
    (beta1, plane1), (beta2, plane2) = groups
    mu1, mu2 = -beta1, -beta2
    for plane in (plane1, plane2):
        _require_j_invariant(plane, j, tol * scale_b)
    require_within(abs(mu1 * mu2 - ratio), ratio_tol, StructureViolation,
                   f"eigenvalue product {mu1 * mu2:.6g} fails mu1 mu2 = kappa/tau = {ratio:.6g}: "
                   "residual")
    structure = j @ (mu1 * plane1.projector() + mu2 * plane2.projector())
    require_within(float(np.max(np.abs(a - structure))), tol * scale_of(a), StructureViolation,
                   "skew operator is not J composed with weighted plane projections: residual")
    if abs(mu1 - mu2) <= tol * scale_b:
        return Case3(kappa=kappa)
    # the tensor fixes the pair only up to joint negation: report mu1 >= mu2, mu1 + mu2 >= 0
    if mu1 + mu2 < 0:
        mu1, mu2 = -mu1, -mu2
    if mu1 < mu2:
        mu1, mu2, plane1, plane2 = mu2, mu1, plane2, plane1
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
