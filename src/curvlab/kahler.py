"""Classification of Kahler almost isotropic tensors into four structural cases.

For an even-dimensional model with orthogonal complex structure J, the
Kahler almost isotropic tensors fall into exactly four families:

    Case1  d = 2                      R = kappa * R1
    Case2  d = 4, kappa != 0          A = J(mu1 P_W1 + mu2 P_W2), mu1 mu2 = kappa/tau
    Case3  d >= 6 and kappa != 0      R = kappa (R1 + RJ)   (also d = 4 with mu1 = mu2)
    Case4  kappa = 0, d >= 4          R = c * R_{J P_W} for a holomorphic plane W

The classifier recomputes everything from the tensor itself, so it doubles
as a validator for hand-built inputs: any failed consequence (B = AJ not
commuting with J, A not J times its weighted eigenplane projections, a
broken eigenvalue product, too many eigenvalue clusters) raises
``StructureViolation``.  The eigenplanes come from one Hermitian solve of
B on (R^d, J) = C^(d/2), so they are J-invariant by construction.
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
    _lapack,
    require_complex_structure,
    require_orthonormal,
    require_skew,
    require_within,
    threshold,
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

    When A and J commute, B is a Hermitian operator on (R^d, J) =
    C^(d/2) and is diagonalized as one; ``eigenvalues`` then lists one
    value per cluster of its d/2 eigenvalues, ascending, and
    ``eigenplanes`` the real span of each cluster's eigenvectors, which is
    J-invariant by construction.  For the anticommuting or mixed cases the
    spectral fields stay empty.
    """

    b: np.ndarray
    commute_type: str
    eigenvalues: list[float]
    eigenplanes: list[Subspace]


def commute_type(a, j, tol: float = DEFAULT_TOL) -> str:
    """Classify AJ versus JA: "commute", "anticommute", or "neither"."""
    a = require_skew(a)
    j = require_complex_structure(j, dim=len(a))
    limit = threshold(tol, a)
    commutator = float(np.max(np.abs(a @ j - j @ a)))
    anticommutator = float(np.max(np.abs(a @ j + j @ a)))
    if commutator <= limit:
        return "commute"
    if anticommutator <= limit:
        return "anticommute"
    return "neither"


def analyze_b_operator(a, j, tol: float = DEFAULT_TOL) -> BAnalysis:
    """Commutation type and (when commuting) clustered eigenplanes of B = AJ.

    B is diagonalized once as a Hermitian operator on (R^d, J) = C^(d/2):
    the columns of V span the +1 eigenspace of iJ, ``eigh`` solves the
    (d/2) x (d/2) matrix V^H B V, and each eigenvector z = V y gives the
    real plane spanned by sqrt(2) Re z and sqrt(2) Im z = J sqrt(2) Re z.
    Eigenvalues no more than tol * max(1, max|B|) above their neighbour
    share a cluster.
    """
    a = require_skew(a)
    j = require_complex_structure(j, dim=len(a))
    b = a @ j
    kind = commute_type(a, j, tol)
    eigenvalues: list[float] = []
    eigenplanes: list[Subspace] = []
    if kind == "commute":
        frame = _lapack(np.linalg.eigh, 1j * j)[1][:, len(j) // 2:]
        spectrum, vectors = _lapack(np.linalg.eigh, frame.conj().T @ b @ frame)
        z = np.sqrt(2.0) * (frame @ vectors)
        gaps = np.flatnonzero(np.diff(spectrum) > threshold(tol, b))
        for group in np.split(np.arange(len(spectrum)), gaps + 1):
            eigenvalues.append(float(np.mean(spectrum[group])))
            eigenplanes.append(Subspace(len(b), np.hstack([z[:, group].real, z[:, group].imag])))
    return BAnalysis(b=b, commute_type=kind, eigenvalues=eigenvalues, eigenplanes=eigenplanes)


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
    max_abs = r.max_abs
    limit = threshold(tol, max_abs)
    j = require_complex_structure(j)
    report = validate_symmetries(r, j)
    require_within(report.worst_base_residual, limit, SymmetryViolation,
                   "curvature symmetries fail: worst residual")
    require_within(report.kahler_residual, limit, NotKahler, "Kahler residual")

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
        require_within(max_abs, limit, StructureViolation, "isotropic (tau = 0) "
                       "Kahler tensor must vanish in dimension >= 4: largest entry")
        return Case4(c=0.0, w=Subspace.empty(d))

    analysis = analyze_b_operator(a, j, tol)
    if analysis.commute_type != "commute":
        relation = {"anticommute": "anticommutes",
                    "neither": "neither commutes nor anticommutes"}[analysis.commute_type]
        raise StructureViolation(f"recovered skew operator {relation} with J; "
                                 "a Kahler almost isotropic tensor requires AJ = JA")
    # B = AJ = -mu on the k-th cluster's plane, so A = J sum_k mu_k P_k
    mus = [-value for value in analysis.eigenvalues]
    planes = analysis.eigenplanes
    structure = j @ sum(mu * plane.projector() for mu, plane in zip(mus, planes))
    require_within(float(np.max(np.abs(a - structure))), threshold(tol, a), StructureViolation,
                   "skew operator is not J composed with weighted plane projections: residual")

    if abs(kappa) <= limit:
        # flat case: A = mu * J P_W for a single holomorphic plane W
        nonzero = [(mu, plane) for mu, plane in zip(mus, planes)
                   if abs(mu) > threshold(tol, analysis.b)]
        if len(nonzero) != 1 or nonzero[0][1].dimension != 2:
            raise StructureViolation("flat case requires exactly one 2-dimensional nonzero "
                                     "eigenplane of B")
        mu, plane = nonzero[0]
        return Case4(c=float(tau * mu * mu), w=plane)

    if len(mus) > (2 if d == 4 else 1):
        raise StructureViolation(f"B has {len(mus)} eigenvalue clusters in dimension {d}; "
                                 "a Kahler almost isotropic tensor has one, or two in dimension 4")
    ratio = kappa / tau
    product = mus[0] * mus[-1]
    require_within(abs(product - ratio), threshold(tol, ratio), StructureViolation,
                   f"eigenvalue product {product:.6g} fails mu_first mu_last = kappa/tau = "
                   f"{ratio:.6g}: residual")
    if len(mus) == 1:
        return Case3(kappa=kappa)
    (mu1, mu2), (plane1, plane2) = mus, planes
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
    return resid <= threshold(tol, ric), constant
