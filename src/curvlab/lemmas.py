"""Seeded property suite: one measure for each structural identity the library relies on.

Each measure takes explicit instances, plus the generator it draws test
vectors from where it draws any, and returns the extreme it measured:
the worst deviation, or a count of mismatches, and ``inf`` where an
instance lands in the wrong case altogether.  A model is the tuple
``(tensor, kappa, tau, A)`` of :func:`models.random_model`; ``points``
holds one array of unit rows per model.  ``run_suite`` (CLI
``lemma-suite``) builds its instances with the ``models`` generators and
pairs each measure with its threshold; the acceptance and per-module
tests call the same measures on their own seeded instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import build_model, jacobi_operator, nullity_space, ricci, validate_symmetries
from .errors import NotKahler, ParseError
from .isotropy import (
    almost_isotropy_scan,
    eigenspace_at,
    extremal_curvature,
    recover_decomposition,
)
from .kahler import (
    Case2,
    classify_kahler,
    commute_type,
    einstein_check,
    identity_residuals,
    relations_residuals,
)
from .linalg import (
    Subspace,
    random_skew,
    rank_with_tol,
    scale_of,
    symmetric_spectrum,
    unit_sphere_samples,
)
from .models import (
    as_model,
    case2_instance,
    case3_instance,
    case4_instance,
    planted_instance,
    quaternion_instance,
    random_model,
    random_unit,
    sphere_point_instance,
    unit_orthogonal_to,
)
from .sphere import distribution_at, fit_skew_from_samples, sphere_structure_check, tangency_profile

_CIRCLE = np.linspace(0.0, 2.0 * np.pi, 1000)


@dataclass(frozen=True)
class CheckResult:
    """One check: ``passed`` is ``value <= threshold``, and ``detail`` says what ``value`` is."""

    name: str
    passed: bool
    detail: str
    value: float
    threshold: float


def _worst(values) -> float:
    return max(values, default=0.0)


def line_angle(a, b) -> float:
    """Angle between the lines spanned by two matrices in Frobenius geometry.

    Taken as the arcsine of the distance from a/|a| to its projection on
    the line of b, which keeps its precision near zero, unlike an arccosine.
    """
    a_hat, b_hat = a / np.linalg.norm(a), b / np.linalg.norm(b)
    sine = float(np.linalg.norm(a_hat - np.sum(a_hat * b_hat) * b_hat))
    return float(np.arcsin(min(1.0, sine)))


def projector_defect(subspaces) -> float:
    """Worst |P^2 - P| over the subspaces' projectors."""
    return _worst(float(np.max(np.abs(p @ p - p))) for p in (w.projector() for w in subspaces))


def spectrum_residual(matrices) -> float:
    """Worst |V^T V - I| and relative |V diag(e) V^T - S| of ``symmetric_spectrum``."""
    worst = 0.0
    for sym in matrices:
        eigenvalues, vectors = symmetric_spectrum(sym)
        worst = max(worst, float(np.max(np.abs(vectors.T @ vectors - np.eye(len(sym))))))
        rebuilt = (vectors * eigenvalues) @ vectors.T
        worst = max(worst, float(np.max(np.abs(rebuilt - sym))) / scale_of(sym))
    return worst


def odd_rank_count(skews) -> int:
    """How many of the skew operators have odd rank."""
    return sum(rank_with_tol(a) % 2 for a in skews)


def symmetry_residual(tensors) -> float:
    """Worst base symmetry residual of ``validate_symmetries``."""
    return _worst(validate_symmetries(tensor).worst_base_residual for tensor in tensors)


def jacobi_deviation(models, points, rng) -> float:
    """Worst |J_s w - (kappa w + 3 tau <w, As> As)| over w orthogonal to s."""
    worst = 0.0
    for (tensor, kappa, tau, a), samples in zip(models, points, strict=True):
        for s, jac in zip(samples, jacobi_operator(tensor, samples)):
            w = unit_orthogonal_to(s, rng)
            image = a @ s
            expected = kappa * w + 3.0 * tau * np.dot(w, image) * image
            worst = max(worst, float(np.max(np.abs(jac @ w - expected))))
    return worst


def ricci_deviation(models) -> float:
    """Worst |Ric - ((d-1) kappa Id - 3 tau A^2)|."""
    worst = 0.0
    for tensor, kappa, tau, a in models:
        expected = (tensor.dim - 1) * kappa * np.eye(tensor.dim) - 3.0 * tau * (a @ a)
        worst = max(worst, float(np.max(np.abs(ricci(tensor) - expected))))
    return worst


def einstein_mismatches(models) -> int:
    """How many models ``einstein_check`` judges other than "A^2 is a multiple of Id"."""
    mismatches = 0
    for tensor, _, _, a in models:
        a2 = a @ a
        scalar = float(np.max(np.abs(a2 - (np.trace(a2) / tensor.dim) * np.eye(tensor.dim)))) < 1e-9
        mismatches += einstein_check(tensor)[0] != scalar
    return mismatches


def rank_excess(models, points) -> int:
    """How many samples s give J_s - kappa (Id - s s^T) a rank above one."""
    bad = 0
    for (tensor, kappa, _, _), samples in zip(models, points, strict=True):
        # the s row and column vanish, so this is the rank on s-perp
        ambient = np.eye(tensor.dim) - samples[:, :, None] * samples[:, None, :]
        deviations = jacobi_operator(tensor, samples) - kappa * ambient
        bad += sum(rank_with_tol(deviation) > 1 for deviation in deviations)
    return bad


def roundtrip_error(models) -> float:
    """Worst kappa error and relative rebuild residual of ``recover_decomposition``."""
    worst = 0.0
    for tensor, kappa, _, _ in models:
        found = recover_decomposition(tensor)
        rebuilt = build_model(found.kappa, found.tau, found.skew if found.tau else None, dim=tensor.dim)
        residual = float(np.max(np.abs(rebuilt.components - tensor.components)))
        worst = max(worst, abs(found.kappa - kappa), residual / scale_of(tensor.max_abs))
    return worst


def extremal_deviation(models, points) -> float:
    """Worst |lambda(s) - (kappa + 3 tau <As, As>)|."""
    return _worst(
        abs(extremal_curvature(tensor, kappa, s) - (kappa + 3.0 * tau * float(np.dot(a @ s, a @ s))))
        for (tensor, kappa, tau, a), samples in zip(models, points, strict=True)
        for s in samples
    )


def exchange_deviation(models, rng) -> float:
    """Worst relative gap in (lambda(v) - kappa)<Aw, Aw> = (lambda(w) - kappa)<Av, Av>.

    Draws five orthonormal pairs (v, w) per model.
    """
    worst = 0.0
    for tensor, kappa, _, a in models:
        for _ in range(5):
            v = random_unit(tensor.dim, rng)
            w = unit_orthogonal_to(v, rng)
            lhs = (extremal_curvature(tensor, kappa, v) - kappa) * float(np.dot(a @ w, a @ w))
            rhs = (extremal_curvature(tensor, kappa, w) - kappa) * float(np.dot(a @ v, a @ v))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


def projection_form_deviation(models, points, rng) -> float:
    """Worst relative |J_s w - (kappa w + (lambda - kappa) <w, As>/<As, As> As)|, As not near 0."""
    worst = 0.0
    for (tensor, kappa, _, a), samples in zip(models, points, strict=True):
        for s, jac in zip(samples, jacobi_operator(tensor, samples)):
            image = a @ s
            weight = float(np.dot(image, image))
            if weight < 1e-6:
                continue
            lam = extremal_curvature(tensor, kappa, s)
            w = unit_orthogonal_to(s, rng)
            expected = kappa * w + (lam - kappa) * (np.dot(w, image) / weight) * image
            worst = max(worst, float(np.max(np.abs(jac @ w - expected))) / scale_of(expected))
    return worst


def eigenspace_angle(models, points) -> float:
    """Worst angle between the kappa-eigenspace at s and span(s, As)-perp, As not near 0."""
    return _worst(
        eigenspace_at(tensor, kappa, s).angle_to(Subspace.span([s, a @ s]).complement())
        for (tensor, kappa, _, a), samples in zip(models, points, strict=True)
        for s in samples
        if float(np.linalg.norm(a @ s)) >= 1e-6
    )


def anticommuting_rejection(instance: dict, points) -> float:
    """Scan kappa error and worst |kappa |Ax|^2 - tau |Ax|^4| of an anticommuting model.

    ``inf`` unless A anticommutes with J, the scan finds the model almost
    isotropic, and ``classify_kahler`` rejects it as not Kahler.
    """
    tensor, kappa, tau, a = as_model(instance)
    scan = almost_isotropy_scan(tensor)
    try:
        classify_kahler(tensor, instance["j"])
    except NotKahler:
        if commute_type(a, instance["j"]) == "anticommute" and scan.is_almost_isotropic:
            ax2 = np.sum((points @ a.T) ** 2, axis=1)
            return max(abs(scan.kappa - kappa), float(np.max(np.abs(kappa * ax2 - tau * ax2**2))))
    return np.inf


def _case2_results(instances) -> list | None:
    """``classify_kahler`` of each instance, or None unless every one is case 2."""
    results = [classify_kahler(instance["tensor"], instance["j"]) for instance in instances]
    return results if all(isinstance(result, Case2) for result in results) else None


def eigenplane_residual(instances) -> float:
    """Worst |(Id - P) J P| over the two B eigenplanes; ``inf`` unless the case is 2."""
    results = _case2_results(instances)
    if results is None:
        return np.inf
    return _worst(
        float(np.max(np.abs((np.eye(len(p)) - p) @ instance["j"] @ p)))
        for instance, result in zip(instances, results)
        for p in (result.w1.projector(), result.w2.projector())
    )


def mu_product_deviation(instances) -> float:
    """Worst relative |mu1 mu2 - kappa/tau|; ``inf`` unless the case is 2."""
    results = _case2_results(instances)
    if results is None:
        return np.inf
    return _worst(abs(r.mu1 * r.mu2 - r.kappa / r.tau) / max(1.0, abs(r.kappa / r.tau)) for r in results)


def kahler_identity_residual(instances, rng) -> float:
    """Worst residual of the two ``identity_residuals`` identities of Kahler instances.

    Draws 20 orthonormal pairs (x, y) per instance; an instance without a
    kappa (the flat case) has kappa = 0.
    """
    worst = 0.0
    for instance in instances:
        kappa, tau, a, j = instance.get("kappa", 0.0), instance["tau"], instance["skew"], instance["j"]
        for _ in range(20):
            x = random_unit(len(j), rng)
            worst = max(worst, *identity_residuals(kappa, tau, a, j, x, unit_orthogonal_to(x, rng)))
    return worst


def relations_residual(instances) -> float:
    """Worst ``relations_residuals`` over classified B-eigenpairs; ``inf`` unless the case is 2.

    Pairs the first eigenvectors of the two planes, and the two eigenvectors
    within each plane.
    """
    results = _case2_results(instances)
    if results is None:
        return np.inf
    worst = 0.0
    for instance, r in zip(instances, results):
        (u1, u2), (v1, v2) = r.w1.basis.T, r.w2.basis.T
        for e1, mu1, e2, mu2 in ((u1, r.mu1, v1, r.mu2), (u1, r.mu1, u2, r.mu1), (v1, r.mu2, v2, r.mu2)):
            worst = max(worst, *relations_residuals(r.kappa, r.tau, mu1, mu2, e1, e2, instance["j"]))
    return worst


def nullity_angle(instances) -> float:
    """Worst angle between the nullity space and W-perp of flat-case instances.

    A nullity space of the wrong dimension counts as pi/2.
    """
    return _worst(nullity_space(i["tensor"]).angle_to(i["w"].complement()) for i in instances)


def membership_overlap(triples) -> float:
    """Worst |<w, As>| and |<s, Aw>| over (A, s, w) with w in D_s."""
    return _worst(max(abs(float(np.dot(w, a @ s))), abs(float(np.dot(s, a @ w)))) for a, s, w in triples)


def geodesic_tangency(triples) -> float:
    """Worst ``tangency_profile`` over a full great circle, (A, s, w) with w in D_s."""
    return _worst(tangency_profile(a, s, w, _CIRCLE) for a, s, w in triples)


def planted_fit_angle(pairs) -> float:
    """Worst angle between the fitted and the planted A, over samples that fix the fit (gap > 1e-6)."""
    worst = 0.0
    for planted, samples in pairs:
        fit = fit_skew_from_samples(samples)
        if fit.gap > 1e-6:
            worst = max(worst, line_angle(fit.skew, planted))
    return worst


def structure_angle(instances) -> float:
    """Worst ``sphere_structure_check`` angle over (A, k, m, T)."""
    return _worst(sphere_structure_check(*instance) for instance in instances)


def run_suite(dims=(4, 6), trials: int = 25, seed: int = 0) -> list[CheckResult]:
    """Run every check over the given dimensions; deterministic for a fixed seed."""
    dims = [int(d) for d in dims]
    if not dims:
        raise ParseError("at least one dimension is required")
    for d in dims:
        if d < 3:  # every tensor in dimension 2 is kappa R1, so (kappa, tau, A) is not recoverable
            raise ParseError(f"dimension must be at least 3, got {d}")
    if trials < 1:
        raise ParseError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    draws = [dims[trial % len(dims)] for trial in range(trials)]
    models = [random_model(d, rng) for d in draws]
    points = [unit_sphere_samples(d, 6, seed + trial) for trial, d in enumerate(draws)]
    skews = [random_skew(d, seed + trial) for trial, d in enumerate(draws)]
    tangents = []
    for a in skews:
        s = random_unit(a.shape[0], rng)
        space = distribution_at(a, s)
        if space.dimension:
            tangents.append((a, s, space.basis[:, int(rng.integers(space.dimension))]))
    even = [(trial, d) for trial, d in enumerate(draws) if d % 2 == 0]
    holomorphic = [case3_instance(d, 1.0 + 0.1 * trial) for trial, d in even]
    constant = [as_model(instance) for instance in holomorphic]
    flat = [
        case4_instance(d, float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1.0, 1.0])), seed + trial)
        for trial, d in even if d >= 4
    ]
    case2 = [case2_instance(seed + trial) for trial in range(trials)]
    planted = [planted_instance(d, trial % 2, seed + trial, seed + 7 * trial + 1, 30)
               for trial in range(max(1, trials // 4)) for d in (4, 6)]
    checks = [
        ("projector idempotent", "worst |P^2 - P|", 1e-12, projector_defect(
            Subspace.span(rng.standard_normal((int(rng.integers(0, d + 1)), d)), dim=d) for d in draws)),
        ("symmetric spectrum orthonormal", "worst residual", 1e-10, spectrum_residual(
            (m + m.T) / 2.0 for m in (rng.standard_normal((d, d)) for d in draws))),
        ("skew operators have even rank", "odd ranks", 0, odd_rank_count(skews)),
        ("model curvature symmetries", "worst residual", 1e-12, symmetry_residual(m[0] for m in models)),
        ("Jacobi rank-one form", "worst deviation", 1e-10, jacobi_deviation(models, points, rng)),
        ("Ricci closed form", "worst deviation", 1e-10, ricci_deviation(models)),
        ("Einstein iff A^2 scalar", "mismatches", 0, einstein_mismatches(models + constant)),
        ("Jacobi deviation rank <= 1", "rank violations", 0, rank_excess(models, points)),
        ("decomposition round trip", "worst kappa error or residual", 1e-8, roundtrip_error(models)),
        ("extremal curvature relation", "worst deviation", 1e-8, extremal_deviation(models, points)),
        ("orthonormal curvature exchange", "worst deviation", 1e-8, exchange_deviation(models, rng)),
        ("Jacobi projection form", "worst deviation", 1e-8,
         projection_form_deviation(models, points, rng)),
        ("kappa eigenspace is span(s, As)-perp", "worst angle", 1e-6, eigenspace_angle(models, points)),
        ("anticommuting structure rejected", "worst residual", 1e-10, anticommuting_rejection(
            quaternion_instance(), unit_sphere_samples(4, trials, seed))),
        ("B eigenplanes J-invariant", "worst residual", 1e-8, eigenplane_residual(case2)),
        ("eigenvalue product mu1 mu2 = kappa/tau", "worst deviation", 1e-8, mu_product_deviation(case2)),
        ("flat-case nullity space", "worst angle", 1e-6, nullity_angle(flat)),
        ("distribution membership symmetric", "worst overlap", 1e-10, membership_overlap(tangents)),
        ("distribution totally geodesic", "worst tangency", 1e-10, geodesic_tangency(tangents)),
        ("planted distribution recovery", "worst angle", 1e-6, planted_fit_angle(planted)),
        ("sphere distribution decomposition", "worst angle", 1e-10, structure_angle(
            sphere_point_instance(d, rng) for d in draws if d >= 4)),
        ("Kahler compatibility identities", "worst residual", 1e-10,
         kahler_identity_residual(case2 + holomorphic + flat, rng)),
        ("eigenvalue relations of B eigenpairs", "worst residual", 1e-10, relations_residual(case2)),
    ]
    return [CheckResult(name, value <= threshold, detail, value, threshold)
            for name, detail, threshold, value in checks]
