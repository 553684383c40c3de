"""Seeded property suite covering every structural identity the library relies on.

Each check draws deterministic instances, measures the worst violation of
one identity, and reports pass/fail with the observed extreme.  The CLI
``lemma-suite`` command runs the whole table; the pytest suite exercises
the same identities with finer-grained assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (
    jacobi_operator,
    nullity_space,
    ricci,
    validate_symmetries,
)
from .errors import NotKahler
from .isotropy import (
    almost_isotropy_scan,
    eigenspace_at,
    extremal_curvature,
    recover_decomposition,
)
from .kahler import Case2, Case3, classify_kahler, commute_type, einstein_check
from .linalg import (
    Subspace,
    random_skew,
    rank_with_tol,
    symmetric_spectrum,
    unit_sphere_samples,
)
from .models import (
    block_diagonal_skew,
    case2_instance,
    case3_instance,
    case4_instance,
    quaternion_instance,
    random_model,
    unit_orthogonal_to,
)
from .sphere import (
    DistributionSamples,
    distribution_at,
    fit_skew_from_samples,
    sphere_structure_check,
    tangency_profile,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_subspace(d: int, k: int, rng: np.random.Generator) -> Subspace:
    return Subspace.span(rng.standard_normal((k, d)), dim=d)


def check_projector_idempotent(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        w = _random_subspace(d, int(rng.integers(0, d + 1)), rng)
        p = w.projector()
        worst = max(worst, float(np.max(np.abs(p @ p - p))))
    return CheckResult("projector idempotent", worst < 1e-12, f"worst |P^2 - P| = {worst:.2e}")


def check_spectrum_orthonormal(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        m = rng.standard_normal((d, d))
        sym = (m + m.T) / 2.0
        eigenvalues, vectors = symmetric_spectrum(sym)
        worst = max(worst, float(np.max(np.abs(vectors.T @ vectors - np.eye(d)))))
        rebuilt = (vectors * eigenvalues) @ vectors.T
        worst = max(worst, float(np.max(np.abs(rebuilt - sym))) / max(1.0, float(np.max(np.abs(sym)))))
    return CheckResult("symmetric spectrum orthonormal", worst < 1e-10, f"worst residual = {worst:.2e}")


def check_skew_even_rank(dims, trials, seed) -> CheckResult:
    bad = 0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        if rank_with_tol(random_skew(d, seed + trial), 1e-9) % 2:
            bad += 1
    return CheckResult("skew operators have even rank", bad == 0, f"{bad} odd ranks in {trials} draws")


def check_model_symmetries(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, _, _, _ = random_model(d, rng)
        report = validate_symmetries(tensor)
        worst = max(worst, report.worst_base_residual)
    return CheckResult("model curvature symmetries", worst < 1e-12, f"worst residual = {worst:.2e}")


def check_jacobi_formula(dims, trials, seed) -> CheckResult:
    # J_s(w) = kappa w + 3 tau <w, As> As for w orthogonal to s
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, tau, a = random_model(d, rng)
        samples = unit_sphere_samples(d, 6, seed + trial)
        for s, jac in zip(samples, jacobi_operator(tensor, samples)):
            w = unit_orthogonal_to(s, rng)
            image = a @ s
            expected = kappa * w + 3.0 * tau * np.dot(w, image) * image
            got = jac @ w
            worst = max(worst, float(np.max(np.abs(got - expected))))
    return CheckResult("Jacobi rank-one form", worst < 1e-10, f"worst deviation = {worst:.2e}")


def check_ricci_formula(dims, trials, seed) -> CheckResult:
    # Ric = (d-1) kappa Id - 3 tau A^2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, tau, a = random_model(d, rng)
        expected = (d - 1) * kappa * np.eye(d) - 3.0 * tau * (a @ a)
        worst = max(worst, float(np.max(np.abs(ricci(tensor) - expected))))
    return CheckResult("Ricci closed form", worst < 1e-10, f"worst deviation = {worst:.2e}")


def check_einstein_criterion(dims, trials, seed) -> CheckResult:
    # Einstein exactly when A^2 is a multiple of the identity
    rng = np.random.default_rng(seed)
    failures = 0
    total = 0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        if d % 2:
            continue
        tensor, kappa, tau, a = random_model(d, rng)
        a2 = a @ a
        multiple = float(np.max(np.abs(a2 - (np.trace(a2) / d) * np.eye(d)))) < 1e-9
        is_einstein, _ = einstein_check(tensor, 1e-9)
        failures += is_einstein != multiple
        total += 1
        scaled = case3_instance(d, 1.0 + 0.1 * trial)
        is_einstein, _ = einstein_check(scaled["tensor"], 1e-9)
        failures += not is_einstein
        total += 1
    return CheckResult("Einstein iff A^2 scalar", failures == 0, f"{failures} mismatches in {total} cases")


def check_rank_one_deviation(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, _, _ = random_model(d, rng)
        samples = unit_sphere_samples(d, 4, seed + trial)
        # J_s - kappa * proj_{s-perp}: the s row and column vanish, so the
        # rank is the rank on s-perp
        ambient = np.eye(d) - samples[:, :, None] * samples[:, None, :]
        deviations = jacobi_operator(tensor, samples) - kappa * ambient
        bad += sum(rank_with_tol(deviation, 1e-9) > 1 for deviation in deviations)
    return CheckResult("Jacobi deviation rank <= 1", bad == 0, f"{bad} rank violations")


def check_roundtrip_recovery(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_kappa = 0.0
    worst_resid = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, tau, _ = random_model(d, rng)
        decomposition = recover_decomposition(tensor)
        worst_kappa = max(worst_kappa, abs(decomposition.kappa - kappa))
        worst_resid = max(worst_resid, decomposition.residual)
    ok = worst_kappa < 1e-8 and worst_resid < 1e-8
    return CheckResult(
        "decomposition round trip", ok,
        f"worst kappa error = {worst_kappa:.2e}, worst residual = {worst_resid:.2e}",
    )


def check_extremal_relation(dims, trials, seed) -> CheckResult:
    # lambda(s) = kappa + 3 tau <As, As>
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, tau, a = random_model(d, rng)
        for s in unit_sphere_samples(d, 6, seed + trial):
            lam = extremal_curvature(tensor, kappa, s)
            expected = kappa + 3.0 * tau * float(np.dot(a @ s, a @ s))
            worst = max(worst, abs(lam - expected))
    return CheckResult("extremal curvature relation", worst < 1e-8, f"worst deviation = {worst:.2e}")


def check_curvature_exchange(dims, trials, seed) -> CheckResult:
    # (lambda(v) - kappa) <Aw, Aw> = (lambda(w) - kappa) <Av, Av>
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, _, a = random_model(d, rng)
        for _ in range(5):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            w = unit_orthogonal_to(v, rng)
            lhs = (extremal_curvature(tensor, kappa, v) - kappa) * float(np.dot(a @ w, a @ w))
            rhs = (extremal_curvature(tensor, kappa, w) - kappa) * float(np.dot(a @ v, a @ v))
            scale = max(1.0, abs(lhs), abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    return CheckResult("orthonormal curvature exchange", worst < 1e-8, f"worst deviation = {worst:.2e}")


def check_jacobi_projection_form(dims, trials, seed) -> CheckResult:
    # J_s(w) = kappa w + (lambda - kappa) <w, As>/<As, As> As away from the kernel
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, _, a = random_model(d, rng)
        samples = unit_sphere_samples(d, 4, seed + trial)
        for s, jac in zip(samples, jacobi_operator(tensor, samples)):
            image = a @ s
            weight = float(np.dot(image, image))
            if weight < 1e-6:
                continue
            lam = extremal_curvature(tensor, kappa, s)
            w = unit_orthogonal_to(s, rng)
            expected = kappa * w + (lam - kappa) * (np.dot(w, image) / weight) * image
            got = jac @ w
            scale = max(1.0, float(np.max(np.abs(expected))))
            worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
    return CheckResult("Jacobi projection form", worst < 1e-8, f"worst deviation = {worst:.2e}")


def check_eigenspace_complement(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        tensor, kappa, _, a = random_model(d, rng)
        for s in unit_sphere_samples(d, 4, seed + trial):
            image = a @ s
            if float(np.linalg.norm(image)) < 1e-6:
                continue
            space = eigenspace_at(tensor, kappa, s)
            expected = Subspace.span([s, image]).complement()
            worst = max(worst, space.angle_to(expected))
    return CheckResult("kappa eigenspace is span(s, As)-perp", worst < 1e-6, f"worst angle = {worst:.2e}")


def check_kahler_dichotomy(dims, trials, seed) -> CheckResult:
    # anticommuting structures satisfy the scalar relation yet are rejected
    instance = quaternion_instance()
    a = instance["skew"]
    kind = commute_type(a, instance["j"])
    scan = almost_isotropy_scan(instance["tensor"])
    rng = np.random.default_rng(seed)
    worst_scalar = 0.0
    for _ in range(trials):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        ax2 = float(np.dot(a @ x, a @ x))
        worst_scalar = max(worst_scalar, abs(instance["kappa"] * ax2 - instance["tau"] * ax2**2))
    rejected = False
    try:
        classify_kahler(instance["tensor"], instance["j"])
    except NotKahler:
        rejected = True
    ok = kind == "anticommute" and scan.is_almost_isotropic and worst_scalar < 1e-10 and rejected
    return CheckResult(
        "anticommuting structure rejected", ok,
        f"type={kind}, scan={scan.is_almost_isotropic}, scalar residual={worst_scalar:.2e}, rejected={rejected}",
    )


def check_b_eigenplane_invariance(dims, trials, seed) -> CheckResult:
    worst = 0.0
    for trial in range(trials):
        instance = case2_instance(seed + trial)
        result = classify_kahler(instance["tensor"], instance["j"])
        if not isinstance(result, Case2):
            return CheckResult("B eigenplanes J-invariant", False, "classification did not yield two planes")
        for plane in (result.w1, result.w2):
            p = plane.projector()
            resid = float(np.max(np.abs((np.eye(4) - p) @ instance["j"] @ p)))
            worst = max(worst, resid)
    return CheckResult("B eigenplanes J-invariant", worst < 1e-8, f"worst residual = {worst:.2e}")


def check_mu_product(dims, trials, seed) -> CheckResult:
    worst = 0.0
    for trial in range(trials):
        instance = case2_instance(seed + trial)
        result = classify_kahler(instance["tensor"], instance["j"])
        ratio = result.kappa / result.tau
        worst = max(worst, abs(result.mu1 * result.mu2 - ratio) / max(1.0, abs(ratio)))
    for d in dims:
        if d >= 6 and d % 2 == 0:
            instance = case3_instance(d, -1.5)
            result = classify_kahler(instance["tensor"], instance["j"])
            if not isinstance(result, Case3):
                return CheckResult("eigenvalue product", False, "constant case misclassified")
    return CheckResult("eigenvalue product mu1 mu2 = kappa/tau", worst < 1e-8, f"worst deviation = {worst:.2e}")


def check_nullity(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        if d % 2 or d < 4:
            continue
        c = float(rng.uniform(0.5, 3.0)) * float(rng.choice([-1.0, 1.0]))
        instance = case4_instance(d, c, seed + trial)
        space = nullity_space(instance["tensor"])
        expected = instance["w"].complement()
        if space.dimension != d - 2:
            return CheckResult("flat-case nullity", False, f"nullity dimension {space.dimension} != {d - 2}")
        worst = max(worst, space.angle_to(expected))
    return CheckResult("flat-case nullity space", worst < 1e-6, f"worst angle = {worst:.2e}")


def check_distribution_symmetry(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        a = random_skew(d, seed + trial)
        s = rng.standard_normal(d)
        s /= np.linalg.norm(s)
        space = distribution_at(a, s)
        if space.dimension == 0:
            continue
        x = space.basis[:, int(rng.integers(space.dimension))]
        worst = max(worst, abs(float(np.dot(x, a @ s))), abs(float(np.dot(s, a @ x))))
    return CheckResult("distribution membership symmetric", worst < 1e-10, f"worst overlap = {worst:.2e}")


def check_total_geodesy(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 2.0 * np.pi, 1000)
    worst_tangent = 0.0
    best_nontangent = np.inf
    for trial in range(trials):
        d = dims[trial % len(dims)]
        a = random_skew(d, seed + trial)
        s = rng.standard_normal(d)
        s /= np.linalg.norm(s)
        space = distribution_at(a, s)
        if space.dimension:
            w = space.basis[:, 0]
            worst_tangent = max(worst_tangent, tangency_profile(a, s, w, times))
        w = unit_orthogonal_to(s, rng)
        if abs(float(np.dot(w, a @ s))) > 0.1:
            cos_t, sin_t = np.cos(times)[:, None], np.sin(times)[:, None]
            overlaps = np.einsum(
                "ti,ti->t", -sin_t * s + cos_t * w, (cos_t * s + sin_t * w) @ a.T
            )
            best_nontangent = min(best_nontangent, float(np.min(np.abs(overlaps))))
    ok = worst_tangent < 1e-10 and best_nontangent > 1e-3
    return CheckResult(
        "distribution totally geodesic", ok,
        f"tangent max = {worst_tangent:.2e}, nontangent min = {best_nontangent:.2e}",
    )


def check_planted_fit(dims, trials, seed) -> CheckResult:
    worst = 0.0
    for trial in range(max(1, trials // 4)):
        for d in (4, 6):
            if trial % 2:
                # singular case: explicit kernel exercises the extension result
                planted = block_diagonal_skew(d, [1.0 + 0.5 * trial] + ([0.7] if d >= 6 else []))
            else:
                planted = random_skew(d, seed + trial)
            entries = []
            for s in unit_sphere_samples(d, 30, seed + 7 * trial + 1)[d:]:
                entries.append((s, distribution_at(planted, s).basis.T))
            samples = DistributionSamples(d, entries)
            fit = fit_skew_from_samples(samples)
            if fit.gap <= 1e-6:
                continue
            cosine = abs(float(np.sum(fit.skew * planted))) / (
                float(np.linalg.norm(fit.skew)) * float(np.linalg.norm(planted))
            )
            worst = max(worst, float(np.arccos(min(1.0, cosine))))
    return CheckResult("planted distribution recovery", worst < 1e-6, f"worst angle = {worst:.2e}")


def check_sphere_decomposition(dims, trials, seed) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        d = dims[trial % len(dims)]
        if d < 4:
            continue
        blocks = [float(rng.uniform(0.5, 2.0))]
        if d >= 8:
            blocks.append(float(rng.uniform(0.5, 2.0)))
        a = block_diagonal_skew(d, blocks)
        if d - 2 * len(blocks) == 0:
            continue
        k = np.zeros(d)
        k[-1] = 1.0
        m = np.zeros(d)
        m[0] = 1.0
        big_t = float(rng.uniform(0.2, 1.3))
        worst = max(worst, sphere_structure_check(a, k, m, big_t))
        # containment facts at pure kernel / pure image points
        m_space = Subspace.span([m, a @ m / np.linalg.norm(a @ m)])
        d_k = distribution_at(a, k)
        if not all(d_k.contains(col) for col in m_space.basis.T):
            return CheckResult("sphere distribution decomposition", False, "image not contained at kernel point")
    return CheckResult("sphere distribution decomposition", worst < 1e-10, f"worst angle = {worst:.2e}")


ALL_CHECKS = [
    check_projector_idempotent,
    check_spectrum_orthonormal,
    check_skew_even_rank,
    check_model_symmetries,
    check_jacobi_formula,
    check_ricci_formula,
    check_einstein_criterion,
    check_rank_one_deviation,
    check_roundtrip_recovery,
    check_extremal_relation,
    check_curvature_exchange,
    check_jacobi_projection_form,
    check_eigenspace_complement,
    check_kahler_dichotomy,
    check_b_eigenplane_invariance,
    check_mu_product,
    check_nullity,
    check_distribution_symmetry,
    check_total_geodesy,
    check_planted_fit,
    check_sphere_decomposition,
]


def run_suite(dims=(4, 6), trials: int = 25, seed: int = 0) -> list[CheckResult]:
    """Run every check over the given dimensions; deterministic for a fixed seed."""
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("at least one dimension is required")
    results = []
    for check in ALL_CHECKS:
        results.append(check(dims, trials, seed))
    return results
