"""Each measure behind ``lemma-suite`` reports a violating instance above its threshold."""

import numpy as np
import pytest

from curvlab import CurvatureTensor, Subspace, random_skew, unit_sphere_samples
from curvlab import lemmas as lm
from curvlab.models import (
    as_model,
    block_diagonal_skew,
    case3_instance,
    case4_instance,
    planted_instance,
    quaternion_instance,
    random_model,
)

from _oracles import curvature_projection


def noisy(tensor, kappa, tau, a):
    """The model's tensor plus a small non-model curvature tensor, labels kept."""
    noise = curvature_projection(np.random.default_rng(0).standard_normal((tensor.dim,) * 4))
    return CurvatureTensor(tensor.dim, tensor.components + 0.01 * noise), kappa, tau, a


def rng():
    return np.random.default_rng(0)


MODEL = random_model(4, rng())
NOISY = [noisy(*MODEL)]
POINTS = [unit_sphere_samples(4, 6, seed=1)]
CONSTANT = case3_instance(4, 1.0)  # Kahler, so neither case 2 nor anticommuting
A, S = random_skew(4, 5), unit_sphere_samples(4, 5, seed=2)[4]
OFF_DISTRIBUTION = [(A, S, A @ S / np.linalg.norm(A @ S))]  # w = As/|As| starts off D_s
TILTED_M = np.eye(6)[0] + 9e-10 * np.eye(6)[4]  # leans into ker A within the precondition tolerance

VIOLATIONS = {
    "projector idempotent": lambda: lm.projector_defect(  # a basis within the orthonormality tolerance
        [Subspace(4, (1.0 + 4e-11) * np.eye(4)[:, :1])]),
    "symmetric spectrum orthonormal": lambda: lm.spectrum_residual([np.triu(np.ones((4, 4)))]),
    "skew operators have even rank": lambda: lm.odd_rank_count([np.diag([1.0, 0.0, 0.0])]),
    "model curvature symmetries": lambda: lm.symmetry_residual(
        [CurvatureTensor(4, rng().standard_normal((4,) * 4))]),
    "Jacobi rank-one form": lambda: lm.jacobi_deviation(NOISY, POINTS, rng()),
    "Ricci closed form": lambda: lm.ricci_deviation(NOISY),
    "Einstein iff A^2 scalar": lambda: lm.einstein_mismatches([noisy(*as_model(CONSTANT))]),
    "Jacobi deviation rank <= 1": lambda: lm.rank_excess(NOISY, POINTS),
    "decomposition round trip": lambda: lm.roundtrip_error([(MODEL[0], MODEL[1] + 0.5, *MODEL[2:])]),
    "extremal curvature relation": lambda: lm.extremal_deviation(NOISY, POINTS),
    "orthonormal curvature exchange": lambda: lm.exchange_deviation(NOISY, rng()),
    "Jacobi projection form": lambda: lm.projection_form_deviation(NOISY, POINTS, rng()),
    "kappa eigenspace is span(s, As)-perp": lambda: lm.eigenspace_angle(NOISY, POINTS),
    "anticommuting structure rejected": lambda: lm.anticommuting_rejection(CONSTANT, POINTS[0]),
    "B eigenplanes J-invariant": lambda: lm.eigenplane_residual([CONSTANT]),
    "eigenvalue product mu1 mu2 = kappa/tau": lambda: lm.mu_product_deviation([CONSTANT]),
    "flat-case nullity space": lambda: lm.nullity_angle(  # the plane of another instance
        [{**case4_instance(4, 1.5, seed=1), "w": case4_instance(4, 1.5, seed=2)["w"]}]),
    "distribution membership symmetric": lambda: lm.membership_overlap(OFF_DISTRIBUTION),
    "distribution totally geodesic": lambda: lm.geodesic_tangency(OFF_DISTRIBUTION),
    "planted distribution recovery": lambda: lm.planted_fit_angle(  # samples of another operator
        [(random_skew(4, 1), planted_instance(4, False, 2, 3, 30)[1])]),
    "sphere distribution decomposition": lambda: lm.structure_angle(
        [(block_diagonal_skew(6, [1.3]), np.eye(6)[5], TILTED_M / np.linalg.norm(TILTED_M), 0.7)]),
    "Kahler compatibility identities": lambda: lm.kahler_identity_residual(
        [quaternion_instance()], rng()),  # A anticommutes with J
    "eigenvalue relations of B eigenpairs": lambda: lm.relations_residual([CONSTANT]),
}


@pytest.fixture(scope="module")
def thresholds():
    return {result.name: result.threshold for result in lm.run_suite(dims=(4,), trials=1)}


def test_every_check_has_a_violation(thresholds):
    assert set(VIOLATIONS) == set(thresholds)


@pytest.mark.parametrize("name", list(VIOLATIONS))
def test_measure_exceeds_threshold_on_violation(name, thresholds):
    assert VIOLATIONS[name]() > thresholds[name]
