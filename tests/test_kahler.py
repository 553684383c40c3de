import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    Case1,
    Case2,
    Case3,
    Case4,
    CurvatureTensor,
    NonPositiveTolerance,
    NotKahler,
    Subspace,
    SymmetryViolation,
    almost_isotropy_scan,
    analyze_b_operator,
    build_model,
    build_r1,
    build_ra,
    classify_kahler,
    commute_type,
    einstein_check,
    identity_residuals,
    nullity_space,
    random_skew,
    relations_residuals,
    ricci,
    standard_complex_structure,
)
from curvlab.models import (
    case2_instance,
    case3_instance,
    case4_instance,
    plane_operator,
    quaternion_instance,
    quaternion_j,
    two_plane_operator,
)


def canonical_pair(mu1, mu2, w1, w2):
    """Same normalization the classifier applies: mu1 >= mu2, mu1 + mu2 >= 0."""
    if mu1 + mu2 < 0:
        mu1, mu2 = -mu1, -mu2
    if mu1 < mu2:
        mu1, mu2, w1, w2 = mu2, mu1, w2, w1
    return mu1, mu2, w1, w2


class TestCommuteType:
    def test_j_commutes_with_itself(self):
        j = standard_complex_structure(4)
        assert commute_type(j, j) == "commute"

    def test_quaternionic_structure_anticommutes(self):
        j = standard_complex_structure(4)
        a = quaternion_j()
        assert commute_type(a, j) == "anticommute"
        # matrix-level oracle
        assert np.max(np.abs(a @ j + j @ a)) == 0.0
        assert np.max(np.abs(a @ j - j @ a)) == 2.0

    def test_mixture_is_neither(self):
        j = standard_complex_structure(4)
        assert commute_type(j + quaternion_j(), j) == "neither"


class TestAnalyzeBOperator:
    def test_two_plane_operator_spectrum(self):
        j = standard_complex_structure(4)
        w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        a, _ = two_plane_operator(j, 2.0, 0.5, w1)
        analysis = analyze_b_operator(a, j)
        assert analysis.commute_type == "commute"
        assert np.max(np.abs(analysis.b - analysis.b.T)) < 1e-10
        np.testing.assert_allclose(sorted(analysis.eigenvalues), [-2.0, -0.5], atol=1e-12)
        assert all(plane.dimension == 2 for plane in analysis.eigenplanes)

    def test_anticommuting_has_no_spectral_data(self):
        j = standard_complex_structure(4)
        analysis = analyze_b_operator(quaternion_j(), j)
        assert analysis.commute_type == "anticommute"
        assert analysis.eigenvalues == []
        assert analysis.eigenplanes == []


class TestClassifyKahler:
    def test_case3_negative_kappa(self):
        instance = case3_instance(6, -1.0)
        result = classify_kahler(instance["tensor"], instance["j"])
        assert isinstance(result, Case3)
        assert result.kappa == pytest.approx(-1.0, abs=1e-10)

    def test_case2_block_model(self):
        j = standard_complex_structure(4)
        w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        a, w2 = two_plane_operator(j, 2.0, 0.5, w1)
        result = classify_kahler(build_model(1.0, 1, a), j)
        assert isinstance(result, Case2)
        assert result.kappa == pytest.approx(1.0, abs=1e-10)
        assert result.tau == 1
        mu1, mu2, e1, e2 = canonical_pair(2.0, 0.5, w1, w2)
        assert result.mu1 == pytest.approx(mu1, abs=1e-10)
        assert result.mu2 == pytest.approx(mu2, abs=1e-10)
        assert result.w1.angle_to(e1) < 1e-8
        assert result.w2.angle_to(e2) < 1e-8

    def test_case4_scaled_plane(self):
        j = standard_complex_structure(6)
        w = Subspace.span([np.eye(6)[0], np.eye(6)[1]])
        tensor = 2.0 * build_ra(plane_operator(j, w))
        result = classify_kahler(tensor, j)
        assert isinstance(result, Case4)
        assert result.c == pytest.approx(2.0, abs=1e-10)
        assert result.w.angle_to(w) < 1e-8

    def test_r1_rejected_as_not_kahler(self):
        with pytest.raises(NotKahler):
            classify_kahler(build_r1(4), standard_complex_structure(4))

    def test_case1_dimension_two(self):
        result = classify_kahler(
            -0.5 * build_r1(2), standard_complex_structure(2)
        )
        assert isinstance(result, Case1)
        assert result.kappa == pytest.approx(-0.5, abs=1e-12)

    def test_zero_tensor_is_flat_case(self):
        zero = CurvatureTensor(4, np.zeros((4, 4, 4, 4)))
        result = classify_kahler(zero, standard_complex_structure(4))
        assert isinstance(result, Case4)
        assert result.c == 0.0
        assert result.w.dimension == 0

    def test_equal_mu_collapses_to_case3(self):
        j = standard_complex_structure(4)
        w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        a, _ = two_plane_operator(j, 1.5, 1.5, w1)
        result = classify_kahler(build_model(2.25, 1, a), j)
        assert isinstance(result, Case3)
        assert result.kappa == pytest.approx(2.25, abs=1e-10)

    def test_quaternionic_model_rejected(self):
        instance = quaternion_instance()
        scan = almost_isotropy_scan(instance["tensor"])
        assert scan.is_almost_isotropic
        with pytest.raises(NotKahler):
            classify_kahler(instance["tensor"], instance["j"])

    def test_broken_symmetries_rejected(self):
        comp = build_model(1.0, 1, standard_complex_structure(4)).components.copy()
        comp[0, 1, 2, 3] += 0.1
        with pytest.raises(SymmetryViolation):
            classify_kahler(CurvatureTensor(4, comp), standard_complex_structure(4))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # checked before any residual, so an exact model is not misreported
        # as a symmetry violation
        j = standard_complex_structure(4)
        with pytest.raises(NonPositiveTolerance):
            classify_kahler(build_model(1.0, 1, j), j, tol)

    @given(seed=st.integers(0, 2_000))
    def test_case2_roundtrip_property(self, seed):
        instance = case2_instance(seed)
        result = classify_kahler(instance["tensor"], instance["j"])
        assert isinstance(result, (Case2, Case3))
        if isinstance(result, Case2):
            mu1, mu2, w1, w2 = canonical_pair(
                instance["mu1"], instance["mu2"], instance["w1"], instance["w2"]
            )
            assert result.mu1 == pytest.approx(mu1, abs=1e-8)
            assert result.mu2 == pytest.approx(mu2, abs=1e-8)
            assert result.w1.angle_to(w1) < 1e-6
            assert result.w2.angle_to(w2) < 1e-6
            ratio = result.kappa / result.tau
            assert abs(result.mu1 * result.mu2 - ratio) < 1e-8 * max(1.0, abs(ratio))


class TestIdentityResiduals:
    def test_space_form_satisfies_identities(self):
        j = standard_complex_structure(6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(6)
            y -= np.dot(y, x) * x
            y /= np.linalg.norm(y)
            res_one, res_two = identity_residuals(1.0, 1, j, j, x, y)
            assert res_one < 1e-10
            assert res_two < 1e-10

    def test_case2_parameters_satisfy_identities(self):
        j = standard_complex_structure(4)
        w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        a, _ = two_plane_operator(j, 2.0, 0.5, w1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(4)
            y -= np.dot(y, x) * x
            y /= np.linalg.norm(y)
            res_one, res_two = identity_residuals(1.0, 1, a, j, x, y)
            assert res_one < 1e-10
            assert res_two < 1e-10

    def test_anticommuting_configuration_violates(self):
        j = standard_complex_structure(4)
        res_one, _ = identity_residuals(
            1.0, 1, quaternion_j(), j, np.eye(4)[0], np.eye(4)[2]
        )
        assert res_one > 0.1


class TestRelationsResiduals:
    def test_eigenpair_across_planes(self):
        j = standard_complex_structure(4)
        res_three, res_four = relations_residuals(
            1.0, 1, 2.0, 0.5, np.eye(4)[0], np.eye(4)[2], j
        )
        assert res_three == pytest.approx(0.0, abs=1e-14)
        assert res_four == pytest.approx(0.0, abs=1e-14)

    def test_holomorphic_pair_vacuous(self):
        j = standard_complex_structure(4)
        e1 = np.eye(4)[0]
        res_three, res_four = relations_residuals(1.0, 1, 3.0, 3.0, e1, j @ e1, j)
        assert res_three == pytest.approx(0.0, abs=1e-14)
        assert res_four == pytest.approx(0.0, abs=1e-14)

    def test_violating_parameters(self):
        j = standard_complex_structure(4)
        res_three, _ = relations_residuals(
            1.0, 1, 3.0, 3.0, np.eye(4)[0], np.eye(4)[2], j
        )
        assert res_three == pytest.approx(8.0, abs=1e-13)

    def test_classified_case2_eigenpairs(self):
        instance = case2_instance(2)
        result = classify_kahler(instance["tensor"], instance["j"])
        assert isinstance(result, Case2)
        e1 = result.w1.basis[:, 0]
        e2 = result.w2.basis[:, 0]
        res_three, res_four = relations_residuals(
            result.kappa, result.tau, result.mu1, result.mu2, e1, e2, instance["j"]
        )
        assert res_three < 1e-10
        assert res_four < 1e-10


class TestEinsteinCheck:
    def test_space_form_constant(self):
        instance = case3_instance(6, 1.0)
        is_einstein, constant = einstein_check(instance["tensor"])
        assert is_einstein
        assert constant == pytest.approx(8.0, abs=1e-12)  # (d + 2) kappa

    def test_distinct_mu_not_einstein(self):
        j = standard_complex_structure(4)
        w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        a, _ = two_plane_operator(j, 2.0, 0.5, w1)
        is_einstein, _ = einstein_check(build_model(1.0, 1, a))
        assert not is_einstein

    def test_zero_tensor(self):
        zero = CurvatureTensor(4, np.zeros((4, 4, 4, 4)))
        is_einstein, constant = einstein_check(zero)
        assert is_einstein
        assert constant == 0.0

    @given(seed=st.integers(0, 2_000), d=st.sampled_from([4, 6]))
    def test_criterion_matches_a_squared(self, seed, d):
        rng = np.random.default_rng(seed)
        kappa = float(rng.uniform(-2, 2))
        tau = int(rng.choice([-1, 1]))
        a = random_skew(d, seed)
        model = build_model(kappa, tau, a)
        a2 = a @ a
        scalar_part = (np.trace(a2) / d) * np.eye(d)
        is_multiple = float(np.max(np.abs(a2 - scalar_part))) < 1e-9
        is_einstein, _ = einstein_check(model, 1e-9)
        assert is_einstein == is_multiple

    def test_ricci_einstein_relation_on_case4(self):
        instance = case4_instance(6, -2.0, seed=4)
        is_einstein, _ = einstein_check(instance["tensor"])
        assert not is_einstein  # A^2 is a rank-2 projection, not scalar
        space = nullity_space(instance["tensor"])
        assert space.dimension == 4
        assert space.angle_to(instance["w"].complement()) < 1e-6
        # Ricci vanishes off the plane
        ric = ricci(instance["tensor"])
        assert np.max(np.abs(ric @ space.basis)) < 1e-10
