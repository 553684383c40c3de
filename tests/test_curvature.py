import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    ConventionViolation,
    CurvatureTensor,
    DimensionMismatch,
    InputFormatError,
    NonFiniteComponents,
    NotOrthonormal,
    NotSkew,
    NotUnit,
    Subspace,
    berger_check,
    build_model,
    build_r1,
    build_ra,
    holomorphic_sectional,
    jacobi_operator,
    nullity_space,
    random_skew,
    recover_decomposition,
    ricci,
    sectional_curvature,
    standard_complex_structure,
    unit_sphere_samples,
    validate_symmetries,
)
import curvlab.cli as cli
from curvlab.curvature import ModelSlabs
from curvlab.lemmas import ricci_deviation, symmetry_residual
from curvlab.models import (
    case2_instance,
    case4_instance,
    plane_operator,
    quaternion_j,
    random_unit,
    two_plane_operator,
    unit_orthogonal_to,
)

from _oracles import (
    oracle_base_residuals,
    oracle_jacobi,
    oracle_kahler_rotation,
    oracle_model_einsum,
    oracle_r1_components,
    oracle_ra_components,
    oracle_ricci,
    oracle_sectional,
)


def rotated_complex_structure(d, seed):
    """Q J_std Q^T for a seeded random orthogonal Q: a J with no zero entries."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q @ standard_complex_structure(d) @ q.T


def block_model_4d():
    """kappa=1, tau=1, A = J(2 P_W1 + 0.5 P_W2) with coordinate planes."""
    j = standard_complex_structure(4)
    w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
    a, w2 = two_plane_operator(j, 2.0, 0.5, w1)
    return build_model(1.0, 1, a), j, a, w1, w2


class TestBuildR1:
    def test_matches_oracle(self):
        for d in (2, 3, 4, 5):
            np.testing.assert_array_equal(build_r1(d).components, oracle_r1_components(d))

    def test_basic_component(self):
        assert build_r1(2).components[0, 1, 1, 0] == 1.0

    def test_symmetries_exact(self):
        report = validate_symmetries(build_r1(5))
        assert report.worst_base_residual == 0.0

    def test_jacobi_is_identity_on_complement(self):
        r1 = build_r1(5)
        for s in unit_sphere_samples(5, 12, seed=3):
            expected = np.eye(5) - np.outer(s, s)
            assert np.max(np.abs(jacobi_operator(r1, s) - expected)) < 1e-14

    def test_all_sectional_curvatures_one(self):
        r1 = build_r1(4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = random_unit(4, rng)
            w = unit_orthogonal_to(v, rng)
            assert sectional_curvature(r1, v, w) == pytest.approx(1.0, abs=1e-12)
            assert oracle_sectional(r1.components, v, w) == pytest.approx(1.0, abs=1e-12)


class TestBuildRA:
    def test_zero_operator_gives_zero_tensor(self):
        assert build_ra(np.zeros((4, 4))).max_abs == 0.0

    def test_standard_j_components(self):
        rj = build_ra(standard_complex_structure(4))
        assert rj.components[0, 1, 1, 0] == 3.0
        assert rj.components[0, 2, 2, 0] == 0.0

    def test_matches_oracle(self):
        for seed, d in ((0, 4), (1, 5)):
            a = random_skew(d, seed)
            np.testing.assert_allclose(
                build_ra(a).components, oracle_ra_components(a), atol=1e-13
            )

    def test_not_skew_rejected(self):
        with pytest.raises(NotSkew):
            build_ra(np.eye(3))

    @pytest.mark.parametrize("build", [build_ra, lambda a: build_model(1.0, 0, a)])
    def test_empty_operator_rejected(self, build):
        with pytest.raises(NotSkew, match=r"operator must not be empty, got shape \(0, 0\)"):
            build(np.zeros((0, 0)))

    def test_symmetries_exact(self):
        report = validate_symmetries(build_ra(random_skew(6, 2)))
        assert report.worst_base_residual < 1e-13


class TestBuildModel:
    def test_tau_zero_reduces_to_r1(self):
        model = build_model(1.0, 0, dim=4)
        np.testing.assert_array_equal(model.components, build_r1(4).components)

    def test_holomorphic_curvature_4kappa(self):
        j = standard_complex_structure(4)
        model = build_model(1.0, 1, j)
        e1 = np.eye(4)[0]
        assert sectional_curvature(model, e1, j @ e1) == pytest.approx(4.0, abs=1e-14)

    def test_block_model_jacobi_eigenvalue(self):
        model, _, _, _, _ = block_model_4d()
        # A e1 = 2 e2, so J_{e1} e2 = e2 + 3 * 2 * 2 e2 = 13 e2
        image = jacobi_operator(model, np.eye(4)[0]) @ np.eye(4)[1]
        np.testing.assert_allclose(image, 13.0 * np.eye(4)[1], atol=1e-13)

    @pytest.mark.parametrize(
        "kappa,tau,a,dim",
        [
            (1.0, 0, "J", None),
            (1.0, 1, None, 4),
            (1.0, 2, "J", None),
            (0.0, 1, "zero", None),
        ],
    )
    def test_convention_violations(self, kappa, tau, a, dim):
        j = standard_complex_structure(4)
        operator = {"J": j, "zero": np.zeros((4, 4)), None: None}[a]
        with pytest.raises(ConventionViolation):
            build_model(kappa, tau, operator, dim=dim)

    @given(
        seed=st.integers(0, 10_000),
        d=st.sampled_from([2, 4, 6, 8]),
        kappa=st.floats(-2.0, 2.0),
        tau=st.sampled_from([-1, 0, 1]),
    )
    def test_model_symmetries_property(self, seed, d, kappa, tau):
        a = random_skew(d, seed) if tau != 0 else None
        assert symmetry_residual([build_model(kappa, tau, a, dim=d)]) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 7, 8, 16])
    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_bitwise_equal_to_einsum_oracle(self, d, zero_rows):
        # compared as int64 views: assert_array_equal treats -0.0 and 0.0 as equal
        a = random_skew(d, d)
        if zero_rows:
            a[: d // 2] = -0.0
            a[:, : d // 2] = 0.0
        for kappa in (0.7, -0.7, 0.0, -0.0, 1e300):
            for tau in (-1, 0, 1):
                operator = a if tau != 0 else np.zeros((d, d))
                if tau != 0 and not np.any(operator):
                    continue  # d=2 with zero rows leaves A = 0
                got = build_model(kappa, tau, operator).components
                expected = oracle_model_einsum(kappa, tau, operator)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (kappa, tau)
        assert np.array_equal(build_ra(-a).components.view(np.int64),
                              oracle_model_einsum(0.0, 1, -a).view(np.int64))


class TestSlabMemory:
    """At d=32 one d^4 array is 8 MiB; the slab passes need O(d^3) scratch."""

    D = 32
    ONE_TENSOR = 8 * 2**20

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_generate_peak_below_one_tensor(self, tmp_path, capsys):
        # generate streams the model's slabs into the base64 writer: one
        # slab and its text at a time, never the d^4 array
        def generate(dim):
            return cli.main(["generate", "--dim", str(dim), "--kappa", "0.7", "--tau", "1",
                             "--A", "random:5", "--out", str(tmp_path / "t.json")])

        assert generate(4) == 0  # imports every module generate loads
        peak = self.peak(generate, self.D)
        assert "sha256" in capsys.readouterr().out
        assert peak < self.ONE_TENSOR, f"peak {peak / 2**20:.1f} MiB"

    def test_build_model_peak_is_output_plus_slabs(self):
        a = random_skew(self.D, 7) / self.D
        peak = self.peak(build_model, -0.7, -1, a)
        assert peak < self.ONE_TENSOR + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("with_j", [False, True])
    def test_validate_symmetries_peak_below_one_tensor(self, with_j):
        j = rotated_complex_structure(self.D, seed=2)
        tensor = build_model(1.0, 1, j)
        peak = self.peak(validate_symmetries, tensor, *([j] if with_j else []))
        assert peak < self.ONE_TENSOR, f"peak {peak / 2**20:.1f} MiB"

    def test_recover_decomposition_peak_below_one_tensor(self):
        tensor = build_model(0.7, 1, random_skew(self.D, 1) / self.D)
        peak = self.peak(recover_decomposition, tensor)
        assert peak < self.ONE_TENSOR, f"peak {peak / 2**20:.1f} MiB"


class TestValidateSymmetries:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("noise", [1e-9, 1.0])
    def test_base_residuals_equal_full_transpose_oracle(self, d, noise):
        rng = np.random.default_rng(d)
        comp = build_model(-0.7, -1, random_skew(d, d)).components
        comp = comp + noise * rng.standard_normal(comp.shape)
        report = validate_symmetries(CurvatureTensor(d, comp))
        got = (report.antisymmetry_residual, report.pair_exchange_residual,
               report.bianchi_residual)
        assert got == oracle_base_residuals(comp)

    def test_r1_residuals_zero(self):
        report = validate_symmetries(build_r1(4))
        assert report.antisymmetry_residual == 0.0
        assert report.pair_exchange_residual == 0.0
        assert report.bianchi_residual == 0.0
        assert report.kahler_residual is None

    def test_perturbation_detected(self):
        comp = build_r1(4).components.copy()
        comp[0, 1, 2, 3] += 1e-3
        report = validate_symmetries(CurvatureTensor(4, comp))
        assert report.antisymmetry_residual >= 1e-3

    def test_kahler_residual_of_space_form(self):
        j = standard_complex_structure(6)
        report = validate_symmetries(build_model(1.0, 1, j), j)
        assert report.kahler_residual == 0.0

    def test_kahler_residual_of_quaternionic_model(self):
        j = standard_complex_structure(4)
        model = build_model(1.0, 1, quaternion_j())
        report = validate_symmetries(model, j)
        assert report.kahler_residual > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_symmetries(build_r1(4), standard_complex_structure(6))

    @pytest.mark.parametrize("d", [4, 6, 8])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_kahler_residual_matches_oracle(self, d, noise):
        j = rotated_complex_structure(d, seed=d)
        comp = build_model(1.0, 1, j).components
        comp = comp + noise * np.random.default_rng(d + 1).standard_normal(comp.shape)
        report = validate_symmetries(CurvatureTensor(d, comp), j)
        expected = float(np.max(np.abs(comp - oracle_kahler_rotation(comp, j))))
        assert abs(report.kahler_residual - expected) <= 1e-13
        if noise:
            assert report.kahler_residual > noise
        else:
            assert report.kahler_residual <= 1e-13

    def test_bitwise_deterministic(self):
        j = rotated_complex_structure(8, seed=3)
        comp = build_model(-1.0, -1, j).components
        comp = comp + 1e-6 * np.random.default_rng(4).standard_normal(comp.shape)
        tensor = CurvatureTensor(8, comp)
        assert validate_symmetries(tensor, j) == validate_symmetries(tensor, j)

    def test_kahler_check_runtime_d48(self):
        j = rotated_complex_structure(48, seed=48)
        model = build_model(1.0, 1, j)
        start = time.perf_counter()
        report = validate_symmetries(model, j)
        elapsed = time.perf_counter() - start
        assert report.kahler_residual < 1e-12
        assert elapsed < 1.0, f"validate_symmetries with J took {elapsed:.2f}s at d=48"


class TestJacobiOperator:
    def test_requires_unit_vector(self):
        with pytest.raises(NotUnit):
            jacobi_operator(build_r1(3), np.array([1.0, 1.0, 0.0]))

    def test_kills_base_vector_and_symmetric(self):
        model, _, _, _, _ = block_model_4d()
        s = unit_sphere_samples(4, 8, seed=5)[6]
        jac = jacobi_operator(model, s)
        assert np.max(np.abs(jac @ s)) < 1e-13
        assert np.max(np.abs(jac - jac.T)) < 1e-10

    def test_matches_oracle(self):
        model, _, _, _, _ = block_model_4d()
        for s in unit_sphere_samples(4, 6, seed=1):
            np.testing.assert_allclose(
                jacobi_operator(model, s), oracle_jacobi(model.components, s), atol=1e-12
            )

    @pytest.mark.parametrize("d", [4, 6, 8])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_batched_matches_oracle(self, d, perturbed):
        comp = build_model(-0.7, -1, random_skew(d, d)).components
        if perturbed:
            # no longer symmetric: pins the [l, i] orientation of each matrix
            comp = comp + 1e-6 * np.random.default_rng(d).standard_normal(comp.shape)
        tensor = CurvatureTensor(d, comp)
        samples = unit_sphere_samples(d, 2 * d, seed=3)
        stack = jacobi_operator(tensor, samples)
        assert stack.shape == (2 * d, d, d)
        for jac, s in zip(stack, samples):
            assert np.max(np.abs(jac - oracle_jacobi(comp, s))) <= 1e-13
            single = jacobi_operator(tensor, s)
            assert single.shape == (d, d)
            assert np.max(np.abs(single - jac)) <= 1e-13

    def test_rejects_bad_stacks(self):
        r1 = build_r1(4)
        with pytest.raises(NotUnit):
            jacobi_operator(r1, np.array([np.eye(4)[0], [1.0, 1.0, 0.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            jacobi_operator(r1, np.eye(3))
        with pytest.raises(DimensionMismatch):
            jacobi_operator(r1, np.eye(4)[None])
        with pytest.raises(NotUnit):
            jacobi_operator(r1, np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_block_model_spectra(self):
        model, _, _, _, _ = block_model_4d()
        e1, e3 = np.eye(4)[0], np.eye(4)[2]
        eigs1 = np.linalg.eigvalsh(jacobi_operator(model, e1))
        np.testing.assert_allclose(sorted(eigs1), [0.0, 1.0, 1.0, 13.0], atol=1e-12)
        eigs3 = np.linalg.eigvalsh(jacobi_operator(model, e3))
        np.testing.assert_allclose(sorted(eigs3), [0.0, 1.0, 1.0, 1.75], atol=1e-12)


class TestSectional:
    def test_requires_orthonormal_pair(self):
        with pytest.raises(NotOrthonormal):
            sectional_curvature(build_r1(3), np.eye(3)[0], np.eye(3)[0])

    def test_antiholomorphic_plane(self):
        j = standard_complex_structure(4)
        model = 2.0 * build_model(1.0, 1, j)
        assert sectional_curvature(model, np.eye(4)[0], np.eye(4)[2]) == pytest.approx(
            2.0, abs=1e-13
        )

    def test_holomorphic_plane_4kappa(self):
        j = standard_complex_structure(4)
        model = 2.0 * build_model(1.0, 1, j)
        e1 = np.eye(4)[0]
        assert sectional_curvature(model, e1, j @ e1) == pytest.approx(8.0, abs=1e-13)


class TestRicci:
    def test_r1_is_d_minus_one(self):
        np.testing.assert_allclose(ricci(build_r1(4)), 3.0 * np.eye(4), atol=1e-14)

    def test_block_model_diagonal_entry(self):
        model, _, a, _, _ = block_model_4d()
        ric = ricci(model)
        # (d-1) kappa - 3 tau <e1, A^2 e1> = 3 + 12 = 15
        assert ric[0, 0] == pytest.approx(15.0, abs=1e-12)
        np.testing.assert_allclose(ric, oracle_ricci(model.components), atol=1e-12)

    def test_zero_tensor(self):
        zero = CurvatureTensor(4, np.zeros((4, 4, 4, 4)))
        np.testing.assert_array_equal(ricci(zero), np.zeros((4, 4)))

    @given(seed=st.integers(0, 5_000), d=st.sampled_from([4, 6]))
    def test_closed_form_property(self, seed, d):
        rng = np.random.default_rng(seed)
        kappa = float(rng.uniform(-2, 2))
        tau = int(rng.choice([-1, 1]))
        a = random_skew(d, seed)
        assert ricci_deviation([(build_model(kappa, tau, a), kappa, tau, a)]) < 1e-10


class TestNullity:
    def test_r1_has_trivial_nullity(self):
        assert nullity_space(build_r1(4)).dimension == 0

    def test_flat_plane_model(self):
        j = standard_complex_structure(4)
        w = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        model = 2.0 * build_ra(plane_operator(j, w))
        space = nullity_space(model)
        assert space.dimension == 2
        expected = Subspace.span([np.eye(4)[2], np.eye(4)[3]])
        assert space.angle_to(expected) < 1e-10

    def test_zero_tensor_full_nullity(self):
        zero = CurvatureTensor(3, np.zeros((3, 3, 3, 3)))
        assert nullity_space(zero).dimension == 3

    def test_flat_case_d32_memory(self):
        # the d^3 x d unfolding must not grow a d^3 x d^3 SVD factor (8 GiB here)
        instance = case4_instance(32, 1.5, seed=5)
        tracemalloc.start()
        try:
            space = nullity_space(instance["tensor"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.dimension == 30
        assert space.angle_to(instance["w"].complement()) < 1e-8
        assert peak < 64 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


class TestHolomorphicSectional:
    def test_space_form_constant_four_kappa(self):
        j = standard_complex_structure(6)
        model = build_model(1.0, 1, j)
        for s in unit_sphere_samples(6, 20, seed=4):
            assert holomorphic_sectional(model, j, s) == pytest.approx(4.0, abs=1e-12)

    def test_block_model_plane(self):
        model, j, _, _, _ = block_model_4d()
        assert holomorphic_sectional(model, j, np.eye(4)[0]) == pytest.approx(
            13.0, abs=1e-12
        )

    def test_zero_tensor(self):
        zero = CurvatureTensor(4, np.zeros((4, 4, 4, 4)))
        j = standard_complex_structure(4)
        assert holomorphic_sectional(zero, j, np.eye(4)[0]) == 0.0


class TestBergerCheck:
    def test_space_form_equality_case(self):
        j = standard_complex_structure(4)
        model = build_model(1.0, 1, j)
        slack = berger_check(model, list(np.eye(4)), 1.0, 4.0)
        assert abs(float(np.einsum(
            "ijkl,i,j,k,l->", model.components,
            np.eye(4)[0], np.eye(4)[1], np.eye(4)[2], np.eye(4)[3],
        ))) == pytest.approx(2.0, abs=1e-13)
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_r1_trivial_frame(self):
        slack = berger_check(build_r1(4), list(np.eye(4)), 1.0, 1.0)
        assert slack == pytest.approx(0.0, abs=1e-14)

    def test_quaternionic_model_satisfies_bound(self):
        a = quaternion_j()
        model = build_r1(4) + build_ra(a)
        j = standard_complex_structure(4)
        e1 = np.eye(4)[0]
        frame = [e1, a @ e1, j @ e1, j @ (a @ e1)]
        assert berger_check(model, frame, 1.0, 4.0) >= 0.0

    def test_requires_orthonormal_frame(self):
        with pytest.raises(NotOrthonormal):
            berger_check(build_r1(4), [np.eye(4)[0]] * 4, 0.0, 1.0)


# tensor arithmetic whose result leaves the float range
OVERFLOWS = {
    "t * 2e307": lambda t: t * 2e307,
    "2e307 * t": lambda t: 2e307 * t,
    "t * inf": lambda t: t * float("inf"),
    "t + t": lambda t: t * 1e307 + t * 1e307,
    "t - t": lambda t: t * 1e307 - t * -1e307,
    "-t - t": lambda t: -(t * 1e307) - t * 1e307,
}


class TestNonFiniteComponents:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_on_construction(self, bad):
        comp = build_r1(4).components.copy()
        comp[0, 1, 1, 0] = bad
        with pytest.raises(NonFiniteComponents):
            CurvatureTensor(4, comp)
        assert issubclass(NonFiniteComponents, InputFormatError)

    @pytest.mark.parametrize("kappa, scale", [(1.0, 1e200), (1e308, 1e154), (-1e308, 1e160)])
    def test_overflowing_model_rejected_without_warnings(self, kappa, scale):
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = scale, -scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (build_model, ModelSlabs):
                with pytest.raises(NonFiniteComponents, match="overflows the float range"):
                    build(kappa, 1, a)

    def test_finite_model_near_the_float_range_accepted(self):
        # the largest entry, kappa + 3 max|A|^2 = 1.6e308, is finite, while
        # |kappa| + 4 max|A|^2 is not: every slab is checked, not a bound
        a = np.zeros((4, 4))
        a[0, 1] = np.sqrt(2e307)
        a[1, 0] = -a[0, 1]
        expected = oracle_model_einsum(1e308, 1, a).view(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, slabs = build_model(1e308, 1, a), ModelSlabs(1e308, 1, a)
            streamed = np.array([slab.copy() for slab in slabs])
        assert np.array_equal(model.components.view(np.int64), expected)
        assert np.array_equal(streamed.view(np.int64), expected)

    def test_nonfinite_kappa_named_as_such(self):
        with pytest.raises(NonFiniteComponents, match=r"found NaN or inf"):
            build_model(float("nan"), 0, dim=4)

    def test_arithmetic_cannot_produce_nan(self):
        with pytest.raises(NonFiniteComponents):
            build_r1(4) * float("nan")

    @pytest.mark.parametrize("operation", list(OVERFLOWS))
    def test_overflowing_arithmetic_rejected_without_warnings(self, operation):
        tensor = case2_instance(0)["tensor"]  # max |R| is about 9.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteComponents):
                OVERFLOWS[operation](tensor)
