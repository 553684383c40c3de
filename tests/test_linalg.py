import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    CurvatureTensor,
    Decomposition,
    DimensionMismatch,
    InconsistentKappa,
    IsotropyReport,
    NonOrthonormalBasis,
    NonPositiveTolerance,
    NotAlmostIsotropic,
    NotKahler,
    NotOrthonormal,
    NotSkew,
    NotUnit,
    OddDimension,
    PreconditionViolated,
    Subspace,
    SymmetryViolation,
    ZeroOperator,
    almost_isotropy_scan,
    berger_check,
    build_r1,
    build_model,
    classify_kahler,
    load_tensor,
    random_skew,
    rank_with_tol,
    recover_decomposition,
    sphere_structure_check,
    standard_complex_structure,
    symmetric_spectrum,
    unit_sphere_samples,
)
from curvlab.lemmas import projector_defect, spectrum_residual
from curvlab.linalg import (
    canonical_sign_columns,
    require_complex_structure,
    require_orthonormal,
    require_skew,
    require_tol,
    require_unit,
)
from curvlab.models import block_diagonal_skew, case3_instance, case4_instance

from _oracles import diagonal_plane_tensor, oracle_canonical_sign_columns


def random_subspace(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    return Subspace.span(rng.standard_normal((int(rng.integers(0, d + 1)), d)), dim=d)


class TestStandardComplexStructure:
    def test_d2_matrix(self):
        np.testing.assert_array_equal(
            standard_complex_structure(2), np.array([[0.0, -1.0], [1.0, 0.0]])
        )

    def test_squares_to_minus_identity(self):
        j = standard_complex_structure(6)
        np.testing.assert_array_equal(j @ j, -np.eye(6))

    def test_orthogonal(self):
        j = standard_complex_structure(8)
        np.testing.assert_array_equal(j.T @ j, np.eye(8))

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_odd_dimension_rejected(self, d):
        with pytest.raises(OddDimension):
            standard_complex_structure(d)


class TestProjector:
    def test_single_basis_vector(self):
        w = Subspace.span([np.eye(3)[0]])
        np.testing.assert_array_equal(w.projector(), np.diag([1.0, 0.0, 0.0]))

    def test_empty_subspace(self):
        np.testing.assert_array_equal(Subspace.empty(4).projector(), np.zeros((4, 4)))

    def test_diagonal_plane(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        p = Subspace.span([v]).projector()
        np.testing.assert_allclose(p, np.full((2, 2), 0.5), atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-15)

    def test_trace_counts_dimension(self):
        rng = np.random.default_rng(11)
        w = Subspace.span(rng.standard_normal((3, 7)), dim=7)
        assert np.trace(w.projector()) == pytest.approx(w.dimension, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    def test_idempotent_on_random_subspaces(self, seed):
        assert projector_defect([random_subspace(seed)]) < 1e-12

    def test_idempotent_hundred_seeded(self):
        assert projector_defect(random_subspace(seed) for seed in range(100)) < 1e-12

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            Subspace(3, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


class TestSymmetricSpectrum:
    def test_diagonal_sorted_ascending(self):
        eigenvalues, _ = symmetric_spectrum(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_rank_one(self):
        v = np.array([2.0, 1.0, 0.0, 0.0])  # norm squared 5
        eigenvalues, vectors = symmetric_spectrum(np.outer(v, v))
        np.testing.assert_allclose(eigenvalues, [0.0, 0.0, 0.0, 5.0], atol=1e-12)
        top = vectors[:, -1]
        assert abs(abs(np.dot(top, v / np.sqrt(5.0))) - 1.0) < 1e-12

    def test_reconstruction_residual(self):
        m = np.random.default_rng(8).standard_normal((8, 8))
        assert spectrum_residual([(m + m.T) / 2.0]) < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        sym = m + m.T
        first = symmetric_spectrum(sym)
        second = symmetric_spectrum(sym.copy())
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    @given(seed=st.integers(0, 10_000))
    def test_eigenvectors_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d))
        assert spectrum_residual([(m + m.T) / 2.0]) < 1e-10

    def test_sign_canonical(self):
        _, vectors = symmetric_spectrum(np.diag([2.0, 1.0]))
        for col in vectors.T:
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first > 0


class TestCanonicalSignColumns:
    def test_batched_bitwise_equal_to_column_loop(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((4, 6, 5))
        u[:, 0, :2] = 0.0  # leading exact zeros
        u[:, 1, 0] = -1e-13  # a negative entry below the sign floor
        u[1, :, 3] = 0.0  # an all-zero column
        u[2, :, 3] = -0.0
        got = canonical_sign_columns(u)
        assert got.shape == u.shape
        for batch, matrix in zip(got, u):
            assert batch.tobytes() == oracle_canonical_sign_columns(matrix).tobytes()
            assert canonical_sign_columns(matrix).tobytes() == batch.tobytes()

    def test_empty_shapes(self):
        assert canonical_sign_columns(np.zeros((3, 0))).shape == (3, 0)
        assert canonical_sign_columns(np.zeros((2, 0, 4))).shape == (2, 0, 4)


class TestRankWithTol:
    def test_near_zero_singular_value_dropped(self):
        assert rank_with_tol(np.diag([1.0, 1e-14]), 1e-9) == 1

    def test_zero_matrix(self):
        assert rank_with_tol(np.zeros((3, 3)), 1e-9) == 0

    def test_mixed_signs(self):
        assert rank_with_tol(np.diag([2.0, -3.0, 0.0]), 1e-9) == 2

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(NonPositiveTolerance):
            rank_with_tol(np.eye(2), tol)


class TestUnitSphereSamples:
    def test_unit_norms(self):
        samples = unit_sphere_samples(5, 40, seed=2)
        norms = np.linalg.norm(samples, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-15

    def test_deterministic_bitwise(self):
        a = unit_sphere_samples(4, 25, seed=9)
        b = unit_sphere_samples(4, 25, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_empty(self):
        assert unit_sphere_samples(3, 0).shape == (0, 3)

    def test_basis_vectors_first(self):
        samples = unit_sphere_samples(4, 10, seed=0)
        np.testing.assert_array_equal(samples[:4], np.eye(4))


class TestRandomSkew:
    def test_exactly_skew(self):
        a = random_skew(6, 4)
        np.testing.assert_array_equal(a + a.T, np.zeros((6, 6)))
        np.testing.assert_array_equal(np.diag(a), np.zeros(6))

    def test_deterministic(self):
        np.testing.assert_array_equal(random_skew(5, 17), random_skew(5, 17))

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionViolated, match="-5"):
            random_skew(4, -5)

    @given(seed=st.integers(0, 5_000), d=st.sampled_from([2, 3, 4, 5, 6, 7, 8]))
    def test_even_rank(self, seed, d):
        assert rank_with_tol(random_skew(d, seed), 1e-9) % 2 == 0


class TestSubspaceGeometry:
    def test_complement_dimensions(self):
        w = Subspace.span([np.eye(5)[0], np.eye(5)[2]])
        comp = w.complement()
        assert comp.dimension == 3
        assert np.max(np.abs(w.basis.T @ comp.basis)) < 1e-14

    def test_principal_angle_of_rotated_line(self):
        theta = 0.3
        u = Subspace.span([np.array([1.0, 0.0])])
        v = Subspace.span([np.array([np.cos(theta), np.sin(theta)])])
        assert u.angle_to(v) == pytest.approx(theta, abs=1e-12)

    def test_small_angle_accuracy(self):
        # sine-based angles must resolve far below the arccos floor of ~1e-8
        theta = 1e-11
        u = Subspace.span([np.array([1.0, 0.0, 0.0])])
        v = Subspace.span([np.array([np.cos(theta), np.sin(theta), 0.0])])
        assert u.angle_to(v) == pytest.approx(theta, rel=1e-3)

    def test_angle_dimension_mismatch_is_right_angle(self):
        u = Subspace.span([np.eye(4)[0]])
        v = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        assert u.angle_to(v) == pytest.approx(np.pi / 2)

    def test_intersection_of_coordinate_planes(self):
        u = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        v = Subspace.span([np.eye(4)[1], np.eye(4)[2]])
        meet = u.intersection(v)
        assert meet.dimension == 1
        assert meet.contains(np.eye(4)[1])

    def test_contains(self):
        w = Subspace.span([np.eye(3)[0], np.eye(3)[1]])
        assert w.contains(np.array([0.5, -0.25, 0.0]))
        assert not w.contains(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("method", ["principal_angles", "angle_to", "intersection"])
    def test_ambient_dimension_mismatch_typed(self, method):
        u, v = Subspace.span([np.eye(3)[0]]), Subspace.span([np.eye(4)[0]])
        with pytest.raises(DimensionMismatch, match="^subspaces live in different ambient dimensions$"):
            getattr(u, method)(v)

    def test_span_vector_length_mismatch_typed(self):
        with pytest.raises(DimensionMismatch, match="^vectors have length 3, expected 4$"):
            Subspace.span([np.eye(3)[0]], dim=4)


def broken_r1_file(path):
    """R1 in dimension 3 with one entry raised by 0.5, which breaks antisymmetry only."""
    comp = build_r1(3).components.copy()
    comp[0, 1, 2, 1] += 0.5
    path.write_text(json.dumps({
        "schema_version": 1, "dim": 3, "components": comp.ravel().tolist(),
        "basis": "orthonormal-standard", "convention": "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>",
    }))
    return path


# clusters of size 2 at 1 and at 5 among curvatures up to 9: spread 4, threshold 9e-9
SPLIT_KAPPA = CurvatureTensor(4, diagonal_plane_tensor(
    4, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 9.0, (1, 2): 5.0, (1, 3): 5.0, (2, 3): 5.0}))


def with_nan(matrix, index=(0, 1)):
    """A float copy of ``matrix`` with one entry set to NaN."""
    matrix = np.array(matrix, dtype=float)
    matrix[index] = np.nan
    return matrix


class TestToleranceRejects:
    """NaN and inf fail before any tolerance check; every tolerance check reports its
    measure and threshold."""

    @pytest.mark.parametrize("call, error, what", [
        (lambda: require_skew(with_nan(np.zeros((3, 3)))), NotSkew, "operator"),
        (lambda: require_complex_structure(with_nan(standard_complex_structure(4))),
         PreconditionViolated, "complex structure"),
        (lambda: require_orthonormal(with_nan(np.eye(2))), NotOrthonormal, "vectors"),
        (lambda: Subspace(3, with_nan(np.eye(3)[:, :2], (2, 1))), NonOrthonormalBasis, "basis"),
        (lambda: classify_kahler(case3_instance(4, 1.0)["tensor"],
                                 with_nan(standard_complex_structure(4))),
         PreconditionViolated, "complex structure"),
        (lambda: rank_with_tol(with_nan(np.eye(2))), PreconditionViolated, "matrix"),
        (lambda: Subspace.span(with_nan(np.eye(2))), PreconditionViolated, "vectors"),
    ], ids=["require_skew", "require_complex_structure", "require_orthonormal", "Subspace",
            "classify_kahler", "rank_with_tol", "Subspace.span"])
    def test_nan_rejected(self, call, error, what):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == f"{what} must be finite (found NaN or inf)"

    @pytest.mark.parametrize("call, error, what", [
        (lambda: require_skew(np.diag([np.inf, 0.0, 0.0])), NotSkew, "operator"),
        (lambda: require_skew([[0.0, np.inf], [-np.inf, 0.0]]), NotSkew, "operator"),
        (lambda: require_complex_structure([[0.0, np.inf], [-np.inf, 0.0]]),
         PreconditionViolated, "complex structure"),
        (lambda: require_orthonormal([[np.inf, 0.0], [0.0, 1.0]]), NotOrthonormal, "vectors"),
        (lambda: build_model(1.0, 1, np.diag([np.inf, 0.0, 0.0, 0.0])), NotSkew, "operator"),
        (lambda: Subspace(2, np.array([[np.inf, 0.0], [0.0, 1.0]])), NonOrthonormalBasis,
         "basis"),
        (lambda: rank_with_tol([[np.inf, 0.0], [0.0, 1.0]]), PreconditionViolated, "matrix"),
        (lambda: Subspace.span([[np.inf, 0.0]]), PreconditionViolated, "vectors"),
    ], ids=["require_skew", "require_skew_both_signs", "require_complex_structure",
            "require_orthonormal", "build_model", "Subspace", "rank_with_tol", "Subspace.span"])
    def test_inf_rejected(self, call, error, what):
        # rejected before any arithmetic: inf <= inf would pass the residual
        # check, and inf - inf would print a numpy warning
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == f"{what} must be finite (found NaN or inf)"

    @pytest.mark.parametrize("error, reject, text", [
        (SymmetryViolation, lambda path: load_tensor(broken_r1_file(path)),
         "antisymmetry identity fails with residual 5.000e-01 exceeds 1.000e-09"),
        (NotKahler, lambda _: classify_kahler(build_r1(4), standard_complex_structure(4)),
         "Kahler residual 1.000e+00 exceeds 1.000e-09"),
        (InconsistentKappa, lambda _: almost_isotropy_scan(SPLIT_KAPPA),
         "per-sample constants disagree by 4.000e+00 exceeds 9.000e-09"),
    ], ids=["SymmetryViolation", "NotKahler", "InconsistentKappa"])
    def test_message_names_value_and_threshold(self, error, reject, text, tmp_path):
        with pytest.raises(error) as caught:
            reject(tmp_path / "broken.json")
        assert text in str(caught.value)

    def test_recovery_names_split_kappa_not_almost_isotropic(self):
        with pytest.raises(NotAlmostIsotropic) as caught:
            recover_decomposition(SPLIT_KAPPA)
        assert str(caught.value).startswith("per-sample constants disagree by 4.000e+00")
        assert isinstance(caught.value.__cause__, InconsistentKappa)


class TestArgumentRejects:
    """A malformed library argument raises its typed error, with a message naming what is wrong."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: build_model(1.0, 1, standard_complex_structure(4), dim=6), DimensionMismatch,
         "operator is 4x4, dim=6"),
        (lambda: build_r1(3) + build_r1(4), DimensionMismatch,
         "cannot add tensors of different dimensions"),
        (lambda: build_r1(3) - build_r1(4), DimensionMismatch,
         "cannot subtract tensors of different dimensions"),
        (lambda: berger_check(build_r1(6), np.eye(6)[:3], 0.0, 1.0), NotOrthonormal,
         "frame must consist of 4 vectors of length 6, got (3, 6)"),
        (lambda: require_skew(np.zeros((2, 3))), NotSkew,
         "operator must be a square matrix, got shape (2, 3)"),
        (lambda: require_complex_structure(np.zeros((2, 3))), PreconditionViolated,
         "complex structure must be square, got shape (2, 3)"),
        (lambda: require_complex_structure(np.eye(3)), OddDimension,
         "complex structure needs even dimension, got 3"),
        (lambda: require_tol("x"), NonPositiveTolerance, "tolerance must be a number, got 'x'"),
        (lambda: Subspace(3, np.eye(2)), NonOrthonormalBasis,
         "basis must have shape (3, k), got (2, 2)"),
        (lambda: Subspace(3, np.zeros(3)), NonOrthonormalBasis,
         "basis must have shape (3, k), got (3,)"),
        (lambda: sphere_structure_check(np.zeros((4, 4)), np.eye(4)[2], np.eye(4)[0], 0.5),
         ZeroOperator, "structure check requires a nonzero skew operator"),
    ] + [
        (lambda t=t: sphere_structure_check(block_diagonal_skew(4, [1.0]), np.eye(4)[2],
                                            np.eye(4)[0], t),
         PreconditionViolated, "mixing angle must lie strictly between 0 and pi/2")
        for t in (0.0, np.pi / 2, -1.0, np.nan)
    ] + [
        (lambda: CurvatureTensor(1, np.zeros((1,) * 4)), PreconditionViolated,
         "dimension must be at least 2, got 1"),
        (lambda: CurvatureTensor(3, np.zeros((3,) * 3)), DimensionMismatch,
         "components must have shape (3, 3, 3, 3), got (3, 3, 3)"),
        (lambda: build_model(1.0, 0, dim=1), PreconditionViolated,
         "dimension must be at least 2, got 1"),
        (lambda: build_model(1.0, 0), PreconditionViolated,
         "either a skew operator or a dimension is required"),
        (lambda: unit_sphere_samples(0, 3), PreconditionViolated,
         "dimension must be at least 1, got 0"),
        (lambda: unit_sphere_samples(3, -1), PreconditionViolated,
         "sample count must be nonnegative, got -1"),
        (lambda: random_skew(1), PreconditionViolated, "dimension must be at least 2, got 1"),
        (lambda: random_skew(4, -5), PreconditionViolated, "seed must be non-negative, got -5"),
        (lambda: Subspace.span([]), DimensionMismatch,
         "cannot infer dimension from an empty span"),
        (lambda: IsotropyReport(kappa=1.0, is_isotropic=True, is_almost_isotropic=False,
                                worst_rank_residual=0.0, samples_used=12),
         PreconditionViolated, "isotropic implies almost isotropic"),
        (lambda: Decomposition(kappa=1.0, tau=0, skew=np.zeros((4, 4)), residual=float("nan")),
         PreconditionViolated, "residual must be nonnegative, got nan"),
        (lambda: Decomposition(kappa=1.0, tau=0, skew=np.zeros((4, 4)), residual=-1.0),
         PreconditionViolated, "residual must be nonnegative, got -1.0"),
        (lambda: case3_instance(4, 0.0), PreconditionViolated,
         "constant holomorphic case requires kappa != 0"),
        (lambda: case4_instance(4, 0.0), PreconditionViolated,
         "flat case with c = 0 is the zero tensor; build it directly"),
        (lambda: block_diagonal_skew(2, [1.0, 1.0]), PreconditionViolated,
         "too many blocks for the dimension"),
        (lambda: require_unit([np.nan, 0.0]), NotUnit,
         "vector is not a unit vector: |norm - 1| nan exceeds 1.000e-12"),
        (lambda: require_unit(np.eye(3) * [1.0, 3.0, 1.0], name="rows"), NotUnit,
         "rows is not a unit vector: |norm - 1| 2.000e+00 exceeds 1.000e-12"),
    ], ids=["build_model-dim", "add", "subtract", "berger_check-frame", "require_skew-shape",
            "complex-structure-shape", "complex-structure-odd", "require_tol-string",
            "Subspace-rows", "Subspace-1d", "structure-zero-operator",
            "angle-0", "angle-pi/2", "angle-negative", "angle-nan",
            "CurvatureTensor-dim", "CurvatureTensor-shape", "build_model-dim-1",
            "build_model-no-operator", "unit_sphere_samples-dim", "unit_sphere_samples-count",
            "random_skew-dim", "random_skew-seed", "Subspace.span-empty",
            "IsotropyReport-isotropic", "Decomposition-residual-nan",
            "Decomposition-residual-negative", "case3_instance-kappa-0", "case4_instance-c-0",
            "block_diagonal_skew-blocks", "require_unit-nan", "require_unit-stack"])
    def test_typed_error_and_message(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error
        assert str(caught.value) == message
