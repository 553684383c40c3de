import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    NonOrthonormalBasis,
    NonPositiveTolerance,
    OddDimension,
    Subspace,
    random_skew,
    rank_with_tol,
    standard_complex_structure,
    symmetric_spectrum,
    unit_sphere_samples,
)
from curvlab.linalg import canonical_sign_columns

from _oracles import oracle_canonical_sign_columns


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
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(0, d + 1))
        p = Subspace.span(rng.standard_normal((k, d)), dim=d).projector()
        assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_idempotent_hundred_seeded(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 9))
            k = int(rng.integers(0, d + 1))
            p = Subspace.span(rng.standard_normal((k, d)), dim=d).projector()
            assert np.max(np.abs(p @ p - p)) < 1e-12

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
        rng = np.random.default_rng(8)
        m = rng.standard_normal((8, 8))
        sym = (m + m.T) / 2.0
        eigenvalues, vectors = symmetric_spectrum(sym)
        rebuilt = (vectors * eigenvalues) @ vectors.T
        assert np.max(np.abs(rebuilt - sym)) < 1e-10 * max(1.0, np.max(np.abs(sym)))

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
        _, vectors = symmetric_spectrum((m + m.T) / 2.0)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(d))) < 1e-10

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
