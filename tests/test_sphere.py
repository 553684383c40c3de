import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    DistributionSamples,
    EmptySamples,
    NotOrthonormal,
    PreconditionViolated,
    Subspace,
    ZeroOperator,
    distribution_at,
    fit_skew_from_samples,
    random_skew,
    sphere_structure_check,
    standard_complex_structure,
    tangency_profile,
    unit_sphere_samples,
)
from curvlab.models import block_diagonal_skew, plane_operator

from _oracles import oracle_fit_form


def matrix_line_angle(a, b):
    """Angle between the lines spanned by two matrices in Frobenius geometry."""
    cosine = abs(float(np.sum(a * b))) / (
        float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    )
    cosine = min(1.0, cosine)
    if cosine > 0.7:
        residual = a / np.linalg.norm(a) - cosine * b / np.linalg.norm(b)
        alt = a / np.linalg.norm(a) + cosine * b / np.linalg.norm(b)
        sine = min(float(np.linalg.norm(residual)), float(np.linalg.norm(alt)))
        return float(np.arcsin(min(1.0, sine)))
    return float(np.arccos(cosine))


def exact_samples(a, d, count, seed):
    entries = []
    for s in unit_sphere_samples(d, count, seed)[d:]:
        entries.append((s, distribution_at(a, s).basis.T))
    return DistributionSamples(d, entries)


def fit_case(kind, d, seed):
    """Samples of a planted random skew operator: exact, noisy, mixed or single."""
    a = random_skew(d, seed)
    rng = np.random.default_rng(seed)
    entries = []
    for index, s in enumerate(unit_sphere_samples(d, d + 3 * d * d, seed)[d:]):
        tangents = distribution_at(a, s).basis.T
        if kind == "noisy":
            tangents = tangents + 1e-3 * rng.standard_normal(tangents.shape)
            tangents -= np.outer(tangents @ s, s)
            tangents /= np.linalg.norm(tangents, axis=1)[:, None]
        elif kind == "mixed":  # entries with 0, 2 and up to 4 tangents in turn
            tangents = tangents[: 2 * (index % 3)]
        elif kind == "single":
            tangents = tangents[index % tangents.shape[0]][None, :]
        entries.append((s, tangents))
    return DistributionSamples(d, entries)


class TestDistributionAt:
    def test_standard_j_at_basis_vector(self):
        j = standard_complex_structure(4)
        space = distribution_at(j, np.eye(4)[0])
        expected = Subspace.span([np.eye(4)[2], np.eye(4)[3]])
        assert space.dimension == 2
        assert space.angle_to(expected) < 1e-14

    def test_kernel_point_gives_full_tangent_space(self):
        j = standard_complex_structure(4)
        a = plane_operator(j, Subspace.span([np.eye(4)[0], np.eye(4)[1]]))
        space = distribution_at(a, np.eye(4)[2])
        assert space.dimension == 3
        assert abs(np.max(np.abs(space.basis.T @ np.eye(4)[2]))) < 1e-14

    def test_dimension_two_trivial(self):
        j = standard_complex_structure(2)
        assert distribution_at(j, np.eye(2)[0]).dimension == 0

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroOperator):
            distribution_at(np.zeros((4, 4)), np.eye(4)[0])

    @given(seed=st.integers(0, 5_000), d=st.sampled_from([4, 5, 6]))
    def test_membership_symmetry(self, seed, d):
        # x in D_s forces s in D_x: both overlaps vanish by skew symmetry
        a = random_skew(d, seed)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(d)
        s /= np.linalg.norm(s)
        space = distribution_at(a, s)
        for x in space.basis.T:
            assert abs(float(np.dot(x, a @ s))) < 1e-10
            assert abs(float(np.dot(s, a @ x))) < 1e-10


class TestTangencyProfile:
    def test_tangent_start_stays_tangent(self):
        j = standard_complex_structure(4)
        times = np.linspace(0.0, 2.0 * np.pi, 100)
        profile = tangency_profile(j, np.eye(4)[0], np.eye(4)[2], times)
        assert profile < 1e-14

    def test_nontangent_start_constant_overlap(self):
        j = standard_complex_structure(4)
        s, w = np.eye(4)[0], np.eye(4)[1]
        times = np.linspace(0.0, 2.0 * np.pi, 100)
        assert tangency_profile(j, s, w, times) == pytest.approx(1.0, abs=1e-12)
        # oracle: the overlap function itself is constant
        overlaps = [
            np.dot(-np.sin(t) * s + np.cos(t) * w, j @ (np.cos(t) * s + np.sin(t) * w))
            for t in times
        ]
        assert np.max(overlaps) == pytest.approx(np.min(overlaps), abs=1e-12)

    def test_zero_operator_gives_zero(self):
        times = np.linspace(0.0, 1.0, 10)
        assert tangency_profile(np.zeros((3, 3)), np.eye(3)[0], np.eye(3)[1], times) == 0.0

    def test_requires_orthogonal_direction(self):
        j = standard_complex_structure(4)
        v = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        with pytest.raises(NotOrthonormal):
            tangency_profile(j, np.eye(4)[0], v, [0.0])


class TestFitSkewFromSamples:
    def test_planted_standard_j(self):
        j = standard_complex_structure(4)
        samples = exact_samples(j, 4, 40, seed=5)
        fit = fit_skew_from_samples(samples)
        assert matrix_line_angle(fit.skew, j) < 1e-6
        assert fit.residual < 1e-12
        assert fit.gap > 0.01
        assert abs(np.linalg.norm(fit.skew) - 1.0) < 1e-12

    def test_planted_singular_operator(self):
        a = block_diagonal_skew(6, [1.3, 0.6])
        samples = exact_samples(a, 6, 50, seed=9)
        fit = fit_skew_from_samples(samples)
        assert fit.gap > 1e-6
        assert matrix_line_angle(fit.skew, a) < 1e-6

    def test_single_point_underdetermined(self):
        j = standard_complex_structure(4)
        s = unit_sphere_samples(4, 6, seed=2)[5]
        samples = DistributionSamples(4, [(s, distribution_at(j, s).basis.T)])
        fit = fit_skew_from_samples(samples)
        assert fit.gap < 1e-12

    def test_random_tangents_do_not_fit(self):
        rng = np.random.default_rng(99)
        entries = []
        for s in unit_sphere_samples(4, 40, seed=7)[4:]:
            tangents = []
            for _ in range(2):
                t = rng.standard_normal(4)
                t -= np.dot(t, s) * s
                tangents.append(t / np.linalg.norm(t))
            entries.append((s, np.asarray(tangents)))
        fit = fit_skew_from_samples(DistributionSamples(4, entries))
        assert fit.residual > 0.01

    def test_empty_samples_rejected(self):
        samples = DistributionSamples(4, [(np.eye(4)[0], np.zeros((0, 4)))])
        with pytest.raises(EmptySamples):
            fit_skew_from_samples(samples)

    def test_partial_tangent_lists_suffice(self):
        # one tangent per point still pins down [J] with enough points
        j = standard_complex_structure(4)
        entries = []
        for index, s in enumerate(unit_sphere_samples(4, 60, seed=3)[4:]):
            basis = distribution_at(j, s).basis.T
            entries.append((s, basis[index % basis.shape[0]][None, :]))
        fit = fit_skew_from_samples(DistributionSamples(4, entries))
        if fit.gap > 1e-6:
            assert matrix_line_angle(fit.skew, j) < 1e-6

    @pytest.mark.parametrize("d", [4, 6, 8])
    @pytest.mark.parametrize("kind", ["exact", "noisy", "mixed", "single"])
    def test_matches_per_tangent_oracle(self, kind, d):
        samples = fit_case(kind, d, seed=d)
        fit = fit_skew_from_samples(samples)
        eigenvalues, vectors = np.linalg.eigh(oracle_fit_form(samples))
        upper = np.triu_indices(d, k=1)
        skew = np.zeros((d, d))
        skew[upper] = vectors[:, 0]
        skew = (skew - skew.T) / np.linalg.norm(skew - skew.T)
        residual = sum(
            float(np.dot(t, skew @ s)) ** 2 for s, ts in samples.entries for t in ts
        )
        scale = float(samples.tangent_count)
        assert min(np.max(np.abs(fit.skew - skew)), np.max(np.abs(fit.skew + skew))) < 1e-12
        assert abs(fit.gap - (eigenvalues[1] - eigenvalues[0])) < 1e-12 * scale
        assert abs(fit.residual - residual) < 1e-12 * scale

    def test_repeat_calls_bitwise_equal(self):
        samples = fit_case("noisy", 8, seed=3)
        first = fit_skew_from_samples(samples)
        second = fit_skew_from_samples(samples)
        assert np.array_equal(first.skew, second.skew)
        assert first.residual == second.residual
        assert first.gap == second.gap

    def test_memory_independent_of_tangent_count(self):
        # per-point assembly keeps O(m^2 + k m) scratch; stacking all N
        # tangent rows into one (N, m) matrix would exceed the bound
        d = 32
        m = d * (d - 1) // 2
        samples = exact_samples(random_skew(d, 4), d, d + 128, seed=4)
        assert samples.tangent_count == 3840
        tracemalloc.start()
        try:
            fit_skew_from_samples(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * m * m * 8


class TestSphereStructureCheck:
    def test_worked_example(self):
        j = standard_complex_structure(4)
        a = plane_operator(j, Subspace.span([np.eye(4)[0], np.eye(4)[1]]))
        angle = sphere_structure_check(a, np.eye(4)[2], np.eye(4)[0], np.pi / 4)
        assert angle < 1e-12

    def test_symmetric_variant(self):
        j = standard_complex_structure(4)
        a = plane_operator(j, Subspace.span([np.eye(4)[0], np.eye(4)[1]]))
        angle = sphere_structure_check(a, np.eye(4)[3], np.eye(4)[1], np.pi / 6)
        assert angle < 1e-10

    def test_nondegenerate_operator_rejected(self):
        j = standard_complex_structure(4)
        with pytest.raises(PreconditionViolated):
            sphere_structure_check(j, np.eye(4)[0], np.eye(4)[1], np.pi / 4)

    def test_k_outside_kernel_rejected(self):
        a = block_diagonal_skew(6, [1.0])
        with pytest.raises(PreconditionViolated):
            sphere_structure_check(a, np.eye(6)[0], np.eye(6)[1], np.pi / 4)

    def test_seeded_instances(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            d = (4, 6, 8)[trial % 3]
            blocks = [float(rng.uniform(0.5, 2.0))]
            if d == 8:
                blocks.append(float(rng.uniform(0.5, 2.0)))
            a = block_diagonal_skew(d, blocks)
            k = np.zeros(d)
            k[-1] = 1.0
            m = np.zeros(d)
            m[0] = 1.0
            big_t = float(rng.uniform(0.1, 1.4))
            assert sphere_structure_check(a, k, m, big_t) < 1e-10


class TestSphereDecompositionFacts:
    def test_containments(self):
        # kernel sits inside D_m; the complement sits inside D_k
        a = block_diagonal_skew(6, [1.2])
        kernel = Subspace.span([np.eye(6)[i] for i in range(2, 6)])
        m = np.eye(6)[0]
        d_m = distribution_at(a, m)
        assert all(d_m.contains(col) for col in kernel.basis.T)
        k = np.eye(6)[4]
        d_k = distribution_at(a, k)
        for col in (np.eye(6)[0], np.eye(6)[1]):
            assert d_k.contains(col)

    def test_intersection_codimension(self):
        a = block_diagonal_skew(8, [1.0, 2.0])
        m = np.eye(8)[0]
        kernel = Subspace.span([np.eye(8)[i] for i in range(4, 8)])
        complement = kernel.complement()
        tangent_m = Subspace.span(
            (complement.projector() @ (np.eye(8) - np.outer(m, m))).T, dim=8, tol=1e-10
        )
        meet = distribution_at(a, m).intersection(tangent_m)
        assert tangent_m.dimension == 3
        assert meet.dimension == 2

    def test_singular_set_is_kernel_sphere(self):
        a = block_diagonal_skew(6, [1.5])
        for i in range(6):
            s = np.eye(6)[i]
            dim = distribution_at(a, s).dimension
            assert dim == (5 if i >= 2 else 4)


class TestDistributionSamplesValidation:
    def test_from_raw_normalizes(self):
        samples = DistributionSamples.from_raw(
            3, [([2.0, 0.0, 0.0], [[0.0, 3.0, 0.0]])]
        )
        s, tangents = samples.entries[0]
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(tangents[0]) == pytest.approx(1.0, abs=1e-15)

    def test_non_orthogonal_tangent_rejected(self):
        with pytest.raises(ValueError):
            DistributionSamples.from_raw(3, [([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0]])])

    def test_zero_base_point_rejected(self):
        with pytest.raises(ValueError, match="base point must be nonzero"):
            DistributionSamples.from_raw(3, [([0.0, 0.0, 0.0], [[0.0, 1.0, 0.0]])])

    def test_zero_tangent_rejected(self):
        with pytest.raises(ValueError, match="tangent vectors must be nonzero"):
            DistributionSamples.from_raw(
                3, [([1.0, 0.0, 0.0], [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])]
            )

    @pytest.mark.parametrize("tangents", [[], np.zeros((0, 3))])
    def test_from_raw_entry_without_tangents(self, tangents):
        samples = DistributionSamples.from_raw(3, [([0.0, 0.0, 5.0], tangents)])
        s, rows = samples.entries[0]
        assert np.array_equal(s, [0.0, 0.0, 1.0])
        assert rows.shape == (0, 3)
