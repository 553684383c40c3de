import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    CurvatureTensor,
    InconsistentKappa,
    InconsistentTau,
    NonPositiveTolerance,
    NotAlmostIsotropic,
    NumericalFailure,
    SignResolutionFailure,
    Subspace,
    almost_isotropy_scan,
    analyze_b_operator,
    build_model,
    build_r1,
    build_ra,
    commute_type,
    distribution_at,
    eigenspace_at,
    einstein_check,
    extremal_curvature,
    nullity_space,
    random_skew,
    recover_decomposition,
    save_tensor,
    sphere_structure_check,
    standard_complex_structure,
    unit_sphere_samples,
)
from curvlab.isotropy import _median, _model_columns, _scan, _spectra_on_complement
from curvlab.linalg import DEFAULT_TOL, null_space, threshold
from curvlab.lemmas import extremal_deviation
from curvlab.models import (
    block_diagonal_skew,
    case4_instance,
    plane_operator,
    two_plane_operator,
)

from _oracles import curvature_projection, diagonal_plane_tensor, oracle_spectrum_on_complement


def block_model_4d():
    j = standard_complex_structure(4)
    w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
    a, _ = two_plane_operator(j, 2.0, 0.5, w1)
    return build_model(1.0, 1, a), a


def noisy_model(d, kappa, tau, a, eps, seed):
    """The model plus eps times a seeded curvature tensor of max entry 1."""
    noise = curvature_projection(np.random.default_rng(seed).standard_normal((d,) * 4))
    noise /= np.max(np.abs(noise))
    return CurvatureTensor(d, build_model(kappa, tau, a).components + eps * noise)


def skew_match(recovered, expected):
    """Distance to the expected operator modulo the unobservable global sign."""
    return min(
        float(np.max(np.abs(recovered - expected))),
        float(np.max(np.abs(recovered + expected))),
    )


@pytest.mark.parametrize("entry", [almost_isotropy_scan, recover_decomposition])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerance_rejected(entry, tol):
    with pytest.raises(NonPositiveTolerance):
        entry(build_model(1.0, 1, standard_complex_structure(4)), tol=tol)


@pytest.mark.parametrize(
    "entry",
    [
        lambda tol: eigenspace_at(build_r1(4), 1.0, np.eye(4)[0], tol=tol),
        lambda tol: nullity_space(build_r1(4), tol=tol),
        lambda tol: null_space(np.eye(3), tol=tol),
        lambda tol: Subspace.span([np.eye(3)[0]], tol=tol),
        lambda tol: commute_type(standard_complex_structure(4), standard_complex_structure(4), tol),
        lambda tol: analyze_b_operator(standard_complex_structure(4), standard_complex_structure(4), tol),
        lambda tol: einstein_check(build_r1(4), tol=tol),
        lambda tol: distribution_at(block_diagonal_skew(4, [1.0]), np.eye(4)[0], tol=tol),
        lambda tol: sphere_structure_check(block_diagonal_skew(4, [1.0]), np.eye(4)[3],
                                           np.eye(4)[0], 0.5, tol=tol),
    ],
    ids=["eigenspace_at", "nullity_space", "null_space", "Subspace.span",
         "commute_type", "analyze_b_operator", "einstein_check", "distribution_at",
         "sphere_structure_check"],
)
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_per_sample_bad_tolerance_rejected(entry, tol):
    with pytest.raises(NonPositiveTolerance):
        entry(tol)


class TestSpectraOnComplement:
    @pytest.mark.parametrize("d", [4, 6, 8])
    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_matches_per_sample_oracle(self, d, eps):
        tensor = noisy_model(d, 0.4, 1, random_skew(d, d), eps, seed=d)
        samples = unit_sphere_samples(d, 2 * d, seed=1)
        eigenvalues, vectors = _spectra_on_complement(tensor, samples)
        assert eigenvalues.shape == (2 * d, d - 1)
        assert vectors.shape == (2 * d, d, d - 1)
        scale = max(1.0, float(np.max(np.abs(eigenvalues))))
        for s, values, basis in zip(samples, eigenvalues, vectors):
            expected = oracle_spectrum_on_complement(tensor.components, s)
            assert np.max(np.abs(values - expected)) <= 1e-12 * scale
            assert np.max(np.abs(s @ basis)) <= 1e-12

    def test_sample_spectrum_independent_of_batch_size(self):
        d = 8
        tensor = noisy_model(d, -1.2, -1, random_skew(d, 4), 1e-8, seed=2)
        samples = unit_sphere_samples(d, 40, seed=6)
        full, _ = _spectra_on_complement(tensor, samples)
        scale = max(1.0, float(np.max(np.abs(full))))
        for n in (1, 3, 17):
            part, _ = _spectra_on_complement(tensor, samples[:n])
            assert np.max(np.abs(part - full[:n])) <= 1e-12 * scale
        for row, s in enumerate(samples):
            single, _ = _spectra_on_complement(tensor, s[None])
            assert np.max(np.abs(single[0] - full[row])) <= 1e-12 * scale


@pytest.mark.parametrize("size", range(1, 60))
def test_median_bitwise_equals_numpy(size):
    # repeated values and both signs, as the scan's window centres have
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    values[rng.integers(0, size, size // 3)] = values[0]
    assert _median(values) == np.median(values)
    assert np.signbit(_median(values)) == np.signbit(np.median(values))


class TestScanKappa:
    """The scan is the one source of kappa, on single-sample cluster inputs too."""

    def test_block_model_cluster(self):
        model, _ = block_model_4d()
        report = almost_isotropy_scan(model)
        assert report.kappa == pytest.approx(1.0, abs=1e-12)
        assert report.is_almost_isotropic

    def test_r1_full_multiplicity(self):
        for d in (4, 5, 6):
            report = almost_isotropy_scan(build_r1(d))
            assert report.kappa == pytest.approx(1.0, abs=1e-13)
            assert report.is_isotropic

    def test_broken_cluster_rejected(self):
        # distinct plane curvatures at e1 leave no window of size d-2
        comp = build_r1(4).components + diagonal_plane_tensor(
            4, {(0, 1): 0.5, (0, 2): 1.0}
        )
        tensor = CurvatureTensor(4, comp)
        report = almost_isotropy_scan(tensor)
        assert not report.is_almost_isotropic
        assert report.worst_rank_residual == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(NotAlmostIsotropic):
            recover_decomposition(tensor)

    def test_cluster_wider_than_sample_threshold_recovers(self):
        # at e1 the kappa-cluster is 1e-8 wide, above tol times that sample's
        # spectrum (1e-9) but well inside tol times the whole scan's (3e-5)
        a = np.zeros((6, 6))
        a[1:5, 1:5] = block_diagonal_skew(4, [100.0, 60.0])
        tensor = CurvatureTensor(6, build_model(1.0, 1, a).components + diagonal_plane_tensor(
            6, {(0, 1): 1e-8, (0, 2): 2e-8}))
        report = almost_isotropy_scan(tensor)
        assert report.is_almost_isotropic
        decomposition = recover_decomposition(tensor)
        assert decomposition.kappa == pytest.approx(1.0, abs=1e-8)
        assert decomposition.kappa == report.kappa
        assert decomposition.tau == 1
        assert decomposition.residual <= DEFAULT_TOL


class TestAlmostIsotropyScan:
    def test_model_tensor_detected(self):
        model = build_model(-2.0, 1, random_skew(6, 12))
        report = almost_isotropy_scan(model)
        assert report.is_almost_isotropic
        assert not report.is_isotropic
        assert report.kappa == pytest.approx(-2.0, abs=1e-9)
        assert report.samples_used == 12

    def test_scaled_r1_isotropic(self):
        report = almost_isotropy_scan(3.0 * build_r1(5))
        assert report.is_isotropic
        assert report.is_almost_isotropic
        assert report.kappa == pytest.approx(3.0, abs=1e-12)

    def test_rank_two_perturbation_rejected(self):
        # two independent skew deviations break the rank-one condition
        a = random_skew(6, 1)
        b = random_skew(6, 2)
        comp = (
            build_r1(6).components
            + 0.5 * build_ra(a).components
            + 0.5 * build_ra(b).components
        )
        tensor = CurvatureTensor(6, comp)
        report = almost_isotropy_scan(tensor)
        assert not report.is_almost_isotropic
        assert report.worst_rank_residual > 1e-3
        # oracle: the deviation spectrum at a generic sample has two large entries
        s = unit_sphere_samples(6, 8, seed=3)[7]
        q = Subspace.span([s]).complement().basis
        jac = np.einsum("ijkl,j,k->li", comp, s, s)
        eigenvalues = np.linalg.eigvalsh(q.T @ jac @ q)
        deviations = np.sort(np.abs(eigenvalues - 1.0))[::-1]
        assert deviations[1] > 1e-3

    def test_inconsistent_kappa_raises(self):
        # clean size-2 clusters at the basis vectors, but at two different values
        curvatures = {
            (0, 1): 1.0, (0, 2): 1.0, (0, 3): 9.0,
            (1, 2): 5.0, (1, 3): 5.0, (2, 3): 5.0,
        }
        tensor = CurvatureTensor(4, diagonal_plane_tensor(4, curvatures))
        with pytest.raises(InconsistentKappa):
            almost_isotropy_scan(tensor)

    def test_dimension_three_vote(self):
        a = random_skew(3, 5)
        model = build_model(0.75, -1, a)
        report = almost_isotropy_scan(model)
        assert report.is_almost_isotropic
        assert report.kappa == pytest.approx(0.75, abs=1e-9)

    def test_dimension_two_isotropic(self):
        report = almost_isotropy_scan(-1.5 * build_r1(2))
        assert report.is_isotropic
        assert report.kappa == pytest.approx(-1.5, abs=1e-12)


class TestExtremalCurvature:
    def test_block_model_values(self):
        model, _ = block_model_4d()
        assert extremal_curvature(model, 1.0, np.eye(4)[0]) == pytest.approx(
            13.0, abs=1e-12
        )
        assert extremal_curvature(model, 1.0, np.eye(4)[2]) == pytest.approx(
            1.75, abs=1e-12
        )

    def test_isotropic_tensor_lambda_equals_kappa(self):
        r1 = build_r1(5)
        for s in unit_sphere_samples(5, 8, seed=2):
            assert extremal_curvature(r1, 1.0, s) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 5_000), d=st.sampled_from([4, 6]))
    def test_lambda_relation_property(self, seed, d):
        rng = np.random.default_rng(seed)
        kappa = float(rng.uniform(-2, 2))
        tau = int(rng.choice([-1, 1]))
        a = random_skew(d, seed)
        model = (build_model(kappa, tau, a), kappa, tau, a)
        assert extremal_deviation([model], [unit_sphere_samples(d, 6, seed)]) < 1e-8


class TestEigenspaceAt:
    def test_block_model_complement(self):
        model, _ = block_model_4d()
        space = eigenspace_at(model, 1.0, np.eye(4)[0])
        expected = Subspace.span([np.eye(4)[2], np.eye(4)[3]])
        assert space.dimension == 2
        assert space.angle_to(expected) < 1e-10

    def test_isotropic_tensor_full_complement(self):
        space = eigenspace_at(build_r1(4), 1.0, np.eye(4)[0])
        assert space.dimension == 3

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_flat_case_kernel_point(self, d):
        # kappa = 0 and As = 0: J_s vanishes, so the eigenvalue 0 of s sits
        # inside the kappa-cluster and must still be left out
        instance = case4_instance(d, -2.5, seed=d)
        w_perp = instance["w"].complement().basis
        s = w_perp @ np.random.default_rng(d).standard_normal(d - 2)
        s /= np.linalg.norm(s)
        space = eigenspace_at(instance["tensor"], 0.0, s)
        assert space.dimension == d - 1
        assert np.max(np.abs(s @ space.basis)) <= 1e-12

    def test_kernel_point_full_complement(self):
        j = standard_complex_structure(6)
        w = Subspace.span([np.eye(6)[0], np.eye(6)[1]])
        model = build_model(1.0, 1, plane_operator(j, w))
        space = eigenspace_at(model, 1.0, np.eye(6)[4])  # e5 lies in ker(A)
        assert space.dimension == 5


class TestRecoverDecomposition:
    def test_block_model_roundtrip(self):
        model, a = block_model_4d()
        decomposition = recover_decomposition(model)
        assert decomposition.kappa == pytest.approx(1.0, abs=1e-10)
        assert decomposition.tau == 1
        assert skew_match(decomposition.skew, a) < 1e-8
        assert decomposition.residual < 1e-10

    def test_isotropic_input(self):
        decomposition = recover_decomposition(3.0 * build_r1(5))
        assert decomposition.kappa == pytest.approx(3.0, abs=1e-12)
        assert decomposition.tau == 0
        assert not np.any(decomposition.skew)

    def test_negative_scale_flat_model(self):
        # c * R_{J P_W} with c = -4: tau carries the sign, A the magnitude
        j = standard_complex_structure(4)
        w = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
        base = plane_operator(j, w)
        tensor = -4.0 * build_ra(base)
        decomposition = recover_decomposition(tensor)
        assert decomposition.kappa == pytest.approx(0.0, abs=1e-12)
        assert decomposition.tau == -1
        assert skew_match(decomposition.skew, 2.0 * base) < 1e-10

    def test_block_diagonal_disjoint_blocks(self):
        # basis-disjoint blocks share no nonzero entry between columns, so
        # every column sign comes from the anchor's polarized slices
        rng = np.random.default_rng(14)
        for d, scales in ((4, [1.5, -0.8]), (6, [1.0, 2.0, 0.5]), (8, [1.2, 0.9]),
                          (7, [0.7, -1.3, 1.1]), (10, [0.5, 1.8, -0.9])):
            perm = rng.permutation(d)
            a = block_diagonal_skew(d, scales)[np.ix_(perm, perm)]
            for tau in (-1, 1):
                model = build_model(-1.0, tau, a)
                decomposition = recover_decomposition(model)
                assert decomposition.tau == tau
                assert skew_match(decomposition.skew, a) < 1e-9
                assert decomposition.residual < 1e-10
        # a block far below tol * scale in |A e_b|^2 whose cross terms in R
        # are not: its columns must still come out with the right sign
        for d in (4, 8, 16):
            a = block_diagonal_skew(d, [2.0] * (d // 2 - 1) + [1e-4])
            decomposition = recover_decomposition(build_model(0.4, 1, a))
            assert skew_match(decomposition.skew, a) < 1e-9
            assert decomposition.residual < 1e-10

    def test_kernel_operator(self):
        a = block_diagonal_skew(8, [1.4, 0.6])  # 4-dimensional kernel
        model = build_model(0.5, -1, a)
        decomposition = recover_decomposition(model)
        assert decomposition.tau == -1
        assert skew_match(decomposition.skew, a) < 1e-9

    def test_not_almost_isotropic_raises(self):
        comp = (
            build_r1(6).components
            + 0.5 * build_ra(random_skew(6, 1)).components
            + 0.5 * build_ra(random_skew(6, 2)).components
        )
        with pytest.raises(NotAlmostIsotropic):
            recover_decomposition(CurvatureTensor(6, comp))

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_block_aligned_sum_named_not_almost_isotropic(self, tmp_path, d):
        # R_A + R_B on the same 2x2 blocks deviates by rank one at every
        # basis vector; only the scan's random samples see its rank-two
        # deviation (worst rank residual 0.22, 0.42 and 0.74), so a change
        # to the scan must keep naming this rejection
        n = d // 2
        tensor = (build_ra(block_diagonal_skew(d, [1.0] * n))
                  + build_ra(block_diagonal_skew(d, range(1, n + 1))))
        with pytest.raises(NotAlmostIsotropic, match="^worst rank residual"):
            recover_decomposition(tensor)
        path = tmp_path / "sum.json"
        save_tensor(tensor, path)
        result = subprocess.run([sys.executable, "-m", "curvlab.cli", "decompose", str(path)],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr.startswith("rejected (NotAlmostIsotropic): worst rank residual")
        assert result.stdout == ""

    def test_basis_vector_rank_check_rejects(self):
        # a 1e-8 second skew term passes the scan's rank test at tol 1e-7,
        # the one home of the rank-one condition; the reconstruction residual
        # is the final check, and it rejects here just above the tolerance
        s = np.sign(np.random.default_rng(16).standard_normal((16, 16)))
        a = np.triu(s, 1) - np.triu(s, 1).T
        tensor = build_model(0.5, 1, a) + 1e-8 * build_model(0.0, 1, random_skew(16, 5))
        assert almost_isotropy_scan(tensor, tol=1e-7).is_almost_isotropic
        with pytest.raises(SignResolutionFailure) as caught:
            recover_decomposition(tensor, 1e-7)
        assert str(caught.value) == "reconstruction residual 1.307e-07 exceeds 1.000e-07"
        decomposition = recover_decomposition(tensor, 1.31e-7)
        assert decomposition.tau == 1
        assert decomposition.residual <= 1.31e-7

    @pytest.mark.parametrize("d", [4, 6, 8, 12, 16])
    def test_recovery_rejects_rank_exactly_when_scan_does(self, d):
        # a model plus a small second skew term, eps from 1e-11 to 1e-6 in
        # half decades: recovery says NotAlmostIsotropic exactly when the scan
        # finds the tensor not almost isotropic (or its constants disagree)
        for seed in range(4):
            model = build_model(0.5, 1, random_skew(d, seed))
            extra = build_model(0.0, 1, random_skew(d, 100 + seed))
            for eps in [10.0 ** (k / 2) for k in range(-22, -11)]:
                tensor = model + eps * extra
                for tol in [1e-9, 1e-8, 1e-7]:
                    try:
                        scan_rejects = not almost_isotropy_scan(tensor, tol=tol).is_almost_isotropic
                    except InconsistentKappa:
                        scan_rejects = True
                    recovery_rejects = False
                    try:
                        assert recover_decomposition(tensor, tol).residual <= tol
                    except NotAlmostIsotropic:
                        recovery_rejects = True
                    except SignResolutionFailure:
                        pass  # the scan accepted; the residual is the final check
                    assert recovery_rejects == scan_rejects, (seed, eps, tol)

    def test_second_skew_term_at_tolerance_recovers(self):
        # the scan accepts this d=16 tensor at tol 1e-8, and so does recovery
        tensor = (build_model(0.5, 1, random_skew(16, 1))
                  + 1e-8 * build_model(0.0, 1, random_skew(16, 101)))
        assert almost_isotropy_scan(tensor, tol=1e-8).is_almost_isotropic
        decomposition = recover_decomposition(tensor, 1e-8)
        assert decomposition.tau == 1
        assert decomposition.residual <= 1e-8
        assert decomposition.kappa == pytest.approx(0.5, abs=1e-7)

    def test_inconsistent_tau_raises(self):
        # rank-one deviations of opposite signs at different basis vectors;
        # the scan's Gaussian samples see rank two, so the sign check is
        # reached through the scan's basis rows
        curvatures = {
            (0, 1): 1.0, (0, 2): 1.0, (0, 3): 4.0,
            (1, 2): -2.0, (1, 3): 1.0, (2, 3): 1.0,
        }
        tensor = CurvatureTensor(4, diagonal_plane_tensor(4, curvatures))
        report, spectra, vectors, _ = _scan(tensor, DEFAULT_TOL)
        with pytest.raises(InconsistentTau):
            _model_columns(tensor, spectra[:4], vectors[:4], report.kappa,
                           threshold(DEFAULT_TOL, tensor.max_abs))
        with pytest.raises(NotAlmostIsotropic) as caught:
            recover_decomposition(tensor)
        assert str(caught.value).startswith("worst rank residual 1.178e+00 exceeds")

    @pytest.mark.parametrize("n_samples", [1, 5, 6])
    def test_fewer_scan_samples_than_dimension(self, n_samples):
        # the scan always uses its fixed sample set, which starts with every
        # basis vector; a sample count is refused, and an old positional
        # count must not be read as a tolerance
        tensor = build_model(0.7, -1, random_skew(6, 3))
        with pytest.raises(TypeError):
            almost_isotropy_scan(tensor, n_samples)
        with pytest.raises(TypeError):
            almost_isotropy_scan(tensor, n_samples=n_samples)
        with pytest.raises(TypeError):
            recover_decomposition(tensor, n_samples=n_samples)
        decomposition = recover_decomposition(tensor)
        assert decomposition.tau == -1
        assert decomposition.kappa == pytest.approx(0.7, abs=1e-12)
        rebuilt = build_model(decomposition.kappa, -1, decomposition.skew)
        np.testing.assert_allclose(rebuilt.components, tensor.components, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_scale_roundtrip(self, scale):
        # the deflation shift must not square the entries (inf past ~1e154)
        a = random_skew(6, 1)
        tensor = CurvatureTensor(6, build_model(0.7, 1, a).components * scale)
        decomposition = recover_decomposition(tensor, 1e-9)
        assert decomposition.kappa / scale == pytest.approx(0.7, abs=1e-12)
        assert decomposition.tau == 1
        assert skew_match(decomposition.skew / np.sqrt(scale), a) < 1e-9
        assert decomposition.residual < 1e-12

    def test_near_float_max_raises_numerical_failure(self):
        # the deflation shift overflows near 1e306 / d; numpy's LinAlgError
        # must surface as a package error, not as a ValueError
        tensor = CurvatureTensor(6, build_model(0.7, 1, random_skew(6, 1)).components * 1e306)
        with pytest.raises(NumericalFailure):
            recover_decomposition(tensor, 1e-9)

    def test_dimension_three_roundtrip(self):
        a = random_skew(3, 9)
        model = build_model(1.25, -1, a)
        decomposition = recover_decomposition(model)
        assert decomposition.kappa == pytest.approx(1.25, abs=1e-10)
        assert decomposition.tau == -1
        assert skew_match(decomposition.skew, a) < 1e-10

    def test_dimension_two_collapses_to_isotropic(self):
        # in dimension 2 the skew tensor is itself isotropic (RA = |a|^2 R1),
        # so the normalized decomposition absorbs it into kappa
        j = standard_complex_structure(2)
        tensor = build_model(0.5, 1, 2.0 * j)
        decomposition = recover_decomposition(tensor)
        assert decomposition.kappa == pytest.approx(12.5, abs=1e-12)
        assert decomposition.tau == 0

    def test_tolerance_separates_noise_from_structure(self):
        # a second skew deviation far below tol reads as rounding noise;
        # the same deviation above tol breaks the rank-one condition
        a = random_skew(6, 4)
        b = random_skew(6, 5)
        base = build_model(1.0, 1, a)
        noisy = CurvatureTensor(6, base.components + 1e-12 * build_ra(b).components)
        decomposition = recover_decomposition(noisy)
        assert abs(decomposition.kappa - 1.0) < 1e-10
        assert skew_match(decomposition.skew, a) < 1e-10
        broken = CurvatureTensor(6, base.components + 1e-6 * build_ra(b).components)
        with pytest.raises(NotAlmostIsotropic):
            recover_decomposition(broken)

    @given(
        seed=st.integers(0, 10_000),
        d=st.sampled_from([4, 6, 8]),
        tau=st.sampled_from([-1, 1]),
        eps=st.sampled_from([1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]),
    )
    def test_noise_property(self, seed, d, tau, eps):
        # curvature-shaped noise of size eps is recovered through at tol = 1e3 eps
        rng = np.random.default_rng(seed)
        kappa = float(rng.uniform(-2, 2))
        a = random_skew(d, seed)
        tensor = noisy_model(d, kappa, tau, a, eps, seed)
        tol = 1e3 * eps
        decomposition = recover_decomposition(tensor, tol=tol)
        assert decomposition.tau == tau
        scale = max(1.0, build_model(kappa, tau, a).max_abs)
        assert abs(decomposition.kappa - kappa) <= tol * scale
        assert skew_match(decomposition.skew, a) <= tol * float(np.max(np.abs(a)))

    @given(
        seed=st.integers(0, 10_000),
        d=st.sampled_from([4, 6, 8]),
        tau=st.sampled_from([-1, 1]),
    )
    def test_roundtrip_property(self, seed, d, tau):
        rng = np.random.default_rng(seed)
        kappa = float(rng.uniform(-2, 2))
        a = random_skew(d, seed)
        model = build_model(kappa, tau, a)
        decomposition = recover_decomposition(model)
        assert abs(decomposition.kappa - kappa) < 1e-8
        assert decomposition.residual < 1e-8
        assert decomposition.tau == tau
        assert skew_match(decomposition.skew, a) < 1e-8
