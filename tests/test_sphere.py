import json
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (
    CurvlabError,
    DimensionMismatch,
    DistributionSamples,
    EmptySamples,
    NotOrthonormal,
    NotUnit,
    ParseError,
    PreconditionViolated,
    Subspace,
    ZeroOperator,
    distribution_at,
    fit_skew_from_samples,
    load_samples,
    random_skew,
    sphere_structure_check,
    standard_complex_structure,
    tangency_profile,
    unit_sphere_samples,
)
from curvlab import cli
from curvlab.lemmas import line_angle, membership_overlap, structure_angle
from curvlab.models import (
    block_diagonal_skew,
    distribution_samples,
    plane_operator,
    random_unit,
    sphere_point_instance,
    unit_orthogonal_to,
)
from curvlab.sphere import _fit_form

from _oracles import oracle_fit_form


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


def tangent_mix(d, points, seed):
    """Exact samples of a planted operator; entries hold 0, 1 and d - 2 tangents in turn."""
    a = random_skew(d, seed)
    entries = []
    for index, s in enumerate(unit_sphere_samples(d, d + points, seed)[d:]):
        entries.append((s, distribution_at(a, s).basis.T[: (0, 1, d - 2)[index % 3]]))
    return DistributionSamples(d, entries)


def valid_entries():
    """Three valid entries in R^3 holding 2, 1 and 0 tangents."""
    return [
        ([1.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]]),
        ([0.0, 0.0, 1.0], []),
    ]


def with_fault(index, s=None, tangents=None):
    entries = valid_entries()
    old_s, old_tangents = entries[index]
    entries[index] = (old_s if s is None else s, old_tangents if tangents is None else tangents)
    return entries


#: The constructor's checks of one entry, in order, each named by the start of
#: its message after "entry <i>: "; the last three are tolerance rejects.
CHECK_ORDER = [
    "base point has shape (4,), expected (3,)",
    "sample data must be finite",
    "base point is not a unit vector",
    "tangent vectors must be normalized",
    "tangent vectors must be orthogonal to the base point",
]

#: Faults in reading an entry, which both constructors reject as they read it:
#: (base point, tangents, the error, its whole message after "entry <i>: ").
#: The boolean and null would read as 1.0 and NaN, were they taken as numbers.
READ_FAULTS = [
    ([1.0, 0.0, 0.0], [[0.0, 1.0]], DimensionMismatch, "tangents have shape (1, 2), expected (k, 3)"),
    ([1.0, 0.0, 0.0], [[0, 1, 0, 0, 0, 1]], DimensionMismatch,
     "tangents have shape (1, 6), expected (k, 3)"),
    ([1.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [0.0, 1.0]], DimensionMismatch,
     "tangents must have rows of equal length"),
    ([1.0, 0.0, 0.0], [[0.0, "a", 0.0]], PreconditionViolated, "tangents must hold only numbers"),
    (["a", 0.0, 0.0], [], PreconditionViolated, "base point must hold only numbers"),
    ([10**400, 0, 0], [[0.0, 1.0, 0.0]], PreconditionViolated,
     "base point must hold only numbers in the float range"),
    ([True, 0, 0], [[0.0, 1.0, 0.0]], PreconditionViolated, "base point must hold only numbers"),
    ([None, 0, 0], [[0.0, 1.0, 0.0]], PreconditionViolated, "base point must hold only numbers"),
]

#: The error of each check, of from_raw's zero-vector checks and of each read fault.
CHECK_ERRORS = {
    **dict(zip(CHECK_ORDER, [DimensionMismatch, NotUnit, NotUnit, NotUnit, NotOrthonormal])),
    "base point has shape (2,), expected (3,)": DimensionMismatch,
    "base point must be nonzero": PreconditionViolated,
    "tangent vectors must be nonzero": PreconditionViolated,
    **{message: error for *_, error, message in READ_FAULTS},
}

#: Faults planted in a base point s, or in one tangent row from s and a unit u
#: orthogonal to it: (make, the constructor's check it fails, from_raw's zero
#: check, the constructor's check it fails after from_raw rescales it).
POINT_FAULTS = {
    "none": (lambda s: s, None, None, None),
    "shape": (lambda s: [*s, 0.0], 0, None, 0),
    "nan": (lambda s: s * np.nan, 1, None, 1),
    "long": (lambda s: 2.0 * s, 2, None, None),
    "zero": (lambda s: 0.0 * s, 2, "base point must be nonzero", None),
}
TANGENT_FAULTS = {
    "none": (None, None, None, None),
    "inf": (lambda s, u: np.where(u != 0, np.inf, 0.0), 1, None, 1),
    "long": (lambda s, u: 2.0 * u, 3, None, None),
    "zero": (lambda s, u: 0.0 * u, 3, "tangent vectors must be nonzero", None),
    "oblique": (lambda s, u: s, 4, None, 4),
}

planted_entries = st.lists(
    st.tuples(st.one_of(st.just("none"), st.sampled_from(sorted(POINT_FAULTS))),
              st.one_of(st.just("none"), st.sampled_from(sorted(TANGENT_FAULTS))),
              st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=6,
)


def assert_reject(exc, index, check):
    """``exc`` is the error of ``check`` at entry ``index``.

    The finiteness reject ends `` (found NaN or inf)``.  A tolerance reject
    ends ``<what> <value> exceeds <threshold>``, with a value above the
    threshold, read as decimals: NaN and inf never reach a tolerance check.
    Every other reject is ``check`` itself.
    """
    head = f"entry {index}: {check}"
    assert type(exc) is CHECK_ERRORS[check]
    assert str(exc).startswith(head)
    tail = str(exc)[len(head):]
    if check == CHECK_ORDER[1]:
        assert tail == " (found NaN or inf)"
    elif check in CHECK_ORDER[2:]:
        value, threshold = re.fullmatch(r": .* (\S+) exceeds (\S+)", tail).groups()
        assert Decimal(value) > Decimal(threshold)
    else:
        assert tail == "", str(exc)


def assert_rejects(build, entries, fault):
    """build(3, entries) accepts when fault is None, else raises fault = (index, check)."""
    if fault is None:
        build(3, entries)
        return
    with pytest.raises(CurvlabError) as caught:
        build(3, entries)
    assert_reject(caught.value, *fault)


def first_fault(checks):
    """(index, check) of the first entry with a check, or None."""
    return next(((index, check) for index, check in enumerate(checks) if check is not None), None)


def first_check(*checks):
    """The check in CHECK_ORDER that comes first among checks, or None."""
    failed = [check for check in checks if check is not None]
    return CHECK_ORDER[min(failed)] if failed else None


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
        s = random_unit(d, np.random.default_rng(seed))
        assert membership_overlap((a, s, x) for x in distribution_at(a, s).basis.T) < 1e-10


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
        samples = distribution_samples(j, unit_sphere_samples(4, 40, seed=5)[4:])
        fit = fit_skew_from_samples(samples)
        assert line_angle(fit.skew, j) < 1e-6
        assert fit.residual < 1e-12
        assert fit.gap > 0.01
        assert abs(np.linalg.norm(fit.skew) - 1.0) < 1e-12

    def test_planted_singular_operator(self):
        a = block_diagonal_skew(6, [1.3, 0.6])
        samples = distribution_samples(a, unit_sphere_samples(6, 50, seed=9)[6:])
        fit = fit_skew_from_samples(samples)
        assert fit.gap > 1e-6
        assert line_angle(fit.skew, a) < 1e-6

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
            entries.append((s, np.array([unit_orthogonal_to(s, rng) for _ in range(2)])))
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
            assert line_angle(fit.skew, j) < 1e-6

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

    @pytest.mark.parametrize("d", [4, 6, 8, 16])
    def test_form_matches_per_tangent_oracle(self, d):
        # 100 points fill more than one block of the assembly
        samples = tangent_mix(d, 100, seed=d)
        expected = oracle_fit_form(samples)
        form = _fit_form(samples)
        assert np.max(np.abs(form - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("points", [18, 1600])
    def test_memory_independent_of_point_count(self, points):
        # points are taken in fixed blocks, so d + 2 and 100 d points share
        # one O(m^2 + d^3) bound; stacking every point's d x d Gram matrix,
        # or every tangent row, would exceed it at 100 d points
        d = 16
        m = d * (d - 1) // 2
        a = random_skew(d, 6)
        samples = distribution_samples(a, unit_sphere_samples(d, d + points, seed=6)[d:])
        tracemalloc.start()
        try:
            fit_skew_from_samples(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * (m * m + d**3)

    def test_memory_independent_of_tangent_count(self):
        # per-point assembly keeps O(m^2 + k m) scratch; stacking all N
        # tangent rows into one (N, m) matrix would exceed the bound
        d = 32
        m = d * (d - 1) // 2
        samples = distribution_samples(random_skew(d, 4), unit_sphere_samples(d, d + 128, seed=4)[d:])
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
        instances = [sphere_point_instance((4, 6, 8)[trial % 3], rng) for trial in range(10)]
        assert structure_angle(instances) < 1e-10


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
        with pytest.raises(NotOrthonormal):
            DistributionSamples.from_raw(3, [([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0]])])

    def test_zero_base_point_rejected(self):
        with pytest.raises(PreconditionViolated, match="^entry 0: base point must be nonzero$"):
            DistributionSamples.from_raw(3, [([0.0, 0.0, 0.0], [[0.0, 1.0, 0.0]])])

    def test_zero_tangent_rejected(self):
        with pytest.raises(PreconditionViolated, match="^entry 0: tangent vectors must be nonzero$"):
            DistributionSamples.from_raw(
                3, [([1.0, 0.0, 0.0], [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])]
            )

    @pytest.mark.parametrize("tangents", [[], np.zeros((0, 3))])
    def test_from_raw_entry_without_tangents(self, tangents):
        samples = DistributionSamples.from_raw(3, [([0.0, 0.0, 5.0], tangents)])
        s, rows = samples.entries[0]
        assert np.array_equal(s, [0.0, 0.0, 1.0])
        assert rows.shape == (0, 3)

    @pytest.mark.parametrize(
        "entries, check",
        [
            (with_fault(1, s=[0.0, 1.0, 0.0, 0.0]), "base point has shape (4,), expected (3,)"),
            (with_fault(1, s=[0.0, float("nan"), 0.0]), "sample data must be finite"),
            (with_fault(1, tangents=[[float("inf"), 0.0, 0.0]]), "sample data must be finite"),
            (with_fault(1, s=[0.0, 2.0, 0.0]), "base point is not a unit vector"),
            (with_fault(1, tangents=[[2.0, 0.0, 0.0]]), "tangent vectors must be normalized"),
            (with_fault(1, tangents=[[0.0, 1.0, 0.0]]),
             "tangent vectors must be orthogonal to the base point"),
        ],
    )
    def test_single_fault_message(self, entries, check):
        assert_rejects(DistributionSamples, entries, (1, check))

    @pytest.mark.parametrize(
        "entries, check",
        [
            (with_fault(1, s=[0.0, 0.0, 0.0]), "base point must be nonzero"),
            (with_fault(1, tangents=[[0.0, 0.0, 0.0]]), "tangent vectors must be nonzero"),
            (with_fault(1, s=[0.0, 3.0, 0.0], tangents=[[0.0, 1.0, 0.0]]),
             "tangent vectors must be orthogonal to the base point"),
        ],
    )
    def test_from_raw_single_fault_message(self, entries, check):
        assert_rejects(DistributionSamples.from_raw, entries, (1, check))

    @pytest.mark.parametrize(
        "build, entries, check",
        [
            # the entry checked first decides, whatever the later entries hold
            (DistributionSamples, [(valid_entries()[0][0], [[1.0, 0.0, 0.0]]),
                                   ([float("nan"), 1.0, 0.0], [])],
             "tangent vectors must be orthogonal to the base point"),
            (DistributionSamples, [([2.0, 0.0, 0.0], []), ([1.0, 0.0], [])],
             "base point is not a unit vector"),
            (DistributionSamples.from_raw, [([1.0, 0.0, 0.0], [[0.0, 0.0, 0.0]]),
                                            ([0.0, 0.0, 0.0], [])],
             "tangent vectors must be nonzero"),
            # within one entry the base point is checked before the tangents are read
            (DistributionSamples.from_raw, [([0.0, 0.0, 0.0], [1.0, 2.0])],
             "base point must be nonzero"),
            # an entry that cannot be read as a point and (k, 3) tangents is rejected
            # as it is read, before any later entry, by both constructors
            *((build, [(s, tangents), ([0.0, 0.0, 0.0], [])], check)
              for build in (DistributionSamples, DistributionSamples.from_raw)
              for s, tangents, _, check in READ_FAULTS),
        ],
    )
    def test_first_fault_in_entry_order(self, build, entries, check):
        assert_rejects(build, entries, (0, check))

    @settings(max_examples=200)
    @given(planted_entries)
    def test_first_faulty_entry_decides(self, plan):
        # within an entry the first check in CHECK_ORDER decides; from_raw
        # rejects a zero vector in any entry before the constructor checks one
        entries, made, zeros, raw = [], [], [], []
        for point_fault, tangent_fault, axis, count in plan:
            s = np.eye(3)[axis]
            others = [np.eye(3)[(axis + step) % 3] for step in (1, 2)]
            make_point, *point = POINT_FAULTS[point_fault]
            make_row, *row = TANGENT_FAULTS[tangent_fault]
            tangents = others[:count] + ([make_row(s, others[0])] if make_row else [])
            entries.append((make_point(s), tangents))
            made.append(first_check(point[0], row[0]))
            zeros.append(point[1] or row[1])
            raw.append(first_check(point[2], row[2]))
        assert_rejects(DistributionSamples, entries, first_fault(made))
        assert_rejects(DistributionSamples.from_raw, entries, first_fault(zeros) or first_fault(raw))


#: One fault planted in entry 1 of valid_entries(), which JSON keeps as it is.
SAMPLE_FILE_FAULTS = {
    "string": with_fault(1, s=[0.0, "1.0", 0.0]),
    "bool": with_fault(1, s=[0.0, True, 0.0]),
    "null": with_fault(1, tangents=[[None, 0.0, 0.0]]),
    "nested": with_fault(1, s=[0.0, [1.0], 0.0]),
    "ragged": with_fault(1, tangents=[[1.0, 0.0, 0.0], [0.0, 0.0]]),
    "short row": with_fault(1, tangents=[[1.0, 0.0]]),
    "huge int": with_fault(1, s=[0, 10**400, 0]),
    "nan": with_fault(1, tangents=[[float("nan"), 0.0, 0.0]]),
    "inf": with_fault(1, s=[0.0, float("inf"), 0.0]),
    "zero vector": with_fault(1, tangents=[[0.0, 0.0, 0.0]]),
    "oblique tangent": with_fault(1, tangents=[[1.0, 1.0, 0.0]]),
}


class TestLoadSamplesRejections:
    @staticmethod
    def write(tmp_path, entries):
        payload = {
            "schema_version": 1,
            "dim": 3,
            "entries": [
                entry if not isinstance(entry, tuple) else {"s": entry[0], "tangents": entry[1]}
                for entry in entries
            ],
        }
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "entries, message",
        [
            (valid_entries()[:1] + ["x"], "entry 1 must have 's' and 'tangents'"),
            (with_fault(1, s=["a", 1.0, 0.0]), "base point must hold only numbers"),
            (with_fault(1, s=[0.0, float("nan"), 0.0]), "sample data must be finite"),
            (with_fault(1, s=[0.0, 1.0]), "base point has shape (2,), expected (3,)"),
            (with_fault(1, tangents=[[1.0, "a", 0.0]]), "tangents must hold only numbers"),
            (with_fault(1, tangents=[[float("inf"), 0.0, 0.0]]), "sample data must be finite"),
            (with_fault(1, s=[0.0, 0.0, 0.0]), "base point must be nonzero"),
            (with_fault(1, tangents=[[0.0, 0.0, 0.0]]), "tangent vectors must be nonzero"),
            (with_fault(1, tangents=[[0.0, 2.0, 0.0]]),
             "tangent vectors must be orthogonal to the base point"),
        ],
    )
    def test_single_fault_message(self, tmp_path, capsys, entries, message):
        path = self.write(tmp_path, entries)
        with pytest.raises(ParseError) as caught:
            load_samples(path)
        if message.startswith("entry 1"):  # the loader's own check of the file's structure
            assert str(caught.value) == f"{path}: {message}"
        else:  # a DistributionSamples reject, named by its entry
            assert_reject(caught.value.__cause__, 1, message)
            assert str(caught.value) == f"{path}: {caught.value.__cause__}"
        assert cli.main(["fit-distribution", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {caught.value}\n")

    @pytest.mark.parametrize("entries", SAMPLE_FILE_FAULTS.values(), ids=list(SAMPLE_FILE_FAULTS))
    def test_entry_checks_have_one_home(self, tmp_path, entries):
        # the loader reports what from_raw reports on the same Python lists
        with pytest.raises(CurvlabError) as direct:
            DistributionSamples.from_raw(3, entries)
        with pytest.raises(ParseError) as loaded:
            load_samples(self.write(tmp_path, entries))
        cause = loaded.value.__cause__
        assert (type(cause), str(cause)) == (type(direct.value), str(direct.value))
        assert str(loaded.value) == f"{tmp_path / 'samples.json'}: {cause}"

    def test_valid_file_loads_normalized(self, tmp_path):
        path = self.write(tmp_path, with_fault(1, s=[0.0, 4.0, 0.0]))
        samples = load_samples(path)
        assert [t.shape[0] for _, t in samples.entries] == [2, 1, 0]
        assert np.array_equal(samples.entries[1][0], [0.0, 1.0, 0.0])
