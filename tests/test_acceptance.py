"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every test pins the tolerances and runtime bounds it must meet.
"""

import json
import subprocess
import sys
import time

import numpy as np

from curvlab import (
    Case2,
    Case3,
    Case4,
    Subspace,
    berger_check,
    build_model,
    build_r1,
    classify_kahler,
    distribution_at,
    holomorphic_sectional,
    random_skew,
    save_tensor,
    standard_complex_structure,
    unit_sphere_samples,
)
from curvlab.lemmas import (
    anticommuting_rejection,
    einstein_mismatches,
    exchange_deviation,
    extremal_deviation,
    geodesic_tangency,
    jacobi_deviation,
    kahler_identity_residual,
    nullity_angle,
    planted_fit_angle,
    relations_residual,
    ricci_deviation,
    roundtrip_error,
    structure_angle,
    symmetry_residual,
)
from curvlab.models import (
    as_model,
    case2_instance,
    case3_instance,
    case4_instance,
    plane_operator,
    planted_instance,
    quaternion_instance,
    random_unit,
    seeded_model,
    sphere_point_instance,
    two_plane_operator,
    unit_orthogonal_to,
)

from _oracles import canonical_pair


def report(number, label, ok, elapsed, bound):
    flag = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {number:02d} {flag}: {label} ({elapsed:.2f}s / {bound:.0f}s)")
    assert ok
    assert elapsed < bound


def model_points(models, count):
    """unit_sphere_samples(d, count, seed=index) for each model."""
    return [unit_sphere_samples(model[0].dim, count, seed=index) for index, model in enumerate(models)]


def test_criterion_01_constructor_symmetries():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    tensors = []
    for index in range(200):
        d = (2, 4, 6, 8)[index % 4]
        kappa = float(rng.uniform(-2.0, 2.0))
        tau = int(rng.choice([-1, 0, 1]))
        tensors.append(build_model(kappa, tau, random_skew(d, index) if tau != 0 else None, dim=d))
    worst = symmetry_residual(tensors)
    elapsed = time.perf_counter() - start
    report(1, f"constructor symmetry residuals (worst {worst:.2e})", worst < 1e-12, elapsed, 5.0)


def test_criterion_02_jacobi_formula():
    start = time.perf_counter()
    models = [seeded_model(index) for index in range(10)]
    worst = jacobi_deviation(models, model_points(models, 50), np.random.default_rng(7))
    elapsed = time.perf_counter() - start
    report(2, f"Jacobi rank-one formula (worst {worst:.2e})", worst < 1e-10, elapsed, 5.0)


def test_criterion_03_decomposition_roundtrip():
    start = time.perf_counter()
    worst = roundtrip_error(seeded_model(index) for index in range(200))
    elapsed = time.perf_counter() - start
    report(3, f"decomposition round trip (worst kappa error or residual {worst:.2e})",
           worst < 1e-8, elapsed, 30.0)


def collect_case3_tensors():
    out = []
    for index in range(50):
        d = (6, 8)[index % 2]
        kappa = (1.0, -1.0)[(index // 2) % 2]
        out.append(case3_instance(d, kappa))
    return out


def collect_case4_instances():
    rng = np.random.default_rng(5)
    out = []
    for index in range(50):
        d = (4, 6, 8)[index % 3]
        c = float(rng.uniform(0.3, 3.0)) * float(rng.choice([-1.0, 1.0]))
        out.append(case4_instance(d, c, seed=500 + index))
    return out


def test_criterion_04_classification_roundtrip():
    start = time.perf_counter()
    ok = True
    for instance in collect_case3_tensors():
        result = classify_kahler(instance["tensor"], instance["j"])
        ok &= isinstance(result, Case3) and abs(result.kappa - instance["kappa"]) < 1e-6
    for index in range(50):
        instance = case2_instance(seed=index)
        result = classify_kahler(instance["tensor"], instance["j"])
        if not isinstance(result, Case2):
            ok = False
            continue
        mu1, mu2, w1, w2 = canonical_pair(
            instance["mu1"], instance["mu2"], instance["w1"], instance["w2"]
        )
        ok &= abs(result.mu1 - mu1) < 1e-6 and abs(result.mu2 - mu2) < 1e-6
        ok &= result.w1.angle_to(w1) < 1e-6 and result.w2.angle_to(w2) < 1e-6
        ok &= abs(result.kappa - instance["kappa"]) < 1e-6
    for instance in collect_case4_instances():
        result = classify_kahler(instance["tensor"], instance["j"])
        ok &= isinstance(result, Case4)
        if isinstance(result, Case4):
            ok &= abs(result.c - instance["c"]) < 1e-6
            ok &= result.w.angle_to(instance["w"]) < 1e-6
    elapsed = time.perf_counter() - start
    report(4, "classification round trip, 50 instances per case", ok, elapsed, 30.0)


def test_criterion_05_constant_holomorphic_curvature():
    start = time.perf_counter()
    worst = 0.0
    for instance in collect_case3_tensors():
        tensor, j, kappa = instance["tensor"], instance["j"], instance["kappa"]
        for s in unit_sphere_samples(tensor.dim, 100, seed=13):
            worst = max(worst, abs(holomorphic_sectional(tensor, j, s) - 4.0 * kappa))
    elapsed = time.perf_counter() - start
    report(5, f"holomorphic curvature 4*kappa (worst {worst:.2e})", worst < 1e-10, elapsed, 30.0)


def test_criterion_06_nullity():
    start = time.perf_counter()
    worst = nullity_angle(collect_case4_instances())
    elapsed = time.perf_counter() - start
    report(6, f"flat-case nullity = W-perp (worst angle {worst:.2e})", worst < 1e-6, elapsed, 30.0)


def test_criterion_07_einstein():
    start = time.perf_counter()
    models = [seeded_model(index) for index in range(60)]
    worst = ricci_deviation(models)
    # the quaternionic A^2 = -Id is scalar, so that model is Einstein
    mismatches = einstein_mismatches(models + [as_model(quaternion_instance())])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and mismatches == 0
    report(7, f"Einstein criterion (ricci deviation {worst:.2e})", ok, elapsed, 30.0)


def test_criterion_08_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    kahler_cases = [case2_instance(seed) for seed in range(8)]
    kahler_cases += [case3_instance(d, kappa) for d in (6, 8) for kappa in (1.0, -1.0)]
    for d in (4, 6, 8):
        kahler_cases += [case4_instance(d, 1.7, seed=d), case4_instance(d, -0.9, seed=d + 10)]
    worst_identity = kahler_identity_residual(kahler_cases, rng)
    # inf unless every instance classifies as case 2
    worst_relations = relations_residual([case2_instance(seed) for seed in range(10)])

    models = [seeded_model(index) for index in range(30)]
    worst_exchange = exchange_deviation(models, rng)
    worst_extremal = extremal_deviation(models, model_points(models, 10))

    elapsed = time.perf_counter() - start
    ok = worst_identity < 1e-10 and worst_relations < 1e-10
    ok = ok and worst_exchange < 1e-8 and worst_extremal < 1e-8
    report(
        8,
        "identity suite (kahler {:.1e}, relations {:.1e}, exchange {:.1e}, extremal {:.1e})".format(
            worst_identity, worst_relations, worst_exchange, worst_extremal
        ),
        ok, elapsed, 30.0,
    )


def test_criterion_09_berger_edge_case():
    start = time.perf_counter()
    j = standard_complex_structure(4)
    tensor = build_model(1.0, 1, j)
    frame = list(np.eye(4))
    mixed = float(
        np.einsum("ijkl,i,j,k,l->", tensor.components, frame[0], frame[1], frame[2], frame[3])
    )
    slack = berger_check(tensor, frame, 1.0, 4.0)
    ok = abs(abs(mixed) - 2.0) < 1e-12 and abs(slack) < 1e-12
    elapsed = time.perf_counter() - start
    report(9, f"Berger equality case (mixed {mixed:+.6f}, slack {slack:.2e})", ok, elapsed, 30.0)


def test_criterion_10_anticommuting_rejection():
    start = time.perf_counter()
    worst = anticommuting_rejection(quaternion_instance(), unit_sphere_samples(4, 20, seed=0))
    elapsed = time.perf_counter() - start
    report(10, f"quaternionic model almost isotropic yet rejected (worst {worst:.2e})",
           worst < 1e-10, elapsed, 30.0)


def test_criterion_11_distribution_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    times = np.linspace(0.0, 2.0 * np.pi, 1000)

    tangent, nontangent = [], []
    for trial in range(12):
        d = (4, 6)[trial % 2]
        a = random_skew(d, 400 + trial)
        s = random_unit(d, rng)
        tangent.append((a, s, distribution_at(a, s).basis[:, 0]))
        nontangent.append((a, s, unit_orthogonal_to(s, rng)))
    worst_tangent = geodesic_tangency(tangent)
    best_nontangent = np.inf
    cos_t, sin_t = np.cos(times)[:, None], np.sin(times)[:, None]
    for a, s, w in nontangent:
        if abs(float(np.dot(w, a @ s))) > 0.1:
            overlaps = np.einsum("ti,ti->t", -sin_t * s + cos_t * w, (cos_t * s + sin_t * w) @ a.T)
            best_nontangent = min(best_nontangent, float(np.min(np.abs(overlaps))))

    worst_fit = planted_fit_angle(planted_instance(d, trial % 2, 600 + trial, 700 + trial, 36)
                                  for trial in range(6) for d in (4, 6))

    worst_structure = structure_angle(
        sphere_point_instance((4, 6, 8)[trial % 3], rng) for trial in range(20))

    elapsed = time.perf_counter() - start
    ok = (
        worst_tangent < 1e-10
        and best_nontangent > 1e-3
        and worst_fit < 1e-6
        and worst_structure < 1e-10
    )
    report(
        11,
        "distribution suite (tangent {:.1e}, nontangent {:.1e}, fit {:.1e}, structure {:.1e})".format(
            worst_tangent, best_nontangent, worst_fit, worst_structure
        ),
        ok, elapsed, 20.0,
    )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "curvlab.cli", *args], capture_output=True, text=True
    )


def test_criterion_12_cli_contract(tmp_path):
    start = time.perf_counter()
    ok = True

    j4 = standard_complex_structure(4)
    w1 = Subspace.span([np.eye(4)[0], np.eye(4)[1]])
    a_case2, _ = two_plane_operator(j4, 2.0, 0.5, w1)
    a2_path = tmp_path / "a_case2.json"
    a2_path.write_text(json.dumps({"matrix": a_case2.tolist()}))

    j6 = standard_complex_structure(6)
    w = Subspace.span([np.eye(6)[0], np.eye(6)[1]])
    a_case4 = np.sqrt(2.0) * plane_operator(j6, w)
    a4_path = tmp_path / "a_case4.json"
    a4_path.write_text(json.dumps({"matrix": a_case4.tolist()}))

    setups = [
        ("case1", ["--dim", "2", "--kappa", "1.5", "--tau", "0"], 1),
        ("case2", ["--dim", "4", "--kappa", "1", "--tau", "1", "--A", str(a2_path)], 2),
        ("case3", ["--dim", "6", "--kappa", "1", "--tau", "1", "--A", "J"], 3),
        ("case4", ["--dim", "6", "--kappa", "0", "--tau", "1", "--A", str(a4_path)], 4),
    ]
    for name, flags, expected_case in setups:
        out = tmp_path / f"{name}.json"
        generated = run_cli("generate", *flags, "--out", str(out), "--format", "json")
        ok &= generated.returncode == 0
        classified = run_cli("classify", str(out), "--format", "json")
        ok &= classified.returncode == 0
        payload = json.loads(classified.stdout)
        ok &= payload["results"]["case"] == expected_case
        decomposed = run_cli("decompose", str(out), "--format", "json")
        ok &= decomposed.returncode == 0
        ok &= json.loads(decomposed.stdout)["results"]["residual"] < 1e-10

    bad_path = tmp_path / "broken.json"
    bad_path.write_text("{this is not json")
    ok &= run_cli("classify", str(bad_path)).returncode == 1

    r1_path = tmp_path / "r1.json"
    save_tensor(build_r1(4), r1_path)
    rejected = run_cli("classify", str(r1_path), "--format", "json")
    ok &= rejected.returncode == 2
    ok &= json.loads(rejected.stdout)["reason"] == "NotKahler"

    elapsed = time.perf_counter() - start
    report(12, "CLI generate/classify/decompose contract", ok, elapsed, 10.0)
