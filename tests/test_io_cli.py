import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from curvlab import (
    CurvatureTensor,
    DistributionSamples,
    NonPositiveTolerance,
    ParseError,
    SchemaVersionUnsupported,
    SymmetryViolation,
    build_model,
    build_r1,
    distribution_at,
    load_samples,
    load_tensor,
    random_skew,
    save_samples,
    save_tensor,
    standard_complex_structure,
    unit_sphere_samples,
)
from curvlab.io import render_json

from _oracles import oracle_save_tensor


def run_cli(*args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "curvlab.cli", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


class TestTensorFiles:
    def test_roundtrip_bitwise(self, tmp_path):
        tensor = build_model(1.25, 1, random_skew(4, 6))
        path = tmp_path / "tensor.json"
        save_tensor(tensor, path)
        loaded = load_tensor(path)
        assert loaded.dim == 4
        np.testing.assert_array_equal(loaded.components, tensor.components)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "schema_version": 1,
            "dim": 3,
            "components": [0.0] * 80,
            "basis": "orthonormal-standard",
            "convention": "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>",
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_tensor(path)

    def test_symmetry_violation_named(self, tmp_path):
        comp = build_r1(3).components.copy()
        comp[0, 1, 2, 1] += 0.5  # breaks antisymmetry only
        path = tmp_path / "broken.json"
        payload = {
            "schema_version": 1,
            "dim": 3,
            "components": comp.ravel().tolist(),
            "basis": "orthonormal-standard",
            "convention": "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>",
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SymmetryViolation, match="antisymmetry"):
            load_tensor(path)

    def test_unknown_schema_version(self, tmp_path):
        tensor = build_r1(2)
        path = tmp_path / "tensor.json"
        save_tensor(tensor, path)
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaVersionUnsupported):
            load_tensor(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        payload = {
            "schema_version": 1,
            "dim": 2,
            "components": [0.0] * 15 + [float("nan")],
            "basis": "orthonormal-standard",
            "convention": "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>",
        }
        path.write_text(json.dumps(payload, allow_nan=True))
        with pytest.raises(ParseError):
            load_tensor(path)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_bytes_match_json_encoder(self, tmp_path, d):
        tensor = build_model(0.7, 1, random_skew(d, d))
        save_tensor(tensor, tmp_path / "saved.json")
        oracle_save_tensor(tensor, tmp_path / "oracle.json")
        assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()

    @pytest.mark.parametrize("transposed", [False, True])
    def test_edge_values_match_json_encoder(self, tmp_path, transposed):
        # the constructor does not enforce the symmetries, so any finite
        # values can be laid out; a transposed view is not C-contiguous
        edge = [-0.0, 0.0, 5e-324, -5e-324, 0.1, -0.1, 1e-5, 1e-7, 1e16, -1e16,
                1e22, 1.7976931348623157e308, 2.0, -7.0, 1e15, 123456789.0, 1 / 3]
        comp = np.resize(np.array(edge), 3**4).reshape((3,) * 4)
        tensor = CurvatureTensor(3, comp.transpose(3, 1, 2, 0) if transposed else comp)
        save_tensor(tensor, tmp_path / "saved.json")
        oracle_save_tensor(tensor, tmp_path / "oracle.json")
        assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()

    def test_save_memory_is_one_slab(self, tmp_path):
        # a d^4 component list or text would peak near 32 MiB at d=32
        tensor = build_model(0.7, 1, random_skew(32, 1))
        tracemalloc.start()
        try:
            save_tensor(tensor, tmp_path / "tensor.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_bad_tolerance_rejected(self, tmp_path, tol):
        path = tmp_path / "tensor.json"
        save_tensor(build_r1(4), path)
        with pytest.raises(NonPositiveTolerance):
            load_tensor(path, tol)


class TestSamplesFiles:
    def test_roundtrip(self, tmp_path):
        j = standard_complex_structure(4)
        entries = [
            (s, distribution_at(j, s).basis.T)
            for s in unit_sphere_samples(4, 8, seed=3)
        ]
        samples = DistributionSamples(4, entries)
        path = tmp_path / "samples.json"
        save_samples(samples, path)
        loaded = load_samples(path)
        assert loaded.dim == 4
        assert loaded.tangent_count == samples.tangent_count
        for (s1, t1), (s2, t2) in zip(loaded.entries, samples.entries):
            np.testing.assert_allclose(s1, s2, atol=1e-15)
            np.testing.assert_allclose(t1, t2, atol=1e-15)

    def test_non_orthogonal_tangent_rejected(self, tmp_path):
        path = tmp_path / "samples.json"
        payload = {
            "schema_version": 1,
            "dim": 3,
            "entries": [{"s": [1.0, 0.0, 0.0], "tangents": [[1.0, 1.0, 0.0]]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_samples(path)


class TestReports:
    def test_json_layout_stable(self, tmp_path):
        tensor = build_model(1.0, 1, standard_complex_structure(6))
        path = tmp_path / "tensor.json"
        save_tensor(tensor, path)
        first = run_cli("classify", str(path), "--format", "json")
        second = run_cli("classify", str(path), "--format", "json")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["results"]["case"] == 3

    def test_render_json_sorted(self):
        text = render_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.index('"a"') < text.index('"b"')


class TestCliContract:
    def test_generate_rejects_convention_violation(self, tmp_path):
        out = tmp_path / "t.json"
        result = run_cli(
            "generate", "--dim", "4", "--kappa", "2", "--tau", "0", "--A", "J",
            "--out", str(out),
        )
        assert result.returncode == 2

    def test_generate_random_scan_passes(self, tmp_path):
        out = tmp_path / "t.json"
        result = run_cli(
            "generate", "--dim", "4", "--kappa", "0", "--tau", "1",
            "--A", "random:7", "--out", str(out), "--format", "json",
        )
        assert result.returncode == 0
        from curvlab import almost_isotropy_scan

        report = almost_isotropy_scan(load_tensor(out))
        assert report.is_almost_isotropic

    def test_corrupt_file_exits_one(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        result = run_cli("classify", str(path))
        assert result.returncode == 1

    def test_decompose_huge_scale_exits_zero(self, tmp_path):
        path = tmp_path / "huge.json"
        model = build_model(0.7, 1, random_skew(6, 1))
        save_tensor(CurvatureTensor(6, model.components * 1e200), path)
        result = run_cli("decompose", str(path), "--format", "json")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["kappa"] / 1e200 == pytest.approx(0.7, abs=1e-12)
        assert results["tau"] == 1

    def test_missing_file_exits_one(self, tmp_path):
        result = run_cli("decompose", str(tmp_path / "absent.json"))
        assert result.returncode == 1

    def test_tolerance_env_override(self, tmp_path):
        # R1 in dimension 4 is rejected at the default tolerance but slips
        # through when CURVLAB_TOL is loosened past the Kahler residual
        path = tmp_path / "r1.json"
        save_tensor(build_r1(4), path)
        strict = run_cli("classify", str(path))
        assert strict.returncode == 2
        loose = run_cli("classify", str(path), env={"CURVLAB_TOL": "2.0"})
        assert loose.returncode == 0

    @pytest.mark.parametrize(
        "args, env, source",
        [
            (("--tol", "0"), None, "--tol"),
            (("--tol=-1e-9",), None, "--tol"),
            (("--tol", "nan"), None, "--tol"),
            ((), {"CURVLAB_TOL": "-1"}, "CURVLAB_TOL"),
            ((), {"CURVLAB_TOL": "0"}, "CURVLAB_TOL"),
            ((), {"CURVLAB_TOL": "abc"}, "CURVLAB_TOL"),
        ],
    )
    def test_bad_tolerance_exits_one(self, tmp_path, args, env, source):
        path = tmp_path / "space_form.json"
        save_tensor(build_model(1.0, 1, standard_complex_structure(4)), path)
        result = run_cli("classify", str(path), *args, env=env)
        assert result.returncode == 1
        assert f"{source} must be a finite positive number" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("--tol", "-1e-9"),  # argparse reads -1e-9 as an option
            ("--no-such-option",),
        ],
    )
    def test_usage_error_exits_one(self, tmp_path, args):
        path = tmp_path / "space_form.json"
        save_tensor(build_model(1.0, 1, standard_complex_structure(4)), path)
        result = run_cli("classify", str(path), *args)
        assert result.returncode == 1
        assert "usage:" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [("classify",), ("no-such-command",), ()])
    def test_missing_or_unknown_command_exits_one(self, args):
        result = run_cli(*args)
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        assert "usage:" in result.stdout

    def test_fit_distribution_cli(self, tmp_path):
        j = standard_complex_structure(4)
        entries = [
            (s, distribution_at(j, s).basis.T)
            for s in unit_sphere_samples(4, 30, seed=11)[4:]
        ]
        path = tmp_path / "samples.json"
        save_samples(DistributionSamples(4, entries), path)
        result = run_cli("fit-distribution", str(path), "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["results"]["gap"] > 0.01
        assert payload["results"]["residual"] < 1e-12

    def test_fit_distribution_json_stable(self, tmp_path):
        a = random_skew(6, 8)
        entries = [
            (s, distribution_at(a, s).basis.T)
            for s in unit_sphere_samples(6, 40, seed=8)[6:]
        ]
        path = tmp_path / "samples.json"
        save_samples(DistributionSamples(6, entries), path)
        first = run_cli("fit-distribution", str(path), "--format", "json")
        second = run_cli("fit-distribution", str(path), "--format", "json")
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_matrix_file_a_spec(self, tmp_path):
        matrix_path = tmp_path / "a.json"
        matrix_path.write_text(json.dumps({"matrix": random_skew(4, 3).tolist()}))
        out = tmp_path / "t.json"
        result = run_cli(
            "generate", "--dim", "4", "--kappa", "1", "--tau", "-1",
            "--A", str(matrix_path), "--out", str(out),
        )
        assert result.returncode == 0
        assert load_tensor(out).dim == 4

    def test_classify_with_j_matrix_file(self, tmp_path):
        j = standard_complex_structure(6)
        tensor_path = tmp_path / "tensor.json"
        save_tensor(build_model(-1.0, -1, j), tensor_path)
        j_path = tmp_path / "j.json"
        j_path.write_text(json.dumps({"matrix": j.tolist()}))
        result = run_cli("classify", str(tensor_path), "--J", str(j_path), "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["results"]["case"] == 3

    def test_classify_with_invalid_j_file(self, tmp_path):
        tensor_path = tmp_path / "tensor.json"
        save_tensor(build_model(1.0, 1, standard_complex_structure(4)), tensor_path)
        j_path = tmp_path / "j.json"
        j_path.write_text(json.dumps({"matrix": np.eye(4).tolist()}))  # not a complex structure
        result = run_cli("classify", str(tensor_path), "--J", str(j_path))
        assert result.returncode == 1

    def test_lemma_suite_cli(self):
        result = run_cli("lemma-suite", "--dims", "4", "--trials", "4", "--seed", "1")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all passed" in result.stdout
