"""Tests of the benchmark itself: inputs, output checks and the result line.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    runs = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / tag
        workdir.mkdir()
        steps = workloads.WORKLOADS[name](workdir, seed)
        runs[tag] = ([s.label for s in steps], digests(workdir))
    assert runs["a"][1] == runs["b"][1]
    # another seed keeps the request mix and file names but changes the data
    assert runs["a"][0] == runs["c"][0]
    assert runs["a"][1].keys() == runs["c"][1].keys()
    assert runs["a"][1] != runs["c"][1]


def test_tensor_text_is_the_save_tensor_layout():
    components = workloads.model(0.75, -1, workloads.seeded_skew(4, 3))
    payload = {
        "schema_version": 1,
        "dim": 4,
        "components": components.ravel().tolist(),
        "basis": workloads.TENSOR_BASIS,
        "convention": workloads.TENSOR_CONVENTION,
    }
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert workloads.tensor_text(components) == expected


def steps_by_label(name, tmp_path):
    return {s.label: s for s in workloads.WORKLOADS[name](tmp_path, 11)}


def ok_report(step, results, **extra):
    return json.dumps({"command": step.command, "status": "ok", "results": results, **extra})


def test_checker_flags_corrupted_decompose_report(tmp_path):
    step = steps_by_label("model-roundtrip", tmp_path)["dense-d8/decompose"]
    e = step.expect
    results = {"kappa": e["kappa"], "tau": e["tau"], "A": (-e["A"]).tolist(), "residual": 0.0}
    assert checks.check(step, 0, ok_report(step, results, tolerance=1e-9), "") == []

    flipped = dict(results, tau=-e["tau"])
    assert checks.check(step, 0, ok_report(step, flipped, tolerance=1e-9), "")
    shifted = dict(results, kappa=e["kappa"] + 1e-3)
    assert checks.check(step, 0, ok_report(step, shifted, tolerance=1e-9), "")
    bent = copy.deepcopy(results)
    bent["A"][0][1] += 1e-4
    assert checks.check(step, 0, ok_report(step, bent, tolerance=1e-9), "")
    assert checks.check(step, 1, "", "error: boom")


def test_checker_flags_corrupted_classify_report(tmp_path):
    steps = steps_by_label("kahler-classify", tmp_path)
    step = steps["case3-d24"]
    good = {"case": 3, "kappa": step.expect["kappa"]}
    assert checks.check(step, 0, ok_report(step, good), "") == []
    assert checks.check(step, 0, ok_report(step, dict(good, case=4)), "")
    assert checks.check(step, 0, ok_report(step, dict(good, kappa=-good["kappa"])), "")

    step = steps["case4-d24"]
    with open(step.expect["A_file"], encoding="utf-8") as handle:
        a = np.asarray(json.load(handle)["matrix"])
    plane = np.linalg.svd(a)[0][:, :2]
    good = {"case": 4, "c": step.expect["c"], "W": plane.T.tolist()}
    assert checks.check(step, 0, ok_report(step, good), "") == []
    wrong_plane = np.roll(plane, 1, axis=0)
    assert checks.check(step, 0, ok_report(step, dict(good, W=wrong_plane.T.tolist())), "")

    step = steps["not-kahler-d24"]
    rejected = {"command": "classify", "status": "rejected", "reason": "NotKahler"}
    assert checks.check(step, 2, json.dumps(rejected), "") == []
    assert checks.check(step, 2, json.dumps(dict(rejected, reason="StructureViolation")), "")
    assert checks.check(step, 0, ok_report(step, {"case": 3, "kappa": 1.0}), "")


def test_checker_flags_wrong_fit_and_wrong_rejection(tmp_path):
    step = steps_by_label("fit-distribution", tmp_path)["dense-d16-p18"]
    planted = step.expect["planted"]
    good = {"A": planted.tolist(), "residual": 0.0, "gap": 1.0}
    assert checks.check(step, 0, ok_report(step, good), "") == []
    other = workloads.seeded_skew(16, 1)
    other /= np.linalg.norm(other)
    assert checks.check(step, 0, ok_report(step, dict(good, A=other.tolist())), "")

    step = steps_by_label("model-roundtrip", tmp_path)["sum-d16/decompose"]
    assert checks.check(step, 2, "", "rejected (NotAlmostIsotropic): spread") == []
    assert checks.check(step, 2, "", "rejected (InconsistentTau): spread")
    assert checks.check(step, 0, "", "")


def result_line(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = result_line("--workload", "fit-distribution", "--seed", "3",
                       "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = result_line("--workload", "fit-distribution", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
