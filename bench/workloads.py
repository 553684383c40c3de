"""Deterministic inputs and request lists for the curvlab CLI benchmark.

Every input file and every planted parameter is derived from the workload
seed alone, with the model formulas written out here rather than taken from
the library, so the checker compares the program against an independent
construction.  The program sees only the files written under ``workdir``.

A workload is a list of :class:`Step` objects, one per ``curvlab`` process.
Each step carries the arguments of its command and what its output must
show (see ``checks.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TENSOR_BASIS = "orthonormal-standard"
TENSOR_CONVENTION = "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>"


@dataclass(frozen=True)
class Step:
    """One curvlab process: its subcommand, its arguments and the planted truth."""

    label: str
    command: str
    args: tuple[str, ...]
    expect: dict

    def argv(self) -> list[str]:
        return [self.command, *self.args, "--format", "json"]


# --- model tensors --------------------------------------------------------

def r1(d: int) -> np.ndarray:
    eye = np.eye(d)
    return np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)


def ra(a: np.ndarray) -> np.ndarray:
    return (
        2.0 * np.einsum("ij,lk->ijkl", a, a)
        + np.einsum("ik,lj->ijkl", a, a)
        - np.einsum("jk,li->ijkl", a, a)
    )


def model(kappa: float, tau: int, a: np.ndarray) -> np.ndarray:
    """Components of kappa * R1 + tau * RA."""
    out = kappa * r1(a.shape[0])
    if tau:
        out = out + tau * ra(a)
    return out


def standard_j(d: int) -> np.ndarray:
    j = np.zeros((d, d))
    for k in range(0, d, 2):
        j[k + 1, k] = 1.0
        j[k, k + 1] = -1.0
    return j


def seeded_skew(d: int, seed: int) -> np.ndarray:
    """The operator the CLI builds for the A-spec ``random:SEED``."""
    m = np.random.default_rng(seed).standard_normal((d, d))
    return m - m.T


def block_skew(d: int, scales) -> np.ndarray:
    """2x2 rotation blocks on disjoint basis pairs, zero beyond the blocks."""
    a = np.zeros((d, d))
    for idx, scale in enumerate(scales):
        a[2 * idx + 1, 2 * idx] = scale
        a[2 * idx, 2 * idx + 1] = -scale
    return a


def unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def magnitude(rng: np.random.Generator) -> float:
    """A nonzero value in +-[0.5, 2], rounded so it prints exactly."""
    return round(float(rng.uniform(0.5, 2.0)), 6) * float(rng.choice([-1.0, 1.0]))


# --- file writers ---------------------------------------------------------

def tensor_text(components: np.ndarray) -> str:
    """The bytes ``curvlab.io.save_tensor`` writes, built without the slow encoder.

    ``json.dump`` with ``indent`` runs the pure-Python encoder; joining the
    float reprs gives the same text (json prints finite floats with repr).
    """
    d = components.shape[0]
    body = ",\n    ".join(map(repr, components.ravel().tolist()))
    return (
        "{\n"
        f'  "basis": {json.dumps(TENSOR_BASIS)},\n'
        f'  "components": [\n    {body}\n  ],\n'
        f'  "convention": {json.dumps(TENSOR_CONVENTION)},\n'
        f'  "dim": {d},\n'
        '  "schema_version": 1\n'
        "}\n"
    )


def write_tensor(path: Path, components: np.ndarray) -> str:
    path.write_text(tensor_text(components), encoding="utf-8")
    return str(path)


def write_matrix(path: Path, matrix: np.ndarray) -> str:
    path.write_text(json.dumps({"matrix": matrix.tolist()}), encoding="utf-8")
    return str(path)


def write_samples(path: Path, d: int, entries) -> str:
    payload = {
        "schema_version": 1,
        "dim": d,
        "entries": [{"s": s.tolist(), "tangents": t.tolist()} for s, t in entries],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# --- workloads ------------------------------------------------------------

def kahler_classify(workdir: Path, seed: int) -> list[Step]:
    """classify on Kahler files at d in {24, 32}, plus one NotKahler rejection.

    d=32 appears once: a single d=32 classify takes seconds, and every request
    type must repeat within one run (see run.py).
    """
    rng = np.random.default_rng([seed, 1])
    steps = []

    def classify(label, components, expect, j_file=None):
        path = write_tensor(workdir / f"{label}.json", components)
        args = (path,) if j_file is None else (path, "--J", j_file)
        steps.append(Step(label, "classify", args, expect))

    for d, kappa in ((24, 1.0), (32, -1.0)):
        tau = 1 if kappa > 0 else -1
        a = np.sqrt(abs(kappa)) * standard_j(d)
        classify(f"case3-d{d}", model(kappa, tau, a), {"case": 3, "kappa": kappa})

    d = 24
    j = standard_j(d)
    v = unit(rng, d)
    plane = np.column_stack([v, j @ v])
    c = magnitude(rng)
    a = np.sqrt(abs(c)) * j @ plane @ plane.T
    a_file = write_matrix(workdir / f"case4-d{d}-A.json", a)
    classify(f"case4-d{d}", model(0.0, int(np.sign(c)), a),
             {"case": 4, "c": c, "A_file": a_file})

    q = random_orthogonal(rng, d)
    j_rot = q @ standard_j(d) @ q.T
    kappa = float(rng.choice([-1.0, 1.0]))
    a = np.sqrt(abs(kappa)) * j_rot
    j_file = write_matrix(workdir / f"rotated-J-d{d}-J.json", j_rot)
    classify(f"rotated-J-d{d}", model(kappa, int(kappa), a),
             {"case": 3, "kappa": kappa}, j_file)

    a = seeded_skew(d, int(rng.integers(1 << 30)))
    classify(f"not-kahler-d{d}", model(magnitude(rng), 1, a), {"reject": "NotKahler"})
    return steps


def model_roundtrip(workdir: Path, seed: int) -> list[Step]:
    """generate then decompose, for non-Kahler models at d in {8, 16, 24, 32}.

    No d=48: one d=48 roundtrip takes 10-15 s, so it could not repeat within
    one run (see run.py).
    """
    rng = np.random.default_rng([seed, 2])
    steps = []

    def roundtrip(label, d, kappa, tau, spec, a, decompose_file=None, reject=None):
        out = str(workdir / f"{label}.json")
        params = {"dim": d, "kappa": kappa, "tau": tau, "A": a, "out": out}
        steps.append(Step(f"{label}/generate", "generate", (
            "--dim", str(d), "--kappa", repr(kappa), "--tau", str(tau),
            "--A", spec, "--out", out), params))
        expect = {"reject": reject} if reject else {"kappa": kappa, "tau": tau, "A": a}
        steps.append(Step(f"{label}/decompose", "decompose", (decompose_file or out,), expect))

    for d in (8, 16, 32):
        a_seed = int(rng.integers(1 << 30))
        roundtrip(f"dense-d{d}", d, magnitude(rng), int(rng.choice([-1, 1])),
                  f"random:{a_seed}", seeded_skew(d, a_seed))

    d = 24
    a = block_skew(d, rng.uniform(0.5, 2.0, size=d // 2 - 1))
    roundtrip(f"blocks-d{d}", d, magnitude(rng), int(rng.choice([-1, 1])),
              write_matrix(workdir / f"blocks-d{d}-A.json", a), a)

    d = 16
    roundtrip(f"tau0-d{d}", d, magnitude(rng), 0, "zero", np.zeros((d, d)))

    # the sum of two models is not almost isotropic; generate writes one summand
    a1 = seeded_skew(d, int(rng.integers(1 << 30)))
    a2 = seeded_skew(d, int(rng.integers(1 << 30)))
    k1, k2 = magnitude(rng), magnitude(rng)
    sum_file = write_tensor(workdir / f"sum-d{d}-input.json",
                            model(k1, 1, a1) + model(k2, -1, a2))
    a_seed = int(rng.integers(1 << 30))
    roundtrip(f"sum-d{d}", d, k1, 1, f"random:{a_seed}", seeded_skew(d, a_seed),
              decompose_file=sum_file, reject="NotAlmostIsotropic")
    return steps


def distribution_entries(rng: np.random.Generator, a: np.ndarray, points: int):
    """Exact samples of D[A]_s = span(s, As)-perp at random unit points s."""
    d = a.shape[0]
    entries = []
    for _ in range(points):
        s = unit(rng, d)
        u, _, _ = np.linalg.svd(np.column_stack([s, a @ s]), full_matrices=True)
        entries.append((s, u[:, 2:].T.copy()))
    return entries


def fit_distribution(workdir: Path, seed: int) -> list[Step]:
    """fit-distribution on exact samples, from near the uniqueness threshold up.

    A point contributes d-2 tangents, but the constraints of different points
    overlap: the d(d-1)/2 entries of A are pinned down (up to scale) only from
    about d points on.  The near-threshold requests use d + 2 points.
    """
    rng = np.random.default_rng([seed, 3])
    steps = []
    for d, kind, points in (
        (16, "dense", 18), (16, "singular", 40),
        (24, "dense", 26), (24, "singular", 48),
        (32, "dense", 34), (32, "dense", 64), (32, "singular", 40),
    ):
        if kind == "dense":
            a = seeded_skew(d, int(rng.integers(1 << 30)))
        else:
            a = block_skew(d, [1.0] * (d // 2 - 1))
        a = a / np.linalg.norm(a)
        label = f"{kind}-d{d}-p{points}"
        entries = distribution_entries(rng, a, points)
        path = write_samples(workdir / f"{label}.json", d, entries)
        expect = {"entries": entries, "planted": a if kind == "dense" else None}
        steps.append(Step(label, "fit-distribution", (path,), expect))
    return steps


WORKLOADS = {
    "kahler-classify": kahler_classify,
    "model-roundtrip": model_roundtrip,
    "fit-distribution": fit_distribution,
}
