"""Seeded generators for structured skew operators, model tensors and sphere samples.

Used by the test suite, the lemma runner, and the demo scripts to produce
representative instances of each classification case plus the
anticommuting counterexample that the classifier must reject, and exact
samples of the sphere distributions D[A].
"""

from __future__ import annotations

import numpy as np

from .curvature import build_model
from .linalg import Subspace, random_skew, standard_complex_structure, unit_sphere_samples
from .sphere import DistributionSamples, distribution_at


def quaternion_j() -> np.ndarray:
    """The 4x4 skew orthogonal structure that anticommutes with the standard J.

    Columns: A e1 = e3, A e2 = -e4, A e3 = -e1, A e4 = e2.  Squares to -Id,
    so together with the standard structure it generates a quaternionic
    action; models built from it are almost isotropic but never Kahler.
    """
    a = np.zeros((4, 4))
    a[2, 0] = 1.0
    a[3, 1] = -1.0
    a[0, 2] = -1.0
    a[1, 3] = 1.0
    return a


def holomorphic_plane(j: np.ndarray, v: np.ndarray) -> Subspace:
    """The J-invariant plane span(v, Jv)."""
    return Subspace.span([v, j @ v])


def two_plane_operator(j: np.ndarray, mu1: float, mu2: float, w1: Subspace) -> tuple[np.ndarray, Subspace]:
    """A = J (mu1 P_W1 + mu2 P_W2) with W2 the orthogonal complement of W1."""
    w2 = w1.complement()
    a = j @ (mu1 * w1.projector() + mu2 * w2.projector())
    return a, w2

def plane_operator(j: np.ndarray, w: Subspace) -> np.ndarray:
    """A = J P_W for a holomorphic plane W."""
    return j @ w.projector()


def random_unit(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def unit_orthogonal_to(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal(s.size)
    w -= np.dot(w, s) * s
    return w / np.linalg.norm(w)


def random_model(d: int, rng: np.random.Generator):
    """(tensor, kappa, tau, A) for a model with all three drawn from ``rng``."""
    kappa = float(rng.uniform(-2.0, 2.0))
    tau = int(rng.choice([-1, 1]))
    a = random_skew(d, int(rng.integers(1 << 30)))
    return build_model(kappa, tau, a), kappa, tau, a


def seeded_model(index: int):
    """(tensor, kappa, tau, A) number ``index`` of a fixed list, d cycling through 4, 6, 8.

    ``A`` cycles through four kinds: dense, basis-disjoint rotation blocks
    (no two blocks' columns overlap), blocks with a kernel, and dense with a
    kernel through basis-aligned coordinates.
    """
    rng = np.random.default_rng(1000 + index)
    d = (4, 6, 8)[index % 3]
    kappa = float(rng.uniform(-2.0, 2.0))
    tau = int(rng.choice([-1, 1]))
    kind = index % 4
    if kind == 0:
        a = random_skew(d, 2000 + index)
    elif kind == 1:
        a = block_diagonal_skew(d, rng.uniform(0.4, 2.0, size=d // 2))
    elif kind == 2:
        a = block_diagonal_skew(d, rng.uniform(0.4, 2.0, size=max(1, d // 2 - 1)))
    else:
        a = random_skew(d, 3000 + index)
        a[:, -2:] = 0.0
        a[-2:, :] = 0.0
    return build_model(kappa, tau, a), kappa, tau, a


def as_model(instance: dict):
    """(tensor, kappa, tau, A) of an instance dict that carries a kappa."""
    return instance["tensor"], instance["kappa"], instance["tau"], instance["skew"]


def case2_instance(seed: int = 0, spread: float = 0.1) -> dict:
    """A d=4 instance with two distinct holomorphic eigenplanes.

    Draws mu1, mu2 with |mu1 - mu2| and |mu1 + mu2| above ``spread`` (so
    the classification does not collapse to the constant holomorphic case)
    and sets kappa = tau * mu1 * mu2.
    """
    rng = np.random.default_rng(seed)
    j = standard_complex_structure(4)
    while True:
        mu1, mu2 = rng.uniform(0.3, 2.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        if abs(mu1 - mu2) > spread and abs(mu1 + mu2) > spread:
            break
    tau = int(rng.choice([-1, 1]))
    kappa = tau * mu1 * mu2
    w1 = holomorphic_plane(j, random_unit(4, rng))
    a, w2 = two_plane_operator(j, mu1, mu2, w1)
    tensor = build_model(kappa, tau, a)
    return {
        "tensor": tensor, "j": j, "kappa": kappa, "tau": tau,
        "mu1": mu1, "mu2": mu2, "w1": w1, "w2": w2, "skew": a,
    }


def case3_instance(d: int, kappa: float) -> dict:
    """R = kappa (R1 + RJ): constant holomorphic curvature 4 kappa."""
    if kappa == 0:
        raise ValueError("constant holomorphic case requires kappa != 0")
    j = standard_complex_structure(d)
    tau = 1 if kappa > 0 else -1
    a = np.sqrt(abs(kappa)) * j
    tensor = build_model(kappa, tau, a)
    return {"tensor": tensor, "j": j, "kappa": kappa, "tau": tau, "skew": a}


def case4_instance(d: int, c: float, seed: int = 0) -> dict:
    """R = c R_{J P_W} for a random holomorphic plane W (flat case)."""
    if c == 0:
        raise ValueError("flat case with c = 0 is the zero tensor; build it directly")
    rng = np.random.default_rng(seed)
    j = standard_complex_structure(d)
    w = holomorphic_plane(j, random_unit(d, rng))
    tau = 1 if c > 0 else -1
    a = np.sqrt(abs(c)) * plane_operator(j, w)
    tensor = build_model(0.0, tau, a)
    return {"tensor": tensor, "j": j, "c": c, "tau": tau, "w": w, "skew": a}


def quaternion_instance(kappa: float = 1.0, tau: int = 1) -> dict:
    """The anticommuting counterexample: almost isotropic, never Kahler."""
    j = standard_complex_structure(4)
    a = quaternion_j()
    tensor = build_model(kappa, tau, a)
    return {"tensor": tensor, "j": j, "kappa": kappa, "tau": tau, "skew": a}


def block_diagonal_skew(d: int, scales) -> np.ndarray:
    """Skew operator with 2x2 rotation blocks scaled by ``scales``, zero-padded.

    Blocks touch disjoint basis pairs, so no two columns of different
    blocks share a nonzero entry and recovery must take the relative block
    signs from one anchor eigenpair plus polarized slices; entries beyond
    the blocks stay zero, giving a kernel when 2 * len(scales) < d.
    """
    scales = list(scales)
    if 2 * len(scales) > d:
        raise ValueError("too many blocks for the dimension")
    a = np.zeros((d, d))
    for idx, scale in enumerate(scales):
        base = 2 * idx
        a[base + 1, base] = scale
        a[base, base + 1] = -scale
    return a


def sphere_point_instance(d: int, rng: np.random.Generator):
    """(A, k, m, T) for ``sphere_structure_check``: one rotation block, two from d = 8.

    k = e_d lies in ker A, m = e_1 is orthogonal to it, and T is drawn
    from (0.1, 1.4).
    """
    a = block_diagonal_skew(d, rng.uniform(0.5, 2.0, size=1 + (d >= 8)))
    return a, np.eye(d)[-1], np.eye(d)[0], float(rng.uniform(0.1, 1.4))


def planted_instance(d: int, singular: bool, skew_seed: int, sample_seed: int, count: int):
    """(A, exact samples of D[A] at the count - d random points of unit_sphere_samples).

    A is ``random_skew(d, skew_seed)``, or with ``singular`` rotation blocks
    with a kernel, over which the fit must extend.
    """
    if singular:
        a = block_diagonal_skew(d, [1.1] + ([0.6] if d >= 6 else []))
    else:
        a = random_skew(d, skew_seed)
    return a, distribution_samples(a, unit_sphere_samples(d, count, sample_seed)[d:])


def distribution_samples(a, points) -> DistributionSamples:
    """Exact samples of D[A]: each point with the full basis of its distribution."""
    return DistributionSamples(a.shape[0], [(s, distribution_at(a, s).basis.T) for s in points])
