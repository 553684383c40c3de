"""Independent brute-force oracles for the test suite.

Everything here is written with explicit Python loops and inner products,
deliberately avoiding the vectorized paths used by the package, so the
two implementations can check each other.  File layouts are written with
the standard library's json encoder.
"""

import json

import numpy as np


def oracle_r1_components(d):
    """<R1(e_i,e_j)e_k, e_l> from the defining formula, entry by entry."""
    comp = np.zeros((d, d, d, d))
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                vec = eye[j, k] * eye[i] - eye[i, k] * eye[j]
                for l in range(d):
                    comp[i, j, k, l] = vec[l]
    return comp


def oracle_ra_components(a):
    """<RA(e_i,e_j)e_k, e_l> from the defining formula, entry by entry."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    comp = np.zeros((d, d, d, d))
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x, y, z = eye[i], eye[j], eye[k]
                vec = (
                    2.0 * np.dot(x, a @ y) * (a @ z)
                    + np.dot(x, a @ z) * (a @ y)
                    - np.dot(y, a @ z) * (a @ x)
                )
                for l in range(d):
                    comp[i, j, k, l] = vec[l]
    return comp


def oracle_jacobi(components, v):
    """Matrix of w -> R(w, v)v by direct summation."""
    d = components.shape[0]
    out = np.zeros((d, d))
    for l in range(d):
        for i in range(d):
            total = 0.0
            for j in range(d):
                for k in range(d):
                    total += components[i, j, k, l] * v[j] * v[k]
            out[l, i] = total
    return out


def oracle_sectional(components, v, w):
    """<R(v, w)w, v> by direct summation."""
    d = components.shape[0]
    total = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    total += components[i, j, k, l] * v[i] * w[j] * w[k] * v[l]
    return total


def oracle_ricci(components):
    """Ric[i, j] = trace(x -> R(x, e_i)e_j) by direct summation."""
    d = components.shape[0]
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = sum(components[k, i, j, k] for k in range(d))
    return out


def oracle_in_nullity(components, v, tol=1e-10):
    """Whether R(., v). vanishes, checked against every component slice."""
    contracted = np.tensordot(components, v, axes=([1], [0]))
    return float(np.max(np.abs(contracted))) <= tol


def plane_tensor(d, i, j):
    """The curvature tensor of a single coordinate plane: sec(e_i, e_j) = 1.

    Only the components with index set {i, j} are nonzero; sums of these
    over distinct planes have diagonal Jacobi operators, which makes the
    family useful for crafting spectra that break almost isotropy in
    controlled ways.
    """
    comp = np.zeros((d, d, d, d))
    comp[i, j, j, i] = 1.0
    comp[j, i, i, j] = 1.0
    comp[i, j, i, j] = -1.0
    comp[j, i, j, i] = -1.0
    return comp


def diagonal_plane_tensor(d, plane_curvatures):
    """Sum of plane tensors with prescribed sectional curvatures.

    ``plane_curvatures`` maps pairs (i, j) with i < j to the curvature of
    the coordinate plane span(e_i, e_j); the Jacobi operator at e_i is
    then diagonal with entries p[i, j] over j != i.
    """
    comp = np.zeros((d, d, d, d))
    for (i, j), value in plane_curvatures.items():
        comp += value * plane_tensor(d, i, j)
    return comp


def oracle_kahler_rotation(components, j):
    """<R(J e_i, J e_j)e_k, e_l> by summing over both rotated slots."""
    d = components.shape[0]
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for jj in range(d):
            for a in range(d):
                for b in range(d):
                    out[i, jj] += j[a, i] * j[b, jj] * components[a, b]
    return out


def oracle_canonical_sign_columns(u, zero_tol=1e-12):
    """Column by column: negate when the first entry above ``zero_tol`` is negative."""
    out = np.array(u, dtype=float, copy=True)
    for col in range(out.shape[1]):
        nonzero = np.flatnonzero(np.abs(out[:, col]) > zero_tol)
        if nonzero.size and out[nonzero[0], col] < 0:
            out[:, col] = -out[:, col]
    return out


def oracle_spectrum_on_complement(components, s):
    """Eigenvalues of the Jacobi operator at s restricted to an s-perp basis."""
    d = components.shape[0]
    u, _, _ = np.linalg.svd(np.asarray(s, dtype=float).reshape(d, 1))
    q = u[:, 1:]  # orthonormal basis of s-perp
    return np.linalg.eigvalsh(q.T @ oracle_jacobi(components, s) @ q)


def curvature_projection(t):
    """Orthogonal projection of a rank-4 array onto the algebraic curvature tensors.

    Antisymmetrize both slot pairs, symmetrize under pair exchange, then
    remove the cyclic (first Bianchi) part, which for such a tensor is
    totally antisymmetric.
    """
    t = (t - t.transpose(1, 0, 2, 3)) / 2.0
    t = (t - t.transpose(0, 1, 3, 2)) / 2.0
    t = (t + t.transpose(2, 3, 0, 1)) / 2.0
    return t - (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) / 3.0


def oracle_fit_form(samples):
    """The sphere fit's quadratic form, one outer product per tangent.

    Row g of a tangent t at base point s holds the upper-triangular entries
    of t s^T - s t^T, so <t, As> = g . a[upper] for skew A.
    """
    d = samples.dim
    upper = np.triu_indices(d, k=1)
    m = upper[0].size
    form = np.zeros((m, m))
    for s, tangents in samples.entries:
        for t in tangents:
            g_full = np.outer(t, s) - np.outer(s, t)
            g = g_full[upper]
            form += np.outer(g, g)
    return form


def oracle_save_tensor(r, path):
    """The tensor file as the json encoder writes it: the layout save_tensor must match."""
    payload = {
        "schema_version": 1,
        "dim": r.dim,
        "components": r.components.ravel(order="C").tolist(),
        "basis": "orthonormal-standard",
        "convention": "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
