"""JSON file formats for tensors and distribution samples, plus reports.

Tensor components are stored as a flat row-major list of finite floats, one
per line; Python's shortest round-trip float serialization makes save -> load
bitwise exact.  ``save_tensor`` writes that layout one slab at a time, and its
bytes equal those of ``json.dump(payload, indent=2, sort_keys=True)`` plus a
newline, so files and their sha256 digests match earlier versions.
Reports render to either human-readable text or a stable machine-readable
JSON layout (sorted keys, no timestamps).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .curvature import CurvatureTensor, validate_symmetries
from .errors import ParseError, SchemaVersionUnsupported, SymmetryViolation
from .linalg import DEFAULT_TOL, require_tol
from .sphere import DistributionSamples

TENSOR_SCHEMA_VERSION = 1
SAMPLES_SCHEMA_VERSION = 1
TENSOR_BASIS = "orthonormal-standard"
TENSOR_CONVENTION = "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>"


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return data


def _finite_floats(values, where: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: expected numbers") from exc
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParseError(f"{where}: values must be finite")
    return arr


def save_tensor(r: CurvatureTensor, path) -> None:
    """Write ``r`` in the tensor layout, one component per line.

    The bytes equal those of ``json.dump(payload, indent=2, sort_keys=True)``
    plus a newline: json prints a finite float with ``float.__repr__``, and
    components are always finite.  Writing the layout directly, one slab
    ``components[i]`` of d^3 components at a time, skips the pure-Python
    encoder and keeps extra memory at O(d^3).
    """
    separator = ",\n    "
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n  "basis": {json.dumps(TENSOR_BASIS)},\n  "components": [\n    ')
        for index, slab in enumerate(r.components):
            if index:
                handle.write(separator)
            handle.write(separator.join(map(repr, slab.ravel().tolist())))
        handle.write(
            f'\n  ],\n  "convention": {json.dumps(TENSOR_CONVENTION)},\n'
            f'  "dim": {r.dim},\n  "schema_version": {TENSOR_SCHEMA_VERSION}\n}}\n'
        )


def load_tensor(path, tol: float = DEFAULT_TOL) -> CurvatureTensor:
    """Load and validate a tensor file; symmetry failures name the identity."""
    tol = require_tol(tol)
    data = _read_json(path)
    version = data.get("schema_version")
    if version != TENSOR_SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"{path}: schema_version {version!r} unsupported (expected {TENSOR_SCHEMA_VERSION})"
        )
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"{path}: dim must be an integer >= 2, got {dim!r}")
    if data.get("basis") != TENSOR_BASIS:
        raise ParseError(f"{path}: basis must be {TENSOR_BASIS!r}")
    if data.get("convention") != TENSOR_CONVENTION:
        raise ParseError(f"{path}: convention must be {TENSOR_CONVENTION!r}")
    components = data.get("components")
    if not isinstance(components, list) or len(components) != dim**4:
        raise ParseError(
            f"{path}: components must be a list of dim^4 = {dim**4} numbers"
        )
    flat = _finite_floats(components, f"{path}: components")
    tensor = CurvatureTensor(dim, flat.reshape((dim,) * 4))
    report = validate_symmetries(tensor)
    scale = max(1.0, tensor.max_abs)
    for name, resid in (
        ("antisymmetry", report.antisymmetry_residual),
        ("pair-exchange", report.pair_exchange_residual),
        ("first Bianchi", report.bianchi_residual),
    ):
        if resid > tol * scale:
            raise SymmetryViolation(
                f"{path}: {name} identity fails with residual {resid:.3e} "
                f"(tolerance {tol * scale:.3e})"
            )
    return tensor


def save_samples(samples: DistributionSamples, path) -> None:
    payload = {
        "schema_version": SAMPLES_SCHEMA_VERSION,
        "dim": samples.dim,
        "entries": [
            {"s": s.tolist(), "tangents": [t.tolist() for t in tangents]}
            for s, tangents in samples.entries
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_samples(path) -> DistributionSamples:
    data = _read_json(path)
    version = data.get("schema_version")
    if version != SAMPLES_SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"{path}: schema_version {version!r} unsupported (expected {SAMPLES_SCHEMA_VERSION})"
        )
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"{path}: dim must be an integer >= 2, got {dim!r}")
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise ParseError(f"{path}: entries must be a list")
    entries = []
    for index, entry in enumerate(raw_entries):
        if not isinstance(entry, dict) or "s" not in entry or "tangents" not in entry:
            raise ParseError(f"{path}: entry {index} must have 's' and 'tangents'")
        s = _finite_floats(entry["s"], f"{path}: entry {index} base point")
        if s.shape != (dim,):
            raise ParseError(f"{path}: entry {index} base point has wrong length")
        tangents = _finite_floats(
            entry["tangents"], f"{path}: entry {index} tangents"
        ).reshape(-1, dim) if entry["tangents"] else np.zeros((0, dim))
        entries.append((s, tangents))
    try:
        return DistributionSamples.from_raw(dim, entries)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_matrix(path, expected_dim: int | None = None) -> np.ndarray:
    """Load a square matrix from JSON: either a bare 2-d list or {"matrix": ...}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(data, dict):
        data = data.get("matrix")
    mat = _finite_floats(data, f"{path}: matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParseError(f"{path}: matrix must be square, got shape {mat.shape}")
    if expected_dim is not None and mat.shape[0] != expected_dim:
        raise ParseError(
            f"{path}: matrix is {mat.shape[0]}x{mat.shape[0]}, expected {expected_dim}"
        )
    return mat


def file_digest(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def render_json(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True)


def render_text(report: dict) -> str:
    lines = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{prefix}{key}.", value[key])
        elif isinstance(value, np.ndarray):
            emit(prefix, value.tolist())
        elif isinstance(value, list) and value and isinstance(value[0], (list, np.ndarray)):
            for row_index, row in enumerate(value):
                emit(f"{prefix}{row_index}.", row)
        else:
            lines.append(f"{prefix[:-1]}: {_jsonable(value)}")

    emit("", report)
    return "\n".join(lines)
