"""JSON file formats for tensors and distribution samples, plus reports.

``save_tensor`` writes tensor files of schema 2: ``components_base64`` is
the base64 of the C-order little-endian float64 array, so save -> load is
bitwise exact, signed zeros included, and a d=32 file is 11.2 MB.  The
save is one pass over the slabs R[i], and takes a model's slabs from
``curvature.ModelSlabs`` as they are computed, so writing a model never
holds its d^4 array; its bytes equal those of ``json.dump(payload,
indent=2, sort_keys=True)`` plus a newline.  ``load_tensor`` reads schema
2 and schema 1, whose ``components`` is a flat row-major list of numbers
(the benchmark's files and files written before schema 2).  A file in the
layout ``save_tensor`` writes, or in the json encoder's schema 1 layout,
is read in pieces of 64 Ki characters into one float64 array, so beyond
that array the load needs O(64 KiB).  Any other layout, and any malformed
file, goes to the whole-text parse, which gives the same results and
errors and alone words them, with the whole text in memory (and, for
schema 1, a list of d^4 floats: about 55 MiB traced at d=32).
Reports are dicts the CLI builds of plain JSON values (dict, list, str,
int, float, bool), taking numpy results through ``.tolist()`` or
``float(...)`` where they enter the report.  ``render_json`` is
``json.dumps(report, indent=2, sort_keys=True)`` and ``render_text`` prints
one ``key.path: value`` line per leaf.  Neither converts anything: a
numpy value in a report is a bug that fails loudly, never silently
converted (``render_json`` raises TypeError on a numpy array, integer or
bool, and the tests reject a numpy float too).  ``load_tensor`` and
``load_samples`` import the curvature and sphere modules when first called,
so a process that reads only one kind of file loads only one of them.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from array import array
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import CurvlabError, NonFiniteComponents, ParseError, SchemaVersionUnsupported
from .linalg import DEFAULT_TOL, require_tol, threshold

if TYPE_CHECKING:
    from .curvature import CurvatureTensor, ModelSlabs
    from .sphere import DistributionSamples

TENSOR_SCHEMA_VERSION = 2
SAMPLES_SCHEMA_VERSION = 1
TENSOR_BASIS = "orthonormal-standard"
TENSOR_CONVENTION = "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>"


def _parse_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 ({exc})") from exc


def _read_json(path) -> dict:
    data = _parse_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return data


# Characters of text the tensor reader parses at a time.  On one CPU of a
# shared 2-core machine, a fresh process loaded a dense d=16 schema 1 file
# in 16 ms with 64 Ki pieces and 20 ms with 1 Mi (17 ms for the whole text
# at once); d=32 took 245 and 260 ms.
_PIECE = 2**16
_PREFIX = f'{{\n  "basis": {json.dumps(TENSOR_BASIS)},\n  "components'
# The text before the first component of a schema 1 file in the layout of
# ``json.dump(payload, indent=2, sort_keys=True)``, which the benchmark and
# earlier versions of ``save_tensor`` write.
_HEAD = _PREFIX + '": [\n    '
# The text ``save_tensor`` writes before the base64 of the components.
_HEAD_BASE64 = _PREFIX + '_base64": "'


def _read_numbers(handle) -> tuple[np.ndarray, str]:
    """A schema 1 component list read after its "[": its values, and the text after its "]".

    The list is cut at its first "]", else at the last comma of each piece,
    and each piece is read by ``json.loads`` into one ``array("d")``, which
    ``np.frombuffer`` wraps without a copy.  Raises ValueError or TypeError
    at a piece with no cut, an empty piece, a piece with a "u" or an "l"
    (``true``, ``false``, ``null``) and a value that is not a number.  NaN
    and Infinity are read as numbers, as the whole-text parse reads them.
    """
    numbers, rest = array("d"), ""
    while True:
        piece = rest + handle.read(_PIECE)
        end = piece.find("]")
        cut = end if end >= 0 else piece.rfind(",")
        if cut < 0 or "u" in piece[:cut] or "l" in piece[:cut]:
            raise ValueError("not a list of numbers")
        values = json.loads("[" + piece[:cut] + "]")
        if not values:
            raise ValueError("empty piece")
        numbers.fromlist(values)
        rest = piece[cut + 1:]
        if end >= 0:
            return np.frombuffer(numbers), rest


def _read_base64(handle) -> tuple[np.ndarray, str]:
    """A schema 2 components string read after its opening quote: its bytes, and the text after it.

    Pieces of whole 4-character groups are decoded as the whole-text parse
    decodes the string, by ``base64.b64decode(validate=True)``, straight
    into one byte array sized from the file; ``load_tensor`` checks the
    decoded length.  Raises ValueError at text that is not base64 (a JSON
    escape among it), padding before the last piece and a string with no
    end.
    """
    out = np.empty(os.fstat(handle.fileno()).st_size * 3 // 4, np.uint8)
    filled, rest = 0, ""
    while True:
        read = handle.read(_PIECE)
        piece = rest + read
        end = piece.find('"')
        cut = end if end >= 0 else len(piece) - len(piece) % 4
        if not read or (end < 0 and "=" in piece[:cut]):
            raise ValueError("not one base64 string")
        decoded = base64.b64decode(piece[:cut], validate=True)
        out[filled:filled + len(decoded)] = np.frombuffer(decoded, np.uint8)
        filled += len(decoded)
        rest = piece[cut:]
        if end >= 0:
            return out[:filled], rest[1:]


def _stream_tensor_json(path) -> dict | None:
    """``_read_json`` for a file in the layout of ``_HEAD`` or ``save_tensor``, read a piece at a time.

    The file must start with ``_HEAD`` (schema 1) or ``_HEAD_BASE64``
    (schema 2); its components are read by ``_read_numbers`` or
    ``_read_base64``, and the members after them whole, as one small
    object.  Returns None where the whole-text parse must decide, which
    then reads the file again: another head (other whitespace or key order,
    a BOM), components those readers refuse, and members after the
    components that do not follow a comma, that name "basis" or a
    "components" key again, or hold a backslash (a duplicate or escaped key
    could rename a member).  Invalid JSON or UTF-8 anywhere also returns
    None.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read(len(_HEAD))
            if head == _HEAD:
                key, (value, rest) = "components", _read_numbers(handle)
            elif head + handle.read(len(_HEAD_BASE64) - len(_HEAD)) == _HEAD_BASE64:
                key, (value, rest) = "components_base64", _read_base64(handle)
            else:
                return None
            rest = (rest + handle.read()).lstrip(" \t\n\r")
        if rest[:1] != "," or '"basis"' in rest or '"components' in rest or "\\" in rest:
            return None
        data = json.loads("{" + rest[1:])
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    if not data:  # "]," then "}": a trailing comma
        return None
    data["basis"], data[key] = TENSOR_BASIS, value
    return data


def _require_version(data: dict, expected: tuple[int, ...], path) -> int:
    """The schema_version, which must be one of the integers ``expected``.

    JSON ``true`` and ``1.0`` compare equal to 1 in Python, so the type is
    checked too: a version is an ``int`` that is not a ``bool``.
    """
    version = data.get("schema_version")
    if type(version) is not int or version not in expected:
        raise SchemaVersionUnsupported(f"{path}: schema_version {version!r} unsupported "
                                       f"(expected {' or '.join(map(str, expected))})")
    return version


def _floats(values, where: str, ndim: int) -> np.ndarray:
    """A flat JSON number list (ndim 1), or a list of equal-length ones (ndim 2).

    The numbers are converted in one pass by ``array("d")``, which takes only
    real numbers: strings, null and nested lists raise TypeError, and
    integers beyond the float range OverflowError.  It takes booleans as the
    integers 0 and 1, so every list is looked through for them first.  An
    array the streamed reader made is returned as it is.
    """
    if isinstance(values, np.ndarray):
        return values
    try:
        flat = values
        if ndim == 2:
            if len(set(map(len, values))) > 1:
                raise ValueError("rows differ in length")
            flat = list(chain.from_iterable(values))
        if bool in set(map(type, flat)):
            raise TypeError("booleans are not numbers")
        numbers = np.asarray(array("d", flat))
        return numbers.reshape(len(values), -1) if ndim == 2 and values else numbers
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected numbers") from exc


def _finite_floats(values, where: str, ndim: int) -> np.ndarray:
    arr = _floats(values, where, ndim)
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: values must be finite")
    return arr


def save_tensor(r: CurvatureTensor | ModelSlabs, path) -> None:
    """Write ``r`` as a schema 2 tensor file, in one pass over its slabs.

    ``r`` is a ``CurvatureTensor``, whose slabs are ``components[i]``, or a
    ``curvature.ModelSlabs``, which computes each slab as it is asked for,
    so ``generate`` never holds the d^4 model.  ``components_base64`` is the
    base64 of the C-order little-endian float64 array, so save -> load is
    bitwise exact, signed zeros included.  Each slab is encoded behind the
    0 to 2 bytes the slab before left over, and only whole 3-byte groups
    are encoded before the last slab, so the text is that of the whole
    array.  The bytes equal those of ``json.dump(payload, indent=2,
    sort_keys=True)`` plus a newline: base64 text needs no JSON escape.
    Extra memory is one slab and its text.
    """
    with open(path, "wb") as handle:
        handle.write(_HEAD_BASE64.encode())
        carry = b""
        for slab in getattr(r, "components", r):
            data = carry + np.ascontiguousarray(slab, "<f8").tobytes()
            whole = len(data) - len(data) % 3
            handle.write(base64.b64encode(memoryview(data)[:whole]))
            carry = data[whole:]
        handle.write(base64.b64encode(carry))
        handle.write(
            f'",\n  "convention": {json.dumps(TENSOR_CONVENTION)},\n'
            f'  "dim": {r.dim},\n  "schema_version": {TENSOR_SCHEMA_VERSION}\n}}\n'.encode()
        )


def _base64_floats(value, dim: int, path) -> np.ndarray:
    """The dim^4 float64 values of a ``components_base64`` string, or of its bytes as ``_read_base64`` reads them."""
    if isinstance(value, str):
        try:  # a bytearray, so the array is writable, as every other load's is
            value = bytearray(base64.b64decode(value, validate=True))
        except ValueError as exc:
            raise ParseError(f"{path}: components_base64: invalid base64 ({exc})") from exc
    if not isinstance(value, (bytearray, np.ndarray)) or len(value) != 8 * dim**4:
        raise ParseError(
            f"{path}: components_base64 must be the base64 of dim^4 = {dim**4} float64 values"
        )
    return np.frombuffer(value, "<f8").astype(float, copy=False)


def load_tensor(path, tol: float = DEFAULT_TOL) -> CurvatureTensor:
    """Load and validate a tensor file of schema 1 or 2; symmetry failures name the identity.

    A file in the layout ``save_tensor`` writes, or in the schema 1 layout
    of ``_HEAD``, is read in pieces (see ``_stream_tensor_json``): memory
    beyond the returned tensor is O(64 KiB).  Any other file is parsed
    whole, with the same result, and that parse decides its error.
    """
    from .curvature import CurvatureTensor, validate_symmetries

    tol = require_tol(tol)
    data = _stream_tensor_json(path) or _read_json(path)
    version = _require_version(data, (1, TENSOR_SCHEMA_VERSION), path)
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"{path}: dim must be an integer >= 2, got {dim!r}")
    if data.get("basis") != TENSOR_BASIS:
        raise ParseError(f"{path}: basis must be {TENSOR_BASIS!r}")
    if data.get("convention") != TENSOR_CONVENTION:
        raise ParseError(f"{path}: convention must be {TENSOR_CONVENTION!r}")
    key, other = ("components", "components_base64")[::1 if version == 1 else -1]
    if other in data:
        raise ParseError(f"{path}: schema_version {version} takes {key!r}, not {other!r}")
    components = data.get(key)
    if version != 1:
        flat = _base64_floats(components, dim, path)
    elif not isinstance(components, (list, np.ndarray)) or len(components) != dim**4:
        raise ParseError(
            f"{path}: components must be a list of dim^4 = {dim**4} numbers"
        )
    else:
        flat = _floats(components, f"{path}: components", 1)
    try:  # the constructor's max and min find NaN and inf without a d^4 mask
        tensor = CurvatureTensor(dim, flat.reshape((dim,) * 4))
    except NonFiniteComponents as exc:
        raise ParseError(f"{path}: components: values must be finite") from exc
    validate_symmetries(tensor).require(threshold(tol, tensor.max_abs), f"{path}: ")
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
    from .sphere import DistributionSamples

    data = _read_json(path)
    _require_version(data, (SAMPLES_SCHEMA_VERSION,), path)
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
        s = _finite_floats(entry["s"], f"{path}: entry {index} base point", 1)
        if s.shape != (dim,):
            raise ParseError(f"{path}: entry {index} base point has wrong length")
        tangents = _finite_floats(
            entry["tangents"], f"{path}: entry {index} tangents", 2
        ) if entry["tangents"] else np.zeros((0, dim))
        if tangents.ndim != 2 or tangents.shape[1] != dim:
            raise ParseError(f"{path}: entry {index} tangents must be a list of {dim}-vectors")
        entries.append((s, tangents))
    try:
        return DistributionSamples.from_raw(dim, entries)
    except CurvlabError as exc:  # its message names the entry
        raise ParseError(f"{path}: {exc}") from exc


def load_matrix(path, expected_dim: int) -> np.ndarray:
    """Load a square ``expected_dim`` matrix from JSON: a bare 2-d list or {"matrix": ...}."""
    data = _parse_json(path)
    if isinstance(data, dict):
        data = data.get("matrix")
    mat = _finite_floats(data, f"{path}: matrix", 2)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParseError(f"{path}: matrix must be square, got shape {mat.shape}")
    if mat.shape[0] != expected_dim:
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


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def render_text(report: dict) -> str:
    lines = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{prefix}{key}.", value[key])
        elif isinstance(value, list) and value and isinstance(value[0], list):
            for row_index, row in enumerate(value):
                emit(f"{prefix}{row_index}.", row)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    emit("", report)
    return "\n".join(lines)
