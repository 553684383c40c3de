"""JSON file formats for tensors and distribution samples, plus reports.

Tensor components are stored as a flat row-major list of finite floats, one
per line; Python's shortest round-trip float serialization makes save -> load
bitwise exact.  ``save_tensor`` writes that layout a chunk of entries at a
time, and its bytes equal those of ``json.dump(payload, indent=2,
sort_keys=True)`` plus a newline, so files and their sha256 digests match
earlier versions.  The curvature symmetries make each entry equal, up to
sign, to one of m(m+1)/2 class values (m = d(d-1)/2), so the save formats
each class once into a table and copies its text to every entry that has
exactly its magnitude: a dense d=32 save calls ``repr`` about 250k times
for its 1,048,576 entries.  The save is one pass over the slabs R[i], and
takes a model's slabs from ``curvature.ModelSlabs`` as they are computed,
so writing a model never holds its d^4 array.  Extra memory is the table,
31 bytes per class (3.6 MiB at d=32), one slab and one chunk.
``load_tensor`` reads a file in the layout ``save_tensor`` writes (the
files of ``generate`` and the benchmark) in pieces of 64 Ki characters and
parses the components into one float64 array, so beyond that array it
needs O(64 KiB) of text and floats.  Any other layout, and any malformed
file, goes to the whole-text parse, which gives the same results and
errors and alone words them, with the whole text and a list of d^4 floats
in memory (about 55 MiB traced at d=32).
Reports render to either human-readable text or a stable machine-readable
JSON layout (sorted keys, no timestamps).  ``load_tensor`` and
``load_samples`` import the curvature and sphere modules when first called,
so a process that reads only one kind of file loads only one of them.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFiniteComponents, ParseError, SchemaVersionUnsupported
from .linalg import DEFAULT_TOL, require_tol, threshold

if TYPE_CHECKING:
    from .curvature import CurvatureTensor, ModelSlabs
    from .sphere import DistributionSamples

TENSOR_SCHEMA_VERSION = 1
SAMPLES_SCHEMA_VERSION = 1
TENSOR_BASIS = "orthonormal-standard"
TENSOR_CONVENTION = "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>"


def _parse_json(path):
    """The parsed document, and whether its text may hold a JSON boolean.

    ``true`` and ``false`` are the only tokens in a list of numbers that
    contain a "u" or an "f", and no key or fixed string of the file layouts
    does.  A text with neither letter therefore holds no boolean, and the
    number lists skip the per-element type check (about 20 ms at d=32).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 ({exc})") from exc
    return data, "u" in text or "f" in text


def _read_json(path) -> tuple[dict, bool]:
    data, may_hold_bool = _parse_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return data, may_hold_bool


# Characters of text the tensor reader parses at a time.  On one CPU of a
# shared 2-core machine, a fresh process loaded a dense d=16 file in 16 ms
# with 64 Ki pieces and 20 ms with 1 Mi (17 ms for the whole text at once);
# d=32 took 245 and 260 ms.
_PIECE = 2**16
# The text ``save_tensor`` writes before the first component.
_HEAD = f'{{\n  "basis": {json.dumps(TENSOR_BASIS)},\n  "components": [\n    '


def _stream_tensor_json(path) -> tuple[dict, bool] | None:
    """``_read_json`` for a file in the layout ``save_tensor`` writes, read one piece at a time.

    The file must start with ``_HEAD``.  The component list is cut at its
    first "]", else at the last comma of each piece, and each piece is read
    by ``json.loads`` into one ``array("d")``, which ``np.frombuffer`` wraps
    without a copy; the members after the list are read whole, as one small
    object.  Returns None where the whole-text parse must decide, which
    then reads the file again: another head (other whitespace or key order,
    a BOM), a piece with no cut, an empty piece, a piece with a "u" or an
    "l" (``true``, ``false``, ``null``), a value that is not a number, and
    members after the list that do not follow a comma, that name "basis" or
    "components" again, or hold a backslash (a duplicate or escaped key
    could rename a member).  Invalid JSON or UTF-8 anywhere also returns
    None.  NaN and Infinity are read as numbers, as the whole-text parse
    reads them.
    """
    numbers, rest = array("d"), ""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if handle.read(len(_HEAD)) != _HEAD:
                return None
            while True:
                piece = rest + handle.read(_PIECE)
                end = piece.find("]")
                cut = end if end >= 0 else piece.rfind(",")
                if cut < 0 or "u" in piece[:cut] or "l" in piece[:cut]:
                    return None
                values = json.loads("[" + piece[:cut] + "]")
                if not values:
                    return None
                numbers.fromlist(values)
                rest = piece[cut + 1:]
                if end >= 0:
                    break
            rest = (rest + handle.read()).lstrip(" \t\n\r")
        if rest[:1] != "," or '"basis"' in rest or '"components"' in rest or "\\" in rest:
            return None
        data = json.loads("{" + rest[1:])
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    if not data:  # "]," then "}": a trailing comma
        return None
    data["basis"], data["components"] = TENSOR_BASIS, np.frombuffer(numbers)
    return data, False


def _require_version(data: dict, expected: int, path) -> None:
    """Reject any schema_version but the integer ``expected``.

    JSON ``true`` and ``1.0`` compare equal to 1 in Python, so the type is
    checked too: a version is an ``int`` that is not a ``bool``.
    """
    version = data.get("schema_version")
    if type(version) is not int or version != expected:
        raise SchemaVersionUnsupported(
            f"{path}: schema_version {version!r} unsupported (expected {expected})"
        )


def _numbers(values, ndim: int, may_hold_bool: bool) -> np.ndarray:
    """A flat JSON number list (ndim 1), or a list of equal-length ones (ndim 2).

    The numbers are converted in one pass by ``array("d")``, which takes only
    real numbers: strings, null and nested lists raise TypeError, and
    integers beyond the float range OverflowError.  It takes booleans as the
    integers 0 and 1, so they are looked for when the text may hold one.
    """
    flat = values
    if ndim == 2:
        if len(set(map(len, values))) > 1:
            raise ValueError("rows differ in length")
        flat = list(chain.from_iterable(values))
    if may_hold_bool and bool in set(map(type, flat)):
        raise TypeError("booleans are not numbers")
    numbers = np.asarray(array("d", flat))
    return numbers.reshape(len(values), -1) if ndim == 2 and values else numbers


def _floats(values, where: str, may_hold_bool: bool, ndim: int) -> np.ndarray:
    try:
        return values if isinstance(values, np.ndarray) else _numbers(values, ndim, may_hold_bool)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected numbers") from exc


def _finite_floats(values, where: str, may_hold_bool: bool, ndim: int) -> np.ndarray:
    arr = _floats(values, where, may_hold_bool, ndim)
    if not np.isfinite(arr).all():
        raise ParseError(f"{where}: values must be finite")
    return arr


_SEPARATOR = ",\n    "
_MAGNITUDE_BITS = np.int64(2**63 - 1)
# Bytes of the longest repr of a finite float, such as "2.2250738585072014e-308".
_WIDTH = 23
# Entries formatted and written at a time.
_CHUNK = 2**13


def _magnitude_text(bits: np.ndarray) -> np.ndarray:
    """The repr of each magnitude in ``bits`` (float64 bit patterns, sign bit clear).

    Returned as NUL-padded bytes as wide as the longest; each distinct
    magnitude is formatted once.
    """
    distinct, index = np.unique(bits, return_inverse=True)
    return np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype="S")[index]


def _entries_text(values: np.ndarray, classes: np.ndarray, table) -> np.ndarray:
    """The entries of ``values`` as the json encoder prints them, each followed by the separator.

    ``table`` is a pair of arrays, the magnitude bits of some entries and
    their ``_magnitude_text``; ``classes`` names each entry's row of the
    table, or is -1.  An entry whose magnitude has exactly the bits of its
    row takes the row's text, and every other entry is formatted here.  A
    negative entry is written as "-" followed by its magnitude's repr:
    CPython formats the sign apart from the digits, so ``"-" + repr(m) ==
    repr(-m)`` for every finite ``m >= +0.0``.  Magnitudes are compared on
    bit patterns, not float values, so -0.0 keeps its sign.  Each entry
    fills one fixed-width record of sign, digits and separator, as narrow
    as the longest digits allow, and the NUL bytes of the unused sign and
    padding are compressed out.
    """
    bits = np.ascontiguousarray(values).reshape(-1).view(np.int64)
    magnitudes = bits & _MAGNITUDE_BITS
    table_bits, table_text = table
    digits = table_text[classes]
    miss = (classes < 0) | (table_bits[classes] != magnitudes)
    if miss.any():
        missed = _magnitude_text(magnitudes[miss])
        digits = digits.astype(np.promote_types(digits.dtype, missed.dtype), copy=False)
        digits[miss] = missed
    lines = np.zeros(bits.size, [("sign", "u1"), ("digits", digits.dtype),
                                 ("separator", f"S{len(_SEPARATOR)}")])
    lines["sign"] = (bits < 0) * np.uint8(ord("-"))
    lines["digits"] = digits
    lines["separator"] = _SEPARATOR
    text = lines.view(np.uint8)
    return text[text != 0]


def _fill_class_rows(slab, pairs: range, iu, ju, first, table) -> int:
    """Fill the ``_entries_text`` table rows of the classes that ``slab`` represents.

    Antisymmetry and pair exchange make each ``R[i, j, k, l]`` with i != j
    and k != l equal, up to sign, to one class representative ``R[a, b, c,
    e]``: a < b, c < e, and pair (a, b) <= (c, e) in the order of the m
    pairs ``iu, ju = np.triu_indices(d, 1)``.  Class (p, q) is row
    ``first[p] + q - p`` of the table, as in ``np.triu_indices(m)``, so the
    classes of the pairs p = (i, b) of slab i are one run of rows, read
    from ``slab[b, iu[p:], ju[p:]]``.  Nothing is assumed of the tensor: an
    entry that misses its class is formatted on its own.  Magnitudes are
    formatted ``_CHUNK`` classes at a time into ``_WIDTH`` bytes each;
    returns the width of the longest text.
    """
    bits, text = table
    for p in pairs:
        bits[first[p]:first[p + 1]] = slab[ju[p], iu[p:], ju[p:]].view(np.int64)
    rows = slice(first[pairs.start], first[pairs.stop])
    bits[rows] &= _MAGNITUDE_BITS
    width = 1
    for start in range(rows.start, rows.stop, _CHUNK):
        batch = _magnitude_text(bits[start:min(start + _CHUNK, rows.stop)])
        text[start:start + batch.size], width = batch, max(width, batch.itemsize)
    return width


def save_tensor(r: CurvatureTensor | ModelSlabs, path) -> None:
    """Write ``r`` in the tensor layout, one component per line, in one pass over its slabs.

    ``r`` is a ``CurvatureTensor``, whose slabs are ``components[i]``, or a
    ``curvature.ModelSlabs``, which computes each slab as it is asked for,
    so ``generate`` never holds the d^4 model.  The bytes equal those of
    ``json.dump(payload, indent=2, sort_keys=True)`` plus a newline: json
    prints a finite float with ``float.__repr__``, and components are
    always finite.  The layout is written directly, about ``_CHUNK``
    components at a time, which skips the pure-Python encoder.  ``repr``
    runs once per distinct magnitude of the m(m+1)/2 curvature classes
    (see ``_fill_class_rows``), and once per distinct magnitude of a chunk
    for the entries that miss their class: the i = j and k = l entries,
    and mirrored entries that differ by rounding (about 13% of a dense
    ``build_model``).  Slab i first fills the table rows of its pairs
    (i, b), then writes its entries; each names the class of two pairs,
    the lesser of which starts at an index <= i, as the pair order is
    lexicographic, so its row is filled already.  Extra memory is the
    class table, 31 bytes per class (3.6 MiB at d=32, 18.8 MiB at d=48, so
    O(d^4/8)), one slab of a ``ModelSlabs`` and one chunk of ``_CHUNK``
    entries, or of d^2 when d > 90.
    """
    d = r.dim
    iu, ju = np.triu_indices(d, 1)
    rows = np.arange(iu.size + 1)
    first = rows * (2 * iu.size - rows + 1) // 2
    table = np.empty(first[-1], np.int64), np.empty(first[-1], f"S{_WIDTH}")
    # pairs (i, b) of slab i run from starts[i] to starts[i + 1]
    starts = np.searchsorted(iu, np.arange(d + 1))
    # entry (i, j, k, l) has class (lo, hi), the pair indices of (i, j)
    # and (k, l) in order, and none when i = j or k = l
    pair = np.full((d, d), -1)
    pair[iu, ju] = pair[ju, iu] = rows[:-1]
    step, width = max(1, _CHUNK // d**2), 1
    with open(path, "wb") as handle:
        handle.write(_HEAD.encode())
        for i, slab in enumerate(getattr(r, "components", r)):
            width = max(width, _fill_class_rows(
                slab, range(starts[i], starts[i + 1]), iu, ju, first, table))
            # the first ``width`` bytes of each text; a narrowed copy would
            # double the table's memory while both exist
            narrow = np.dtype({"names": ["text"], "formats": [f"S{width}"], "itemsize": _WIDTH})
            narrowed = table[0], table[1].view(narrow)["text"]
            for j in range(0, d, step):
                lo = np.minimum(pair[i, j:j + step, None], pair.ravel())
                hi = np.maximum(pair[i, j:j + step, None], pair.ravel())
                classes = np.where(lo < 0, -1, first[lo] + hi - lo).reshape(-1)
                text = _entries_text(slab[j:j + step], classes, narrowed)
                handle.write(text[:-len(_SEPARATOR)] if i == d - 1 and j + step >= d else text)
        handle.write(
            f'\n  ],\n  "convention": {json.dumps(TENSOR_CONVENTION)},\n'
            f'  "dim": {d},\n  "schema_version": {TENSOR_SCHEMA_VERSION}\n}}\n'.encode()
        )


def load_tensor(path, tol: float = DEFAULT_TOL) -> CurvatureTensor:
    """Load and validate a tensor file; symmetry failures name the identity.

    A file in the layout ``save_tensor`` writes is read in pieces (see
    ``_stream_tensor_json``): memory beyond the returned tensor is
    O(64 KiB).  Any other file is parsed whole, with the same result, and
    that parse decides its error.
    """
    from .curvature import CurvatureTensor, validate_symmetries

    tol = require_tol(tol)
    data, may_hold_bool = _stream_tensor_json(path) or _read_json(path)
    _require_version(data, TENSOR_SCHEMA_VERSION, path)
    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"{path}: dim must be an integer >= 2, got {dim!r}")
    if data.get("basis") != TENSOR_BASIS:
        raise ParseError(f"{path}: basis must be {TENSOR_BASIS!r}")
    if data.get("convention") != TENSOR_CONVENTION:
        raise ParseError(f"{path}: convention must be {TENSOR_CONVENTION!r}")
    components = data.get("components")
    if not isinstance(components, (list, np.ndarray)) or len(components) != dim**4:
        raise ParseError(
            f"{path}: components must be a list of dim^4 = {dim**4} numbers"
        )
    flat = _floats(components, f"{path}: components", may_hold_bool, 1)
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

    data, may_hold_bool = _read_json(path)
    _require_version(data, SAMPLES_SCHEMA_VERSION, path)
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
        s = _finite_floats(entry["s"], f"{path}: entry {index} base point", may_hold_bool, 1)
        if s.shape != (dim,):
            raise ParseError(f"{path}: entry {index} base point has wrong length")
        tangents = _finite_floats(
            entry["tangents"], f"{path}: entry {index} tangents", may_hold_bool, 2
        ) if entry["tangents"] else np.zeros((0, dim))
        if tangents.ndim != 2 or tangents.shape[1] != dim:
            raise ParseError(f"{path}: entry {index} tangents must be a list of {dim}-vectors")
        entries.append((s, tangents))
    try:
        return DistributionSamples.from_raw(dim, entries)
    except ValueError as exc:
        raise ParseError(f"{path}: entry {exc.index}: {exc}") from exc


def load_matrix(path, expected_dim: int | None = None) -> np.ndarray:
    """Load a square matrix from JSON: either a bare 2-d list or {"matrix": ...}."""
    data, may_hold_bool = _parse_json(path)
    if isinstance(data, dict):
        data = data.get("matrix")
    mat = _finite_floats(data, f"{path}: matrix", may_hold_bool, 2)
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
