import gc
import base64
import hashlib
import json
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (
    CurvatureTensor,
    CurvlabError,
    DistributionSamples,
    NonPositiveTolerance,
    ParseError,
    SchemaVersionUnsupported,
    SymmetryViolation,
    build_model,
    build_r1,
    build_ra,
    load_samples,
    load_tensor,
    random_skew,
    save_samples,
    save_tensor,
    standard_complex_structure,
    unit_sphere_samples,
)
import curvlab.cli as cli
import curvlab.io as cio
from curvlab.curvature import ModelSlabs
from curvlab.io import load_matrix, render_json
from curvlab.models import (
    block_diagonal_skew,
    case2_instance,
    case3_instance,
    case4_instance,
    distribution_samples,
)

from _oracles import (
    oracle_load_tensor,
    oracle_model_einsum,
    oracle_save_tensor,
    oracle_save_tensor_base64,
)


# what the ``curvlab`` console script runs: main() with argv read from sys.argv
SCRIPT_ENTRY = ("import sys; from curvlab.cli import main; "
                "sys.argv = ['curvlab', *sys.argv[1:]]; main()")
ENTRIES = {"module": ["-m", "curvlab.cli"], "script": ["-c", SCRIPT_ENTRY]}


def run_cli(*args, env=None, entry="module", text=True):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, *ENTRIES[entry], *args],
        capture_output=True,
        text=text,
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_error_names_file(self, tmp_path, value):
        # found by the tensor's own max and min, with no d^4 mask
        path = tmp_path / "nonfinite.json"
        components = build_r1(3).components.ravel().tolist()
        components[40] = value
        path.write_text(json.dumps(_tensor_payload(components, 3), allow_nan=True))
        with pytest.raises(ParseError) as caught:
            load_tensor(path)
        assert str(caught.value) == f"{path}: components: values must be finite"

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_bytes_match_json_encoder(self, tmp_path, d):
        tensor = build_model(0.7, 1, random_skew(d, d))
        save_tensor(tensor, tmp_path / "saved.json")
        oracle_save_tensor_base64(tensor, tmp_path / "oracle.json")
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
        oracle_save_tensor_base64(tensor, tmp_path / "oracle.json")
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

    def test_load_memory_is_one_tensor(self, tmp_path):
        # a schema 1 file: the 8 MiB array plus pieces of text; the whole
        # text parsed at once held the text, a list of 2^20 floats and the
        # array (55 MiB)
        oracle_save_tensor(build_model(0.7, 1, random_skew(32, 1)), tmp_path / "tensor.json")
        tracemalloc.start()
        try:
            load_tensor(tmp_path / "tensor.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_bad_tolerance_rejected(self, tmp_path, tol):
        path = tmp_path / "tensor.json"
        save_tensor(build_r1(4), path)
        with pytest.raises(NonPositiveTolerance):
            load_tensor(path, tol)


def _block_skew(d):
    """2x2 rotation blocks with distinct weights; an odd d leaves the last row zero."""
    a = np.zeros((d, d))
    for block in range(d // 2):
        a[2 * block, 2 * block + 1] = 1.0 + 0.5 * block
        a[2 * block + 1, 2 * block] = -(1.0 + 0.5 * block)
    return a


def _assert_bytes_match_oracle(tensor, directory):
    save_tensor(tensor, directory / "saved.json")
    oracle_save_tensor_base64(tensor, directory / "oracle.json")
    assert (directory / "saved.json").read_bytes() == (directory / "oracle.json").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestTensorWriter:
    """save_tensor writes the json encoder's bytes for any finite tensor."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("operator", ["dense", "block"])
    def test_model_bytes_match_json_encoder(self, tmp_path, d, operator):
        # the model streamed from its slabs writes the built model's bytes
        a = random_skew(d, d) if operator == "dense" else _block_skew(d)
        for kappa in (0.7, -0.7, 0.0, -0.0):
            for tau in (-1, 0, 1):
                model = (kappa, tau, a if tau else None)
                _assert_bytes_match_oracle(build_model(*model, dim=d), tmp_path)
                save_tensor(ModelSlabs(*model, dim=d), tmp_path / "streamed.json")
                assert ((tmp_path / "streamed.json").read_bytes()
                        == (tmp_path / "oracle.json").read_bytes()), (kappa, tau)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_repeat_free_bytes_match_json_encoder(self, tmp_path, d):
        components = np.random.default_rng(d).standard_normal((d,) * 4)
        _assert_bytes_match_oracle(CurvatureTensor(d, components), tmp_path)

    @pytest.mark.parametrize("magnitude", [0.0, 5e-324, 0.1, 1.7976931348623157e308])
    def test_one_magnitude_bytes_match_json_encoder(self, tmp_path, magnitude):
        # every entry is +m or -m; m = 0 lays out +0.0 and -0.0
        signs = np.random.default_rng(1).choice([-1.0, 1.0], size=(4,) * 4)
        components = signs * magnitude
        assert magnitude or np.signbit(components).any()
        _assert_bytes_match_oracle(CurvatureTensor(4, components), tmp_path)

    def test_repeat_free_memory_is_one_slab(self, tmp_path):
        # no magnitude repeats; the base64 writer encodes each slab's bytes
        # as they are, so its peak is one slab and its text whatever the entries
        tensor = CurvatureTensor(32, np.random.default_rng(5).standard_normal((32,) * 4))
        tracemalloc.start()
        try:
            save_tensor(tensor, tmp_path / "tensor.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def _expanded_triangle(d, seed):
    """R[i, j, k, l] = s(i, j) s(k, l) M[p(i, j), p(k, l)] for a random symmetric M.

    Antisymmetry and pair exchange hold bitwise, with the sign of each zero
    set by the product; entries with i = j or k = l are signed zeros.
    """
    iu, ju = np.triu_indices(d, 1)
    upper = np.triu(np.random.default_rng(seed).standard_normal((iu.size, iu.size)))
    operator = upper + np.triu(upper, 1).T
    pair, sign = np.zeros((d, d), int), np.zeros((d, d))
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    sign[iu, ju], sign[ju, iu] = 1.0, -1.0
    signs = sign[:, :, None, None] * sign[None, None]
    return signs * operator[pair[:, :, None, None], pair[None, None]]


class TestClassTable:
    """The base64 writer keeps every bit of tensors built from mirrored, signed curvature classes.

    Repeated magnitudes, signed zeros, mirrored entries one ulp apart and
    non-contiguous views are encoded as they are: the bytes are the json
    encoder's for the base64 payload.
    """

    @pytest.mark.parametrize("d", [2, 3])
    def test_fewest_classes(self, tmp_path, d):
        # m = 1 and 3 pairs, so 1 and 6 classes
        _assert_bytes_match_oracle(build_model(0.7, 1, random_skew(d, 3)), tmp_path)
        _assert_bytes_match_oracle(CurvatureTensor(d, _expanded_triangle(d, 3)), tmp_path)

    @pytest.mark.parametrize("d", [4, 7])
    def test_exactly_symmetric(self, tmp_path, d):
        _assert_bytes_match_oracle(CurvatureTensor(d, _expanded_triangle(d, d)), tmp_path)

    @pytest.mark.parametrize("d", [4, 7])
    def test_mirrored_entries_one_ulp_apart(self, tmp_path, d):
        components = _expanded_triangle(d, d)
        nudge = np.random.default_rng(d).random(components.shape) < 0.3
        components[nudge] = np.nextafter(components[nudge], np.inf)
        _assert_bytes_match_oracle(CurvatureTensor(d, components), tmp_path)

    @pytest.mark.parametrize("d", [4, 7])
    def test_signed_zeros_at_mirrored_entries(self, tmp_path, d):
        components = _expanded_triangle(d, d)
        rng = np.random.default_rng(d)
        components[rng.random(components.shape) < 0.5] = 0.0
        flip = rng.random(components.shape) < 0.5
        components[flip] = -components[flip]
        assert np.signbit(components[components == 0]).any()
        assert not np.signbit(components[components == 0]).all()
        _assert_bytes_match_oracle(CurvatureTensor(d, components), tmp_path)

    @pytest.mark.parametrize("view", [
        lambda c: c.transpose(2, 3, 0, 1),
        lambda c: c[::-1, :, ::-1],
    ])
    def test_non_contiguous_view(self, tmp_path, view):
        components = view(_expanded_triangle(5, 5))
        assert not components.flags.c_contiguous
        tensor = CurvatureTensor(5, components)
        assert not tensor.components.flags.c_contiguous
        _assert_bytes_match_oracle(tensor, tmp_path)

    @pytest.mark.parametrize("tau", [-1, 1])
    @pytest.mark.parametrize("d", [6, 12])
    def test_model_at_both_signs_of_tau(self, tmp_path, d, tau):
        # build_model's mirrored entries may differ by rounding
        _assert_bytes_match_oracle(build_model(0.7 * tau, tau, random_skew(d, d)), tmp_path)


def _first_component(token):
    """A text edit that writes the first component as ``token``."""
    def edit(text):
        head, tail = text.split('"components": [\n    0.0,', 1)
        return f'{head}"components": [\n    {token},{tail}'
    return edit


def _comma_ending_a_piece(text):
    """A trailing comma in the component list, padded to be the last character of a piece."""
    end = text.index("\n  ]")
    pieces = -(-(end + 1 - len(cio._HEAD)) // cio._PIECE)
    return text[:end] + " " * (len(cio._HEAD) + pieces * cio._PIECE - 1 - end) + "," + text[end:]


# Edits of a canonical d=3 tensor file.  Each names what the piecewise
# reader must parse as the whole-text parse does, or leave to it.
TEXT_EDITS = {
    "canonical": lambda text: text,
    "shuffled keys": lambda text: json.dumps(
        dict(reversed(json.loads(text).items())), indent=1),
    "tabs and carriage returns": lambda text: text.replace("\n", "\r\n\t").replace(": ", ":\r"),
    "escaped key": lambda text: text.replace('"components"', '"\\u0063omponents"'),
    "large member first": lambda text: text.replace(
        "{", '{"extra": ' + json.dumps({"rows": [[i, [i, {"k": str(i)}]] for i in range(900)]}) + ",", 1),
    "duplicate, last kept": lambda text: text.replace("{", '{"components": [1.0],', 1),
    "duplicate, last short": lambda text: text.replace('"convention"', '"components": [0.0],\n  "convention"'),
    "NaN": _first_component("NaN"),
    "Infinity": _first_component("-Infinity"),
    "true": _first_component("true"),
    "false": _first_component("false"),
    "null": _first_component("null"),
    "string with comma": _first_component('"1,0"'),
    "string with bracket": _first_component('"0]"'),
    "nested list": _first_component("[0.0, 1.0]"),
    "object": _first_component('{"a": 0.0}'),
    "integer beyond float range": _first_component("1" + "0" * 400),
    "integer": _first_component("0"),
    "double comma": _first_component("0.0,"),
    "trailing comma": lambda text: text.replace("\n  ],", ",\n  ],"),
    "empty list": lambda text: text[:text.index("[")] + "[]" + text[text.index("]") + 1:],
    "trailing data": lambda text: text + "{}",
    "BOM": lambda text: "\ufeff" + text,
    "invalid UTF-8": lambda text: text.encode().replace(b'"dim"', b'"\xffdim"'),
    "not an object": lambda text: "[" + text + "]",
    # the buffer holds less than two pieces past the point it was refilled at
    "piece longer than the read size": lambda text: _first_component(
        "0." + "0" * 2 * cio._PIECE)(text),
    "whitespace longer than the read size": lambda text: text.replace(
        '"dim"', " " * 2 * cio._PIECE + '"dim"'),
    "CRLF line endings": lambda text: text.replace("\n", "\r\n"),
    "member after the list": lambda text: text.replace(
        '"convention"', '"note": {"k": [1, 2]},\n  "convention"'),
    "basis after the list": lambda text: text.replace(
        '"convention"', '"basis": "other",\n  "convention"'),
    "escaped key after the list": lambda text: text.replace('"dim"', '"\\u0064im"'),
    "no member after the list": lambda text: text[:text.index("]") + 2] + "\n}\n",
    "trailing comma ending a piece": _comma_ending_a_piece,
    "form feed after the list": lambda text: text.replace("\n  ],", "\n  ]\f,"),
    "exponent with a leading zero": _first_component("1e05"),
    "upper-case exponent with a sign": _first_component("1E+05"),
}

# Numbers outside the JSON grammar, several of which np.fromstring accepts:
# each is a ParseError, found by the whole-text parse.
MALFORMED_NUMBERS = {
    "leading zero": "01.5", "plus sign": "+1.0", "no integer digit": ".5",
    "no fraction digit": "5.", "no fraction digit before exponent": "1.e5",
    "no exponent digit": "1e", "double minus": "--1.0", "two numbers": "1 2",
}
TEXT_EDITS.update({name: _first_component(token) for name, token in MALFORMED_NUMBERS.items()})

# Edits that keep the layout save_tensor writes, which the piecewise reader reads.
STREAMED = {"canonical", "NaN", "Infinity", "integer", "whitespace longer than the read size",
            "CRLF line endings", "member after the list", "exponent with a leading zero",
            "upper-case exponent with a sign"}


def _outcome(load, path):
    """The loaded tensor's bits, or the exception's type and message."""
    try:
        return load(path).components.tobytes()
    except Exception as exc:  # noqa: BLE001 - any outcome must match
        return type(exc), str(exc)


class TestPiecewiseLoader:
    """load_tensor reads a file in pieces and agrees with the whole-text parse."""

    @pytest.mark.parametrize("piece", [64, None])
    @pytest.mark.parametrize("edit", list(TEXT_EDITS))
    def test_matches_whole_text_parse(self, tmp_path, monkeypatch, edit, piece):
        if piece is not None:  # pieces shorter than a line of the layout
            monkeypatch.setattr(cio, "_PIECE", piece)
        canonical = tmp_path / "canonical.json"
        oracle_save_tensor(build_model(0.7, 1, random_skew(3, 2)), canonical)
        text = TEXT_EDITS[edit](canonical.read_text())
        path = tmp_path / "edited.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        outcome = _outcome(load_tensor, path)
        assert outcome == _outcome(oracle_load_tensor, path)
        assert (cio._stream_tensor_json(path) is not None) == (edit in STREAMED)
        if edit in MALFORMED_NUMBERS:
            assert outcome[0] is ParseError

    @pytest.mark.parametrize("source", [build_model, ModelSlabs])
    @pytest.mark.parametrize("kappa, tau", [(0.7, 1), (-0.0, -1), (0.7, 0)])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_model_file_read_in_many_pieces(self, tmp_path, monkeypatch, source, kappa, tau, d):
        # every schema 1 file in the json encoder's layout, and every file
        # save_tensor writes, takes the piecewise reader
        a = random_skew(d, 3) if tau else None
        tensor = build_model(kappa, tau, a, dim=d)
        oracle_save_tensor(tensor, tmp_path / "tensor.json")
        save_tensor(source(kappa, tau, a, dim=d), tmp_path / "saved.json")
        monkeypatch.setattr(cio, "_PIECE", 100)
        data = cio._stream_tensor_json(tmp_path / "tensor.json")
        assert data["components"].tobytes() == tensor.components.tobytes()
        data = cio._stream_tensor_json(tmp_path / "saved.json")
        assert data["components_base64"].tobytes() == tensor.components.astype("<f8").tobytes()


def _base64_text(text):
    """The components_base64 string of a schema 2 file's text."""
    return json.loads(text)["components_base64"]


def _reencoded(edit):
    """A text edit that encodes the edited float64 bytes of the components in place of theirs."""
    def apply(text):
        raw = base64.b64encode(edit(base64.b64decode(_base64_text(text)))).decode()
        return text.replace(_base64_text(text), raw)
    return apply


def _with_bits(bits):
    """An edit that writes the float64 bit pattern ``bits`` over component 40."""
    return lambda raw: raw[:320] + np.array([bits], "<u8").tobytes() + raw[328:]


def _edited_payload(edit, indent=2):
    """A text edit that changes the parsed payload and writes it back with sorted keys."""
    def apply(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    return apply


# Edits of a canonical d=3 schema 2 file that make it malformed: each is a
# ParseError that names the file.
MALFORMED_BASE64 = {
    "non-alphabet character": lambda text: text.replace(_base64_text(text)[:3], "AA*", 1),
    "non-ASCII character": lambda text: text.replace(_base64_text(text)[:3], "AA\u00e9", 1),
    "bad padding": lambda text: text.replace(_base64_text(text), _base64_text(text)[:-1]),
    "padding inside the string": lambda text: text.replace(
        _base64_text(text)[:60], _base64_text(text)[:60] + "AA==", 1),
    "leading padding": lambda text: text.replace(_base64_text(text), "====" + _base64_text(text)),
    "8 bytes short": _reencoded(lambda raw: raw[:-8]),
    "1 byte short": _reencoded(lambda raw: raw[:-1]),
    "8 bytes long": _reencoded(lambda raw: raw + raw[:8]),
    "both components": _edited_payload(lambda p: p.update(components=[0.0] * 81)),
    "neither components": _edited_payload(lambda p: p.pop("components_base64")),
    "schema 1 with base64": lambda text: text.replace('"schema_version": 2', '"schema_version": 1'),
    "schema 2 with a list": _edited_payload(  # in no layout the piecewise reader reads
        lambda p: p.update(components=[0.0] * 81) or p.pop("components_base64"), indent=1),
    "NaN": _reencoded(_with_bits(0x7FF8000000000000)),
    "signalling NaN": _reencoded(_with_bits(0x7FF0000000000001)),
    "negative NaN": _reencoded(_with_bits(0xFFF8000000000000)),
    "Infinity": _reencoded(_with_bits(0x7FF0000000000000)),
    "-Infinity": _reencoded(_with_bits(0xFFF0000000000000)),
    "duplicate after the string": lambda text: text.replace(
        '"convention"', '"components_base64": "AAAA",\n  "convention"'),
    "no end to the string": lambda text: text[:text.index('",\n  "convention"')],
    "not a string": _edited_payload(lambda p: p.update(components_base64=[1.0])),
}
# Edits that keep a valid file; the loaded tensor must be the canonical one.
VALID_BASE64 = {
    "canonical": lambda text: text,
    "shuffled keys": lambda text: json.dumps(dict(reversed(json.loads(text).items())), indent=1),
    "escaped character": lambda text: text.replace(
        _base64_text(text)[:3], _base64_text(text)[:2] + f"\\u{ord(_base64_text(text)[2]):04x}", 1),
    "member after the string": lambda text: text.replace(
        '"convention"', '"note": {"k": [1, 2]},\n  "convention"'),
}
# Edits that keep the layout save_tensor writes, which the piecewise reader reads.
STREAMED_BASE64 = {"canonical", "member after the string", "8 bytes short", "1 byte short",
                   "8 bytes long", "schema 1 with base64", "NaN", "signalling NaN",
                   "negative NaN", "Infinity", "-Infinity"}
FINITE_VALUES = st.one_of(FINITE, st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]))


class TestBase64Files:
    """Schema 2 files: lossless, read in pieces, and every malformed one is a ParseError."""

    def _edited(self, tmp_path, edit):
        canonical = tmp_path / "canonical.json"
        save_tensor(build_model(0.7, 1, random_skew(3, 2)), canonical)
        path = tmp_path / "edited.json"
        path.write_text(edit(canonical.read_text()))
        return path

    @pytest.mark.parametrize("piece", [7, None])
    @pytest.mark.parametrize("edit", list(MALFORMED_BASE64) + list(VALID_BASE64))
    def test_matches_whole_text_parse(self, tmp_path, monkeypatch, edit, piece):
        if piece is not None:  # pieces of no whole number of 4-character groups
            monkeypatch.setattr(cio, "_PIECE", piece)
        path = self._edited(tmp_path, {**MALFORMED_BASE64, **VALID_BASE64}[edit])
        assert _outcome(load_tensor, path) == _outcome(oracle_load_tensor, path)
        assert (cio._stream_tensor_json(path) is not None) == (edit in STREAMED_BASE64)

    @pytest.mark.parametrize("piece", [7, None])
    @pytest.mark.parametrize("edit", list(MALFORMED_BASE64))
    def test_malformed_is_parse_error_naming_file(self, tmp_path, monkeypatch, edit, piece):
        if piece is not None:
            monkeypatch.setattr(cio, "_PIECE", piece)
        path = self._edited(tmp_path, MALFORMED_BASE64[edit])
        with pytest.raises(ParseError) as caught:
            load_tensor(path)
        assert str(caught.value).startswith(f"{path}: ")
        if "NaN" in edit or "Infinity" in edit:
            assert str(caught.value) == f"{path}: components: values must be finite"

    @pytest.mark.parametrize("edit", list(VALID_BASE64))
    def test_valid_edits_load_the_tensor(self, tmp_path, edit):
        path = self._edited(tmp_path, VALID_BASE64[edit])
        tensor = build_model(0.7, 1, random_skew(3, 2))
        assert load_tensor(path).components.tobytes() == tensor.components.tobytes()

    @given(values=st.lists(FINITE_VALUES, min_size=81, max_size=81),
           piece=st.sampled_from([7, 64, 2**16]))
    def test_any_finite_tensor_round_trips_bitwise(self, tmp_path_factory, values, piece):
        # the constructor does not enforce the symmetries, so these skip
        # load_tensor's symmetry check and read the components as it does
        tensor = CurvatureTensor(3, np.array(values).reshape((3,) * 4))
        path = tmp_path_factory.mktemp("base64") / "tensor.json"
        save_tensor(tensor, path)
        with mock.patch.object(cio, "_PIECE", piece):
            data = cio._stream_tensor_json(path)
        whole = cio._read_json(path)
        for value in (data["components_base64"], whole["components_base64"]):
            assert cio._base64_floats(value, 3, path).tobytes() == tensor.components.tobytes()

    @given(value=FINITE_VALUES, zeros=st.lists(st.booleans(), min_size=16, max_size=16))
    def test_symmetric_tensor_loads_bitwise(self, tmp_path_factory, value, zeros):
        # d=2 has one curvature class, R[0, 1, 0, 1]; every other entry is
        # its negative, itself or a zero of either sign
        components = np.where(zeros, -0.0, 0.0).reshape((2,) * 4)
        components[0, 1, 0, 1] = components[1, 0, 1, 0] = value
        components[0, 1, 1, 0] = components[1, 0, 0, 1] = -value
        tensor = CurvatureTensor(2, components)
        path = tmp_path_factory.mktemp("base64") / "tensor.json"
        save_tensor(tensor, path)
        assert load_tensor(path).components.tobytes() == tensor.components.tobytes()

    def test_load_memory_is_one_tensor(self, tmp_path):
        # the 8 MiB array plus pieces of text, within the bound of the schema 1 load
        save_tensor(build_model(0.7, 1, random_skew(32, 1)), tmp_path / "tensor.json")
        tracemalloc.start()
        try:
            load_tensor(tmp_path / "tensor.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


class TestSchemaVersion:
    """A schema_version is the integer 1; true, 1.0 and "1" are rejected."""

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_tensor_version_must_be_integer(self, tmp_path, version):
        path = tmp_path / "tensor.json"
        save_tensor(build_r1(3), path)
        data = json.loads(path.read_text())
        data["schema_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaVersionUnsupported):
            load_tensor(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_samples_version_must_be_integer(self, tmp_path, version):
        path = tmp_path / "samples.json"
        payload = {
            "schema_version": version,
            "dim": 3,
            "entries": [{"s": [1.0, 0.0, 0.0], "tangents": [[0.0, 1.0, 0.0]]}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionUnsupported):
            load_samples(path)

    def test_cli_exits_input_error(self, tmp_path):
        path = tmp_path / "tensor.json"
        save_tensor(build_r1(4), path)
        path.write_text(path.read_text().replace('"schema_version": 2', '"schema_version": true'))
        result = run_cli("decompose", str(path))
        assert result.returncode == 1
        assert "schema_version True unsupported" in result.stderr


class TestSamplesFiles:
    def test_roundtrip(self, tmp_path):
        samples = distribution_samples(standard_complex_structure(4), unit_sphere_samples(4, 8, seed=3))
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

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_cli_fits_vectors_far_from_unit_length(self, tmp_path, magnitude):
        # the sums of squares neither overflow nor underflow, and the fit is the unit-scale one
        fits = []
        for name, size in (("unit", 1.0), ("far", magnitude)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"schema_version": 1, "dim": 3, "entries": [
                {"s": [size, 0.0, 0.0], "tangents": [[0.0, size, 0.0]]},
                {"s": [0.0, 0.0, size], "tangents": [[0.0, size, 0.0]]}]}))
            result = run_cli("fit-distribution", str(path), "--format", "json",
                             env={"PYTHONWARNINGS": "error::RuntimeWarning"})
            assert result.returncode == 0, result.stderr
            fits.append(json.loads(result.stdout)["results"])
        assert fits[0] == fits[1]


def _tensor_payload(components, dim):
    return {
        "schema_version": 1,
        "dim": dim,
        "components": components,
        "basis": "orthonormal-standard",
        "convention": "R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>",
    }


# JSON values that numpy would read as numbers, or fail on with OverflowError
NOT_NUMBERS = {"string": "1.0", "boolean": True, "nested": [1.0], "huge": 10**400}


def _write_with(tmp_path, kind, bad):
    """A valid file of ``kind`` with its first number replaced by ``bad``."""
    path = tmp_path / f"{kind}.json"
    if kind == "tensor":
        components = build_r1(2).components.ravel().tolist()
        payload = _tensor_payload([bad] + components[1:], 2)
    elif kind == "matrix":
        payload = {"matrix": [[bad, -1.0], [1.0, 0.0]]}
    else:
        s, t = [bad, 0.0, 1.0], [[1.0, 0.0, 0.0]]
        if kind == "tangents":
            s, t = [0.0, 0.0, 1.0], [[bad, 1.0, 0.0]]
        payload = {"schema_version": 1, "dim": 3, "entries": [{"s": s, "tangents": t}]}
    path.write_text(json.dumps(payload))
    return path


class TestNonNumbersRejected:
    FIELDS = {"tensor": "components", "matrix": "matrix",
              "base point": "entry 0: base point", "tangents": "entry 0: tangents"}

    @pytest.mark.parametrize("kind", list(FIELDS))
    @pytest.mark.parametrize("bad", list(NOT_NUMBERS))
    def test_parse_error_names_field(self, tmp_path, kind, bad):
        path = _write_with(tmp_path, kind.replace(" ", "_"), NOT_NUMBERS[bad])
        load = {"tensor": load_tensor, "matrix": lambda p: load_matrix(p, 2)}.get(kind, load_samples)
        with pytest.raises(ParseError) as caught:
            load(path)
        numbers = "numbers in the float range" if bad == "huge" else "numbers"
        assert str(caught.value) == f"{path}: {self.FIELDS[kind]} must hold only {numbers}"

    def test_nested_components_rejected(self, tmp_path):
        path = tmp_path / "tensor.json"
        components = [[x] for x in build_r1(2).components.ravel().tolist()]
        path.write_text(json.dumps(_tensor_payload(components, 2)))
        with pytest.raises(ParseError, match=r"components must be a list of dim\^4 = 16 numbers"):
            load_tensor(path)

    def test_booleans_found_among_other_letters(self, tmp_path):
        # letters beside the numbers are no booleans: every list is checked by element type
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"matrix": [[0.0, -1.0], [1.0, 0.0]], "unused_field": 1}))
        assert load_matrix(path, 2).shape == (2, 2)

    @pytest.mark.parametrize("command, kind", [
        ("classify", "matrix"), ("decompose", "tensor"), ("fit-distribution", "base_point"),
    ])
    def test_cli_huge_integer_exits_one(self, tmp_path, command, kind):
        path = _write_with(tmp_path, kind, 10**400)
        if command == "classify":
            tensor_path = tmp_path / "r.json"
            save_tensor(build_model(1.0, 1, standard_complex_structure(2)), tensor_path)
            result = run_cli(command, str(tensor_path), "--J", str(path))
        else:
            result = run_cli(command, str(path))
        assert result.returncode == 1
        assert "must hold only numbers in the float range" in result.stderr
        assert "Traceback" not in result.stderr


# any JSON value, and rows of two numbers, which reach the shape and value checks
JSON_NUMBERS = st.integers(-10**400, 10**400) | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=3),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=2), children, max_size=2)),
    max_leaves=12,
)
JSON_ROWS = st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2), max_size=3)


class TestAnyJsonValue:
    """Whatever JSON value a sample entry or a matrix holds, only a package error is raised."""

    @settings(max_examples=100)
    @given(s=JSON_VALUES | st.lists(JSON_NUMBERS, min_size=2, max_size=2),
           tangents=JSON_VALUES | JSON_ROWS, matrix=JSON_VALUES | JSON_ROWS)
    def test_only_package_errors(self, tmp_path_factory, s, tangents, matrix):
        for build in (DistributionSamples, DistributionSamples.from_raw):
            try:
                build(2, [(s, tangents)])
            except CurvlabError as exc:
                assert type(exc) is not ParseError
        directory = tmp_path_factory.mktemp("any")
        samples_path, matrix_path = directory / "samples.json", directory / "matrix.json"
        samples_path.write_text(json.dumps({"schema_version": 1, "dim": 2,
                                            "entries": [{"s": s, "tangents": tangents}]}))
        matrix_path.write_text(json.dumps({"matrix": matrix}))
        for load, path in ((load_samples, samples_path), (lambda p: load_matrix(p, 2), matrix_path)):
            try:
                load(path)
            except ParseError as exc:
                assert str(exc).startswith(f"{path}: ")

    @pytest.mark.parametrize("load", [load_tensor, load_samples, lambda p: load_matrix(p, 2)],
                             ids=["load_tensor", "load_samples", "load_matrix"])
    def test_nesting_beyond_the_parser(self, tmp_path, load):
        path = tmp_path / "deep.json"
        path.write_text('{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ParseError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: invalid JSON (nested too deeply)"


class TestInvalidUtf8:
    """A file that is not UTF-8 is a ParseError that names it."""

    @pytest.mark.parametrize("load", [load_tensor, load_samples, lambda p: load_matrix(p, 2)],
                             ids=["load_tensor", "load_samples", "load_matrix"])
    def test_loader_names_file(self, tmp_path, load):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dim": "\xff"}')
        with pytest.raises(ParseError) as caught:
            load(path)
        assert str(caught.value).startswith(f"{path}: invalid UTF-8 (")

    def test_cli_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dim": "\xff"}')
        result = run_cli("decompose", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}: invalid UTF-8 (")
        assert "Traceback" not in result.stderr


# a valid file of each kind, which FILE_REJECTS edits one member at a time
VALID_FILES = {
    "tensor": lambda: _tensor_payload(build_r1(2).components.ravel().tolist(), 2),
    "samples": lambda: {"schema_version": 1, "dim": 3,
                        "entries": [{"s": [0.0, 0.0, 1.0], "tangents": [[1.0, 0.0, 0.0]]}]},
    "matrix": lambda: {"matrix": standard_complex_structure(2).tolist()},
}
FILE_REJECTS = {
    "tensor-dim-1": ("tensor", {"dim": 1}, "dim must be an integer >= 2, got 1"),
    "tensor-dim-string": ("tensor", {"dim": "2"}, "dim must be an integer >= 2, got '2'"),
    "tensor-convention": ("tensor", {"convention": "R[i][j][k][l] = <R(e_i,e_j)e_l, e_k>"},
                          "convention must be 'R[i][j][k][l] = <R(e_i,e_j)e_k, e_l>'"),
    "samples-dim": ("samples", {"dim": 1.5}, "dim must be an integer >= 2, got 1.5"),
    "samples-entries": ("samples", {"entries": {"s": [0.0, 0.0, 1.0]}}, "entries must be a list"),
    "samples-tangent-width": ("samples", {"entries": [{"s": [0.0, 0.0, 1.0],
                                                       "tangents": [[1.0, 0.0]]}]},
                              "entry 0: tangents have shape (1, 2), expected (k, 3)"),
    "matrix-not-square": ("matrix", {"matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]},
                          "matrix must be square, got shape (2, 3)"),
    "matrix-wrong-size": ("matrix", {"matrix": standard_complex_structure(4).tolist()},
                          "matrix is 4x4, expected 2"),
    "matrix-ragged": ("matrix", {"matrix": [[0.0, -1.0], [1.0]]},
                      "matrix must have rows of equal length"),
}


class TestFileRejects:
    """A malformed file is a ParseError naming it; the CLI prints it on one line and exits 1."""

    LOADERS = {"tensor": load_tensor, "samples": load_samples,
               "matrix": lambda path: load_matrix(path, 2)}

    @pytest.mark.parametrize("kind, changes, message", FILE_REJECTS.values(), ids=list(FILE_REJECTS))
    def test_loader_and_cli(self, tmp_path, capsys, kind, changes, message):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({**VALID_FILES[kind](), **changes}))
        with pytest.raises(ParseError) as caught:
            self.LOADERS[kind](path)
        assert type(caught.value) is ParseError
        assert str(caught.value) == f"{path}: {message}"
        tensor = tmp_path / "kahler.json"
        save_tensor(build_model(1.0, 1, standard_complex_structure(2)), tensor)
        argv = {"tensor": ["decompose", str(path)], "samples": ["fit-distribution", str(path)],
                "matrix": ["classify", str(tensor), "--J", str(path)]}[kind]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--dim", "4", "--kappa", "1", "--tau", "1", "--A", "random:x"],
         "invalid random seed in A-spec 'random:x'"),
        (["lemma-suite", "--dims", "4,x"], "--dims must be comma-separated integers, got '4,x'"),
    ], ids=["generate-seed", "lemma-suite-dims"])
    def test_cli_argument(self, tmp_path, capsys, argv, message):
        out = tmp_path / "t.json"
        argv = argv + ["--out", str(out)] if argv[0] == "generate" else argv
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ParseError) as caught:
            args.func(args)
        assert type(caught.value) is ParseError
        assert str(caught.value) == message
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


def test_generate_negative_zeros_match_einsum_file(tmp_path):
    # tau = -1 and kappa < 0 leave -0.0 wherever RA vanishes; A has a zero block
    a = np.zeros((6, 6))
    a[:4, :4] = standard_complex_structure(4) * np.array([2.0, 2.0, 0.5, 0.5])[:, None]
    matrix_path = tmp_path / "a.json"
    matrix_path.write_text(json.dumps({"matrix": a.tolist()}))
    out = tmp_path / "t.json"
    result = run_cli(
        "generate", "--dim", "6", "--kappa=-0.7", "--tau", "-1",
        "--A", str(matrix_path), "--out", str(out), "--format", "json",
    )
    assert result.returncode == 0, result.stderr
    oracle_path = tmp_path / "oracle.json"
    components = oracle_model_einsum(-0.7, -1, a)
    assert np.signbit(components[components == 0]).any()
    oracle_save_tensor_base64(CurvatureTensor(6, components), oracle_path)
    expected = hashlib.sha256(oracle_path.read_bytes()).hexdigest()
    assert json.loads(result.stdout)["output"]["sha256"] == expected


def _plain(value) -> bool:
    """Whether ``value`` is built of dict, list, str, int, float and bool alone: no numpy type."""
    if type(value) is dict:
        return all(type(key) is str and _plain(item) for key, item in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) in (str, int, float, bool)


def _saved(directory, tensor) -> str:
    save_tensor(tensor, directory / "tensor.json")
    return str(directory / "tensor.json")


def _saved_samples(directory) -> str:
    points = unit_sphere_samples(6, 14, seed=2)[6:]
    save_samples(distribution_samples(random_skew(6, 1), points), directory / "samples.json")
    return str(directory / "samples.json")


# one request per report layout: each classify case and rejection, and every other command
REPORT_REQUESTS = {
    "generate": lambda p: ["generate", "--dim", "4", "--kappa", "0.7", "--tau", "1",
                           "--A", "random:1", "--out", str(p / "m.json")],
    "decompose": lambda p: ["decompose", _saved(p, build_model(0.7, 1, random_skew(4, 1)))],
    "classify-case1": lambda p: ["classify", _saved(p, build_model(2.0, 0, dim=2))],
    "classify-case2": lambda p: ["classify", _saved(p, case2_instance(0)["tensor"])],
    "classify-case3": lambda p: ["classify", _saved(p, case3_instance(6, 0.5)["tensor"])],
    "classify-case4": lambda p: ["classify", _saved(p, case4_instance(6, 0.8, 1)["tensor"])],
    "classify-NotKahler": lambda p: ["classify", _saved(p, build_r1(4))],
    "classify-NotAlmostIsotropic": lambda p: ["classify", _saved(
        p, build_ra(block_diagonal_skew(4, [1.0, 0.0])) + build_ra(block_diagonal_skew(4, [0.0, 2.0])))],
    "fit-distribution": lambda p: ["fit-distribution", _saved_samples(p)],
    "lemma-suite": lambda p: ["lemma-suite", "--dims", "3", "--trials", "1"],
}


class TestReports:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("request_", REPORT_REQUESTS.values(), ids=list(REPORT_REQUESTS))
    def test_report_holds_plain_json_values(self, tmp_path, monkeypatch, capsys, request_, fmt):
        # values are plain where they enter the report; nothing converts a numpy value later
        reports, emit = [], cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, *rest: (reports.append(report),
                                                                 emit(report, *rest)))
        code = cli.main([*request_(tmp_path), "--format", fmt])
        out = capsys.readouterr().out
        assert len(reports) == 1
        assert _plain(reports[0])
        assert code == (2 if reports[0]["status"] == "rejected" else 0)
        if fmt == "json":
            assert out == json.dumps(reports[0], indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [np.float64(1.0), np.int64(1), np.bool_(True), np.zeros(2)],
                             ids=["float64", "int64", "bool", "array"])
    def test_numpy_value_is_not_plain(self, value):
        assert not _plain({"results": {"value": value}})

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

    def test_generate_negative_random_seed_is_input_error(self, tmp_path):
        result = run_cli(
            "generate", "--dim", "4", "--kappa", "1", "--tau", "1",
            "--A", "random:-5", "--out", str(tmp_path / "t.json"),
        )
        assert result.returncode == 1
        assert "invalid random seed in A-spec 'random:-5'" in result.stderr

    def test_generate_overflow_prints_one_error_line(self, tmp_path):
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = 1e200, -1e200
        matrix = tmp_path / "big.json"
        matrix.write_text(json.dumps({"matrix": a.tolist()}))
        result = run_cli(
            "generate", "--dim", "4", "--kappa", "1", "--tau", "1",
            "--A", str(matrix), "--out", str(tmp_path / "t.json"),
        )
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: components must be finite: the model kappa*R1 + tau*RA "
            "overflows the float range"
        ]

    @pytest.mark.parametrize("args, code, message", [
        (["--kappa", "2", "--tau", "0", "--A", "J"], 2,
         "rejected (ConventionViolation): tau = 0 requires A = 0"),
        (["--kappa", "inf", "--tau", "0"], 1,
         "error: components must be finite (found NaN or inf)"),
        (["--kappa", "1", "--tau", "1", "--A", "big.json"], 1,
         "error: components must be finite: the model kappa*R1 + tau*RA "
         "overflows the float range"),
        # an --A that is no skew operator is malformed input, like a bad --J
        (["--kappa", "1", "--tau", "1", "--A", "sym.json"], 1,
         "error: {tmp_path}/sym.json: operator is not skew symmetric: residual 2.000e+00 "
         "exceeds 1.000e-12"),
        (["--dim", "3", "--kappa", "1", "--tau", "1", "--A", "J"], 1,
         "error: A-spec 'J': standard complex structure needs even d >= 2, got 3"),
    ], ids=["convention", "kappa-inf", "overflow", "A-not-skew", "A-J-odd-dim"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_generate_rejects_before_writing(self, tmp_path, capsys, args, code, message,
                                             existing):
        # the model is checked before the output file is opened
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = 1e200, -1e200
        (tmp_path / "big.json").write_text(json.dumps({"matrix": a.tolist()}))
        (tmp_path / "sym.json").write_text(json.dumps({"matrix": np.eye(4).tolist()}))
        args = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in args]
        out = tmp_path / "t.json"
        if existing:
            out.write_bytes(b"earlier bytes\n")
        assert cli.main(["generate", "--dim", "4", *args, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message.format(tmp_path=tmp_path)]
        if existing:
            assert out.read_bytes() == b"earlier bytes\n"
        else:
            assert not out.exists()

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

    def test_generate_has_no_tolerance(self, tmp_path):
        # nothing in generate is compared with a tolerance
        args = ("generate", "--dim", "4", "--kappa", "1", "--tau", "0",
                "--out", str(tmp_path / "t.json"), "--format", "json")
        refused = run_cli(*args, "--tol", "1e-9")
        assert refused.returncode == 1 and "usage:" in refused.stderr
        assert "tolerance" not in json.loads(run_cli(*args).stdout)

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

    def test_decompose_numerical_failure_exits_two(self, tmp_path):
        path = tmp_path / "near_max.json"
        model = build_model(0.7, 1, random_skew(6, 1))
        save_tensor(CurvatureTensor(6, model.components * 1e306), path)
        result = run_cli("decompose", str(path))
        assert result.returncode == 2
        assert "NumericalFailure" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command, tensor", [
        ("decompose", lambda: build_model(0.7, 1, random_skew(6, 1)).components * 1e306),
        ("classify", lambda: case2_instance(0)["tensor"].components * 1e307),
    ], ids=["decompose", "classify"])
    def test_numerical_failure_prints_one_line(self, tmp_path, command, tensor):
        # the Jacobi stack and its deflation shift overflow on the way to
        # the failing eigensolve; no numpy warning may reach stderr
        path = tmp_path / "near_max.json"
        components = tensor()
        save_tensor(CurvatureTensor(components.shape[0], components), path)
        result = run_cli(command, str(path))
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("rejected (NumericalFailure): "), lines

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_generate_dimension_below_two_exits_one(self, tmp_path, dim):
        out = tmp_path / "t.json"
        result = run_cli("generate", "--dim", dim, "--kappa", "1", "--tau", "0", "--out", str(out))
        assert result.returncode == 1
        assert f"dimension must be at least 2, got {dim}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["0", "-2", "3"])
    def test_generate_complex_structure_dimension(self, tmp_path, dim):
        # a dimension --A J cannot take is malformed input; one below 2 is
        # reported as such before the A-spec is resolved
        out = tmp_path / "t.json"
        result = run_cli(
            "generate", "--dim", dim, "--kappa", "1", "--tau", "1", "--A", "J", "--out", str(out))
        assert result.returncode == 1
        if dim == "3":
            assert result.stderr == (
                "error: A-spec 'J': standard complex structure needs even d >= 2, got 3\n")
        else:
            assert f"dimension must be at least 2, got {dim}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--dim", "4", "--kappa", "1", "--tau", "0", "--out", "t.json"],
        ["classify", "t.json"],
        ["decompose", "t.json"],
        ["fit-distribution", "s.json"],
        ["lemma-suite"],
    ], ids=lambda argv: argv[0])
    def test_parser_takes_format_and_dispatches(self, argv):
        parser = cli.build_parser()
        assert parser.parse_args(argv).format == "text"
        args = parser.parse_args([*argv, "--format", "json"])
        assert args.format == "json"
        assert args.func is getattr(cli, "cmd_" + argv[0].replace("-", "_"))

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--dims", "0"), "dimension must be at least 3, got 0"),
            (("--dims", "4,-2"), "dimension must be at least 3, got -2"),
            (("--trials", "0"), "trials must be at least 1, got 0"),
            (("--trials=-1",), "trials must be at least 1, got -1"),
            (("--dims", "2"), "dimension must be at least 3, got 2"),
            (("--seed", "-1"), "seed must be non-negative, got -1"),
        ],
    )
    def test_lemma_suite_bad_counts_exit_one(self, args, message):
        # one error line on stderr and no traceback
        result = run_cli("lemma-suite", *args)
        assert result.returncode == 1
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""

    def test_missing_file_exits_one(self, tmp_path):
        result = run_cli("decompose", str(tmp_path / "absent.json"))
        assert result.returncode == 1

    @pytest.mark.parametrize("command, code", [
        (["generate", "--dim", "4", "--kappa", "0.7", "--tau", "1", "--A", "random:1",
          "--out", "m.json"], 0),
        (["decompose", "sum.json"], 2),
        (["decompose", "absent.json"], 1),
    ], ids=["generate", "not-almost-isotropic", "missing-file"])
    def test_process_entries_match_main(self, tmp_path, capsys, command, code):
        # python -m curvlab.cli and the console script both end through
        # main()'s exit branch; each must print what in-process main() does
        save_tensor(build_ra(block_diagonal_skew(4, [1.0, 1.0]))
                    + build_ra(block_diagonal_skew(4, [1.0, 2.0])), tmp_path / "sum.json")
        args = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command]
        assert cli.main(args) == code
        captured = capsys.readouterr()
        for entry in ENTRIES:
            result = run_cli(*args, entry=entry, text=False)
            assert result.returncode == code, entry
            assert result.stdout == captured.out.encode(), entry
            assert result.stderr.decode() == captured.err, entry

    @pytest.mark.parametrize("command, code", [
        (["generate", "--dim", "4", "--kappa", "1", "--tau", "0", "--out", "t.json"], 0),
        (["generate", "--dim", "4", "--kappa", "2", "--tau", "0", "--A", "J",
          "--out", "t.json"], 2),
    ], ids=["exit-0", "exit-2"])
    def test_in_process_main_leaves_gc_alone(self, tmp_path, capsys, command, code):
        # only the process entry freezes the collector at exit; a library
        # caller such as pytest or bench/tracing.py keeps its own
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        args = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command]
        assert cli.main(args) == code
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_process_entry_freezes_gc_at_exit(self, tmp_path):
        child = ("import gc, sys\n"
                 "from curvlab.cli import main\n"
                 "sys.argv = ['curvlab', *sys.argv[1:]]\n"
                 "try:\n"
                 "    main()\n"
                 "finally:\n"
                 "    print(gc.get_freeze_count() > 0)\n")
        result = subprocess.run(
            [sys.executable, "-c", child, "generate", "--dim", "4", "--kappa", "1",
             "--tau", "0", "--out", str(tmp_path / "t.json")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "True"

    def test_tolerance_flag_override(self, tmp_path):
        # R1 in dimension 4 is rejected at the default tolerance but slips
        # through when --tol is loosened past the Kahler residual
        path = tmp_path / "r1.json"
        save_tensor(build_r1(4), path)
        strict = run_cli("classify", str(path))
        assert strict.returncode == 2
        loose = run_cli("classify", str(path), "--tol", "2.0")
        assert loose.returncode == 0

    def test_tolerance_ignores_environment(self, tmp_path):
        # output depends only on the arguments and the input files: a
        # CURVLAB_TOL in the environment changes nothing
        path = tmp_path / "r1.json"
        save_tensor(build_r1(4), path)
        plain = run_cli("classify", str(path))
        ambient = run_cli("classify", str(path), env={"CURVLAB_TOL": "2.0"})
        assert ambient.returncode == plain.returncode == 2
        assert (ambient.stdout, ambient.stderr) == (plain.stdout, plain.stderr)

    @pytest.mark.parametrize(
        "args, env, source",
        [
            (("--tol", "0"), None, "--tol"),
            (("--tol=-1e-9",), None, "--tol"),
            (("--tol", "nan"), None, "--tol"),
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
        points = unit_sphere_samples(4, 30, seed=11)[4:]
        path = tmp_path / "samples.json"
        save_samples(distribution_samples(standard_complex_structure(4), points), path)
        result = run_cli("fit-distribution", str(path), "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["results"]["gap"] > 0.01
        assert payload["results"]["residual"] < 1e-12

    def test_fit_distribution_json_stable(self, tmp_path):
        points = unit_sphere_samples(6, 40, seed=8)[6:]
        path = tmp_path / "samples.json"
        save_samples(distribution_samples(random_skew(6, 8), points), path)
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

    def test_classify_with_odd_j_file(self, tmp_path, capsys):
        # any reject of a --J file is malformed input, an odd dimension included
        tensor_path = tmp_path / "tensor.json"
        save_tensor(build_model(1.0, 0, dim=3), tensor_path)
        j_path = tmp_path / "j.json"
        j_path.write_text(json.dumps({"matrix": np.eye(3).tolist()}))
        assert cli.main(["classify", str(tensor_path), "--J", str(j_path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {j_path}: complex structure needs even dimension, got 3\n")

    def test_classify_recovery_failure_exits_two(self, tmp_path):
        # classify re-raises recovery's SignResolutionFailure as StructureViolation
        scales = np.random.default_rng(6).uniform(-2, 2, size=3)
        path = tmp_path / "tensor.json"
        save_tensor(case3_instance(6, 0.5)["tensor"]
                    + 3e-8 * build_model(0.0, 1, block_diagonal_skew(6, scales)), path)
        result = run_cli("classify", str(path), "--tol", "1e-8", "--format", "json")
        assert result.returncode == 2
        report = json.loads(result.stdout)
        assert report["reason"] == "StructureViolation"
        assert report["detail"] == "reconstruction residual 2.609e-08 exceeds 1.000e-08"

    def test_lemma_suite_cli(self):
        result = run_cli("lemma-suite", "--dims", "4", "--trials", "4", "--seed", "1")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all passed" in result.stdout

    def test_lemma_suite_json_reports_value_and_threshold(self):
        args = ("lemma-suite", "--dims", "4", "--trials", "4", "--format", "json")
        first, second = run_cli(*args), run_cli(*args)
        assert first.stdout == second.stdout
        results = json.loads(first.stdout)["results"]
        assert len(results) == 23
        assert all(r["passed"] == (r["value"] <= r["threshold"]) for r in results)

    def test_stray_value_error_is_not_input_error(self, tmp_path, monkeypatch, capsys):
        # only input errors the command raises as such exit 1; a library fault propagates
        path = tmp_path / "tensor.json"
        save_tensor(build_model(1.0, 1, standard_complex_structure(4)), path)

        def broken(*args, **kwargs):
            raise ValueError("stray")

        monkeypatch.setattr(cli, "recover_decomposition", broken)
        with pytest.raises(ValueError, match="stray"):
            cli.main(["decompose", str(path)])
        assert "error: stray" not in capsys.readouterr().err


# Modules each subcommand may load.  The script runs the CLI as ``python -m``
# does and prints the curvlab submodules loaded when the process exits.
LOADED_MODULES_SCRIPT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('curvlab.'))))\n"
    "runpy.run_module('curvlab.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("fit-distribution", "errors io linalg sphere"),
        ("generate", "curvature errors io linalg"),
        ("decompose", "curvature errors io isotropy linalg"),
        ("classify", "curvature errors io isotropy kahler linalg"),
        ("lemma-suite", "curvature errors io isotropy kahler lemmas linalg models sphere"),
    ],
)
def test_subcommand_loads_only_its_modules(tmp_path, command, loaded):
    tensor = tmp_path / "tensor.json"
    save_tensor(build_model(1.0, 1, standard_complex_structure(4)), tensor)
    samples = tmp_path / "samples.json"
    save_samples(distribution_samples(random_skew(4, 2), unit_sphere_samples(4, 12, seed=2)), samples)
    args = {
        "fit-distribution": [str(samples)],
        "generate": ["--dim", "4", "--kappa", "1", "--tau", "0", "--out", str(tmp_path / "g.json")],
        "decompose": [str(tensor)],
        "classify": [str(tensor)],
        "lemma-suite": ["--dims", "4", "--trials", "1"],
    }[command]
    result = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_SCRIPT, command, *args],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == [f"curvlab.{m}" for m in loaded.split()]
