"""Traced replay: run the CLI commands in one process and time each layer.

``install(tracer)`` wraps the library functions that ``curvlab.cli`` calls,
in the CLI's own namespace and on the ``curvlab.io`` module it calls
through, so ``cli.main(argv)`` makes exactly the calls a ``curvlab``
process makes, in the same order, while every call leaves a span.  Nothing
inside the library is instrumented: calls that a library function makes
internally are timed by calling them again, separately, on the same input,
and recorded as children of the outer span.  Those are

- ``curvature.validate_symmetries`` inside ``io.load_tensor``;
- ``curvature.validate_symmetries_j`` and ``isotropy.recover_decomposition``
  inside ``kahler.classify_kahler``;
- ``isotropy.almost_isotropy_scan`` inside ``isotropy.recover_decomposition``.

Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter

import curvlab.cli as cli
import curvlab.io as cio
from curvlab.curvature import validate_symmetries
from curvlab.errors import CurvlabError, NotKahler, SymmetryViolation
from curvlab.isotropy import almost_isotropy_scan


TIMED = (
    "io.load_tensor", "io.save_tensor", "io.load_samples", "io.render_json",
    "curvature.validate_symmetries", "curvature.validate_symmetries_j",
    "curvature.build_model", "isotropy.almost_isotropy_scan",
    "isotropy.recover_decomposition", "kahler.classify_kahler",
    "sphere.fit_skew_from_samples",
)
COUNTED = (
    "io.bytes_read", "io.bytes_written", "isotropy.samples_used",
    "kahler.rejected", "sphere.tangents",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent, request id) and counters, per request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[Counter] = []   # one per request
        self.request = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.request))
        self._open.append(sid)
        try:
            yield sid
        except BaseException as exc:
            self.spans[sid].error = type(exc).__name__
            raise
        finally:
            self.spans[sid].end = perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def under(self, sid: int):
        """Make ``sid`` the parent of spans opened inside, after it has ended."""
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()

    def child(self, sid: int, fn, *args, **kwargs):
        """Time a nested call again on the same input, as a child of span ``sid``."""
        with self.under(sid):
            try:
                return fn(*args, **kwargs)
            except CurvlabError:
                return None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.request][name] += amount

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        """One CLI invocation in this process: (exit code, stdout, stderr).

        An exception the CLI does not handle gives exit code 1 and the
        traceback on stderr, as it would in a ``curvlab`` process.
        """
        self.request += 1
        self.counts.append(Counter())
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with self.span(f"request:{argv[0]}"):
                    code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def totals(self, requests: range) -> dict[str, float]:
        """Per-layer sums over the given requests (one pass of a workload)."""
        spans = [s for s in self.spans if s.request in requests]
        out = {f"{name}_s": 0.0 for name in TIMED}
        for s in spans:
            if s.name in TIMED:
                out[f"{s.name}_s"] += s.seconds
        counts = sum((self.counts[r] for r in requests), Counter())
        for name in COUNTED:
            out[name] = counts[name]
        classify_children = sum(
            s.seconds for s in spans
            if s.parent is not None and self.spans[s.parent].name == "kahler.classify_kahler")
        out["kahler.classify_self_s"] = out["kahler.classify_kahler_s"] - classify_children
        load_s = out["io.load_tensor_s"]
        out["io.load_tensor_MBps"] = (
            counts["io.tensor_bytes_loaded"] / 1e6 / load_s if load_s else 0.0)
        tangents = counts["sphere.tangents"]
        fit_s = out["sphere.fit_skew_from_samples_s"]
        out["sphere.fit_us_per_tangent"] = 1e6 * fit_s / tangents if tangents else 0.0
        # top-level layer spans: direct children of a request's root span
        out["attributed_s"] = sum(
            s.seconds for s in spans
            if s.parent is not None and self.spans[s.parent].parent is None)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": [dict(c) for c in self.counts]}, handle)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch the functions the CLI calls with span-recording wrappers."""
    originals = {
        (cli, "random_skew"): cli.random_skew,
        (cli, "standard_complex_structure"): cli.standard_complex_structure,
        (cli, "require_complex_structure"): cli.require_complex_structure,
        (cli, "build_model"): cli.build_model,
        (cli, "recover_decomposition"): cli.recover_decomposition,
        (cli, "classify_kahler"): cli.classify_kahler,
        (cli, "fit_skew_from_samples"): cli.fit_skew_from_samples,
        (cio, "load_tensor"): cio.load_tensor,
        (cio, "save_tensor"): cio.save_tensor,
        (cio, "load_samples"): cio.load_samples,
        (cio, "load_matrix"): cio.load_matrix,
        (cio, "file_digest"): cio.file_digest,
        (cio, "render_json"): cio.render_json,
    }
    o = {attr: fn for (_, attr), fn in originals.items()}
    validate = _wrap(tracer, "curvature.validate_symmetries", validate_symmetries)
    validate_j = _wrap(tracer, "curvature.validate_symmetries_j", validate_symmetries)

    def load_tensor(path, *args, **kwargs):
        tracer.count("io.bytes_read", os.path.getsize(path))
        tracer.count("io.tensor_bytes_loaded", os.path.getsize(path))
        with tracer.span("io.load_tensor") as sid:
            tensor = o["load_tensor"](path, *args, **kwargs)
        tracer.child(sid, validate, tensor)
        return tensor

    def save_tensor(tensor, path):
        with tracer.span("io.save_tensor"):
            o["save_tensor"](tensor, path)
        tracer.count("io.bytes_written", os.path.getsize(path))

    def read(name):
        def traced(path, *args, **kwargs):
            tracer.count("io.bytes_read", os.path.getsize(path))
            with tracer.span(f"io.{name}"):
                return o[name](path, *args, **kwargs)
        return traced

    read_samples = read("load_samples")

    def load_samples(path):
        samples = read_samples(path)
        tracer.count("sphere.tangents", samples.tangent_count)
        return samples

    def scan(r, tol):
        with tracer.span("isotropy.almost_isotropy_scan"):
            report = almost_isotropy_scan(r, tol=tol)
        tracer.count("isotropy.samples_used", report.samples_used)

    def recover(r, tol=cli.DEFAULT_TOL):
        try:
            with tracer.span("isotropy.recover_decomposition") as sid:
                return o["recover_decomposition"](r, tol)
        finally:
            tracer.child(sid, scan, r, tol)

    def classify(r, j, tol=cli.DEFAULT_TOL):
        reached_recovery = True
        try:
            with tracer.span("kahler.classify_kahler") as sid:
                try:
                    return o["classify_kahler"](r, j, tol)
                except CurvlabError as exc:
                    tracer.count("kahler.rejected")
                    reached_recovery = not isinstance(exc, (NotKahler, SymmetryViolation))
                    raise
        finally:
            tracer.child(sid, validate_j, r, j)
            if reached_recovery:
                tracer.child(sid, recover, r, tol)

    replacements = {
        (cli, "random_skew"): _wrap(tracer, "linalg.random_skew", o["random_skew"]),
        (cli, "standard_complex_structure"): _wrap(
            tracer, "linalg.standard_complex_structure", o["standard_complex_structure"]),
        (cli, "require_complex_structure"): _wrap(
            tracer, "linalg.require_complex_structure", o["require_complex_structure"]),
        (cli, "build_model"): _wrap(tracer, "curvature.build_model", o["build_model"]),
        (cli, "recover_decomposition"): recover,
        (cli, "classify_kahler"): classify,
        (cli, "fit_skew_from_samples"): _wrap(
            tracer, "sphere.fit_skew_from_samples", o["fit_skew_from_samples"]),
        (cio, "load_tensor"): load_tensor,
        (cio, "save_tensor"): save_tensor,
        (cio, "load_samples"): load_samples,
        (cio, "load_matrix"): read("load_matrix"),
        (cio, "file_digest"): read("file_digest"),
        (cio, "render_json"): _wrap(tracer, "io.render_json", o["render_json"]),
    }
    try:
        for (module, attr), fn in replacements.items():
            setattr(module, attr, fn)
        yield tracer
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)
