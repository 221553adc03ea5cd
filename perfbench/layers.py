"""Span tracing of rte_tomo's layers, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
parent span, pass number, start, end and a few per-call facts).  Module
functions are patched in every rte_tomo module that bound them at import
time (``cli`` binds ``normal_operator_full``, ``tomography`` binds
``microvisible``, ...), otherwise those calls would escape the wrapper.
Methods are patched once, on the class that defines them.  Spans stay in
memory; per-pass layer metrics are derived from them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE_MODULES = ("_interp", "geometry", "coefficients", "phantoms",
                   "formats", "transport", "tomography", "cli")


class Span:
    __slots__ = ("name", "parent", "pass_id", "start", "end", "info")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


def _written(args, kwargs, result):
    """Bytes of an artifact and its .meta sidecar, if any."""
    total = 0
    for p in (str(args[0]), str(args[0]) + ".meta"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return {"bytes": total}


def _batch_cols(args, kwargs, result):
    """Source columns of a batched (n_bdry, n_theta, B) result."""
    return {"cols": int(result.shape[2])}


def _t1_first(args, kwargs, result):
    solver, values = args[0], args[1]
    return {"first": solver._rot is None, "bytes": 2 * values.nbytes}


# (span name, defining module, class name or None, attribute, probe).  A
# probe is ("before" | "after", fn) and fn(args, kwargs, result) returns the
# span's per-call facts; result is None for a "before" probe.
TRACED = (
    ("transport.spectral_radius", "transport", "TransportSolver", "spectral_radius", None),
    ("transport.t1_apply", "transport", "TransportSolver", "t1_apply", ("before", _t1_first)),
    ("transport.t1_transpose", "transport", "TransportSolver", "t1_transpose", None),
    ("transport.k_apply", "transport", "TransportSolver", "k_apply", None),
    ("transport.k_transpose", "transport", "TransportSolver", "k_transpose", None),
    ("transport.solve", "transport", "TransportSolver", "solve",
     ("after", lambda a, k, r: {"iterations": int(r[1].iterations)})),
    ("transport.measurement", "transport", "TransportSolver", "measurement", None),
    ("transport.trace_phase", "transport", "TransportSolver", "trace_phase",
     ("after", _batch_cols)),
    ("transport.trace_transpose", "transport", "TransportSolver", "trace_transpose", None),
    ("transport.xv_apply", "transport", "TransportSolver", "xv_apply",
     ("after", _batch_cols)),
    ("transport.xv_transpose", "transport", "TransportSolver", "xv_transpose", None),
    ("interp.apply", "_interp", "BilinearGather", "apply", None),
    ("interp.apply_transpose", "_interp", "BilinearGather", "apply_transpose", None),
    ("interp.at_points", "_interp", "BilinearGather", "at_points", None),
    ("coefficients.sample", "coefficients", "AngularField", "sample", None),
    ("tomography.series_length", "tomography", None, "series_length",
     ("after", lambda a, k, r: {"value": int(r)})),
    ("tomography.assemble_xv_matrix", "tomography", None, "assemble_xv_matrix",
     ("after", lambda a, k, r: {"cols": int(r.cols)})),
    ("tomography.normal_operator_full", "tomography", None, "normal_operator_full", None),
    ("tomography.singular_values", "tomography", "OperatorMatrix", "singular_values", None),
    ("tomography.attenuation_stack", "tomography", None, "attenuation_stack", None),
    ("tomography.cutoff_stack", "tomography", None, "cutoff_stack", None),
    ("tomography.symbol_field", "tomography", None, "symbol_field", None),
    ("tomography.svd_injectivity", "tomography", None, "svd_injectivity", None),
    ("tomography.wavefront_image", "tomography", None, "wavefront_image", None),
    ("tomography.smoothing_diagnostic", "tomography", None, "smoothing_diagnostic", None),
    ("geometry.visible_mask", "geometry", None, "visible_mask", None),
    ("geometry.microvisible", "geometry", None, "microvisible", None),
    ("phantoms.rasterize", "phantoms", None, "rasterize", None),
    ("formats.write", "formats", None, "write_pgm", ("after", _written)),
    ("formats.write", "formats", None, "write_grid_csv", ("after", _written)),
    ("formats.write", "formats", None, "write_boundary_csv", ("after", _written)),
    ("formats.write", "formats", None, "write_operator", ("after", _written)),
    ("formats.sha256_file", "formats", None, "sha256_file", None),
    ("cli.parse_config", "cli", None, "parse_config", None),
)

# Span the benchmark itself opens around each rte_tomo.cli.main call.
COMMAND_SPAN = "cli.command"


class Tracer:
    """Records spans while installed; install() and uninstall() are cheap."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._undo = []

    # -- span recording -----------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None, self.pass_id)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span opened by the benchmark itself."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn, probe):
        tracer = self
        when, extract = probe if probe is not None else (None, None)

        def traced(*args, **kwargs):
            info = extract(args, kwargs, None) if when == "before" else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.info = info if when != "after" else extract(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._undo:
            return
        mods = [importlib.import_module(f"rte_tomo.{m}") for m in PACKAGE_MODULES]
        mods.append(sys.modules["rte_tomo"])
        for name, modname, clsname, attr, probe in TRACED:
            home = sys.modules[f"rte_tomo.{modname}"]
            if clsname is not None:
                cls = getattr(home, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, probe))
                else:
                    new = self._wrap(name, raw, probe)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            orig = getattr(home, attr)
            new = self._wrap(name, orig, probe)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-pass aggregation
# ---------------------------------------------------------------------------


def _ancestor(span, *names):
    """Nearest enclosing span with one of the names, or None."""
    p = span.parent
    while p is not None and p.name not in names:
        p = p.parent
    return p


def pass_aggregates(spans):
    """Counts, busy times, self times and per-call facts of one pass."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    info = defaultdict(float)
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
    for s in spans:
        calls[s.name] += 1
        if _ancestor(s, s.name) is None:
            busy[s.name] += s.duration
        self_s[s.name] += s.duration - child_time[id(s)]
        if s.info:
            for key, val in s.info.items():
                info[f"{s.name}.{key}"] += float(val)

    t1 = [s for s in spans if s.name == "transport.t1_apply"]
    cert = sum(1 for s in t1 if _ancestor(s, "transport.spectral_radius"))
    traces = calls["transport.trace_phase"] + calls["transport.trace_transpose"]
    gathers = sum(1 for s in spans if s.name == "interp.at_points" and _ancestor(
        s, "transport.trace_phase", "transport.trace_transpose"))
    normals = calls["tomography.normal_operator_full"]
    matrix_normals = {id(_ancestor(s, "tomography.normal_operator_full"))
                      for s in spans if s.name == "tomography.assemble_xv_matrix"}
    matrix_normals.discard(id(None))
    series = [s.info["value"] for s in spans
              if s.name == "tomography.series_length" and s.info]
    return {
        "calls": calls, "busy": busy, "self": self_s, "info": info,
        "first_s": sum(s.duration for s in t1 if s.info and s.info["first"]),
        "certificate_sweep_share": cert / len(t1) if t1 else 0.0,
        "gather_builds_per_trace": gathers / traces if traces else 0.0,
        "matrix_route": len(matrix_normals) / normals if normals else 0.0,
        "series_length": max(series) if series else 0,
    }


def _timed(name, self_time=False):
    out = [(f"{name}.calls", "count", lambda a, n=name: a["calls"][n]),
           (f"{name}.s", "s", lambda a, n=name: a["busy"][n])]
    if self_time:
        out.append((f"{name}.self_s", "s", lambda a, n=name: a["self"][n]))
    return out


# Per-layer metrics: (name, unit, function of one pass's aggregates).  Every
# function with traced children also reports its self time.
LAYER_METRICS = (
    _timed("transport.spectral_radius", True)
    + [("transport.certificate_sweep_share", "ratio",
        lambda a: a["certificate_sweep_share"])]
    + _timed("transport.t1_apply", True)
    + [("transport.t1_apply.first_s", "s", lambda a: a["first_s"]),
       ("transport.t1_apply.bytes_computed", "B",
        lambda a: a["info"]["transport.t1_apply.bytes"])]
    + _timed("transport.t1_transpose")
    + _timed("transport.k_apply")
    + _timed("transport.k_transpose")
    + _timed("transport.solve", True)
    + [("transport.solve.iterations", "count",
        lambda a: a["info"]["transport.solve.iterations"]),
       ("tomography.series_length.value", "count", lambda a: a["series_length"])]
    + _timed("tomography.series_length", True)
    + _timed("transport.measurement", True)
    + _timed("transport.trace_phase", True)
    + [("transport.trace_phase.cols", "count",
        lambda a: a["info"]["transport.trace_phase.cols"])]
    + _timed("transport.xv_apply", True)
    + [("transport.xv_apply.cols", "count",
        lambda a: a["info"]["transport.xv_apply.cols"])]
    + _timed("transport.trace_transpose", True)
    + _timed("transport.xv_transpose", True)
    + _timed("interp.apply")
    + _timed("interp.apply_transpose")
    + _timed("interp.at_points")
    + [("interp.gather_builds_per_trace", "ratio",
        lambda a: a["gather_builds_per_trace"])]
    + _timed("tomography.assemble_xv_matrix", True)
    + [("tomography.assemble_xv_matrix.cols", "count",
        lambda a: a["info"]["tomography.assemble_xv_matrix.cols"]),
       ("tomography.assemble_xv_matrix.cols_per_s", "1/s",
        lambda a: (a["info"]["tomography.assemble_xv_matrix.cols"]
                   / a["busy"]["tomography.assemble_xv_matrix"])
        if a["busy"]["tomography.assemble_xv_matrix"] else 0.0)]
    + _timed("tomography.normal_operator_full", True)
    + [("tomography.normal_operator_full.matrix_route", "ratio",
        lambda a: a["matrix_route"])]
    + _timed("tomography.singular_values")
    + _timed("tomography.attenuation_stack", True)
    + _timed("tomography.cutoff_stack")
    + _timed("tomography.symbol_field", True)
    + _timed("tomography.svd_injectivity", True)
    + _timed("tomography.wavefront_image", True)
    + _timed("tomography.smoothing_diagnostic", True)
    + _timed("geometry.visible_mask")
    + _timed("geometry.microvisible")
    + _timed("coefficients.sample")
    + _timed("phantoms.rasterize")
    + _timed("formats.write")
    + [("formats.bytes_written", "B", lambda a: a["info"]["formats.write.bytes"])]
    + _timed("formats.sha256_file")
    + _timed("cli.parse_config")
    + [("cli.command.self_s", "s", lambda a: a["self"][COMMAND_SPAN])]
)


def layer_metrics(tracer, pass_ids):
    """Median over the traced passes of every per-layer metric."""
    by_pass = defaultdict(list)
    for s in tracer.spans:
        by_pass[s.pass_id].append(s)
    aggs = [pass_aggregates(by_pass[p]) for p in pass_ids]
    return {name: (statistics.median(float(fn(a)) for a in aggs), unit)
            for name, unit, fn in LAYER_METRICS}


def dump_spans(tracer, path):
    """Write the spans as JSON lines: name, parent index, pass, start, end."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "name": s.name,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "pass": s.pass_id, "start": s.start, "end": s.end,
                "info": s.info}) + "\n")
