"""Span and counter tracing of neutralsurf layers, installed from outside.

Functions are wrapped by replacing every reference the package holds to
them: module globals (``fields`` and ``cli`` bind curvature functions via
``from .curvature import ...``), the package namespace, and function
defaults (``connection_forms`` binds ``frame_fn=build_frames`` when it is
defined).  Methods are wrapped on their class.  Nothing under ``src/`` is
edited.

Two kinds of pass use this module:

* a span pass wraps the layer functions in ``SPANS``; each call records its
  duration, and a layer's self time is its duration minus the time covered
  by the spans it called;
* a count pass wraps only the hot primitives in ``PRIMITIVES`` with bare
  counters, so their per-call cost does not distort the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# metric prefix -> (module, attribute[, class]) of each span-traced layer
SPANS = {
    "cli.main": ("neutralsurf.cli", "main"),
    "cli.build_verification_report": ("neutralsurf.cli", "build_verification_report"),
    "catalog.catalog_get": ("neutralsurf.catalog", "catalog_get"),
    "catalog.validate": ("neutralsurf.catalog", "_validate_spacelike"),
    "catalog.check_membership": ("neutralsurf.catalog", "check_membership"),
    "catalog.evaluate": ("neutralsurf.catalog", "evaluate", "Immersion"),
    "expr.eval_on_jets": ("neutralsurf.expr", "eval_on_jets"),
    "fields.sample_surface": ("neutralsurf.fields", "sample_surface"),
    "fields.intrinsic_laplacian": ("neutralsurf.fields", "intrinsic_laplacian"),
    "fields.verify_identity": ("neutralsurf.fields", "verify_identity"),
    "fields.grid_to_csv": ("neutralsurf.fields", "grid_to_csv"),
    "curvature.build_frames": ("neutralsurf.curvature", "build_frames"),
    "curvature.second_fundamental_form": ("neutralsurf.curvature", "second_fundamental_form"),
    "curvature.shape_operators": ("neutralsurf.curvature", "shape_operators"),
    "curvature.invariants": ("neutralsurf.curvature", "invariants"),
    "curvature.ellipse_of_curvature": ("neutralsurf.curvature", "ellipse_of_curvature"),
    "curvature.point_report": ("neutralsurf.curvature", "point_report"),
    "curvature.canonical_equality_frame": ("neutralsurf.curvature", "canonical_equality_frame"),
    "curvature.connection_forms": ("neutralsurf.curvature", "connection_forms"),
    "curvature.structure_equation_check": ("neutralsurf.curvature", "structure_equation_check"),
    "curvature.codazzi_residual": ("neutralsurf.curvature", "codazzi_residual"),
    "pseudo_linalg.orthonormalize": ("neutralsurf.pseudo_linalg", "orthonormalize"),
}

# metric name -> (module, attribute[, class]) of each count-only primitive
PRIMITIVES = {
    "pseudo_linalg.inner.calls": ("neutralsurf.pseudo_linalg", "inner"),
    "pseudo_linalg.eigen_sym2.calls": ("neutralsurf.pseudo_linalg", "eigen_sym2"),
    "jets.Jet2.created": ("neutralsurf.jets", "__init__", "Jet2"),
    "pseudo_linalg.PVector.created": ("neutralsurf.pseudo_linalg", "__post_init__", "PVector"),
}

SAMPLE = "fields.sample_surface"
EVALUATE = "catalog.evaluate"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "neutralsurf" or name.startswith("neutralsurf."))]


class _Patcher:
    """Replaces every package reference to a function and restores them."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, where: tuple, make_wrapper) -> None:
        module = importlib.import_module(where[0])
        if len(where) == 3:
            cls = getattr(module, where[2])
            self._set(cls, where[1], make_wrapper(cls.__dict__[where[1]]))
            return
        original = getattr(module, where[1])
        wrapper = make_wrapper(original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    continue
                # defaults bound at definition time, also behind a wrapper
                fn = getattr(value, "__wrapped__", value)
                if callable(fn) and any(d is original for d in getattr(fn, "__defaults__", None) or ()):
                    self._set(fn, "__defaults__", tuple(
                        wrapper if d is original else d for d in fn.__defaults__))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class SpanTracer:
    """Per-layer calls and self time, from spans around layer calls."""

    def __init__(self):
        from neutralsurf.errors import DegeneracyError

        self._degeneracy = DegeneracyError
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list] = []  # [name, child seconds]
        self._open_samples = 0
        self._patcher = _Patcher()

    def __enter__(self):
        for name, where in SPANS.items():
            self._patcher.replace(where, functools.partial(self._wrap, name))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            if name == SAMPLE:
                self._open_samples += 1
            elif name == EVALUATE and self._open_samples:
                self.counts["evaluate_in_sample"] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._degeneracy:
                # count each error once, where it leaves the curvature layer
                if name.startswith("curvature.") and not (
                    len(stack) > 1 and stack[-2][0].startswith("curvature.")
                ):
                    self.counts["curvature.errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if name == SAMPLE:
                    self._open_samples -= 1
            if name == SAMPLE:
                self.counts["sample_nodes"] += result.nx * result.ny
            elif name == "catalog.validate":
                self.counts["validate_useful"] += bool(result)
            elif name == "fields.grid_to_csv":
                self.counts["csv_bytes"] += len(result.encode())
            return result

        return span


class CountTracer:
    """Bare call counters on the hot primitives."""

    def __init__(self):
        self.counts = Counter()
        self._patcher = _Patcher()

    def __enter__(self):
        for name, where in PRIMITIVES.items():
            self._patcher.replace(where, functools.partial(self._wrap, name))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _wrap(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def layer_metrics(spans: SpanTracer, counts: CountTracer) -> dict:
    """Per-layer metric values, keyed by the names in BENCHMARK.json."""
    out = {}
    for name in SPANS:
        if name != "catalog.validate":  # reported as tries below
            out[f"{name}.calls"] = spans.calls[name]
        out[f"{name}.self_s"] = spans.self_time[name]
    nodes = spans.counts["sample_nodes"]
    out["fields.sample_surface.nodes"] = nodes
    out["catalog.evaluate.per_node"] = spans.counts["evaluate_in_sample"] / nodes if nodes else 0.0
    tries = spans.calls["catalog.validate"]
    out["catalog.validate.tries"] = tries
    out["catalog.validate.useful_ratio"] = spans.counts["validate_useful"] / tries if tries else 0.0
    out["fields.grid_to_csv.bytes"] = spans.counts["csv_bytes"]
    out["curvature.errors"] = spans.counts["curvature.errors"]
    out.update({name: counts.counts[name] for name in PRIMITIVES})
    return out
