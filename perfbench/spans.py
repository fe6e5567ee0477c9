"""Spans around helsonlab's layer entry points, installed from outside.

A wrapper replaces one attribute at the name its callers look up (for
example ``helsonlab.pipeline.lanczos_extreme``, which ``run_chain``
calls, not the defining module's copy), records a span per call and
adds per-call counts computed from the arguments and the result.
Nothing inside the package changes; ``Tracer.installed()`` puts every
original attribute back on exit, also when the traced call raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import os
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

# the apply span is bookkeeping (matvec counts, Lanczos self time); it
# is not a layer of its own and is not reported
APPLY = "structured_ops.apply"


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with attribute patches it can undo."""

    def __init__(self):
        self.spans: list = []
        self.totals: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Record a span `name` around every call of owner.attr.

        after(arguments, result) may return {metric: increment}; keys
        starting with "max:" keep a running maximum instead.
        """
        # a class attribute must be read from __dict__, or the patch
        # would store a bound method / the inherited function
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            result = self._call(name, orig, args, kwargs)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in after(bound.arguments, result).items():
                    if key.startswith("max:"):
                        key = key[4:]
                        self.maxima[key] = max(self.maxima[key], value)
                    else:
                        self.totals[key] += value
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, spanned)

    def wrapped_callable(self, fn: Callable, name: str) -> Callable:
        """A spanned copy of a plain callable (closures held by maps)."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return spanned

    def _call(self, name: str, fn: Callable, args, kwargs):
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else None)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.seconds
            self.spans.append(span)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self, install: Callable):
        """Apply install(self), yield, and undo every patch afterwards."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- aggregation ------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        return sum(s.seconds - s.child_s for s in self.spans if s.name == name)

    def top_level_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)

    def calls_under(self, name: str, ancestor: str) -> int:
        count = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and p.name != ancestor:
                p = p.parent
            count += p is not None
        return count


# ---------------------------------------------------------------------------
# the chain's layers


def _dim(target) -> int:
    return int(target.cols) if hasattr(target, "cols") else int(target.shape[0])


def _quadrature_counts(args, result) -> dict:
    points = int(np.size(args["t"]))
    # the rule is materialized as one points x Q float64 array
    return {"symbols.a0_quadrature.points": points,
            "max:symbols.a0_quadrature.max_temp_mb":
                points * int(args["Q"]) * 8 / 2**20}


def _lanczos_counts(args, result) -> dict:
    return {"eigen.lanczos.iterations": int(result.meta.get("iterations", 0)),
            "eigen.lanczos.unconverged":
                int(not result.meta.get("converged", True))}


def _artifact_bytes(args, result) -> dict:
    path = args.get("path")
    return {"pipeline.artifacts.bytes":
                os.path.getsize(path) if path and os.path.exists(path) else 0}


def install_convergence_watch(tracer: Tracer) -> None:
    """Only the Lanczos entry point: one span per solve, for meta flags."""
    import helsonlab.pipeline as pipeline
    tracer.wrap(pipeline, "lanczos_extreme", "eigen.lanczos",
                after=_lanczos_counts)


def install_layers(tracer: Tracer) -> None:
    """Spans at every layer boundary run_chain crosses."""
    import helsonlab.eigen as eigen
    import helsonlab.pipeline as pipeline
    import helsonlab.structured_ops as structured_ops
    import helsonlab.symbols as symbols

    def log_window_matvec(args, op) -> dict:
        op.map = dataclasses.replace(
            op.map, matvec=tracer.wrapped_callable(
                op.map.matvec, "discretize.log_window.matvec"))
        return {}

    w = tracer.wrap
    w(structured_ops.LinearMap, "apply", APPLY)
    w(structured_ops.HelsonTruncation, "matvec",
      "structured_ops.helson_matvec",
      after=lambda a, r: {"structured_ops.helson_matvec.entries":
                          a["self"].N ** 2})
    w(structured_ops, "sequence_values", "symbols.sequence_values",
      after=lambda a, r: {"symbols.sequence_values.points":
                          int(np.size(a["n"]))})
    w(eigen, "dense_matrix", "structured_ops.dense_matrix")
    w(eigen, "householder_tridiagonalize", "eigen.householder")
    w(eigen, "tridiag_eigenvalues", "eigen.tridiag_ql")
    w(symbols, "a0_quadrature", "symbols.a0_quadrature",
      after=_quadrature_counts)
    for attr in ("build_helson", "build_smooth_helson"):
        w(pipeline, attr, "structured_ops.build")
    w(pipeline, "dense_eig_oracle", "eigen.dense_eig",
      after=lambda a, r: {"max:eigen.dense_eig.max_dim": _dim(a["target"])})
    install_convergence_watch(tracer)
    for attr in ("nystrom_helson", "nystrom_hankel"):
        w(pipeline, attr, "discretize.nystrom",
          after=lambda a, r: {"discretize.nystrom.entries":
                              int(r.grid.n) ** 2})
    w(pipeline, "log_window_smooth_section", "discretize.log_window",
      after=log_window_matvec)
    for attr in ("fit_power_tail", "default_fit_window", "kappa",
                 "negative_part_domination"):
        w(pipeline, attr, "asymptotics.fit")
    for attr in ("spectrum_to_csv", "write_meta_sidecar", "loglog_figure"):
        w(pipeline, attr, "pipeline.artifacts", after=_artifact_bytes)


# name -> unit of every per-layer metric the traced run reports
LAYER_UNITS = {
    "structured_ops.helson_matvec.calls": "count",
    "structured_ops.helson_matvec.s": "s",
    "structured_ops.helson_matvec.entries": "count",
    "structured_ops.dense_matrix.calls": "count",
    "structured_ops.dense_matrix.s": "s",
    "structured_ops.build.s": "s",
    "eigen.dense_eig.calls": "count",
    "eigen.dense_eig.s": "s",
    "eigen.dense_eig.max_dim": "count",
    "eigen.householder.s": "s",
    "eigen.tridiag_ql.calls": "count",
    "eigen.tridiag_ql.s": "s",
    "symbols.a0_quadrature.calls": "count",
    "symbols.a0_quadrature.points": "count",
    "symbols.a0_quadrature.s": "s",
    "symbols.a0_quadrature.max_temp_mb": "MB",
    "symbols.sequence_values.points": "count",
    "symbols.sequence_values.s": "s",
    "discretize.nystrom.calls": "count",
    "discretize.nystrom.s": "s",
    "discretize.nystrom.entries": "count",
    "discretize.log_window.matvec.calls": "count",
    "discretize.log_window.matvec.s": "s",
    "eigen.lanczos.calls": "count",
    "eigen.lanczos.s": "s",
    "eigen.lanczos.self_s": "s",
    "eigen.lanczos.iterations": "count",
    "eigen.lanczos.matvecs": "count",
    "eigen.lanczos.unconverged": "count",
    "asymptotics.fit.s": "s",
    "pipeline.artifacts.calls": "count",
    "pipeline.artifacts.s": "s",
    "pipeline.artifacts.bytes": "B",
    "trace.top_level_share": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Every LAYER_UNITS value but trace.overhead_s, which needs two runs."""
    out = {}
    for name in LAYER_UNITS:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = tracer.calls(span)
        elif field == "s":
            out[name] = tracer.seconds(span)
        elif field in ("entries", "points", "iterations", "unconverged",
                       "bytes"):
            out[name] = tracer.totals[name]
        elif field in ("max_dim", "max_temp_mb"):
            out[name] = tracer.maxima[name]
    out["eigen.lanczos.self_s"] = tracer.self_seconds("eigen.lanczos")
    out["eigen.lanczos.matvecs"] = tracer.calls_under(APPLY, "eigen.lanczos")
    out["trace.top_level_share"] = (tracer.top_level_seconds()
                                    / max(traced_wall_s, 1e-12))
    return out
