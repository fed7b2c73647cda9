"""Span tracing of briodelta's layer boundaries, from the benchmark's side.

The program's source is not edited.  `Tracer.install` replaces the module
attributes through which the layers call each other (for example
`briodelta.riemann.solve_middle`, looked up by `build_fan` at call time)
with wrappers that record one span per call: id, parent id, op id, name,
start, end and whether a BrioError left the call.  The composite curves'
`q` method is wrapped on the class of whatever object
`forward_curve_1` / `backward_curve_2` return.  `uninstall` restores every
attribute.  A target that no longer exists is skipped, and the metrics that
need it are reported absent.

`core` is not traced: its calls take under a microsecond, so a wrapper
would cost more than the call.  Its time shows in its callers' self time.

A span's self time is its duration minus the durations of its direct child
spans.  The root span of each op is named "op"; its self time is the
untraced remainder (the benchmark's glue, `core`, everything unwrapped).
"""

from __future__ import annotations

import csv
import importlib
import time
import weakref
from collections import defaultdict

# (module, attribute, span name).  The attribute is replaced in the module
# its caller looks it up in; both names of a re-exported function are listed.
TARGETS = (
    ("briodelta.cli", "main", "cli.main"),
    ("briodelta.cli", "solve_brio", "delta.solve_brio"),
    ("briodelta.delta", "solve_brio", "delta.solve_brio"),
    ("briodelta.delta", "build_fan", "riemann.build_fan"),
    ("briodelta.riemann", "build_fan", "riemann.build_fan"),
    ("briodelta.riemann", "solve_middle", "riemann.solve_middle"),
    ("briodelta.riemann", "forward_curve_1", "wave_curves.curve"),
    ("briodelta.riemann", "backward_curve_2", "wave_curves.curve"),
    ("briodelta.riemann", "integrate_rarefaction", "wave_curves.integrate"),
    ("briodelta.wave_curves", "_solve_segment", "wave_curves.integrate"),
    ("briodelta.riemann", "sample_fan", "riemann.sample_fan"),
    ("briodelta.delta", "sample_brio_many", "delta.sample"),
    ("briodelta.verify", "weak_residual", "verify.weak_residual"),
)
EVAL = "wave_curves.eval"
CURVE = "wave_curves.curve"

# Per-layer time metrics: name -> (span name, "self" or "total").  "total"
# sums the outermost spans of that name (nested same-name spans count once).
TIME_METRICS = {
    "cli.self_ms": ("cli.main", "self"),
    "delta.solve_self_ms": ("delta.solve_brio", "self"),
    "delta.sample_ms": ("delta.sample", "total"),
    "riemann.solve_middle_self_ms": ("riemann.solve_middle", "self"),
    "riemann.build_fan_self_ms": ("riemann.build_fan", "self"),
    "riemann.sample_fan_ms": ("riemann.sample_fan", "total"),
    "wave_curves.eval_ms": (EVAL, "self"),
    "wave_curves.integrate_ms": ("wave_curves.integrate", "total"),
    "verify.weak_residual_ms": ("verify.weak_residual", "total"),
}
# Count metrics that must repeat exactly for a seed: name -> span name.
CALL_METRICS = {
    "wave_curves.eval_calls": EVAL,
    "wave_curves.integrate_calls": "wave_curves.integrate",
}


class Tracer:
    """Records spans in memory while installed and `recording` is true."""

    def __init__(self, brio_error: type):
        self.brio_error = brio_error
        self.spans: list[tuple] = []  # (id, parent, op, name, t0, t1, err)
        self.recording = True
        self.installed: set[str] = set()  # span names with a live target
        self.curve_calls = 0
        self.curve_hits = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._saved: list[tuple] = []  # (owner, attribute, original)
        self._seen = weakref.WeakSet()
        self._seen_strong: dict[int, object] = {}

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapped = self._curve_getter(fn) if span == CURVE else \
                self._wrap(fn, span)
            self._patch(module, attr, wrapped)
            self.installed.add(span)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- spans ------------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        err = 0
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except self.brio_error:
            err = 1
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, t0, t1, err))

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span named "op"."""
        self._op = op_id
        try:
            return self.call("op", fn, args)
        finally:
            self._op = -1

    def _curve_getter(self, fn):
        """Wrap forward_curve_1 / backward_curve_2: span, hit count, eval hook."""
        tracer = self
        inner = self._wrap(fn, CURVE)

        def getter(*args, **kwargs):
            curve = inner(*args, **kwargs)
            if not tracer.recording:
                return curve
            tracer._hook_eval(type(curve))
            tracer.curve_calls += 1
            if tracer._remember(curve):
                tracer.curve_hits += 1
            return curve

        return getter

    def _hook_eval(self, cls) -> None:
        q = cls.__dict__.get("q")
        if q is None or getattr(q, "__wrapped__", None) is not None:
            return
        self._patch(cls, "q", self._wrap(q, EVAL))
        self.installed.add(EVAL)

    def _remember(self, curve) -> bool:
        """True if this curve object was returned before."""
        try:
            if curve in self._seen:
                return True
            self._seen.add(curve)
        except TypeError:  # not weak-referenceable: keep it alive instead
            if id(curve) in self._seen_strong:
                return True
            self._seen_strong[id(curve)] = curve
        return False

    def reset(self) -> None:
        """Forget recorded spans and curve counts (curve identities stay)."""
        self.spans.clear()
        self.curve_calls = self.curve_hits = 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(("id", "parent", "op", "name", "start_s", "end_s",
                        "brio_error"))
            w.writerows(self.spans)


def aggregate(spans) -> dict:
    """Per span name: calls and total time of outermost spans, and self time.

    Also returns the op count, the summed op time and the summed self time
    of all spans (equal to the op time when the span tree is consistent),
    the smallest self time seen and the riemann-layer error count.
    """
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[5] - s[4]
    stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    op_time = self_sum = 0.0
    min_self = 0.0
    ops = 0
    riemann_errors = 0
    for sid, parent, _op, name, t0, t1, err in spans:
        dur = t1 - t0
        own = dur - child[sid]
        self_sum += own
        min_self = min(min_self, own)
        st = stats[name]
        st["self"] += own
        pname = by_id[parent][3] if parent in by_id else None
        if pname != name:
            st["calls"] += 1
            st["total"] += dur
        if name == "op":
            ops += 1
            op_time += dur
        if err and name.startswith("riemann.") and \
                not (pname or "").startswith("riemann."):
            riemann_errors += 1
    return {"names": stats, "ops": ops, "op_time": op_time,
            "self_sum": self_sum, "min_self": min_self,
            "riemann_errors": riemann_errors}


def count_metrics(agg: dict, tracer: Tracer) -> dict:
    """Per-op call and error counts and the curve hit ratio (exactly repeatable)."""
    ops = max(agg["ops"], 1)
    out = {}
    for metric, name in CALL_METRICS.items():
        if name in tracer.installed:
            out[metric] = agg["names"][name]["calls"] / ops
    if any(n.startswith("riemann.") for n in tracer.installed):
        out["riemann.errors"] = agg["riemann_errors"] / ops
    if CURVE in tracer.installed and tracer.curve_calls:
        out["wave_curves.curve_hit_ratio"] = \
            tracer.curve_hits / tracer.curve_calls
    return out


def time_metrics(agg: dict, tracer: Tracer) -> dict:
    """Per-op mean milliseconds for every layer whose target is installed."""
    ops = max(agg["ops"], 1)
    out = {}
    for metric, (name, kind) in TIME_METRICS.items():
        if name in tracer.installed:
            out[metric] = 1e3 * agg["names"][name][kind] / ops
    return out
