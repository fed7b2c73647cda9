"""The benchmark's tracer still finds every layer boundary it reports on."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from briodelta import riemann
from briodelta.core import TransState
from briodelta.errors import BrioError

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_metric_has_a_live_target():
    # A renamed or no longer imported function drops its metrics from the
    # traced result without an error, so each one must still be wrapped.
    tracer = tracing.Tracer(BrioError)
    tracer.install()
    try:
        fan = riemann.build_fan(TransState(0.0, 1.0), TransState(1.0, 1.0))
    finally:
        tracer.uninstall()
    assert any(w.kind == "rarefaction" for w in fan.waves)
    names = {name for name, _ in tracing.TIME_METRICS.values()}
    names |= set(tracing.CALL_METRICS.values()) | {tracing.CURVE}
    assert names <= tracer.installed, names - tracer.installed
    recorded = {span[3] for span in tracer.spans}
    assert {"riemann.build_fan", "riemann.solve_middle", tracing.CURVE, tracing.EVAL,
            "wave_curves.integrate"} <= recorded, recorded
