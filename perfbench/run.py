#!/usr/bin/env python3
"""The briodelta benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload solve_fresh --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports briodelta from that
checkout's `src/`.  Each op starts only after the previous one has
returned, on one thread, with BLAS pools pinned to one thread.  Every op's
output is checked.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
reports the per-layer metrics of a traced run instead.  README.md in this
directory describes the workloads and the metrics.
"""

from __future__ import annotations

import os

# One thread per process, set before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    import tracing
    import workloads
except ImportError as e:
    sys.exit(f"perfbench: cannot load the program: {e}")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Fresh interpreters timed per run for setup_s, one before each ninth of the
# timed phase; the median is reported.
SETUPS = 9
# The timed phase runs in blocks of BLOCK_S seconds.  In a traced run,
# tracing is switched on and off every block, so traced and untraced ops
# interleave for the overhead estimate.
BLOCK_S = 1.0
# Host speed.  On a shared machine the same work can take twice as long a
# few minutes later, and every op time moves with it.  So each reported time
# is scaled to a nominal host speed: t * REF_NOMINAL_S / t_ref, where t_ref
# is the median time of `reference()` measured beside t: in the same block
# of the timed phase, every REF_EVERY_S between ops, or REF_SETUP times
# before and after a fresh interpreter.  The raw wall times are printed too.
# REF_NOMINAL_S is about the reference's time on the 2-core machine the
# baseline was taken on, so nominal times read close to its wall times.
REF_NOMINAL_S = 5.0e-4
REF_EVERY_S = 0.1
REF_SETUP = 5
# latency_tail_ms percentile per workload: the highest on the ladder that
# keeps at least 10 samples beyond it at half the baseline rate, so that it
# stays fixed while this shared machine runs slow.  A run with too few
# samples falls back down the ladder.
TAIL_LADDER = (99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_PCT = {"solve_fresh": 98.0, "interface_pool": 99.5, "verify_grid": 95.0}

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MiB",
    "wave_curves.eval_calls": "calls/op",
    "wave_curves.integrate_calls": "calls/op",
    "riemann.errors": "errors/op", "wave_curves.curve_hit_ratio": "ratio",
    "trace.overhead_frac": "frac",
}


def unit(metric: str) -> str:
    return UNITS.get(metric, "ms/op")


def reference() -> float:
    """Fixed work unrelated to briodelta: float arithmetic and a small dict.

    Its memory stays small and it allocates no object that the cyclic
    garbage collector tracks, so neither the benchmark's heap nor a
    collection of it changes its time.
    """
    s, d = 0.0, {}
    for i in range(2000):
        s += math.sqrt(i + s % 3.0) * 0.5
        d[i & 63] = s
    return s + len(d)


def ref_time() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def speed(ref_times: list[float]) -> float:
    """The factor that scales a wall time taken beside ref_times to nominal."""
    return REF_NOMINAL_S / statistics.median(ref_times)


class Tally:
    """Op times (raw and scaled to nominal speed) and failure reasons."""

    def __init__(self):
        self.raw: list[float] = []
        self.durations: list[float] = []
        self.known: list[str] = []
        self.unknown: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.known) + len(self.unknown)

    def add(self, dt: float, verdict: str, reason: str) -> None:
        self.raw.append(dt)
        if verdict == workloads.KNOWN:
            self.known.append(reason)
        elif verdict != workloads.OK:
            self.unknown.append(reason)

    def scale(self, factor: float) -> None:
        """Scale the op times added since the last call by factor."""
        self.durations += [d * factor for d in self.raw[len(self.durations):]]

    def merge(self, other: "Tally") -> None:
        self.raw += other.raw
        self.durations += other.durations
        self.known += other.known
        self.unknown += other.unknown


def run_op(wl, tracer=None, inp=None) -> tuple[float, str, str]:
    """Time one op (on the next input by default), then check it untimed."""
    if inp is None:
        inp = wl.next_input()
    out = err = None
    t0 = time.perf_counter()
    try:
        try:
            out = wl.run(inp) if tracer is None else \
                tracer.op(wl.index, wl.run, inp)
        except workloads.BrioError as e:
            err = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        try:
            return (dt, *wl.check(inp, out, err))
        finally:
            if tracer is not None:
                tracer.recording = True
    except Exception as e:  # keep measuring; the run is reported incorrect
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, workloads.UNKNOWN, repr(e)


def timed(wl, seconds: float, tracer=None):
    """Closed loop for `seconds`: (untraced tally, traced tally, speed factors).

    Each block of BLOCK_S (shorter in short runs) runs at least one op,
    times `reference()` at its start and then every REF_EVERY_S between
    ops, and scales its op times by its own speed factor.  With a tracer,
    tracing is installed for every other block, and each tally gets at
    least one op.
    """
    plain, traced = Tally(), Tally()
    factors = []
    block = min(BLOCK_S, seconds / 4.0)
    deadline = time.perf_counter() + seconds
    tracing_on = True
    try:
        while True:
            if tracer is not None:
                tracing_on = not tracing_on
                (tracer.install if tracing_on else tracer.uninstall)()
            tally = traced if tracer is not None and tracing_on else plain
            refs = [ref_time()]
            now = time.perf_counter()
            block_end, next_ref = min(now + block, deadline), now + REF_EVERY_S
            while True:
                tally.add(*run_op(wl, tracer if tally is traced else None))
                now = time.perf_counter()
                if now >= block_end:
                    break
                if now >= next_ref:
                    refs.append(ref_time())
                    now = time.perf_counter()
                    next_ref = now + REF_EVERY_S
            factors.append(speed(refs))
            tally.scale(factors[-1])
            if now >= deadline and plain.raw and \
                    (tracer is None or traced.raw):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return plain, traced, factors


def tail(name: str, durations: list[float]) -> tuple[float, float]:
    """(percentile, value) for latency_tail_ms, with 10 samples beyond it."""
    v = sorted(durations)
    n = len(v)
    pct = next((p for p in TAIL_LADDER
                if p <= TAIL_PCT[name] and n * (100.0 - p) / 100.0 >= 10.0),
               100.0)  # under 11 samples: report the maximum
    k = (n - 1) * pct / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, n - 1)
    return pct, v[lo] + (v[hi] - v[lo]) * (k - lo)


def fresh(mode: str, name: str, seed: int) -> tuple[float, str]:
    """Run this script with --fresh in a new interpreter: (wall s, stdout)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--fresh", mode,
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter ({mode}) exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return dt, proc.stdout


def count_probe(wl):
    """Warm, then trace the first probe_ops ops.

    Returns (count metrics, calls per span name, tally, tracer).  On one
    seed the counts are the same in every fresh interpreter.
    """
    tracer = tracing.Tracer(workloads.BrioError)
    tracer.install()
    try:
        wl.warm()  # traced only so curves built here count as built earlier
        tracer.reset()
        tally = Tally()
        for _ in range(wl.probe_ops):
            tally.add(*run_op(wl, tracer))
    finally:
        tracer.uninstall()
    agg = tracing.aggregate(tracer.spans)
    calls = {n: st["calls"] for n, st in sorted(agg["names"].items())}
    return tracing.count_metrics(agg, tracer), calls, tally, tracer


def untraced(name: str, seed: int, seconds: float) -> dict:
    wl = workloads.make(name, seed, work_dir())
    wl.warm()
    census = Tally()
    for inp in wl.census():
        census.add(*run_op(wl, inp=inp))
    setups, raw_setups, factors, tally = [], [], [], Tally()
    for _ in range(SETUPS):
        refs = [ref_time() for _ in range(REF_SETUP)]
        dt = fresh("setup", name, seed)[0]
        refs += [ref_time() for _ in range(REF_SETUP)]
        raw_setups.append(dt)
        setups.append(dt * speed(refs))
        plain, _, block_factors = timed(wl, seconds / SETUPS)
        tally.merge(plain)
        factors += block_factors
    d_ms = [1e3 * d for d in tally.durations]
    n = len(d_ms)
    pct, tail_ms = tail(name, d_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (n - tally.failed) / (1e-3 * math.fsum(d_ms)),
        "latency_p50_ms": statistics.median(d_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    raw_ms = [1e3 * d for d in tally.raw]
    notes = [
        f"workload {name}: {wl.describe()}",
        f"times are scaled to nominal host speed; speed factor median "
        f"{statistics.median(factors):.3f}, range {min(factors):.3f}-"
        f"{max(factors):.3f} over {len(factors)} blocks",
        f"raw wall times: setup_s {statistics.median(raw_setups):.4f}, "
        f"ops_per_s {(n - tally.failed) / (1e-3 * math.fsum(raw_ms)):.4g}, "
        f"latency_p50_ms {statistics.median(raw_ms):.4g}, "
        f"latency_tail_ms {tail(name, raw_ms)[1]:.4g}",
        f"setup_s samples: {', '.join('%.3f' % s for s in setups)}",
        f"latency_tail_ms is p{pct:g} of {n} samples",
        f"fail_frac = {tally.failed}/{n} = {tally.failed / n:.4f}",
    ]
    return finish(metrics, tally, notes, [], census)


def traced(name: str, seed: int, seconds: float) -> dict:
    wl = workloads.make(name, seed, work_dir())
    counts, calls, tally, probe_tracer = count_probe(wl)
    problems = []
    again = json.loads(fresh("counts", name, seed)[1])
    if again != {"counts": counts, "calls": calls}:
        problems.append(f"count probe differs in a fresh interpreter: "
                        f"{counts} {calls} vs {again}")

    tracer = tracing.Tracer(workloads.BrioError)
    plain, traced_tally, factors = timed(wl, seconds, tracer)
    factor = statistics.median(factors)
    agg = tracing.aggregate(tracer.spans)
    if agg["min_self"] < -1e-9 or abs(agg["self_sum"] - agg["op_time"]) > \
            1e-9 * (1.0 + agg["op_time"]):
        problems.append(f"self times sum to {agg['self_sum']!r} s, op spans "
                        f"to {agg['op_time']!r} s (least self time "
                        f"{agg['min_self']!r} s)")
    metrics = dict(counts)
    metrics.update((m, v * factor) for m, v in
                   tracing.time_metrics(agg, tracer).items())
    if plain.durations and traced_tally.durations:
        metrics["trace.overhead_frac"] = 1.0 - (
            math.fsum(plain.durations) / len(plain.durations)) / (
            math.fsum(traced_tally.durations) / len(traced_tally.durations))

    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
    tracer.spans[:0] = probe_tracer.spans
    tracer.write(span_path)
    shares = sorted(((st["self"] / agg["op_time"], n)
                     for n, st in agg["names"].items()), reverse=True)
    notes = [
        f"workload {name}: {wl.describe()}",
        f"counts from the first {wl.probe_ops} ops; in a fresh interpreter "
        f"they are {'the same' if not problems else 'DIFFERENT'}",
        f"times from {agg['ops']} traced ops, scaled to nominal host speed "
        f"by {factor:.3f}; {len(plain.durations)} untraced ops interleaved "
        f"for the overhead",
        "self-time share of traced op time: " + ", ".join(
            f"{n} {100 * s:.1f}%" for s, n in shares),
        f"spans written to {span_path.relative_to(ROOT)}",
    ]
    tally.merge(plain)
    tally.merge(traced_tally)
    return finish(metrics, tally, notes, problems)


def finish(metrics: dict, tally: Tally, notes: list, problems: list,
           census: Tally | None = None) -> dict:
    """Print the notes and metrics; return the result object.

    The census ops are only reported: they count in neither `attempted`
    nor `failed`, and their outputs, wrong by construction, leave `correct`
    as it is.
    """
    for line in notes:
        print(line)
    for reason in tally.known[:5]:
        print(f"failed op: {reason}")
    if census is not None and census.raw:
        print(f"census of known failure classes: {census.failed} of "
              f"{len(census.raw)} failed")
        for reason in census.known + census.unknown:
            print(f"census failure: {reason}")
    for metric, value in metrics.items():
        print(f"{metric} = {value!r} {unit(metric)}")
    for reason in tally.unknown[:10] + problems:
        print(f"INCORRECT: {reason}", file=sys.stderr)
    return {
        "correct": not tally.unknown and not problems,
        "attempted": len(tally.raw),
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": unit(m)}
                    for m, v in metrics.items()},
    }


def work_dir() -> Path:
    return OUT_DIR / f"work-{os.getpid()}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fresh", choices=("setup", "counts"),
                   help="internal: the fresh-interpreter part of setup_s "
                   "or of the traced count check")
    args = p.parse_args(argv)
    try:
        if args.fresh:
            wl = workloads.make(args.workload, args.seed, work_dir())
            if args.fresh == "counts":
                counts, calls, _, _ = count_probe(wl)
                print(json.dumps({"counts": counts, "calls": calls}))
                return 0
            try:
                wl.run(wl.next_input())
            except workloads.BrioError:
                pass  # a typed refusal also finishes the op
            return 0
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir(), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
