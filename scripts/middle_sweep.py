#!/usr/bin/env python3
"""Curve evaluations and accuracy of the middle-state solve over seeded raw data.

    PYTHONPATH=src python3 scripts/middle_sweep.py

Each sweep of SWEEPS solves DRAWS raw (u, v) pairs with
`riemann.solve_middle`.  The "benchmark" sweep draws u in [-2, 3] and v in
[-3, 3] uniformly, as the benchmark's raw states do; the others draw every
component as +-10^U(lo, hi).  Per sweep it prints the typed errors, the
mean, median and max number of composite-curve `q` calls per solve, and the
worst relative error of q_M against the float root of phi = f1.q - b2.q,
with the draw that produced it.

The float root is the interval between the last float where phi > 0 and
the first float where phi < 0, found by bisecting phi itself; every float
inside it is a root of phi as evaluated.  The error is 0 when u_M lies in
it, and otherwise the distance of q_M from the curve's q at its nearer end.
"""

from __future__ import annotations

import contextlib
import statistics

import numpy as np

from briodelta.core import BrioState, TransState, lift
from briodelta.errors import BrioError
from briodelta.riemann import solve_middle
from briodelta.wave_curves import Backward2Curve, Forward1Curve

# (name, lo, hi, seed) of each sweep; lo and hi are None for the benchmark's box.
SWEEPS = (("benchmark", None, None, 5), ("10^[-6, 3]", -6.0, 3.0, 99),
          ("10^[-6, -2]", -6.0, -2.0, 7), ("10^[8, 16]", 8.0, 16.0, 4))
DRAWS = 1000


def draws(lo, hi, seed: int, n: int) -> list[tuple[TransState, TransState]]:
    """n lifted raw pairs: the benchmark's box when lo is None, else +-10^U(lo, hi)."""
    rng = np.random.default_rng(seed)
    if lo is None:
        x = np.column_stack([rng.uniform(-2.0, 3.0, n), rng.uniform(-3.0, 3.0, n),
                             rng.uniform(-2.0, 3.0, n), rng.uniform(-3.0, 3.0, n)])
    else:
        x = 10.0 ** rng.uniform(lo, hi, size=(n, 4)) * rng.choice((-1.0, 1.0), size=(n, 4))
    return [(lift(BrioState(ul, vl)), lift(BrioState(ur, vr))) for ul, vl, ur, vr in x.tolist()]


@contextlib.contextmanager
def counted_q_calls():
    """Count the calls of both composite curves' q while the block runs."""
    calls = [0]
    originals = {cls: cls.q for cls in (Forward1Curve, Backward2Curve)}

    def counting(q):
        def wrapped(self, u):
            calls[0] += 1
            return q(self, u)
        return wrapped

    for cls, q in originals.items():
        cls.q = counting(q)
    try:
        yield calls
    finally:
        for cls, q in originals.items():
            cls.q = q


def _last_true(pred, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats (a, b) in [lo, hi] with pred(a) and not pred(b), by bisection."""
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo, hi
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)


def float_root(left: TransState, right: TransState) -> tuple[float, float]:
    """(lo, hi): the last float with phi > 0 and the first float with phi < 0."""
    f1, b2 = Forward1Curve(left), Backward2Curve(right)

    def phi(u: float) -> float:
        return f1.q(u) - b2.q(u)

    scale = 1.0 + max(abs(left.u), abs(right.u))
    lo, hi, k = min(left.u, right.u), max(left.u, right.u), 0
    while not phi(lo) > 0.0:
        lo, k = min(left.u, right.u) - 2.0 ** k * scale, k + 1
    k = 0
    while not phi(hi) < 0.0:
        hi, k = max(left.u, right.u) + 2.0 ** k * scale, k + 1
    return (_last_true(lambda u: phi(u) > 0.0, lo, hi)[0],
            _last_true(lambda u: phi(u) >= 0.0, lo, hi)[1])


def q_error(left: TransState, right: TransState, middle: TransState) -> float:
    """Relative error of q_M against the float root of phi (see the module docstring)."""
    lo, hi = float_root(left, right)
    if lo <= middle.u <= hi:
        return 0.0
    f1 = Forward1Curve(left)
    end = lo if middle.u < lo else hi
    return abs(middle.q - max(f1.q(end), 0.5 * end * end)) / abs(middle.q)


def sweep(lo, hi, seed: int, n: int) -> dict:
    calls, errors, worst, worst_data = [], 0, 0.0, None
    for left, right in draws(lo, hi, seed, n):
        with counted_q_calls() as count:
            try:
                middle = solve_middle(left, right)
            except BrioError:
                errors += 1
                continue
        calls.append(count[0])
        err = q_error(left, right, middle)
        if err > worst:
            worst, worst_data = err, (left, right)
    return {"errors": errors, "calls": calls, "worst": worst, "worst_data": worst_data}


def main() -> None:
    for name, lo, hi, seed in SWEEPS:
        r = sweep(lo, hi, seed, DRAWS)
        c = r["calls"]
        print(f"{name:12s} seed {seed}: {DRAWS} draws, {r['errors']} typed errors; q calls "
              f"per solve mean {statistics.fmean(c):.2f} median {statistics.median(c):g} "
              f"max {max(c)}; worst q_M error {r['worst']:.2e}"
              + (f" at {r['worst_data']}" if r["worst_data"] else ""))


if __name__ == "__main__":
    main()
