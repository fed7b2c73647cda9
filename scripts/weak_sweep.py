#!/usr/bin/env python3
"""Weak-test sweeps over raw log-magnitude Riemann data.

    PYTHONPATH=src python3 scripts/weak_sweep.py

Each of the three seeded sweeps (SWEEPS) takes DRAWS draws with every
component of (u_L, v_L, u_R, v_R) as +-10^U(lo, hi), then sets v_L = 0 in
draw 7k + 5 and v_R = 0 in draw 7k + 6, so v = 0 on one side in 2 of 7
draws.  Each
draw is solved with solve_brio and judged on its 25-bump battery: the
largest residual over 1 + max |data| must not exceed TOL_WEAK.  Per sweep
it prints the typed solve errors, the failures at 8, 32 and 128 nodes
(below 2p + 1 = 13 nodes too, a correct solution reads the rounding
floor), the count of non-finite residuals (a non-finite residual also
fails), the median wall time of one weak_residual call at 32 nodes, and
the worst scaled residual with the draw that produced it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from briodelta import BrioState, RiemannData
from briodelta.delta import solve_brio
from briodelta.errors import BrioError
from briodelta.verify import (
    TOL_WEAK,
    _suite_weak_scale,
    _worst,
    solution_battery,
    weak_residual,
)

# (lo, hi, seed) of each sweep.
SWEEPS = ((-3.0, 3.0, 2), (-8.0, 6.0, 3), (-8.0, 8.0, 1))
NODES = (8, 32, 128)
# Node count whose weak_residual calls are timed.
TIMED_NODES = 32
DRAWS = 600


def draws(lo: float, hi: float, seed: int, n: int) -> list[RiemannData]:
    """n raw data with components +-10^U(lo, hi), v = 0 on one side in 2 of 7."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(lo, hi, size=(n, 4)) * rng.choice((-1.0, 1.0), size=(n, 4))
    x[5::7, 1] = 0.0
    x[6::7, 3] = 0.0
    return [RiemannData(BrioState(ul, vl), BrioState(ur, vr))
            for ul, vl, ur, vr in x.tolist()]


def sweep(lo: float, hi: float, seed: int, n: int) -> dict:
    errors, nonfinite = 0, 0
    failures = dict.fromkeys(NODES, 0)
    worst, worst_data = 0.0, None
    seconds = []
    for data in draws(lo, hi, seed, n):
        try:
            sol = solve_brio(data)
        except BrioError:
            errors += 1
            continue
        scale = _suite_weak_scale(data)
        battery = solution_battery(sol)
        for nodes in NODES:
            start = time.perf_counter()
            res = weak_residual(sol, battery, nodes=nodes)
            if nodes == TIMED_NODES:
                seconds.append(time.perf_counter() - start)
            worst_here = _worst(res)
            if math.isinf(worst_here):
                nonfinite += 1
                failures[nodes] += 1
                continue
            scaled = worst_here / scale
            failures[nodes] += scaled > TOL_WEAK
            if scaled > worst:
                worst, worst_data = scaled, (nodes, data)
    return {"errors": errors, "failures": failures, "nonfinite": nonfinite,
            "worst": worst, "worst_data": worst_data,
            "median_ms": 1e3 * statistics.median(seconds) if seconds else math.nan}


def main() -> None:
    for lo, hi, seed in SWEEPS:
        out = sweep(lo, hi, seed, DRAWS)
        fails = " / ".join(str(out["failures"][nodes]) for nodes in NODES)
        print(f"10^[{lo:g}, {hi:g}], seed {seed}, {DRAWS} draws: "
              f"{out['errors']} solve errors, weak failures at "
              f"{' / '.join(map(str, NODES))} nodes {fails}, "
              f"{out['nonfinite']} non-finite, median weak_residual "
              f"{out['median_ms']:.3f} ms per draw at {TIMED_NODES} nodes")
        if out["worst_data"] is not None:
            nodes, data = out["worst_data"]
            print(f"  worst scaled residual {out['worst']:.3g} at {nodes} nodes: "
                  f"left ({data.left.u!r}, {data.left.v!r}), "
                  f"right ({data.right.u!r}, {data.right.v!r})")


if __name__ == "__main__":
    main()
