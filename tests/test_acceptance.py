"""Acceptance suite: eight pinned criteria, one printed line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL <details>` (visible under the
default capture settings) and then asserts, so a red run still reports
every criterion's measured numbers.
"""

from __future__ import annotations

import math
import time

import numpy as np

from briodelta.core import (
    BrioState,
    RiemannData,
    TransState,
    brio_flux_pair,
    lift,
    triangular_flux_pair,
)
from briodelta.delta import (
    ConstantSegment,
    cardinality,
    generic_delta_shock,
    nonuniqueness_example,
    rh_deficit_v,
    solve_brio,
)
from briodelta.riemann import build_fan, lax_check, solve_middle
from briodelta.verify import (
    FvGrid,
    compare_fan_fv,
    random_brio_data,
    random_trans_pair,
    solution_battery,
    test_function_battery,
    weak_residual,
)
from briodelta.wave_curves import (
    backward_curve_2,
    forward_curve_1,
    integrate_rarefaction,
    tabulate_curve,
)

from conftest import max_residual, region_iv_pair


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_curve_ordering(capsys):
    t0 = time.perf_counter()
    base = TransState(1.0, 5.0)
    below = np.linspace(-1.0, 1.0, 257)
    sw1 = tabulate_curve("sw1", base, below)
    sw2 = tabulate_curve("sw2", base, below)
    strict = below < 1.0
    m_shock = float((sw1[strict, 1] - sw2[strict, 1]).min())
    m_crit = float((sw2[:, 1] - 0.5 * sw2[:, 0] ** 2).min())
    above = np.linspace(1.0, 2.8, 257)
    rw1 = tabulate_curve("rw1", base, above)
    rw2 = tabulate_curve("rw2", base, above)
    m_rare = float((rw2[1:, 1] - rw1[1:, 1]).min())
    elapsed = time.perf_counter() - t0
    ok = (rw1.shape == rw2.shape and min(m_shock, m_crit, m_rare) >= 1e-10
          and elapsed < 1.0)
    _report(capsys, 1, ok,
            f"margins shock={m_shock:.3e} critical={m_crit:.3e} "
            f"rare={m_rare:.3e} (tol 1e-10) runtime={elapsed:.2f}s")
    assert ok


def test_criterion_2_critical_integral_curve(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for u0 in (-2.0, 0.0, 1.0, 3.0):
        curve = integrate_rarefaction(2, TransState(u0, 0.5 * u0 * u0),
                                      u0 + 5.0)
        us = np.linspace(u0, u0 + 5.0, 501)
        dev = np.abs(np.asarray(curve.q_at(us)) - 0.5 * us * us)
        worst = max(worst, float(dev.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(capsys, 2, ok,
            f"max deviation={worst:.3e} (tol 1e-8) runtime={elapsed:.2f}s")
    assert ok


def test_criterion_3_middle_states(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_res = 0.0
    worst_slack = math.inf
    lax_ok = True
    rt_ok = True
    count = 0

    def check(left, right):
        nonlocal worst_res, worst_slack, lax_ok, count
        fan = build_fan(left, right)
        res = abs(forward_curve_1(left).q(fan.middle.u)
                  - backward_curve_2(right).q(fan.middle.u))
        worst_res = max(worst_res, res)
        worst_slack = min(worst_slack,
                          fan.middle.q - 0.5 * fan.middle.u ** 2)
        for w in fan.waves:
            if w.kind == "shock" and not lax_check(w):
                lax_ok = False
        count += 1
        return fan

    check(TransState(1.0, 5.0), TransState(0.7, 7.0))
    for _ in range(699):
        u_l = float(rng.uniform(-2.0, 3.0))
        u_r = float(rng.uniform(-2.0, 3.0))
        left = TransState(u_l, 0.5 * u_l * u_l + float(rng.uniform(0.05, 4.0)))
        right = TransState(u_r, 0.5 * u_r * u_r + float(rng.uniform(0.05, 4.0)))
        check(left, right)
    for region in ("I", "II", "III", "IV"):
        for _ in range(75):
            left, right, mid = random_trans_pair(rng, region)
            fan = check(left, right)
            if fan.region.value != region:
                rt_ok = False
            if abs(fan.middle.u - mid.u) > 1e-6 * (1.0 + abs(mid.u)):
                rt_ok = False

    elapsed = time.perf_counter() - t0
    ok = (count >= 1000 and worst_res <= 1e-9 and worst_slack >= -1e-9
          and lax_ok and rt_ok and elapsed < 30.0)
    _report(capsys, 3, ok,
            f"pairs={count} residual={worst_res:.3e} (tol 1e-9) "
            f"slack={worst_slack:.3e} lax={lax_ok} round_trip={rt_ok} "
            f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_4_single_jump_deltas(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst = 0.0
    count = 0
    cases = [(brio_flux_pair(), "a")] * 50 + \
        [(triangular_flux_pair(), "a")] * 25 + \
        [(triangular_flux_pair(), "b")] * 25
    for flux, branch in cases:
        while True:
            l = BrioState(float(rng.uniform(-2.0, 2.0)),
                          float(rng.uniform(-2.0, 2.0)))
            r = BrioState(float(rng.uniform(-2.0, 2.0)),
                          float(rng.uniform(-2.0, 2.0)))
            gap = abs(r.u - l.u) if branch == "a" else abs(r.v - l.v)
            if gap >= 0.3:
                break
        sol = generic_delta_shock(flux, RiemannData(l, r), branch)
        worst = max(worst, max_residual(weak_residual(sol,
                                                      solution_battery(sol))))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 100 and worst <= 1e-8 and elapsed < 20.0
    _report(capsys, 4, ok,
            f"jumps={count} residual={worst:.3e} (tol 1e-8) "
            f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_5_full_constructions(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    expected_card = {"I": 0, "II": 1, "III": 1, "IV": 2}
    worst_weak = 0.0
    worst_def = 0.0
    card_ok = True
    order_ok = True
    count = 0
    for region in ("I", "II", "III", "IV"):
        for sign_case in ("same", "flip"):
            for _ in range(25):
                data = random_brio_data(rng, region, sign_case)
                sol = solve_brio(data)
                scale = 1.0 + max(abs(data.left.u), abs(data.left.v),
                                  abs(data.right.u), abs(data.right.v))
                res = max_residual(weak_residual(sol, solution_battery(sol)))
                worst_weak = max(worst_weak, res / scale)
                if cardinality(sol) != expected_card[region]:
                    card_ok = False
                flip = None
                for a, b in zip(sol.segments, sol.segments[1:]):
                    if isinstance(a, ConstantSegment) and \
                            isinstance(b, ConstantSegment):
                        if a.state.v * b.state.v < 0.0:
                            flip = (a.xi_hi, a, b)
                        else:
                            worst_def = max(
                                worst_def,
                                abs(rh_deficit_v(a.state, b.state, a.xi_hi)
                                    - _rate_at(sol, a.xi_hi)))
                if sign_case == "flip":
                    if flip is None:
                        order_ok = False
                    else:
                        xi, a, b = flip
                        if not (a.xi_lo - 1e-10 <= xi <= b.xi_hi + 1e-10):
                            order_ok = False
                        if abs(rh_deficit_v(a.state, b.state, xi)) > 1e-12:
                            worst_def = max(worst_def,
                                            abs(rh_deficit_v(a.state,
                                                             b.state, xi)))
                elif flip is not None:
                    order_ok = False
                count += 1
    elapsed = time.perf_counter() - t0
    ok = (count >= 200 and worst_weak <= 1e-7 and worst_def <= 1e-12
          and card_ok and order_ok and elapsed < 60.0)
    _report(capsys, 5, ok,
            f"problems={count} weak={worst_weak:.3e} (tol 1e-7 scaled) "
            f"deficit={worst_def:.3e} (tol 1e-12) cardinality={card_ok} "
            f"ordering={order_ok} runtime={elapsed:.1f}s")
    assert ok


def _rate_at(sol, speed: float) -> float:
    for s in sol.singular:
        if abs(s.speed - speed) <= 1e-9 * (1.0 + abs(speed)):
            return s.rate
    return 0.0


def test_criterion_6_nonuniqueness_fixture(capsys):
    t0 = time.perf_counter()
    battery = test_function_battery([-1.0, 1.0], 1.0)
    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    res_fix = max_residual(weak_residual(fix, battery))
    zero = nonuniqueness_example(0.0, -1.0, 1.0)
    res_zero = max_residual(weak_residual(zero, battery))
    cards = (cardinality(fix), cardinality(zero))
    elapsed = time.perf_counter() - t0
    ok = (res_fix <= 1e-8 and res_zero <= 1e-12 and cards == (2, 0)
          and elapsed < 2.0)
    _report(capsys, 6, ok,
            f"fixture residual={res_fix:.3e} (tol 1e-8) zero={res_zero:.3e} "
            f"cardinalities={cards[0]} vs {cards[1]} runtime={elapsed:.2f}s")
    assert ok


def test_criterion_7_fv_refinement(capsys):
    t0 = time.perf_counter()
    left, right, _ = region_iv_pair()
    fan = build_fan(left, right)
    errs = [compare_fan_fv(fan, FvGrid(-5.0, 5.0, n))
            for n in (512, 1024, 2048, 4096)]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    total = errs[0] / errs[-1]
    elapsed = time.perf_counter() - t0
    ok = monotone and total >= 3.0 and elapsed < 30.0
    _report(capsys, 7, ok,
            f"errors={['%.3e' % e for e in errs]} total_ratio={total:.2f} "
            f"(need >= 3) runtime={elapsed:.1f}s")
    assert ok


def test_criterion_8_flip_speed_canary(capsys):
    t0 = time.perf_counter()
    left = BrioState(0.0, 2.0)
    right = BrioState(0.3, -math.sqrt(4.0 - 0.09))
    data = RiemannData(left, right)
    mid = solve_middle(lift(left), lift(right))
    sol = solve_brio(data, flip_speed=mid.u + 1.0)
    worst = max_residual(weak_residual(sol, solution_battery(sol)))
    elapsed = time.perf_counter() - t0
    ok = worst > 1e-4 and elapsed < 5.0
    _report(capsys, 8, ok,
            f"residual={worst:.3e} (must exceed 1e-4) runtime={elapsed:.2f}s")
    assert ok
