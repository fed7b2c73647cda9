"""Weak-form residuals, finite-volume cross-checks and the property suite."""

from __future__ import annotations

import importlib.resources
import json
import math

import jsonschema
import mpmath as mp
import numpy as np
import pytest

from briodelta import verify
from briodelta.core import (
    BrioState,
    RiemannData,
    TransState,
    brio_flux_pair,
    project,
    triangular_flux_pair,
)
from briodelta.delta import (
    DeltaSingularity,
    DeltaSolution,
    cardinality,
    generic_delta_shock,
    nonuniqueness_example,
    sample_brio_many,
    solve_brio,
)
from briodelta.errors import BlowUp, PreconditionError
from briodelta.riemann import build_fan
from briodelta.verify import (
    FvGrid,
    TestFunction,
    _bump_int,
    _canary_flip_solution,
    compare_fan_fv,
    flip_pair_alternatives,
    fv_solve_trans,
    property_suite,
    random_brio_data,
    random_trans_pair,
    solution_battery,
    test_function_battery,
    weak_residual,
)
from briodelta.wave_curves import forward_curve_1, shock_q_1, shock_q_2

from conftest import data_scale, max_residual

EXPECTED_CHECKS = {
    "critical_curve_invariance",
    "lambda1_monotone_rw1",
    "qtilde_decreasing_rw1",
    "shock_rh_consistency",
    "middle_state_domain",
    "lax_admissibility",
    "region_round_trip",
    "deficit_identity",
    "carrier_u_exactness",
    "flip_ordering",
    "weak_residual_admissible",
    "minimality",
    "nonuniqueness_fixture",
    "canary_sw1_sign",
    "canary_flip_speed",
    "fv_cross_validation",
    "quadrature_convergence",
}


def _branch_a_solution() -> DeltaSolution:
    data = RiemannData(BrioState(1.0, 1.0), BrioState(0.0, 0.0))
    return generic_delta_shock(brio_flux_pair(), data, "a")


def test_bump_derivatives_match_finite_differences():
    phi = TestFunction((0.3, 0.6), (1.5, 0.4), p=4)
    h = 1e-6
    for x, t in ((0.3, 0.6), (-0.5, 0.8), (1.2, 0.45), (0.0, 0.95)):
        dx_fd = (phi.value(x + h, t) - phi.value(x - h, t)) / (2.0 * h)
        dt_fd = (phi.value(x, t + h) - phi.value(x, t - h)) / (2.0 * h)
        assert abs(phi.dx(x, t) - dx_fd) <= 1e-6
        assert abs(phi.dt(x, t) - dt_fd) <= 1e-6


def test_bump_support_and_center():
    phi = TestFunction((0.0, 1.0), (2.0, 0.5))
    assert phi.value(0.0, 1.0) == 1.0
    assert phi.value(2.0, 1.0) == 0.0
    assert phi.value(0.0, 1.6) == 0.0
    assert phi.dx(-2.5, 1.0) == 0.0
    assert phi.dt(0.0, 0.4) == 0.0


def test_bump_validation():
    with pytest.raises(PreconditionError):
        TestFunction((np.inf, 0.5), (1.0, 1.0))
    with pytest.raises(PreconditionError):
        TestFunction((0.0, 0.5), (0.0, 1.0))
    with pytest.raises(PreconditionError):
        TestFunction((0.0, 0.5), (1.0, -1.0))
    with pytest.raises(PreconditionError):
        TestFunction((0.0, 0.5), (1.0, 1.0), p=2)
    with pytest.raises(PreconditionError):
        TestFunction((0.0, 0.5), (1.0, 1.0), p=4.0)


def _bump_int_oracle(s, p):
    """I_p(s) by the binomial expansion of (1 - r^2)^p, in mpmath."""
    s = mp.mpf(s)
    return mp.fsum(mp.binomial(p, j) * (-1) ** j * s ** (2 * j + 1) / (2 * j + 1)
                   for j in range(p + 1))


def test_bump_integral_matches_mpmath(mp50):
    pts = np.concatenate([[-1.0, -1e-300, 0.0, 1e-8, 0.5, 1.0],
                          np.random.default_rng(15).uniform(-1.0, 1.0, 200)])
    for p in range(3, 13):
        array = _bump_int(pts, p)
        assert array.shape == pts.shape
        for s, a in zip(pts.tolist(), array.tolist()):
            ref = _bump_int_oracle(s, p)
            for got in (float(_bump_int(s, p)), a):
                assert abs(got - ref) <= 2e-15 * abs(ref), (p, s, got)


def test_battery_geometry():
    speeds = [-3.0, 4.0]
    T = 1.0
    battery = test_function_battery(speeds, T)
    assert len(battery) == 25
    for phi in battery:
        assert 0.0 < phi.center[1] < T
    # Supports tile the whole fan footprint with overlap.
    lo = min(p.center[0] - p.halfwidths[0] for p in battery)
    hi = max(p.center[0] + p.halfwidths[0] for p in battery)
    assert lo < -3.0 * T and hi > 4.0 * T
    with pytest.raises(PreconditionError):
        test_function_battery(speeds, 0.0)


def test_weak_residual_constant_state():
    state = BrioState(0.4, -1.3)
    sol = solve_brio(RiemannData(state, state))
    assert len(sol.segments) == 1
    res = weak_residual(sol, solution_battery(sol))
    assert max_residual(res) <= 1e-14


def test_weak_residual_node_count_validation():
    sol = _branch_a_solution()
    for bad in (0, -3, 2.0, "8", None):
        with pytest.raises(PreconditionError):
            weak_residual(sol, solution_battery(sol), nodes=bad)
        with pytest.raises(PreconditionError):
            weak_residual(sol, [], nodes=bad)


def test_weak_residual_single_carrier_jumps():
    res = weak_residual(_branch_a_solution(),
                        solution_battery(_branch_a_solution()), nodes=64)
    assert max_residual(res) <= 1e-8

    data = RiemannData(BrioState(2.0, 3.0), BrioState(0.0, 1.0))
    for branch in ("a", "b"):
        tri = generic_delta_shock(triangular_flux_pair(), data, branch)
        res = weak_residual(tri, solution_battery(tri), nodes=64)
        assert max_residual(res) <= 1e-8


def test_weak_residual_nonuniqueness_fixture():
    battery = test_function_battery([-1.0, 1.0], 1.0)
    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    assert max_residual(weak_residual(fix, battery)) <= 1e-8
    zero = nonuniqueness_example(0.0, -1.0, 1.0)
    assert max_residual(weak_residual(zero, battery)) <= 1e-12
    assert cardinality(fix) == 2
    assert cardinality(zero) == 0


def test_weak_residual_detects_wrong_rate(fixture_pair):
    left, right = fixture_pair
    sol = solve_brio(RiemannData(project(left, 1.0), project(right, 1.0)))
    good = max_residual(weak_residual(sol, solution_battery(sol)))
    assert good <= 1e-7 * 9.0
    s = sol.singular[0]
    pert = DeltaSolution(sol.initial, sol.flux, sol.segments,
                         (DeltaSingularity(s.speed, s.rate + 1e-3, 0.0, "v"),),
                         sol.fan, dict(sol.options))
    bad = max_residual(weak_residual(pert, solution_battery(pert)))
    assert bad > 1e-5


def test_arclength_weighting_is_a_different_functional():
    # Line terms gain a sqrt(1 + c^2) factor.  With a single carrier at
    # speed 1 that scales a nonzero term, so the residual moves; for the
    # symmetric non-uniqueness fixture the two line terms still cancel.
    sol = _branch_a_solution()
    battery = solution_battery(sol)
    assert max_residual(weak_residual(sol, battery)) <= 1e-12
    assert max_residual(weak_residual(sol, battery, arclength=True)) > 1e-3

    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    fb = test_function_battery([-1.0, 1.0], 1.0)
    assert max_residual(weak_residual(fix, fb, arclength=True)) <= 1e-8


def test_fv_grid_validation():
    with pytest.raises(PreconditionError):
        FvGrid(1.0, 1.0, 64)
    with pytest.raises(PreconditionError):
        FvGrid(-1.0, 1.0, 8)
    with pytest.raises(PreconditionError):
        FvGrid(-1.0, 1.0, 64.0)
    with pytest.raises(PreconditionError):
        FvGrid(-1.0, 1.0, 64, cfl=0.0)
    with pytest.raises(PreconditionError):
        FvGrid(-1.0, 1.0, 64, cfl=0.95)
    with pytest.raises(PreconditionError):
        FvGrid(-1.0, 1.0, 64, T=0.0)


def test_fv_constant_data_is_exact(base_left):
    grid = FvGrid(-2.0, 2.0, 64, 0.45, 0.1)
    _, u, q = fv_solve_trans(base_left, base_left, grid)
    assert float(np.abs(u - base_left.u).max()) == 0.0
    assert float(np.abs(q - base_left.q).max()) == 0.0
    assert compare_fan_fv(build_fan(base_left, base_left), grid) <= 1e-13


def test_fv_rarefaction_no_overshoot(base_left):
    right = TransState(2.0, forward_curve_1(base_left).q(2.0))
    _, u, q = fv_solve_trans(base_left, right, FvGrid(-5.0, 5.0, 4096))
    assert u.min() >= base_left.u - 1e-2
    assert u.max() <= right.u + 1e-2
    assert q.min() >= right.q - 1e-2
    assert q.max() <= base_left.q + 1e-2


def test_fv_error_shrinks_under_refinement(fixture_pair):
    fan = build_fan(*fixture_pair)
    coarse = compare_fan_fv(fan, FvGrid(-5.0, 5.0, 512))
    fine = compare_fan_fv(fan, FvGrid(-5.0, 5.0, 1024))
    assert fine < coarse
    assert coarse / fine >= 1.2


def test_random_pair_constructions(rng):
    for region in ("I", "II", "III", "IV"):
        left, right, mid = random_trans_pair(rng, region)
        assert right.q - 0.5 * right.u ** 2 >= 1e-3
        assert mid.q - 0.5 * mid.u ** 2 >= 1e-6
        if region in ("II", "IV"):
            assert mid.u < left.u
            assert abs(mid.q - shock_q_1(left, mid.u)) <= 1e-12 * (1.0 + abs(mid.q))
        else:
            assert mid.u > left.u
        if region in ("III", "IV"):
            assert right.u < mid.u
            assert abs(right.q - shock_q_2(mid, right.u)) <= 1e-12 * (1.0 + abs(right.q))
        else:
            assert right.u > mid.u
    # Unknown arguments are refused before anything is drawn.
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        random_trans_pair(rng, "V")
    assert rng.bit_generator.state == state


def test_random_brio_data_signs(rng):
    for _ in range(8):
        same = random_brio_data(rng, "II", "same")
        assert same.left.v * same.right.v > 0.0
        flip = random_brio_data(rng, "III", "flip")
        assert flip.left.v * flip.right.v < 0.0
    state = rng.bit_generator.state
    for region, sign_case in (("II", "both"), ("V", "same")):
        with pytest.raises(ValueError):
            random_brio_data(rng, region, sign_case)
    assert rng.bit_generator.state == state


def test_flip_pair_alternatives(rng):
    data = random_brio_data(rng, "II", "same")
    sol = solve_brio(data)
    scale = 1.0 + max(abs(data.left.u), abs(data.left.v),
                      abs(data.right.u), abs(data.right.v))
    alts = flip_pair_alternatives(sol, 3, rng)
    assert len(alts) == 3
    for alt in alts:
        assert cardinality(alt) == cardinality(sol) + 2
        assert len(alt.segments) == len(sol.segments) + 2
        res = max_residual(weak_residual(alt, solution_battery(alt)))
        assert res <= 1e-7 * scale

    empty = solve_brio(RiemannData(BrioState(0.0, 0.0), BrioState(0.0, 0.0)))
    with pytest.raises(PreconditionError):
        flip_pair_alternatives(empty, 1, rng)


def _validate_report(report: dict) -> None:
    path = importlib.resources.files("briodelta") / "schemas" / "report.schema.json"
    jsonschema.validate(report, json.loads(path.read_text()))


def test_property_suite_default_seed_passes():
    report = property_suite(seed=0)
    assert report["seed"] == 0
    names = {c["name"] for c in report["checks"]}
    assert names == EXPECTED_CHECKS
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == []
    for c in report["checks"]:
        assert set(c) == {"name", "passed", "measured", "tolerance"}

    _validate_report(report)


def test_property_suite_deterministic():
    assert property_suite(seed=7) == property_suite(seed=7)


def test_property_suite_fv_fallback_draws_nothing(monkeypatch):
    # compare_fan_fv draws nothing, so its failure changes only its own row.
    def blow_up(fan, grid):
        raise BlowUp("scheme state left the bounding box")

    plain = property_suite(seed=3)["checks"]
    monkeypatch.setattr(verify, "compare_fan_fv", blow_up)
    patched = property_suite(seed=3)["checks"]
    fv = {"name": "fv_cross_validation", "passed": False, "measured": math.inf,
          "tolerance": 0.0}
    assert patched == [fv if c["name"] == fv["name"] else c for c in plain]


def test_property_suite_reports_table_fallback_rows(monkeypatch):
    # A check that raises reports every row of its table entry, failed; a
    # fallback tolerance of None is the run's tol_weak.
    def fail(*args):
        raise PreconditionError("forced")

    monkeypatch.setattr(verify, "_recomputed_deficits", fail)
    monkeypatch.setattr(verify, "flip_pair_alternatives", fail)
    report = property_suite(seed=0, tol_weak=2e-7)
    _validate_report(report)
    rows = {c["name"]: c for c in report["checks"]}
    table = dict(verify._SUITE)
    expected = table[verify._delta_construction] + table[verify._minimality]
    assert len(expected) == 4
    for name, measured, tol in expected:
        assert rows[name] == {"name": name, "passed": False, "measured": measured,
                              "tolerance": 2e-7 if tol is None else tol}
    assert rows["minimality"]["tolerance"] == 2e-7
    assert [c["name"] for c in report["checks"]] == \
        [name for _, fallback in verify._SUITE for name, _, _ in fallback]


def test_property_suite_arclength_flags_weak_checks():
    report = property_suite(seed=0, arclength=True)
    _validate_report(report)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "weak_residual_admissible" in failed
    passed = {c["name"] for c in report["checks"] if c["passed"]}
    # The symmetric fixture and the structural canaries are insensitive to
    # the line-term weighting.
    assert "nonuniqueness_fixture" in passed
    assert "canary_sw1_sign" in passed
    assert "canary_flip_speed" in passed


def _panel_reference(sol, phis, *, nodes=32, arclength=False):
    """The weak residual as one NumPy round per time panel and bump.

    An independent evaluation of the same quadrature: the same nodes,
    panels and x-pieces, with every point sampled through sample_brio_many
    and the bump derivatives taken from TestFunction.
    """
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    rays = sorted({b for seg in sol.segments for b in (seg.xi_lo, seg.xi_hi)
                   if math.isfinite(b)})

    def panels(speeds, xlo, xhi, t_lo, t_hi):
        cuts = sorted([t_lo, t_hi] + [e / c for c in speeds if c != 0.0
                                      for e in (xlo, xhi)
                                      if t_lo < e / c < t_hi])
        breaks = []
        for x in cuts:
            if not breaks or x - breaks[-1] > 1e-13 * (1.0 + t_hi):
                breaks.append(x)
        for ta, tb in zip(breaks[:-1], breaks[1:]):
            if tb - ta > 1e-13 * (1.0 + tb):
                tmid = 0.5 * (ta + tb)
                yield tmid, tmid + 0.5 * (tb - ta) * gx, 0.5 * (tb - ta) * gw

    results = []
    for phi in phis:
        x0, t0 = phi.center
        wx, wt = phi.halfwidths
        xlo, xhi = x0 - wx, x0 + wx
        t_lo, t_hi = max(0.0, t0 - wt), t0 + wt
        parts_u, parts_v = [], []
        if t_hi > t_lo:
            for tmid, tn, tw in panels(rays, xlo, xhi, t_lo, t_hi):
                inside = [c for c in rays if xlo < c * tmid < xhi]
                xbreaks = np.column_stack(
                    [np.full(nodes, xlo), np.clip(np.outer(tn, inside), xlo, xhi),
                     np.full(nodes, xhi)])
                half = 0.5 * np.diff(xbreaks, axis=1)
                mid = 0.5 * (xbreaks[:, :-1] + xbreaks[:, 1:])
                X = mid[:, :, None] + half[:, :, None] * gx
                WX = half[:, :, None] * gw
                TT = np.broadcast_to(tn[:, None, None], X.shape)
                u, v = (a.reshape(X.shape)
                        for a in sample_brio_many(sol, (X / TT).ravel()))
                pt, px = phi.dt(X, TT), phi.dx(X, TT)
                parts_u.append(float(np.einsum(
                    "i,ijk->", tw, WX * (u * pt + sol.flux.f(u, v) * px))))
                parts_v.append(float(np.einsum(
                    "i,ijk->", tw, WX * (v * pt + sol.flux.g(u, v) * px))))
            for s in sol.singular:
                c = s.speed
                weight = math.sqrt(1.0 + c * c) if arclength else 1.0
                for _, tn, tw in panels((c,), xlo, xhi, t_lo, t_hi):
                    vals = (s.rate * tn + s.constant) * (
                        phi.dt(c * tn, tn) + c * phi.dx(c * tn, tn))
                    (parts_u if s.component == "u" else parts_v).append(
                        float(np.dot(tw, vals)) * weight)
        if t0 - wt < 0.0:
            xcuts = [xlo, 0.0, xhi] if xlo < 0.0 < xhi else [xlo, xhi]
            for xa, xb in zip(xcuts[:-1], xcuts[1:]):
                xn = 0.5 * (xa + xb) + 0.5 * (xb - xa) * gx
                xw = 0.5 * (xb - xa) * gw
                state = sol.initial.left if 0.5 * (xa + xb) < 0.0 \
                    else sol.initial.right
                pv = phi.value(xn, 0.0)
                parts_u.append(float(np.dot(xw, state.u * pv)))
                parts_v.append(float(np.dot(xw, state.v * pv)))
        results.append((abs(math.fsum(parts_u)), abs(math.fsum(parts_v))))
    return results


def _assert_matches_reference(sol, phis, scale, **kw):
    got = weak_residual(sol, phis, **kw)
    ref = _panel_reference(sol, phis, **kw)
    assert len(got) == len(ref)
    for (ru, rv), (qu, qv) in zip(got, ref):
        assert abs(ru - qu) <= 1e-13 * scale, (kw, ru, qu)
        assert abs(rv - qv) <= 1e-13 * scale, (kw, rv, qv)


def _raw_v_data(rng, n):
    """Raw data, u in [-2, 3] and 0.25 <= |v| <= 3 on both sides."""
    u = rng.uniform(-2.0, 3.0, size=(n, 2))
    v = rng.uniform(0.25, 3.0, size=(n, 2)) * rng.choice((-1.0, 1.0), size=(n, 2))
    return [RiemannData(BrioState(float(a), float(b)), BrioState(float(c), float(d)))
            for (a, c), (b, d) in zip(u, v)]


def test_batched_weak_residual_matches_panel_reference(rng, fixture_pair):
    sols = []
    for region in ("I", "II", "III", "IV"):
        for sign_case in ("same", "flip"):
            data = random_brio_data(rng, region, sign_case)
            sols.append((solve_brio(data), data_scale(data)))
    # The finest rules on fewer fans: each region once at 64 nodes, one
    # two-shock fan with a flip at 128.
    subsets = {64: sols[::2], 128: sols[-1:]}
    for nodes in (4, 8, 16, 32, 64, 128):
        for sol, scale in subsets.get(nodes, sols):
            _assert_matches_reference(sol, solution_battery(sol), scale,
                                      nodes=nodes)
    for sol, scale in sols:
        _assert_matches_reference(sol, solution_battery(sol), scale,
                                  arclength=True)

    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    for alt in flip_pair_alternatives(solve_brio(data), 3, rng):
        _assert_matches_reference(alt, solution_battery(alt), data_scale(data))

    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    battery = test_function_battery([-1.0, 1.0], 1.0)
    for arclength in (False, True):
        _assert_matches_reference(fix, battery, 1.0, arclength=arclength)

    data, canary = _canary_flip_solution()
    _assert_matches_reference(canary, solution_battery(canary), data_scale(data))

    # Exponents mixed within one battery: at 8 nodes, constant wedges of
    # bumps with p < 8 are integrated in closed form in x and the others
    # sampled.
    sol, scale = sols[0]
    mixed = [TestFunction(phi.center, phi.halfwidths, 3 + i % 8)
             for i, phi in enumerate(solution_battery(sol))]
    for nodes in (8, 32):
        _assert_matches_reference(sol, mixed, scale, nodes=nodes)

    # Raw draws at 8 nodes: a fifth of each battery per draw, every bump
    # position covered once in five draws.
    for i, data in enumerate(_raw_v_data(np.random.default_rng(808), 200)):
        sol = solve_brio(data)
        _assert_matches_reference(sol, solution_battery(sol)[i % 5::5],
                                  data_scale(data), nodes=8)


def test_weak_residual_bumps_are_independent(rng):
    for region in ("I", "IV"):
        sol = solve_brio(random_brio_data(rng, region, "flip"))
        battery = solution_battery(sol)
        battery[3] = TestFunction(battery[3].center, battery[3].halfwidths, 4)
        for nodes in (8, 32, 128):
            full = weak_residual(sol, battery, nodes=nodes)
            for phi, entry in zip(battery, full):
                assert weak_residual(sol, [phi], nodes=nodes) == [entry]
    assert weak_residual(sol, []) == []
