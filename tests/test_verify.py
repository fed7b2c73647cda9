"""Weak-form residuals, finite-volume cross-checks and the property suite."""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import replace

import jsonschema
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
    ConstantSegment,
    DeltaSingularity,
    DeltaSolution,
    RarefactionSegment,
    _rarefaction_uv,
    cardinality,
    generic_delta_shock,
    nonuniqueness_example,
    sample_brio_many,
    solve_brio,
    wave_speeds,
)
from briodelta.errors import BlowUp, BrioError, PreconditionError, QuadratureFailure
from briodelta.riemann import build_fan
from briodelta.verify import (
    TOL_WEAK,
    FvGrid,
    TestFunction,
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
from briodelta.wave_curves import IntegralCurve, forward_curve_1, shock_q_1, shock_q_2

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
    phi = TestFunction((0.3, 0.6), (1.5, 0.4))
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
    for bad in (0, -3, 2.0, "8", None, True):
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
    # The FV row is computed once per process; recompute it with the patch.
    verify._fv_cross_validation_row.cache_clear()
    patched = property_suite(seed=3)["checks"]
    fv = {"name": "fv_cross_validation", "passed": False, "measured": math.inf,
          "tolerance": 0.0}
    assert patched == [fv if c["name"] == fv["name"] else c for c in plain]


def test_property_suite_reports_table_fallback_rows(monkeypatch):
    # A check that raises reports every row of its table entry, failed.
    def fail(*args):
        raise PreconditionError("forced")

    monkeypatch.setattr(verify, "_recomputed_deficits", fail)
    monkeypatch.setattr(verify, "flip_pair_alternatives", fail)
    report = property_suite(seed=0)
    _validate_report(report)
    rows = {c["name"]: c for c in report["checks"]}
    table = dict(verify._SUITE)
    expected = table[verify._delta_construction] + table[verify._minimality]
    assert len(expected) == 4
    for name, measured, tol in expected:
        assert rows[name] == {"name": name, "passed": False, "measured": measured,
                              "tolerance": tol}
    assert rows["minimality"]["tolerance"] == TOL_WEAK
    assert [c["name"] for c in report["checks"]] == \
        [name for _, fallback in verify._SUITE for name, _, _ in fallback]


def test_suite_weak_rows_fail_on_a_nan_residual(monkeypatch):
    # A NaN that is not the first entry must not vanish in the suite's max.
    weak = verify.weak_residual

    def nan_in_second_bump(sol, phis, **kw):
        res = weak(sol, phis, **kw)
        return res[:1] + [(math.nan, 0.0)] + res[2:]

    monkeypatch.setattr(verify, "weak_residual", nan_in_second_bump)
    rng = np.random.default_rng(0)
    for check, tol in ((verify._weak_residual_admissible, TOL_WEAK),
                       (verify._minimality, TOL_WEAK), (verify._canary_flip_speed, 1e-4)):
        assert check(rng) == [(False, math.inf, tol)], check
    # The convergence row has one bump: a NaN r_v in its reference or in
    # one of its levels must fail it too.
    for bad in (256, 16):
        def nan_r_v(sol, phis, nodes=32, bad=bad, **kw):
            res = weak(sol, phis, nodes=nodes, **kw)
            return [(ru, math.nan) for ru, _ in res] if nodes == bad else res

        monkeypatch.setattr(verify, "weak_residual", nan_r_v)
        assert verify._quadrature_convergence(rng)[0][0] is False, bad
    assert verify._worst([(0.0, 1.0), (math.nan, 0.0)]) == math.inf
    assert verify._worst([(0.0, 1.0), (2.0, 0.5)]) == 2.0


def test_quadrature_convergence_fixture_is_above_the_floor():
    # The suite's convergence row needs a residual to converge: its
    # fixture's rarefactions lag by 1e-3 in xi, and the weak test flags it
    # while the same fan without the lag reads the rounding floor.
    data, sol, phi = verify._defective_fan()
    scale = data_scale(data)
    good = solve_brio(data)
    assert max_residual(weak_residual(good, [phi], nodes=256)) <= 1e-14 * scale
    for nodes in (16, 256):
        assert max_residual(weak_residual(sol, [phi], nodes=nodes)) > 10.0 * TOL_WEAK * scale


_leggauss = functools.lru_cache(np.polynomial.legendre.leggauss)


def _panel_reference(sol, phis, *, nodes=32):
    """The weak residual in x-pieces, one NumPy round per time panel and bump.

    An independent route to the same integral: the space-time integral of
    the regular part over time panels cut where a ray crosses the support
    and, at each time node, x-pieces between the rays, with every point
    sampled through sample_brio_many and the bump derivatives taken from
    TestFunction; one line integral per carrier and time panel; and the
    data against phi(x, 0).  On piecewise-constant solutions it is exact
    once nodes >= 2p + 1, as weak_residual is.
    """
    gx, gw = _leggauss(nodes)
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
                for _, tn, tw in panels((c,), xlo, xhi, t_lo, t_hi):
                    vals = (s.rate * tn + s.constant) * (
                        phi.dt(c * tn, tn) + c * phi.dx(c * tn, tn))
                    (parts_u if s.component == "u" else parts_v).append(
                        float(np.dot(tw, vals)))
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


def _support(phi):
    """(xlo, xhi, t_lo, t_hi) of a bump's support in t >= 0."""
    x0, t0 = phi.center
    wx, wt = phi.halfwidths
    return x0 - wx, x0 + wx, max(0.0, t0 - wt), t0 + wt


def _fan_range(seg, phi):
    """[xa, xb] of the segment's rays that meet the support, or None.

    The support's rays run from the smallest to the largest slope x/t of its
    corners, a corner at t = 0 having slope +-inf by the sign of its x.
    """
    xlo, xhi, t_lo, t_hi = _support(phi)
    if not t_hi > t_lo:
        return None

    def slopes(x):
        return [x / t if t > 0.0 else math.copysign(math.inf, x)
                for t in (t_lo, t_hi) if t > 0.0 or x != 0.0]

    xa, xb = max(seg.xi_lo, min(slopes(xlo))), min(seg.xi_hi, max(slopes(xhi)))
    return (xa, xb) if xa < xb else None


def _fan_reference(sol, seg, phi, gx, gw):
    """u and v parts of one rarefaction segment's interior in Green form.

    Over the rays of the segment that meet the support, with its own
    Gauss-Legendre nodes in xi: m0 = int phi dt on each ray, with
    min(n, 2p + 1) nodes in t, times D = (A(U) - xi) U', the state sampled
    through sample_brio_many and U' evaluated node by node from t, which is
    recovered from |v| = sqrt(t (t + 2))/2.
    """
    span = _fan_range(seg, phi)
    if span is None:
        return [], []
    xlo, xhi, t_lo, t_hi = _support(phi)
    hx, hw = _leggauss(min(len(gx), 2 * verify.BUMP_EXPONENT + 1))
    xa, xb = span
    xn = 0.5 * (xa + xb) + 0.5 * (xb - xa) * gx
    xw = 0.5 * (xb - xa) * gw
    with np.errstate(divide="ignore"):
        a, b = xlo / xn, xhi / xn
    ta = np.maximum(t_lo, np.where(xn > 0.0, a, np.where(xn < 0.0, b, -np.inf)))
    tb = np.minimum(t_hi, np.where(xn > 0.0, b, np.where(xn < 0.0, a, np.inf)))
    tn = 0.5 * (ta + tb)[:, None] + 0.5 * (tb - ta)[:, None] * hx
    m0 = (0.5 * (tb - ta)[:, None] * hw * phi.value(xn[:, None] * tn, tn)).sum(1)
    us, vs = sample_brio_many(sol, xn)
    parts_u, parts_v = [], []
    for xi, w, u, v in zip(xn.tolist(), (xw * m0).tolist(), us.tolist(), vs.tolist()):
        t = 4.0 * v * v / (1.0 + math.sqrt(1.0 + 4.0 * v * v))
        if seg.family == 2:
            du = (t + 1.0) / (2.0 * t + 1.0)
            vdv = t * (t + 1.0) / (2.0 * (2.0 * t + 1.0))
        else:
            du = (t + 1.0) / (2.0 * t + 3.0)
            vdv = -(t + 1.0) * (t + 2.0) / (2.0 * (2.0 * t + 3.0))
        parts_u.append(-w * ((u - xi) * du + vdv))
        parts_v.append(-w * (v * du + ((u - 1.0 - xi) * vdv / v if v != 0.0 else 0.0)))
    return parts_u, parts_v


def _ray_reference(sol, phi, nodes):
    """u and v parts of the ray rows of one bump, one NumPy round per ray.

    Each segment adds (F - c U) of its upper edge state at its upper edge
    and subtracts that of its lower edge state at its lower one, a
    rarefaction's edge states sampled on its edge rays.  A carrier's
    int beta(t) (phi_t + c phi_x) dt is taken by parts: -rate int phi dt
    on its ray and -constant phi(0, 0).  Each ray is integrated where it
    lies inside the support, with min(n, 2p + 1) nodes.
    """
    coef = {}
    for seg in sol.segments:
        if isinstance(seg, RarefactionSegment):
            us, vs, _ = _rarefaction_uv(seg, [seg.xi_lo, seg.xi_hi])
            states = zip(us.tolist(), vs.tolist())
        else:
            states = [(seg.state.u, seg.state.v)] * 2
        for c, sign, (u, v) in zip((seg.xi_lo, seg.xi_hi), (-1.0, 1.0), states):
            if math.isfinite(c):
                k = coef.setdefault(c, [0.0, 0.0])
                k[0] += sign * (sol.flux.f(u, v) - c * u)
                k[1] += sign * (sol.flux.g(u, v) - c * v)
    parts_u, parts_v = [], []
    for s in sol.singular:
        at = 0 if s.component == "u" else 1
        coef.setdefault(s.speed, [0.0, 0.0])[at] -= s.rate
        (parts_u, parts_v)[at].append(-s.constant * float(phi.value(0.0, 0.0)))
    x0, t0 = phi.center
    wx, wt = phi.halfwidths
    t_lo, t_hi = max(0.0, t0 - wt), t0 + wt
    hx, hw = _leggauss(min(nodes, 2 * verify.BUMP_EXPONENT + 1))
    for c, (ku, kv) in coef.items():
        if c == 0.0:
            ta, tb = (t_lo, t_hi) if x0 - wx < 0.0 < x0 + wx else (1.0, 0.0)
        else:
            ta, tb = sorted(((x0 - wx) / c, (x0 + wx) / c))
            ta, tb = max(t_lo, ta), min(t_hi, tb)
        if not ta < tb:
            continue
        tn = 0.5 * (ta + tb) + 0.5 * (tb - ta) * hx
        tw = 0.5 * (tb - ta) * hw
        val = phi.value(c * tn, tn)
        parts_u.append(float(np.dot(tw, ku * val)))
        parts_v.append(float(np.dot(tw, kv * val)))
    return parts_u, parts_v


def _ray_panel_reference(sol, phis, *, nodes=32):
    """The weak residual's own quadrature, one bump at a time.

    Rarefaction segments in (xi, t) by _fan_reference, constant wedges and
    carriers on their rays by _ray_reference, and the data minus the outer
    segments' states against phi(x, 0).
    """
    gx, gw = _leggauss(nodes)
    results = []
    for phi in phis:
        parts_u, parts_v = _ray_reference(sol, phi, nodes)
        for seg in sol.segments:
            if isinstance(seg, RarefactionSegment):
                pu, pv = _fan_reference(sol, seg, phi, gx, gw)
                parts_u += pu
                parts_v += pv
        x0, t0 = phi.center
        wx, wt = phi.halfwidths
        if t0 - wt < 0.0:
            xcuts = [x0 - wx, 0.0, x0 + wx] if x0 - wx < 0.0 < x0 + wx else [x0 - wx, x0 + wx]
            for xa, xb in zip(xcuts[:-1], xcuts[1:]):
                xn = 0.5 * (xa + xb) + 0.5 * (xb - xa) * gx
                xw = 0.5 * (xb - xa) * gw
                if 0.5 * (xa + xb) < 0.0:
                    data, seg = sol.initial.left, sol.segments[0].state
                else:
                    data, seg = sol.initial.right, sol.segments[-1].state
                pv = phi.value(xn, 0.0)
                parts_u.append(float(np.dot(xw, (data.u - seg.u) * pv)))
                parts_v.append(float(np.dot(xw, (data.v - seg.v) * pv)))
        results.append((abs(math.fsum(parts_u)), abs(math.fsum(parts_v))))
    return results


def _assert_matches_reference(sol, phis, scale, *, reference=_ray_panel_reference,
                              tol=1e-13, **kw):
    got = weak_residual(sol, phis, **kw)
    ref = reference(sol, phis, **kw)
    assert len(got) == len(ref)
    for (ru, rv), (qu, qv) in zip(got, ref):
        assert abs(ru - qu) <= tol * scale, (kw, ru, qu)
        assert abs(rv - qv) <= tol * scale, (kw, rv, qv)


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
    # On a correct fan D = 0 hides the fan rows' m0; lagging copies of the
    # region-I and region-II fans give it weight (D = -LAG U').
    for sol, scale in (sols[0], sols[2]):
        bad = verify._lagging(sol)
        battery = solution_battery(bad)
        assert max_residual(weak_residual(bad, battery)) > 1e-6
        for nodes in (4, 8, 16, 32):
            _assert_matches_reference(bad, battery, scale, nodes=nodes)

    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    for alt in flip_pair_alternatives(solve_brio(data), 3, rng):
        _assert_matches_reference(alt, solution_battery(alt), data_scale(data))

    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    _assert_matches_reference(fix, test_function_battery([-1.0, 1.0], 1.0), 1.0)

    data, canary = _canary_flip_solution()
    _assert_matches_reference(canary, solution_battery(canary), data_scale(data))

    # Raw draws at 8 nodes: a fifth of each battery per draw, every bump
    # position covered once in five draws.
    for i, data in enumerate(_raw_v_data(np.random.default_rng(808), 200)):
        sol = solve_brio(data)
        _assert_matches_reference(sol, solution_battery(sol)[i % 5::5],
                                  data_scale(data), nodes=8)


def test_weak_residual_agrees_with_x_piece_quadrature(rng):
    # The fan rows integrate rarefactions in (xi, t); the x-piece reference
    # reaches the same integral in (x, t).  At 128 nodes both are converged.
    cases = []
    for region in ("I", "II", "III", "IV"):
        data = random_brio_data(rng, region, "same")
        cases.append((solve_brio(data), data_scale(data)))
    data, canary = _canary_flip_solution()
    cases.append((canary, data_scale(data)))
    for sol, scale in cases:
        _assert_matches_reference(sol, solution_battery(sol), scale, nodes=128,
                                  reference=_panel_reference, tol=1e-12)


def test_weak_residual_agrees_with_x_piece_quadrature_on_defective_fans(rng):
    # On a correct fan D = (A(U) - xi) U' vanishes, so the fan rows' sign
    # and U' go unseen.  With every rarefaction lagging by 1e-3 in xi, D and
    # the jumps at the fans' edges are O(1e-3), and the Green form at 32
    # nodes must still equal the space-time integral that the x-piece
    # reference takes.
    # A quarter of each battery per case, every bump position covered once
    # in the four cases.
    cases = [random_brio_data(rng, region, sign_case)
             for region, sign_case in (("I", "flip"), ("II", "same"), ("III", "flip"))]
    cases = [(data, solve_brio(data)) for data in cases]
    cases.append(_canary_flip_solution())
    for i, (data, sol) in enumerate(cases):
        bad = verify._lagging(sol)
        battery = solution_battery(bad)[i % 4::4]
        got = weak_residual(bad, battery, nodes=32)
        ref = _panel_reference(bad, battery, nodes=128)
        assert max_residual(got) > 1e-6
        for pair, ref_pair in zip(got, ref, strict=True):
            for r, q in zip(pair, ref_pair):
                assert abs(r - q) <= 1e-12 * data_scale(data), (data, r, q)


def test_weak_residual_is_exact_on_piecewise_constant_solutions(rng):
    # Constant wedges and carriers are integrated on their rays, the x-piece
    # reference in (x, t); on these solutions both rules are exact once
    # nodes >= 2p + 1.  The canary's two rarefactions are resolved by both
    # at 16 nodes.
    cases = []
    for sign_case in ("same", "flip"):
        data = random_brio_data(rng, "IV", sign_case)
        sol = solve_brio(data)
        cases.append((sol, solution_battery(sol), data_scale(data)))
    # Every other solution echoes the data at its ends; here the outer left
    # state is moved off the data, so the initial-data rows carry the jump.
    sol, phis, scale = cases[0]
    outer = sol.segments[0]
    moved = replace(sol, segments=(
        replace(outer, state=BrioState(outer.state.u + 0.1, outer.state.v)),) + sol.segments[1:])
    assert max_residual(weak_residual(moved, phis)) > 1e-2
    cases.append((moved, phis, scale))
    data = RiemannData(BrioState(1.0, 1.0), BrioState(0.0, 0.0))
    for branch in ("a", "b"):
        sol = generic_delta_shock(brio_flux_pair(), data, branch)
        cases.append((sol, solution_battery(sol), data_scale(data)))
    # The fixture's pair of constants cancels at x = 0; with its second
    # carrier dropped, the first one's constant is a Dirac mass at the
    # origin that the data lack, and only its t = 0 row reports it.
    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    phis = test_function_battery([-1.0, 1.0], 1.0)
    lone = replace(fix, singular=fix.singular[:1])
    assert max_residual(weak_residual(lone, phis)) > 1e-4
    cases += [(fix, phis, 1.0), (lone, phis, 1.0)]
    data, canary = _canary_flip_solution()
    cases.append((canary, solution_battery(canary), data_scale(data)))
    for nodes in (16, 32, 64):
        for sol, phis, scale in cases:
            _assert_matches_reference(sol, phis, scale, nodes=nodes,
                                      reference=_panel_reference)


def _shock_only_data(rng, size):
    """Raw data of a forward-built two-shock fan, u and v of order size."""
    while True:
        u = size * float(rng.uniform(-2.0, 3.0))
        left = TransState(u, 0.5 * u * u + size * size * float(rng.uniform(0.1, 3.0)))
        um = u - size * float(rng.uniform(0.1, 1.2))
        ur = um - size * float(rng.uniform(0.1, 1.2))
        try:
            mid = TransState(um, shock_q_1(left, um))
            right = TransState(ur, shock_q_2(mid, ur))
        except BrioError:
            continue
        if min(mid.slack, right.slack) > 1e-3 * size * size:
            s = 1.0 if rng.uniform() < 0.5 else -1.0
            return RiemannData(project(left, s), project(right, s if rng.uniform() < 0.5 else -s))


def test_weak_residual_rounding_floor_is_linear_in_the_data():
    # A shock-only fan is piecewise constant, and each ray's weight is a
    # difference of the two sides' fluxes minus the carrier's rate, which
    # vanishes but for rounding.  So only rounding remains, and the scaled
    # floor stays near eps |data| at any node count, below 2p + 1 = 13 too:
    # the worst scaled residual reads 0.51-0.56 eps |data| on this seed and
    # at most 0.85 over seeds 1-8, at 4, 8, 32 and 128 nodes.
    K = 2.0
    eps = np.finfo(float).eps
    rng = np.random.default_rng(24)
    for k in range(9):
        for _ in range(8):
            data = _shock_only_data(rng, 10.0 ** k)
            sol = solve_brio(data)
            assert all(isinstance(seg, ConstantSegment) for seg in sol.segments)
            scale = data_scale(data)
            for nodes in (4, 8, 32, 128):
                res = weak_residual(sol, solution_battery(sol), nodes=nodes)
                assert max_residual(res) / scale <= K * eps * scale, (k, nodes, data)


def test_fan_rows_invert_each_xi_node_once(rng, monkeypatch):
    # One row per (bump, rarefaction segment) whose rays meet the support,
    # n ray inverses per row plus both edges per segment, all in one call
    # per segment.
    sol = solve_brio(random_brio_data(rng, "I", "same"))
    battery = solution_battery(sol)
    fans = [seg for seg in sol.segments if isinstance(seg, RarefactionSegment)]
    rows = sum(_fan_range(seg, phi) is not None for seg in fans for phi in battery)
    inverted, ray = [], IntegralCurve.ray

    def counting_ray(self, xi):
        inverted.append(np.size(xi))
        return ray(self, xi)

    monkeypatch.setattr(IntegralCurve, "ray", counting_ray)
    weak_residual(sol, battery, nodes=32)
    assert len(fans) == 2 and rows > 0
    assert sum(inverted) == 32 * rows + 2 * len(fans), (sum(inverted), rows)
    assert len(inverted) == len(fans), inverted


def test_weak_residual_bumps_are_independent(rng):
    for region in ("I", "IV"):
        sol = solve_brio(random_brio_data(rng, region, "flip"))
        battery = solution_battery(sol)
        for nodes in (8, 32, 128):
            full = weak_residual(sol, battery, nodes=nodes)
            for phi, entry in zip(battery, full):
                assert weak_residual(sol, [phi], nodes=nodes) == [entry]
    assert weak_residual(sol, []) == []


# The weak path as it stood before the bump-major entry table, kept to pin
# weak_residual and solution_battery bit for bit: the same kernels, with
# the parts grouped by a stable argsort on their bump.


def _reference_battery(speeds, T):
    finite = [s for s in speeds if math.isfinite(s)]
    lo = min(finite + [0.0]) * T - 0.75
    hi = max(finite + [0.0]) * T + 0.75
    xcs = np.linspace(lo, hi, 5)
    tcs = np.linspace(T / 6.0, 5.0 * T / 6.0, 5)
    return [TestFunction((float(xc), float(tc)), ((hi - lo) / 4.0, T / 5.0))
            for tc in tcs for xc in xcs]


def _reference_m0(bumps, r, xi, ta, tb, gx, gw):
    mid, half = 0.5 * (ta + tb), 0.5 * (tb - ta)
    x0, wx, t0, wt = (bumps[k][r] for k in ("x0", "wx", "t0", "wt"))

    def hat(a, b):
        return np.maximum(1.0 - np.square(a[..., None] + b[..., None] * gx), 0.0)

    y = hat((xi * mid - x0) / wx, xi * half / wx) * hat((mid - t0) / wt, half / wt)
    z, p = None, verify.BUMP_EXPONENT
    while p:
        if p & 1:
            z = y if z is None else z * y
        p >>= 1
        if p:
            y = y * y
    return half * (z * gw).sum(-1)


def _reference_weak_residual(sol, phis, nodes=32):
    gx, gw = verify._gl(nodes)
    x0, t0, wx, wt = np.array([phi.center + phi.halfwidths for phi in phis]).T
    bumps = {"x0": x0, "t0": t0, "wx": wx, "wt": wt, "xlo": x0 - wx, "xhi": x0 + wx,
             "t_lo": np.maximum(t0 - wt, 0.0), "t_hi": t0 + wt}
    # Fan rows, per rarefaction segment, and every segment's edge states.
    live = np.flatnonzero(bumps["t_hi"] > bumps["t_lo"])
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.fmin(bumps["xlo"] / bumps["t_lo"], bumps["xlo"] / bumps["t_hi"])[live]
        hi = np.fmax(bumps["xhi"] / bumps["t_lo"], bumps["xhi"] / bumps["t_hi"])[live]
    entries, states = [], []
    for seg in sol.segments:
        if isinstance(seg, ConstantSegment):
            states.append(((seg.state.u, seg.state.v),) * 2)
            continue
        xa, xb = np.maximum(lo, seg.xi_lo), np.minimum(hi, seg.xi_hi)
        hit = xa < xb
        X, XW = verify._nodes(xa[hit], xb[hit], gx, gw)
        xi, wxi = X.ravel(), XW.ravel()
        u, v, t = _rarefaction_uv(seg, np.append(xi, (seg.xi_lo, seg.xi_hi)))
        states.append(tuple(zip(u[-2:].tolist(), v[-2:].tolist())))
        u, v, t = u[:-2], v[:-2], t[:-2]
        fast = seg.family == 2
        du = (t + 1.0) / (2.0 * t + (1.0 if fast else 3.0))
        vdv = (0.5 * t if fast else -0.5 * (t + 2.0)) * du
        dv = np.divide(vdv, v, out=np.zeros_like(v), where=v != 0.0)
        entries.append((np.repeat(live[hit], len(gx)), xi,
                        -wxi * ((u - xi) * du + vdv), -wxi * (v * du + (u - 1.0 - xi) * dv)))
    # The ray table: (c, ku, kv) per distinct finite ray, tiled over the bumps.
    edges = [seg.xi_hi for seg in sol.segments[:-1]]
    rays = sorted({*edges, *(s.speed for s in sol.singular)})
    table = np.zeros((len(rays), 3))
    table[:, 0] = rays
    f, g = sol.flux.f, sol.flux.g
    for c, (_, (ul, vl)), ((ur, vr), _) in zip(edges, states, states[1:]):
        table[rays.index(c), 1:] += ((f(ul, vl) - f(ur, vr)) - c * (ul - ur),
                                     (g(ul, vl) - g(ur, vr)) - c * (vl - vr))
    for s in sol.singular:
        table[rays.index(s.speed), 1 if s.component == "u" else 2] -= s.rate
    entries.append((np.repeat(np.arange(len(phis)), len(table)),
                    *np.tile(table, (len(phis), 1)).T))
    # Every entry's weights times m0.
    b, xi, wu, wv = (np.concatenate(col) for col in zip(*entries))
    with np.errstate(divide="ignore", invalid="ignore"):
        a, bb = bumps["xlo"][b] / xi, bumps["xhi"][b] / xi
    neg = np.signbit(xi)
    ta = np.fmax(bumps["t_lo"][b], np.where(neg, bb, a))
    tb = np.fmin(bumps["t_hi"][b], np.where(neg, a, bb))
    fan = slice(len(b) - len(entries[-1][0]))
    if np.any(tb[fan] - ta[fan] < -1e-12 * (1.0 + np.abs(tb[fan]))):
        raise QuadratureFailure("support times inverted on a ray")
    keep = ta < tb
    b, xi, wu, wv, ta, tb = (a[keep] for a in (b, xi, wu, wv, ta, tb))
    tx, tw = verify._gl(min(nodes, verify._RAY_EXACT))
    m0 = np.empty_like(xi)
    step = max(1, 8192 // len(tx))
    for i in range(0, len(b), step):
        k = slice(i, i + step)
        m0[k] = _reference_m0(bumps, b[k], xi[k], ta[k], tb[k], tx, tw)
    parts = [(b, m0 * wu, m0 * wv)]
    # The t = 0 rows: the carriers' constants, then the data's jumps.
    cu = math.fsum(s.constant for s in sol.singular if s.component == "u")
    cv = math.fsum(s.constant for s in sol.singular if s.component == "v")
    if cu or cv:
        phi0 = verify._bump(-x0 / wx) * verify._bump(-t0 / wt)
        r = np.flatnonzero(phi0)
        parts.append((r, -cu * phi0[r], -cv * phi0[r]))
    data, left, right = sol.initial, sol.segments[0].state, sol.segments[-1].state
    if (left, right) != (data.left, data.right):
        low = np.flatnonzero(t0 - wt < 0.0)
        xlo, xhi = bumps["xlo"][low], bumps["xhi"][low]
        split = (xlo < 0.0) & (0.0 < xhi)
        r = np.concatenate([low, low[split]])
        xa = np.concatenate([xlo, np.zeros(split.sum())])
        xb = np.concatenate([np.where(split, 0.0, xhi), xhi[split]])
        on_left = 0.5 * (xa + xb) < 0.0
        du = np.where(on_left, data.left.u - left.u, data.right.u - right.u)
        dv = np.where(on_left, data.left.v - left.v, data.right.v - right.v)
        k = (du != 0.0) | (dv != 0.0)
        r, xa, xb, du, dv = r[k], xa[k], xb[k], du[k], dv[k]
        X, XW = verify._nodes(xa, xb, gx, gw)
        mass = (XW * verify._bump((X - x0[r, None]) / wx[r, None])).sum(-1)
        mass *= verify._bump(-t0[r] / wt[r])
        parts.append((r, du * mass, dv * mass))
    # Grouped by bump, each group summed exactly.
    b, pu, pv = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(b, kind="stable")
    pu, pv = pu[order].tolist(), pv[order].tolist()
    ends = np.cumsum(np.bincount(b, minlength=len(phis))).tolist()
    return [(abs(math.fsum(pu[i:j])), abs(math.fsum(pv[i:j])))
            for i, j in zip([0] + ends[:-1], ends)]


def test_weak_path_is_bit_identical_to_the_sorted_assembly(rng):
    # The bump-major entry table reorders and regroups the parts, never a
    # value: every residual and every battery equals the reference above
    # bit for bit (repr tells -0.0 from 0.0 and a NumPy float from a float).
    sols = [solve_brio(random_brio_data(rng, region, sign_case))
            for region in ("I", "II", "III", "IV") for sign_case in ("same", "flip")]
    sols += [verify._lagging(sols[0]), verify._lagging(sols[3])]
    outer = sols[-3].segments[0]  # region IV: the initial-data rows carry a jump
    sols.append(replace(sols[-3], segments=(replace(outer, state=BrioState(
        outer.state.u + 0.1, outer.state.v)),) + sols[-3].segments[1:]))
    sols.append(nonuniqueness_example(1.0, -1.0, 1.0))
    brng = np.random.default_rng(33)
    for sol in sols:
        battery = solution_battery(sol)
        assert repr(battery) == repr(_reference_battery(wave_speeds(sol), 1.0))
        # Random bumps, some reaching t < 0 or holding the origin.
        loose = [TestFunction((float(x), float(t)), (float(wx), float(wt)))
                 for x, t, wx, wt in zip(brng.uniform(-3.0, 3.0, 6), brng.uniform(-0.4, 1.5, 6),
                                         brng.uniform(0.2, 3.0, 6), brng.uniform(0.1, 1.0, 6))]
        for phis in (battery, loose):
            for nodes in (1, 4, 13, 32, 64):
                got = weak_residual(sol, phis, nodes=nodes)
                assert repr(got) == repr(_reference_weak_residual(sol, phis, nodes)), nodes
    for _ in range(20):
        speeds = list(brng.uniform(-5.0, 5.0, int(brng.integers(0, 5)))) + [math.inf]
        T = float(10.0 ** brng.uniform(-3.0, 3.0))
        assert repr(test_function_battery(speeds, T)) == repr(_reference_battery(speeds, T))
    # A fan node beyond the float range: both raise on its inverted support times.
    segs = list(sols[0].segments)
    k = next(i for i, seg in enumerate(segs) if isinstance(seg, RarefactionSegment))
    segs[k] = replace(segs[k], xi_lo=1e308, xi_hi=1.7e308)
    huge = replace(sols[0], segments=tuple(segs))
    phi = [TestFunction((1e308, 1.0), (5e307, 0.5))]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for weak in (weak_residual, _reference_weak_residual):
            with pytest.raises(QuadratureFailure, match="support times inverted"):
                weak(huge, phi)
