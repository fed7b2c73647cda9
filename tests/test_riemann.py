"""Middle-state solve, classification, fan assembly and fan sampling."""

from __future__ import annotations

import importlib.resources
import importlib.util
import json
import types
from pathlib import Path

import jsonschema
import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from briodelta import riemann
from briodelta.core import (
    BrioState,
    TransState,
    family_lambda,
    lift,
    trans_lambdas,
    trans_shock_speed,
)
from briodelta.errors import BracketFailure, BrioError, PreconditionError
from briodelta.riemann import (
    TOL_ROOT,
    Region,
    Wave,
    _polish_root,
    _states_coincide,
    build_fan,
    classify,
    fan_to_dict,
    lax_check,
    sample_fan,
    sample_fan_many,
    solve_middle,
)
from briodelta.verify import random_trans_pair
from briodelta.wave_curves import (
    Backward2Curve,
    Forward1Curve,
    _energy,
    backward_curve_2,
    forward_curve_1,
    shock_q_1,
    shock_q_2,
)

from conftest import (
    assert_close,
    assert_same_bits,
    raw_pool_pairs,
    region_iv_pair,
    sampler_rays,
)
from conftest import mp_excess_b2 as _mp_excess_b2
from conftest import mp_excess_f1 as _mp_excess_f1

MIDDLE_FIXTURE = TransState(0.5406739149257195, 6.400775468929284)

_spec = importlib.util.spec_from_file_location(
    "middle_sweep", Path(__file__).resolve().parent.parent / "scripts" / "middle_sweep.py")
middle_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(middle_sweep)


def _schema(name: str) -> dict:
    path = importlib.resources.files("briodelta") / "schemas" / name
    return json.loads(path.read_text())


def test_middle_state_fixture(fixture_pair):
    left, right = fixture_pair
    mid = solve_middle(left, right)
    assert_close(mid.u, MIDDLE_FIXTURE.u, 1e-9)
    assert_close(mid.q, MIDDLE_FIXTURE.q, 1e-9)

    fan = build_fan(left, right)
    assert fan.region is Region.II
    assert [w.kind for w in fan.waves] == ["shock", "rarefaction"]
    assert [w.family for w in fan.waves] == [1, 2]
    shock, rare = fan.waves
    assert shock.speed_lo == shock.speed_hi
    assert_close(shock.speed_lo, -3.049631872535077, 1e-9)
    assert_close(rare.speed_lo, 3.61267932583672, 1e-9)
    assert_close(rare.speed_hi, 3.9094473981982816, 1e-9)
    assert lax_check(shock)


def test_middle_state_is_curve_intersection(fixture_pair):
    # Independent confirmation: the curve difference changes sign across
    # the reported root and the root is consistent with both curves.
    left, right = fixture_pair
    mid = solve_middle(left, right)
    f1 = forward_curve_1(left)
    b2 = backward_curve_2(right)
    lo = f1.q(mid.u - 1e-4) - b2.q(mid.u - 1e-4)
    hi = f1.q(mid.u + 1e-4) - b2.q(mid.u + 1e-4)
    assert lo * hi < 0.0
    assert abs(f1.q(mid.u) - b2.q(mid.u)) <= 1e-10 * (1.0 + abs(mid.q))


def test_right_state_on_forward_curve(base_left):
    # Right state already on the family-1 curve: the middle coincides with
    # it and the fan carries a single wave.
    right = TransState(2.0, forward_curve_1(base_left).q(2.0))
    fan = build_fan(base_left, right)
    assert abs(fan.middle.u - right.u) <= 1e-12
    assert abs(fan.middle.q - right.q) <= 1e-12
    assert fan.region is Region.DEGENERATE
    assert len(fan.waves) == 1
    assert fan.waves[0].kind == "rarefaction"

    right2 = TransState(0.7, shock_q_1(base_left, 0.7))
    fan2 = build_fan(base_left, right2)
    assert abs(fan2.middle.u - right2.u) <= 1e-12
    assert len(fan2.waves) == 1
    assert fan2.waves[0].kind == "shock"


def test_region_round_trips(rng):
    kinds = {
        "I": ["rarefaction", "rarefaction"],
        "II": ["shock", "rarefaction"],
        "III": ["rarefaction", "shock"],
        "IV": ["shock", "shock"],
    }
    for region, expected in kinds.items():
        for _ in range(12):
            left, right, mid = random_trans_pair(rng, region)
            fan = build_fan(left, right)
            assert fan.region.value == region
            scale = 1.0 + abs(mid.u) + abs(mid.q)
            assert abs(fan.middle.u - mid.u) <= 1e-9 * scale
            assert abs(fan.middle.q - mid.q) <= 1e-9 * scale
            assert [w.kind for w in fan.waves] == expected
            for w in fan.waves:
                if w.kind == "shock":
                    assert lax_check(w)
            assert fan.waves[0].speed_hi <= fan.waves[1].speed_lo + 1e-9


def test_region_iv_exact_middle():
    left, right, mid = region_iv_pair()
    fan = build_fan(left, right)
    assert fan.region is Region.IV
    assert_close(fan.middle.u, 0.4, 1e-10)
    assert_close(fan.middle.q, mid.q, 1e-10)
    c1, c2 = fan.waves[0].speed_lo, fan.waves[1].speed_lo
    assert_close(c1, trans_shock_speed(left, mid), 1e-12)
    assert_close(c2, trans_shock_speed(mid, right), 1e-12)
    assert c1 < c2


def test_first_touch_middle(base_left):
    # Right state on the critical curve past the family-1 crossing: the
    # middle snaps to the touch point of the continued curve.
    right = TransState(3.5, 6.125)
    fan = build_fan(base_left, right)
    assert_close(fan.middle.u, 2.909122845035592, 1e-8)
    assert_close(fan.middle.q, 4.231497863753989, 1e-8)
    assert_close(fan.middle.q, 0.5 * fan.middle.u ** 2, 1e-12)
    assert fan.region is Region.I


def test_lax_check_rejects_misassigned_family(base_left):
    mid = TransState(0.4, shock_q_1(base_left, 0.4))
    right = TransState(0.1, shock_q_2(mid, 0.1))
    c = trans_shock_speed(mid, right)
    good = Wave("shock", 2, mid, right, c, c)
    assert lax_check(good)
    mislabeled = Wave("shock", 1, mid, right, c, c)
    assert not lax_check(mislabeled)
    with pytest.raises(PreconditionError):
        lax_check(Wave("rarefaction", 1, base_left, base_left, 0.0, 0.0))


def test_degenerate_fan(base_left):
    fan = build_fan(base_left, base_left)
    assert fan.region is Region.DEGENERATE
    assert fan.waves == ()
    assert fan.middle == base_left


def test_classify_quadrants(base_left):
    mid_up = TransState(1.5, 5.0)
    mid_down = TransState(0.5, 5.0)
    right_up = TransState(2.0, 5.5)
    right_down = TransState(1.0, 5.5)
    assert classify(base_left, right_up, mid_up) is Region.I
    assert classify(base_left, right_up, mid_down) is Region.II
    assert classify(base_left, TransState(1.2, 5.5), mid_up) is Region.III
    assert classify(base_left, TransState(0.2, 5.5), mid_down) is Region.IV
    assert classify(base_left, right_down, base_left) is Region.DEGENERATE
    # A wave exists exactly when u_M differs from its data velocity.
    assert classify(base_left, right_up, TransState(base_left.u, 5.0)) is Region.DEGENERATE
    one_ulp = float(np.nextafter(base_left.u, np.inf))
    assert classify(base_left, right_up, TransState(one_ulp, 5.0)) is Region.I


def test_sample_fan_segments(fixture_pair):
    left, right = fixture_pair
    fan = build_fan(left, right)
    shock, rare = fan.waves

    assert sample_fan(fan, shock.speed_lo - 1.0) == left
    assert sample_fan(fan, rare.speed_hi + 1.0) == right
    # At a shock ray the right limit is taken.
    at_shock = sample_fan(fan, shock.speed_lo)
    assert abs(at_shock.u - fan.middle.u) <= 1e-12
    between = sample_fan(fan, 0.5 * (shock.speed_lo + rare.speed_lo))
    assert abs(between.u - fan.middle.u) <= 1e-12
    for frac in (0.1, 0.5, 0.9):
        xi = rare.speed_lo + frac * (rare.speed_hi - rare.speed_lo)
        s = sample_fan(fan, xi)
        lam = float(trans_lambdas(s.u, s.q)[1])
        assert abs(lam - xi) <= 1e-9


def test_sample_fan_rarefaction_interior(base_left):
    # Pure family-1 rarefaction: the sampled state's own speed matches the ray.
    right = TransState(2.0, forward_curve_1(base_left).q(2.0))
    fan = build_fan(base_left, right)
    (rare,) = fan.waves
    for frac in (0.25, 0.75):
        xi = rare.speed_lo + frac * (rare.speed_hi - rare.speed_lo)
        s = sample_fan(fan, xi)
        lam = float(family_lambda(1, s.u, s.q))
        assert abs(lam - xi) <= 1e-9


def test_sample_fan_many_matches_scalar(fixture_pair):
    left, right = fixture_pair
    for fan in (build_fan(left, right), build_fan(*region_iv_pair()[:2]),
                build_fan(left, TransState(2.0, forward_curve_1(left).q(2.0)))):
        speeds = [s for w in fan.waves for s in w.speed_range]
        lo = min(speeds) - 1.0
        hi = max(speeds) + 1.0
        xi = np.linspace(lo, hi, 257)
        u, q = sample_fan_many(fan, xi)
        for i, x in enumerate(xi):
            s = sample_fan(fan, float(x))
            assert abs(u[i] - s.u) <= 1e-12
            assert abs(q[i] - s.q) <= 1e-12


def test_fan_to_dict_schema(fixture_pair):
    left, right = fixture_pair
    doc = fan_to_dict(build_fan(left, right))
    assert set(doc) == {"left", "middle", "right", "region", "waves"}
    assert doc["region"] == "II"
    assert len(doc["waves"]) == 2
    jsonschema.validate(doc, _schema("fan.schema.json"))
    empty = fan_to_dict(build_fan(left, left))
    assert empty["waves"] == []
    jsonschema.validate(empty, _schema("fan.schema.json"))


def _solve_middle_scalar_scan(left: TransState, right: TransState) -> TransState:
    """Reference solve_middle whose scan evaluates one velocity at a time."""
    if _states_coincide(left, right):
        return left
    f1 = forward_curve_1(left)
    b2 = backward_curve_2(right)

    def phi(u: float) -> float:
        return f1.q(u) - b2.q(u)

    lo0, hi0 = (min(left.u, right.u), max(left.u, right.u))
    pair = None
    for k in range(41):
        w = 2.0 ** k
        us = np.linspace(lo0 - w, hi0 + w, 65)
        vals = [phi(float(u)) for u in us]
        for i in range(len(us) - 1):
            a, b = vals[i], vals[i + 1]
            if a == 0.0:
                pair = (float(us[i]), float(us[i]))
                break
            if (a > 0.0 and b <= 0.0) or (a < 0.0 and b >= 0.0):
                pair = (float(us[i]), float(us[i + 1]))
                break
        if pair is not None:
            break
    if pair is None:
        raise BracketFailure("no sign change within the widest scan window")
    u_m = pair[0] if pair[0] == pair[1] else float(brentq(phi, pair[0], pair[1], xtol=1e-14))
    ustar = f1.u_star
    if u_m > ustar and abs(phi(ustar)) <= 1e-9 * (1.0 + abs(f1.q(ustar))):
        u_m = ustar
    q_m = f1.q(u_m)
    residual = abs(q_m - b2.q(u_m))
    if residual > TOL_ROOT * (1.0 + abs(q_m)):
        raise BracketFailure(f"middle-state polish stalled: residual {residual:.3e}")
    return TransState(u_m, max(q_m, 0.5 * u_m * u_m))


def _raw_pair(rng, kind: str) -> tuple[TransState, TransState]:
    """Lifted raw (u, v) data: generic, v = 0 on one side (a state on the
    critical curve), |v| < 0.02 on both sides (near it), or |v| up to 40."""
    ul, ur = (float(x) for x in rng.uniform(-2.0, 3.0, size=2))
    vl, vr = (float(x) for x in rng.uniform(-3.0, 3.0, size=2))
    if kind == "zero_v":
        if rng.integers(2):
            vl = 0.0
        else:
            vr = 0.0
    elif kind == "small_v":
        vl, vr = (float(x) for x in rng.uniform(-0.02, 0.02, size=2))
    elif kind == "large_v":
        vl, vr = (float(x) for x in rng.uniform(-40.0, 40.0, size=2))
    return lift(BrioState(ul, vl)), lift(BrioState(ur, vr))


def _outcome(fn, left: TransState, right: TransState):
    try:
        return fn(left, right)
    except BrioError as e:
        return type(e)


def test_bracketed_solve_matches_scalar_reference_scan():
    # The data-started bracket finds the same root as the 65-point window
    # scan; the two polish different brackets, so they agree to rounding.
    rng = np.random.default_rng(20240818)
    for k in range(600):
        left, right = _raw_pair(rng, ("generic", "zero_v", "small_v")[k % 3])
        expected = _outcome(_solve_middle_scalar_scan, left, right)
        got = _outcome(solve_middle, left, right)
        if isinstance(expected, type):
            assert got is expected, (left, right)
            continue
        assert isinstance(got, TransState), (left, right, got)
        for a, b in ((got.u, expected.u), (got.q, expected.q)):
            assert abs(a - b) <= 1e-13 * (1.0 + abs(b)), (left, right)


def test_polish_converges_where_phi_is_flat_on_one_side(monkeypatch):
    # Near the critical curve phi is flat to rounding on one side of the
    # root: a steep line meets a plateau of -1e-15 just right of the root,
    # where the slope is 0 and no Newton step is taken.  From the widest
    # bracket the polish still narrows to the parent's tolerance, where
    # brentq stops at 100 iterations with an untyped RuntimeError.
    root = 3.0e-5

    def f(u: float) -> tuple[float, float, float]:
        return (root - u, -1.0, 0.0) if u < root else (-1e-15, 0.0, 0.0)

    for width in (1.0, 2.0 ** 20, 2.0 ** 41):
        lo, hi = root - width, root + 1.0
        u = _polish_root(f, lo, hi, f(lo)[0], f(hi)[0])
        assert abs(u - root) <= 1e-14 + 4.0 * np.finfo(float).eps * abs(root), (width, u)
    # Past its step cap the polish raises the solver's typed error: with no
    # slope anywhere it bisects, and 5 halvings of [root - 1, root + 1] are
    # not enough.
    monkeypatch.setattr(riemann, "_POLISH_STEPS", 5)
    with pytest.raises(BracketFailure):
        _polish_root(lambda u: (f(u)[0], 0.0, 0.0), root - 1.0, root + 1.0, 1.0, -1e-15)


def test_solve_middle_raises_bracket_failure(monkeypatch, fixture_pair):
    left, right = fixture_pair
    # Curves that never cross: the bracket widens to its full reach, then raises.
    for name, q in (("forward_curve_1", 1.0), ("backward_curve_2", 0.0)):
        monkeypatch.setattr(riemann, name, lambda state, q=q: types.SimpleNamespace(q=lambda u: q))
    with pytest.raises(BracketFailure, match=r"within 2\*\*40"):
        solve_middle(left, right)
    monkeypatch.undo()
    # A polish that returns a bracket end leaves a residual above TOL_ROOT.
    monkeypatch.setattr(riemann, "_polish_root", lambda f, a, b, fa, fb: a)
    with pytest.raises(BracketFailure, match="polish stalled"):
        solve_middle(left, right)


def _solve_middle_every_call(left: TransState, right: TransState) -> TransState:
    """solve_middle's bracket and polish with every curve value recomputed."""
    if _states_coincide(left, right):
        return left
    f1, b2 = forward_curve_1(left), backward_curve_2(right)

    def phi(u: float) -> float:
        return f1.q(u) - b2.q(u)

    def newton(u: float) -> tuple[float, float, float]:
        q1, q2 = f1.q(u), b2.q(u)
        return q1 - q2, f1.slope(u, q1) - b2.slope(u, q2), riemann._RTOL * (abs(q1) + abs(q2))

    lo0, hi0 = min(left.u, right.u), max(left.u, right.u)
    lo, hi, k = lo0, hi0, 0
    while not phi(lo) >= 0.0 >= phi(hi):
        if phi(lo) < 0.0:
            lo = lo0 - 2.0 ** k
        if phi(hi) > 0.0:
            hi = hi0 + 2.0 ** k
        k += 1
    u_m = _polish_root(newton, lo, hi, phi(lo), phi(hi))
    ustar = f1.u_star
    if u_m > ustar and abs(phi(ustar)) <= 1e-9 * (1.0 + abs(f1.q(ustar))):
        u_m = ustar
    q_m = f1.q(u_m)
    assert abs(q_m - b2.q(u_m)) <= TOL_ROOT * (1.0 + abs(q_m))
    return TransState(u_m, max(q_m, 0.5 * u_m * u_m))


def test_middle_state_evaluates_each_velocity_once(monkeypatch):
    # Over every ordered pair of a seeded pool of 24 raw states the middle
    # state is bit-identical to the one found with every curve value
    # recomputed, and neither composite curve is evaluated twice at one
    # velocity within a solve.
    pairs = [(lift(a), lift(b)) for a, b in raw_pool_pairs()]
    assert len(pairs) == 552
    expected = [_solve_middle_every_call(a, b) for a, b in pairs]

    calls: dict[str, list[float]] = {"f1": [], "b2": []}
    for name, cls in (("f1", Forward1Curve), ("b2", Backward2Curve)):
        def q(self, u, _q=cls.q, _log=calls[name]):
            _log.append(u)
            return _q(self, u)
        monkeypatch.setattr(cls, "q", q)
    for (a, b), want in zip(pairs, expected):
        for log in calls.values():
            log.clear()
        got = solve_middle(a, b)
        assert (got.u, got.q) == (want.u, want.q), (a, b)
        for log in calls.values():
            assert len(log) == len(set(log)), (a, b)


def test_small_data_middle_state_is_the_float_root():
    # Raw draws with every component +-10^U(-6, 3), then +-10^U(-6, -2): q_M
    # lies within 1e-12 relative of the float root of phi
    # (middle_sweep.q_error).  A polish tolerance of 1e-14 absolute lost up
    # to 2e-4 relative at these scales, and a polish that stopped at a step
    # of at most 4 eps |u| without taking it left 7 of the second sweep's
    # draws out, by up to 3.6e-11, where |q| << |u q'|.
    for left, right in (middle_sweep.draws(-6.0, 3.0, 99, 400)
                        + middle_sweep.draws(-6.0, -2.0, 7, 1000)):
        mid = solve_middle(left, right)
        assert middle_sweep.q_error(left, right, mid) <= 1e-12, (left, right, mid)


def test_near_critical_data_polish_in_few_curve_calls():
    # phi is flat to rounding on one side of this root (both states within
    # 2e-8 of the critical curve); a derivative-free polish took 162 curve
    # calls here.
    left = lift(BrioState(6.575075930541748e-05, 1.8200266358543296e-08))
    right = lift(BrioState(7.344459432932376e-05, 6.162025420577457e-08))
    with middle_sweep.counted_q_calls() as calls:
        mid = solve_middle(left, right)
    assert calls[0] <= 24
    assert middle_sweep.q_error(left, right, mid) <= 1e-12
    # Near the critical curve at small scale, Newton steps can creep toward
    # the root, gaining less than half of phi each: a polish without the
    # doubled step ran into its 200-step cap (BracketFailure) on both pairs.
    for left, right in ((TransState(7.345197827365745e-05, 2.766769192250691e-07),
                         TransState(0.00013781908556999574, 9.499260799711051e-09)),
                        (TransState(0.00010827449413358325, 6.900379167061209e-07),
                         TransState(3.82968489463949e-05, 7.961106760860281e-10))):
        with middle_sweep.counted_q_calls() as calls:
            mid = solve_middle(left, right)
        assert calls[0] <= 100
        assert middle_sweep.q_error(left, right, mid) <= 1e-12


def _sample_fan_many_reference(fan, xi):
    """sample_fan_many filling one mask per slot, as before the one-index fill."""
    xi = np.asarray(xi, dtype=float)
    u = np.empty_like(xi)
    q = np.empty_like(xi)
    edges: list[float] = []
    for w in fan.waves:
        edges.extend((w.speed_lo, w.speed_hi))
    idx = np.searchsorted(np.asarray(edges), xi, side="right")
    consts = [fan.left] + [w.right for w in fan.waves]
    for region in range(len(fan.waves) + 1):
        m = idx == 2 * region
        if m.any():
            u[m] = consts[region].u
            q[m] = consts[region].q
    for widx, w in enumerate(fan.waves):
        m = idx == 2 * widx + 1
        if m.any():
            u[m], t = w.curve.ray(xi[m])
            q[m] = _energy(u[m], t)
    return u, q


def test_sample_fan_many_matches_the_per_slot_fill_bit_for_bit():
    rng = np.random.default_rng(552)
    for a, b in raw_pool_pairs():
        fan = build_fan(lift(a), lift(b))
        edges = [s for w in fan.waves for s in (w.speed_lo, w.speed_hi)]
        for xi in sampler_rays(rng, edges):
            assert_same_bits(sample_fan_many(fan, xi), _sample_fan_many_reference(fan, xi))


def test_curve_difference_falls_and_changes_sign_at_the_middle():
    # The bracket relies on phi = f1.q - b2.q falling monotonically: on a
    # grid around the data it never rises beyond rounding, and it is positive
    # only below the solved middle velocity and negative only above it.
    rng = np.random.default_rng(20260418)
    for k in range(800):
        left, right = _raw_pair(rng, ("generic", "zero_v", "small_v", "large_v")[k % 4])
        f1, b2 = forward_curve_1(left), backward_curve_2(right)
        us = np.linspace(min(left.u, right.u) - 8.0, max(left.u, right.u) + 8.0, 193)
        q1 = np.array([f1.q(float(u)) for u in us])
        phi = q1 - np.array([b2.q(float(u)) for u in us])
        tol = 1e-15 * (1.0 + np.abs(q1))
        assert np.all(np.diff(phi) <= np.maximum(tol[:-1], tol[1:])), (left, right)
        u_m = solve_middle(left, right).u
        assert np.all(us[phi > tol] <= u_m), (left, right)
        assert np.all(us[phi < -tol] >= u_m), (left, right)


def test_middle_state_matches_mpmath(mp50):
    # Raw draws from boxes of half-width 3, 10 and 100 and with magnitudes
    # 10^U(-3, 3); the 50-digit root is bisected inside 1e-6 (1 + |u_M|) of
    # the solver's and must lie within 1e-12 relative of it.
    rng = np.random.default_rng(20261018)
    regions = set()
    for k in range(40):
        if k % 4 == 3:
            x = 10.0 ** rng.uniform(-3.0, 3.0, size=4) * rng.choice((-1.0, 1.0), size=4)
        else:
            x = rng.uniform(-1.0, 1.0, size=4) * (3.0, 10.0, 100.0)[k % 4]
        left = lift(BrioState(float(x[0]), float(x[1])))
        right = lift(BrioState(float(x[2]), float(x[3])))
        mid = solve_middle(left, right)
        regions.add(classify(left, right, mid))

        def phi(u):
            return _mp_excess_f1(left, u) - _mp_excess_b2(right, u)

        width = mp.mpf(1e-6) * (1 + abs(mid.u))
        lo, hi = mid.u - width, mid.u + width
        assert phi(lo) > 0 > phi(hi), (left, right)
        while hi - lo > mp.mpf(1e-22) * (1 + abs(lo)):
            lo, hi = ((lo + hi) / 2, hi) if phi((lo + hi) / 2) > 0 else (lo, (lo + hi) / 2)
        u = (lo + hi) / 2
        q = u * u / 2 + _mp_excess_f1(left, u)
        assert abs(mid.u - u) <= 1e-12 * max(1, abs(u)), (left, right)
        assert abs(mid.q - q) <= 1e-12 * max(1, abs(q)), (left, right)
    assert regions == {Region.I, Region.II, Region.III, Region.IV}
