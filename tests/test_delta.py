"""Delta-shock construction: carriers, flips, signs and sampling."""

from __future__ import annotations

import importlib.resources
import importlib.util
import json
import math
from pathlib import Path

import jsonschema
import mpmath as mp
import numpy as np
import pytest

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
    DeltaSolution,
    RarefactionSegment,
    _rarefaction_uv,
    cardinality,
    generic_delta_shock,
    nonuniqueness_example,
    rh_deficit_u,
    rh_deficit_v,
    sample_brio,
    sample_brio_many,
    solution_to_dict,
    solve_brio,
)
from briodelta.errors import BrioError, DegenerateJump, OrderingViolation, PreconditionError
from briodelta.riemann import Region, build_fan, sample_fan_many
from briodelta.verify import TOL_WEAK, random_brio_data, solution_battery, weak_residual
from briodelta.wave_curves import backward_curve_2, forward_curve_1, shock_q_2

from conftest import (
    assert_close,
    assert_same_bits,
    data_scale,
    max_residual,
    mp_at_speed,
    raw_pool_pairs,
    sampler_rays,
)

EXPECTED_CARDINALITY = {"I": 0, "II": 1, "III": 1, "IV": 2}


def _flip_boundary(sol: DeltaSolution):
    """(xi, left state, right state) of the v-flip jump, or None."""
    for a, b in zip(sol.segments, sol.segments[1:]):
        if not (isinstance(a, ConstantSegment) and isinstance(b, ConstantSegment)):
            continue
        if abs(a.state.u - b.state.u) <= 1e-9 and a.state.v * b.state.v < 0.0:
            return a.xi_hi, a.state, b.state
    return None


def _carrier_neighbors(sol: DeltaSolution, speed: float):
    for a, b in zip(sol.segments, sol.segments[1:]):
        if abs(a.xi_hi - speed) <= 1e-9:
            lb = a.state if isinstance(a, ConstantSegment) else None
            rb = b.state if isinstance(b, ConstantSegment) else None
            return lb, rb
    return None, None


def test_deficit_frozen_values():
    l = BrioState(1.0, 1.0)
    r = BrioState(0.0, 0.0)
    assert rh_deficit_v(l, r, 1.0) == -1.0
    assert rh_deficit_u(l, r, 1.0) == 0.0


def test_generic_branch_a_triangular():
    data = RiemannData(BrioState(2.0, 3.0), BrioState(0.0, 1.0))
    sol = generic_delta_shock(triangular_flux_pair(), data, "a")
    (sing,) = sol.singular
    assert sing.component == "v"
    assert sing.speed == 1.0
    assert sing.rate == 2.0
    assert sing.constant == 0.0
    assert sing.strength(3.0) == 6.0
    assert len(sol.segments) == 2
    assert sol.segments[0].state == data.left
    assert sol.segments[1].state == data.right


def test_generic_branch_a_zero_v_carries_nothing():
    data = RiemannData(BrioState(2.0, 0.0), BrioState(0.0, 0.0))
    sol = generic_delta_shock(triangular_flux_pair(), data, "a")
    assert sol.singular[0].rate == 0.0
    assert cardinality(sol) == 0


def test_generic_branch_a_brio():
    data = RiemannData(BrioState(1.0, 1.0), BrioState(0.0, 0.0))
    sol = generic_delta_shock(brio_flux_pair(), data, "a")
    (sing,) = sol.singular
    assert sing.speed == 1.0
    assert sing.rate == -1.0


def test_generic_branch_b_triangular():
    data = RiemannData(BrioState(2.0, 3.0), BrioState(0.0, 1.0))
    sol = generic_delta_shock(triangular_flux_pair(), data, "b")
    (sing,) = sol.singular
    assert sing.component == "u"
    assert sing.speed == 2.0
    assert sing.rate == -2.0


def test_generic_degenerate_and_bad_branch():
    same_u = RiemannData(BrioState(1.0, 2.0), BrioState(1.0, 0.5))
    with pytest.raises(DegenerateJump):
        generic_delta_shock(triangular_flux_pair(), same_u, "a")
    same_v = RiemannData(BrioState(1.0, 2.0), BrioState(0.0, 2.0))
    with pytest.raises(DegenerateJump):
        generic_delta_shock(triangular_flux_pair(), same_v, "b")
    with pytest.raises(ValueError):
        generic_delta_shock(triangular_flux_pair(), same_u, "c")


def test_solve_brio_fixture_same_sign(fixture_pair):
    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    sol = solve_brio(data)
    kinds = [type(s).__name__ for s in sol.segments]
    assert kinds == ["ConstantSegment", "ConstantSegment", "RarefactionSegment",
                     "ConstantSegment"]
    (sing,) = sol.singular
    assert sing.component == "v"
    assert sing.constant == 0.0
    assert_close(sing.speed, -3.049631872535077, 1e-9)
    assert_close(sing.rate, -0.012596182977574477, 1e-9)
    mid = sol.segments[1].state
    assert_close(mid.u, 0.5406739149257195, 1e-9)
    assert_close(mid.v, 3.5368379459027333, 1e-9)
    assert sol.options == {"flip_speed": None}
    assert sol.region.value == "II"
    assert cardinality(sol) == 1
    assert _flip_boundary(sol) is None


def test_solve_brio_flip_structure(fixture_pair):
    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, -1.0))
    sol = solve_brio(data)
    assert sol.options == {"flip_speed": "rh"}
    assert cardinality(sol) == 1
    flip = _flip_boundary(sol)
    assert flip is not None
    xi, lb, rb = flip
    assert_close(xi, 0.5406739149257195 - 1.0, 1e-9)
    assert_close(lb.v, 3.5368379459027333, 1e-9)
    assert_close(rb.v, -3.5368379459027333, 1e-9)
    # The flip at the jump-condition speed carries nothing in either equation.
    assert abs(rh_deficit_v(lb, rb, xi)) <= 1e-12
    assert abs(rh_deficit_u(lb, rb, xi)) <= 1e-12


def test_solve_brio_paper_flip(fixture_pair):
    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, -1.0))
    sol = solve_brio(data, flip_speed="paper")
    xi, lb, rb = _flip_boundary(sol)
    assert_close(xi, 0.5406739149257195, 1e-9)
    assert sol.options == {"flip_speed": "paper"}
    assert cardinality(sol) == 1
    # The literal middle-velocity speed leaves a second-equation deficit
    # that no carrier accounts for.
    assert abs(rh_deficit_v(lb, rb, xi)) > 1.0


def test_paper_flip_near_critical_ordering():
    # Force the middle state close to the critical curve so the family-2
    # shock is slower than the middle velocity: the flip then cannot be
    # placed at u_M, while u_M - 1 always fits between the waves.  The left
    # state comes from integrating the family-1 slope field backwards.
    mid = TransState(0.5, 0.125 + 1e-4)
    u, q = mid.u, mid.q
    h = -0.2 / 4000
    for _ in range(4000):
        def f(uu, qq):
            return 0.5 * ((2.0 * uu - 1.0) - math.sqrt(8.0 * qq - 4.0 * uu * uu + 1.0))
        k1 = f(u, q)
        k2 = f(u + 0.5 * h, q + 0.5 * h * k1)
        k3 = f(u + 0.5 * h, q + 0.5 * h * k2)
        k4 = f(u + h, q + h * k3)
        q += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        u += h
    left = TransState(u, q)
    right = TransState(0.45, shock_q_2(mid, 0.45))
    fan = build_fan(left, right)
    assert fan.region.value == "III"
    assert fan.waves[1].speed_lo < fan.middle.u

    data = RiemannData(project(left, 1.0), project(right, -1.0))
    sol = solve_brio(data)
    assert cardinality(sol) == 1
    with pytest.raises(OrderingViolation):
        solve_brio(data, flip_speed="paper")


def test_solve_brio_explicit_flip_speed(fixture_pair):
    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, -1.0))
    sol = solve_brio(data, flip_speed=0.0)
    xi, _, _ = _flip_boundary(sol)
    assert xi == 0.0
    assert sol.options == {"flip_speed": 0.0}
    with pytest.raises(OrderingViolation):
        solve_brio(data, flip_speed=100.0)
    with pytest.raises(ValueError):
        solve_brio(data, flip_speed="bogus")
    with pytest.raises(ValueError):
        solve_brio(data, flip_speed=True)
    # A non-finite speed has no place between the waves: nan would drop the
    # middle constant segment and -inf would overlap the segments.
    data = _data(0.0, 2.0, 0.3, -1.9)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            solve_brio(data, flip_speed=bad)
    # The value is checked whether or not v changes sign.
    same_sign = _data(1.0, 2.0, 0.5, 1.0)
    assert solve_brio(same_sign, flip_speed=0.0).options == {"flip_speed": None}
    for bad in ("sideways", math.nan, math.inf, True):
        with pytest.raises(ValueError, match="flip_speed must be"):
            solve_brio(same_sign, flip_speed=bad)


def test_cardinalities_by_region(rng):
    rare_counts = {"I": 2, "II": 1, "III": 1, "IV": 0}
    for region, n_delta in EXPECTED_CARDINALITY.items():
        for sign_case in ("same", "flip"):
            for _ in range(6):
                data = random_brio_data(rng, region, sign_case)
                sol = solve_brio(data)
                assert cardinality(sol) == n_delta
                rares = sum(isinstance(s, RarefactionSegment) for s in sol.segments)
                assert rares == rare_counts[region]
                flip = _flip_boundary(sol)
                if sign_case == "flip":
                    assert flip is not None
                    xi = flip[0]
                    assert abs(rh_deficit_v(flip[1], flip[2], xi)) <= 1e-12
                    speeds = [s.speed for s in sol.singular]
                    lo = sol.segments[0].xi_hi
                    hi = sol.segments[-1].xi_lo
                    assert lo - 1e-10 <= xi <= hi + 1e-10
                    for c in speeds:
                        assert lo - 1e-10 <= c <= hi + 1e-10
                else:
                    assert flip is None


def test_carriers_satisfy_first_equation(rng):
    # Every delta carrier rides a jump whose first-equation deficit vanishes:
    # the carrier speed is the energy-jump ratio.
    for region in ("II", "III", "IV"):
        data = random_brio_data(rng, region, "same")
        sol = solve_brio(data)
        for sing in sol.singular:
            lb, rb = _carrier_neighbors(sol, sing.speed)
            assert lb is not None and rb is not None
            scale = 1.0 + abs(lb.u) + abs(rb.u) + abs(sing.speed)
            assert abs(rh_deficit_u(lb, rb, sing.speed)) <= 1e-10 * scale
            assert_close(rh_deficit_v(lb, rb, sing.speed), sing.rate, 1e-10 * scale)


def test_sign_rules():
    # Both sides on the critical curve: signs default to positive, and the
    # opened middle region carries positive v with no flip.
    data = RiemannData(BrioState(1.0, 0.0), BrioState(0.5, 0.0))
    sol = solve_brio(data)
    assert _flip_boundary(sol) is None
    assert sol.options == {"flip_speed": None}
    state, _ = sample_brio(sol, 0.35, 1.0)
    assert state.v > 0.0

    # One-sided zero adopts the other side's sign, again with no flip.
    neg_right = project(TransState(0.7, 7.0), -1.0)
    sol2 = solve_brio(RiemannData(BrioState(1.0, 0.0), neg_right))
    assert _flip_boundary(sol2) is None
    for x in np.linspace(-4.0, 4.0, 17):
        st, _ = sample_brio(sol2, float(x), 1.0)
        assert st.v <= 1e-12


def test_v_consistent_with_transformed_fan(fixture_pair):
    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    sol = solve_brio(data)
    fan = build_fan(left, right)
    xi = np.linspace(-5.0, 5.0, 1001)
    u_d, v_d = sample_brio_many(sol, xi)
    u_f, q_f = sample_fan_many(fan, xi)
    assert np.max(np.abs(u_d - u_f)) <= 1e-10
    assert np.all(v_d >= 0.0)
    assert np.max(np.abs(0.5 * (u_d ** 2 + v_d ** 2) - q_f)) <= 1e-9


def test_sample_brio_carriers(fixture_pair):
    left, right = fixture_pair
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    sol = solve_brio(data)
    state, carriers = sample_brio(sol, -10.0, 2.0)
    assert state == data.left
    (sing,) = sol.singular
    assert carriers == [(sing.speed * 2.0, sing.rate * 2.0)]
    for x, t in ((0.0, 0.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                 (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
        with pytest.raises(PreconditionError):
            sample_brio(sol, x, t)


def test_sample_brio_many_matches_scalar(fixture_pair):
    left, right = fixture_pair
    for s_r in (1.0, -1.0):
        data = RiemannData(project(left, 1.0), project(right, s_r))
        sol = solve_brio(data)
        xi = np.linspace(-6.0, 6.0, 301)
        u, v = sample_brio_many(sol, xi)
        for i, x in enumerate(xi):
            st, _ = sample_brio(sol, float(x), 1.0)
            assert abs(u[i] - st.u) <= 1e-12
            assert abs(v[i] - st.v) <= 1e-12


def _sample_brio_many_reference(sol, xi):
    """sample_brio_many filling one mask per segment, as before the one-index fill."""
    xi = np.asarray(xi, dtype=float)
    u = np.empty_like(xi)
    v = np.empty_like(xi)
    edges = np.asarray([seg.xi_hi for seg in sol.segments[:-1]])
    idx = np.searchsorted(edges, xi, side="right")
    for i, seg in enumerate(sol.segments):
        m = idx == i
        if not m.any():
            continue
        if isinstance(seg, ConstantSegment):
            u[m] = seg.state.u
            v[m] = seg.state.v
        else:
            u[m], v[m], _ = _rarefaction_uv(seg, xi[m])
    return u, v


def test_sample_brio_many_matches_the_per_segment_fill_bit_for_bit():
    # Every ordered pair of the seeded raw pool, with v_R flipped in every
    # other pair (a v-flip, where two constant segments meet), on every ray set.
    rng = np.random.default_rng(553)
    for k, (a, b) in enumerate(raw_pool_pairs()):
        sol = solve_brio(RiemannData(a, BrioState(b.u, -b.v) if k % 2 else b))
        edges = [x for seg in sol.segments for x in (seg.xi_lo, seg.xi_hi) if math.isfinite(x)]
        for xi in sampler_rays(rng, edges):
            assert_same_bits(sample_brio_many(sol, xi), _sample_brio_many_reference(sol, xi))


def test_nonuniqueness_example_structure():
    sol = nonuniqueness_example(1.0, -1.0, 1.0)
    assert len(sol.segments) == 1
    seg = sol.segments[0]
    assert seg.xi_lo == -math.inf and seg.xi_hi == math.inf
    assert seg.state == BrioState(0.0, 0.0)
    a, b = sol.singular
    assert (a.speed, a.rate, a.constant) == (-1.0, 0.0, 1.0)
    assert (b.speed, b.rate, b.constant) == (1.0, 0.0, -1.0)
    assert cardinality(sol) == 2

    swapped = nonuniqueness_example(0.5, 2.0, -1.0)
    assert [s.speed for s in swapped.singular] == [-1.0, 2.0]
    assert nonuniqueness_example(0.0, -1.0, 1.0).singular == ()
    assert nonuniqueness_example(1.0, 2.0, 2.0).singular == ()


def _in_gap_flip(data: RiemannData) -> float:
    """A v-flip speed strictly inside the gap between the family waves."""
    fan = solve_brio(data).fan
    rh = fan.middle.u - 1.0
    lo = next((w.speed_hi for w in fan.waves if w.family == 1), rh - 1.0)
    hi = next((w.speed_lo for w in fan.waves if w.family == 2), rh + 1.0)
    return 0.5 * (lo + hi)


def test_solution_to_dict_schema(fixture_pair):
    left, right = fixture_pair
    schema_path = importlib.resources.files("briodelta") / "schemas" / "solution.schema.json"
    validator = jsonschema.Draft7Validator(json.loads(schema_path.read_text()))
    for s_r in (1.0, -1.0):
        data = RiemannData(project(left, 1.0), project(right, s_r))
        doc = solution_to_dict(solve_brio(data))
        validator.validate(doc)
        assert doc["regular"][0]["xi_lo"] is None
        assert doc["regular"][-1]["xi_hi"] is None
        assert doc["initial"]["left"]["u"] == 1.0
    doc = solution_to_dict(solve_brio(RiemannData(project(left, 1.0),
                                                  project(right, -1.0))))
    assert doc["options"]["flip_speed"] == "rh"

    # Nothing checks solution.json at write time, so raw data at every scale
    # must give valid documents: |u|, |v| = 10^U(-8, 8) with random signs,
    # cycling through generic signs, v = 0 on the left, and a v sign change
    # with the flip at "rh", at "paper" and at a float inside the gap.  Only
    # a "paper" flip may fall outside the gap.
    rng = np.random.default_rng(20)
    for i in range(200):
        ul, vl, ur, vr = (10.0 ** rng.uniform(-8, 8, 4) * rng.choice((-1.0, 1.0), 4)).tolist()
        kind = i % 5
        if kind == 1:
            vl = 0.0
        elif kind > 1:
            vr = -math.copysign(vr, vl)
        data = _data(ul, vl, ur, vr)
        flip = ("rh", "rh", "rh", "paper", None)[kind] or _in_gap_flip(data)
        try:
            doc = solution_to_dict(solve_brio(data, flip_speed=flip))
        except OrderingViolation:
            assert flip == "paper", data
            continue
        validator.validate(doc)


def test_raw_data_with_zero_v_on_one_side():
    # v = 0 puts a state on the critical curve q = u^2/2.  Every such draw
    # must solve, and the two composite curves must meet at the middle.
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        ul, ur = rng.uniform(-2.0, 3.0, size=2)
        vl, vr = rng.uniform(-3.0, 3.0, size=2)
        if rng.integers(2):
            vl = 0.0
        else:
            vr = 0.0
        data = RiemannData(BrioState(float(ul), float(vl)),
                           BrioState(float(ur), float(vr)))
        sol = solve_brio(data)
        mid = sol.fan.middle
        gap = (forward_curve_1(sol.fan.left).q(mid.u)
               - backward_curve_2(sol.fan.right).q(mid.u))
        assert abs(gap) <= 1e-12 * (1.0 + abs(mid.q)), (data, gap)


NEAR_RHOS = (1e-12, 1e-10, 1e-9, 1e-7, 1e-5, 1e-3)


def _data(ul, vl, ur, vr) -> RiemannData:
    return RiemannData(BrioState(float(ul), float(vl)), BrioState(float(ur), float(vr)))


# Raw data whose middle velocity lies within 1e-10 of the left velocity: a
# family-1 rarefaction of u-width 9.7e-11 that still changes |v| by 1.4e-5
# (region I), and a family-1 shock of u-width -7.3e-11 from v = -0.0
# (region II).  A fan that drops either tiny wave misses its jump in v.
NEAR_TIES = (
    _data(-111.1473190069753, 1.3947e-5, -85.998, -9.11e-3),
    _data(-4.373914947683328, -0.0, 5.185220690353269, 0.16937488724128613),
)


def _signed_magnitudes(rng, n: int, lo: float = -3.0, hi: float = 3.0) -> np.ndarray:
    """n values with |x| = 10^U(lo, hi) and random signs."""
    return 10.0 ** rng.uniform(lo, hi, size=n) * rng.choice((-1.0, 1.0), size=n)


def _near_equal(rng, rho: float) -> RiemannData:
    """Raw pair whose right state moves each left component by rho (1 + |x|) U(-1, 1)."""
    ul, vl = _signed_magnitudes(rng, 2)
    du, dv = rho * rng.uniform(-1.0, 1.0, size=2)
    return _data(ul, vl, ul + du * (1.0 + abs(ul)), vl + dv * (1.0 + abs(vl)))


def _raw_draws():
    """Seeded raw data as (must_solve, RiemannData), no forward construction.

    Uniform boxes of half-width 10 and 100 and magnitudes 10^U(-3, 3) may
    end in a typed BrioError; NEAR_TIES, near-equal pairs (_near_equal)
    and data with v = 0 or -0.0 on one side must solve.
    """
    for data in NEAR_TIES:
        yield True, data
    rng = np.random.default_rng(20261018)
    for half_width in (10.0, 100.0):
        for x in rng.uniform(-half_width, half_width, size=(500, 4)):
            yield False, _data(*x)
    for x in _signed_magnitudes(rng, 2000).reshape(500, 4):
        yield False, _data(*x)
    for rho in NEAR_RHOS:
        for _ in range(100):
            yield True, _near_equal(rng, rho)
    for zero in (0.0, -0.0):
        for component in (1, 3):
            for x in rng.uniform(-10.0, 10.0, size=(50, 4)):
                x[component] = zero
                yield True, _data(*x)


def _assert_order_margins(fan, data) -> None:
    """Family-1 speeds <= u_M - 1 and family-2 speeds >= u_M - 1/4, to 4 ulps of 1 + |u_M|."""
    um = fan.middle.u
    tol = 4.0 * math.ulp(1.0 + abs(um))
    for w in fan.waves:
        if w.family == 1:
            assert max(w.speed_range) <= um - 1.0 + tol, (data, w)
        else:
            assert min(w.speed_range) >= um - 0.25 - tol, (data, w)


def test_raw_data_solves_and_rarefactions_reach_their_end_states():
    # Each rarefaction lies on the curve through its data state, so the ray
    # inverse at either edge speed lands on the wave's end state, and at a
    # data-state edge |v| = sqrt(t(t + 2))/2 is the datum's |v|.  Middle-side
    # edges are left out of the |v| check: the two curves meet at u_M in q,
    # not in |v|.
    for must_solve, data in _raw_draws():
        try:
            sol = solve_brio(data)
        except BrioError:
            assert not must_solve, data
            continue
        _assert_order_margins(sol.fan, data)
        for w in sol.fan.waves:
            if w.kind != "rarefaction":
                continue
            for xi, end in ((w.speed_lo, w.left), (w.speed_hi, w.right)):
                u, _, t = w.curve.ray(xi)
                assert abs(u - end.u) <= 1e-12 * (1.0 + abs(end.u)), (data, w)
                datum = (data.left if end is sol.fan.left
                         else data.right if end is sol.fan.right else None)
                if datum is not None:
                    v = 0.5 * math.sqrt(t * (t + 2.0))
                    assert abs(v - abs(datum.v)) <= 1e-7 * (1.0 + abs(datum.u)), (data, w)


def test_large_raw_data_is_bracketed_within_its_scale():
    # Magnitudes 10^U(8, 16), with v = 0 on one side in 2 of 7 draws: the
    # bracket reaches 2**40 (1 + max |u|), so every middle state is found;
    # a reach of 2**40 alone raised BracketFailure on about a third of them.
    # The weak verdict at this scale is not asserted here.
    rng = np.random.default_rng(816)
    x = _signed_magnitudes(rng, 4 * 280, 8.0, 16.0).reshape(280, 4)
    x[5::7, 1] = 0.0
    x[6::7, 3] = 0.0
    for row in x:
        solve_brio(_data(*row))


def test_overflowing_energy_is_refused_with_its_bound():
    # Magnitudes 10^U(150, 300) as scripts/weak_sweep.py draws them: every
    # draw overflows q = (u^2 + v^2)/2 and is refused where the energy is
    # formed, with the bound in the message, not with a DomainError on an
    # internal state.
    spec = importlib.util.spec_from_file_location(
        "weak_sweep", Path(__file__).resolve().parent.parent / "scripts" / "weak_sweep.py")
    weak_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(weak_sweep)
    for data in weak_sweep.draws(150.0, 300.0, 4, 200):
        with pytest.raises(PreconditionError, match=r"q = \(u\^2 \+ v\^2\)/2 must be finite"):
            solve_brio(data)


# Raw data with a v sign change whose fan has no family-1 wave (u_M == u_L
# exactly) and a middle state on the critical curve, while the left datum
# lifts to a slack of one rounding: the state right of the flip is the
# projected middle state (v = -0.0), next to a family-2 rarefaction and
# next to a family-2 carrier.
FLIP_WITHOUT_WAVE_1 = (
    _data(-1.1590387489748186, 1.2004493547033134e-08,
          -2.1645694545211993e-08, -1.2004493555207675e-08),
    _data(1.401798465528602, 1.131559974336592e-08,
          1.4017984654954327, -1.131559974356244e-08),
)


def _ends(seg):
    """(left, right) state of a regular segment."""
    if isinstance(seg, ConstantSegment):
        return seg.state, seg.state
    return seg.left, seg.right


def test_segments_agree_with_their_neighbours():
    # A rarefaction's end states are the constant states beside it, and a
    # carrier's rate is the deficit of the constant states beside it.
    for data in FLIP_WITHOUT_WAVE_1:
        fan = solve_brio(data).fan
        assert fan.region is Region.DEGENERATE and fan.middle.u == fan.left.u, data
        assert [w.family for w in fan.waves] == [2], data
    for data in [data for _, data in _raw_draws()] + list(FLIP_WITHOUT_WAVE_1):
        try:
            sol = solve_brio(data, flip_speed="rh")
        except BrioError:
            continue
        for a, b in zip(sol.segments, sol.segments[1:]):
            if isinstance(a, RarefactionSegment) or isinstance(b, RarefactionSegment):
                assert _ends(a)[1] == _ends(b)[0], (data, a, b)
        left_of = {seg.xi_hi: seg for seg in sol.segments}
        right_of = {seg.xi_lo: seg for seg in sol.segments}
        for s in sol.singular:
            a, b = left_of[s.speed], right_of[s.speed]
            if isinstance(a, ConstantSegment) and isinstance(b, ConstantSegment):
                assert s.rate == rh_deficit_v(a.state, b.state, s.speed), (data, s)


def _mp_lax_gaps(w, datum, um) -> list:
    """The three Lax gaps of shock w at the working precision, all > 0 if admissible.

    From the raw jump conditions c[u] = [q], c[q] = [G] between the datum
    on the shock's outer side (q = (u^2 + v^2)/2 exactly) and velocity u_M:
    eliminating q_M leaves c^2 - (2u_M - 1) c - K = 0, whose lower root is
    the family-1 speed and upper root the family-2 speed.  Then
    q_M = q_b + c (u_M - u_b), and lambda = (2u - 1 -+ sqrt(8q - 4u^2 + 1))/2.
    """
    ub, vb, um = mp.mpf(datum.u), mp.mpf(datum.v), mp.mpf(um)
    qb = (ub * ub + vb * vb) / 2
    k = 2 * qb + (um + ub) / 2 - 2 * (um * um + um * ub + ub * ub) / 3
    root = mp.sqrt((2 * um - 1) ** 2 / 4 + k)
    c = (2 * um - 1) / 2 + (root if w.family == 2 else -root)
    qm = qb + c * (um - ub)

    def lam(u, q, sign):
        return (2 * u - 1 + sign * mp.sqrt(8 * q - 4 * u * u + 1)) / 2

    if w.family == 1:  # base L, downstream M
        return [lam(ub, qb, -1) - c, c - lam(um, qm, -1), lam(um, qm, 1) - c]
    return [lam(um, qm, 1) - c, c - lam(ub, qb, 1), c - lam(um, qm, -1)]


def test_near_equal_data_at_every_scale_solve_with_admissible_shocks(mp50):
    # u_L, v_L = +-10^U(0, 8), and each right component is the left one
    # times (1 + rho U(-1, 1)) with rho = 10^U(-15, -6): wave speeds cannot
    # be resolved to an absolute 1e-10 there, so any runtime re-check at
    # that tolerance would reject correct fans.  The first draw is a weak
    # family-2 shock at u ~ 943 whose Lax gaps are 2.3e-10, about the
    # rounding error of its speeds.
    rng = np.random.default_rng(19)
    draws = [_data(943.093417540442, 627.2392654463952,
                   943.0934175402118, 627.2392654467423)]
    for _ in range(400):
        left = 10.0 ** rng.uniform(0.0, 8.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        rho = 10.0 ** rng.uniform(-15.0, -6.0)
        right = left * (1.0 + rho * rng.uniform(-1.0, 1.0, size=2))
        draws.append(_data(left[0], left[1], right[0], right[1]))
    for data in draws:
        fan = solve_brio(data).fan
        _assert_order_margins(fan, data)
        for w in fan.waves:
            if w.kind == "shock":
                datum = data.left if w.family == 1 else data.right
                gaps = _mp_lax_gaps(w, datum, fan.middle.u)
                assert min(gaps) > 0, (data, w, gaps)


def test_outer_states_echo_the_data():
    # q = (u^2 + v^2)/2 rounds a small v^2 away next to a large u^2, so a
    # state projected from the lifted datum would not give the datum back.
    rng = np.random.default_rng(8)
    for _ in range(300):
        ul, ur = rng.uniform(-100.0, 100.0, size=2)
        vl, vr = 10.0 ** rng.uniform(-8.0, -2.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        data = _data(ul, vl, ur, vr)
        sol = solve_brio(data)
        assert sol.segments[0].state == data.left, data
        assert sol.segments[-1].state == data.right, data


@pytest.mark.parametrize("vr", [3.3, -3.3])
def test_two_solves_of_equal_data_compare_equal(vr):
    # Equal data give equal solutions, flux pair included, with and without
    # a v sign change; so do the generic builder's solutions.
    data, same = (_data(1.0, 3.0, 0.7, vr) for _ in range(2))
    assert solve_brio(data) == solve_brio(same)
    assert (_flip_boundary(solve_brio(data)) is None) == (vr > 0.0)
    assert brio_flux_pair() is brio_flux_pair()
    assert triangular_flux_pair() is triangular_flux_pair()
    for flux in (brio_flux_pair(), triangular_flux_pair()):
        assert generic_delta_shock(flux, data, "a") == generic_delta_shock(flux, same, "a")


def test_near_ties_keep_their_tiny_family_1_wave():
    regular = solve_brio(NEAR_TIES[0])
    assert regular.region is Region.I
    assert regular.fan.waves[0].kind == "rarefaction" and regular.fan.waves[0].family == 1
    shocked = solve_brio(NEAR_TIES[1])
    assert shocked.region is Region.II
    assert shocked.fan.waves[0].kind == "shock" and shocked.fan.waves[0].family == 1


def test_weak_residual_on_raw_box_data():
    # Judged at the default 32 nodes.  The v = 0 near tie and near-equal
    # pairs join the box draws: their tiny waves must carry the jumps the
    # data make.  The log-magnitude draws take each component as
    # +-10^U(-8, 8), with v = 0 on one side in 2 of 7 draws.
    rng = np.random.default_rng(7)
    draws = [_data(*x) for x in rng.uniform(-10.0, 10.0, size=(30, 4))]
    draws.append(NEAR_TIES[1])
    draws.extend(_near_equal(rng, rho) for rho in NEAR_RHOS for _ in range(4))
    x = 10.0 ** rng.uniform(-8.0, 8.0, size=(28, 4)) * rng.choice((-1.0, 1.0), size=(28, 4))
    x[5::7, 1] = 0.0
    x[6::7, 3] = 0.0
    draws.extend(_data(*row) for row in x)
    for data in draws:
        sol = solve_brio(data)
        worst = max_residual(weak_residual(sol, solution_battery(sol)))
        assert worst / data_scale(data) <= TOL_WEAK, (data, worst)


def test_rarefaction_v_matches_mpmath_near_the_critical_curve(mp50):
    # |u| in [50, 150] and |v| in [1e-6, 1e-2]: 2q - u^2 cancels there, while
    # sqrt(t(t + 2))/2 from the ray inverse carries the error of t alone,
    # about an ulp of 2 on family 1, so |v| errs by about 1e-16 / |v|.  The
    # reference is the ray inverse of the same curve constant in 50 digits.
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 400:
        u = rng.uniform(50.0, 150.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        v = 10.0 ** rng.uniform(-6.0, -2.0, size=2) * rng.choice((-1.0, 1.0), size=2)
        sol = solve_brio(_data(u[0], v[0], u[1], v[1]))
        for seg in sol.segments:
            if not isinstance(seg, RarefactionSegment):
                continue
            xi = np.linspace(seg.xi_lo, seg.xi_hi, 12)[1:-1]
            _, vs = sample_brio_many(sol, xi)
            for x, vx in zip(xi, vs):
                if not 1e-6 <= abs(vx) <= 1e-2:
                    continue
                u_ref, q_ref = mp_at_speed(seg.family, mp.mpf(seg.curve.C), x)
                assert abs(abs(mp.mpf(vx)) - mp.sqrt(2 * q_ref - u_ref ** 2)) <= 1e-10, (seg, x)
                checked += 1
