"""Shock loci, closed-form rarefaction curves, and composite wave curves."""

from __future__ import annotations

import math
import types

import mpmath as mp
import numpy as np
import pytest

from briodelta.core import TOL_ZERO, BrioState, TransState, family_lambda, lift
from briodelta.errors import DomainError, PreconditionError
from briodelta.wave_curves import (
    Backward2Curve,
    Forward1Curve,
    _omega,
    _root_z_minus_ln_z,
    backward_curve_2,
    forward_curve_1,
    integrate_rarefaction,
    inverse_radicand,
    inverse_shock_q_2,
    shock_q_1,
    shock_q_2,
    shock_radicand,
    shock_speed,
    tabulate_curve,
)

from conftest import (
    assert_close,
    mp_at_speed,
    mp_constant,
    mp_excess_b2,
    mp_excess_f1,
    mp_q,
    mp_rel,
    random_above_critical,
)


def _rk4_curve(family: int, u0: float, q0: float, u1: float, n: int) -> float:
    """Fixed-step RK4 oracle for dq/du = lambda_family(u, q)."""
    h = (u1 - u0) / n
    u, q = u0, q0

    def f(uu: float, qq: float) -> float:
        s = math.sqrt(8.0 * qq - 4.0 * uu * uu + 1.0)
        return 0.5 * ((2.0 * uu - 1.0) - s) if family == 1 else 0.5 * ((2.0 * uu - 1.0) + s)

    for _ in range(n):
        k1 = f(u, q)
        k2 = f(u + 0.5 * h, q + 0.5 * h * k1)
        k3 = f(u + 0.5 * h, q + 0.5 * h * k2)
        k4 = f(u + h, q + h * k3)
        q += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        u += h
    return q


def test_shock_loci_frozen_values(base_left):
    # Hand-computed at u = 0.7 from the locus quadratic through (1, 5):
    # radicand 9.43, roots 4.94 +- 0.3 sqrt(9.43).
    rad = shock_radicand(base_left, 0.7)
    assert_close(rad, 9.43, 1e-12)
    assert_close(shock_q_1(base_left, 0.7), 5.861249151967046, 1e-12)
    assert_close(shock_q_2(base_left, 0.7), 4.018750848032955, 1e-12)


def test_shock_loci_sum_identity(rng):
    # The two roots of the locus quadratic sum to 2 q_base - (u_base - u)(2u - 1).
    for _ in range(300):
        base = random_above_critical(rng)
        u = base.u - float(rng.uniform(0.0, 4.0))
        total = shock_q_1(base, u) + shock_q_2(base, u)
        expected = 2.0 * base.q - (base.u - u) * (2.0 * u - 1.0)
        scale = 1.0 + abs(expected)
        assert abs(total - expected) <= 1e-12 * scale


def test_shock_radicand_positive_leftward(rng):
    # At the base the radicand is 2(q - u^2/2) + 1/4 >= 1/4 and it grows as
    # u decreases, so both branches extend to arbitrary u below the base.
    for _ in range(200):
        base = random_above_critical(rng)
        at_base = shock_radicand(base, base.u)
        assert at_base >= 0.25 - 1e-12
        u = base.u - float(rng.uniform(0.0, 6.0))
        assert shock_radicand(base, u) >= at_base - 1e-12


def test_radicands_bounded_below_in_slack():
    # Written in the slack sigma = q - u^2/2 both radicands are sums with
    # positive lower bounds, 2 sigma + 1/16 and 8 sigma + 1/4, at any |u|;
    # formed from q instead, their O(u^2) terms cancel.
    rng = np.random.default_rng(4101)
    for _ in range(2000):
        u = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 8.0))
        v = 0.0 if rng.uniform() < 0.3 else float(10.0 ** rng.uniform(-4.0, 2.0))
        base = lift(BrioState(u, v))
        d = float(10.0 ** rng.uniform(-6.0, 2.0))
        assert shock_radicand(base, base.u - d) >= 2.0 * base.slack + 1.0 / 16.0, (base, d)
        assert inverse_radicand(base, base.u + d) >= 8.0 * base.slack + 0.25, (base, d)
    # The lifted datum (1e8, 0), where the q-form radicand cancels to 0.0
    # and the family-1 shock speed at d = 1e-3 comes out half a unit off.
    left = TransState(1e8, 5e15)
    u = left.u - 1e-3
    c = shock_speed(1, left, TransState(u, 0.5 * u * u))
    with mp.workdps(50):
        d = mp.mpf(left.u) - mp.mpf(u)
        ref = mp.mpf(u) - mp.mpf(0.5) - mp.sqrt(mp.mpf(0.25) + d / 2 + d * d / 3)
        assert abs(c - ref) <= 1e-12 * (1.0 + abs(c)), (c, ref)


def test_shock_loci_reject_wrong_side(base_left):
    with pytest.raises(PreconditionError):
        shock_q_1(base_left, base_left.u + 0.1)
    with pytest.raises(PreconditionError):
        shock_q_2(base_left, base_left.u + 0.1)
    with pytest.raises(PreconditionError):
        inverse_shock_q_2(base_left, base_left.u - 0.1)


def test_inverse_locus_frozen_value():
    # From right state (0.7, 7) at u = 1: radicand 54.56 by hand, so the
    # left-state energy is 7.15 + 0.15 sqrt(54.56).
    right = TransState(0.7, 7.0)
    assert_close(inverse_radicand(right, 1.0), 54.56, 1e-12)
    assert_close(inverse_shock_q_2(right, 1.0), 7.15 + 0.15 * math.sqrt(54.56), 1e-12)


def test_inverse_locus_round_trip(base_left, rng):
    down = shock_q_2(base_left, 0.7)
    assert_close(inverse_shock_q_2(TransState(0.7, down), 1.0), 5.0, 1e-12)
    # The family-2 downstream energy falls below the critical curve for
    # large jumps, so keep shrinking the jump until the state is admissible.
    done = 0
    while done < 200:
        left = random_above_critical(rng)
        du = float(rng.uniform(1e-3, 4.0))
        while du > 1e-4:
            u_r = left.u - du
            q_r = shock_q_2(left, u_r)
            if q_r >= 0.5 * u_r * u_r + 1e-9:
                back = inverse_shock_q_2(TransState(u_r, q_r), left.u)
                assert abs(back - left.q) <= 1e-11 * (1.0 + abs(left.q))
                done += 1
                break
            du *= 0.5


def test_inverse_locus_forward_round_trip(rng):
    for _ in range(200):
        right = random_above_critical(rng)
        u_l = right.u + float(rng.uniform(1e-3, 4.0))
        q_l = inverse_shock_q_2(right, u_l)
        down = shock_q_2(TransState(u_l, q_l), right.u)
        assert abs(down - right.q) <= 1e-11 * (1.0 + abs(right.q))


def test_rarefaction_matches_rk4_oracle(base_left):
    crv = integrate_rarefaction(1, base_left, 2.0)
    oracle = _rk4_curve(1, 1.0, 5.0, 2.0, 10000)
    assert_close(crv.q_at(2.0), oracle, 1e-8)
    assert_close(crv.q_at(2.0), 3.554245455532629, 1e-10)

    back = backward_curve_2(TransState(0.7, 7.0))
    oracle2 = _rk4_curve(2, 0.7, 7.0, -1.0, 17000)
    assert_close(back.q(-1.0), oracle2, 1e-8)


def test_critical_curve_is_family_2_integral_curve():
    for u0 in (-2.0, 0.0, 1.0, 3.0):
        base = TransState(u0, 0.5 * u0 * u0)
        crv = integrate_rarefaction(2, base, u0 + 5.0)
        u1 = u0 + 5.0
        assert abs(crv.q_at(u1) - 0.5 * u1 * u1) <= 1e-8
        us = np.linspace(u0 - 5.0, u1, 201)
        assert np.max(np.abs(crv.q_at(us) - 0.5 * us * us)) <= 1e-8
        # Independent fixed-step confirmation; deviations amplify like
        # exp(2 du) along the critical curve, hence the looser bound.
        oracle = _rk4_curve(2, u0, 0.5 * u0 * u0, u1, 50000)
        assert abs(oracle - 0.5 * u1 * u1) <= 2e-7


def test_rarefaction_zero_length(base_left):
    crv = integrate_rarefaction(1, base_left, base_left.u)
    assert crv.q_at(base_left.u) == base_left.q
    us = np.full(5, base_left.u)
    assert np.all(crv.q_at(us) == base_left.q)


def test_rarefaction_argument_errors(base_left):
    with pytest.raises(ValueError):
        integrate_rarefaction(3, base_left, 2.0)
    with pytest.raises(PreconditionError):
        integrate_rarefaction(1, base_left, math.nan)
    with pytest.raises(PreconditionError):
        integrate_rarefaction(1, base_left, base_left.u - 0.5)


def test_family_1_stops_on_critical_curve(base_left):
    with pytest.raises(DomainError):
        integrate_rarefaction(1, base_left, 3.5)
    with pytest.raises(DomainError):
        integrate_rarefaction(1, TransState(1.0, 0.5), 1.5)


def test_forward_curve_crossing(base_left):
    crv = forward_curve_1(base_left)
    star = crv.u_star
    assert_close(star, 2.909122845035592, 1e-9)
    # Just below the crossing the curve sits above critical, at and past it
    # the composite continuation is the critical curve itself.
    u_in = star - 1e-3
    assert crv.q(u_in) > 0.5 * u_in * u_in
    assert crv.q(3.5) == 0.5 * 3.5 * 3.5
    assert crv.q(-1.0) == shock_q_1(base_left, -1.0)
    assert_close(crv.q(-1.0), 14.806859285554046, 1e-12)


def test_backward_curve_composite(base_left):
    right = TransState(0.7, 7.0)
    crv = backward_curve_2(right)
    assert crv.q(right.u) == right.q
    assert crv.q(1.0) == inverse_shock_q_2(right, 1.0)
    # The backward rarefaction branch approaches the critical curve from
    # above but never touches it.
    gap = crv.q(-10.0) - 0.5 * 100.0
    assert 0.0 <= gap <= 1e-5
    us = np.linspace(right.u, -10.0, 30)
    gaps = [crv.q(float(u)) - 0.5 * u * u for u in us]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_curve_slope_bounds(base_left):
    # lambda_1 <= u - 1 and lambda_2 >= u wherever the state is admissible,
    # so rarefaction rows inherit those bounds.
    rows1 = tabulate_curve("rw1", base_left, np.linspace(1.0, 2.8, 40))
    assert np.all(rows1[:, 2] <= rows1[:, 0] - 1.0 + 1e-12)
    rows2 = tabulate_curve("rw2", base_left, np.linspace(1.0, 4.0, 40))
    assert np.all(rows2[:, 2] >= rows2[:, 0] - 1e-12)
    # Each table starts at the base state, at its family's characteristic speed.
    for family, rows in ((1, rows1), (2, rows2)):
        assert rows[0, 1] == base_left.q
        assert_close(rows[0, 2], family_lambda(family, base_left.u, base_left.q), 1e-12)
    with pytest.raises(ValueError, match="family must be 1 or 2"):
        family_lambda(3, base_left.u, base_left.q)


def test_tabulate_shock_speed_column(base_left):
    us = np.linspace(-1.0, 1.0, 9)
    for kind, fn in (("sw1", shock_q_1), ("sw2", shock_q_2)):
        rows = tabulate_curve(kind, base_left, us)
        assert rows.shape == (9, 3)
        for u, q, lam in rows:
            assert q == fn(base_left, u)
            if abs(u - base_left.u) > 1e-13:
                assert_close(lam, (base_left.q - q) / (base_left.u - u), 1e-12)
    # At the base point the speed column degenerates to the characteristic.
    rows = tabulate_curve("sw1", base_left, np.array([1.0]))
    assert rows[0, 2] == family_lambda(1, base_left.u, base_left.q)


def test_tabulate_inverse_shock(base_left):
    right = TransState(0.7, 7.0)
    rows = tabulate_curve("sw2_inv", right, np.linspace(0.7, 2.0, 7))
    for u, q, lam in rows:
        assert q == inverse_shock_q_2(right, u)
        if abs(u - right.u) > 1e-13:
            assert_close(lam, (q - right.q) / (u - right.u), 1e-12)


def test_tabulate_rw1_truncates_at_crossing(base_left):
    rows = tabulate_curve("rw1", base_left, np.linspace(1.0, 3.5, 6))
    assert rows.shape == (4, 3)
    assert rows[-1, 0] == 2.5


def test_tabulate_argument_errors(base_left):
    with pytest.raises(PreconditionError):
        tabulate_curve("rw1", base_left, np.array([]))
    with pytest.raises(ValueError):
        tabulate_curve("bogus", base_left, np.array([1.0]))
    with pytest.raises(PreconditionError):
        tabulate_curve("rw1", base_left, np.array([0.0]))
    with pytest.raises(PreconditionError):
        tabulate_curve("rw2_inv", base_left, np.array([2.0]))


def test_independent_curves_bit_identical_in_any_order():
    right = TransState(0.7, 7.0)
    warm = backward_curve_2(right)
    near_first = warm.q(-0.5)
    far_after = warm.q(-3.0)
    cold = backward_curve_2(right)
    assert cold is not warm
    far_first = cold.q(-3.0)
    near_after = cold.q(-0.5)
    assert near_first == near_after
    assert far_after == far_first

    left = TransState(1.0, 5.0)
    a = forward_curve_1(left)
    v1, v2 = a.q(1.3), a.q(2.7)
    b = forward_curve_1(left)
    w2, w1 = b.q(2.7), b.q(1.3)
    assert (v1, v2) == (w1, w2)
    assert isinstance(a, Forward1Curve)
    assert isinstance(cold, Backward2Curve)

    us = np.linspace(-1.0, 2.9, 17)
    crv = integrate_rarefaction(1, left, 2.9)
    assert np.array_equal(crv.q_at(us), crv.q_at(us[::-1])[::-1])
    assert [crv.q_at(float(u)) for u in us] == list(crv.q_at(us))
    # Sequences evaluate as arrays and 0-d arrays as floats.
    assert np.array_equal(crv.q_at(list(us)), crv.q_at(us))
    assert np.array_equal(crv.lam_at(tuple(us)), crv.lam_at(us))
    assert type(crv.q_at(np.float64(1.3))) is float
    assert crv.q_at(np.array(1.3)) == crv.q_at(1.3) and type(crv.lam_at(np.array(1.3))) is float


def test_crossing_only_when_reached(base_left):
    # u* of the (1, 5) base is its rarefaction's exact critical-curve crossing.
    crv = forward_curve_1(base_left)
    assert crv.u_star == integrate_rarefaction(1, base_left, 2.5).u_star
    assert_close(crv.u_star, 2.909122845680405, 1e-15)
    # A left state on the critical curve crosses at its own velocity.
    assert forward_curve_1(TransState(0.5, 0.125)).u_star == 0.5


def _varied_base(rng, i: int) -> TransState:
    """Every third base near the critical curve, every fifth far above it.

    Far above it (slack 1e5..1e7) the family-1 root z - ln z = L has
    e^{-L} below the smallest double.
    """
    base = random_above_critical(rng)
    if i % 3 == 0:
        return TransState(base.u, 0.5 * base.u ** 2
                          + 10.0 ** float(rng.uniform(-12.0, -2.0)))
    if i % 5 == 0:
        return TransState(base.u, 0.5 * base.u ** 2
                          + 10.0 ** float(rng.uniform(5.0, 7.0)))
    return base


def test_rarefaction_q_matches_mpmath(rng, mp50):
    for i in range(60):
        base = _varied_base(rng, i)
        crv1 = integrate_rarefaction(1, base, base.u)
        u1 = base.u + float(rng.uniform(0.0, 0.999)) * (crv1.u_star - base.u)
        crv2 = integrate_rarefaction(2, base, base.u)
        u2 = base.u + float(rng.uniform(-4.0, 4.0))
        assert mp_rel(crv1.q_at(u1), mp_q(1, base, u1)) <= 1e-13
        assert mp_rel(crv2.q_at(u2), mp_q(2, base, u2)) <= 1e-13


def test_crossing_matches_mpmath(rng, mp50):
    for i in range(40):
        base = _varied_base(rng, i)
        star = forward_curve_1(base).u_star
        exact = mp_constant(1, base) - mp.mpf(1) / 2 + mp.log(2) / 2
        assert mp_rel(star, exact, base.u) <= 1e-13


def test_ray_inverse_matches_mpmath(rng, mp50):
    for i in range(40):
        base = _varied_base(rng, i)
        for family, crv in ((1, integrate_rarefaction(1, base, base.u)),
                            (2, integrate_rarefaction(2, base, base.u + 2.0))):
            hi = crv.u_star if family == 1 else base.u + 2.0
            lo = base.u if family == 1 else base.u - 3.0
            u_ray = lo + float(rng.uniform(0.0, 0.999)) * (hi - lo)
            xi = crv.lam_at(u_ray)
            u, q, _ = crv.ray(xi)
            u_ref, q_ref = mp_at_speed(family, mp_constant(family, base), xi)
            assert mp_rel(u, u_ref, xi) <= 1e-13
            assert mp_rel(q, q_ref) <= 1e-13


def _check_kernel(kernel, args, reference):
    """Kernel on floats and on one array against 50-digit references.

    Relative error at most 2e-15; below the smallest normal double, where a
    result carries fewer digits, at most one subnormal unit.  Float and
    array results agree to 2 ulp.
    """
    args = np.asarray(args, dtype=float)
    scalars = [kernel(float(a)) for a in args]
    array = kernel(args)
    assert isinstance(array, np.ndarray) and array.shape == args.shape
    for a, s, v in zip(args, scalars, array):
        assert type(s) is float, (a, s)
        ref = reference(float(a))
        for got in (s, float(v)):
            err = abs(mp.mpf(got) - ref)
            assert err <= 2e-15 * abs(ref) or err <= 2.0 ** -1074, (a, got, ref)
        assert abs(s - v) <= 2.0 * math.ulp(max(abs(s), abs(v))), (a, s, v)


def test_omega_matches_mpmath(mp50):
    # omega(x) = W(e^x) over x in [-800, 1e8] and at -inf: e^x underflowing
    # near -745, subnormal results down to there, the start's region edges
    # at -2 and 1, x near 0, and large x.
    rng = np.random.default_rng(917)
    xs = np.concatenate([
        [-math.inf, -800.0, -750.0, -745.2, -745.13, -745.1, -708.4, -708.39,
         -2.0, -1.0, 0.0, 1.0, 1e8],
        rng.uniform(-800.0, -700.0, 40),
        -745.133 + rng.uniform(-0.05, 0.05, 20),
        rng.uniform(-60.0, 10.0, 200),
        rng.choice((-1.0, 1.0), 30) * 10.0 ** rng.uniform(-17.0, -1.0, 30),
        -2.0 + rng.uniform(-1e-6, 1e-6, 10),
        1.0 + rng.uniform(-1e-6, 1e-6, 10),
        10.0 ** rng.uniform(0.0, 8.0, 100),
    ])

    def reference(x):
        return mp.mpf(0) if x == -math.inf else mp.lambertw(mp.exp(mp.mpf(x))).real

    _check_kernel(_omega, xs, reference)
    # Exactly 0 at -inf and wherever e^x underflows to 0.
    for x in (-math.inf, -1e300, -800.0, -745.2):
        assert math.exp(x) == 0.0 and _omega(x) == 0.0
        assert _omega(np.array([x]))[0] == 0.0


def test_composite_curve_slopes_match_mpmath(mp50):
    # slope(u, q(u)) against the 50-digit derivative of the composite curve:
    # shock and rarefaction branches, both sides of the data velocity, past
    # u* and at its kink, on raw draws in a box, at 10^U(-3, 3) and at
    # 10^U(8, 16).  The reference curve runs through (u0, u0^2/2 + slack),
    # with the slack the curve's constants are built from, exactly in
    # mpmath.  Bound: 64 eps of the terms and of the slope, where q enters
    # a rarefaction's speed through its slack with weight 2/s.
    rng = np.random.default_rng(32)
    eps = np.finfo(float).eps
    for k in range(45):
        if k < 15:
            x = rng.uniform(-1.0, 1.0, 4) * (3.0, 3.0, 3.0, 3.0)
        else:
            lo, hi = (-3.0, 3.0) if k < 30 else (8.0, 16.0)
            x = 10.0 ** rng.uniform(lo, hi, 4) * rng.choice((-1.0, 1.0), 4)
        left, right = lift(BrioState(x[0], x[1])), lift(BrioState(x[2], x[3]))
        f1, b2 = Forward1Curve(left), Backward2Curve(right)
        us = f1.u_star
        d = float(10.0 ** rng.uniform(-3.0, 0.0)) * (1.0 + abs(left.u))
        e = float(10.0 ** rng.uniform(-3.0, 0.0)) * (1.0 + abs(right.u))
        points = [(f1, left.u - d, 0), (f1, left.u, 1), (f1, left.u, -1), (f1, us + d, 0),
                  (f1, us - 1e-6 * (1.0 + abs(us)), -1), (b2, right.u + e, 0),
                  (b2, right.u - e, 0), (b2, right.u, 1), (b2, right.u, -1)]
        if us > left.u:
            points.append((f1, left.u + 0.5 * (us - left.u), 0))
        for curve, u, direction in points:
            excess, base = (mp_excess_f1, left) if curve is f1 else (mp_excess_b2, right)
            q = curve.q(u)
            got = curve.slope(u, q)
            exact = types.SimpleNamespace(u=base.u, q=mp.mpf(base.u) ** 2 / 2 + mp.mpf(base.slack))
            ref = mp.diff(lambda z: z * z / 2 + excess(exact, z), mp.mpf(u), direction=direction)
            s = mp.sqrt(8 * excess(exact, mp.mpf(u)) + 1)
            on_rarefaction = (u >= base.u) if curve is f1 else (u <= base.u)
            tol = 64 * eps * (1 + abs(u) + abs(base.u) + abs(ref)
                              + (abs(q) / s if on_rarefaction else 0))
            assert abs(got - ref) <= tol, (left, right, u, direction, got, ref)
        # At the crossing the curve turns onto q = u^2/2, whose slope is u.
        assert f1.slope(us, f1.q(us)) == us


@pytest.mark.parametrize("z_min", [2.0, 4.0])
def test_root_z_minus_ln_z_matches_mpmath(mp50, z_min):
    # -W_{-1}(-e^{-L}) from the z_min clamp up to L = 1e8, across L = 700
    # and beyond, where e^{-L} underflows.
    rng = np.random.default_rng(96)
    l_min = z_min - math.log(z_min)
    ls = np.concatenate([
        [l_min - 1.0, l_min, 700.0, 1e8],
        l_min + 10.0 ** rng.uniform(-16.0, 0.0, 40),
        rng.uniform(l_min, 60.0, 150),
        rng.uniform(690.0, 750.0, 40),
        10.0 ** rng.uniform(0.5, 8.0, 100),
    ])

    def reference(L):
        L = max(mp.mpf(L), mp.mpf(z_min) - mp.log(z_min))
        return -mp.lambertw(-mp.exp(-L), -1).real

    _check_kernel(lambda L: _root_z_minus_ln_z(L, z_min), ls, reference)
    assert _root_z_minus_ln_z(l_min - 1.0, z_min) == z_min


def test_shock_speed_matches_mpmath_near_the_base(rng, mp50):
    # Reference: the root form of the locus in 50 digits, then [q]/[u].
    # In doubles [q]/[u] loses digits as the jump shrinks; the locus speed
    # does not.
    for i in range(120):
        base = random_above_critical(rng)
        du = 10.0 ** float(rng.uniform(-10.0, 0.0))
        a, qa = mp.mpf(base.u), mp.mpf(base.q)
        if i % 2 == 0:  # family 1, from base down to u
            u = base.u - du
            m = mp.mpf(u)
            root = mp.sqrt(2 * qa + mp.mpf(1) / 4 + (a - m) / 2 - (2 * a * a + 2 * a * m - m * m) / 3)
            q = qa - (a - m) * (2 * m - 1) / 2 + (a - m) * root
            got = shock_speed(1, base, TransState(u, shock_q_1(base, u)))
        else:  # family 2, from u down to base
            u = base.u + du
            m = mp.mpf(u)
            root = mp.sqrt(8 * qa + 1 + (4 * m * m - 8 * m * a - 8 * a * a) / 3 - 2 * m + 2 * a)
            q = qa + (m - a) * (2 * m - 1) / 2 + (m - a) * root / 2
            got = shock_speed(2, TransState(u, inverse_shock_q_2(base, u)), base)
        assert mp_rel(got, (q - qa) / (m - a), base.u) <= 1e-13, (base, u)
    with pytest.raises(PreconditionError):
        shock_speed(1, TransState(0.0, 1.0), TransState(0.5, 1.0))
    with pytest.raises(ValueError):
        shock_speed(3, TransState(0.0, 1.0), TransState(-0.5, 1.0))


def test_ray_inverse_round_trip(rng):
    for _ in range(100):
        base = random_above_critical(rng)
        for crv, lo, hi in (
                (integrate_rarefaction(1, base, base.u), base.u, None),
                (integrate_rarefaction(2, base, base.u), base.u - 3.0, base.u + 3.0)):
            hi = crv.u_star if hi is None else hi
            xi = crv.lam_at(np.linspace(lo, hi, 33))
            u, q, _ = crv.ray(xi)
            assert np.all(np.abs(crv.lam_at(u) - xi) <= 1e-12 * (1.0 + np.abs(xi)))
            assert np.all(np.abs(q - crv.q_at(u)) <= 1e-12 * (1.0 + np.abs(q)))
            assert np.all(q >= 0.5 * u * u)


def _tabulate_shock_loop(kind: str, base: TransState, us) -> np.ndarray:
    """Row-at-a-time reference for the shock branches of tabulate_curve.

    The speed column is the locus speed at the row's velocity, clamped to
    the branch's side of the base: u - 1/2 -+ sqrt(shock_radicand) on the
    forward loci, u - 1/2 + sqrt(inverse_radicand)/2 on the inverse one.
    """
    rows = []
    for u in us:
        u = float(u)
        if kind == "sw2_inv":
            q = inverse_shock_q_2(base, u)
            a = max(u, base.u)
            lam = a - 0.5 + 0.5 * math.sqrt(max(inverse_radicand(base, a), 0.0))
        else:
            sign = 1.0 if kind == "sw1" else -1.0
            q = (shock_q_1 if kind == "sw1" else shock_q_2)(base, u)
            a = min(u, base.u)
            lam = a - 0.5 - sign * math.sqrt(max(shock_radicand(base, a), 0.0))
        rows.append((u, q, lam))
    return np.asarray(rows)


@pytest.mark.parametrize("slack", [0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e5, 1e7])
def test_tabulate_shock_rows_match_row_loop(rng, slack):
    for _ in range(6):
        u = float(rng.uniform(-2.0, 3.0))
        base = TransState(u, 0.5 * u * u + slack)
        span = float(10.0 ** rng.uniform(-3.0, 2.0))
        n = int(rng.integers(2, 300))
        near = [u - TOL_ZERO / 2, u + TOL_ZERO / 2]
        below = np.sort(np.concatenate([np.linspace(u - span, u, n), near[:1]]))
        above = np.sort(np.concatenate([np.linspace(u, u + span, n), near[1:]]))
        for kind, us in (("sw1", below), ("sw2", below), ("sw2_inv", above)):
            rows = tabulate_curve(kind, base, us)
            assert rows.tobytes() == _tabulate_shock_loop(kind, base, us).tobytes()
    with pytest.raises(PreconditionError):
        tabulate_curve("sw2", base, np.array([u - 1.0, u + 1e-3]))
    with pytest.raises(PreconditionError):
        tabulate_curve("sw2_inv", base, np.array([u + 1.0, u - 1e-3]))


def _raw_bases(rng, n: int):
    """Raw states with |u| = 10^U(-2, 3) and |v|/|u| = 10^U(-8, 0); every fourth has v = 0."""
    for i in range(n):
        u = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0))
        r = 0.0 if i % 4 == 3 else float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 0.0))
        yield lift(BrioState(u, r * u))


def _assert_ulps(a, b, k: int, what) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.all(np.abs(a - b) <= k * np.spacing(np.maximum(np.abs(a), np.abs(b)))), what


def test_composite_curves_agree_with_scalar_and_array_evaluators():
    # The composite curves fix their branch constants at construction.  On
    # every branch, past u* included, they give the public scalar loci and
    # the float IntegralCurve values bit for bit, and tabulate_curve's rows
    # (q and the speed column) agree with the scalar values within 4 ulps.
    rng = np.random.default_rng(27)
    for base in _raw_bases(rng, 160):
        f1, b2 = forward_curve_1(base), backward_curve_2(base)
        rw1, rw2 = integrate_rarefaction(1, base, base.u), integrate_rarefaction(2, base, base.u)
        star, scale = f1.u_star, 1.0 + abs(base.u)
        below = np.sort(base.u - scale * 10.0 ** rng.uniform(-8.0, 1.0, 12)).tolist()
        above = np.sort(base.u + scale * 10.0 ** rng.uniform(-8.0, 1.0, 12)).tolist()
        # The rarefaction branch is [base.u, u*); it is empty when u* rounds to base.u.
        inner = base.u + (star - base.u) * np.sort(rng.uniform(0.0, 1.0, 12))
        rare = [u for u in [base.u] + inner.tolist() if u < star]
        for u in (star + (1.0 + abs(star)) * 10.0 ** rng.uniform(-12.0, 1.0, 6)).tolist():
            assert f1.q(u) == rw1.q_at(u) == 0.5 * u * u, (base, u)
        for u in below:
            assert f1.q(u) == shock_q_1(base, u) and b2.q(u) == rw2.q_at(u), (base, u)
        for u in above:
            assert b2.q(u) == inverse_shock_q_2(base, u), (base, u)
        for u in rare:
            assert f1.q(u) == rw1.q_at(u), (base, u)
        assert b2.q(base.u) == rw2.q_at(base.u) == base.q, base

        def shock_1(u):
            return shock_speed(1, base, TransState(u, f1.q(u)))

        def shock_2_inv(u):
            return shock_speed(2, TransState(u, b2.q(u)), base)

        # kind: (velocities, scalar q, scalar speed or None)
        for kind, us, q, lam in (("sw1", below, f1.q, shock_1),
                                 ("sw2", below, lambda u: shock_q_2(base, u), None),
                                 ("rw2_inv", below, b2.q, rw2.lam_at),
                                 ("sw2_inv", above, b2.q, shock_2_inv),
                                 ("rw2", above, rw2.q_at, rw2.lam_at),
                                 ("rw1", rare, f1.q, rw1.lam_at)):
            if not us:
                continue
            rows = tabulate_curve(kind, base, us)
            assert rows[:, 0].tolist() == us, (kind, base)
            _assert_ulps(rows[:, 1], [q(u) for u in us], 4, (kind, base))
            if lam is not None:
                _assert_ulps(rows[:, 2], [lam(u) for u in us], 4, (kind, base))
