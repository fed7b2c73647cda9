import math

import numpy as np
import pytest

from briodelta import (
    BrioState,
    DegenerateJump,
    DomainError,
    TransState,
    brio_flux,
    brio_flux_pair,
    brio_lambdas,
    eigen_brio,
    eigen_trans,
    energy,
    genuine_nonlinearity,
    lift,
    project,
    trans_flux,
    triangular_flux_pair,
)
from briodelta.core import brio_shock_speed, discriminant, trans_shock_speed

from conftest import random_above_critical


def test_lift_is_energy():
    s = BrioState(1.0, 5.0)
    t = lift(s)
    assert t.u == 1.0
    assert t.q == energy(s) == 13.0


def test_lift_project_round_trip(rng):
    for _ in range(500):
        u = float(rng.uniform(-3, 3))
        v = float(rng.uniform(-4, 4))
        s = BrioState(u, v)
        t = lift(s)
        sign = 1.0 if v >= 0 else -1.0
        back = project(t, sign)
        assert abs(back.u - u) == 0.0
        assert abs(back.v - v) <= 1e-12 * (1.0 + abs(v))


def test_project_lift_round_trip(rng):
    for _ in range(500):
        t = random_above_critical(rng)
        for sign in (1.0, -1.0):
            s = project(t, sign)
            assert sign * s.v >= 0.0
            t2 = lift(s)
            assert abs(t2.q - t.q) <= 1e-12 * (1.0 + abs(t.q))


def test_project_rejects_bad_sign():
    with pytest.raises(ValueError):
        project(TransState(0.0, 1.0), 0.5)


def test_trans_state_domain_guard():
    # Clearly below the critical curve is rejected; rounding-level slack
    # is tolerated (states produced by the ODE integrator sit there).
    with pytest.raises(DomainError):
        TransState(2.0, 1.9)
    t = TransState(2.0, 2.0 - 1e-14)
    # Its slack reads as zero: it projects to v = 0 and has the
    # critical-curve genuine nonlinearity.
    assert t.slack == 0.0
    assert project(t, 1.0).v == 0.0 and project(t, -1.0).v == 0.0
    assert genuine_nonlinearity(t) == (3.0, 1.0)
    # Above the curve the slack is the difference itself, bit for bit.
    for u, q in ((2.0, 2.5), (-3.7, 7.3), (1e8, 5e15 + 1.0), (1e-20, 1e-30)):
        assert TransState(u, q).slack == q - 0.5 * u * u


def test_transformed_flux_values():
    g = trans_flux(TransState(1.0, 5.0))
    assert g[0] == 5.0
    assert abs(g[1] - 29.0 / 6.0) <= 1e-15
    # G(u, q) = (2u - 1) q + u^2/2 - 2 u^3/3 recomputed by hand.
    assert abs(g[1] - ((2 - 1) * 5.0 + 0.5 - 2.0 / 3.0)) <= 1e-15


def test_brio_flux_values():
    f = brio_flux(BrioState(2.0, 3.0))
    assert f == (6.5, 3.0)


def test_flux_pairs_accept_arrays():
    u = np.array([0.0, 1.0, -2.0])
    v = np.array([1.0, 0.5, 2.0])
    pair = brio_flux_pair()
    assert np.allclose(pair.f(u, v), 0.5 * (u * u + v * v))
    assert np.allclose(pair.g(u, v), v * (u - 1.0))
    tri = triangular_flux_pair()
    assert np.allclose(tri.f(u, v), 0.5 * u * u)
    assert np.allclose(tri.g(u, v), v * (u - 1.0))


def test_eigen_trans_frozen_values():
    e = eigen_trans(TransState(1.0, 5.0))
    root = math.sqrt(37.0)
    assert abs(e.lam_minus - 0.5 * (1.0 - root)) <= 1e-14
    assert abs(e.lam_plus - 0.5 * (1.0 + root)) <= 1e-14
    e0 = eigen_trans(TransState(0.0, 0.0))
    assert (e0.lam_minus, e0.lam_plus) == (-1.0, 0.0)


def test_eigen_trans_solves_jacobian(rng):
    # Independent check: r is an eigenvector of the flux Jacobian
    # [[0, 1], [G_u, G_q]] with G_u = 2q + u - 2u^2, G_q = 2u - 1.
    for _ in range(300):
        t = random_above_critical(rng)
        gu = 2.0 * t.q + t.u - 2.0 * t.u * t.u
        gq = 2.0 * t.u - 1.0
        e = eigen_trans(t)
        scale = 1.0 + abs(t.u) + abs(t.q)
        for lam, r in ((e.lam_minus, e.r_minus), (e.lam_plus, e.r_plus)):
            res = (r[1] - lam * r[0], gu * r[0] + gq * r[1] - lam * r[1])
            assert max(abs(res[0]), abs(res[1])) <= 1e-12 * scale


def test_strict_hyperbolicity_gap(rng):
    # The discriminant is 8(q - u^2/2) + 1 >= 1 on the domain, so the
    # characteristic speeds never get closer than 1.
    for _ in range(300):
        t = random_above_critical(rng, slack=(0.0, 4.0))
        assert discriminant(t.u, t.q) >= 1.0 - 1e-12
        e = eigen_trans(t)
        assert e.lam_plus - e.lam_minus >= 1.0 - 1e-12


def test_genuine_nonlinearity_range(rng):
    for _ in range(300):
        t = random_above_critical(rng, slack=(1e-6, 4.0))
        g_slow, g_fast = genuine_nonlinearity(t)
        assert 2.0 < g_slow <= 3.0
        assert 1.0 <= g_fast < 2.0
    assert genuine_nonlinearity(TransState(0.0, 0.0)) == (3.0, 1.0)


def test_brio_and_trans_eigen_agree(rng):
    # The original-variable speeds u - 1/2 -+ sqrt(v^2 + 1/4) must coincide
    # with the transformed speeds evaluated at the lifted state; the two
    # expressions are algebraically equal but follow different float paths.
    for _ in range(1000):
        s = BrioState(float(rng.uniform(-3, 3)), float(rng.uniform(-4, 4)))
        lam1, lam2 = eigen_brio(s)
        e = eigen_trans(lift(s))
        scale = 1.0 + abs(s.u) + abs(s.v)
        assert abs(lam1 - e.lam_minus) <= 1e-12 * scale
        assert abs(lam2 - e.lam_plus) <= 1e-12 * scale


def test_brio_lambda_closed_form():
    lam1, lam2 = brio_lambdas(1.0, 0.0)
    assert abs(lam1 - 0.0) <= 1e-15
    assert abs(lam2 - 1.0) <= 1e-15
    lam1, lam2 = brio_lambdas(0.0, 1.0)
    root = math.sqrt(1.25)
    assert abs(lam1 - (-0.5 - root)) <= 1e-15
    assert abs(lam2 - (-0.5 + root)) <= 1e-15


def test_shock_speeds():
    assert brio_shock_speed(BrioState(1.0, 0.0), BrioState(0.0, 1.0)) == 0.0
    assert trans_shock_speed(TransState(1.0, 5.0), TransState(0.5, 4.0)) == 2.0
    with pytest.raises(DegenerateJump):
        brio_shock_speed(BrioState(1.0, 0.0), BrioState(1.0, 2.0))
    with pytest.raises(DegenerateJump):
        trans_shock_speed(TransState(1.0, 5.0), TransState(1.0, 6.0))


def test_state_validation():
    with pytest.raises(DomainError):
        BrioState(float("nan"), 0.0)
    with pytest.raises(DomainError):
        TransState(0.0, float("inf"))
