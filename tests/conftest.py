import math

import mpmath as mp
import numpy as np
import pytest

from briodelta import BrioState, RiemannData, TransState, project, verify
from briodelta.wave_curves import shock_q_1, shock_q_2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def base_left():
    return TransState(1.0, 5.0)


@pytest.fixture
def fixture_pair():
    """The transformed pair used throughout: left (1,5), right (0.7,7)."""
    return TransState(1.0, 5.0), TransState(0.7, 7.0)


def region_iv_pair():
    """Forward-constructed two-shock data from the (1,5) base."""
    left = TransState(1.0, 5.0)
    mid = TransState(0.4, shock_q_1(left, 0.4))
    right = TransState(0.1, shock_q_2(mid, 0.1))
    return left, right, mid


def brio_data_from_trans(left: TransState, right: TransState,
                         s_left: float = 1.0,
                         s_right: float = 1.0) -> RiemannData:
    return RiemannData(project(left, s_left), project(right, s_right))


def random_above_critical(rng, u_range=(-2.0, 3.0),
                          slack=(0.05, 4.0)) -> TransState:
    u = float(rng.uniform(*u_range))
    return TransState(u, 0.5 * u * u + float(rng.uniform(*slack)))


def max_residual(results) -> float:
    """Largest residual of a weak_residual result, inf if any is not finite."""
    return verify._worst(results)


# 1 + max |data|, the scale on which the suite judges weak residuals.
data_scale = verify._suite_weak_scale


def assert_close(a: float, b: float, tol: float, label: str = "") -> None:
    assert abs(a - b) <= tol, f"{label} |{a!r} - {b!r}| > {tol:g}"


def is_sorted(xs) -> bool:
    return all(a <= b for a, b in zip(xs, xs[1:]))


def finite(x: float) -> bool:
    return math.isfinite(x)


# 50-digit references from the parametrization of each rarefaction by
# s = sqrt(8q - 4u^2 + 1):  family 1 u = -s/2 + ln(s + 1)/2 + C,
# family 2 u = s/2 + ln(s - 1)/2 + C.

@pytest.fixture
def mp50():
    with mp.workdps(50):
        yield


def mp_constant(family: int, base: TransState):
    u, q = mp.mpf(base.u), mp.mpf(base.q)
    s = mp.sqrt(8 * q - 4 * u * u + 1)
    if family == 1:
        return u + s / 2 - mp.log(s + 1) / 2
    return u - s / 2 - mp.log(s - 1) / 2


def mp_offset(family: int, c, u):
    """t = s - 1 at velocity u on the family's curve with constant c.

    q - u^2/2 = t(t + 2)/8 keeps its digits however small t is.
    """
    x = 2 * (mp.mpf(u) - c) - 1
    if family == 1:
        return -mp.re(mp.lambertw(-mp.exp(x), -1)) - 2
    return mp.re(mp.lambertw(mp.exp(x)))


def mp_q(family: int, base: TransState, u: float):
    t = mp_offset(family, mp_constant(family, base), u)
    return mp.mpf(u) ** 2 / 2 + t * (t + 2) / 8


def mp_at_speed(family: int, c, xi: float):
    """State (u, q) where the speed of the family's curve with constant c is xi."""
    xi = mp.mpf(xi)
    k = 2 * xi - 1 - 2 * c
    if family == 1:
        z = -mp.re(mp.lambertw(-2 * mp.exp(k), -1)) / 2
        u, s = xi + z / 2, z - 1
    else:
        y = mp.re(mp.lambertw(2 * mp.exp(k))) / 2
        u, s = xi - y / 2, y + 1
    return u, u * u / 2 + (s * s - 1) / 8


def mp_rel(a, b, *inputs) -> float:
    """Error of a against b, relative to the largest of |b|, 1 and |inputs|.

    A value near zero that comes out of larger inputs (u* near 0, or
    u = xi + z/2 with |xi| in the thousands) carries their rounding.
    """
    scale = max([abs(b), mp.mpf(1)] + [abs(mp.mpf(x)) for x in inputs])
    return float(abs(mp.mpf(a) - b) / scale)


def mp_excess_f1(left: TransState, u):
    """q - u^2/2 on the composite family-1 curve through left, in mpmath.

    Taken as an excess so that the exponentially small gap of a curve
    running along q = u^2/2 is not lost beside u^2/2.
    """
    a, qa = mp.mpf(left.u), mp.mpf(left.q)
    if u < a:  # shock locus, upper root of the jump-condition quadratic
        rad = 2 * qa + mp.mpf(1) / 4 + (a - u) / 2 - (2 * a * a + 2 * a * u - u * u) / 3
        return qa - u * u / 2 - (a - u) * (2 * u - 1) / 2 + (a - u) * mp.sqrt(rad)
    c = mp_constant(1, left)
    if u >= c - mp.mpf(1) / 2 + mp.log(2) / 2:  # past the critical-curve crossing
        return mp.mpf(0)
    t = mp_offset(1, c, u)
    return t * (t + 2) / 8


def mp_excess_b2(right: TransState, u):
    """q - u^2/2 on the composite backward family-2 curve through right."""
    b, qb = mp.mpf(right.u), mp.mpf(right.q)
    if u > b:  # inverse shock locus
        rad = 8 * qb + 1 + (4 * u * u - 8 * u * b - 8 * b * b) / 3 - 2 * u + 2 * b
        return qb - u * u / 2 + (u - b) * (2 * u - 1) / 2 + (u - b) * mp.sqrt(rad) / 2
    t = mp_offset(2, mp_constant(2, right), u)
    return t * (t + 2) / 8


def sampler_rays(rng, edges):
    """Ray sets for a sampler with these finite edge speeds.

    Random rays over the edges +-1 mixed with every edge, its float
    neighbours and +-0.0; the edges and neighbours alone; +-0.0 and each
    edge as 1-element arrays; -0.0 and the first edge as 0-d arrays.
    """
    edges = [float(e) for e in edges]
    lo, hi = min(edges + [0.0]) - 1.0, max(edges + [0.0]) + 1.0
    near = [x for e in edges for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    mixed = np.concatenate([rng.uniform(lo, hi, 40), near, [0.0, -0.0]])
    rng.shuffle(mixed)
    return [mixed, np.array(near), np.array([0.0]), np.array([-0.0]), np.asarray(-0.0),
            *(np.array([e]) for e in edges), *(np.asarray(e) for e in edges[:1])]


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert isinstance(a, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def raw_pool_pairs():
    """Every ordered pair of a seeded pool of 24 raw (u, v) states: 552 pairs."""
    rng = np.random.default_rng(24)
    pool = [BrioState(float(u), float(v))
            for u, v in zip(rng.uniform(-2.0, 3.0, 24), rng.uniform(-3.0, 3.0, 24))]
    return [(a, b) for a in pool for b in pool if a is not b]
