import math

import mpmath as mp
import numpy as np
import pytest

from briodelta import RiemannData, TransState, project, verify
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
