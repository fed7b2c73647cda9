"""Riemann solver for the transformed system.

The middle state is the unique intersection of the composite family-1 curve
through the left state with the composite inverse family-2 curve through the
right state.  Their difference phi(u) = f1(u) - b2(u) falls monotonically, so
its one root is bracketed from the data: the interval between the two
velocities, with each end whose sign is wrong pushed outward by 1, 2, 4, ...
until phi(lo) >= 0 >= phi(hi), then polished by Newton steps on the curves'
closed-form slopes, safeguarded by bisection.  The four
sign combinations of (u_M - u_L, u_R - u_M) classify the fan into the four
shock/rarefaction regions.  A wave exists exactly when u_M differs from the
data velocity on its side: there is no tie tolerance, since near q = u^2/2 a
family-1 wave of u-width du still jumps v by about sqrt(du).

Each wave is built on the curve the middle state was found on: a family-1
wave on the curve through the left state, a family-2 wave on the curve
through the right state.  A rarefaction is the rarefaction curve of that
data state (for family 2 the same base and constant C as the backward curve
that was intersected), and its edge speeds are that curve's speeds at the
end velocities, so the ray inverse maps them back onto the end states.  A
shock's speed is its locus speed (wave_curves.shock_speed), not [q]/[u].

The fan is admissible by construction, so no wave is re-checked.  The loci
come from eliminating c from both jump conditions, so they satisfy both,
and each Lax gap of a shock is positive once its velocity gap is (sigma is
the slack q - u^2/2):
- family-1 shock, d = u_L - u_M > 0, R = shock_radicand, c = u_M - 1/2 - sqrt(R),
  so sigma_M = sigma_L + d (d/2 + 1/2 + sqrt(R)):
  lambda_1(L) - c = d + sqrt(R) - sqrt(2 sigma_L + 1/4),
  c - lambda_1(M) = (2d^2/3 + d/2 + 2d sqrt(R)) / (sqrt(2 sigma_M + 1/4) + sqrt(R)),
  lambda_2(M) - c = sqrt(2 sigma_M + 1/4) + sqrt(R);
- family-2 shock, e = u_M - u_R > 0, R' = inverse_radicand >= 8 sigma_R + 1/4,
  c = u_M - 1/2 + sqrt(R')/2:
  c - lambda_2(R) >= e/3,
  lambda_2(M) - c = (8e^2/3 - 2e + 4e sqrt(R')) / (2 (sqrt(8 sigma_M + 1) + sqrt(R'))),
  c - lambda_1(M) > 0;
- order: every family-1 speed is <= u_M - 1 and every family-2 speed is
  >= u_M - 1/4 (sqrt(R) >= 1/2, sqrt(R') >= 1/2, and along a rarefaction
  lambda_1 = u - 1 - t/2, lambda_2 = u + t/2 with t = s - 1 >= 0).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import TOL_ZERO, TransState, trans_lambdas
from .errors import BracketFailure, PreconditionError
from .wave_curves import (
    IntegralCurve,
    backward_curve_2,
    forward_curve_1,
    integrate_rarefaction,
    shock_speed,
)

TOL_ROOT = 1e-12
TOL_LAX = 1e-10
# The bracket's ends move at most 2**_REACH (1 + max |u|) past the starting interval.
_REACH = 40
# The polish stops at |phi| <= _RTOL (|q1| + |q2|), the rounding floor of
# phi, or at a step of at most _RTOL |u|, four units of roundoff in u.  Where
# phi is flat to rounding on one side of the root it bisects, about 110 steps
# from the widest bracket, 2**41; _POLISH_STEPS bounds it.
_RTOL = 4.0 * sys.float_info.epsilon
_POLISH_STEPS = 200


class Region(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class Wave:
    """One elementary wave: a shock (speed_lo == speed_hi) or a rarefaction."""

    kind: str  # "shock" or "rarefaction"
    family: int
    left: TransState
    right: TransState
    speed_lo: float
    speed_hi: float
    curve: IntegralCurve | None = None

    @property
    def speed_range(self) -> tuple[float, float]:
        return (self.speed_lo, self.speed_hi)


@dataclass(frozen=True)
class WaveFan:
    """Ordered wave structure of one transformed Riemann problem."""

    left: TransState
    middle: TransState
    right: TransState
    waves: tuple[Wave, ...]
    region: Region


def _states_coincide(a: TransState, b: TransState) -> bool:
    scale = 1.0 + abs(a.u) + abs(a.q)
    return abs(a.u - b.u) <= TOL_ZERO * scale and abs(a.q - b.q) <= TOL_ZERO * scale


def solve_middle(left: TransState, right: TransState) -> TransState:
    """Intersect the two composite curves; returns the middle state.

    The root is bracketed starting from [min(u_L, u_R), max(u_L, u_R)].  An
    end is widened only while phi has the wrong sign there, by 1, 2, 4, ...
    up to 2**40 (1 + max(|u_L|, |u_R|)) past its start.  A polished root
    whose curve residual exceeds TOL_ROOT (1 + |q|) raises BracketFailure.
    """
    if _states_coincide(left, right):
        return left
    f1 = forward_curve_1(left)
    b2 = backward_curve_2(right)
    # The residual check below needs both curves at the root, which the
    # polish has evaluated: each velocity is evaluated once.
    memo: dict[float, tuple[float, float]] = {}

    def phi(u: float) -> float:
        if u not in memo:
            memo[u] = (f1.q(u), b2.q(u))
        q1, q2 = memo[u]
        return q1 - q2

    lo0, hi0 = (min(left.u, right.u), max(left.u, right.u))
    scale = 1.0 + max(abs(left.u), abs(right.u))
    lo, hi = lo0, hi0
    phi_lo, phi_hi = phi(lo), phi(hi)
    k = 0
    while not phi_lo >= 0.0 >= phi_hi:
        if 2.0 ** k > 2.0 ** _REACH * scale:
            raise BracketFailure(
                f"no sign change of the curve difference between {left} and {right} "
                f"within 2**{_REACH} * {scale!r} of the starting interval [{lo0!r}, {hi0!r}]"
            )
        if phi_lo < 0.0:
            lo = lo0 - 2.0 ** k
            phi_lo = phi(lo)
        if phi_hi > 0.0:
            hi = hi0 + 2.0 ** k
            phi_hi = phi(hi)
        k += 1

    def newton(u: float) -> tuple[float, float, float]:
        q1, q2 = memo[u] if u in memo else memo.setdefault(u, (f1.q(u), b2.q(u)))
        return q1 - q2, f1.slope(u, q1) - b2.slope(u, q2), _RTOL * (abs(q1) + abs(q2))

    u_m = _polish_root(newton, lo, hi, phi_lo, phi_hi)

    # First-touch refinement: when the family-1 rarefaction has been
    # continued along the critical curve and the root landed on that flat
    # stretch (right state on the critical curve), the middle state is the
    # touch point itself.
    ustar = f1.u_star
    if u_m > ustar and abs(phi(ustar)) <= 1e-9 * (1.0 + abs(memo[ustar][0])):
        u_m = ustar

    q_m, q_b = memo[u_m]
    residual = abs(q_m - q_b)
    if residual > TOL_ROOT * (1.0 + abs(q_m)):
        raise BracketFailure(
            f"middle-state polish stalled: residual {residual:.3e} at u={u_m!r}"
        )
    q_m = max(q_m, 0.5 * u_m * u_m)
    return TransState(u_m, q_m)


def _polish_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of a falling phi in [a, b], fa = phi(a) >= 0 >= fb = phi(b); f(u) = (phi, phi', floor).

    Safeguarded Newton (rtsafe, Press et al., Numerical Recipes) from the end
    where |phi| is smaller: it bisects where a step would leave the bracket or
    phi' >= 0, and doubles a step that stayed on its side and less than halved
    |phi|, so a slow tail or a stall at rounding level crosses the root.  It
    stops at |phi| <= floor, at a step of at most _RTOL |u| or when no float
    lies inside the bracket, returning the last point evaluated; a last step
    of at most _RTOL |u| is still taken when it lands strictly inside the
    bracket and leaves a smaller |phi|, since at small |q| that step can
    carry digits of q.  It raises BracketFailure after _POLISH_STEPS steps.
    """
    x = a if fa <= -fb else b
    fx, dfx, floor = f(x)
    grow = 0.0
    for _ in range(_POLISH_STEPS):
        if abs(fx) <= floor:
            return x
        if fx > 0.0:
            a = x
        else:
            b = x
        step = fx / dfx if dfx < 0.0 else math.inf
        if abs(step) <= _RTOL * abs(x):
            return x - step if a < x - step < b and abs(f(x - step)[0]) < abs(fx) else x
        step = grow or step
        newton = a < x - step < b
        if not newton:
            step = x - (a + 0.5 * (b - a))
            if not a < x - step < b:
                return x
        fn, dfn, fl = f(x - step)
        slow = newton and (fn > 0.0) == (fx > 0.0) and abs(fn) > 0.5 * abs(fx)
        grow = 2.0 * step if slow else 0.0
        x, fx, dfx, floor = x - step, fn, dfn, fl
    raise BracketFailure(
        f"middle-state polish did not converge in {_POLISH_STEPS} steps on [{a!r}, {b!r}]")


def classify(left: TransState, right: TransState, middle: TransState) -> Region:
    """Assign the region from the middle-state position.

    I: two rarefactions, II: family-1 shock + family-2 rarefaction,
    III: rarefaction + shock, IV: two shocks; Degenerate when u_M equals
    u_L or u_R exactly, that is when a wave is absent.
    """
    du1 = middle.u - left.u
    du2 = right.u - middle.u
    if du1 == 0.0 or du2 == 0.0:
        return Region.DEGENERATE
    if du1 > 0.0:
        return Region.I if du2 > 0.0 else Region.III
    return Region.II if du2 > 0.0 else Region.IV


def lax_check(w: Wave) -> bool:
    """Lax inequalities of a shock, including the transversality count.

    A verifier with the absolute tolerance TOL_LAX on the speeds; the solver
    does not call it, since its shocks are admissible by construction.
    """
    if w.kind != "shock":
        raise PreconditionError("lax_check applies to shocks only")
    c = w.speed_lo
    l1l, l2l = (float(v) for v in trans_lambdas(w.left.u, w.left.q))
    l1r, l2r = (float(v) for v in trans_lambdas(w.right.u, w.right.q))
    if w.family == 1:
        return l1l >= c - TOL_LAX and c >= l1r - TOL_LAX and l2r >= c - TOL_LAX
    return l2l >= c - TOL_LAX and c >= l2r - TOL_LAX and c >= l1l - TOL_LAX


def _shock_wave(family: int, left: TransState, right: TransState) -> Wave:
    c = shock_speed(family, left, right)
    return Wave("shock", family, left, right, c, c)


def _rarefaction_wave(family: int, left: TransState, right: TransState) -> Wave:
    # Family 2 runs backward from the right state to left.u.
    curve = (integrate_rarefaction(1, left, right.u) if family == 1
             else integrate_rarefaction(2, right, left.u))
    return Wave("rarefaction", family, left, right,
                curve.lam_at(left.u), curve.lam_at(right.u), curve)


def build_fan(left: TransState, right: TransState) -> WaveFan:
    """Solve, classify and assemble the ordered wave fan."""
    middle = solve_middle(left, right)
    region = classify(left, right, middle)
    waves: list[Wave] = []

    if middle.u < left.u:
        waves.append(_shock_wave(1, left, middle))
    elif middle.u > left.u:
        waves.append(_rarefaction_wave(1, left, middle))

    if right.u < middle.u:
        waves.append(_shock_wave(2, middle, right))
    elif right.u > middle.u:
        waves.append(_rarefaction_wave(2, middle, right))

    return WaveFan(left, middle, right, tuple(waves), region)


def sample_fan(fan: WaveFan, xi: float) -> TransState:
    """Evaluate the self-similar fan at ray slope xi = x/t.

    At a shock ray the right limit is returned.
    """
    u, q = sample_fan_many(fan, [xi])
    return TransState(float(u[0]), float(q[0]))


def sample_fan_many(fan: WaveFan, xi) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sample_fan: arrays (u, q) for an array of ray slopes."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        return tuple(a.reshape(()) for a in sample_fan_many(fan, xi.reshape(1)))
    # Slot 2k is the constant state states[k] (left of wave k, or right of
    # the last wave); slot 2k + 1, inside wave k, only a rarefaction's rays
    # reach: it takes states[k], then the rays.
    edges = np.array([s for w in fan.waves for s in (w.speed_lo, w.speed_hi)])
    idx = np.searchsorted(edges, xi, side="right")
    states, k = (fan.left, *(w.right for w in fan.waves)), idx >> 1
    u = np.array([s.u for s in states])[k]
    q = np.array([s.q for s in states])[k]
    for widx, w in enumerate(fan.waves):
        if w.curve is not None:
            m = idx == 2 * widx + 1
            if m.any():
                u[m], q[m], _ = w.curve.ray(xi[m])
    return u, q


def _state_dict(t: TransState) -> dict:
    return {"u": t.u, "q": t.q}


def fan_to_dict(fan: WaveFan) -> dict:
    """JSON-ready description of the fan."""
    return {
        "left": _state_dict(fan.left),
        "middle": _state_dict(fan.middle),
        "right": _state_dict(fan.right),
        "region": fan.region.value,
        "waves": [
            {
                "kind": w.kind,
                "family": w.family,
                "left": _state_dict(w.left),
                "right": _state_dict(w.right),
                "speed_lo": w.speed_lo,
                "speed_hi": w.speed_hi,
            }
            for w in fan.waves
        ],
    }
