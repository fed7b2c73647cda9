"""Riemann solver for the transformed system.

The middle state is the unique intersection of the composite family-1 curve
through the left state with the composite inverse family-2 curve through the
right state.  Their difference phi(u) = f1(u) - b2(u) falls monotonically, so
its one root is bracketed from the data: the interval between the two
velocities, with each end whose sign is wrong pushed outward by 1, 2, 4, ...
until phi(lo) >= 0 >= phi(hi), then polished by Chandrupatla's bracketed
method (inverse quadratic interpolation safeguarded by bisection).  The four
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
# The polish stops once the bracket is narrower than _XTOL + _RTOL |u|:
# 1e-14 plus four units of roundoff in u.  Where phi is flat to
# rounding on one side of the root (a middle state on the critical curve)
# it needs about 120 steps for the widest bracket, 2**41; _POLISH_STEPS
# bounds it.
_XTOL = 1e-14
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
    u_m = _polish_root(phi, lo, hi, phi_lo, phi_hi)

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
    """Root of f in the bracket [a, b], with fa = f(a) and fb = f(b) of opposite signs.

    Chandrupatla's method (Adv. Eng. Software 28, 1997): each step tries
    inverse quadratic interpolation through the bracket ends and the end
    last dropped, when the three points make it safe, and bisects
    otherwise; every step lands at least half the tolerance inside the
    bracket.  It stops once the bracket is narrower than _XTOL + _RTOL |u|
    and returns the end where |f| is smaller.  Raises BracketFailure after
    _POLISH_STEPS steps.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    t = 0.5
    for _ in range(_POLISH_STEPS):
        x = a + t * (b - a)
        fx = f(x)
        # Keep [a, b] a bracket with a the newest point; c is the end dropped.
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = x, fx
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        width = abs(b - a)
        tol = _XTOL + _RTOL * abs(xm)
        if fm == 0.0 or width < tol:
            return xm
        xi = (a - b) / (c - b)
        ph = (fa - fb) / (fc - fb)
        if ph * ph < xi and (1.0 - ph) * (1.0 - ph) < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5
        tlim = 0.5 * tol / width
        t = min(1.0 - tlim, max(tlim, t))
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
    u = np.empty_like(xi)
    q = np.empty_like(xi)

    edges: list[float] = []
    for w in fan.waves:
        edges.extend((w.speed_lo, w.speed_hi))
    idx = np.searchsorted(np.asarray(edges), xi, side="right")

    consts = [fan.left]
    for w in fan.waves:
        consts.append(w.right)
    for region in range(len(fan.waves) + 1):
        m = idx == 2 * region
        if m.any():
            u[m] = consts[region].u
            q[m] = consts[region].q
    for widx, w in enumerate(fan.waves):
        m = idx == 2 * widx + 1
        if m.any():
            # inside this wave; shocks have zero-width slots, so this is a
            # rarefaction interior
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
