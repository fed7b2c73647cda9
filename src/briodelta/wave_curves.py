"""Elementary wave curves of the transformed system.

Shock loci are closed-form: eliminating the speed from the jump conditions
c[u] = [q], c[q] = [G] leaves a quadratic in q_R whose two roots are the
family-1 (upper) and family-2 (lower) shock curves through a base state.
Each locus is written speed-first: the shock speed c at velocity u is a
closed form (u - 1/2 -+ sqrt(radicand)), and q = q_base + (u - u_base) c.
So the energy on a locus, the tabulated speed and the fan's shock speed
(shock_speed) are one formula, and no speed is taken as [q]/[u], which
cancels on a weak shock.  Both radicands are written in the base's slack
sigma = q - u^2/2 (TransState.slack) and its velocity gap, as sums with
positive lower bounds (1/16 and 1/4 above the slack terms), so no O(u^2)
terms cancel at large |u| and the square root is always real.

Rarefaction curves solve dq/du = lambda_{-,+}(u, q), the eigenvector of
each family being (1, lambda).  Along them w = 8q - 4u^2 + 1 obeys
dw/du = 4(-+sqrt(w) - 1), so with s = sqrt(w) >= 1 and C fixed by the base

    family 1:  u = -s/2 + ln(s + 1)/2 + C,   family 2:  u = s/2 + ln(s - 1)/2 + C.

Solving for s at a given u or at a given speed is a Lambert W evaluation:
Wright omega for family 2, the W_{-1} branch for family 1 (Corless et al.,
"On the Lambert W function", Adv. Comput. Math. 5, 1996).  Both are real
kernels here, _omega and _root_z_minus_ln_z: a start and a fixed number of
Halley steps, written once for a float (math, so a float stays a float)
and for an array (NumPy).  The critical curve q = u^2/2 (s = 1) is the
family-2 curve with C = +inf, so family-2 curves never cross it; family-1
curves reach it at u* = C - 1/2 + ln(2)/2 and stop there.  Composite
curves (everything reachable from a left state by a family-1 wave,
everything that reaches a right state by a family-2 wave) are what the
Riemann solver intersects, and every wave of the fan lies on one of them:
family-1 waves on the curve through the left state, family-2 waves on the
curve through the right state.  A composite curve fixes its constants at
construction (the data state's u and q, C, u* and the data-only part r0
of its locus radicand), so its q at a float is straight-line scalar code
with no array dispatch.  The scalar loci, IntegralCurve and tabulate_curve
reach the same helpers (_locus, _radicand, _offset, _energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TOL_ZERO, TransState
from .errors import DomainError, PreconditionError

_LN2 = math.log(2.0)
# The clamp z_min - ln z_min on L for roots z >= z_min of z - ln z = L,
# at z = s + 1 >= 2 and at z = 2(s + 1) >= 4.
_L_MIN = {2.0: 2.0 - _LN2, 4.0: 4.0 - math.log(4.0)}


def shock_radicand(base: TransState, u: float) -> float:
    """Discriminant-quarter of the shock-locus quadratic at downstream velocity u.

    With d = base.u - u it is 2 slack + 1/4 + d/2 + d^2/3 >= 2 slack + 1/16.
    """
    return _radicand(1.0, _radicand_0(1.0, base.slack), base.u, u)


def _radicand_0(sign, slack: float) -> float:
    """Data-only part r0 of a locus radicand: 2 slack + 1/4, or 8 slack + 1 for sign None."""
    return 8.0 * slack + 1.0 if sign is None else 2.0 * slack + 0.25


def _radicand(sign, r0, u0, u):
    """Radicand of the locus through a base of velocity u0 at velocity u, from its data part r0."""
    if sign is None:
        e = u - u0
        return r0 - 2.0 * e + 4.0 * e * e / 3.0
    d = u0 - u
    return r0 + 0.5 * d + d * d / 3.0


def _locus(sign, u0, q0, r0, u, sqrt=math.sqrt):
    """(q, c) at velocity u on a shock locus through the base (u0, q0); for an array, sqrt=np.sqrt.

    c is the speed of the shock joining the base to the state at u, and
    q = q0 + (u - u0) c.  sign +1 / -1: the family-1 / family-2 locus at
    u <= u0, c = u - 1/2 -+ sqrt(shock_radicand); sign None: the inverse
    family-2 locus at u >= u0 (left states reaching the base), c = u - 1/2
    + sqrt(inverse_radicand)/2.  r0 = _radicand_0(sign, slack).  At u = u0,
    c is the family's characteristic speed.
    """
    root = sqrt(_radicand(sign, r0, u0, u))
    c = u - 0.5 + 0.5 * root if sign is None else u - 0.5 - sign * root
    return q0 + (u - u0) * c, c


def _locus_slope(sign, u0, r0, u: float) -> float:
    """dq/du = c + (u - u0) c' at a float u on the shock locus of _locus."""
    root = math.sqrt(_radicand(sign, r0, u0, u))
    e = u - u0
    if sign is None:  # radicand r0 - 2e + 4e^2/3
        return u - 0.5 + 0.5 * root + e * (1.0 + (2.0 * e / 3.0 - 0.5) / root)
    return u - 0.5 - sign * root + e * (1.0 - sign * (e / 3.0 - 0.25) / root)  # r0 - e/2 + e^2/3


def _slack_offset(slack: float) -> float:
    """t = s - 1 = 8 slack / (1 + sqrt(1 + 8 slack)) of a state's slack, without cancellation."""
    e = 8.0 * slack  # w - 1
    return e / (1.0 + math.sqrt(1.0 + e))


def _branch(sign, base: TransState, u: float):
    """_locus at a scalar u, which must lie on the locus's side of base.u up to TOL_ZERO."""
    if sign is None and u < base.u - TOL_ZERO:
        raise PreconditionError(
            f"inverse family-2 branch needs u >= base.u, got u={u!r} < {base.u!r}")
    if sign is not None and u > base.u + TOL_ZERO:
        raise PreconditionError(f"family-{1 if sign > 0 else 2} shock branch needs "
                                f"u <= base.u, got u={u!r} > {base.u!r}")
    u = max(u, base.u) if sign is None else min(u, base.u)
    return _locus(sign, base.u, base.q, _radicand_0(sign, base.slack), u)


def shock_q_1(base: TransState, u: float) -> float:
    """Family-1 shock locus through base, evaluated at u <= base.u (upper root)."""
    return _branch(1.0, base, u)[0]


def shock_q_2(base: TransState, u: float) -> float:
    """Family-2 shock locus through base, evaluated at u <= base.u (lower root)."""
    return _branch(-1.0, base, u)[0]


def inverse_radicand(base_right: TransState, u: float) -> float:
    """Radicand of the inverse family-2 locus (left states reaching base_right).

    With e = u - base_right.u it is 8 slack + 1 - 2e + 4e^2/3 >= 8 slack + 1/4.
    """
    return _radicand(None, _radicand_0(None, base_right.slack), base_right.u, u)


def inverse_shock_q_2(base_right: TransState, u: float) -> float:
    """Left-state energy of the family-2 shock arriving at base_right, u >= base_right.u.

    Upper root of the same jump-condition quadratic solved for the left
    state; continuous at u = base_right.u with value base_right.q.
    """
    return _branch(None, base_right, u)[0]


def shock_speed(family: int, left: TransState, right: TransState) -> float:
    """Speed of the family's shock from left to right, read off its locus.

    Family 1 reads the locus through left at right.u, family 2 the inverse
    locus through right at left.u: the curves the middle state is found on.
    Unlike [q]/[u], the locus speed does not cancel on a weak shock.
    """
    if family == 1:
        return _branch(1.0, left, right.u)[1]
    if family == 2:
        return _branch(None, right, left.u)[1]
    raise ValueError(f"family must be 1 or 2, got {family!r}")


@dataclass(frozen=True)
class IntegralCurve:
    """Rarefaction curve of one family through a base state, in closed form.

    C is the curve constant (+inf for the family-2 curve along q = u^2/2)
    and u_star the critical-curve crossing (+inf for family 2).  The
    evaluators take a scalar or an array; past u_star a family-1 curve
    continues along q = u^2/2.
    """

    family: int
    base: TransState
    C: float
    u_star: float

    def q_at(self, u):
        """Energy at velocity u; exactly base.q at the base."""
        u = _float_or_array(u)
        array = isinstance(u, np.ndarray)
        if not array and u == self.base.u:
            return self.base.q
        q = _energy(u, _offset(self.family, self.C, u))
        return np.where(u == self.base.u, self.base.q, q) if array else q

    def lam_at(self, u):
        """Characteristic speed of the family at velocity u."""
        u = _float_or_array(u)
        t = _offset(self.family, self.C, u)
        return u + 0.5 * t if self.family == 2 else u - 1.0 - 0.5 * t

    def ray(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """State (u, q) and t = s - 1 >= 0 where the family's speed equals xi.

        With K = 2 xi - 1 - 2C: family 2 has s - 1 = y = omega(K + ln 2)/2,
        u = xi - y/2; family 1 has s + 1 = z = -W_{-1}(-2 e^K)/2, u = xi + z/2.
        Every fan sampler maps ray slopes to rarefaction states through here.
        t gives 2q - u^2 = t(t + 2)/4 without the cancellation of the
        difference near the critical curve.
        """
        xi = np.asarray(xi, dtype=float)
        k = 2.0 * (xi - self.C) - 1.0
        if self.family == 2:
            t = 0.5 * _omega(k + _LN2)
            u = xi - 0.5 * t
        else:
            z = 0.5 * _root_z_minus_ln_z(-k - _LN2, 4.0)
            t = z - 2.0
            u = xi + 0.5 * z
        return u, _energy(u, t), t


def _offset(family: int, C: float, u):
    """t = s - 1 >= 0 at velocity u on the family's curve of constant C; a float stays a float."""
    x = 2.0 * (u - C) - 1.0
    if family == 2:
        return _omega(x)  # y + ln y = x
    return _root_z_minus_ln_z(-x, 2.0) - 2.0  # z = s + 1


def _energy(u, t):
    """q = u^2/2 + t(t + 2)/8 at velocity u and t = s - 1."""
    return 0.5 * u * u + 0.125 * t * (t + 2.0)


def _float_or_array(u):
    """u as a float when it is a scalar (a 0-d array included), else as a float array."""
    if type(u) is float:
        return u
    u = np.asarray(u, dtype=float)
    return float(u) if u.ndim == 0 else u


def _root_z_minus_ln_z(L, z_min: float):
    """Root z >= z_min > 1 of z - ln z = L, that is -W_{-1}(-e^{-L}), float or array.

    L below the value at z_min is clamped there.  Halley steps from the
    asymptote z = L + ln L; three reach full precision for every L.
    """
    array = isinstance(L, np.ndarray)
    L_min = _L_MIN[z_min]
    log, L = (np.log, np.maximum(L, L_min)) if array else (math.log, L_min if L < L_min else L)
    z = L + log(L)
    for _ in range(3):
        f = z - log(z) - L
        w = 1.0 / z
        z = z - f / (1.0 - w - 0.5 * f * w / (z - 1.0))
    return np.maximum(z, z_min) if array else z_min if z < z_min else z


# Below this x, e^x underflows to 0.0 and so does omega(x).
_X_UNDERFLOW = -750.0


def _omega_tail(t):
    """omega(x) for x <= -2 from t = e^x: the series of W(t) at t = 0."""
    return t * (1.0 + t * (-1.0 + t * (1.5 + t * (-8.0 / 3.0 + t * 125.0 / 24.0))))


def _omega_near_1(x):
    """omega(x) for -2 < x <= 1: its Taylor series at x = 1, where omega = 1."""
    d = x - 1.0
    return 1.0 + d * (0.5 + d * (1.0 / 16.0 + d * (-1.0 / 192.0
                                                   + d * (-1.0 / 3072.0 + d * 13.0 / 61440.0))))


def _omega_asymptote(x, l):
    """omega(x) for x > 1 from l = ln x: x - l + its asymptotic series in l / x."""
    r = 1.0 / x
    return x - l + l * r * (1.0 + r * (0.5 * l - 1.0 + r * (l * l / 3.0 - 1.5 * l + 1.0)))


def _omega(x):
    """Wright omega: the y >= 0 with y + ln y = x, float or array.

    The start is Lawrence, Corless and Jeffrey's (ACM TOMS 38(3), 2012,
    Algorithm 917): a series in e^x, the Taylor series at 1 or the
    asymptote; two Halley steps on y - e^(x - y) then reach full precision.
    x - y is carried with its rounding error (a two-sum), so a tiny y keeps
    its relative precision.  omega is exactly 0 at x = -inf and wherever
    e^x underflows.
    """
    if isinstance(x, np.ndarray):
        x = np.maximum(x, _X_UNDERFLOW)
        big = np.maximum(x, 1.0)
        y = np.where(x <= -2.0, _omega_tail(np.exp(np.minimum(x, -2.0))),
                     np.where(x <= 1.0, _omega_near_1(x), _omega_asymptote(big, np.log(big))))
        exp = np.exp
    else:
        x = _X_UNDERFLOW if x < _X_UNDERFLOW else x
        y = (_omega_tail(math.exp(x)) if x <= -2.0 else
             _omega_near_1(x) if x <= 1.0 else _omega_asymptote(x, math.log(x)))
        exp = math.exp
    for _ in range(2):
        s = x - y
        b = s - x
        e = exp(s) * (1.0 + ((x - (s - b)) - (y + b)))  # e^(x - y)
        h = y - e
        y = y - 2.0 * h / (2.0 * (1.0 + e) + h * e / (1.0 + e))
    return y


def _rarefaction_constants(family: int, u: float, slack: float) -> tuple[float, float]:
    """(C, u_star) of the family's rarefaction curve through a state of velocity u and slack."""
    y = _slack_offset(slack)
    if family == 2:
        return (math.inf if y == 0.0 else u - 0.5 * (1.0 + y + math.log(y))), math.inf
    return u + 0.5 * (1.0 + y - math.log(2.0 + y)), u + 0.5 * (y - math.log1p(0.5 * y))


# Kept under its ODE-era name: the benchmark's tracer wraps it in riemann.
def integrate_rarefaction(family: int, base: TransState, u_target: float) -> IntegralCurve:
    """Rarefaction curve of a family from base to u_target.

    Family 1 runs forward only (u_target >= base.u); family 2 may run
    backward, which is how inverse curves are built.  Raises DomainError if
    the family-1 branch would cross the critical curve before reaching
    u_target.
    """
    if family not in (1, 2):
        raise ValueError(f"family must be 1 or 2, got {family!r}")
    if not math.isfinite(u_target):
        raise PreconditionError(f"u_target must be finite, got {u_target!r}")
    if family == 1 and u_target < base.u - TOL_ZERO:
        raise PreconditionError(f"family-1 rarefactions run forward only "
                                f"(u_target {u_target!r} < base.u {base.u!r})")
    curve = IntegralCurve(family, base, *_rarefaction_constants(family, base.u, base.slack))
    if abs(u_target - base.u) > TOL_ZERO and u_target > curve.u_star:
        raise DomainError(f"family-1 rarefaction from {base} meets the critical curve "
                          f"at u={curve.u_star!r} before reaching u_target={u_target!r}")
    return curve


class Forward1Curve:
    """Everything reachable from a fixed left state by one family-1 wave.

    Shock branch for u < left.u, rarefaction branch for u >= left.u.
    Beyond the rarefaction's critical-curve crossing u* the curve continues
    along q = u^2/2: the wave curve ends there, and the continuation keeps
    the middle-state root function defined on arbitrary brackets.
    """

    def __init__(self, left: TransState):
        self.left = left
        slack = left.slack
        self._u, self._q, self._r = left.u, left.q, _radicand_0(1.0, slack)
        self._C, self.u_star = _rarefaction_constants(1, left.u, slack)

    def q(self, u: float) -> float:
        """Energy at velocity u."""
        if u < self._u:
            return _locus(1.0, self._u, self._q, self._r, u)[0]
        if u >= self.u_star:
            return 0.5 * u * u
        return self._q if u == self._u else _energy(u, _offset(1, self._C, u))

    def slope(self, u: float, q: float) -> float:
        """dq/du at velocity u from q = self.q(u): the locus slope, lambda_1, or u past u*."""
        if u < self._u:
            return _locus_slope(1.0, self._u, self._r, u)
        if u >= self.u_star:
            return u
        return u - 1.0 - 0.5 * _slack_offset(max(q - 0.5 * u * u, 0.0))


class Backward2Curve:
    """Everything connected to a fixed right state by one family-2 wave.

    Backward rarefaction branch for u < right.u (never reaches the critical
    curve), inverse shock branch for u >= right.u.
    """

    def __init__(self, right: TransState):
        self.right = right
        slack = right.slack
        self._u, self._q, self._r = right.u, right.q, _radicand_0(None, slack)
        self._C = _rarefaction_constants(2, right.u, slack)[0]

    def q(self, u: float) -> float:
        """Energy at velocity u."""
        if u > self._u:
            return _locus(None, self._u, self._q, self._r, u)[0]
        return self._q if u == self._u else _energy(u, _offset(2, self._C, u))

    def slope(self, u: float, q: float) -> float:
        """dq/du at velocity u from q = self.q(u): the inverse locus slope or lambda_2."""
        if u > self._u:
            return _locus_slope(None, self._u, self._r, u)
        return u + 0.5 * _slack_offset(max(q - 0.5 * u * u, 0.0))


# Composite curve objects, under the names the benchmark's tracer wraps in riemann.
forward_curve_1 = Forward1Curve
backward_curve_2 = Backward2Curve


# Shock branches of tabulate_curve: kind -> sign of the locus root (see _locus).
_SHOCK_KINDS = {"sw1": 1.0, "sw2": -1.0, "sw2_inv": None}
# Branches tabulated at u <= base.u; the others run at u >= base.u.
DESCENDING_KINDS = frozenset({"sw1", "sw2", "rw2_inv"})


def tabulate_curve(kind: str, base: TransState, us) -> np.ndarray:
    """Tabulate one curve branch as rows (u, q, lambda).

    kind is one of sw1, sw2, sw2_inv, rw1, rw2, rw2_inv.  The lambda column
    is the characteristic speed of the family along rarefaction branches and
    the locus speed of the shock joining base to the row state along shock
    branches (the characteristic speed at u = base.u).
    Rows of the rw1 branch stop at the critical-curve crossing.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 1 or us.size == 0:
        raise PreconditionError("us must be a non-empty 1-d array")
    if kind not in _SHOCK_KINDS and kind not in ("rw1", "rw2", "rw2_inv"):
        raise ValueError(f"unknown curve kind {kind!r}")
    valid = us <= base.u + TOL_ZERO if kind in DESCENDING_KINDS else us >= base.u - TOL_ZERO
    if not valid.all():
        raise PreconditionError(
            f"{kind} branch from base.u={base.u!r} does not cover all requested u")

    if kind in _SHOCK_KINDS:
        sign = _SHOCK_KINDS[kind]
        q, lam = _locus(sign, base.u, base.q, _radicand_0(sign, base.slack),
                        np.maximum(us, base.u) if sign is None else np.minimum(us, base.u),
                        np.sqrt)
        return np.column_stack([us, q, lam])

    curve = integrate_rarefaction(1 if kind == "rw1" else 2, base, base.u)
    # rw1 rows end where the curve meets the critical curve.
    beyond = us > curve.u_star
    if beyond.any():
        us = us[:int(np.argmax(beyond))]
    return np.column_stack([us, curve.q_at(us), curve.lam_at(us)])
