"""Singular delta-type solutions of the original system.

Two constructors live here.  The generic one takes any 2x2 flux pair and a
single jump and hangs the Rankine-Hugoniot deficit of one equation on a
Dirac measure along the jump line, with strength growing linearly in time.
The model-specific one lifts Riemann data to the transformed plane, solves
for the admissible wave fan there and maps it back in one pass over its
pieces (family-1 wave, v-flip, family-2 wave, each where it exists): every
state between two pieces is the middle state projected through
v = sign * sqrt(2q - u^2) with the v sign there, the data stand at the two
ends, and each transformed shock carries one delta with that shock's
deficit in the second equation.  Inside a rarefaction
|v| = sqrt(t(t + 2))/2 with t = s - 1 from the ray inverse, which does not
cancel near q = u^2/2 as 2q - u^2 does.  Data whose v
components differ in sign additionally get a regular v-flip jump at
constant u = u_M between the two families; at its default speed u_M - 1 the
flip satisfies the jump condition of the second equation exactly and
carries nothing.

Region labels follow the transformed-plane classification: I two
rarefactions (no delta), II shock + rarefaction (one), III rarefaction +
shock (one), IV two shocks (two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TOL_ZERO,
    BrioState,
    FluxPair,
    RiemannData,
    brio_flux_pair,
    energy,
    lift,
    project,
)
from .errors import DegenerateJump, OrderingViolation, PreconditionError
from .riemann import Region, Wave, WaveFan, build_fan
from .wave_curves import IntegralCurve

# Tolerance of the v-flip's placement between the two family waves.
TOL_ORDER = 1e-10


@dataclass(frozen=True)
class DeltaSingularity:
    """A Dirac measure on the line x = speed * t in one equation.

    Strength at time t is rate * t + constant; solutions built from Riemann
    data always have constant = 0, the nonzero-constant form exists for the
    non-uniqueness fixture.
    """

    speed: float
    rate: float
    constant: float
    component: str  # "u" or "v"

    def strength(self, t: float) -> float:
        return self.rate * t + self.constant


@dataclass(frozen=True)
class ConstantSegment:
    """Constant state on the ray wedge xi_lo <= x/t < xi_hi."""

    xi_lo: float
    xi_hi: float
    state: BrioState


@dataclass(frozen=True)
class RarefactionSegment:
    """Rarefaction fan wedge carrying the transformed curve and a v sign."""

    xi_lo: float
    xi_hi: float
    family: int
    curve: IntegralCurve = field(repr=False)
    v_sign: float
    left: BrioState
    right: BrioState


@dataclass(frozen=True)
class DeltaSolution:
    """Regular self-similar part plus finitely many delta singularities."""

    initial: RiemannData
    flux: FluxPair
    segments: tuple
    singular: tuple[DeltaSingularity, ...]
    fan: WaveFan | None = None
    options: dict = field(default_factory=dict)

    @property
    def region(self) -> Region | None:
        return self.fan.region if self.fan is not None else None


def rh_deficit_v(l: BrioState, r: BrioState, c: float) -> float:
    """Jump-condition deficit of the second equation, jumps right minus left.

    Vanishes exactly when the jump at speed c satisfies the second equation;
    otherwise it is the growth rate of the delta strength there.
    """
    gl = l.v * (l.u - 1.0)
    gr = r.v * (r.u - 1.0)
    return c * (r.v - l.v) - (gr - gl)


def rh_deficit_u(l: BrioState, r: BrioState, c: float) -> float:
    """Jump-condition deficit of the first equation, jumps right minus left."""
    return c * (r.u - l.u) - (energy(r) - energy(l))


def generic_delta_shock(flux: FluxPair, data: RiemannData, branch: str) -> DeltaSolution:
    """Single-jump delta-shock for an arbitrary flux pair.

    Branch "a" carries the jump at c = [f]/[u] and hangs the second
    equation's deficit on a delta in v; branch "b" carries it at
    c = [g]/[v] with the first equation's deficit on a delta in u.  The
    regular part is the translated initial step.
    """
    l, r = data.left, data.right
    fl, gl = flux.f(l.u, l.v), flux.g(l.u, l.v)
    fr, gr = flux.f(r.u, r.v), flux.g(r.u, r.v)
    if branch == "a":
        du = r.u - l.u
        if abs(du) <= TOL_ZERO:
            raise DegenerateJump("branch a needs a u-jump")
        c = (fr - fl) / du
        sing = DeltaSingularity(c, c * (r.v - l.v) - (gr - gl), 0.0, "v")
    elif branch == "b":
        dv = r.v - l.v
        if abs(dv) <= TOL_ZERO:
            raise DegenerateJump("branch b needs a v-jump")
        c = (gr - gl) / dv
        sing = DeltaSingularity(c, c * (r.u - l.u) - (fr - fl), 0.0, "u")
    else:
        raise ValueError(f"branch must be 'a' or 'b', got {branch!r}")
    segments = (
        ConstantSegment(-math.inf, c, l),
        ConstantSegment(c, math.inf, r),
    )
    return DeltaSolution(data, flux, segments, (sing,))


def _left_sign(data: RiemannData) -> float:
    """Sign of v left of any flip: the left datum's, the right one's if v_L is zero, else +1."""
    v = data.left.v if data.left.v != 0.0 else data.right.v
    return math.copysign(1.0, v) if v != 0.0 else 1.0


def solve_brio(data: RiemannData, *, flip_speed="rh") -> DeltaSolution:
    """Admissible delta-type solution of the Riemann problem.

    flip_speed chooses the speed of the v-flip jump in the sign-change
    case: "rh" for the jump-condition speed u_M - 1 (default; the flip then
    carries no deficit), "paper" for u_M, or a finite float for an explicit
    speed (verification hook).  Any other value raises ValueError, whether
    or not v changes sign.  The fan's waves are ordered by construction,
    so the flip is the one thing placed here: a speed outside the gap
    between the two family waves raises OrderingViolation.
    """
    if flip_speed not in ("rh", "paper") and not (
            isinstance(flip_speed, (int, float)) and not isinstance(flip_speed, bool)
            and math.isfinite(flip_speed)):
        raise ValueError(f"flip_speed must be 'rh', 'paper' or a finite number, "
                         f"got {flip_speed!r}")
    fan = build_fan(lift(data.left), lift(data.right))
    sign_change = data.left.v * data.right.v < 0.0
    wave1 = next((w for w in fan.waves if w.family == 1), None)
    wave2 = next((w for w in fan.waves if w.family == 2), None)

    xi_flip = None
    if sign_change:
        if flip_speed == "rh":
            xi_flip = fan.middle.u - 1.0
        elif flip_speed == "paper":
            xi_flip = fan.middle.u
        else:
            xi_flip = float(flip_speed)
        gap_lo = wave1.speed_hi if wave1 is not None else -math.inf
        gap_hi = wave2.speed_lo if wave2 is not None else math.inf
        if (xi_flip < gap_lo - TOL_ORDER * (1.0 + abs(xi_flip))
                or gap_hi < xi_flip - TOL_ORDER * (1.0 + abs(gap_hi))):
            raise OrderingViolation(
                f"v-flip speed {xi_flip!r} lies outside the gap [{gap_lo!r}, {gap_hi!r}] "
                f"between the family waves")

    # Between two pieces the regular state is the middle state projected
    # with the v sign there; the data stand at the two ends (projecting
    # their lifts would round v^2 into q first).
    pieces = [p for p in (wave1, xi_flip, wave2) if p is not None]
    segments: list = []
    singular: list[DeltaSingularity] = []
    sign = _left_sign(data)
    state, cursor = data.left, -math.inf
    for k, piece in enumerate(pieces):
        kind = piece.kind if isinstance(piece, Wave) else "flip"
        lo, hi = (piece, piece) if kind == "flip" else (piece.speed_lo, piece.speed_hi)
        if lo > cursor:
            segments.append(ConstantSegment(cursor, lo, state))
        if kind == "flip":
            sign = -sign
        right = data.right if k == len(pieces) - 1 else project(fan.middle, sign)
        if kind == "shock":
            singular.append(DeltaSingularity(lo, rh_deficit_v(state, right, lo), 0.0, "v"))
        elif kind == "rarefaction":
            segments.append(RarefactionSegment(lo, hi, piece.family, piece.curve,
                                               sign, state, right))
        state, cursor = right, hi
    segments.append(ConstantSegment(cursor, math.inf, state))

    return DeltaSolution(
        data, brio_flux_pair(), tuple(segments), tuple(singular), fan,
        {"flip_speed": flip_speed if sign_change else None},
    )


def nonuniqueness_example(beta: float, c1: float, c2: float) -> DeltaSolution:
    """Two constant-strength deltas of opposite sign over zero data.

    A valid weak solution for any beta and c1 != c2 (the two line
    contributions cancel for every test function); with c1 == c2 the pair
    telescopes away and the zero solution is returned.
    """
    zero = BrioState(0.0, 0.0)
    data = RiemannData(zero, zero)
    segments = (ConstantSegment(-math.inf, math.inf, zero),)
    if beta == 0.0 or c1 == c2:
        singular: tuple[DeltaSingularity, ...] = ()
    else:
        pair = (
            DeltaSingularity(c1, 0.0, beta, "v"),
            DeltaSingularity(c2, 0.0, -beta, "v"),
        )
        singular = tuple(sorted(pair, key=lambda s: s.speed))
    return DeltaSolution(data, brio_flux_pair(), segments, singular)


def cardinality(sol: DeltaSolution) -> int:
    """Number of singularities with non-vanishing strength."""
    return sum(
        1 for s in sol.singular
        if abs(s.rate) > TOL_ZERO or abs(s.constant) > TOL_ZERO
    )


def wave_speeds(sol: DeltaSolution) -> list[float]:
    """Speeds of the carriers, then the finite edge speeds of the segments."""
    return [s.speed for s in sol.singular] + [
        xi for seg in sol.segments for xi in (seg.xi_lo, seg.xi_hi) if math.isfinite(xi)]


def sample_brio(sol: DeltaSolution, x: float, t: float):
    """Regular state at (x, t) plus (position, strength) of every singularity."""
    if not (math.isfinite(x) and 0.0 < t < math.inf):
        raise PreconditionError(f"sample point needs a finite x and a finite t > 0, "
                                f"got x={x!r}, t={t!r}")
    u, v = sample_brio_many(sol, [x / t])
    carriers = [(s.speed * t, s.strength(t)) for s in sol.singular]
    return BrioState(float(u[0]), float(v[0])), carriers


def sample_brio_many(sol: DeltaSolution, xi) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized regular-part sampling: arrays (u, v) over ray slopes."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        return tuple(a.reshape(()) for a in sample_brio_many(sol, xi.reshape(1)))
    idx = np.searchsorted(np.array([seg.xi_hi for seg in sol.segments[:-1]]), xi, side="right")
    # Every slot takes a constant state, a rarefaction's then its rays.
    states = [seg.state if isinstance(seg, ConstantSegment) else seg.left for seg in sol.segments]
    u = np.array([s.u for s in states])[idx]
    v = np.array([s.v for s in states])[idx]
    for i, seg in enumerate(sol.segments):
        if isinstance(seg, RarefactionSegment):
            m = idx == i
            if m.any():
                u[m], v[m], _ = _rarefaction_uv(seg, xi[m])
    return u, v


def _rarefaction_uv(seg: RarefactionSegment, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regular state (u, v) on rays xi of a rarefaction wedge, and t = s - 1.

    |v| = sqrt(t(t + 2))/2 with t from the ray inverse.
    """
    u, _, t = seg.curve.ray(xi)
    return u, seg.v_sign * 0.5 * np.sqrt(t * (t + 2.0)), t


def _brio_state_dict(s: BrioState) -> dict:
    return {"u": s.u, "v": s.v}


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def solution_to_dict(sol: DeltaSolution) -> dict:
    """JSON-ready description of a delta solution."""
    regular = []
    for seg in sol.segments:
        entry = {
            "xi_lo": _finite_or_none(seg.xi_lo),
            "xi_hi": _finite_or_none(seg.xi_hi),
        }
        if isinstance(seg, ConstantSegment):
            entry["kind"] = "constant"
            entry["state"] = _brio_state_dict(seg.state)
        else:
            entry["kind"] = "rarefaction"
            entry["family"] = seg.family
            entry["v_sign"] = seg.v_sign
            entry["left"] = _brio_state_dict(seg.left)
            entry["right"] = _brio_state_dict(seg.right)
        regular.append(entry)
    return {
        "initial": {
            "left": _brio_state_dict(sol.initial.left),
            "right": _brio_state_dict(sol.initial.right),
        },
        "regular": regular,
        "singular": [
            {"speed": s.speed, "rate": s.rate, "constant": s.constant,
             "component": s.component}
            for s in sol.singular
        ],
        "options": {
            "flip_speed": sol.options.get("flip_speed"),
        },
    }
