"""Numerical verification: weak-form residuals, an FV reference, property suite.

The weak test evaluates the two integral identities that define singular
solutions against smooth bump test functions.  By Green's identity each
wedge between two rays reduces to line integrals of phi (F - c U) along
its two edge rays, plus, in a rarefaction wedge, a quadrature in ray
coordinates of phi D with D = (A(U) - xi) U', which vanishes on a correct
fan.  By parts, a Dirac carrier takes minus its rate times the line
integral of phi on its ray, and minus its constant times phi(0, 0).  So
one value-only kernel integrates phi along rays, by Gauss-Legendre rules
exact once they have 2p + 1 nodes; an admissible solution zeroes every
weight, and both residuals sit at the rounding floor.

The finite-volume solver is a deliberately independent route to the
transformed fans (first-order Rusanov, nothing shared with the wave-curve
construction) and is used only for convergence trends, never for equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BrioState,
    RiemannData,
    TransState,
    discriminant,
    lift,
    project,
    trans_flux_g,
    trans_lambdas,
)
from .delta import (
    ConstantSegment,
    DeltaSingularity,
    DeltaSolution,
    RarefactionSegment,
    _rarefaction_uv,
    cardinality,
    nonuniqueness_example,
    rh_deficit_u,
    rh_deficit_v,
    sample_brio_many,
    solve_brio,
    wave_speeds,
)
from .errors import (
    BlowUp,
    BrioError,
    CflViolation,
    PreconditionError,
    QuadratureFailure,
)
from .riemann import (
    Wave,
    WaveFan,
    build_fan,
    lax_check,
    sample_fan_many,
    solve_middle,
)
from .wave_curves import (
    IntegralCurve,
    forward_curve_1,
    integrate_rarefaction,
    shock_q_1,
    shock_q_2,
)

TOL_WEAK = 1e-7
# Exponent p of every bump B(s) = (1 - s^2)^p: C^{p-1} regularity is
# comfortably enough for the weak form.
BUMP_EXPONENT = 6
# Gauss-Legendre nodes in t needed on a ray: there the weak integrand is a
# polynomial of degree at most 4p in t.
_RAY_EXACT = 2 * BUMP_EXPONENT + 1
# Points per array pass of weak_residual, whatever the battery or node count
# n: n per initial-data row and min(n, 2p + 1) per entry of the bump-major
# table (a fan xi-node or a (bump, ray) pair), so one pass takes a typical
# table of about 500 entries; a rarefaction's one ray inverse takes n a row.
_CHUNK_POINTS = 8192
# Draws random_trans_pair makes before giving up on a region.
_PAIR_TRIES = 64
# Random bases of the shock-locus jump-condition check.
_SHOCK_BASES = 64
# Random transformed pairs per region in the middle-state checks.
_PAIRS_PER_REGION = 10
# x-margin of a test-function battery beyond its outermost ray at time T.
_BATTERY_PAD = 0.75
# Gauss-Legendre nodes per sub-cell in compare_fan_fv's exact cell averages.
_FV_NODES = 8

_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


def _bump(s, slope: bool = False):
    """B(s) = (1 - s^2)^p on |s| <= 1 (zero outside), p = BUMP_EXPONENT, and
    with slope the pair (B, B').  The integer powers are repeated products.
    """
    z = np.maximum(1.0 - np.square(s), 0.0)
    zp = z.copy()  # z^(p - 1)
    for _ in range(BUMP_EXPONENT - 2):
        zp *= z
    z *= zp
    return (z, -2.0 * BUMP_EXPONENT * s * zp) if slope else z


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump phi(x,t) = B(s_x) B(s_t), B(s) = (1 - s^2)^p on |s| <= 1.

    p = BUMP_EXPONENT; value and both partial derivatives are closed-form
    polynomials.
    """

    # the name is calculus-of-variations vocabulary, not a pytest case
    __test__ = False

    center: tuple[float, float]
    halfwidths: tuple[float, float]

    def __post_init__(self):
        x0, t0 = self.center
        wx, wt = self.halfwidths
        if not (math.isfinite(x0) and math.isfinite(t0)):
            raise PreconditionError("test function center must be finite")
        if not (wx > 0.0 and wt > 0.0):
            raise PreconditionError("test function halfwidths must be positive")

    def _factors(self, x, t):
        """(B, B') of the x factor and of the t factor at (x, t)."""
        sx = (np.asarray(x) - self.center[0]) / self.halfwidths[0]
        st = (np.asarray(t) - self.center[1]) / self.halfwidths[1]
        return _bump(sx, slope=True), _bump(st, slope=True)

    def value(self, x, t):
        (bx, _), (bt, _) = self._factors(x, t)
        return bx * bt

    def dx(self, x, t):
        (_, dbx), (bt, _) = self._factors(x, t)
        return dbx / self.halfwidths[0] * bt

    def dt(self, x, t):
        (bx, _), (_, dbt) = self._factors(x, t)
        return bx * dbt / self.halfwidths[1]


def test_function_battery(speeds, T: float) -> list[TestFunction]:
    """25 bumps on a 5x5 center grid covering the fan up to time T."""
    if T <= 0.0:
        raise PreconditionError("battery horizon must be positive")
    finite = [s for s in speeds if math.isfinite(s)]
    lo = min(finite + [0.0]) * T - _BATTERY_PAD
    hi = max(finite + [0.0]) * T + _BATTERY_PAD
    xcs, wx, wt = _grid5(lo, hi), (hi - lo) / 4.0, T / 5.0
    return [TestFunction((xc, tc), (wx, wt)) for tc in _grid5(T / 6.0, 5.0 * T / 6.0)
            for xc in xcs]


def _grid5(lo, hi) -> list[float]:
    """np.linspace(lo, hi, 5) bit for bit as floats, its underflowed step too."""
    step = (hi - lo) / 4.0
    return [float(lo + (k * step if step else k / 4 * (hi - lo))) for k in range(4)] + [float(hi)]


test_function_battery.__test__ = False


def solution_battery(sol: DeltaSolution) -> list[TestFunction]:
    """Battery sized to one solution's rays and carriers, up to time 1."""
    return test_function_battery(wave_speeds(sol), 1.0)


def _nodes(a, b, gx, gw):
    """Gauss-Legendre nodes and weights on [a, b], along a new last axis."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[..., None] + half[..., None] * gx, half[..., None] * gw


def _slices(rows: int, points: int):
    """Consecutive slices of `rows` rows with `points` evaluated points each,
    at most _CHUNK_POINTS points (and at least one row) per slice."""
    step = max(1, _CHUNK_POINTS // points)
    return (slice(i, i + step) for i in range(0, rows, step))


@dataclass(frozen=True)
class _Bumps:
    """A battery as columns: the rows (x0, t0, wx, wt), then each support's box."""

    cols: np.ndarray
    xlo: np.ndarray
    xhi: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray

    @classmethod
    def of(cls, phis) -> _Bumps:
        c = np.array([phi.center + phi.halfwidths for phi in phis]).T.copy()
        lo, hi = c[:2] - c[2:], c[:2] + c[2:]
        return cls(c, lo[0], hi[0], np.maximum(lo[1], 0.0), hi[1])


def _ray_table(sol: DeltaSolution, states):
    """Rows (ku, kv, c), one entry per distinct finite ray x = c t.

    A ray is an edge between two segments or a carrier.  On it, (ku, kv)
    is (F - c U) of the segment on its left minus that of the one on its
    right, each side at its edge state: states holds each segment's
    (U at xi_lo, U at xi_hi), from _fan_parts.  A carrier of strength
    rate t + constant subtracts its rate from k of its component: by parts
    its term is -rate int phi(c t, t) dt - constant phi(0, 0), and the
    constant goes to _initial_parts.
    """
    edges = [seg.xi_hi for seg in sol.segments[:-1]]
    k = {c: [0.0, 0.0] for c in sorted({*edges, *(s.speed for s in sol.singular)})}
    f, g = sol.flux.f, sol.flux.g
    for c, (_, (ul, vl)), ((ur, vr), _) in zip(edges, states, states[1:]):
        k[c][0] += (f(ul, vl) - f(ur, vr)) - c * (ul - ur)
        k[c][1] += (g(ul, vl) - g(ur, vr)) - c * (vl - vr)
    for s in sol.singular:
        k[s.speed][s.component != "u"] -= s.rate
    return np.array([(*kc, c) for c, kc in k.items()]).reshape(-1, 3).T


def _fan_parts(sol: DeltaSolution, bumps: _Bumps, gx, gw):
    """(blocks, states): per rarefaction segment the mask of its rows over
    the bumps and their (u weight, v weight, xi), n nodes a row; and each
    segment's edge states (U at xi_lo, U at xi_hi).

    By Green's identity a wedge is its edge rays' integrals of phi (F - c U)
    minus int int phi D dxi dt in ray coordinates x = xi t, where
    U_t + F_x = D/t, dx dt = t dxi dt and D = (A(U) - xi) U' with
    A = [[u, v], [v, u - 1]].  A row is one rarefaction segment's rays
    between the smallest and the largest corner slope x/t of one bump's
    support, with n nodes in xi, each an entry of weight -w_xi D.  One ray
    inverse per segment samples every row's nodes and both edge rays.
    U' is closed in t = s - 1: family 2 has u' = (t + 1)/(2t + 1) and
    v v' = t u'/2, family 1 u' = (t + 1)/(2t + 3) and v v' = -(t + 2) u'/2;
    v' = (v v')/v, and (u - 1 - xi) v' is 0 where v = 0.  D vanishes on a
    correct fan, so m0's kinks at the corner slopes cost accuracy only in
    proportion to the defect.
    """
    live = bumps.t_hi > bumps.t_lo
    lo = np.fmin(bumps.xlo / bumps.t_lo, bumps.xlo / bumps.t_hi)
    hi = np.fmax(bumps.xhi / bumps.t_lo, bumps.xhi / bumps.t_hi)
    blocks, states = [], []
    for seg in sol.segments:
        if isinstance(seg, ConstantSegment):
            states.append(((seg.state.u, seg.state.v),) * 2)
            continue
        xa, xb = np.maximum(lo, seg.xi_lo), np.minimum(hi, seg.xi_hi)
        hit = live & (xa < xb)
        xi, wxi = _nodes(xa[hit], xb[hit], gx, gw)
        u, v, t = _rarefaction_uv(seg, np.append(xi, (seg.xi_lo, seg.xi_hi)))
        states.append(tuple(zip(u[-2:].tolist(), v[-2:].tolist())))
        u, v, t = (a[:-2].reshape(xi.shape) for a in (u, v, t))
        fast = seg.family == 2
        du = (t + 1.0) / (2.0 * t + (1.0 if fast else 3.0))
        vdv = (0.5 * t if fast else -0.5 * (t + 2.0)) * du
        dv = np.divide(vdv, v, out=np.zeros_like(v), where=v != 0.0)
        blocks.append((hit, (-wxi * ((u - xi) * du + vdv),
                             -wxi * (v * du + (u - 1.0 - xi) * dv), xi)))
    return blocks, states


def _line_parts(bumps: _Bumps, table, valid, m: int, n: int):
    """(ends, u parts, v parts) of the entry table (u weight, v weight, xi,
    1, ta, tb): a row per bump, its fan nodes (the first m columns), then
    its rays, kept where valid.  A part is a weight times m0 over [ta, tb],
    the ray's time in the support (t_lo <= t <= t_hi, xlo <= xi t <= xhi;
    at xi = +-0 the x-bounds divide to +-inf, or to NaN for an end at 0,
    which fmax and fmin drop).  Entries that miss it are dropped, so each
    bump's parts are one run, ending at its entry of ends; a fan node whose
    support times are inverted beyond rounding raises QuadratureFailure.
    """
    xi = table[2]
    a, b = bumps.xlo[:, None] / xi, bumps.xhi[:, None] / xi
    neg = np.signbit(xi)
    ta = np.fmax(bumps.t_lo[:, None], np.where(neg, b, a), out=table[4])
    tb = np.fmin(bumps.t_hi[:, None], np.where(neg, a, b), out=table[5])
    keep = ta < tb
    lost = (valid > keep)[:, :m]  # fan nodes that miss their support, as only rays may
    if lost.any() and np.any((tb - ta)[:, :m][lost] < -1e-12 * (1.0 + abs(tb[:, :m][lost]))):
        raise QuadratureFailure("support times inverted on a ray")
    keep &= valid
    counts = keep.sum(1)
    cols = np.repeat(bumps.cols, counts, axis=1)
    entries = table.reshape(6, -1).compress(keep.ravel(), axis=1)
    tx, tw = _gl(min(n, _RAY_EXACT))
    m0 = np.empty(entries.shape[1])
    for k in _slices(len(m0), len(tx)):
        m0[k] = _m0(cols[:, k], entries[2:, k], tx, tw)
    return np.cumsum(counts).tolist(), *(m0 * entries[:2]).tolist()


def _m0(cols, rays, gx, gw):
    """m0 = int phi(xi t, t) dt over [ta, tb] for rays (xi, 1, ta, tb) in
    bumps cols (x0, t0, wx, wt), by value alone: on the abscissae g,
    t = mid + half g, so s_x = (xi t - x0)/wx and s_t = (t - t0)/wt are
    affine in g, and phi = (max(1 - s_x^2, 0) max(1 - s_t^2, 0))^p takes
    its power by squaring, in place.  Each entry's sum runs along its own
    row, so it does not depend on the others."""
    xi, _, ta, tb = rays
    mid, half = 0.5 * (ta + tb), 0.5 * (tb - ta)
    x0, t0, wx, wt = cols
    y = _hat((xi * mid - x0) / wx, xi * half / wx, gx)
    y *= _hat((mid - t0) / wt, half / wt, gx)
    z, p = None, BUMP_EXPONENT
    while p:
        if p & 1:
            z = y if z is None else np.multiply(z, y, out=z)
        p >>= 1
        if p:
            y = y * y if z is y else np.square(y, out=y)
    z *= gw
    return half * z.sum(-1)


def _hat(a, b, g):
    """max(1 - s^2, 0) at s = a + b g, g along a new last axis, in place."""
    s = b[:, None] * g
    s += a[:, None]
    return np.maximum(np.subtract(1.0, np.square(s, out=s), out=s), 0.0, out=s)


def _initial_parts(sol: DeltaSolution, bumps: _Bumps, gx, gw):
    """(bump, u part, v part) of each initial-data row.

    The carriers' constants, a Dirac mass at the origin, take -phi(0, 0)
    times their sum per component, one row per support holding it, unless
    both sums are 0.  Then a row is a support reaching t = 0, on one side
    of x = 0, with the data state there minus the outer segment's state; a
    side where the two are equal has none.
    """
    x0, t0, wx, wt = bumps.cols
    cu = math.fsum(s.constant for s in sol.singular if s.component == "u")
    cv = math.fsum(s.constant for s in sol.singular if s.component == "v")
    if cu or cv:
        phi = _bump(-x0 / wx) * _bump(-t0 / wt)
        b = np.flatnonzero(phi)  # the supports that hold the origin
        yield from zip(b.tolist(), (-cu * phi[b]).tolist(), (-cv * phi[b]).tolist())
    data, lo, hi = sol.initial, sol.segments[0].state, sol.segments[-1].state
    if (lo, hi) != (data.left, data.right):
        low = np.flatnonzero(t0 - wt < 0.0)  # the supports that reach t = 0
        xlo, xhi = bumps.xlo[low], bumps.xhi[low]
        for datum, outer, xa, xb in ((data.left, lo, xlo, np.minimum(xhi, 0.0)),
                                     (data.right, hi, np.maximum(xlo, 0.0), xhi)):
            du, dv = datum.u - outer.u, datum.v - outer.v
            side = np.flatnonzero(xa < xb) if du or dv else low[:0]
            for k in _slices(len(side), len(gx)):
                r, k = low[side[k]], side[k]
                X, XW = _nodes(xa[k], xb[k], gx, gw)
                mass = (XW * _bump((X - x0[r, None]) / wx[r, None])).sum(-1)
                mass *= _bump(-t0[r] / wt[r])
                yield from zip(r.tolist(), (du * mass).tolist(), (dv * mass).tolist())


def weak_residual(sol: DeltaSolution, phis, *, nodes: int = 32) -> list[tuple[float, float]]:
    """Absolute residuals (r_u, r_v) of both integral identities, per bump.

    For each bump phi the residual of the u equation is

        int int_{t > 0} (u phi_t + f phi_x) dx dt
            + sum over u-carriers of int beta(t) (phi_t + c phi_x)(c t, t) dt
            + int u_0(x) phi(x, 0) dx,

    and that of the v equation likewise with (v, g).  In a wedge
    c1 t < x < c2 t where U is smooth, Green's identity gives its integral
    as int phi(c2 t, t)(F - c2 U) dt - int phi(c1 t, t)(F - c1 U) dt, with
    U at each edge, minus int int phi (U_t + F_x) dx dt (0 in a constant
    wedge); for the two outer wedges also -U int phi(x, 0) dx over their
    side of x = 0.  A carrier's integrand is beta(t) d/dt phi(c t, t) with
    beta = rate t + constant, by parts -rate int phi(c t, t) dt minus
    constant phi(0, 0).  So no derivative of phi is taken: but for the rows
    at t = 0, each term is a weight times m0 = int phi(xi t, t) dt along a
    ray inside the support, all by one value-only kernel (_line_parts) on
    one bump-major entry table:

    - fan: each of the n nodes in xi of a (bump, rarefaction segment) row
      weighs -w_xi D, D = (A(U) - xi) U' (_fan_parts).  One ray inverse per
      segment takes all its rows' nodes and its two edge states.
    - ray: each (bump, ray x = c t) pair, an edge between segments or a
      carrier, weighs k = (F - c U) of the segment on its left minus that
      of the one on its right, each at its edge state, minus the rate of
      each carrier on it: the delta-shock jump condition.
    - t = 0: one row per (bump, side of x = 0) when the support reaches
      t = 0 integrates (u_0 - U) phi(x, 0), U the outer wedge's state on
      that side, unless that difference is exactly zero; one row per bump
      whose support holds the origin takes the carriers' constants.

    `nodes` = n is the Gauss-Legendre count in xi on each fan row and in x
    on each initial-data row.  Along a ray the integrand is a polynomial
    of degree at most 4p in t for p = BUMP_EXPONENT, so min(n, 2p + 1)
    nodes in t integrate it exactly once n >= 2p + 1; on a correct
    solution every weight vanishes, so any n reads the rounding floor.

    Each bump's fan nodes and rays are one run of the table, so nothing is
    sorted, and math.fsum adds each bump's parts: its residual depends
    neither on their order nor on the other bumps.

    `nodes` must be an integer >= 1 and not a bool, else PreconditionError.
    """
    if not (isinstance(nodes, int) and not isinstance(nodes, bool) and nodes >= 1):
        raise PreconditionError("quadrature node count must be an integer >= 1")
    phis = list(phis)
    if not phis:
        return []
    gx, gw = _gl(nodes)
    bumps = _Bumps.of(phis)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        blocks, states = _fan_parts(sol, bumps, gx, gw)
        rays = _ray_table(sol, states)
        m = nodes * len(blocks)
        table = np.empty((6, len(phis), m + rays.shape[1]))  # off the valid entries unread
        table[3] = 1.0
        valid = np.ones(table.shape[1:], dtype=bool)
        for k, (hit, cols) in zip(range(0, m, nodes), blocks):
            table[:3, hit, k:k + nodes] = cols
            valid[:, k:k + nodes] = hit[:, None]
        table[:3, :, m:] = rays[:, None]
        ends, pu, pv = _line_parts(bumps, table, valid, m, nodes)
    for b, u, v in _initial_parts(sol, bumps, gx, gw):  # into the end of bump b's run
        pu.insert(ends[b], u)
        pv.insert(ends[b], v)
        ends[b:] = [e + 1 for e in ends[b:]]
    return [(abs(math.fsum(pu[i:j])), abs(math.fsum(pv[i:j])))
            for i, j in zip([0] + ends[:-1], ends)]


@dataclass(frozen=True)
class FvGrid:
    """Uniform finite-volume grid with a CFL number and final time."""

    x_min: float
    x_max: float
    n_cells: int
    cfl: float = 0.45
    T: float = 0.5

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise PreconditionError("grid needs x_max > x_min")
        if not math.isfinite(self.x_max - self.x_min):
            raise PreconditionError("grid needs a finite x-range")
        if not (isinstance(self.n_cells, int) and self.n_cells >= 16):
            raise PreconditionError("grid needs at least 16 cells")
        if not 0.0 < self.cfl <= 0.9:
            raise PreconditionError("cfl must lie in (0, 0.9]")
        if not self.T > 0.0:
            raise PreconditionError("final time must be positive")


def fv_solve_trans(left: TransState, right: TransState, grid: FvGrid):
    """First-order Rusanov fields (x, u, q) for transformed Riemann data.

    Local speed bound is the larger spectral radius of the two adjacent
    cells; boundary cells extend outward.  Updated states are clamped back
    to q >= u^2/2 (the scheme can undershoot the domain by truncation
    error, never by more than it).
    """
    n = grid.n_cells
    dx = (grid.x_max - grid.x_min) / n
    x = grid.x_min + (np.arange(n) + 0.5) * dx
    u = np.where(x < 0.0, left.u, right.u).astype(float)
    q = np.where(x < 0.0, left.q, right.q).astype(float)
    box = 50.0 * (1.0 + max(abs(left.u), abs(right.u), abs(left.q),
                            abs(right.q)))
    t = 0.0
    while t < grid.T * (1.0 - 1e-14):
        ue = np.concatenate([u[:1], u, u[-1:]])
        qe = np.concatenate([q[:1], q, q[-1:]])
        lam_lo, lam_hi = trans_lambdas(ue, qe)
        a = np.maximum(np.abs(lam_lo), np.abs(lam_hi))
        amax = float(a.max())
        if not math.isfinite(amax) or amax <= 0.0:
            raise CflViolation(f"wave-speed bound degenerate: {amax!r}")
        dt = min(grid.cfl * dx / amax, grid.T - t)
        if dt <= 1e-15 * max(grid.T, 1.0):
            raise CflViolation("time step collapsed")
        fu = qe
        fq = trans_flux_g(ue, qe)
        aint = np.maximum(a[:-1], a[1:])
        flux_u = 0.5 * (fu[:-1] + fu[1:]) - 0.5 * aint * (ue[1:] - ue[:-1])
        flux_q = 0.5 * (fq[:-1] + fq[1:]) - 0.5 * aint * (qe[1:] - qe[:-1])
        u = u - dt / dx * (flux_u[1:] - flux_u[:-1])
        q = q - dt / dx * (flux_q[1:] - flux_q[:-1])
        q = np.maximum(q, 0.5 * u * u)
        if float(np.abs(u).max()) > box or float(np.abs(q).max()) > box:
            raise BlowUp("scheme state left the bounding box")
        t += dt
    return x, u, q


def compare_fan_fv(fan: WaveFan, grid: FvGrid) -> float:
    """L1 distance of (u, q) cell averages between exact fan and FV fields."""
    x, u_fv, q_fv = fv_solve_trans(fan.left, fan.right, grid)
    n = grid.n_cells
    dx = (grid.x_max - grid.x_min) / n
    edges = grid.x_min + np.arange(n + 1) * dx
    ray_pts = []
    for w in fan.waves:
        for s in (w.speed_lo, w.speed_hi):
            p = s * grid.T
            if grid.x_min < p < grid.x_max:
                ray_pts.append(p)
    pts = np.unique(np.concatenate([edges, np.asarray(ray_pts)]))
    lo, hi = pts[:-1], pts[1:]
    X, W = _nodes(lo, hi, *_gl(_FV_NODES))
    uu, qq = sample_fan_many(fan, X.ravel() / grid.T)
    uu = uu.reshape(X.shape)
    qq = qq.reshape(X.shape)
    idx = np.clip(((0.5 * (lo + hi) - grid.x_min) / dx).astype(int), 0, n - 1)
    u_avg = np.bincount(idx, weights=(W * uu).sum(axis=1), minlength=n) / dx
    q_avg = np.bincount(idx, weights=(W * qq).sum(axis=1), minlength=n) / dx
    return float(np.sum(np.abs(u_avg - u_fv) + np.abs(q_avg - q_fv)) * dx)


# ---------------------------------------------------------------------------
# Randomized data generators (forward-constructed, so the expected region and
# middle state are known exactly and round-trips can be asserted).


def random_trans_state(rng) -> TransState:
    """State with u uniform on [-2, 3] and slack uniform on [0.1, 3]."""
    u = float(rng.uniform(-2.0, 3.0))
    return TransState(u, 0.5 * u * u + float(rng.uniform(0.1, 3.0)))


def _rw1_target(left: TransState, rng, lo=0.1, hi=1.2) -> float:
    """Forward family-1 rarefaction endpoint, kept short of the critical hit."""
    d = float(rng.uniform(lo, hi))
    ustar = forward_curve_1(left).u_star
    if ustar <= left.u + d:
        d = 0.8 * (ustar - left.u)
    return left.u + d


# Region -> (family-1 wave, family-2 wave).
_REGION_WAVES = {"I": ("rarefaction", "rarefaction"), "II": ("shock", "rarefaction"),
                 "III": ("rarefaction", "shock"), "IV": ("shock", "shock")}


def random_trans_pair(rng, region: str):
    """(left, right, expected middle) with the middle built on the curves.

    An unknown region raises ValueError before anything is drawn.
    """
    if region not in _REGION_WAVES:
        raise ValueError(f"unknown region {region!r}")
    wave_1, wave_2 = _REGION_WAVES[region]
    for _ in range(_PAIR_TRIES):
        left = random_trans_state(rng)
        try:
            if wave_1 == "shock":
                um = left.u - float(rng.uniform(0.1, 1.2))
                mid = TransState(um, shock_q_1(left, um))
            else:
                um = _rw1_target(left, rng)
                mid = TransState(um, float(forward_curve_1(left).q(um)))
            if wave_2 == "shock":
                ur = mid.u - float(rng.uniform(0.1, 1.2))
                right = TransState(ur, shock_q_2(mid, ur))
            else:
                ur = mid.u + float(rng.uniform(0.1, 1.2))
                right = TransState(ur, integrate_rarefaction(2, mid, ur).q_at(ur))
        except BrioError:
            continue
        if right.slack < 1e-3 or mid.slack < 1e-6:
            continue
        return left, right, mid
    raise PreconditionError(f"could not generate region-{region} data")


def random_brio_data(rng, region: str, sign_case: str) -> RiemannData:
    """Original-variable Riemann data with a known region and sign pattern.

    An unknown region or sign case raises ValueError before anything is drawn.
    """
    if sign_case not in ("same", "flip"):
        raise ValueError(f"sign_case must be 'same' or 'flip', got {sign_case!r}")
    left, right, _ = random_trans_pair(rng, region)
    s = 1.0 if rng.uniform() < 0.5 else -1.0
    sr = s if sign_case == "same" else -s
    return RiemannData(project(left, s), project(right, sr))


def flip_pair_alternatives(sol: DeltaSolution, k: int, rng):
    """k weak solutions with extra deficit-carrying flip pairs spliced in.

    Each alternative flips v to -v and back inside one constant segment;
    away from the speed U - 1 both flips violate the second jump condition,
    so each carries a genuine delta and the alternative's cardinality
    exceeds the original's by two.  They all pass the weak test, which is
    exactly why cardinality minimality is needed to select a solution.
    """
    candidates = [
        (i, seg) for i, seg in enumerate(sol.segments)
        if isinstance(seg, ConstantSegment) and abs(seg.state.v) > 1e-6
    ]
    if not candidates:
        raise PreconditionError("no constant segment with nonzero v to flip in")
    out = []
    for _ in range(k):
        i, seg = candidates[int(rng.integers(len(candidates)))]
        lo = seg.xi_lo if math.isfinite(seg.xi_lo) else (
            seg.xi_hi - 2.0 if math.isfinite(seg.xi_hi) else -1.0)
        hi = seg.xi_hi if math.isfinite(seg.xi_hi) else lo + 2.0
        width = hi - lo
        s1, s2 = np.sort(rng.uniform(lo + 0.15 * width, hi - 0.15 * width,
                                     size=2))
        s1, s2 = float(s1), float(s2)
        if s2 - s1 < 0.05 * width:
            s2 = min(s1 + 0.05 * width, hi - 0.1 * width)
        forbidden = seg.state.u - 1.0
        if abs(s1 - forbidden) < 0.02 * width:
            s1 += 0.03 * width
        if abs(s2 - forbidden) < 0.02 * width:
            s2 += 0.03 * width
        if s2 <= s1:
            s1, s2 = s2, s1 + 0.01 * width
        flipped = BrioState(seg.state.u, -seg.state.v)
        extra = (
            DeltaSingularity(s1, rh_deficit_v(seg.state, flipped, s1), 0.0, "v"),
            DeltaSingularity(s2, rh_deficit_v(flipped, seg.state, s2), 0.0, "v"),
        )
        new_segments = (
            sol.segments[:i]
            + (ConstantSegment(seg.xi_lo, s1, seg.state),
               ConstantSegment(s1, s2, flipped),
               ConstantSegment(s2, seg.xi_hi, seg.state))
            + sol.segments[i + 1:]
        )
        singular = tuple(sorted(sol.singular + extra, key=lambda d: d.speed))
        out.append(DeltaSolution(sol.initial, sol.flux, new_segments,
                                 singular, None, dict(sol.options)))
    return out


# ---------------------------------------------------------------------------
# Property suite: a table of named checks.  Each check takes the suite's one
# generator, draws from it in table order, and returns one
# (passed, measured, tolerance) row per name of its table entry.


def _worst(res) -> float:
    """Largest of r_u and r_v over the bumps of one weak residual, inf if any
    is not finite (a Python max drops a NaN that does not come first)."""
    flat = [r for pair in res for r in pair]
    return max(flat) if all(map(math.isfinite, flat)) else math.inf


def _flag(ok: bool):
    """Row of a yes/no check: measured 0 when it holds, 1 when not."""
    return ok, 0.0 if ok else 1.0, 0.0


def _suite_weak_scale(data: RiemannData) -> float:
    return 1.0 + max(abs(data.left.u), abs(data.left.v),
                     abs(data.right.u), abs(data.right.v))


def _rw1_curves(rng):
    """Eight random family-1 rarefactions as 201 (u, q) samples, drawn lazily."""
    for _ in range(8):
        left = random_trans_state(rng)
        um = _rw1_target(left, rng, 0.4, 1.5)
        us = np.linspace(left.u, um, 201)
        yield us, np.asarray(integrate_rarefaction(1, left, um).q_at(us))


def _critical_curve_invariance(rng):
    """Family-2 integral curves started on q = u^2/2 stay on it."""
    worst = 0.0
    for u0 in (-2.0, 0.0, 1.0, 3.0):
        curve = integrate_rarefaction(2, TransState(u0, 0.5 * u0 * u0), u0 + 5.0)
        us = np.linspace(u0, u0 + 5.0, 501)
        dev = np.abs(np.asarray(curve.q_at(us)) - 0.5 * us * us)
        worst = max(worst, float(dev.max()))
    return [(worst <= 1e-8, worst, 1e-8)]


def _lambda1_monotone_rw1(rng):
    """The slow-family speed increases through every family-1 rarefaction."""
    worst = min(float(np.diff(trans_lambdas(us, qs)[0]).min())
                for us, qs in _rw1_curves(rng))
    return [(worst > 0.0, worst, 0.0)]


def _qtilde_decreasing_rw1(rng):
    """The discriminant 8q - 4u^2 + 1 falls along family-1 rarefactions, to 1 at q = u^2/2."""
    worst = max(float(np.diff(discriminant(us, qs)).max())
                for us, qs in _rw1_curves(rng))
    return [(worst < 0.0, worst, 0.0)]


def _shock_rh_consistency(rng):
    """Both shock loci satisfy both jump conditions to rounding."""
    worst = 0.0
    for _ in range(_SHOCK_BASES):
        base = random_trans_state(rng)
        u = base.u - float(rng.uniform(0.05, 1.5))
        for q in (shock_q_1(base, u), shock_q_2(base, u)):
            c = (q - base.q) / (u - base.u)
            res = abs(c * (q - base.q)
                      - (trans_flux_g(u, q) - trans_flux_g(base.u, base.q)))
            worst = max(worst, res / (1.0 + abs(base.q)))
    return [(worst <= 1e-10, worst, 1e-10)]


def _middle_states(rng):
    """Randomized middle states: domain, Lax admissibility, region round trip."""
    min_slack = math.inf
    lax_ok = round_ok = True
    for region in _REGION_WAVES:
        for _ in range(_PAIRS_PER_REGION):
            left, right, mid = random_trans_pair(rng, region)
            fan = build_fan(left, right)
            m = fan.middle
            # Signed, unlike the clamped TransState.slack, so the check can fail.
            min_slack = min(min_slack, m.q - 0.5 * m.u * m.u)
            lax_ok &= all(lax_check(w) for w in fan.waves if w.kind == "shock")
            round_ok &= (fan.region.value == region
                         and abs(fan.middle.u - mid.u) <= 1e-6 * (1.0 + abs(mid.u)))
    return [(min_slack >= -1e-9, min_slack, -1e-9), _flag(lax_ok), _flag(round_ok)]


def _delta_construction(rng):
    """Carried rates are the RH deficit, carriers keep the first equation, flips order."""
    worst_def = worst_u = 0.0
    order_ok = True
    for region in ("II", "III", "IV"):
        for sign_case in ("same", "flip"):
            sol = solve_brio(random_brio_data(rng, region, sign_case))
            deficit, carrier_u = _recomputed_deficits(sol)
            worst_def, worst_u = max(worst_def, deficit), max(worst_u, carrier_u)
            order_ok &= sign_case == "same" or _flip_ordered(sol)
    return [(worst_def <= 1e-12, worst_def, 1e-12),
            (worst_u <= 1e-10, worst_u, 1e-10), _flag(order_ok)]


def _weak_residual_admissible(rng):
    """Weak residuals of admissible constructions over the 25-bump battery."""
    worst = 0.0
    for region in _REGION_WAVES:
        for sign_case in ("same", "flip"):
            data = random_brio_data(rng, region, sign_case)
            sol = solve_brio(data)
            res = weak_residual(sol, solution_battery(sol))
            worst = max(worst, _worst(res) / _suite_weak_scale(data))
    return [(worst <= TOL_WEAK, worst, TOL_WEAK)]


def _minimality(rng):
    """Spliced flip pairs stay weak solutions but carry more deltas."""
    data = random_brio_data(rng, "II", "same")
    sol = solve_brio(data)
    base_card = cardinality(sol)
    scale = _suite_weak_scale(data)
    ok, worst = True, 0.0
    for alt in flip_pair_alternatives(sol, 3, rng):
        worst = max(worst, _worst(weak_residual(alt, solution_battery(alt))) / scale)
        ok &= cardinality(alt) > base_card
    return [(ok and worst <= TOL_WEAK, worst, TOL_WEAK)]


def _nonuniqueness_fixture(rng):
    """Two weak solutions over zero data; cardinality picks the zero one."""
    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    zero = nonuniqueness_example(0.0, -1.0, 1.0)
    battery = test_function_battery([-1.0, 1.0], 1.0)
    worst = _worst(weak_residual(fix, battery))
    worst0 = _worst(weak_residual(zero, battery))
    ok = worst <= 1e-8 and worst0 <= 1e-12 and \
        cardinality(fix) == 2 and cardinality(zero) == 0
    return [(ok, worst, 1e-8)]


def _canary_sw1_sign(rng):
    """Canary: a fast-family locus state passed off as a slow shock fails Lax."""
    left = TransState(1.0, 5.0)
    wrong = TransState(0.7, shock_q_2(left, 0.7))
    c = (wrong.q - left.q) / (wrong.u - left.u)
    return [_flag(not lax_check(Wave("shock", 1, left, wrong, c, c)))]


def _canary_flip_speed(rng):
    """Canary: a flip speed off both admissible values gives a finite residual > 1e-4."""
    _, sol = _canary_flip_solution()
    worst = _worst(weak_residual(sol, solution_battery(sol)))
    return [(1e-4 < worst < math.inf, worst, 1e-4)]


@functools.cache
def _fv_cross_validation_row():
    """Row of the FV cross-validation.  It draws nothing and takes no
    argument, so one process computes it once."""
    left = TransState(1.0, 5.0)
    mid = TransState(0.4, shock_q_1(left, 0.4))
    right = TransState(0.1, shock_q_2(mid, 0.1))
    err = compare_fan_fv(build_fan(left, right), FvGrid(-5.0, 5.0, 4096, 0.45, 0.5))
    bound = 0.05 * (abs(right.u - left.u) + abs(right.q - left.q))
    return err <= bound, err, bound


def _fv_cross_validation(rng):
    """FV cross-validation on a forward-built two-shock (region IV) fan."""
    return [_fv_cross_validation_row()]


class _LaggingCurve(IntegralCurve):
    """An integral curve whose ray inverse answers for xi - LAG, so a fan
    sampled through it is no centered rarefaction: D = -LAG U'.  (A fan with
    a shifted C is one, with D = 0, and shows only in its edge jumps.)"""

    LAG = 1e-3

    def ray(self, xi):
        return super().ray(np.asarray(xi, dtype=float) - self.LAG)


def _lagging(sol: DeltaSolution) -> DeltaSolution:
    """sol with every rarefaction sampled through a _LaggingCurve."""
    return replace(sol, segments=tuple(
        replace(seg, curve=_LaggingCurve(**vars(seg.curve)))
        if isinstance(seg, RarefactionSegment) else seg for seg in sol.segments))


def _defective_fan():
    """(data, solution, bump) of a region-I fan whose rarefactions lag (_LaggingCurve)."""
    left = TransState(1.0, 5.0)
    mid = TransState(1.5, float(forward_curve_1(left).q(1.5)))
    right = TransState(2.2, integrate_rarefaction(2, mid, 2.2).q_at(2.2))
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    return data, _lagging(solve_brio(data)), TestFunction((0.0, 0.5), (2.5, 0.45))


def _quadrature_convergence(rng):
    """Doubling the nodes gains >= 4x until the floor on a defective fan.

    On a correct fan the fan rows integrate D = 0 and every rule reads the
    rounding floor, so the fixture's rarefactions lag (_defective_fan).
    The error |r(n) - r(256)| at 4, 8 and 16 nodes is that of the fan rows'
    xi rule, with that of the t rule below 2p + 1 nodes.  A non-finite
    level or reference fails the row.
    """
    data, sol, phi = _defective_fan()
    floor = 1e-12 * _suite_weak_scale(data)
    ref = weak_residual(sol, [phi], nodes=256)
    levels = [_worst(np.abs(np.subtract(weak_residual(sol, [phi], nodes=n), ref)))
              for n in (4, 8, 16)]
    ratio_ok, worst_ratio = all(map(math.isfinite, levels)), math.inf
    for a, b in zip(levels[:-1], levels[1:]):
        if a <= floor:
            break
        ratio = a / max(b, floor)
        worst_ratio = min(worst_ratio, ratio)
        if ratio < 4.0 and b > floor:
            ratio_ok = False
    measured = worst_ratio if math.isfinite(worst_ratio) else levels[-1]
    return [(ratio_ok, measured, 4.0)]


# (check, its (name, measured, tolerance) rows when it raises BrioError), in
# report order.
_SUITE = (
    (_critical_curve_invariance, (("critical_curve_invariance", math.inf, 1e-8),)),
    (_lambda1_monotone_rw1, (("lambda1_monotone_rw1", -math.inf, 0.0),)),
    (_qtilde_decreasing_rw1, (("qtilde_decreasing_rw1", math.inf, 0.0),)),
    (_shock_rh_consistency, (("shock_rh_consistency", math.inf, 1e-10),)),
    (_middle_states, (("middle_state_domain", -math.inf, -1e-9),
                      ("lax_admissibility", 1.0, 0.0),
                      ("region_round_trip", 1.0, 0.0))),
    (_delta_construction, (("deficit_identity", math.inf, 1e-12),
                           ("carrier_u_exactness", math.inf, 1e-10),
                           ("flip_ordering", 1.0, 0.0))),
    (_weak_residual_admissible, (("weak_residual_admissible", math.inf, TOL_WEAK),)),
    (_minimality, (("minimality", math.inf, TOL_WEAK),)),
    (_nonuniqueness_fixture, (("nonuniqueness_fixture", math.inf, 1e-8),)),
    (_canary_sw1_sign, (("canary_sw1_sign", 1.0, 0.0),)),
    (_canary_flip_speed, (("canary_flip_speed", 0.0, 1e-4),)),
    (_fv_cross_validation, (("fv_cross_validation", math.inf, 0.0),)),
    (_quadrature_convergence, (("quadrature_convergence", 0.0, 4.0),)),
)


def property_suite(seed: int = 0) -> dict:
    """Run every module-level invariant and report pass/fail per check.

    Deterministic for a fixed seed.  Failures never raise; they land in the
    report (the CLI turns an any-failed report into exit code 2).  A check
    that raises BrioError reports its table rows, failed.
    weak_residual_admissible and minimality judge the residual over
    1 + max |data| against TOL_WEAK.
    """
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    for check, fallback in _SUITE:
        try:
            rows = check(rng)
        except BrioError:
            rows = [(False, measured, tol) for _, measured, tol in fallback]
        checks += [{"name": name, "passed": bool(passed), "measured": float(measured),
                    "tolerance": float(tol)}
                   for (name, _, _), (passed, measured, tol) in zip(fallback, rows, strict=True)]
    return {"checks": checks, "seed": seed}


def _recomputed_deficits(sol: DeltaSolution) -> tuple[float, float]:
    """(max rate-vs-deficit error, max first-equation carrier residual)."""
    worst_def = 0.0
    worst_u = 0.0
    for s in sol.singular:
        xi = s.speed
        l_state, r_state = _states_around(sol, xi)
        worst_def = max(worst_def,
                        abs(s.rate - rh_deficit_v(l_state, r_state, xi)))
        worst_u = max(worst_u, abs(rh_deficit_u(l_state, r_state, xi)))
    return worst_def, worst_u


def _states_around(sol: DeltaSolution, xi: float):
    """Constant states immediately left and right of a carrier ray."""
    eps = 1e-9 * (1.0 + abs(xi))
    u, v = sample_brio_many(sol, np.asarray([xi - eps, xi + eps]))
    return BrioState(float(u[0]), float(v[0])), BrioState(float(u[1]),
                                                          float(v[1]))


def _flip_ordered(sol: DeltaSolution) -> bool:
    """Carrier speeds weakly increase and straddle the flip correctly."""
    speeds = [s.speed for s in sol.singular]
    if speeds != sorted(speeds):
        return False
    lo = -math.inf
    for seg in sol.segments:
        if seg.xi_lo < lo - 1e-10 * (1.0 + abs(seg.xi_lo)):
            return False
        lo = seg.xi_hi
    return True


def _canary_flip_solution():
    """Sign-change data whose fan gap is wide enough to hold U_M + 1."""
    left = BrioState(0.0, 2.0)
    right = BrioState(0.3, -math.sqrt(2.0 * 2.0 - 0.3 ** 2))
    data = RiemannData(left, right)
    mid = solve_middle(lift(left), lift(right))
    sol = solve_brio(data, flip_speed=mid.u + 1.0)
    return data, sol
