"""Numerical verification: weak-form residuals, an FV reference, property suite.

The weak test evaluates the two integral identities that define singular
solutions against smooth bump test functions: a space-time quadrature of the
regular part, one line integral per Dirac carrier, and an initial-data term.
All three are computed with Gauss-Legendre panels split so that every
integrand piece is smooth, which keeps the quadrature spectrally accurate;
an admissible solution drives both residuals to the quadrature floor.

The finite-volume solver is a deliberately independent route to the
transformed fans (first-order Rusanov, nothing shared with the wave-curve
construction) and is used only for convergence trends, never for equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BrioState,
    RiemannData,
    TransState,
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
    forward_curve_1,
    integrate_rarefaction,
    shock_q_1,
    shock_q_2,
)

TOL_WEAK = 1e-7
# Points evaluated per array pass of weak_residual: n per row for the rows
# of n points (line, initial-data and closed-form constant-wedge rows), n^2
# for the sampled bulk rows.  Bounds its temporaries whatever the battery
# size or node count n.
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


def _bump_pair(s, p: int):
    """B(s) = (1 - s^2)^p on |s| <= 1 (zero outside) and B'(s).

    The integer powers are repeated products; p >= 2.
    """
    z = np.maximum(1.0 - np.square(s), 0.0)
    zp = z.copy()  # z^(p - 1)
    for _ in range(p - 2):
        zp *= z
    z *= zp
    return z, -2.0 * p * s * zp


def _bump_int(s, p: int):
    """I_p(s) = integral of B(r) = (1 - r^2)^p from 0 to s, for |s| <= 1.

    By parts, I_k = (s z^k + 2k I_{k-1}) / (2k + 1) with z = 1 - s^2 and
    I_0 = s.  Every term has the sign of s, so nothing cancels.
    """
    z = np.maximum(1.0 - np.square(s), 0.0)
    zk = s  # s z^k
    out = s
    for k in range(1, p + 1):
        zk = zk * z
        out = (zk + 2 * k * out) / (2 * k + 1)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump phi(x,t) = B(s_x) B(s_t), B(s) = (1 - s^2)^p on |s| <= 1.

    p >= 3 gives C^{p-1} regularity, comfortably enough for the weak form;
    value and both partial derivatives are closed-form polynomials.
    """

    # the name is calculus-of-variations vocabulary, not a pytest case
    __test__ = False

    center: tuple[float, float]
    halfwidths: tuple[float, float]
    p: int = 6

    def __post_init__(self):
        x0, t0 = self.center
        wx, wt = self.halfwidths
        if not (math.isfinite(x0) and math.isfinite(t0)):
            raise PreconditionError("test function center must be finite")
        if not (wx > 0.0 and wt > 0.0):
            raise PreconditionError("test function halfwidths must be positive")
        if not (isinstance(self.p, int) and self.p >= 3):
            raise PreconditionError("test function exponent must be an integer >= 3")

    def _factors(self, x, t):
        """(B, B') of the x factor and of the t factor at (x, t)."""
        sx = (np.asarray(x) - self.center[0]) / self.halfwidths[0]
        st = (np.asarray(t) - self.center[1]) / self.halfwidths[1]
        return _bump_pair(sx, self.p), _bump_pair(st, self.p)

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
    xcs = np.linspace(lo, hi, 5)
    tcs = np.linspace(T / 6.0, 5.0 * T / 6.0, 5)
    wx = (hi - lo) / 4.0
    wt = T / 5.0
    return [TestFunction((float(xc), float(tc)), (wx, wt))
            for tc in tcs for xc in xcs]


test_function_battery.__test__ = False


def solution_battery(sol: DeltaSolution) -> list[TestFunction]:
    """Battery sized to one solution's rays and carriers, up to time 1."""
    speeds = [s.speed for s in sol.singular]
    for seg in sol.segments:
        for xi in (seg.xi_lo, seg.xi_hi):
            if math.isfinite(xi):
                speeds.append(xi)
    return test_function_battery(speeds, 1.0)


def _dedupe(values, tol):
    out = []
    for x in sorted(values):
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


def _time_panels(speeds, xlo: float, xhi: float, t_lo: float, t_hi: float):
    """Panels (ta, tb) of [t_lo, t_hi], cut where a ray x = c t leaves [xlo, xhi].

    Cuts closer than 1e-13 relative merge and panels that short are skipped.
    """
    cuts = [t_lo, t_hi]
    for c in speeds:
        if c == 0.0:
            continue
        for e in (xlo, xhi):
            tc = e / c
            if t_lo < tc < t_hi:
                cuts.append(tc)
    breaks = _dedupe(cuts, 1e-13 * (1.0 + t_hi))
    for ta, tb in zip(breaks[:-1], breaks[1:]):
        if tb - ta > 1e-13 * (1.0 + tb):
            yield ta, tb


def _nodes(a, b, gx, gw):
    """Gauss-Legendre nodes and weights on [a, b], along a new last axis."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[..., None] + half[..., None] * gx, half[..., None] * gw


def _chunks(keys, size):
    """Row indices in runs of equal key, at most `size` rows per chunk.

    `size` is one number, or one per row that is equal within each key.
    """
    order = np.argsort(keys, kind="stable")
    sizes = np.broadcast_to(size, keys.shape)
    for run in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        step = max(1, int(sizes[run[0]]))
        for i in range(0, len(run), step):
            yield run[i:i + step]


@dataclass(frozen=True)
class _Bumps:
    """A battery as columns, one entry per bump."""

    x0: np.ndarray
    t0: np.ndarray
    wx: np.ndarray
    wt: np.ndarray
    p: np.ndarray

    def sx(self, r, x):
        """s_x = (x - x0)/wx for rows r.

        x holds one leading entry per row and any trailing node axes.
        """
        return _scaled(x, self.x0[r], self.wx[r])

    def st(self, r, t):
        """s_t = (t - t0)/wt for rows r, shaped as in sx."""
        return _scaled(t, self.t0[r], self.wt[r])

    def factors(self, r, x, t):
        """(B, B') at s_x and at s_t for rows r, which share one exponent."""
        p = int(self.p[r[0]])
        return _bump_pair(self.sx(r, x), p), _bump_pair(self.st(r, t), p)


def _scaled(y, c, w):
    shape = c.shape + (1,) * (np.ndim(y) - 1)
    return (y - c.reshape(shape)) / w.reshape(shape)


def _weak_rows(sol: DeltaSolution, phis):
    """Tables of the bulk, line and initial-data pieces of the weak form.

    bulk: (bump, ta, tb, ca, da, cb, db), the x-piece from ca t + da to
    cb t + db over the time panel [ta, tb]; line: (bump, ta, tb, carrier);
    initial: (bump, xa, xb, u, v).
    """
    rays = sorted({b for seg in sol.segments for b in (seg.xi_lo, seg.xi_hi)
                   if math.isfinite(b)})
    bulk, line, init = [], [], []
    for b, phi in enumerate(phis):
        x0, t0 = phi.center
        wx, wt = phi.halfwidths
        xlo, xhi = x0 - wx, x0 + wx
        t_lo, t_hi = max(0.0, t0 - wt), t0 + wt
        if t_hi > t_lo:
            for ta, tb in _time_panels(rays, xlo, xhi, t_lo, t_hi):
                tmid = 0.5 * (ta + tb)
                ends = [(0.0, xlo)]
                ends += [(c, 0.0) for c in rays if xlo < c * tmid < xhi]
                ends.append((0.0, xhi))
                bulk += [(b, ta, tb, *lo, *hi)
                         for lo, hi in zip(ends[:-1], ends[1:])]
            for k, s in enumerate(sol.singular):
                for ta, tb in _time_panels((s.speed,), xlo, xhi, t_lo, t_hi):
                    if xlo < s.speed * 0.5 * (ta + tb) < xhi:
                        line.append((b, ta, tb, k))
        if t0 - wt < 0.0:
            xcuts = [xlo, 0.0, xhi] if xlo < 0.0 < xhi else [xlo, xhi]
            for xa, xb in zip(xcuts[:-1], xcuts[1:]):
                if xb > xa:
                    state = (sol.initial.left if 0.5 * (xa + xb) < 0.0
                             else sol.initial.right)
                    init.append((b, xa, xb, state.u, state.v))
    return bulk, line, init


def _bulk_parts(sol: DeltaSolution, bumps: _Bumps, rows, gx, gw):
    """(bump, u part, v part) of the space-time integral, per chunk of rows.

    Two kinds of chunk: constant-wedge rows with n > p, integrated in x in
    closed form at their n time nodes, and rows sampled at n x n points
    (see weak_residual).  Both depend only on the chunk's key.
    """
    if not rows:
        return
    fl, gl_flux = sol.flux.f, sol.flux.g
    n = len(gx)
    b, ta, tb, ca, da, cb, db = np.array(rows).T
    b = b.astype(np.intp)
    p = bumps.p[b]
    tm = 0.5 * (ta + tb)
    edges = np.asarray([seg.xi_hi for seg in sol.segments[:-1]])
    seg = np.searchsorted(edges, 0.5 * ((ca + cb) * tm + da + db) / tm,
                          side="right")
    rare = np.array([isinstance(g, RarefactionSegment)
                     for g in sol.segments])[seg]
    su, sv = np.array([(math.nan, math.nan) if isinstance(g, RarefactionSegment)
                       else (g.state.u, g.state.v) for g in sol.segments]).T
    closed = ~rare & (p < n)
    fan = rare & (da == 0.0) & (db == 0.0)
    keys = (p * (len(sol.segments) + 1) + np.where(rare, seg + 1, 0)) * 2 + fan
    for idx in _chunks(keys, _CHUNK_POINTS // np.where(closed, n, n * n)):
        r, k, i = b[idx], seg[idx], idx[0]
        pr = int(p[i])
        T, TW = _nodes(ta[idx], tb[idx], gx, gw)
        lo = (bumps.x0[r] - bumps.wx[r])[:, None]
        hi = (bumps.x0[r] + bumps.wx[r])[:, None]
        xa = np.clip(ca[idx, None] * T + da[idx, None], lo, hi)
        xb = np.clip(cb[idx, None] * T + db[idx, None], lo, hi)
        if np.any(xb - xa < -1e-12 * (1.0 + np.abs(hi))):
            raise QuadratureFailure("ray positions not monotone inside a panel")
        bt, dbt = _bump_pair(bumps.st(r, T), pr)
        if closed[i]:
            sa, sb = bumps.sx(r, xa), bumps.sx(r, xb)
            wx = bumps.wx[r, None]
            mass = wx * (_bump_int(sb, pr) - _bump_int(sa, pr))
            slope = wx * (_bump_pair(sb, pr)[0] - _bump_pair(sa, pr)[0])
            u, v = su[k, None], sv[k, None]
            iu, iv = u * mass, v * mass
            jf, jg = fl(u, v) * slope, gl_flux(u, v) * slope
        else:
            X, WX = _nodes(xa, xb, gx, gw)
            bx, dbx = _bump_pair(bumps.sx(r, X), pr)
            wb, wd = WX * bx, WX * dbx
            if fan[i]:
                xi = _nodes(ca[idx], cb[idx], gx, gw)[0][:, None]
                u, v = _rarefaction_uv(sol.segments[k[0]], xi)
            elif rare[i]:
                u, v = _rarefaction_uv(sol.segments[k[0]], X / T[:, :, None])
            else:
                u, v = su[k, None, None], sv[k, None, None]
            iu, iv = (wb * u).sum(-1), (wb * v).sum(-1)
            jf, jg = (wd * fl(u, v)).sum(-1), (wd * gl_flux(u, v)).sum(-1)
        at = TW * dbt / bumps.wt[r, None]
        ax = TW * bt / bumps.wx[r, None]
        yield r, (at * iu + ax * jf).sum(-1), (at * iv + ax * jg).sum(-1)


def _line_parts(sol: DeltaSolution, bumps: _Bumps, rows, gx, gw,
                arclength: bool):
    """(bump, u part, v part) of the carrier line integrals, per chunk."""
    if not rows:
        return
    b, ta, tb, k = np.array(rows).T
    b, k = b.astype(np.intp), k.astype(np.intp)
    c, rate, const = np.array([(s.speed, s.rate, s.constant)
                               for s in sol.singular])[k].T
    on_u = np.array([s.component == "u" for s in sol.singular])[k]
    weight = np.sqrt(1.0 + c * c) if arclength else np.ones_like(c)
    for idx in _chunks(bumps.p[b], _CHUNK_POINTS // len(gx)):
        r = b[idx]
        T, TW = _nodes(ta[idx], tb[idx], gx, gw)
        cc = c[idx, None]
        (bx, dbx), (bt, dbt) = bumps.factors(r, cc * T, T)
        beta = rate[idx, None] * T + const[idx, None]
        vals = beta * (bx * dbt / bumps.wt[r, None]
                       + cc * dbx / bumps.wx[r, None] * bt)
        val = (TW * vals).sum(-1) * weight[idx]
        yield r, np.where(on_u[idx], val, 0.0), np.where(on_u[idx], 0.0, val)


def _initial_parts(bumps: _Bumps, rows, gx, gw):
    """(bump, u part, v part) of the initial-data integrals, per chunk."""
    if not rows:
        return
    b, xa, xb, u, v = np.array(rows).T
    b = b.astype(np.intp)
    for idx in _chunks(bumps.p[b], _CHUNK_POINTS // len(gx)):
        r = b[idx]
        X, XW = _nodes(xa[idx], xb[idx], gx, gw)
        (bx, _), (bt, _) = bumps.factors(r, X, np.zeros(len(r)))
        mass = (XW * bx).sum(-1) * bt
        yield r, u[idx] * mass, v[idx] * mass


def weak_residual(sol: DeltaSolution, phis, *, nodes: int = 32,
                  arclength: bool = False) -> list[tuple[float, float]]:
    """Absolute residuals (r_u, r_v) of both integral identities, per bump.

    Every term is integrated by Gauss-Legendre with `nodes` points per axis
    on pieces where its integrand is smooth, listed first in three tables:

    - bulk: one row per (bump, time panel, x-piece).  Time panels are cut
      where a ray of the regular part crosses the bump's x-support.  At
      each time node the x-pieces run between xlo, the rays x = c t inside
      the support and xhi, so each piece lies in one segment.
    - line: one row per (bump, Dirac carrier, time panel) on which the
      carrier lies inside the support.
    - initial data: one row per (bump, side of x = 0) when the support
      reaches t = 0.

    The bump is separable, phi = B(s_x) B(s_t), so B and B' of s_t are
    evaluated once per time node.  A bulk row in a constant wedge takes the
    wedge's u, v, f and g as scalars.  Its x-integrand is then a polynomial
    of degree at most 2p in s_x, which the rule integrates exactly when
    nodes > p, so such a row takes its x-integral in closed form, from B
    and the integral of B at the piece's two ends: n points per row.  The
    other bulk rows are sampled at n x n points, with B and B' of s_x taken
    once per point.  A rarefaction row between two rays meets the same n
    rays at every time node, so its ray inverse runs once per ray; one
    that ends on a support edge is sampled at every point.  The rows are
    evaluated in chunks of at most _CHUNK_POINTS evaluated points, grouped
    by bump exponent and segment, so no array of all points is ever built.
    Each row gives one partial sum, and each bump's partial sums are added
    by math.fsum, so a bump's residual depends neither on row order nor on
    the other bumps of the battery.

    `nodes` must be an integer >= 1, else PreconditionError.
    """
    if not (isinstance(nodes, int) and nodes >= 1):
        raise PreconditionError("quadrature node count must be an integer >= 1")
    phis = list(phis)
    if not phis:
        return []
    gx, gw = _gl(nodes)
    bulk, line, init = _weak_rows(sol, phis)
    x0, t0, wx, wt = np.array([phi.center + phi.halfwidths for phi in phis]).T
    bumps = _Bumps(x0, t0, wx, wt, np.array([phi.p for phi in phis]))
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))]
    parts += _bulk_parts(sol, bumps, bulk, gx, gw)
    parts += _line_parts(sol, bumps, line, gx, gw, arclength)
    parts += _initial_parts(bumps, init, gx, gw)

    b, pu, pv = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(b, kind="stable")
    cuts = np.cumsum(np.bincount(b, minlength=len(phis)))[:-1]
    return [(abs(math.fsum(ru.tolist())), abs(math.fsum(rv.tolist())))
            for ru, rv in zip(np.split(pu[order], cuts), np.split(pv[order], cuts))]


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
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gx, gw = _gl(_FV_NODES)
    X = mid[:, None] + half[:, None] * gx
    W = half[:, None] * gw
    uu, qq = sample_fan_many(fan, X.ravel() / grid.T)
    uu = uu.reshape(X.shape)
    qq = qq.reshape(X.shape)
    idx = np.clip(((mid - grid.x_min) / dx).astype(int), 0, n - 1)
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
# Property suite: a table of named checks.  Each check takes the suite's
# _SuiteRun, draws from its one generator in table order, and returns one
# (passed, measured, tolerance) row per name of its table entry.


@dataclass(frozen=True)
class _SuiteRun:
    rng: np.random.Generator
    tol_weak: float
    arclength: bool

    def weak(self, sol, phis, **kw):
        return weak_residual(sol, phis, arclength=self.arclength, **kw)


def _worst(res) -> float:
    """Largest of r_u and r_v over the bumps of one weak residual."""
    return max(max(ru, rv) for ru, rv in res)


def _flag(ok: bool):
    """Row of a yes/no check: measured 0 when it holds, 1 when not."""
    return ok, 0.0 if ok else 1.0, 0.0


def _suite_weak_scale(data: RiemannData) -> float:
    return 1.0 + max(abs(data.left.u), abs(data.left.v),
                     abs(data.right.u), abs(data.right.v))


def _region_iv_fixture():
    """(left, right) of a forward-built two-shock (region IV) fan."""
    left = TransState(1.0, 5.0)
    mid = TransState(0.4, shock_q_1(left, 0.4))
    return left, TransState(0.1, shock_q_2(mid, 0.1))


def _rw1_curves(rng):
    """Eight random family-1 rarefactions as 201 (u, q) samples, drawn lazily."""
    for _ in range(8):
        left = random_trans_state(rng)
        um = _rw1_target(left, rng, 0.4, 1.5)
        us = np.linspace(left.u, um, 201)
        yield us, np.asarray(integrate_rarefaction(1, left, um).q_at(us))


def _critical_curve_invariance(run: _SuiteRun):
    """Family-2 integral curves started on q = u^2/2 stay on it."""
    worst = 0.0
    for u0 in (-2.0, 0.0, 1.0, 3.0):
        curve = integrate_rarefaction(2, TransState(u0, 0.5 * u0 * u0), u0 + 5.0)
        us = np.linspace(u0, u0 + 5.0, 501)
        dev = np.abs(np.asarray(curve.q_at(us)) - 0.5 * us * us)
        worst = max(worst, float(dev.max()))
    return [(worst <= 1e-8, worst, 1e-8)]


def _lambda1_monotone_rw1(run: _SuiteRun):
    """The slow-family speed increases through every family-1 rarefaction."""
    worst = min(float(np.diff(trans_lambdas(us, qs)[0]).min())
                for us, qs in _rw1_curves(run.rng))
    return [(worst > 0.0, worst, 0.0)]


def _qtilde_decreasing_rw1(run: _SuiteRun):
    """The discriminant 8q - 4u^2 + 1 falls along family-1 rarefactions, to 1 at q = u^2/2."""
    worst = max(float(np.diff(8.0 * qs - 4.0 * us * us + 1.0).max())
                for us, qs in _rw1_curves(run.rng))
    return [(worst < 0.0, worst, 0.0)]


def _shock_rh_consistency(run: _SuiteRun):
    """Both shock loci satisfy both jump conditions to rounding."""
    worst = 0.0
    for _ in range(_SHOCK_BASES):
        base = random_trans_state(run.rng)
        u = base.u - float(run.rng.uniform(0.05, 1.5))
        for q in (shock_q_1(base, u), shock_q_2(base, u)):
            c = (q - base.q) / (u - base.u)
            res = abs(c * (q - base.q)
                      - (trans_flux_g(u, q) - trans_flux_g(base.u, base.q)))
            worst = max(worst, res / (1.0 + abs(base.q)))
    return [(worst <= 1e-10, worst, 1e-10)]


def _middle_states(run: _SuiteRun):
    """Randomized middle states: domain, Lax admissibility, region round trip."""
    min_slack = math.inf
    lax_ok = round_ok = True
    for region in _REGION_WAVES:
        for _ in range(_PAIRS_PER_REGION):
            left, right, mid = random_trans_pair(run.rng, region)
            fan = build_fan(left, right)
            min_slack = min(min_slack, fan.middle.q - 0.5 * fan.middle.u ** 2)
            lax_ok &= all(lax_check(w) for w in fan.waves if w.kind == "shock")
            round_ok &= (fan.region.value == region
                         and abs(fan.middle.u - mid.u) <= 1e-6 * (1.0 + abs(mid.u)))
    return [(min_slack >= -1e-9, min_slack, -1e-9), _flag(lax_ok), _flag(round_ok)]


def _delta_construction(run: _SuiteRun):
    """Carried rates are the RH deficit, carriers keep the first equation, flips order."""
    worst_def = worst_u = 0.0
    order_ok = True
    for region in ("II", "III", "IV"):
        for sign_case in ("same", "flip"):
            sol = solve_brio(random_brio_data(run.rng, region, sign_case))
            deficit, carrier_u = _recomputed_deficits(sol)
            worst_def, worst_u = max(worst_def, deficit), max(worst_u, carrier_u)
            order_ok &= sign_case == "same" or _flip_ordered(sol)
    return [(worst_def <= 1e-12, worst_def, 1e-12),
            (worst_u <= 1e-10, worst_u, 1e-10), _flag(order_ok)]


def _weak_residual_admissible(run: _SuiteRun):
    """Weak residuals of admissible constructions over the 25-bump battery."""
    worst = 0.0
    for region in _REGION_WAVES:
        for sign_case in ("same", "flip"):
            data = random_brio_data(run.rng, region, sign_case)
            sol = solve_brio(data)
            res = run.weak(sol, solution_battery(sol))
            worst = max(worst, _worst(res) / _suite_weak_scale(data))
    return [(worst <= run.tol_weak, worst, run.tol_weak)]


def _minimality(run: _SuiteRun):
    """Spliced flip pairs stay weak solutions but carry more deltas."""
    data = random_brio_data(run.rng, "II", "same")
    sol = solve_brio(data)
    base_card = cardinality(sol)
    scale = _suite_weak_scale(data)
    ok, worst = True, 0.0
    for alt in flip_pair_alternatives(sol, 3, run.rng):
        worst = max(worst, _worst(run.weak(alt, solution_battery(alt))) / scale)
        ok &= cardinality(alt) > base_card
    return [(ok and worst <= run.tol_weak, worst, run.tol_weak)]


def _nonuniqueness_fixture(run: _SuiteRun):
    """Two weak solutions over zero data; cardinality picks the zero one."""
    fix = nonuniqueness_example(1.0, -1.0, 1.0)
    zero = nonuniqueness_example(0.0, -1.0, 1.0)
    battery = test_function_battery([-1.0, 1.0], 1.0)
    worst = _worst(run.weak(fix, battery))
    worst0 = _worst(run.weak(zero, battery))
    ok = worst <= 1e-8 and worst0 <= 1e-12 and \
        cardinality(fix) == 2 and cardinality(zero) == 0
    return [(ok, worst, 1e-8)]


def _canary_sw1_sign(run: _SuiteRun):
    """Canary: a fast-family locus state passed off as a slow shock fails Lax."""
    left = TransState(1.0, 5.0)
    wrong = TransState(0.7, shock_q_2(left, 0.7))
    c = (wrong.q - left.q) / (wrong.u - left.u)
    return [_flag(not lax_check(Wave("shock", 1, left, wrong, c, c)))]


def _canary_flip_speed(run: _SuiteRun):
    """Canary: a flip speed off both admissible values gives a residual > 1e-4."""
    _, sol = _canary_flip_solution()
    worst = _worst(run.weak(sol, solution_battery(sol)))
    return [(worst > 1e-4, worst, 1e-4)]


def _fv_cross_validation(run: _SuiteRun):
    """FV cross-validation on the shock-dominated region-IV fan."""
    left, right = _region_iv_fixture()
    err = compare_fan_fv(build_fan(left, right), FvGrid(-5.0, 5.0, 4096, 0.45, 0.5))
    bound = 0.05 * (abs(right.u - left.u) + abs(right.q - left.q))
    return [(err <= bound, err, bound)]


def _quadrature_convergence(run: _SuiteRun):
    """Doubling the nodes gains >= 4x until the floor on the region-IV fan.

    Its regular part is piecewise constant, so only quadrature error remains.
    """
    left, right = _region_iv_fixture()
    data = RiemannData(project(left, 1.0), project(right, 1.0))
    sol = solve_brio(data)
    phi = TestFunction((0.0, 0.5), (2.5, 0.45))
    floor = 1e-12 * _suite_weak_scale(data)
    levels = [_worst(run.weak(sol, [phi], nodes=n)) for n in (4, 8, 16)]
    ratio_ok = True
    worst_ratio = math.inf
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
# report order.  A tolerance of None stands for the run's tol_weak.
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
    (_weak_residual_admissible, (("weak_residual_admissible", math.inf, None),)),
    (_minimality, (("minimality", math.inf, None),)),
    (_nonuniqueness_fixture, (("nonuniqueness_fixture", math.inf, 1e-8),)),
    (_canary_sw1_sign, (("canary_sw1_sign", 1.0, 0.0),)),
    (_canary_flip_speed, (("canary_flip_speed", 0.0, 1e-4),)),
    (_fv_cross_validation, (("fv_cross_validation", math.inf, 0.0),)),
    (_quadrature_convergence, (("quadrature_convergence", 0.0, 4.0),)),
)


def property_suite(seed: int = 0, *, tol_weak: float = TOL_WEAK,
                   arclength: bool = False) -> dict:
    """Run every module-level invariant and report pass/fail per check.

    Deterministic for a fixed seed.  Failures never raise; they land in the
    report (the CLI turns an any-failed report into exit code 2).  A check
    that raises BrioError reports its table rows, failed.  The arclength
    variant reweights the line terms by sqrt(1 + c^2); carried rates are
    calibrated to the unweighted form, so expect the weak checks to fail
    under it (that asymmetry is the point of exposing the flag).
    """
    run = _SuiteRun(np.random.default_rng(seed), tol_weak, arclength)
    checks: list[dict] = []
    for check, fallback in _SUITE:
        try:
            rows = check(run)
        except BrioError:
            rows = [(False, measured, tol_weak if tol is None else tol)
                    for _, measured, tol in fallback]
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
