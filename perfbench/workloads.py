"""The benchmark workloads: their inputs, their ops and the checks on each op.

Inputs come only from NumPy generators seeded by the benchmark's `--seed`
(never from `briodelta.verify`'s generators), so a change to the program
cannot change the workload.  The briodelta package is imported from the
`src/` tree of the checkout this file sits in.

Every op is called through module attributes (`riemann.build_fan`,
`delta.solve_brio`, ...), so the tracer in `tracing.py` sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "briodelta" / "__init__.py").is_file():
    raise ImportError(f"no briodelta source tree at {SRC}")
sys.path.insert(0, str(SRC))

import briodelta.cli as cli  # noqa: E402
from briodelta import core, delta, errors, riemann, verify, wave_curves  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"briodelta was imported from {cli.__file__}, not {SRC}")

from jsonschema import ValidationError, validate  # noqa: E402

BrioError = errors.BrioError

# Weak-form tolerance on the scaled residual; the value of
# briodelta.verify.TOL_WEAK when the benchmark was written, pinned here so
# that a program change cannot loosen the check.
TOL_WEAK = 1e-7
# A scaled residual above TOL_WEAK, at the finest of REFINE_NODES, fails the
# op.  Up to GROSS_WEAK it is a failure of the kind known today (fans whose
# middle state sits on the critical curve reach 1e-5 and more); above it the
# solution is wrong (a misplaced flip jump gives more than 1e-4, acceptance
# criterion 8), which makes the whole run incorrect.
GROSS_WEAK = 1e-4
# Gauss-Legendre node counts tried, in order, when the weak residual at the
# default 32 nodes is over TOL_WEAK.
REFINE_NODES = (64, 128)
# |forward - backward composite curve| at the middle velocity.
TOL_CURVES = 1e-9
DELTAS_BY_REGION = {"I": 0, "II": 1, "III": 1, "IV": 2}

OK, KNOWN, UNKNOWN = "ok", "known", "unknown"


def raw_states(rng, n: int, v_min: float = 0.0) -> np.ndarray:
    """n raw (uL, vL, uR, vR) rows, u in [-2, 3], v_min <= |v| <= 3, shuffled.

    Stratified so that every run sees nearly the same mix of fans: the
    (uL, uR) square is cut into a k x k grid with one point per cell
    (n = k^2), and each v takes one point from each of n equal slices of
    [-3, 3] (of [-3, -v_min] and [v_min, 3] when v_min > 0).
    """
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError(f"chunk size {n} is not a square")
    cells = np.arange(n)
    ul = -2.0 + 5.0 * (cells // k + rng.uniform(size=n)) / k
    ur = -2.0 + 5.0 * (cells % k + rng.uniform(size=n)) / k
    w = [-1.0 + 2.0 * (rng.permutation(n) + rng.uniform(size=n)) / n
         for _ in range(2)]
    vl, vr = (np.sign(x) * (v_min + (3.0 - v_min) * np.abs(x)) for x in w)
    return rng.permutation(np.column_stack([ul, vl, ur, vr]))


def riemann_data(row) -> core.RiemannData:
    ul, vl, ur, vr = (float(x) for x in row)
    return core.RiemannData(core.BrioState(ul, vl), core.BrioState(ur, vr))


class Workload:
    """An endless, seeded stream of op inputs plus the op and its check.

    `run` is the timed op; it returns the op's output or raises BrioError.
    `check` returns (verdict, reason).  OK: the output passed.  KNOWN: the
    op failed in a way the program reports or is known to have today (a
    typed BrioError, or a weak residual over tolerance but not gross); it
    counts as failed.  UNKNOWN: a wrong or malformed output, or an untyped
    error; it counts as failed and makes the whole run incorrect.  Failed
    ops are never re-drawn or skipped.

    The timed stream leaves out the input classes on which the program is
    known to fail today.  `census` returns a fixed, seeded set of inputs
    from those classes; each untraced run checks them untimed and prints
    what failed, so the defects stay visible without entering the timed
    ops or the result's counts.
    """

    name = ""
    chunk = 256
    # Ops in the traced count probe (a fixed prefix of the stream).
    probe_ops: int

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.index = 0
        self._buf: list = []

    def draw(self, n: int) -> list:
        raise NotImplementedError

    def next_input(self):
        if not self._buf:
            self._buf = self.draw(self.chunk)[::-1]
        self.index += 1
        return self._buf.pop()

    def warm(self) -> None:
        """Untimed set-up that users of this path would pay once."""

    def census(self) -> list:
        return []

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, err) -> tuple[str, str]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class SolveFresh(Workload):
    """One `briodelta solve` per op, in-process through `cli.main`."""

    name = "solve_fresh"
    probe_ops = 256
    # Census: raw data with v = 0 exactly on one (random) side, where the
    # program raises DomainError on about 1 in 10 today.
    CENSUS = 36

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed)
        self.out_dir = str(out_dir)
        self.path = os.path.join(self.out_dir, "solution.json")
        with (SRC / "briodelta" / "schemas" / "solution.schema.json").open(
                encoding="utf-8") as f:
            self.schema = json.load(f)

    def draw(self, n):
        return [(tuple(float(x) for x in row), None)
                for row in raw_states(self.rng, n)]

    def census(self):
        rng = np.random.default_rng([self.seed, sum(map(ord, self.name)), 1])
        out = []
        for row, side in zip(raw_states(rng, self.CENSUS),
                             rng.integers(0, 2, size=self.CENSUS)):
            row[1 + 2 * int(side)] = 0.0
            out.append((tuple(float(x) for x in row), int(side)))
        return out

    def run(self, inp):
        (ul, vl, ur, vr), _ = inp
        argv = ["solve", f"--left={ul!r},{vl!r}", f"--right={ur!r},{vr!r}",
                "--out", self.out_dir]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    def check(self, inp, out, err):
        (ul, vl, ur, vr), zero_side = inp
        rc, stdout, stderr = out
        if rc != 0:
            try:
                name = json.loads(stderr.strip().splitlines()[-1])["error"]
            except (ValueError, KeyError, IndexError):
                return UNKNOWN, f"exit {rc} without a JSON error: {stderr!r}"
            typed = isinstance(getattr(errors, name, None), type) and \
                issubclass(getattr(errors, name), BrioError)
            side = "" if zero_side is None else " (v = 0 on one side)"
            verdict = KNOWN if typed else UNKNOWN
            return verdict, f"{name}{side}: {stderr.strip()}"
        if stdout != self.path + "\n":
            return UNKNOWN, f"unexpected stdout {stdout!r}"
        with open(self.path, encoding="utf-8") as f:
            doc = json.load(f)
        try:
            validate(doc, self.schema)
        except ValidationError as e:
            return UNKNOWN, f"solution.json fails its schema: {e.message}"
        init = doc["initial"]
        if (init["left"], init["right"]) != ({"u": ul, "v": vl},
                                             {"u": ur, "v": vr}):
            return UNKNOWN, "initial data not echoed"
        return structure_verdict(doc)

    def describe(self):
        return "fresh raw data"


def structure_verdict(doc: dict) -> tuple[str, str]:
    """Region from the wave pattern of a solution.json; its delta count must match.

    The waves are the rarefaction segments and the carriers, ordered by
    speed.  Each shock must carry exactly one delta with nonzero rate, so
    regions I/II/III/IV carry 0/1/1/2 deltas.
    """
    waves = [((s["xi_lo"] + s["xi_hi"]) / 2, "R")
             for s in doc["regular"] if s["kind"] == "rarefaction"]
    waves += [(c["speed"], "S") for c in doc["singular"]]
    pattern = "".join(kind for _, kind in sorted(waves))
    region = {"RR": "I", "SR": "II", "RS": "III", "SS": "IV"}.get(pattern)
    if region is None:
        return UNKNOWN, f"wave pattern {pattern!r} is not a two-wave fan"
    deltas = sum(1 for c in doc["singular"]
                 if c["component"] == "v" and c["rate"] != 0.0)
    if deltas != DELTAS_BY_REGION[region]:
        return UNKNOWN, f"region {region} carries {deltas} deltas"
    bounds = [b for s in doc["regular"] for b in (s["xi_lo"], s["xi_hi"])]
    inner = bounds[1:-1]
    if bounds[0] is not None or bounds[-1] is not None or None in inner or \
            any(a > b for a, b in zip(inner, inner[1:])):
        return UNKNOWN, "regular segments are not ordered along the rays"
    return OK, ""


class InterfacePool(Workload):
    """`build_fan` + `sample_fan(fan, 0)` on interfaces of a piecewise-constant field.

    The field's cells take values from a pool of POOL_U x POOL_S (u, q)
    states, with neighbours always different, the way a Godunov step would
    draw them.  The pool is a jittered grid, so every seed has nearly the
    same mix of fans.
    """

    name = "interface_pool"
    chunk = 512
    probe_ops = 256
    POOL_U, POOL_S = 6, 4
    POOL = POOL_U * POOL_S

    def __init__(self, seed: int):
        super().__init__(seed)
        # u in [-2, 3] and q - u^2/2 in [0.1, 3], one state per grid cell.
        cells = np.arange(self.POOL)
        u = -2.0 + 5.0 * (cells // self.POOL_S
                          + self.rng.uniform(size=self.POOL)) / self.POOL_U
        slack = 0.1 + 2.9 * (cells % self.POOL_S
                             + self.rng.uniform(size=self.POOL)) / self.POOL_S
        self.pool = [core.TransState(float(a), float(0.5 * a * a + s))
                     for a, s in zip(u, slack)]
        self.cell = int(self.rng.integers(self.POOL))

    def draw(self, n):
        steps = self.rng.integers(1, self.POOL, size=n)
        out = []
        for s in steps:
            nxt = (self.cell + int(s)) % self.POOL
            out.append((self.pool[self.cell], self.pool[nxt]))
            self.cell = nxt
        return out

    def warm(self):
        """Fill the curve caches: every ordered pool pair once."""
        for left in self.pool:
            for right in self.pool:
                if left is not right:
                    try:
                        self.run((left, right))
                    except BrioError:
                        pass  # the same pair fails again when timed

    def run(self, inp):
        fan = riemann.build_fan(*inp)
        return fan, riemann.sample_fan(fan, 0.0)

    def check(self, inp, out, err):
        if err is not None:
            return KNOWN, f"{type(err).__name__}: {err}"
        fan, state = out
        left, right = inp
        if (fan.left, fan.right) != (left, right):
            return UNKNOWN, "fan end states differ from the data"
        um = fan.middle.u
        gap = abs(wave_curves.forward_curve_1(left).q(um)
                  - wave_curves.backward_curve_2(right).q(um))
        if not gap <= TOL_CURVES:
            return UNKNOWN, f"curves differ by {gap:.3e} at u_M"
        for w in fan.waves:
            if w.kind == "shock" and not riemann.lax_check(w):
                return UNKNOWN, f"family-{w.family} shock fails lax_check"
        if not (math.isfinite(state.u) and math.isfinite(state.q)):
            return UNKNOWN, "sample_fan returned a non-finite state"
        return OK, ""

    def describe(self):
        return (f"pool of {self.POOL_U} x {self.POOL_S} states, "
                f"{self.POOL * (self.POOL - 1)} ordered pairs, caches warm")


class VerifyGrid(Workload):
    """`solve_brio`, then `sample_brio_many` on 1001 rays, then `weak_residual`."""

    name = "verify_grid"
    # A run holds only about 500 ops, so small chunks keep the mix even.
    chunk = 64
    probe_ops = 64
    RAYS = 1001
    # The timed stream keeps |v| >= V_MIN on both sides.  Closer to the
    # critical curve (v = 0), region-I fans whose middle state lands on it
    # keep weak residuals up to 1e-4 at any node count today.  The census
    # draws CENSUS such data: uL < uR and |vR| < V_CENSUS, where about 1 in
    # 4 fails.
    V_MIN = 0.25
    CENSUS = 9
    V_CENSUS = 0.02

    def draw(self, n):
        return [riemann_data(row)
                for row in raw_states(self.rng, n, self.V_MIN)]

    def census(self):
        rng = np.random.default_rng([self.seed, sum(map(ord, self.name)), 1])
        rows = raw_states(rng, self.CENSUS, self.V_MIN)
        rows[:, ::2] = np.sort(rows[:, ::2], axis=1)
        rows[:, 3] = rng.uniform(-self.V_CENSUS, self.V_CENSUS,
                                 size=self.CENSUS)
        return [riemann_data(row) for row in rows]

    def run(self, data):
        sol = delta.solve_brio(data)
        speeds = [s.speed for s in sol.singular]
        speeds += [b for seg in sol.segments for b in (seg.xi_lo, seg.xi_hi)
                   if math.isfinite(b)]
        xi = np.linspace(min(speeds + [0.0]) - 1.0, max(speeds + [0.0]) + 1.0,
                         self.RAYS)
        u, v = delta.sample_brio_many(sol, xi)
        res = verify.weak_residual(sol, verify.solution_battery(sol))
        return sol, u, v, res

    def describe(self):
        return f"fresh raw data, {self.RAYS} rays, 25-bump weak residual"

    def check(self, data, out, err):
        if err is not None:
            return KNOWN, f"{type(err).__name__}: {err}"
        sol, u, v, res = out
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            return UNKNOWN, "non-finite ray samples"
        scale = 1.0 + max(abs(data.left.u), abs(data.left.v),
                          abs(data.right.u), abs(data.right.v))
        worst = max(max(ru, rv) for ru, rv in res) / scale
        # Over tolerance at the default 32 nodes: the excess may be the
        # quadrature's own error on a wide fan, so recompute with finer
        # rules and judge the finest.
        for nodes in REFINE_NODES:
            if worst <= TOL_WEAK:
                break
            res = verify.weak_residual(sol, verify.solution_battery(sol),
                                       nodes=nodes)
            worst = max(max(ru, rv) for ru, rv in res) / scale
        if worst <= TOL_WEAK:
            return OK, ""
        verdict = KNOWN if worst <= GROSS_WEAK else UNKNOWN
        return verdict, f"scaled weak residual {worst:.3e} > {TOL_WEAK:g}"


NAMES = ("solve_fresh", "interface_pool", "verify_grid")


def make(name: str, seed: int, work_dir: Path) -> Workload:
    if name == "solve_fresh":
        return SolveFresh(seed, work_dir)
    return {"interface_pool": InterfacePool, "verify_grid": VerifyGrid}[name](seed)
