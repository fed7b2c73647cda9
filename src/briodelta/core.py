"""States, fluxes and eigenstructure of the Brio model system.

The model is the 2x2 system

    u_t + ((u^2 + v^2)/2)_x = 0
    v_t + (v (u - 1))_x     = 0

which loses strict hyperbolicity on v = 0.  Replacing v by the energy
q = (u^2 + v^2)/2 gives the transformed system

    u_t + q_x = 0
    q_t + G(u, q)_x = 0,      G(u, q) = (2u - 1) q + u^2/2 - 2 u^3/3,

strictly hyperbolic and genuinely nonlinear on the half space q > u^2/2.
Every closed form needs the distance to the edge of that half space, the
slack sigma = q - u^2/2 = v^2/2.  TransState.slack is its one definition,
clamped at zero; TransState's own domain check keeps the signed difference.
This module holds the two state types, the flux functions, the eigenvalue
and eigenvector formulas of both systems, and the elementary jump speeds.
Everything here is closed-form; the wave curves live in wave_curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateJump, DomainError, PreconditionError

# Domain tolerance, relative to 1 + |u|^2: a state is accepted when
# q >= u^2/2 - TOL_DOMAIN * (1 + u^2).
TOL_DOMAIN = 1e-12
# Absolute threshold below which a jump counts as degenerate.
TOL_ZERO = 1e-14


def _require_finite(name: str, *values: float) -> None:
    for x in values:
        if not math.isfinite(x):
            raise DomainError(f"{name} has non-finite component {x!r}")


@dataclass(frozen=True)
class BrioState:
    """State (u, v) of the original system."""

    u: float
    v: float

    def __post_init__(self) -> None:
        _require_finite("BrioState", self.u, self.v)


@dataclass(frozen=True)
class TransState:
    """State (u, q) of the transformed system; requires q >= u^2/2 up to tolerance."""

    u: float
    q: float

    def __post_init__(self) -> None:
        _require_finite("TransState", self.u, self.q)
        slack = self.q - 0.5 * self.u * self.u
        if slack < -TOL_DOMAIN * (1.0 + self.u * self.u):
            raise DomainError(
                f"state (u={self.u!r}, q={self.q!r}) lies below the critical "
                f"curve q = u^2/2 by {-slack:.3e}"
            )

    @property
    def slack(self) -> float:
        """sigma = q - u^2/2 >= 0; rounding-size negative differences read as zero."""
        return max(self.q - 0.5 * self.u * self.u, 0.0)


@dataclass(frozen=True)
class RiemannData:
    """Riemann initial data for the original system."""

    left: BrioState
    right: BrioState


@dataclass(frozen=True)
class FluxPair:
    """Flux functions (f, g) of a generic 2x2 system u_t + f_x = 0, v_t + g_x = 0."""

    f: Callable[[float, float], float]
    g: Callable[[float, float], float]


class TransEigen(NamedTuple):
    """Eigenvalues and right eigenvectors of the transformed Jacobian."""

    lam_minus: float
    lam_plus: float
    r_minus: tuple[float, float]
    r_plus: tuple[float, float]


def energy(state: BrioState) -> float:
    """Energy q = (u^2 + v^2)/2 of an original-variable state."""
    return 0.5 * (state.u * state.u + state.v * state.v)


def lift(state: BrioState) -> TransState:
    """Map (u, v) to the transformed plane (u, q); q must be finite, else PreconditionError."""
    q = energy(state)
    if q == math.inf:
        raise PreconditionError(f"energy of (u={state.u!r}, v={state.v!r}) overflows: "
                                f"q = (u^2 + v^2)/2 must be finite")
    return TransState(state.u, q)


def project(state: TransState, sign: float) -> BrioState:
    """Map (u, q) back to (u, sign*sqrt(2 slack)); sign must be +-1.

    States numerically on the critical curve have zero slack and project
    to v = 0 exactly.
    """
    if sign not in (-1, 1, -1.0, 1.0):
        raise ValueError(f"sign must be +-1, got {sign!r}")
    return BrioState(state.u, sign * math.sqrt(2.0 * state.slack))


def brio_flux(state: BrioState) -> tuple[float, float]:
    """Flux (f, g) = ((u^2+v^2)/2, v(u-1)) of the original system."""
    return energy(state), state.v * (state.u - 1.0)


# One object per system, so that solutions built on the same fluxes compare equal.
_BRIO_FLUX_PAIR = FluxPair(f=lambda u, v: 0.5 * (u * u + v * v), g=lambda u, v: v * (u - 1.0))
_TRIANGULAR_FLUX_PAIR = FluxPair(f=lambda u, v: 0.5 * u * u, g=lambda u, v: v * (u - 1.0))


def brio_flux_pair() -> FluxPair:
    """Original-system fluxes as a FluxPair for the generic delta-shock builder."""
    return _BRIO_FLUX_PAIR


def triangular_flux_pair() -> FluxPair:
    """Decoupled test system (u^2/2, v(u-1)): Burgers driving a passive v."""
    return _TRIANGULAR_FLUX_PAIR


def trans_flux_g(u, q):
    """Second flux component G(u, q) of the transformed system (array friendly)."""
    return (2.0 * u - 1.0) * q + 0.5 * u * u - (2.0 / 3.0) * u ** 3


def trans_flux(state: TransState) -> tuple[float, float]:
    """Transformed flux (q, G(u, q))."""
    return state.q, float(trans_flux_g(state.u, state.q))


def discriminant(u, q):
    """Characteristic discriminant 8q - 4u^2 + 1 (equals 1 on the critical curve)."""
    return 8.0 * q - 4.0 * u * u + 1.0


def trans_lambdas(u, q):
    """Both transformed characteristic speeds, array friendly.

    lambda_{-,+} = ((2u - 1) -+ sqrt(8q - 4u^2 + 1)) / 2; tiny negative
    discriminants (states on the critical curve up to rounding) are clamped.
    """
    disc = discriminant(u, q)
    root = np.sqrt(np.maximum(disc, 0.0))
    return 0.5 * (2.0 * u - 1.0 - root), 0.5 * (2.0 * u - 1.0 + root)


def family_lambda(family: int, u, q):
    """Characteristic speed of one family (1 = slow, 2 = fast), array friendly."""
    lam1, lam2 = trans_lambdas(u, q)
    if family == 1:
        return lam1
    if family == 2:
        return lam2
    raise ValueError(f"family must be 1 or 2, got {family!r}")


def eigen_trans(state: TransState) -> TransEigen:
    """Eigenpairs of the transformed Jacobian DF = [[0, 1], [2q + u - 2u^2, 2u - 1]].

    The right eigenvectors are r_-+ = (1, lambda_-+): the second component of
    each eigenvector equals its eigenvalue, which is what makes rarefaction
    curves integrable as dq/du = lambda(u, q).
    """
    lam1, lam2 = trans_lambdas(state.u, state.q)
    lam1, lam2 = float(lam1), float(lam2)
    return TransEigen(lam1, lam2, (1.0, lam1), (1.0, lam2))


def genuine_nonlinearity(state: TransState) -> tuple[float, float]:
    """Directional derivatives grad(lambda) . r for both families.

    Equal to 2 +- 1/sqrt(disc) with disc = 8 slack + 1 >= 1; on q > u^2/2
    both lie in (1, 3], reaching (3, 1) exactly on the critical curve.
    """
    root = math.sqrt(8.0 * state.slack + 1.0)
    return 2.0 + 1.0 / root, 2.0 - 1.0 / root


def brio_lambdas(u, v):
    """Characteristic speeds u - 1/2 -+ sqrt(v^2 + 1/4) of the original system."""
    root = np.sqrt(v * v + 0.25)
    return u - 0.5 - root, u - 0.5 + root


def eigen_brio(state: BrioState) -> tuple[float, float]:
    """Eigenvalues of the original system; coincide under lift with eigen_trans."""
    lam1, lam2 = brio_lambdas(state.u, state.v)
    return float(lam1), float(lam2)


def brio_shock_speed(left: BrioState, right: BrioState) -> float:
    """Rankine-Hugoniot speed of the first original equation across a u-jump.

    s = (U_L + U_R)/2 + (V_L^2 - V_R^2) / (2 (U_L - U_R)); degenerate when
    the u-jump vanishes.
    """
    du = left.u - right.u
    if abs(du) <= TOL_ZERO:
        raise DegenerateJump(f"u-jump {du:.3e} too small for a shock speed")
    return 0.5 * (left.u + right.u) + (left.v * left.v - right.v * right.v) / (2.0 * du)


def trans_shock_speed(left: TransState, right: TransState) -> float:
    """Rankine-Hugoniot speed [q]/[u] of the transformed first equation.

    A reference: the Riemann solver takes shock speeds from the loci
    (wave_curves.shock_speed), because [q]/[u] cancels on a weak shock.
    """
    du = left.u - right.u
    if abs(du) <= TOL_ZERO:
        raise DegenerateJump(f"u-jump {du:.3e} too small for a shock speed")
    return (left.q - right.q) / du
