"""Exact delta-shock Riemann solver for a 2x2 model MHD system.

The original system transports a velocity u and a transverse field v:

    u_t + ((u^2 + v^2)/2)_x = 0,
    v_t + (v(u - 1))_x = 0.

Substituting the energy q = (u^2 + v^2)/2 for v yields a strictly
hyperbolic, genuinely nonlinear system on the half-plane q >= u^2/2 whose
Riemann problem has a classical wave-fan solution.  Mapping that fan back
through v = +-sqrt(2q - u^2) produces solutions of the original system
whose shocks each carry a weighted Dirac measure in v; this package
constructs them, verifies them against the weak formulation, and
cross-checks the transformed fans with a finite-volume reference.
"""

from .core import (
    BrioState,
    FluxPair,
    RiemannData,
    TransState,
    brio_flux,
    brio_flux_pair,
    brio_lambdas,
    eigen_brio,
    eigen_trans,
    energy,
    genuine_nonlinearity,
    lift,
    project,
    trans_flux,
    triangular_flux_pair,
)
from .delta import (
    ConstantSegment,
    DeltaSingularity,
    DeltaSolution,
    RarefactionSegment,
    cardinality,
    generic_delta_shock,
    nonuniqueness_example,
    rh_deficit_u,
    rh_deficit_v,
    sample_brio,
    sample_brio_many,
    solution_to_dict,
    solve_brio,
)
from .errors import (
    BlowUp,
    BracketFailure,
    BrioError,
    CflViolation,
    DegenerateJump,
    DomainError,
    OrderingViolation,
    PreconditionError,
    QuadratureFailure,
)
from .riemann import (
    Region,
    Wave,
    WaveFan,
    build_fan,
    classify,
    fan_to_dict,
    lax_check,
    sample_fan,
    sample_fan_many,
    solve_middle,
)
from .verify import (
    FvGrid,
    TestFunction,
    compare_fan_fv,
    fv_solve_trans,
    property_suite,
    solution_battery,
    test_function_battery,
    weak_residual,
)
from .wave_curves import (
    IntegralCurve,
    backward_2_curve,
    forward_1_curve,
    integrate_rarefaction,
    inverse_shock_q_2,
    shock_q_1,
    shock_q_2,
    tabulate_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUp",
    "BracketFailure",
    "BrioError",
    "BrioState",
    "CflViolation",
    "ConstantSegment",
    "DegenerateJump",
    "DeltaSingularity",
    "DeltaSolution",
    "DomainError",
    "FluxPair",
    "FvGrid",
    "IntegralCurve",
    "OrderingViolation",
    "PreconditionError",
    "QuadratureFailure",
    "RarefactionSegment",
    "Region",
    "RiemannData",
    "TestFunction",
    "TransState",
    "Wave",
    "WaveFan",
    "backward_2_curve",
    "brio_flux",
    "brio_flux_pair",
    "brio_lambdas",
    "build_fan",
    "cardinality",
    "classify",
    "compare_fan_fv",
    "eigen_brio",
    "eigen_trans",
    "energy",
    "fan_to_dict",
    "forward_1_curve",
    "fv_solve_trans",
    "generic_delta_shock",
    "genuine_nonlinearity",
    "integrate_rarefaction",
    "inverse_shock_q_2",
    "lax_check",
    "lift",
    "nonuniqueness_example",
    "project",
    "property_suite",
    "rh_deficit_u",
    "rh_deficit_v",
    "sample_brio",
    "sample_brio_many",
    "sample_fan",
    "sample_fan_many",
    "shock_q_1",
    "shock_q_2",
    "solution_battery",
    "solution_to_dict",
    "solve_brio",
    "solve_middle",
    "tabulate_curve",
    "test_function_battery",
    "trans_flux",
    "triangular_flux_pair",
    "weak_residual",
]
