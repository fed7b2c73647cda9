"""Exception hierarchy for the solver.

Everything raised on purpose derives from BrioError so callers (and the CLI)
can separate solver failures from programming errors.
"""


class BrioError(Exception):
    """Base class for all solver errors."""


class DomainError(BrioError):
    """State or curve point leaves the physical domain q >= u^2/2."""


class PreconditionError(BrioError):
    """Arguments violate an operation's precondition (wrong branch, bad range)."""


class DegenerateJump(BrioError):
    """A jump-based formula was applied across a vanishing jump."""


class BracketFailure(BrioError):
    """The middle-state root has no sign change within reach, or its polish stalled."""


class QuadratureFailure(BrioError):
    """Weak-form quadrature could not be assembled (support times inverted on a ray)."""


class CflViolation(BrioError):
    """Finite-volume time step lost its CFL guarantee."""


class BlowUp(BrioError):
    """Finite-volume iterate left the safety box (non-finite or huge values)."""


class OrderingViolation(BrioError):
    """A caller-chosen v-flip speed lies outside the gap between the two family waves."""
