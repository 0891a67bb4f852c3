"""Exception types shared across the package."""


class SwarmError(Exception):
    """Base class for all package-specific errors."""


class ZeroVelocityParticle(SwarmError):
    """A particle has exactly zero velocity (unstable equilibrium, unsupported),
    or an operation undefined at v = 0 was asked for there."""


class BadKernelParams(SwarmError):
    """Kernel parameters out of range (nonpositive scales etc.)."""


class FlowBlowup(SwarmError):
    """Backward relaxation flow requested past its finite blow-up time."""


class TooLarge(SwarmError):
    """Problem size exceeds a cap of the exact W1 solvers; the message names
    the bound exceeded."""


class DimensionMismatch(SwarmError):
    """Operands live in different phase-space dimensions."""


class MissingSnapshot(SwarmError):
    """Requested time is not stored in the trajectory."""


class ParseError(SwarmError):
    """Run configuration or snapshot text could not be parsed."""


class ValidationError(SwarmError):
    """Run configuration parsed but violates an invariant."""
