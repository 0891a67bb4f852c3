"""Exception types shared across the package. Each carries the CLI's `exit_code`
and the `label` of its one-line report: every concrete class is a `ConfigError`
(bad input, exit 2) or a `NumericAbort` (a run that cannot go on, exit 3)."""


class SwarmError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3
    label = "error"


class ConfigError(SwarmError):
    """A config, snapshot or parameter the lab cannot run from."""
    exit_code = 2
    label = "config error"


class NumericAbort(SwarmError):
    """A run or solve that cannot go on from valid input."""
    exit_code = 3
    label = "numeric abort"


class ZeroVelocityParticle(NumericAbort):
    """A particle has exactly zero velocity (unstable equilibrium, unsupported),
    or an operation undefined at v = 0 was asked for there."""


class BadKernelParams(ConfigError):
    """Kernel parameters out of range (nonpositive scales etc.)."""


class FlowBlowup(NumericAbort):
    """Backward relaxation flow requested past its finite blow-up time."""


class Diverged(NumericAbort):
    """A step of a run overflowed, made an invalid value, or would turn a
    velocity past the angle the limit step resolves; the message names it."""


class TooLarge(NumericAbort):
    """Problem size exceeds a cap of the exact W1 solvers; the message names
    the bound exceeded."""


class DimensionMismatch(ConfigError):
    """Operands live in different phase-space dimensions."""


class ParseError(ConfigError):
    """Run configuration or snapshot text could not be parsed."""


class ValidationError(ConfigError):
    """Run configuration parsed but violates an invariant."""
