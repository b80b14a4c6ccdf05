"""Exception types shared across the package."""


class RobustCusumError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(RobustCusumError, ValueError):
    """Operand dimensions do not match."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class NotPositiveDefiniteError(RobustCusumError, ValueError):
    """A matrix required to be positive definite is not."""


class DomainError(RobustCusumError, ValueError):
    """Arguments lie outside the mathematical domain of an operation."""


class ConvergenceError(RobustCusumError, RuntimeError):
    """A solver hit its iteration cap before reaching tolerance.

    Carries the last iterate and the residual / gap actually achieved so
    callers can inspect or restart.
    """

    def __init__(self, message, *, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class CalibrationError(RobustCusumError, RuntimeError):
    """Monte Carlo threshold calibration failed to bracket the target ARL."""

    def __init__(self, message, *, arl_low=None, arl_high=None):
        super().__init__(message)
        self.arl_low = arl_low
        self.arl_high = arl_high


class StreamExhaustedError(RobustCusumError, RuntimeError):
    """A finite observation source ran out before the requested horizon."""


class FlagError(RobustCusumError, ValueError):
    """A command-line flag's value cannot be used (an unreadable --config, an
    unwritable --out, an unknown --scenario or one the subcommand does not
    solve)."""


class ConfigError(RobustCusumError, ValueError):
    """Configuration document is invalid; lists every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"invalid configuration ({len(self.violations)} problem(s)):\n{lines}")
