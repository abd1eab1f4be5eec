"""Exception hierarchy shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all magnomech failures."""


class ConfigError(SimulatorError, ValueError):
    """Malformed, missing, or physically inconsistent parameters."""


class ConvergenceError(SimulatorError, RuntimeError):
    """A steady state failed its equations-residual bound."""


class ResponseError(SimulatorError, ArithmeticError):
    """Singular or non-finite value in the closed-form probe response."""


class OracleError(SimulatorError, RuntimeError):
    """Direct linear solve failed or did not meet its residual bound."""
