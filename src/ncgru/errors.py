"""Exception types shared across the package."""


class NcgruError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(NcgruError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(NcgruError, ArithmeticError):
    """A matrix required to be invertible is singular to working precision."""


class ConvergenceError(NcgruError, RuntimeError):
    """An iterative routine hit its iteration cap before meeting tolerance.

    Nothing in ncgru raises it (spectral norms are exact). It stays because
    trainbench/probes.py's _count_fallbacks counts it; the benchmark revision
    of ROADMAP Direction 2 deletes both. Carries the last estimate.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class NumericError(NcgruError, ArithmeticError):
    """A NaN or Inf showed up where only finite values are allowed."""


class ContractError(NcgruError, ValueError):
    """An argument violates a documented precondition (variant mismatch, empty sequence, unknown mode)."""


class ConfigError(NcgruError, ValueError):
    """An experiment config failed validation."""
