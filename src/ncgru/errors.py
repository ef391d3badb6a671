"""Exception types shared across the package."""


class NcgruError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(NcgruError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(NcgruError, ArithmeticError):
    """A matrix required to be invertible is singular to working precision."""


class ConvergenceError(NcgruError, RuntimeError):
    """Raised by nothing; only trainbench/probes.py names it (ROADMAP Direction 2 deletes it)."""


class NumericError(NcgruError, ArithmeticError):
    """A NaN or Inf showed up where only finite values are allowed."""


class ContractError(NcgruError, ValueError):
    """An argument violates a documented precondition (variant mismatch, empty sequence, unknown mode)."""


class ConfigError(NcgruError, ValueError):
    """An experiment config failed validation."""
