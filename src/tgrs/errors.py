"""Exception types shared across the package."""


class TgrsError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(TgrsError, ValueError):
    """Invalid construction parameters, code specs, or serialized input."""


class ResourceLimitError(TgrsError):
    """An exhaustive computation was requested beyond its configured cap."""


class SingularMatrixError(TgrsError, ArithmeticError):
    """A matrix required to be invertible is singular."""


class VerificationError(TgrsError):
    """An internal consistency check failed: two independent routes disagree."""
