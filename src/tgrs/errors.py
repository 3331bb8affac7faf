"""Exception types shared across the package: one base class and the three
failures a caller can meet (bad input, a resource cap, a failed cross-check)."""


class TgrsError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(TgrsError, ValueError):
    """Invalid construction parameters, code specs, or serialized input."""


class ResourceLimitError(TgrsError):
    """An exhaustive computation was requested beyond its configured cap."""


class VerificationError(TgrsError):
    """An internal consistency check failed: two independent routes disagree."""
