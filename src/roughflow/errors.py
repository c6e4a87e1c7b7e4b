"""Exception hierarchy shared by all roughflow modules.

Every failure a caller can act on maps to one of these classes; the CLI
translates them into its exit-code contract (config problems exit 2,
numeric/runtime failures exit 3).
"""


class RoughflowError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RoughflowError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class FactorizationError(RoughflowError):
    """A covariance matrix could not be factorized even after jitter."""


class ValidationError(RoughflowError):
    """A structural precondition (e.g. closedness of an increment) failed."""


class ConvergenceError(RoughflowError):
    """A refinement sequence did not stabilize within the allowed depth."""


class BlowUpError(RoughflowError):
    """A numerical flow produced a non-finite state.

    Carries the time (or flow parameter) at which the state degenerated.
    """

    def __init__(self, message: str, when: float):
        super().__init__(f"{message} (at {when:g})")
        self.when = when


class PreconditionError(RoughflowError):
    """A documented hypothesis of an operation was not verified.

    ``name`` identifies the failed hypothesis so callers can report it.
    """

    def __init__(self, message: str, name: str = ""):
        super().__init__(message)
        self.name = name or message
