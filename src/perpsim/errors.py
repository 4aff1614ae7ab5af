"""Exception types shared across the package."""


class PerpsimError(Exception):
    """Base class for all perpsim errors."""


class InvalidInputError(PerpsimError, ValueError):
    """Malformed argument: non-finite real, empty sample set, bad shape."""


class ExponentOverflowError(PerpsimError, OverflowError):
    """Scaled exponent left the supported range (|exponent| > 2**62).

    ``index`` is the position of the offending value in its array, where
    the raiser knows it.
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.index = index


class NativeRangeError(PerpsimError, OverflowError):
    """Requested native float for a value outside double range."""


class DomainError(PerpsimError, ValueError):
    """Operation applied outside its mathematical domain."""


class InvalidModelError(PerpsimError, ValueError):
    """Distribution family parameters violate a model invariant."""


class UnsupportedError(PerpsimError):
    """Requested combination has no implemented theory (or none exists)."""


class UnavailableError(PerpsimError):
    """No closed form available; caller must fall back to sampling."""


class TooLargeError(PerpsimError, ValueError):
    """Exact enumeration would exceed the state-space guard."""


class InvalidArgumentsError(PerpsimError, ValueError):
    """Arguments inconsistent with the requested regime or operation."""


class ConfigError(PerpsimError, ValueError):
    """Configuration document failed strict validation."""


class WorkerError(PerpsimError):
    """A pool worker process died, or raised an exception not perpsim's
    own; the message names the cause and the trajectory ranges left
    unfinished."""
