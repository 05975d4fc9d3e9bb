"""Exception types shared across the package."""


class TmdSimError(Exception):
    """Base class for all package-specific errors."""


class DegenerateBundle(TmdSimError):
    """Ray bundle has no well-conditioned convergence point (e.g. parallel rays)."""


class NoIntersection(TmdSimError):
    """Ray does not meet the element surface within its extent."""


class InvalidGeometry(TmdSimError):
    """Layout or element parameters describe an impossible arrangement."""


class ValidationError(TmdSimError):
    """Scene contents violate a structural requirement."""


class ParseError(TmdSimError):
    """Scene text is malformed.  Carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UsageError(TmdSimError):
    """A setting given on the command line or in the environment is unusable."""


class EmptySpot(TmdSimError):
    """No terminal ray crosses the requested spot plane."""


class IoError(TmdSimError):
    """File could not be read or written."""
