"""Exception types shared across the package, and the one file reader and
writer, which report a failure as IoError."""


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


def read_bytes(path) -> bytes:
    """The contents of the file at `path`.  Raises IoError when it cannot
    be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None


def write_bytes(path, *chunks) -> None:
    """Write the chunks, one after another, as the file at `path`.  A chunk
    is `bytes` or a C-contiguous buffer (such as a uint8 array), written
    without a copy.  Raises IoError when the file cannot be written."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None
