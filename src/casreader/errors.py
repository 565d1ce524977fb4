"""Exception hierarchy shared across the package, and `text_lines`, which
reads the line-oriented text inputs and types an undecodable byte.

Each class owns its CLI exit code and the `kind` the CLI prints beside it,
so batch callers can tell usage mistakes (2), bad data (3), numeric
blow-ups (4) and I/O damage (5) apart.
"""


class CasReaderError(Exception):
    """Base class for all errors raised by this package; a usage error
    (exit 2) unless a subclass sets its own code."""

    exit_code = 2
    kind = "usage"


class UsageError(CasReaderError):
    """A call was made with degenerate or out-of-order arguments."""


class ConfigurationError(CasReaderError):
    """Inconsistent configuration, e.g. checkpoint/vocabulary mismatch."""


class DimensionError(CasReaderError):
    """Tensor or matrix shapes do not agree."""


class EmptySupportError(CasReaderError):
    """A softmax was requested over a fully masked vector."""

    exit_code = 4
    kind = "numeric"


class NumericError(CasReaderError):
    """A non-finite value appeared where a finite one is required."""

    exit_code = 4
    kind = "numeric"


class ValidationError(CasReaderError):
    """A data record violates the sample invariants."""

    exit_code = 3
    kind = "validation"


class ParseError(CasReaderError):
    """A text file does not follow its declared format."""

    exit_code = 3
    kind = "validation"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CorruptionError(CasReaderError):
    """A binary artifact is truncated or inconsistent with its manifest."""

    exit_code = 5
    kind = "io"


def text_lines(path):
    """Yield (line number, line) over a UTF-8 text file as text mode reads it.

    Bytes that are not UTF-8 raise ParseError naming their line, which a
    second, binary pass finds only once decoding has failed.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
            return
        except UnicodeDecodeError:
            pass
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):  # text mode's line breaks
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("not valid UTF-8", line=lineno) from None
    raise ParseError("not valid UTF-8")
