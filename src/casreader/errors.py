"""Exception hierarchy shared across the package, and the file helpers the
readers and writers share: `read_text` is the one reader of text files (the
tagged corpus, JSONL datasets, `vocab.txt`, `manifest.txt` and the JSON
config) and types an undecodable byte, and `replacing` writes a file by replace.

Each class owns its CLI exit code and the `kind` the CLI prints beside it,
so batch callers can tell usage mistakes (2), bad data (3), numeric
blow-ups (4) and I/O damage (5) apart.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class CasReaderError(Exception):
    """Base class for all errors raised by this package; a usage error (exit 2) unless
    a subclass sets its own code. `line`, of a file at fault, prefixes the message."""

    exit_code = 2
    kind = "usage"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UsageError(CasReaderError):
    """A call was made with degenerate or out-of-order arguments."""


class ConfigurationError(CasReaderError):
    """Inconsistent configuration, e.g. checkpoint/vocabulary mismatch."""


class DimensionError(CasReaderError):
    """Tensor or matrix shapes do not agree, or a row index falls outside its table."""


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


class CorruptionError(CasReaderError):
    """A binary artifact is truncated or inconsistent with its manifest."""

    exit_code = 5
    kind = "io"


def read_text(path) -> str:
    """The whole of a UTF-8 text file as text mode reads it, so CRLF and a bare CR both
    read as LF. Bytes that are not UTF-8 raise ParseError naming their line, which a
    second, binary pass finds only once decoding has failed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        pass
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):  # text mode's line breaks
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("not valid UTF-8", line=lineno) from None
    raise ParseError("not valid UTF-8")


@contextmanager
def replacing(*targets):
    """Write each `(path, mode)` of `targets` by replace, all or none ("w" for UTF-8 text or "wb").

    Yields one open temporary per target, beside its path. On a clean exit every temporary
    is flushed and fsynced before any is renamed; then each is `os.replace`d onto its path,
    in order, and the directories are fsynced. An error in the body or while fsyncing the
    temporaries deletes them and changes no path; an OSError opening a temporary (a missing
    directory, say) is raised under its target's path. With several targets the last is the
    commit point: it is removed (and the removal made durable) before the first rename and
    renamed last, so a write cut short between renames leaves no commit point, never new
    files beside an old one.

    No path is rewritten in place, so a reader sees the old file or the new one, and a
    process that has the old file mapped keeps the old bytes.
    """
    paths = [Path(path) for path, _ in targets]
    temps = [path.with_name(f".{path.name}.tmp") for path in paths]
    handles = []
    try:
        for tmp, path, (_, mode) in zip(temps, paths, targets):
            try:
                handles.append(open(tmp, mode, encoding=None if "b" in mode else "utf-8"))
            except OSError as err:
                raise OSError(err.errno, err.strerror, str(path)) from None
        yield handles
        for fh in handles:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
        if len(paths) > 1:
            paths[-1].unlink(missing_ok=True)
            _fsync_directories(paths)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in handles:
            fh.close()
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
    _fsync_directories(paths)


def _fsync_directories(paths) -> None:
    for parent in dict.fromkeys(path.parent for path in paths):
        directory = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
