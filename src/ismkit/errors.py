"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters at module boundaries: bad input data is not the same failure as a
broken socket.
"""

import csv
from contextlib import contextmanager


class IsmkitError(Exception):
    """Base class for all package errors."""


class DataError(IsmkitError):
    """Input data violates a precondition (shape, range, ordering, format)."""


class FileFormatError(DataError):
    """A file exists but its contents cannot be parsed."""


class ProtocolError(IsmkitError):
    """Wire-protocol violation (framing, ordering, version)."""


class UsageError(IsmkitError):
    """Command line or configuration misuse."""


@contextmanager
def decoding(path, error: type[IsmkitError] = FileFormatError):
    """Report text in `path` that fails to decode as `error`, naming the path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {exc.encoding} text ({exc.reason})") from None


def csv_rows(path, fh):
    """csv.reader's rows of fh; a row it refuses is a FileFormatError naming path:line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:  # as for a field past the csv module's size limit
        raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from None
