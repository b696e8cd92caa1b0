"""Exception hierarchy shared by all crosslex modules, the one checked reader
of text inputs (undecodable text is a format error), the one hash of input
files and the one writer."""

import hashlib
import os
import shutil
import sys
from contextlib import contextmanager


class CrosslexError(Exception):
    """Base class for all crosslex errors; ``path`` names the file the error
    is about, and ``line_number`` its 1-based line, when known."""

    path = None
    line_number = None

    def __str__(self):
        text = super().__str__()
        if self.path is not None:
            text = f"{self.path}: {text}"
        return text if self.line_number is None else f"{text} (line {self.line_number})"


class FormatError(CrosslexError):
    """Malformed input file. Carries the 1-based line number when known;
    ``in_file`` adds the file."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


@contextmanager
def in_file(path):
    """Name ``path`` in an error about a file's content (a FormatError or an
    InsufficientDataError) raised inside the block that names no file yet."""
    try:
        yield
    except (FormatError, InsufficientDataError) as err:
        if err.path is None:
            err.path = os.fspath(path)
        raise


def text_lines(path):
    """Yield (1-based line number, line) of a UTF-8 text file; every text
    input is read here. A line with bytes that are not UTF-8 raises
    FormatError naming the file and line."""
    with in_file(path), open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise FormatError("invalid UTF-8 bytes", lineno) from None
            yield lineno, line


def sha256_file(path):
    """The hex sha256 of the bytes of the file at ``path``."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_text(path, chunks):
    """Write ``chunks`` to ``path``, a string as UTF-8 and any other chunk
    (bytes, or a memoryview of an array, which is not copied) as its bytes;
    when ``path`` is None, write the strings to stdout. A pipe or device is
    written in place; any other path (a symlink's target) is replaced only
    once the new file is complete, with the old file's permission bits.
    Makes no directory."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    chunks = (c.encode("utf-8") if isinstance(c, str) else c for c in chunks)
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class DimensionError(CrosslexError):
    """Vector or matrix dimensions do not agree."""


class DomainError(CrosslexError):
    """Numeric input outside the valid domain (e.g. zero vector for cosine)."""


class ConfigurationError(CrosslexError):
    """Invalid configuration value or unknown configuration key."""


class InsufficientDataError(CrosslexError):
    """Not enough data to perform the operation."""


class InsufficientOverlapError(InsufficientDataError):
    """Lexicon and vocabularies share no usable pairs; alignment impossible."""


class DegenerateDataError(InsufficientDataError):
    """Training data degenerate (e.g. a single class for a binary classifier)."""


class NotFoundError(CrosslexError):
    """Requested word or language is unknown."""


class SingularityError(CrosslexError):
    """Covariance is rank-deficient; retry with a positive regularization lambda."""
