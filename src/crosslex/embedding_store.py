"""Monolingual embedding spaces: word2vec-text parsing, persistence, cosine."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FormatError,
    InsufficientDataError,
    in_file,
    text_lines,
    write_text,
)


class EmbeddingSpace:
    """One language's vocabulary mapped to dense vectors of fixed dimension.

    Immutable after construction; safe for concurrent reads. Vectors are
    stored as float32, one row per word.
    """

    def __init__(self, language, words, vectors):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise DimensionError("vectors must be a 2-d matrix")
        if len(words) != vectors.shape[0]:
            raise DimensionError(
                f"{len(words)} words but {vectors.shape[0]} vector rows"
            )
        if vectors.shape[1] < 1:
            raise DimensionError("embedding dimension must be >= 1")
        self.words = list(words)
        self.vocab = {w: i for i, w in enumerate(self.words)}
        if len(self.vocab) != len(self.words):
            raise FormatError("duplicate words in vocabulary")
        self.language = language
        self.vectors = vectors
        self.duplicates_dropped = 0

    @property
    def dim(self):
        return int(self.vectors.shape[1])

    def __len__(self):
        return len(self.words)


def unit_rows(mat):
    """The rows of a 2-d matrix scaled to unit Euclidean norm, computed in
    the matrix's own dtype; zero rows stay zero. A row whose norm under- or
    overflows that dtype is divided by its largest magnitude first."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
    rescale = np.flatnonzero((norms == 0) | (norms == np.inf))
    norms[rescale] = 1
    unit = mat / norms
    if len(rescale):
        peak = np.abs(mat[rescale]).max(axis=1, keepdims=True)
        rows = mat[rescale] / np.where(peak == 0, 1, peak)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        unit[rescale] = rows / np.where(norms == 0, 1, norms)
    return unit


def load_embeddings(path, language):
    """Parse a word2vec text file into an EmbeddingSpace.

    First line is "<vocab_count> <dim>"; each following line is a word and
    its components, space separated. Duplicate words keep the first
    occurrence; the count of dropped rows is recorded on the returned
    space as ``duplicates_dropped``.

    The numbers are parsed in one ``np.loadtxt`` call. A file that call
    refuses (a bad line, other spacing, undecodable bytes, or a rarer
    number spelling such as ``1_0``) is read again line by line, which
    returns the same space or raises the first bad line's error.
    """
    with in_file(path):
        try:
            words, vectors = _parse_bulk(path)
        except ValueError:  # undecodable bytes, or a row the bulk parse refuses
            words, vectors = _parse_lines(path)
    first_row = {}
    for i, word in enumerate(words):
        first_row.setdefault(word, i)
    duplicates = len(words) - len(first_row)
    if duplicates:
        words, vectors = list(first_row), vectors[list(first_row.values())]
    del first_row  # before the space builds its own vocabulary
    space = EmbeddingSpace(language, words, vectors)
    space.duplicates_dropped = duplicates
    return space


def _read_header(header):
    """Parse the "<vocab_count> <dim>" first line into (count, dim)."""
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("expected header '<vocab_count> <dim>'", 1)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError("non-integer header fields", 1) from None
    if count < 1:
        raise InsufficientDataError("empty vocabulary in embedding file")
    if dim < 1:
        raise FormatError("embedding dimension must be >= 1", 1)
    return count, dim


def _parse_bulk(path):
    """(words, vectors) of a well-formed file, one per row.

    In a well-formed file each row is the word and its components joined
    by single spaces; when the first row ends in a space, as fastText
    writes them, every row does. loadtxt parses all the numbers at once
    and checks that every row has the same number of columns; the word
    column goes through a converter that collects the words, and the empty
    column after a trailing space through one that refuses anything else.
    A ValueError, undecodable bytes included, means that the per-line scan
    must read the file.
    """
    with open(path, encoding="utf-8") as fh:  # streaming text_lines: no faster
        count, dim = _read_header(fh.readline())
        start = fh.tell()
        line = fh.readline()
        while line.isspace():
            line = fh.readline()
        if not line:  # no rows: loadtxt would warn, the scan raises
            raise ValueError("no rows")
        fh.seek(start)
        trailing = line.rstrip("\n").endswith(" ")
        words = []

        def word(field):
            if not field:  # the row starts with a space
                raise ValueError("empty word")
            words.append(field)
            return 0.0

        def empty(field):
            if field:
                raise ValueError("a component after the trailing space")
            return 0.0

        converters = {0: word}
        if trailing:
            converters[dim + 1] = empty
        # encoding="utf-8": before numpy 2.0 the default ("bytes") hands the
        # converter latin1-encoded bytes instead of str.
        table = np.loadtxt(fh, dtype=np.float32, delimiter=" ", comments=None,
                           converters=converters, ndmin=2, encoding="utf-8")
    if table.shape != (count, dim + 1 + trailing) or len(words) != count:
        raise ValueError("row or column count differs from the header")
    vectors = np.ascontiguousarray(table[:, 1:dim + 1])
    del table  # before the checks' temporaries, to keep the peak at two matrices
    if not np.isfinite(vectors).all():
        raise ValueError("non-finite component")
    if not vectors.any(axis=1).all():
        raise ValueError("all-zero row")
    return words, vectors


def _parse_lines(path):
    """(words, vectors) by the per-line scan, one per row.

    Raises the error of the first bad line in file order: a wrong field
    count, a non-numeric, non-finite or all-zero vector, or bytes that are
    not UTF-8. A number beyond the float32 range is non-finite.
    """
    words = []
    rows = []
    lines = text_lines(path)
    lineno, header = next(lines, (1, ""))
    count, dim = _read_header(header)
    for lineno, line in lines:
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(" ")
        fields = [f for f in fields if f != ""]
        if len(fields) != dim + 1:
            raise FormatError(
                f"expected {dim + 1} fields, found {len(fields)}", lineno
            )
        word = fields[0]
        try:
            with np.errstate(over="ignore"):  # 1e39 becomes inf, refused below
                vec = np.array(fields[1:], dtype=np.float32)
        except ValueError:
            raise FormatError("non-numeric vector component", lineno) from None
        if not np.isfinite(vec).all():
            raise FormatError("non-finite vector component", lineno)
        if not vec.any():
            raise FormatError(f"all-zero vector for word {word!r}", lineno)
        words.append(word)
        rows.append(vec)
    if len(words) != count:
        raise FormatError(f"header promised {count} rows, found {len(words)}",
                          lineno + 1)
    return words, np.vstack(rows)


# A character that ends a word in the files that load_embeddings reads.
_WORD_BREAK = re.compile(r"[ \n\r]")


def save_embeddings(space, path):
    """Write a space in word2vec text format with 6 decimal digits.

    A space that ``load_embeddings`` could not read back as written raises
    ConfigurationError before anything is written: one without words, or
    one with a word that is empty or holds a space, ``\\n`` or ``\\r``, or
    whose vector is not finite or is all zeros at 6 decimals (every
    magnitude below 5e-7). The error names the first such word.
    """
    if not len(space):
        raise ConfigurationError("cannot save a space without words")
    peak = np.abs(space.vectors).max(axis=1).tolist()
    for word, top in zip(space.words, peak):
        if not word or _WORD_BREAK.search(word):
            fault = "a word must be nonempty and hold no space, \\n or \\r"
        elif not math.isfinite(top):
            fault = "its vector is not finite"
        elif top < 5e-7:
            fault = "its vector is all zeros at 6 decimals"
        else:
            continue
        raise ConfigurationError(f"cannot save word {word!r}: {fault}")
    row_fmt = " ".join(["%.6f"] * space.dim)
    write_text(path, itertools.chain(
        [f"{len(space)} {space.dim}\n"],
        (f"{word} {row_fmt % tuple(row.tolist())}\n"
         for word, row in zip(space.words, space.vectors))))


def cosine(u, v):
    """Cosine similarity of two nonzero vectors of equal dimension, taken
    from their ``unit_rows``."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (u.any() and v.any()):
        raise DomainError("cosine undefined for zero vectors")
    unit_u, unit_v = unit_rows(np.stack([u, v]))
    return float(unit_u @ unit_v)
