"""Tokenization, seed-term corpus filtering, and vocabulary counting."""

from __future__ import annotations

import os
import re
from collections import Counter
from itertools import chain

from .config import check
from .errors import ConfigurationError, InsufficientDataError, in_file, text_lines

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
# unicode letter/digit runs; underscore excluded
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text):
    """Split text into lowercased letter/digit runs, with URLs and @mentions
    removed and each hashtag's body kept. Deterministic; empty-safe."""
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    # not a no-op: str.lower() picks a final sigma where these spaces end a word
    text = _HASHTAG_RE.sub(r" \1 ", text)
    return _TOKEN_RE.findall(text.lower())


def check_seed_term(term):
    """Return ``term.lower()``, the one form in which a seed is matched.
    Raise ConfigurationError unless ``tokenize(term) == [term.lower()]``: no
    other term can match. That holds exactly when the lowercased term is one
    letter/digit run, which no URL, mention or hashtag rule touches, so only
    a refused term is tokenized, for the message."""
    lowered = term.lower()
    if not _TOKEN_RE.fullmatch(lowered):
        raise ConfigurationError(f"seed term {term!r} can never match: it "
                                 f"tokenizes as {tokenize(term)}")
    return lowered


def filter_corpus(lines, seeds):
    """Yield exactly the lines whose token set intersects the seed set.

    Each seed must pass ``check_seed_term``, and its checked form is matched
    against tokenized forms, so a seed never fires inside a longer word.
    Order of lines is preserved.
    """
    if not seeds:
        raise ConfigurationError("seed set must be nonempty")
    seeds = {check_seed_term(term) for term in seeds}
    for line in lines:
        if seeds.intersection(tokenize(line)):
            yield line


def build_vocab(corpus, min_count=1):
    """Count tokens over a corpus of token lists, keeping words with
    frequency >= min_count."""
    check("sgns", "min_count", min_count)
    counts = Counter(chain.from_iterable(corpus))
    return {w: c for w, c in counts.items() if c >= min_count}


def read_lines(path):
    """Read a UTF-8 corpus file, one document per line; a file without a
    line is an empty corpus."""
    with in_file(path):
        lines = [line.rstrip("\n") for _, line in text_lines(path)]
        if not lines:
            raise InsufficientDataError("empty corpus")
    return lines


def load_seed_terms(path):
    """Read a seed lexicon: one term per line, '#' comments and blanks
    skipped. A file without a term, or a term that ``check_seed_term``
    refuses, is a configuration error; the latter names its line."""
    seeds = []
    for lineno, line in text_lines(path):
        term = line.strip()
        if term and not term.startswith("#"):
            try:
                check_seed_term(term)
            except ConfigurationError as err:
                err.path, err.line_number = os.fspath(path), lineno
                raise
            seeds.append(term)
    if not seeds:
        raise ConfigurationError(f"{path}: seed set must be nonempty")
    return seeds
