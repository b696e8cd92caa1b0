"""Tokenization, seed-term corpus filtering, and vocabulary counting."""

from __future__ import annotations

import re
from collections import Counter

from .config import TokenizerConfig, check
from .errors import ConfigurationError, text_lines

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w+)")
# unicode letter/digit runs; underscore excluded
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text, cfg=TokenizerConfig()):
    """Split text into tokens according to cfg. Deterministic; empty-safe."""
    if cfg.strip_urls:
        text = _URL_RE.sub(" ", text)
    if cfg.strip_mentions:
        text = _MENTION_RE.sub(" ", text)
    if cfg.keep_hashtag_body:
        text = _HASHTAG_RE.sub(r" \1 ", text)
    else:
        text = _HASHTAG_RE.sub(" ", text)
    if cfg.lowercase:
        text = text.lower()
    return _TOKEN_RE.findall(text)


def filter_corpus(lines, seeds, cfg=TokenizerConfig()):
    """Yield exactly the lines whose token set intersects the seed set.

    Seeds are matched against tokenized forms, so a seed never fires
    inside a longer word. Order of lines is preserved.
    """
    if not seeds:
        raise ConfigurationError("seed set must be nonempty")
    seeds = {s.lower() for s in seeds} if cfg.lowercase else set(seeds)
    for line in lines:
        if seeds.intersection(tokenize(line, cfg)):
            yield line


def build_vocab(corpus, min_count=1):
    """Count tokens over a corpus of token lists, keeping words with
    frequency >= min_count."""
    check("sgns", "min_count", min_count)
    counts = Counter()
    for doc in corpus:
        counts.update(doc)
    return {w: c for w, c in counts.items() if c >= min_count}


def read_lines(path):
    """Read a UTF-8 corpus file, one document per line."""
    return [line.rstrip("\n") for _, line in text_lines(path)]


def load_seed_terms(path):
    """Read a seed lexicon: one term per line, '#' comments and blanks skipped."""
    seeds = []
    for _, line in text_lines(path):
        term = line.strip()
        if term and not term.startswith("#"):
            seeds.append(term)
    return seeds
