"""Labeled dataset loading and single-consequent association rule mining.

Rules have the form {x} => {u}: support is the fraction of documents
containing both words (set semantics, repeats within a document count
once); confidence is support divided by the document fraction of x.
The context C(x) of a word is the set of consequents of its surviving
rules, each carrying its support and confidence.
"""

from __future__ import annotations

import importlib.resources
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .config import check, default
from .corpus import tokenize
from .errors import (
    FormatError,
    InsufficientDataError,
    in_file,
    text_lines,
)

logger = logging.getLogger(__name__)

HATE = "hate"
NON_HATE = "non-hate"
_LABEL_MAP = {"0": NON_HATE, "1": HATE}


@dataclass
class LabeledDataset:
    language: str
    docs: list = field(default_factory=list)  # (token list, label)
    dropped_empty: int = 0

    def class_counts(self):
        return Counter(label for _, label in self.docs)

    def partition(self, label):
        """Token lists of documents carrying the given label."""
        return [tokens for tokens, lbl in self.docs if lbl == label]

    def token_lists(self):
        return [tokens for tokens, _ in self.docs]


@dataclass(frozen=True)
class AssociationRule:
    antecedent: str
    consequent: str
    support: float
    confidence: float


@dataclass
class WordContext:
    word: str
    entries: dict = field(default_factory=dict)  # u -> (supp, conf)

    def __len__(self):
        return len(self.entries)


def load_labeled_dataset(path, language):
    """Load a "label<TAB>text" TSV (label 0/1, 1 = hate) and tokenize.

    Documents that tokenize to nothing are dropped; their count is kept
    on the dataset.
    """
    docs = []
    dropped = 0
    with in_file(path):
        for lineno, line in text_lines(path):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t", 1)
            if len(cells) != 2:
                raise FormatError("expected 'label<TAB>text'", lineno)
            raw_label, text = cells
            if raw_label not in _LABEL_MAP:
                raise FormatError(
                    f"unknown label {raw_label!r}, expected 0 or 1", lineno
                )
            tokens = tokenize(text)
            if not tokens:
                dropped += 1
                continue
            docs.append((tokens, _LABEL_MAP[raw_label]))
    return LabeledDataset(language=language, docs=docs, dropped_empty=dropped)


def mine_rules(docs, top_n_antecedents=default("mining", "top_n"),
               min_support=default("mining", "min_support"),
               min_confidence=default("mining", "min_confidence"),
               stopwords=frozenset()):
    """Mine {x} => {u} rules for the most document-frequent antecedents.

    Antecedents are the top_n_antecedents words by document frequency
    after stopword removal (ties broken alphabetically). Returns the rules
    with support >= min_support and confidence >= min_confidence, sorted
    by antecedent, then descending confidence, then consequent.
    """
    check("mining", "top_n", top_n_antecedents)
    check("mining", "min_support", min_support)
    check("mining", "min_confidence", min_confidence)
    docs = [d for d in map(set, docs) if d]
    if not docs:
        raise InsufficientDataError("no nonempty documents to mine")

    n = len(docs)
    df = Counter(chain.from_iterable(docs))
    candidates = [w for w in df if w not in stopwords]
    candidates.sort(key=lambda w: (-df[w], w))
    antecedents = candidates[:top_n_antecedents]

    rules = []
    for x in antecedents:
        cooc = Counter(chain.from_iterable(d for d in docs if x in d))
        for u, both in cooc.items():
            if u == x:
                continue
            support = both / n
            confidence = both / df[x]
            if support >= min_support and confidence >= min_confidence:
                rules.append(AssociationRule(x, u, support, confidence))
    rules.sort(key=lambda r: (r.antecedent, -r.confidence, r.consequent))
    return rules


def build_context(rules, x):
    """Collect the consequents of all rules with antecedent x."""
    entries = {
        r.consequent: (r.support, r.confidence) for r in rules if r.antecedent == x
    }
    if not entries:
        logger.warning("word %r has no mined rules; empty context", x)
    return WordContext(word=x, entries=entries)


def load_stopwords(language):
    """Bundled per-language stopword list; empty set for unknown languages."""
    try:
        text = (
            importlib.resources.files("crosslex.data")
            .joinpath(f"stopwords_{language}.txt")
            .read_text(encoding="utf-8")
        )
    except FileNotFoundError:
        return frozenset()
    return frozenset(
        w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#")
    )
