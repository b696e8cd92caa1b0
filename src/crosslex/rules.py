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

import numpy as np

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

    Method: each token is mapped to an integer id in one dict pass, and
    each document to its distinct ``document * V + word`` keys (V the
    vocabulary size) by a sort and a neighbour compare; one bincount of
    their words gives document frequency. Every antecedent occurrence is
    then paired with the words of its document, and the sorted
    ``antecedent * V + word`` keys, run-length counted, give each pair's
    co-occurrence. Memory grows with those pairs, the ones that occur,
    never with ``top_n_antecedents * V``. Support and confidence are
    float64 quotients of exact integer counts, as a scalar recount gives.
    """
    check("mining", "top_n", top_n_antecedents)
    check("mining", "min_support", min_support)
    check("mining", "min_confidence", min_confidence)
    docs = list(map(tuple, docs))
    ids = {}
    tokens = np.array([ids.setdefault(t, len(ids)) for d in docs for t in d],
                      dtype=np.int64)
    lengths = np.array(list(map(len, docs)), dtype=np.int64)
    n = int(np.count_nonzero(lengths))
    if not n:
        raise InsufficientDataError("no nonempty documents to mine")

    words = list(ids)
    vocab_size = len(words)
    keys = np.repeat(np.arange(len(docs)) * vocab_size, lengths)
    keys += tokens
    keys, _ = _runs(keys)
    doc_of, word_of = np.divmod(keys, vocab_size)
    df = np.bincount(word_of, minlength=vocab_size)

    stop = np.zeros(vocab_size, dtype=bool)
    stop[[ids[w] for w in stopwords if w in ids]] = True
    candidates = np.flatnonzero(~stop)
    beyond = len(candidates) - top_n_antecedents
    if beyond > 0:
        # only words as frequent as the top_n-th need the alphabetical tie-break
        cut = np.partition(df[candidates], beyond)[beyond]
        candidates = candidates[df[candidates] >= cut]
    df_list = df.tolist()
    antecedents = sorted(candidates.tolist(),
                         key=lambda i: (-df_list[i], words[i]))[:top_n_antecedents]
    if not antecedents:
        return []

    is_antecedent = np.zeros(vocab_size, dtype=bool)
    is_antecedent[antecedents] = True
    occurrence = np.flatnonzero(is_antecedent[word_of])
    occ_doc = doc_of[occurrence]
    doc_start = np.searchsorted(doc_of, np.arange(len(docs) + 1))
    width = doc_start[occ_doc + 1] - doc_start[occ_doc]
    # the positions of each occurrence's document keys, laid end to end;
    # pairs are the largest arrays, so they are built in place
    at = np.arange(width.sum())
    at -= np.repeat(np.cumsum(width) - width - doc_start[occ_doc], width)
    pairs = np.repeat(word_of[occurrence] * vocab_size, width)
    pairs += word_of[at]
    del at
    pair_keys, both = _runs(pairs)
    antecedent, consequent = np.divmod(pair_keys, vocab_size)

    support = both / n
    confidence = both / df[antecedent]
    keep = ((consequent != antecedent) & (support >= min_support)
            & (confidence >= min_confidence))
    rules = [AssociationRule(words[x], words[u], s, c) for x, u, s, c in zip(
        antecedent[keep].tolist(), consequent[keep].tolist(),
        support[keep].tolist(), confidence[keep].tolist())]
    rules.sort(key=lambda r: (r.antecedent, -r.confidence, r.consequent))
    return rules


def _runs(keys):
    """The distinct values of a nonempty int64 array, ascending, and how
    many times each occurs. Sorts ``keys`` in place.

    A sort and a neighbour compare: ``np.unique`` held about 1 MB more
    resident heap per process after its calls (numpy 2.4).
    """
    keys.sort()
    first = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    return keys[first], np.diff(first, append=len(keys))


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
