"""Bilingual word-pair lexicons: loading, vocabulary restriction, splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check
from .errors import (
    ConfigurationError,
    FormatError,
    InsufficientDataError,
    InsufficientOverlapError,
    in_file,
    text_lines,
)


@dataclass
class BilingualLexicon:
    """Ordered (source word, target word) pairs between two languages."""

    src_lang: str
    tgt_lang: str
    pairs: list = field(default_factory=list)
    multiword_dropped: int = 0  # entries load_lexicon dropped for whitespace

    def __post_init__(self):
        if self.src_lang == self.tgt_lang:
            raise ConfigurationError("source and target language must differ")
        seen = set()
        deduped = []
        for src, tgt in self.pairs:
            if not src or not tgt:
                raise FormatError("empty word in lexicon pair")
            if (src, tgt) not in seen:
                seen.add((src, tgt))
                deduped.append((src, tgt))
        self.pairs = deduped

    def __len__(self):
        return len(self.pairs)

    def source_words(self):
        """Distinct source words in first-appearance order."""
        out = []
        seen = set()
        for src, _ in self.pairs:
            if src not in seen:
                seen.add(src)
                out.append(src)
        return out


def load_lexicon(path, src, tgt):
    """Load a TSV lexicon: "src_word<TAB>tgt1[,tgt2,...]" per line.

    Comma-separated target alternatives expand to one pair each. Words are
    lowercased to match tokenizer output. Entries containing whitespace
    are dropped; their count is recorded as ``multiword_dropped``.
    """
    pairs = []
    multiword = 0
    with in_file(path):
        for lineno, line in text_lines(path):
            if not line.strip() or line.startswith("#"):
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) != 2:
                raise FormatError(
                    f"expected 2 tab-separated cells, found {len(cells)}", lineno
                )
            src_word = cells[0].strip().lower()
            for alt in cells[1].split(","):
                tgt_word = alt.strip().lower()
                if not src_word or not tgt_word:
                    raise FormatError("empty word in lexicon row", lineno)
                if " " in src_word or " " in tgt_word:
                    multiword += 1
                    continue
                pairs.append((src_word, tgt_word))
    return BilingualLexicon(src, tgt, pairs, multiword_dropped=multiword)


def restrict_to_vocab(lex, src_space, tgt_space):
    """Keep exactly the pairs with both words in their space's vocabulary.

    Returns (restricted lexicon, dropped pair count).
    """
    kept = [
        (s, t) for s, t in lex.pairs if s in src_space.vocab and t in tgt_space.vocab
    ]
    dropped = len(lex.pairs) - len(kept)
    if not kept:
        raise InsufficientOverlapError(
            f"no {lex.src_lang}-{lex.tgt_lang} lexicon pair is covered by "
            "both vocabularies; alignment impossible"
        )
    return BilingualLexicon(lex.src_lang, lex.tgt_lang, kept), dropped


def split_lexicon(lex, train_fraction, rng_seed):
    """Split into (train, validation) by source word, deterministically.

    All pairs sharing a source word land on the same side, so validation
    translations never leak into the alignment dictionary.
    """
    check("alignment", "train_fraction", train_fraction)
    check("alignment", "split_seed", rng_seed)
    sources = lex.source_words()
    if len(sources) < 2:
        raise InsufficientDataError("need >= 2 distinct source words to split")
    order = np.random.default_rng(rng_seed).permutation(len(sources))
    n_train = math.ceil(train_fraction * len(sources))
    train_words = {sources[i] for i in order[:n_train]}
    train_pairs = [(s, t) for s, t in lex.pairs if s in train_words]
    val_pairs = [(s, t) for s, t in lex.pairs if s not in train_words]
    return (
        BilingualLexicon(lex.src_lang, lex.tgt_lang, train_pairs),
        BilingualLexicon(lex.src_lang, lex.tgt_lang, val_pairs),
    )
