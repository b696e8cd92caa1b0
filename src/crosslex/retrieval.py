"""Cross-lingual nearest-neighbor retrieval and precision@k evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import project, project_space
from .embedding_store import unit_rows
from .errors import ConfigurationError, InsufficientDataError


@dataclass
class NeighborList:
    query_word: str
    query_lang: str
    target_lang: str
    neighbors: list = field(default_factory=list)  # (word, language, score) desc
    truncated: bool = False


@dataclass
class BliResult:
    precision: float
    k: int
    evaluated: int  # distinct source words scored
    excluded: int  # source words with no in-vocabulary gold target
    rankings: list = field(default_factory=list)  # per in-vocabulary source word


# Score blocks hold at most this many float64 entries (4 MB), so the rows
# ranked at once shrink as the target vocabulary grows.
_BLOCK_ENTRIES = 1 << 19


def _top_k(queries, target_unit, words, k):
    """Exact cosine top-k of the target rows for each query row.

    Ties are broken by ascending word, on scores that depend only on the
    query and the row: a block's matrix product, whose bits BLAS may round
    differently for other block sizes and positions, only picks the
    candidates, which are then scored one row at a time. A zero query
    scores 0 against every row. Returns, per query, the chosen row indices
    best first and their scores; every row when there are fewer than ``k``.
    """
    n_rows = len(target_unit)
    if not n_rows:
        return [([], np.empty(0))] * len(queries)
    unit = unit_rows(queries)
    take = min(k, n_rows)
    step = max(1, _BLOCK_ENTRIES // n_rows)
    # A dot product of two unit rows of length d is off by at most about
    # d/2 ulps of 1, so a product score and a row score differ by at most
    # d ulps, and every row of the top k lies within 2d ulps of the k-th
    # product score; the slack doubles that.
    slack = 4 * target_unit.shape[1] * np.finfo(float).eps
    out = []
    for start in range(0, len(unit), step):
        block = unit[start:start + step]
        for query, product in zip(block, block @ target_unit.T):
            kth = product[np.argpartition(product, n_rows - take)[n_rows - take]]
            near = np.flatnonzero(product >= kth - slack)
            scores = (target_unit[near] * query).sum(axis=1)
            order = sorted(range(len(near)),
                           key=lambda i: (-scores[i], words[near[i]]))[:take]
            out.append((near[order].tolist(), scores[order]))
    return out


def knn_batch(model, spaces, query_words, query_lang, target_lang, k):
    """``knn`` for several query words, ranked against one projection of
    the target space. Returns one NeighborList per query word, in order."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    qvecs = [project(model, w, query_lang, spaces) for w in query_words]
    target_unit = unit_rows(project_space(model, target_lang, spaces))
    words = spaces[target_lang].words
    queries = np.array(qvecs).reshape(len(qvecs), target_unit.shape[1])
    # In its own language a query is left out of its list, so rank one more.
    same = query_lang == target_lang
    ranked = _top_k(queries, target_unit, words, k + 1 if same else k)
    lists = []
    for w, (rows, scores) in zip(query_words, ranked):
        neighbors = [(words[i], target_lang, float(s)) for i, s in zip(rows, scores)
                     if not (same and words[i] == w)][:k]
        lists.append(NeighborList(w, query_lang, target_lang, neighbors,
                                  truncated=len(neighbors) < k))
    return lists


def knn(model, spaces, query_word, query_lang, target_lang, k):
    """Exact top-k cosine neighbors of a word in a target language.

    Ties are broken by ascending word. The query itself is excluded only
    when query and target language coincide. Asking for more neighbors
    than the target vocabulary holds returns the full ranking with the
    truncation flag set.
    """
    return knn_batch(model, spaces, [query_word], query_lang, target_lang, k)[0]


def bli_precision_at_k(model, spaces, validation, k):
    """Fraction of validation source words whose top-k neighbors contain
    any of their gold translations.

    One-to-many source words count once. Source words that are OOV, or
    whose gold targets are all OOV, are excluded from the denominator and
    counted in ``excluded``. Every in-vocabulary source word is ranked
    once, in one batch, and its list is returned in ``rankings``, in
    first-appearance order.
    """
    src_lang, tgt_lang = validation.src_lang, validation.tgt_lang
    target_vocab = spaces[tgt_lang].vocab
    gold = {}
    for s, t in validation.pairs:
        targets = gold.setdefault(s, set())
        if t in target_vocab:
            targets.add(t)
    queries = [w for w in gold if w in spaces[src_lang].vocab]
    evaluated = sum(1 for w in queries if gold[w])
    if not evaluated:
        raise InsufficientDataError(
            "no validation pair survives vocabulary restriction"
        )
    rankings = knn_batch(model, spaces, queries, src_lang, tgt_lang, k)
    hits = sum(
        1 for result in rankings
        if gold[result.query_word].intersection(w for w, _, _ in result.neighbors)
    )
    return BliResult(
        precision=hits / evaluated, k=k, evaluated=evaluated,
        excluded=len(gold) - evaluated, rankings=rankings,
    )
