"""Context-based cross-lingual word similarity.

Combines cosine similarity in the shared embedding space with agreement
of association-rule support/confidence metrics, then aggregates over two
words' rule contexts with a symmetric mean-of-max scheme.

Two metric-agreement variants ship. The "literal" variant is
    1 - |d_supp|/2 + |d_conf|/2
and can exceed 1; the "bounded" variant,
    1 - (|d_supp| + |d_conf|)/2,
stays in [0, 1]. Reports always record which variant produced them.
"""

from __future__ import annotations

import numpy as np

from .alignment import project_space
from .config import VARIANTS, check, default
from .embedding_store import cosine, unit_rows
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    NotFoundError,
)
from .rules import build_context

LITERAL, BOUNDED = VARIANTS


def _check_metrics(entries):
    """Raise DomainError, naming the first bad value, unless every value of
    the (support, confidence) rows ``entries`` is in [0, 1] (NaN is not)."""
    entries = np.asarray(entries, dtype=np.float64)
    bad = np.argwhere(~((entries >= 0) & (entries <= 1)))
    if len(bad):
        i, j = bad[0]
        name = ("support", "confidence")[j]
        raise DomainError(f"{name} must be in [0, 1], got {entries[i, j]}")


def _agreement(d_supp, d_conf, variant):
    """Metric agreement from absolute support and confidence differences,
    scalars or arrays alike."""
    if variant == LITERAL:
        return 1.0 - d_supp / 2.0 + d_conf / 2.0
    return 1.0 - (d_supp + d_conf) / 2.0


def met_sim(entry_u, entry_v, variant=LITERAL):
    """Agreement of two (support, confidence) pairs. Symmetric."""
    check("similarity", "variant", variant)
    _check_metrics([entry_u, entry_v])
    (supp_u, conf_u), (supp_v, conf_v) = entry_u, entry_v
    return _agreement(abs(supp_u - supp_v), abs(conf_u - conf_v), variant)


def word_sim(entry_u, entry_v, vec_u, vec_v, variant=LITERAL):
    """Mean of shared-space cosine and metric agreement."""
    if vec_u is None or vec_v is None:
        raise NotFoundError("missing shared-space vector for word similarity")
    return (cosine(vec_u, vec_v) + met_sim(entry_u, entry_v, variant)) / 2.0


def context_sim(context_x, context_y, vectors_x, vectors_y, variant=LITERAL):
    """Symmetric mean-of-max similarity between two word contexts.

    vectors_x / vectors_y map context words to shared-space vectors; pairs
    where either vector is missing are skipped. The scored pairs form one
    matrix of ``word_sim`` values: the cosines of unit rows plus the metric
    agreement broadcast over both contexts' (support, confidence) rows.
    Returns (similarity, skipped pair count).
    """
    for context in (context_x, context_y):
        if not context.entries:
            raise InsufficientDataError(f"word {context.word!r} has an empty context")
    xs = [u for u in context_x.entries if vectors_x.get(u) is not None]
    ys = [v for v in context_y.entries if vectors_y.get(v) is not None]
    if not xs or not ys:
        raise InsufficientDataError(
            f"no context pair of {context_x.word!r} and {context_y.word!r} "
            "has shared-space vectors"
        )
    rows = [vectors_x[u] for u in xs] + [vectors_y[v] for v in ys]
    if len({np.shape(row) for row in rows}) > 1:
        raise DimensionError("dimension mismatch among context vectors")
    rows = np.array(rows, dtype=np.float64)
    if not rows.any(axis=1).all():
        raise DomainError("cosine undefined for zero vectors")
    check("similarity", "variant", variant)
    metrics = [context_x.entries[u] for u in xs] + [context_y.entries[v] for v in ys]
    _check_metrics(metrics)
    n = len(xs)
    unit, metrics = unit_rows(rows), np.array(metrics)
    diff = np.abs(metrics[:n, None] - metrics[n:])
    met = _agreement(diff[..., 0], diff[..., 1], variant)
    sims = (unit[:n] @ unit[n:].T + met) / 2.0
    value = (sims.max(axis=1).mean() + sims.max(axis=0).mean()) / 2.0
    return float(value), len(context_x) * len(context_y) - len(xs) * len(ys)


def _language_contexts(rules, model, language, spaces):
    """The context of every antecedent of ``rules``, in antecedent order,
    and the shared-space rows of the context words in the vocabulary, taken
    from one projection of the language's space."""
    groups = {}
    for rule in rules:
        groups.setdefault(rule.antecedent, []).append(rule)
    contexts = {x: build_context(groups[x], x) for x in sorted(groups)}
    vocab = spaces[language].vocab
    words = sorted({r.consequent for r in rules if r.consequent in vocab})
    rows = project_space(model, language, spaces)[[vocab[u] for u in words]]
    return contexts, dict(zip(words, rows))


def cross_lingual_report(seed_terms, source_lang, rules, class_filter, model,
                         spaces, top_m=default("similarity", "top_m"),
                         variant=LITERAL):
    """Most context-similar terms for each seed, per other language.

    ``rules`` maps each language, the source language included, to the
    rules mined over its ``class_filter`` documents. Returns a list of
    records, one per (seed, target language), ordered by seed then language.
    """
    check("similarity", "top_m", top_m)
    check("similarity", "variant", variant)
    if source_lang not in rules:
        raise ConfigurationError(f"no rules for the source language {source_lang!r}")
    contexts, vectors = {}, {}
    for lang, mined in rules.items():
        contexts[lang], vectors[lang] = _language_contexts(mined, model, lang, spaces)
    records = []
    for seed in seed_terms:
        seed_ctx = contexts[source_lang].get(seed) or build_context([], seed)
        for lang in sorted(rules):
            if lang == source_lang:
                continue
            record = {
                "seed": seed,
                "source_lang": source_lang,
                "target_lang": lang,
                "class": class_filter,
                "variant": variant,
                "results": [],
                "skipped_pairs": 0,
                "no_context": not seed_ctx.entries,
            }
            records.append(record)
            if record["no_context"]:
                continue
            scored = []
            for cand, cand_ctx in contexts[lang].items():
                try:
                    value, skipped = context_sim(
                        seed_ctx, cand_ctx, vectors[source_lang], vectors[lang], variant)
                except InsufficientDataError:
                    continue
                record["skipped_pairs"] += skipped
                scored.append((cand, value))
            scored.sort(key=lambda t: (-t[1], t[0]))
            record["results"] = [{"word": w, "score": s} for w, s in scored[:top_m]]
    return records
