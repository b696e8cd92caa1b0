"""Cross-lingual most-similar-term reports on a planted bilingual fixture."""

import numpy as np
import pytest

from crosslex import (
    BilingualLexicon,
    EmbeddingSpace,
    build_context,
    cross_lingual_report,
    fit_hub_alignment,
    mine_rules,
    project,
)
from crosslex.embedding_store import unit_rows
from crosslex.cli import main
from crosslex.errors import ConfigurationError, NotFoundError
from crosslex.rules import HATE, NON_HATE, LabeledDataset

from conftest import LANGS, random_orthogonal
from test_contextsim import _brute_force_context_sim

N_SEEDS = 4
MINING = {"top_n_antecedents": 30, "min_support": 0.01, "min_confidence": 0.05}


def _mined(datasets, mining=MINING, stopwords=None):
    """Per language, the rules mined over the hate documents of its dataset."""
    return {lang: mine_rules(ds.partition(HATE),
                             stopwords=(stopwords or {}).get(lang, frozenset()),
                             **mining)
            for lang, ds in datasets.items()}


@pytest.fixture(scope="module")
def planted_bilingual():
    """Two languages whose planted word pairs share both their embedding
    direction and their co-occurrence neighborhoods, so context similarity
    must rank each seed's counterpart first."""
    rng = np.random.default_rng(21)
    n_concepts = N_SEEDS + 2 * N_SEEDS  # seeds plus two context words each
    proto = rng.normal(size=(n_concepts, 12))
    en_words = [f"x{i}" for i in range(N_SEEDS)] + [
        f"c{i}" for i in range(2 * N_SEEDS)
    ]
    es_words = [f"y{i}" for i in range(N_SEEDS)] + [
        f"d{i}" for i in range(2 * N_SEEDS)
    ]
    q = random_orthogonal(12, seed=22)
    spaces = {
        "en": EmbeddingSpace("en", en_words, unit_rows(proto.astype(np.float32))),
        "es": EmbeddingSpace("es", es_words,
                             unit_rows((proto @ q).astype(np.float32))),
    }
    lex = BilingualLexicon("en", "es", list(zip(en_words, es_words)))
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)

    def docs(seed_names, ctx_names):
        out = []
        for i, s in enumerate(seed_names):
            for _ in range(10):
                out.append(([s, ctx_names[2 * i], ctx_names[2 * i + 1]], HATE))
        return out

    datasets = {
        "en": LabeledDataset("en", docs(en_words[:N_SEEDS], en_words[N_SEEDS:])),
        "es": LabeledDataset("es", docs(es_words[:N_SEEDS], es_words[N_SEEDS:])),
    }
    return model, spaces, datasets


def test_planted_counterparts_rank_first(planted_bilingual):
    model, spaces, datasets = planted_bilingual
    seeds = [f"x{i}" for i in range(N_SEEDS)]
    records = cross_lingual_report(
        seeds, "en", _mined(datasets), HATE, model, spaces, top_m=3
    )
    assert len(records) == N_SEEDS
    for i, rec in enumerate(records):
        assert rec["seed"] == f"x{i}"
        assert not rec["no_context"]
        assert rec["results"][0]["word"] == f"y{i}"


def test_empty_seed_list(planted_bilingual):
    model, spaces, datasets = planted_bilingual
    assert cross_lingual_report([], "en", _mined(datasets), HATE, model,
                                spaces) == []


def test_source_language_without_rules(planted_bilingual):
    model, spaces, datasets = planted_bilingual
    rules = _mined(datasets)
    del rules["en"]
    with pytest.raises(ConfigurationError,
                       match="no rules for the source language 'en'"):
        cross_lingual_report(["x0"], "en", rules, HATE, model, spaces)


def test_seed_without_context_marked(planted_bilingual):
    model, spaces, datasets = planted_bilingual
    records = cross_lingual_report(
        ["c0"], "en", _mined(datasets, dict(MINING, min_support=0.9)), HATE,
        model, spaces,
    )
    assert records[0]["no_context"]
    assert records[0]["results"] == []


def test_scores_sorted_and_variant_recorded(planted_bilingual):
    model, spaces, datasets = planted_bilingual
    records = cross_lingual_report(
        ["x0"], "en", _mined(datasets), HATE, model, spaces, top_m=5,
        variant="bounded",
    )
    rec = records[0]
    assert rec["variant"] == "bounded"
    scores = [r["score"] for r in rec["results"]]
    assert scores == sorted(scores, reverse=True)


def _scalar_report(seed_terms, source_lang, mined, class_filter, model,
                   spaces, top_m, variant):
    """The report computed one pair at a time: each candidate's context is
    collected by scanning every mined rule, each context word is projected
    on its own, and each context pair is scored by the ``word_sim`` table."""

    def vectors(ctx, lang):
        out = {}
        for w in ctx.entries:
            try:
                out[w] = project(model, w, lang, spaces)
            except NotFoundError:
                pass
        return out

    records = []
    for seed in seed_terms:
        seed_ctx = build_context(mined[source_lang], seed)
        seed_vecs = vectors(seed_ctx, source_lang)
        for lang in sorted(mined):
            if lang == source_lang:
                continue
            record = {"seed": seed, "source_lang": source_lang,
                      "target_lang": lang, "class": class_filter,
                      "variant": variant, "results": [], "skipped_pairs": 0,
                      "no_context": not seed_ctx.entries}
            records.append(record)
            if not seed_ctx.entries:
                continue
            scored = []
            for cand in sorted({r.antecedent for r in mined[lang]}):
                cand_ctx = build_context(mined[lang], cand)
                cand_vecs = vectors(cand_ctx, lang)
                if not seed_vecs or not cand_vecs:
                    continue
                value, skipped = _brute_force_context_sim(
                    seed_ctx, cand_ctx, seed_vecs, cand_vecs, variant)
                record["skipped_pairs"] += skipped
                scored.append((cand, value))
            scored.sort(key=lambda t: (-t[1], t[0]))
            record["results"] = [{"word": w, "score": v} for w, v in scored[:top_m]]
    return records


@pytest.fixture(scope="module")
def skewed_datasets(trilingual):
    """Per language, documents over Zipf-weighted fixture words mixed with
    words that have no vector, so contexts lose pairs to missing vectors."""
    vocab_words = trilingual.words[:40]
    datasets = {}
    for i, lang in enumerate(LANGS):
        rng = np.random.default_rng(31 + i)
        words = vocab_words + [f"{lang}oov{j}" for j in range(8)]
        weights = 1.0 / np.arange(1, len(words) + 1)
        order = rng.permutation(len(words))
        docs = []
        for d in range(300):
            picks = rng.choice(len(words), size=6, p=weights / weights.sum())
            docs.append(([words[order[p]] for p in picks],
                         HATE if d % 3 else NON_HATE))
        datasets[lang] = LabeledDataset(lang, docs)
    return datasets


@pytest.mark.parametrize("variant", ["literal", "bounded"])
def test_report_matches_scalar_reference(trilingual, skewed_datasets, variant):
    tri = trilingual
    mined = _mined(skewed_datasets, {"top_n_antecedents": 25, "min_support": 0.02,
                                     "min_confidence": 0.1},
                   stopwords={"es": frozenset(tri.words[:3])})
    seeds = tri.words[:12] + ["enoov0", "never-seen"]
    args = (seeds, "en", mined, HATE, tri.model, tri.spaces)
    got = cross_lingual_report(*args, top_m=100, variant=variant)
    want = _scalar_report(*args, top_m=100, variant=variant)
    assert any(rec["no_context"] for rec in want)
    assert any(rec["skipped_pairs"] for rec in want)
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        assert {k: v for k, v in rec.items() if k != "results"} == {
            k: v for k, v in ref.items() if k != "results"}
        assert [r["word"] for r in rec["results"]] == [r["word"] for r in ref["results"]]
        for r, q in zip(rec["results"], ref["results"]):
            assert abs(r["score"] - q["score"]) < 1e-12


def test_source_language_without_dataset(tmp_path, capsys):
    """context-sim refuses a source language without a dataset before it
    reads any file: the files named here do not exist."""
    gone = str(tmp_path / "missing")
    assert main(["context-sim", "--model", gone, "--embeddings", f"fr={gone}",
                 "--dataset", f"en={gone}", "--seed-terms", "x0",
                 "--source-lang", "fr"]) == 1
    assert ("crosslex: configuration error: source language 'fr' has no "
            "dataset; pass one with --dataset fr=PATH") in capsys.readouterr().err


def test_source_language_dataset_alone(tmp_path, capsys):
    """context-sim refuses a run with no target-language dataset before it
    reads any file: the files named here do not exist."""
    gone = str(tmp_path / "missing")
    assert main(["context-sim", "--model", gone, "--embeddings", f"en={gone}",
                 "--dataset", f"en={gone}", "--seed-terms", "x0",
                 "--source-lang", "en"]) == 1
    assert ("crosslex: configuration error: no target language: pass a "
            "--dataset in a language other than 'en'") in capsys.readouterr().err
