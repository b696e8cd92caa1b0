"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (visible with ``pytest -s tests/test_acceptance.py``)."""

import json
import os
import random
import time

import numpy as np
import pytest

from crosslex import (
    BilingualLexicon,
    EmbeddingSpace,
    SgnsConfig,
    bli_precision_at_k,
    cosine,
    fit_cca,
    fit_hub_alignment,
    load_alignment,
    load_embeddings,
    met_sim,
    project,
    save_alignment,
    save_embeddings,
    split_dataset,
    train_sgns,
    zero_shot_eval,
)
from crosslex.classify import ClassifyConfig, metrics_from_counts
from crosslex.cli import main
from crosslex.contextsim import BOUNDED, LITERAL, context_sim
from crosslex.rules import WordContext, mine_rules

from conftest import build_trilingual, planted_pair_corpus, write_embedding_file
from test_alignment import oracle_correlations, random_pair
from test_rules import brute_force_rules

CLASSIFY_CFG = ClassifyConfig(epochs=500, learning_rate=2.0, l2=1e-5)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def test_01_cca_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n, d in ((6, 2), (20, 5), (100, 10)):
        X, Y = random_pair(n, d, seed=n * 7 + d)
        res = fit_cca(X, Y, lam=0.0, kept_ratio=1.0)
        oracle = oracle_correlations(X, Y)[:d]
        worst = max(worst, float(np.max(np.abs(res.correlations - oracle))))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-6 and elapsed < 1.0,
           f"(max dev {worst:.2e}, {elapsed:.3f}s)")


def test_02_cca_invariance():
    X, Y = random_pair(60, 2, seed=6)
    base = fit_cca(X, Y, lam=0.0, kept_ratio=1.0).correlations
    rng = np.random.default_rng(7)
    worst_tf = 0.0
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        while abs(np.linalg.det(A)) < 1e-3:
            A = rng.normal(size=(2, 2))
        res = fit_cca(X @ A, Y, lam=0.0, kept_ratio=1.0)
        worst_tf = max(worst_tf, float(np.max(np.abs(res.correlations - base))))
    dup = fit_cca(np.vstack([X, X]), np.vstack([Y, Y]), lam=0.0, kept_ratio=1.0)
    dup_dev = float(np.max(np.abs(dup.correlations - base)))
    report(2, worst_tf < 1e-6 and dup_dev < 1e-9,
           f"(transform dev {worst_tf:.2e}, duplication dev {dup_dev:.2e})")


def test_03_identity_alignment(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    en = spaces["en"]
    worst = max(
        float(np.max(np.abs(project(model, w, "xx", spaces)
                            - en.vectors[en.vocab[w]])))
        for w in spaces["xx"].words
    )
    p1 = bli_precision_at_k(model, spaces, lex, k=1).precision
    report(3, worst < 1e-5 and p1 == 1.0, f"(max dev {worst:.2e}, P@1 {p1})")


def test_04_trilingual_recovery():
    start = time.perf_counter()
    tri = build_trilingual()
    precisions = {}
    for lang in ("es", "it"):
        res = bli_precision_at_k(
            tri.model, tri.spaces, tri.validation_lexicon(lang), k=1
        )
        precisions[lang] = res.precision
    elapsed = time.perf_counter() - start
    ok = all(p >= 0.95 for p in precisions.values()) and elapsed < 10.0
    report(4, ok, f"(P@1 {precisions}, {elapsed:.2f}s)")


def test_05_zero_shot_transfer(trilingual_labeled):
    tri = trilingual_labeled
    start = time.perf_counter()
    langs = ("en", "es", "it")
    mono = {}
    for lang in langs:
        train, _, test = split_dataset(tri.datasets[lang], seed=0)
        mono[lang] = zero_shot_eval(
            train, test, tri.model, tri.spaces, CLASSIFY_CFG,
            allow_same_language=True,
        ).f1
    f1s = {}
    for src in langs:
        for tgt in langs:
            if src == tgt:
                continue
            f1s[f"{src}->{tgt}"] = zero_shot_eval(
                tri.datasets[src], tri.datasets[tgt], tri.model, tri.spaces,
                CLASSIFY_CFG,
            ).f1
    elapsed = time.perf_counter() - start
    floor_ok = all(f >= 0.80 for f in f1s.values())
    gap = max(
        abs(f1s[f"{s}->{t}"] - mono[s])
        for s in langs for t in langs if s != t
    )
    ok = floor_ok and gap <= 0.05 and elapsed < 30.0
    report(5, ok,
           f"(min F1 {min(f1s.values()):.3f}, mono gap {gap:.3f}, {elapsed:.1f}s)")


def test_06_rule_miner_oracle():
    worst = 0.0
    for seed in range(50):
        rand = random.Random(1000 + seed)
        docs = [
            [f"w{rand.randrange(10)}" for _ in range(rand.randrange(1, 7))]
            for _ in range(rand.randrange(2, 21))
        ]
        mined = mine_rules(docs, 5, min_support=0.1, min_confidence=0.2)
        expected = brute_force_rules(docs, 5, 0.1, 0.2)
        assert [(r.antecedent, r.consequent) for r in mined] == [
            (r.antecedent, r.consequent) for r in expected
        ]
        for a, b in zip(mined, expected):
            worst = max(worst, abs(a.support - b.support),
                        abs(a.confidence - b.confidence))
    report(6, worst < 1e-12, f"(50 corpora, max metric dev {worst:.2e})")


def test_07_similarity_formulas():
    cases = [((0.3, 0.9), (0.3, 0.9)), ((0.4, 0.8), (0.2, 0.6)),
             ((0.3, 0.9), (0.3, 0.5))]
    literal = [met_sim(a, b, LITERAL) for a, b in cases]
    bounded = [met_sim(a, b, BOUNDED) for a, b in cases]
    values_ok = (
        np.allclose(literal, [1.0, 1.0, 1.2])
        and np.allclose(bounded, [1.0, 0.8, 0.8])
    )

    rng = np.random.default_rng(31)
    sym_ok = True
    for _ in range(20):
        ca = WordContext("x", {f"a{i}": tuple(rng.random(2)) for i in range(3)})
        cb = WordContext("y", {f"b{i}": tuple(rng.random(2)) for i in range(2)})
        va = {w: rng.normal(size=4) for w in ca.entries}
        vb = {w: rng.normal(size=4) for w in cb.entries}
        f, _ = context_sim(ca, cb, va, vb, LITERAL)
        r, _ = context_sim(cb, ca, vb, va, LITERAL)
        sym_ok = sym_ok and abs(f - r) < 1e-12

    u = rng.normal(size=4)
    v = rng.normal(size=4)
    single_a = WordContext("x", {"u": (0.3, 0.4)})
    single_b = WordContext("y", {"v": (0.2, 0.7)})
    from crosslex import word_sim

    collapse, _ = context_sim(single_a, single_b, {"u": u}, {"v": v}, LITERAL)
    collapse_ok = abs(
        collapse - word_sim((0.3, 0.4), (0.2, 0.7), u, v, LITERAL)
    ) < 1e-12

    entries = {f"w{i}": tuple(rng.random(2)) for i in range(4)}
    vecs = {w: rng.normal(size=4) for w in entries}
    self_sim, _ = context_sim(
        WordContext("x", dict(entries)), WordContext("x", dict(entries)),
        vecs, vecs, BOUNDED,
    )
    self_ok = abs(self_sim - 1.0) < 1e-9
    report(7, values_ok and sym_ok and collapse_ok and self_ok,
           f"(literal {literal}, bounded {bounded})")


def test_08_sgns_sanity():
    corpus, pairs = planted_pair_corpus(n_pairs=20, reps=30, seed=3)
    cfg = SgnsConfig(dim=16, window=3, negatives=5, epochs=25,
                     learning_rate=0.025, min_count=1, subsample_t=0.0,
                     rng_seed=7)
    space = train_sgns(corpus, cfg)
    vec = dict(zip(space.words, space.vectors))
    planted = np.mean([cosine(vec[p], vec[q]) for p, q in pairs])
    rng = np.random.default_rng(9)
    unplanted = []
    while len(unplanted) < 20:
        i, j = rng.integers(0, len(pairs), size=2)
        if i == j:
            continue
        unplanted.append(cosine(vec[pairs[i][0]], vec[pairs[j][0]]))
    gap = planted - np.mean(unplanted)
    rerun = train_sgns(corpus, cfg)
    identical = np.array_equal(space.vectors, rerun.vectors)
    report(8, gap >= 0.2 and identical,
           f"(gap {gap:.3f}, bit-identical {identical})")


def test_09_metrics_arithmetic():
    m = metrics_from_counts(tp=2, fp=1, fn=1, tn=6)
    exact = (m.precision == 2 / 3 and m.recall == 2 / 3 and m.f1 == 2 / 3)
    degenerate = (
        metrics_from_counts(0, 0, 5, 5).f1 == 0.0
        and metrics_from_counts(0, 3, 0, 7).f1 == 0.0
        and metrics_from_counts(5, 0, 0, 5).f1 == 1.0
    )
    report(9, exact and degenerate, f"(P=R=F1={m.f1:.6f})")


def test_10_real_data_class_counts():
    path = os.environ.get("CROSSLEX_DATASET_IT")
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 10: SKIP (set CROSSLEX_DATASET_IT to the Italian "
              "labeled dataset to enable)")
        pytest.skip("real Italian dataset not supplied")
    from crosslex import load_labeled_dataset
    from crosslex.rules import HATE, NON_HATE

    ds = load_labeled_dataset(path, "it")
    counts = ds.class_counts()
    ok = counts[HATE] == 1291 and counts[NON_HATE] == 5637
    report(10, ok, f"(counts {dict(counts)})")


def _pipeline_run(base, out_dir):
    """Full CLI pipeline on bundled synthetic corpora; returns output files."""
    langs = ("en", "es", "it")
    emb_flags = []
    for lang in langs:
        filtered = out_dir / f"{lang}.filtered.txt"
        assert main([
            "filter-corpus", "--input", str(base / f"{lang}.corpus.txt"),
            "--seeds", str(base / f"{lang}.seeds.txt"),
            "--output", str(filtered),
        ]) == 0
        vec = out_dir / f"{lang}.vec"
        assert main([
            "train-embeddings", "--corpus", str(filtered),
            "--language", lang, "--output", str(vec),
            "--set", "sgns.dim=8", "--set", "sgns.epochs=3",
            "--set", "sgns.min_count=1", "--set", "sgns.subsample_t=0",
            "--set", "sgns.rng_seed=11",
        ]) == 0
        emb_flags += ["--embeddings", f"{lang}={vec}"]
    model_dir = out_dir / "model"
    assert main([
        "align", "--pivot", "en", *emb_flags,
        "--lexicon", f"es={base / 'es.lex.tsv'}",
        "--lexicon", f"it={base / 'it.lex.tsv'}",
        "--holdout", "--output", str(model_dir),
    ]) == 0
    bli_out = out_dir / "bli.jsonl"
    assert main([
        "bli", "--model", str(model_dir), *emb_flags,
        "--validation", f"es={model_dir / 'validation_es.tsv'}",
        "--validation", f"it={model_dir / 'validation_it.tsv'}",
        "--k", "5", "--output", str(bli_out),
    ]) == 0
    cls_out = out_dir / "cls.jsonl"
    assert main([
        "classify", "--model", str(model_dir), *emb_flags,
        "--train", f"en={base / 'en.labeled.tsv'}",
        "--test", f"es={base / 'es.labeled.tsv'}",
        "--set", "classify.epochs=50",
        "--output", str(cls_out),
    ]) == 0
    files = sorted(
        p for p in out_dir.rglob("*") if p.is_file()
    )
    return files


def _write_pipeline_inputs(base):
    rand = random.Random(19)
    langs = ("en", "es", "it")
    shared = [f"w{i}" for i in range(30)]
    for lang in langs:
        words = [f"{lang}{w}" for w in shared]
        bad = f"{lang}bad"
        lines = []
        for i in range(80):
            toks = [rand.choice(words) for _ in range(5)]
            if i % 2 == 0:
                toks[rand.randrange(5)] = bad
            lines.append(" ".join(toks))
        (base / f"{lang}.corpus.txt").write_text(
            "\n".join(lines) + "\n"
        )
        (base / f"{lang}.seeds.txt").write_text(f"# seeds\n{bad}\n")
        labeled = []
        for i in range(40):
            toks = [rand.choice(words) for _ in range(4)]
            label = 1 if i % 3 == 0 else 0
            if label:
                toks.append(bad)
            labeled.append(f"{label}\t{' '.join(toks)}")
        (base / f"{lang}.labeled.tsv").write_text("\n".join(labeled) + "\n")
    for lang in ("es", "it"):
        rows = [f"en{w}\t{lang}{w}" for w in shared] + [f"enbad\t{lang}bad"]
        (base / f"{lang}.lex.tsv").write_text("\n".join(rows) + "\n")


def _comparable_bytes(path):
    if path.name.endswith("manifest.json"):
        data = json.loads(path.read_text())
        data.pop("timestamp", None)
        # input paths differ between run directories; keep basename + checksum
        data["inputs"] = {
            os.path.basename(k): v for k, v in data.get("inputs", {}).items()
        }
        return json.dumps(data, sort_keys=True).encode()
    return path.read_bytes()


def test_11_roundtrips_and_cli_reproducibility(tmp_path, trilingual):
    tri = trilingual
    # embeddings round-trip
    vec_path = tmp_path / "es.vec"
    save_embeddings(tri.spaces["es"], vec_path)
    again = load_embeddings(vec_path, "es")
    emb_drift = float(np.max(np.abs(again.vectors - tri.spaces["es"].vectors)))
    # alignment model round-trip
    save_alignment(tri.model, tmp_path / "model")
    model2 = load_alignment(tmp_path / "model")
    word = tri.val_words[0]
    model_drift = float(np.max(np.abs(
        project(tri.model, word, "it", tri.spaces)
        - project(model2, word, "it", tri.spaces)
    )))
    # CLI end-to-end, twice, byte-compared
    base = tmp_path / "inputs"
    base.mkdir()
    _write_pipeline_inputs(base)
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    files_a = _pipeline_run(base, run_a)
    files_b = _pipeline_run(base, run_b)
    names_a = [p.relative_to(run_a) for p in files_a]
    names_b = [p.relative_to(run_b) for p in files_b]
    identical = names_a == names_b and all(
        _comparable_bytes(a) == _comparable_bytes(b)
        for a, b in zip(files_a, files_b)
    )
    ok = emb_drift <= 1e-6 and model_drift <= 1e-6 and identical
    report(11, ok,
           f"(emb drift {emb_drift:.2e}, model drift {model_drift:.2e}, "
           f"byte-identical {identical})")
