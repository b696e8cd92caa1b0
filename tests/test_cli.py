import argparse
import collections
import configparser
import dataclasses
import functools
import hashlib
import json
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crosslex
from crosslex import config, embedding_store, errors, manifest
from crosslex.cli import main
from crosslex.errors import ConfigurationError

from conftest import (
    REFIT, mostly, planted_pair_corpus, record_map, unmarked,
    write_embedding_file, write_mini_inputs)


@pytest.fixture
def mini_pipeline_inputs(tmp_path):
    return write_mini_inputs(tmp_path)


def test_unknown_subcommand_usage_error(capsys):
    assert main(["no-such-command"]) == 1


def test_no_subcommand_shows_help(capsys):
    assert main([]) == 1


def test_filter_corpus_command(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("keep me please\ndrop me\nme too keep\n")
    seeds = tmp_path / "s.txt"
    seeds.write_text("keep\n")
    out = tmp_path / "out" / "filtered.txt"
    assert main(["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
                 "--output", str(out)]) == 0
    assert out.read_text().splitlines() == ["keep me please", "me too keep"]
    manifest = json.loads(
        (tmp_path / "out" / "filtered.txt.manifest.json").read_text()
    )
    assert manifest["command"] == "filter-corpus"
    assert len(manifest["inputs"]) == 2


def test_filter_corpus_empty_seeds_is_config_error(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a\n")
    seeds = tmp_path / "s.txt"
    seeds.write_text("# only comments\n")
    out = tmp_path / "f.txt"
    assert main(["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
                 "--output", str(out)]) == 1


def test_filter_corpus_seed_the_tokenizer_never_yields_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("#hate_speech now\n")
    seeds = tmp_path / "s.txt"
    seeds.write_text("hate\nhate_speech\n")
    out = tmp_path / "f.txt"
    assert main(["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {seeds}: seed term 'hate_speech' can "
        "never match: it tokenizes as ['hate', 'speech'] (line 2)\n")
    assert not out.exists()


def test_align_insufficient_overlap_exit_2(mini_pipeline_inputs, tmp_path):
    inp = mini_pipeline_inputs
    bad_lex = tmp_path / "bad.tsv"
    bad_lex.write_text("ghost\tfantasma\n")
    code = main([
        "align", "--pivot", "en",
        "--embeddings", f"en={inp['en']}", "--embeddings", f"es={inp['es']}",
        "--lexicon", f"es={bad_lex}",
        "--output", str(tmp_path / "model"),
    ])
    assert code == 2


def test_align_knn_bli_classify_pipeline(mini_pipeline_inputs, tmp_path, capsys):
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = ["--embeddings", f"en={inp['en']}", "--embeddings", f"es={inp['es']}"]
    assert main([
        "align", "--pivot", "en", *emb,
        "--lexicon", f"es={inp['lexicon']}",
        "--holdout", "--set", "alignment.kept_ratio=1.0",
        "--output", str(model_dir),
    ]) == 0
    assert (model_dir / "metadata.json").exists()
    assert (model_dir / "validation_es.tsv").exists()

    knn_out = tmp_path / "knn.jsonl"
    assert main([
        "knn", "--model", str(model_dir), *emb,
        "--word", "en3", "--lang", "en", "--target", "es", "--k", "5",
        "--set", "alignment.kept_ratio=1.0",
        "--output", str(knn_out),
    ]) == 0
    records = [json.loads(l) for l in knn_out.read_text().splitlines()]
    assert len(records) == 5
    assert records[0]["word"] == "es3"  # aligned twin

    bli_out = tmp_path / "bli.jsonl"
    assert main([
        "bli", "--model", str(model_dir), *emb,
        "--validation", f"es={model_dir / 'validation_es.tsv'}",
        "--k", "1", "--output", str(bli_out),
    ]) == 0
    rec = json.loads(bli_out.read_text().splitlines()[0])
    assert rec["precision"] == 1.0

    detailed_out = tmp_path / "bli_detailed.jsonl"
    assert main([
        "bli", "--model", str(model_dir), *emb,
        "--validation", f"es={model_dir / 'validation_es.tsv'}",
        "--k", "2", "--detailed", "--output", str(detailed_out),
    ]) == 0
    detailed = [json.loads(l) for l in detailed_out.read_text().splitlines()]
    assert "precision" in detailed[-1]  # summary record comes last
    per_word = detailed[:-1]
    assert per_word and all(len(r["neighbors"]) == 2 for r in per_word)

    cls_out = tmp_path / "cls.jsonl"
    assert main([
        "classify", "--model", str(model_dir), *emb,
        "--train", f"en={inp['datasets']['en']}",
        "--test", f"es={inp['datasets']['es']}",
        "--set", "classify.epochs=50",
        "--output", str(cls_out),
    ]) == 0
    rec = json.loads(cls_out.read_text().splitlines()[0])
    assert set(rec) >= {"f1", "precision", "recall", "tp", "fp", "fn", "tn"}


def _aligned_model(inp, model_dir):
    """Align the mini fixture into ``model_dir``; returns the embedding flags."""
    emb = ["--embeddings", f"en={inp['en']}", "--embeddings", f"es={inp['es']}"]
    assert main([
        "align", "--pivot", "en", *emb, "--lexicon", f"es={inp['lexicon']}",
        "--output", str(model_dir),
    ]) == 0
    return emb


def test_monolingual_classify_reads_its_one_file_once(mini_pipeline_inputs,
                                                      tmp_path, monkeypatch):
    """A --train file that is also the --test file is read once and split."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    reads = []

    def counted(path, *args):
        reads.append(path)
        return crosslex.load_labeled_dataset(path, *args)

    monkeypatch.setattr(crosslex.cli, "load_labeled_dataset", counted)
    en = str(inp["datasets"]["en"])
    out = tmp_path / "mono.jsonl"
    assert main(["classify", "--model", str(model_dir), *emb, "--train",
                 f"en={en}", "--test", f"en={en}", "--output", str(out)]) == 0
    assert reads == [en]
    train, _, test = crosslex.split_dataset(crosslex.load_labeled_dataset(en, "en"))
    spaces = {"en": crosslex.load_embeddings(inp["en"], "en")}
    want = crosslex.zero_shot_eval(train, test, crosslex.load_alignment(model_dir),
                                   spaces, allow_same_language=True)
    [record] = [json.loads(line) for line in out.read_text().splitlines()]
    assert [record[key] for key in ("tp", "fp", "fn", "tn")] == [
        want.tp, want.fp, want.fn, want.tn]
    manifest = json.loads((tmp_path / "mono.jsonl.manifest.json").read_text())
    assert manifest["config"]["classify"]["split_seed"] == 0
    assert "seeds" not in manifest
    assert [path for path in manifest["inputs"] if path.endswith(".tsv")] == [en]


@pytest.mark.parametrize("test_path", ["./en.tsv", "link.tsv"])
def test_monolingual_classify_knows_its_one_file_by_identity(
        mini_pipeline_inputs, tmp_path, monkeypatch, test_path):
    """A --test path that spells the --train file another way, or links to
    it, splits that one file as the identical spelling does."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    monkeypatch.chdir(inp["datasets"]["en"].parent)
    (tmp_path / "link.tsv").symlink_to(inp["datasets"]["en"])
    argv = ["classify", "--model", str(model_dir), *emb, "--train", "en=en.tsv",
            "--output"]
    assert main([*argv, str(tmp_path / "same.jsonl"), "--test", "en=en.tsv"]) == 0
    assert main([*argv, str(tmp_path / "other.jsonl"), "--test",
                 f"en={test_path}"]) == 0
    same = (tmp_path / "same.jsonl").read_text()
    assert (tmp_path / "other.jsonl").read_text() == same
    record = json.loads(same)
    assert sum(record[key] for key in ("tp", "fp", "fn", "tn")) < 40  # a split
    manifest = json.loads((tmp_path / "other.jsonl.manifest.json").read_text())
    assert [path for path in manifest["inputs"] if path.endswith(".tsv")] == [
        "en.tsv"]


def test_same_language_classify_tests_on_another_file(mini_pipeline_inputs,
                                                      tmp_path):
    """A --test file in the --train language that is not the --train file
    is tested on whole, and both files are in the manifest."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    en = str(inp["datasets"]["en"])
    copy = tmp_path / "copy.tsv"
    shutil.copyfile(en, copy)
    out = tmp_path / "copy.jsonl"
    assert main(["classify", "--model", str(model_dir), *emb, "--train",
                 f"en={en}", "--test", f"en={copy}", "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["monolingual"] is True
    docs = len(crosslex.load_labeled_dataset(copy, "en").docs)
    assert sum(record[key] for key in ("tp", "fp", "fn", "tn")) == docs
    manifest = json.loads((tmp_path / "copy.jsonl.manifest.json").read_text())
    assert {path for path in manifest["inputs"] if path.endswith(".tsv")} == {
        en, str(copy)}


def test_classify_has_no_monolingual_flag(mini_pipeline_inputs, tmp_path, capsys):
    inp = mini_pipeline_inputs
    en = str(inp["datasets"]["en"])
    assert main(["classify", "--model", str(tmp_path / "model"), "--embeddings",
                 f"en={inp['en']}", "--train", f"en={en}", "--test", f"en={en}",
                 "--monolingual"]) == 1
    assert "unrecognized arguments: --monolingual" in capsys.readouterr().err


def test_monolingual_classify_missing_test_file_exits_2(mini_pipeline_inputs,
                                                        tmp_path, capsys):
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    gone = tmp_path / "gone.tsv"
    capsys.readouterr()
    assert main(["classify", "--model", str(model_dir), *emb, "--train",
                 f"en={inp['datasets']['en']}", "--test", f"en={gone}"]) == 2
    assert capsys.readouterr().err == (
        f"crosslex: i/o error: [Errno 2] No such file or directory: '{gone}'\n")


def test_context_sim_seed_terms_are_lowercased(mini_pipeline_inputs, tmp_path):
    """--seed-terms match mined words as filter-corpus seeds match tokens."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    argv = ["context-sim", "--model", str(model_dir), *emb,
            "--dataset", f"en={inp['datasets']['en']}",
            "--dataset", f"es={inp['datasets']['es']}", "--source-lang", "en"]
    written = []
    for seeds in ("en1,en3", "EN1,En3"):
        out = tmp_path / f"{seeds}.jsonl"
        assert main([*argv, "--seed-terms", seeds, "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0]
    records = [json.loads(line) for line in written[0].splitlines()]
    assert {rec["seed"] for rec in records} == {"en1", "en3"}
    assert not any(rec["no_context"] for rec in records)


def test_context_sim_takes_each_seed_term_once(mini_pipeline_inputs, tmp_path):
    """--seed-terms items are stripped, as a seed file's lines are, and a
    term given twice in any case is scored once."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    argv = ["context-sim", "--model", str(model_dir), *emb,
            "--dataset", f"en={inp['datasets']['en']}",
            "--dataset", f"es={inp['datasets']['es']}", "--source-lang", "en"]
    written = []
    for name, seeds in (("once", "en1"), ("twice", "en1, EN1")):
        out = tmp_path / f"{name}.jsonl"
        assert main([*argv, "--seed-terms", seeds, "--output", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0]


def test_a_seed_without_rules_warns_once_with_the_prefix(mini_pipeline_inputs,
                                                        tmp_path, capsys):
    """A library warning reaches stderr through the CLI's one handler, with
    the prefix of every other diagnostic, however often main runs in one
    process."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    argv = ["context-sim", "--model", str(model_dir), *emb,
            "--dataset", f"en={inp['datasets']['en']}",
            "--dataset", f"es={inp['datasets']['es']}", "--source-lang", "en",
            "--seed-terms", "zzz"]
    for _ in range(2):
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "crosslex: warning: word 'zzz' has no mined rules; empty context\n")


def _knn(model_dir, emb):
    return main([
        "knn", "--model", str(model_dir), *emb,
        "--word", "en3", "--lang", "en", "--target", "es", "--k", "5",
    ])


def test_knn_one_word_space_writes_truncated_record(mini_pipeline_inputs, tmp_path):
    """A query alone in its own language's space has no neighbour."""
    model_dir = tmp_path / "model"
    _aligned_model(mini_pipeline_inputs, model_dir)
    one = tmp_path / "one.vec"
    write_embedding_file(one, ["en3"], np.ones((1, 10)))
    out = tmp_path / "knn.jsonl"
    assert main(["knn", "--model", str(model_dir), "--embeddings", f"en={one}",
                 "--word", "en3", "--lang", "en", "--target", "en", "--k", "1",
                 "--output", str(out)]) == 0
    assert out.read_text() == '{"query": "en3", "truncated": true}\n'


def test_knn_corrupt_metadata_exits_2(mini_pipeline_inputs, tmp_path, capsys):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    meta = model_dir / "metadata.json"
    meta.write_text("{not json")
    capsys.readouterr()
    assert _knn(model_dir, emb) == 2
    err = capsys.readouterr().err
    assert f"{meta}: invalid JSON" in err
    assert "(line 1)" in err
    assert "Traceback" not in err
    meta.write_text('{"pivot_lang": "en"}')
    assert _knn(model_dir, emb) == 2
    assert "metadata lacks shared_dim" in capsys.readouterr().err


def test_knn_mismatched_mat_blocks_exit_2(mini_pipeline_inputs, tmp_path, capsys):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    mat = model_dir / "es.mat"
    lines = mat.read_text().splitlines(keepends=True)
    assert lines[11] == "1 10\n"  # the b block, after the 10 x 10 W block
    lines[11] = "1 5\n"  # a 1x5 offset for the 10-dimensional space
    lines[12] = " ".join(lines[12].split()[:5]) + "\n"
    mat.write_text("".join(lines))
    capsys.readouterr()
    assert _knn(model_dir, emb) == 2
    err = capsys.readouterr().err
    assert f"{mat}: b block has 5 values, expected 10 (W's columns) (line 12)" in err


def test_knn_map_that_does_not_fit_the_space_exits_2(mini_pipeline_inputs,
                                                     tmp_path, capsys):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    # An es.mat, recorded in metadata.json, whose blocks agree with each
    # other: a 5 x 10 W and a 1 x 10 b.
    record_map(model_dir, "es",
               "5 10\n" + "0.1 " * 9 + "0.1\n" + ("0.0 " * 9 + "0.0\n") * 4
               + "1 10\n" + "0.0 " * 9 + "0.0\n")
    capsys.readouterr()
    assert _knn(model_dir, emb) == 2
    err = capsys.readouterr().err
    assert (f"crosslex: error: {mini_pipeline_inputs['es']} does not fit "
            f"{model_dir}: the es map takes 5 dimensions to 10, but the es "
            "space has 10 and the shared space 10\n") in err
    assert "Traceback" not in err


def test_align_records_its_preparation(mini_pipeline_inputs, tmp_path):
    model_dir = tmp_path / "model"
    _aligned_model(mini_pipeline_inputs, model_dir)
    meta = json.loads((model_dir / "metadata.json").read_text())
    assert meta["format"] == 2 and meta["normalize"] is True
    assert len(meta["correlations"]["es"]) == 8  # ceil(0.8 * 10) directions
    config = json.loads((model_dir / "manifest.json").read_text())["config"]
    assert "normalize" not in config["alignment"]


def test_diagnostics_go_to_stderr(mini_pipeline_inputs, tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("keep a b c\nskip d e\n" * 10)
    seeds = tmp_path / "s.txt"
    seeds.write_text("keep\n")
    filtered = tmp_path / "filtered.txt"
    capsys.readouterr()
    assert main(["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
                 "--output", str(filtered)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and "kept 10 of 20 lines" in captured.err
    assert main(["train-embeddings", "--corpus", str(filtered), "--language",
                 "en", "--set", "sgns.dim=4", "--set", "sgns.min_count=1",
                 "--set", "sgns.epochs=1",
                 "--output", str(tmp_path / "trained" / "en.vec")]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and "trained 4 x 4 vectors" in captured.err
    _aligned_model(mini_pipeline_inputs, tmp_path / "model")
    captured = capsys.readouterr()
    assert captured.out == "" and "en-es: 60 alignment pairs" in captured.err


def test_filter_corpus_invalid_utf8_exits_2_with_line(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"keep me\nkeep caf\xe9\n")
    seeds = tmp_path / "s.txt"
    seeds.write_text("keep\n")
    assert main(["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
                 "--output", str(tmp_path / "f.txt")]) == 2
    err = capsys.readouterr().err
    assert f"{corpus}: invalid UTF-8 bytes (line 2)" in err
    assert "Traceback" not in err


def test_sgns_workers_key_is_gone(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b c d\n" * 10)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sgns]\nworkers = 2\n")
    code = main([
        "train-embeddings", "--config", str(cfg), "--corpus", str(corpus),
        "--language", "en", "--output", str(tmp_path / "en.vec"),
    ])
    assert code == 1
    assert "unknown configuration key [sgns] workers" in capsys.readouterr().err
    assert not (tmp_path / "en.vec").exists()


def test_divergent_learning_rate_exits_1(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("".join(" ".join(line) + "\n"
                              for line in planted_pair_corpus(20, 30)[0]))
    out = tmp_path / "en.vec"
    code = main([
        "train-embeddings", "--corpus", str(corpus), "--language", "en",
        "--output", str(out), "--set", "sgns.learning_rate=1000",
        "--set", "sgns.dim=8", "--set", "sgns.epochs=2",
        "--set", "sgns.min_count=1", "--set", "sgns.subsample_t=0",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "crosslex: configuration error: [sgns] learning_rate 1000" in err
    assert list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize("section,key,raw", [
    ("sgns", "learning_rate", "nan"),
    ("sgns", "learning_rate", "inf"),
    ("sgns", "subsample_t", "nan"),
    ("alignment", "lambda", "-inf"),
])
def test_non_finite_float_key_exits_1(tmp_path, capsys, section, key, raw):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b c d\n" * 10)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    code = main([
        "train-embeddings", "--config", str(cfg), "--corpus", str(corpus),
        "--language", "en", "--output", str(tmp_path / "en.vec"),
    ])
    assert code == 1
    bound = "> 0" if key == "learning_rate" else ">= 0"
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {cfg}: [{section}] {key} must be finite "
        f"and {bound}, got {raw} (line 2)\n")
    assert not (tmp_path / "en.vec").exists()


def test_bli_detailed_matches_knn(mini_pipeline_inputs, tmp_path):
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = ["--embeddings", f"en={inp['en']}", "--embeddings", f"es={inp['es']}"]
    assert main([
        "align", "--pivot", "en", *emb,
        "--lexicon", f"es={inp['lexicon']}",
        "--holdout", "--output", str(model_dir),
    ]) == 0
    detailed_out = tmp_path / "bli_detailed.jsonl"
    assert main([
        "bli", "--model", str(model_dir), *emb,
        "--validation", f"es={model_dir / 'validation_es.tsv'}",
        "--k", "4", "--detailed", "--output", str(detailed_out),
    ]) == 0
    per_word = [json.loads(l) for l in detailed_out.read_text().splitlines()][:-1]
    assert len(per_word) > 1
    for rec in per_word:
        knn_out = tmp_path / "knn.jsonl"
        assert main([
            "knn", "--model", str(model_dir), *emb,
            "--word", rec["query"], "--lang", rec["query_lang"],
            "--target", rec["target_lang"], "--k", "4",
            "--output", str(knn_out),
        ]) == 0
        knn_records = [json.loads(l) for l in knn_out.read_text().splitlines()]
        assert rec["neighbors"] == [
            {"word": r["word"], "score": r["score"]} for r in knn_records
        ]


def test_mine_rules_command(tmp_path):
    ds = tmp_path / "ds.tsv"
    ds.write_text("1\tfoo bar\n1\tfoo bar baz\n0\tfoo baz\n")
    out = tmp_path / "rules.jsonl"
    assert main([
        "mine-rules", "--dataset", str(ds), "--language", "en",
        "--set", "mining.top_n=2",
        "--set", "mining.min_support=0.5",
        "--set", "mining.min_confidence=0.5",
        "--output", str(out),
    ]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert {"antecedent": "foo", "consequent": "bar",
            "support": pytest.approx(2 / 3, abs=1e-6),
            "confidence": pytest.approx(2 / 3, abs=1e-6)} in [
        {k: r[k] for k in ("antecedent", "consequent", "support", "confidence")}
        for r in records
    ]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[mining]\nbogus_key = 1\n")
    ds = tmp_path / "ds.tsv"
    ds.write_text("1\ta b\n0\tc d\n")
    assert main(["mine-rules", "--config", str(cfg), "--dataset", str(ds),
                 "--language", "en"]) == 1


def test_config_file_values_used(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[mining]\ntop_n = 1\nmin_support = 0.5\n"
                   "min_confidence = 0.5\n")
    ds = tmp_path / "ds.tsv"
    ds.write_text("1\tfoo bar\n1\tfoo bar\n")
    out = tmp_path / "rules.jsonl"
    assert main(["mine-rules", "--config", str(cfg), "--dataset", str(ds),
                 "--language", "en", "--output", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert {r["antecedent"] for r in records} == {"bar"}  # foo... top-1 by df tie -> 'bar'


def test_report_flattens_to_tsv(tmp_path):
    report = tmp_path / "r.jsonl"
    rows = [
        {"seed": "s1", "target_lang": "es",
         "results": [{"word": "w", "score": 0.9}], "no_context": False},
        {"seed": "s1", "target_lang": "it",
         "results": [], "no_context": True},
    ]
    # blank and whitespace-only lines are skipped
    report.write_text("\n" + "  \n\t\n".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "r.tsv"
    assert main(["report", "--input", str(report), "--output", str(out)]) == 0
    assert out.read_text() == "seed\tes\tit\ns1\tw (0.90)\t(no context)\n"


def _missing_language_argv(inp, model_dir, emb):
    """Per command, argv naming language fr, which has no --embeddings or
    --dataset, and the message it must exit 1 with."""
    common = ["--model", str(model_dir), *emb]
    fr_tsv = str(inp["datasets"]["es"])
    no_space = "language 'fr' has no --embeddings fr=PATH"
    return {
        "knn --target": (["knn", *common, "--word", "en3", "--lang", "en",
                          "--target", "fr"], f"--target {no_space}"),
        "bli --validation": (["bli", *common, "--validation",
                              f"fr={inp['lexicon']}"], f"--validation {no_space}"),
        "align --lexicon": (["align", "--pivot", "en", *emb, "--lexicon",
                             f"fr={inp['lexicon']}", "--output",
                             str(model_dir.parent / "fr_model")],
                            f"--lexicon {no_space}"),
        "classify --train": (["classify", *common, "--train", f"fr={fr_tsv}",
                              "--test", f"es={fr_tsv}"], f"--train {no_space}"),
        "classify --test": (["classify", *common, "--train", f"en={fr_tsv}",
                             "--test", f"fr={fr_tsv}"], f"--test {no_space}"),
        "context-sim --dataset": (
            ["context-sim", *common, "--dataset", f"en={fr_tsv}",
             "--dataset", f"fr={fr_tsv}", "--seed-terms", "en1",
             "--source-lang", "en"], f"--dataset {no_space}"),
        "context-sim --source-lang": (
            ["context-sim", *common, "--embeddings", f"fr={inp['es']}",
             "--dataset", f"es={fr_tsv}", "--seed-terms", "en1",
             "--source-lang", "fr"],
            "source language 'fr' has no dataset; pass one with --dataset fr=PATH"),
    }


@pytest.mark.parametrize("case", [
    "align --lexicon", "bli --validation", "classify --test", "classify --train",
    "context-sim --dataset", "context-sim --source-lang", "knn --target",
])
def test_missing_language_exits_1_naming_it(mini_pipeline_inputs, tmp_path,
                                             capsys, case):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    capsys.readouterr()
    argv, message = _missing_language_argv(mini_pipeline_inputs, model_dir, emb)[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"crosslex: configuration error: {message}" in err
    assert "Traceback" not in err


_PIVOT = "language 'en' is the pivot; name the language paired with it"


def _flag_fault_argv(missing, model_dir, out):
    """Per flag fault, argv in which every input the fault concerns is a
    ``missing`` file, and the message it must exit 1 with. Only bli reads a
    file first, the model that names its pivot."""
    emb = ["--embeddings", f"en={missing}", "--embeddings", f"es={missing}"]
    return {
        "align --lexicon pivot": (
            ["align", "--pivot", "en", *emb, "--lexicon", f"en={missing}",
             "--output", out],
            f"--lexicon {_PIVOT}"),
        "bli --validation pivot": (
            ["bli", "--model", str(model_dir), *emb, "--validation", f"en={missing}",
             "--output", out],
            f"--validation {_PIVOT}"),
    }


@pytest.mark.parametrize("case", ["align --lexicon pivot", "bli --validation pivot"])
def test_flag_fault_exits_1_before_reading_its_inputs(mini_pipeline_inputs,
                                                      tmp_path, capsys, case):
    """A flag combination that the command refuses exits 1 naming the flag,
    and writes no output and no manifest, although no input it concerns
    exists: reading one would exit 2."""
    model_dir = tmp_path / "model"
    _aligned_model(mini_pipeline_inputs, model_dir)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    argv, message = _flag_fault_argv(str(tmp_path / "missing"), model_dir,
                                     str(out_dir / "result"))[case]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"crosslex: configuration error: {message}\n"
    assert list(out_dir.iterdir()) == []


def _model_language_argv(inp, model_dir, emb):
    """Per command, argv that uses language fr, which has --embeddings (a
    file that does not exist) but is not in the en-es model."""
    common = ["--model", str(model_dir), *emb, "--embeddings",
              f"fr={model_dir.parent / 'missing.vec'}"]
    en_tsv, es_tsv = (str(inp["datasets"][lang]) for lang in ("en", "es"))
    return {
        "knn": ["knn", *common, "--word", "es1", "--lang", "fr", "--target", "en"],
        "bli": ["bli", *common, "--validation", f"fr={inp['lexicon']}"],
        "context-sim": ["context-sim", *common, "--dataset", f"en={en_tsv}",
                        "--dataset", f"fr={es_tsv}", "--seed-terms", "en1",
                        "--source-lang", "en"],
        "classify": ["classify", *common, "--train", f"fr={es_tsv}",
                     "--test", f"en={en_tsv}"],
    }


@pytest.mark.parametrize("command", ["bli", "classify", "context-sim", "knn"])
def test_language_not_in_model_exits_1_naming_the_model(mini_pipeline_inputs,
                                                        tmp_path, capsys, command):
    """The model is checked before any space is read: reading the missing
    fr space would exit 2."""
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    capsys.readouterr()
    argv = _model_language_argv(mini_pipeline_inputs, model_dir, emb)[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {model_dir}: language 'fr' not in "
        "alignment model\n")


@pytest.mark.parametrize("section,key,message", [
    ("paths", "output_dir", "unknown configuration section [paths]"),
    ("classify", "seed", "unknown configuration key [classify] seed"),
    ("tokenizer", "lowercase", "unknown configuration section [tokenizer]"),
    ("mining", "use_stopwords", "unknown configuration key [mining] use_stopwords"),
    ("alignment", "pivot", "unknown configuration key [alignment] pivot"),
    ("alignment", "normalize", "unknown configuration key [alignment] normalize"),
])
def test_removed_config_key_exits_1(tmp_path, capsys, section, key, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = 1\n")
    ds = tmp_path / "ds.tsv"
    ds.write_text("1\ta b\n0\tc d\n")
    assert main(["mine-rules", "--config", str(cfg), "--dataset", str(ds),
                 "--language", "en"]) == 1
    line = 1 if "section" in message else 2  # the header's or the key's
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {cfg}: {message} (line {line})\n")


# config file text -> the error it exits 1 with, after "<file>: "; the line
# counts comments and blank lines, a key is the text before the first "=" or
# ":", stripped and lowercased, and each line is read on its own.
CONFIG_FILE_ERRORS = {
    "[sgns]\ndim = 0\n": "[sgns] dim must be >= 2, got 0 (line 2)",
    "# run\n\n[bogus]\n": "unknown configuration section [bogus] (line 3)",
    "[sgns]\nepochs = 2\n\n[Mining]\ntop_n = 2\n":
        "unknown configuration section [Mining] (line 4)",
    "[sgns]\n; workers = 1\nwindow = 2\nworkers = 2\n":
        "unknown configuration key [sgns] workers (line 4)",
    "[sgns]\n  Dim  : abc\n": "[sgns] dim: expected int, got 'abc' (line 2)",
    "[mining]\ntop_n = 5\nmin_support = 1.5\n":
        "[mining] min_support must be in (0, 1], got 1.5 (line 3)",
    "[mining]\ntop_n = 5%\n": "[mining] top_n: expected int, got '5%' (line 2)",
    "[alignment]\nkept_ratio = maybe\n":
        "[alignment] kept_ratio: expected float, got 'maybe' (line 2)",
    "[DEFAULT]\ndim = 0\n[sgns]\nepochs = 1\n":
        "unknown configuration section [DEFAULT] (line 1)",
    "# run\nkept_ratio = 0.5\n[alignment]\n":
        "expected [section], or key = value under one, got 'kept_ratio = 0.5'"
        " (line 2)",
    "[sgns]\nepochs 2\n": "expected [section], or key = value under one, got "
                          "'epochs 2' (line 2)",
    "[sgns]\n= 2\n": "expected [section], or key = value under one, got '= 2'"
                     " (line 2)",
    "[sgns]\nepochs = 2\n[mining]\n[sgns]\n":
        "repeated configuration section [sgns] (line 4)",
    "[sgns]\nepochs = 2\nwindow = 3\nEpochs : 4\n":
        "repeated configuration key [sgns] epochs (line 4)",
    # the first bad line is named, whatever is wrong with a later one
    "[sgns]\ndim = 0\nepochs 2\n": "[sgns] dim must be >= 2, got 0 (line 2)",
    "[sgns]\nepochs 2\ndim = 0\n": "expected [section], or key = value under "
                                   "one, got 'epochs 2' (line 2)",
    # a value never continues onto the next line, however it is indented
    "[mining]\ntop_n =\n  5\n": "[mining] top_n: expected int, got '' (line 2)",
    "[mining]\ntop_n = 5\n  min_support = 2\n":
        "[mining] min_support must be in (0, 1], got 2.0 (line 3)",
}


@pytest.mark.parametrize("text", sorted(CONFIG_FILE_ERRORS))
def test_config_file_error_names_file_and_line(filter_inputs, tmp_path, capsys,
                                               text):
    argv, manifest = filter_inputs
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {cfg}: {CONFIG_FILE_ERRORS[text]}\n")
    assert not manifest.exists()


_SPACES = st.sampled_from(["", " ", "  ", "\t"])
_COMMENTS = st.builds(str.__add__, st.sampled_from("#;"),
                      st.text(alphabet="ab =:[]#;%", max_size=6))
# raw values besides a key's default; some are valid for some keys
_RAW_VALUES = ("0", "3", "-1", "0.5", "1e-3", "abc", "bounded", "2 3", "5%",
               "a=b:c", "")


@st.composite
def _config_texts(draw):
    """A config file of ``config._SCHEMA``'s sections and keys, each at most
    once, in the layouts that configparser reads as crosslex does: comment
    and blank lines, a note after a header, mixed-case keys, "=" or ":"
    with any spacing, and no indented line."""
    filler = st.lists(st.one_of(st.just(""), _COMMENTS), max_size=2)
    lines = draw(filler)
    sections = draw(st.lists(st.sampled_from(list(config._SCHEMA)), unique=True))
    for section in sections:
        note = draw(st.sampled_from(["", " ; note", "\t# [x"]))
        lines += [f"[{section}]{note}", *draw(filler)]
        for key in draw(st.lists(st.sampled_from(list(config._SCHEMA[section])),
                                 unique=True)):
            spelled = "".join(draw(st.sampled_from([c, c.upper()])) for c in key)
            raw = draw(mostly(st.just(str(config.default(section, key))),
                              *_RAW_VALUES, one_in=8))
            lines += [f"{spelled}{draw(_SPACES)}{draw(st.sampled_from('=:'))}"
                      f"{draw(_SPACES)}{raw}{draw(_SPACES)}", *draw(filler)]
    return "\n".join(lines) + "\n"


def _read_with_configparser(path):
    """The run config as configparser reads the file at ``path``, each
    value parsed by the reader's own ``_parse_value``."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.read(path, encoding="utf-8")
    cfg = config.load_config()
    for section in parser.sections():
        for key, raw in parser.items(section):
            cfg[section][key] = config._parse_value(section, key, raw)
    return cfg


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_config_reader_agrees_with_configparser(text):
    """On files that both read alike, load_config gives configparser's
    values, or the same first value error, with its file and line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            expected = _read_with_configparser(path)
        except ConfigurationError as err:
            with pytest.raises(ConfigurationError) as caught:
                config.load_config(path)
            assert str(caught.value).startswith(f"{path}: {err} (line ")
        else:
            assert config.load_config(path) == expected


_HELP = (["-h", "--help"], False, argparse.SUPPRESS, "help", None)
_CONFIG = [(["--config"], False, None, "config", None),
           (["--set"], False, [], "overrides", "SECTION.KEY=VALUE")]
_MODEL = [(["--model"], True, None, "model", None),
          (["--embeddings"], True, None, "embeddings", "LANG=PATH")]
_OUTPUT = (["--output"], False, None, "output", None)

# Per command: (option strings, required, default, dest, metavar) of each flag.
FLAG_TABLE = {
    "filter-corpus": [_HELP, *_CONFIG,
                      (["--input"], True, None, "input", None),
                      (["--seeds"], True, None, "seeds", None),
                      (["--output"], True, None, "output", None)],
    "train-embeddings": [_HELP, *_CONFIG,
                         (["--corpus"], True, None, "corpus", None),
                         (["--language"], True, None, "language", None),
                         (["--output"], True, None, "output", None)],
    "align": [_HELP, *_CONFIG,
              (["--embeddings"], True, None, "embeddings", "LANG=PATH"),
              (["--lexicon"], True, None, "lexicon", "LANG=PATH"),
              (["--pivot"], False, "en", "pivot", None),
              (["--holdout"], False, False, "holdout", None),
              (["--output"], True, None, "output", None)],
    "knn": [_HELP, *_CONFIG, *_MODEL,
            (["--word"], True, None, "word", None),
            (["--lang"], True, None, "lang", None),
            (["--target"], True, None, "target", None),
            (["--k"], False, 5, "k", None),
            _OUTPUT],
    "bli": [_HELP, *_CONFIG, *_MODEL,
            (["--validation"], True, None, "validation", "LANG=PATH"),
            (["--k"], False, 1, "k", None),
            (["--detailed"], False, False, "detailed", None),
            _OUTPUT],
    "mine-rules": [_HELP, *_CONFIG,
                   (["--dataset"], True, None, "dataset", None),
                   (["--language"], True, None, "language", None),
                   (["--class"], False, "all", "class_filter", None),
                   _OUTPUT],
    "context-sim": [_HELP, *_CONFIG, *_MODEL,
                    (["--dataset"], True, None, "dataset", "LANG=PATH"),
                    (["--seed-terms"], True, None, "seed_terms", None),
                    (["--source-lang"], True, None, "source_lang", None),
                    (["--class"], False, "hate", "class_filter", None),
                    _OUTPUT],
    "classify": [_HELP, *_CONFIG, *_MODEL,
                 (["--train"], True, None, "train", "LANG=PATH"),
                 (["--test"], True, None, "test", "LANG=PATH"),
                 _OUTPUT],
    "report": [_HELP,
               (["--input"], True, None, "input", None),
               _OUTPUT],
}


def test_flag_table_of_every_command():
    from crosslex.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    table = {
        name: [(a.option_strings, a.required, a.default, a.dest, a.metavar)
               for a in parser._actions]
        for name, parser in sub.choices.items()
    }
    assert table == FLAG_TABLE


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_command_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: crosslex {command}")


@pytest.fixture
def filter_inputs(tmp_path):
    """filter-corpus argv, and the path of the manifest it writes."""
    corpus = tmp_path / "c.txt"
    corpus.write_text("keep me\nKeep you\ndrop\n")
    seeds = tmp_path / "s.txt"
    seeds.write_text("keep\n")
    out = tmp_path / "f.txt"
    argv = ["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
            "--output", str(out)]
    return argv, tmp_path / "f.txt.manifest.json"


@pytest.mark.parametrize("override,message", [
    ("alignment.split_seed=maybe",
     "[alignment] split_seed: expected int, got 'maybe'"),
    ("sgns.dim=abc", "[sgns] dim: expected int, got 'abc'"),
    ("sgns.DIM=abc", "[sgns] dim: expected int, got 'abc'"),  # as in a file
])
def test_bad_override_value_exits_1(filter_inputs, capsys, override, message):
    argv, manifest = filter_inputs
    assert main([*argv, "--set", override]) == 1
    assert (f"crosslex: configuration error: {message}\n"
            == capsys.readouterr().err)
    assert not manifest.exists()


def test_unparsable_config_file_exits_1(filter_inputs, tmp_path, capsys):
    argv, manifest = filter_inputs
    cfg = tmp_path / "run.ini"
    cfg.write_text("kept_ratio = 0.5\n")
    assert main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {cfg}: expected [section], or key = "
        "value under one, got 'kept_ratio = 0.5' (line 1)\n")
    assert not manifest.exists()


def _align_argv(inp, model_dir):
    """align argv on the mini fixture, and the path of the manifest it writes."""
    return (["align", "--embeddings", f"en={inp['en']}", "--embeddings",
             f"es={inp['es']}", "--lexicon", f"es={inp['lexicon']}",
             "--output", str(model_dir)], model_dir / "manifest.json")


def test_set_overrides_config_file(mini_pipeline_inputs, tmp_path, capsys):
    model_dir = tmp_path / "model"
    argv, manifest = _align_argv(mini_pipeline_inputs, model_dir)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[alignment]\nKept_Ratio = 0.5\nsplit_seed = 7\n")
    assert main([*argv, "--config", str(cfg)]) == 0
    assert json.loads(manifest.read_text())["config"]["alignment"] == {
        "lambda": 1e-3, "kept_ratio": 0.5, "train_fraction": 0.8, "split_seed": 7}
    assert json.loads((model_dir / "metadata.json").read_text())["kept_ratio"] == 0.5
    assert main([*argv, "--config", str(cfg),
                 "--set", "alignment.KEPT_ratio=1"]) == 0  # keys in lowercase
    assert json.loads(manifest.read_text())["config"] == {
        "pivot": "en",
        "alignment": {"lambda": 1e-3, "kept_ratio": 1.0, "train_fraction": 0.8,
                      "split_seed": 7}}
    assert json.loads((model_dir / "metadata.json").read_text())["kept_ratio"] == 1.0
    assert "en-es: 60 alignment pairs" in capsys.readouterr().err


def test_align_without_holdout_removes_its_languages_held_out_pairs(
        mini_pipeline_inputs, tmp_path, capsys):
    """align without --holdout, into the directory of an earlier align
    --holdout, fits on the pairs that run held out, so it removes their file;
    that of a language the new model lacks stays, and bli refuses it."""
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    argv, _ = _align_argv(inp, model_dir)
    assert main([*argv, "--holdout"]) == 0
    held_out, other = model_dir / "validation_es.tsv", model_dir / "validation_it.tsv"
    other.write_text(held_out.read_text().replace("es", "it"))
    assert main(argv) == 0
    assert not held_out.exists() and other.exists()
    capsys.readouterr()
    assert main(["bli", "--model", str(model_dir), "--embeddings", f"en={inp['en']}",
                 "--embeddings", f"it={inp['es']}", "--validation", f"it={other}"]) == 1
    assert capsys.readouterr().err == (
        f"crosslex: configuration error: {model_dir}: language 'it' not in "
        "alignment model\n")


def _repeated_language_argv(inp, model_dir, emb):
    """Per flag, argv that names language es twice in it."""
    common = ["--model", str(model_dir), *emb]
    es_tsv = str(inp["datasets"]["es"])
    return {
        "--embeddings": ["knn", *common, "--embeddings", f"es={inp['es']}",
                         "--word", "en3", "--lang", "en", "--target", "es"],
        "--lexicon": ["align", "--pivot", "en", *emb,
                      "--lexicon", f"es={inp['lexicon']}",
                      "--lexicon", f"es={inp['lexicon']}",
                      "--output", str(model_dir.parent / "twice")],
        "--validation": ["bli", *common,
                         "--validation", f"es={inp['lexicon']}",
                         "--validation", f"es={inp['lexicon']}"],
        "--dataset": ["context-sim", *common, "--dataset", f"en={es_tsv}",
                      "--dataset", f"es={es_tsv}", "--dataset", f"es={es_tsv}",
                      "--seed-terms", "en1", "--source-lang", "en"],
    }


@pytest.mark.parametrize("flag", ["--dataset", "--embeddings", "--lexicon",
                                  "--validation"])
def test_repeated_language_exits_1_naming_flag(mini_pipeline_inputs, tmp_path,
                                               capsys, flag):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    capsys.readouterr()
    argv = _repeated_language_argv(mini_pipeline_inputs, model_dir, emb)[flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: language 'es' given twice" in captured.err
    assert not (tmp_path / "twice").exists()


def test_unused_embeddings_are_not_read(mini_pipeline_inputs, tmp_path):
    inp = mini_pipeline_inputs
    broken = tmp_path / "it.vec"
    broken.write_text("2 10\nnot a vector\n")
    model_dir = tmp_path / "model"
    assert main([
        "align", "--pivot", "en", "--embeddings", f"en={inp['en']}",
        "--embeddings", f"it={broken}", "--embeddings", f"es={inp['es']}",
        "--lexicon", f"es={inp['lexicon']}", "--output", str(model_dir),
    ]) == 0
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {
        str(inp["en"]), str(inp["es"]), str(inp["lexicon"])}


def _missing_input_argv(tmp_path):
    """Per command that reads a run config, argv whose inputs do not exist."""
    gone, out = str(tmp_path / "missing"), str(tmp_path / "out")
    emb = ["--embeddings", f"en={gone}", "--embeddings", f"es={gone}"]
    with_model = ["--model", gone, *emb]
    return {
        "filter-corpus": ["filter-corpus", "--input", gone, "--seeds", gone,
                          "--output", out],
        "train-embeddings": ["train-embeddings", "--corpus", gone, "--language",
                             "en", "--output", out],
        "align": ["align", "--pivot", "en", *emb, "--lexicon", f"es={gone}",
                  "--holdout", "--output", out],
        "knn": ["knn", *with_model, "--word", "w", "--lang", "en", "--target", "es"],
        "bli": ["bli", *with_model, "--validation", f"es={gone}"],
        "mine-rules": ["mine-rules", "--dataset", gone, "--language", "en"],
        "context-sim": ["context-sim", *with_model, "--dataset", f"en={gone}",
                        "--dataset", f"es={gone}", "--seed-terms", "w",
                        "--source-lang", "en"],
        "classify": ["classify", *with_model, "--train", f"en={gone}", "--test",
                     f"es={gone}"],
    }


# Per ranged config key, a value outside its range and "<key> must be <range>"
# as the error states it.
BAD_VALUES = [
    ("sgns.dim=1", "dim must be >= 2"),
    ("sgns.window=0", "window must be >= 1"),
    ("sgns.negatives=0", "negatives must be >= 1"),
    ("sgns.epochs=0", "epochs must be >= 1"),
    ("sgns.learning_rate=-0.5", "learning_rate must be finite and > 0"),
    ("sgns.min_count=0", "min_count must be >= 1"),
    ("sgns.subsample_t=-1e-4", "subsample_t must be finite and >= 0"),
    ("sgns.rng_seed=-1", "rng_seed must be >= 0"),
    ("alignment.lambda=-1", "lambda must be finite and >= 0"),
    ("alignment.kept_ratio=2", "kept_ratio must be in (0, 1]"),
    ("alignment.train_fraction=1", "train_fraction must be in (0, 1)"),
    ("alignment.split_seed=-1", "split_seed must be >= 0"),
    ("mining.top_n=0", "top_n must be >= 1"),
    ("mining.min_support=0", "min_support must be in (0, 1]"),
    ("mining.min_confidence=1.5", "min_confidence must be in (0, 1]"),
    ("similarity.top_m=-1", "top_m must be >= 1"),
    ("similarity.top_m=0", "top_m must be >= 1"),
    ("similarity.variant=foo", "variant must be one of literal, bounded"),
    ("classify.epochs=0", "epochs must be >= 1"),
    ("classify.epochs=-3", "epochs must be >= 1"),
    ("classify.learning_rate=0", "learning_rate must be finite and > 0"),
    ("classify.l2=-1", "l2 must be finite and >= 0"),
    ("classify.threshold=2", "threshold must be in (0, 1)"),
    ("classify.split_seed=-1", "split_seed must be >= 0"),
]


@pytest.mark.parametrize("override,message", BAD_VALUES)
def test_bad_config_value_exits_1(tmp_path, capsys, override, message):
    """On every command, whether it uses the section or not, the value exits
    1 before an input is read: without it, the missing inputs exit 2."""
    section = override.split(".", 1)[0]
    for command, argv in _missing_input_argv(tmp_path).items():
        assert main(argv) == 2, command
        capsys.readouterr()
        assert main([*argv, "--set", override]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"crosslex: configuration error: [{section}] {message}, got "), command
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(set(FLAG_TABLE) - {"report"}))
def test_bad_config_makes_no_output_directory(tmp_path, capsys, command):
    """The run config is read before the parent of ``--output`` is made."""
    argv = _missing_input_argv(tmp_path)[command]
    new_dir = tmp_path / "new"
    assert main([*argv, "--output", str(new_dir / "x"),
                 "--set", "mining.top_n=0"]) == 1
    assert "configuration error: [mining] top_n" in capsys.readouterr().err
    assert not new_dir.exists()


def _library_guards():
    """Per guard, a library call that passes it one value out of range."""
    lex = crosslex.BilingualLexicon("en", "es", [("a", "b"), ("c", "d")])
    ds = crosslex.LabeledDataset("en", [(["a"], "hate"), (["b"], "non-hate")])
    clf = crosslex.ClassifierModel(weights=np.zeros(2), bias=0.0)
    xy = np.eye(3)
    labels = [1, 0, 1]
    report = (["a"], "en", {"en": []}, "hate", None, {})
    hub = ({"en": crosslex.EmbeddingSpace("en", ["a", "b"], np.eye(2))}, [], "en")
    pivot_only = crosslex.AlignmentModel("en", 2, 1e-3, 0.8)
    # one value out of range per [sgns] field; a new field needs one here
    bad_sgns = {"dim": 1, "window": 0, "negatives": 0, "epochs": 0,
                "learning_rate": float("nan"), "min_count": 0,
                "subsample_t": -1.0, "rng_seed": -1}
    return {
        **{f"train_sgns {f.name}": functools.partial(
            crosslex.train_sgns, [["a", "b"]],
            crosslex.SgnsConfig(**{f.name: bad_sgns[f.name]}))
           for f in dataclasses.fields(crosslex.SgnsConfig)},
        # past the featurizing, where train_logreg checks the value
        "zero_shot_eval": lambda: crosslex.zero_shot_eval(
            ds, ds, pivot_only, hub[0], crosslex.ClassifyConfig(l2=float("inf")),
            allow_same_language=True),
        "evaluate": lambda: crosslex.evaluate(clf, xy[:, :2], [1, 0, 1], 1.0),
        "split_dataset": lambda: crosslex.split_dataset(ds, seed=-1),
        "split_lexicon fraction": lambda: crosslex.split_lexicon(lex, 0.0, 0),
        "split_lexicon seed": lambda: crosslex.split_lexicon(lex, 0.5, -1),
        "mine_rules top_n": lambda: crosslex.mine_rules(ds.token_lists(),
                                                        top_n_antecedents=0),
        "mine_rules min_support": lambda: crosslex.mine_rules(
            ds.token_lists(), min_support=float("nan")),
        "mine_rules min_confidence": lambda: crosslex.mine_rules(
            ds.token_lists(), min_confidence=1.5),
        "cross_lingual_report top_m": lambda: crosslex.cross_lingual_report(
            *report, top_m=0),
        "cross_lingual_report variant": lambda: crosslex.cross_lingual_report(
            *report, variant="loose"),
        "fit_cca lambda": lambda: crosslex.fit_cca(xy, xy, lam=-1.0),
        "fit_cca kept_ratio": lambda: crosslex.fit_cca(xy, xy, kept_ratio=0.0),
        "fit_hub_alignment lambda": lambda: crosslex.fit_hub_alignment(
            *hub, lam=-1.0),
        "fit_hub_alignment kept_ratio": lambda: crosslex.fit_hub_alignment(
            *hub, kept_ratio=7.0),
        "train_logreg epochs": lambda: crosslex.train_logreg(xy, labels, epochs=0),
        "train_logreg learning_rate": lambda: crosslex.train_logreg(
            xy, labels, learning_rate=-1.0),
        "train_logreg l2": lambda: crosslex.train_logreg(xy, labels, l2=float("nan")),
        "build_vocab": lambda: crosslex.build_vocab([["a"]], min_count=0),
    }


@pytest.mark.parametrize("guard", sorted(_library_guards()))
def test_library_guard_raises_the_config_message(guard):
    with pytest.raises(ConfigurationError,
                       match=r"^\[(sgns|classify|alignment|mining|similarity)\] "
                             r"\w+ must be .+, got "):
        _library_guards()[guard]()


@pytest.mark.parametrize("override,command", [
    ("alignment.train_fraction=1", "align"),  # read only with --holdout
    ("similarity.variant=foo", "mine-rules"),  # a section it does not use
])
def test_bad_value_of_an_unused_key_exits_1(mini_pipeline_inputs, tmp_path,
                                            capsys, override, command):
    inp = mini_pipeline_inputs
    out = tmp_path / "out"
    argv = {
        "align": ["align", "--pivot", "en", "--embeddings", f"en={inp['en']}",
                  "--embeddings", f"es={inp['es']}", "--lexicon",
                  f"es={inp['lexicon']}", "--output", str(out)],
        "mine-rules": ["mine-rules", "--dataset", str(inp["datasets"]["en"]),
                       "--language", "en", "--output", str(out)],
    }[command]
    assert main([*argv, "--set", override]) == 1
    assert "crosslex: configuration error: [" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0


_REPORT_LINE = {"seed": "s1", "target_lang": "es", "no_context": False,
                "results": [{"word": "w", "score": 0.9}]}

# case -> (file, 1-based line, the bytes that replace that line, exit code,
# message); the file is read by knn on an aligned model, or by report.
MALFORMED = {
    ".vec scan": ("es.vec", 5, b"es3 \xff 0.5\n", 2, "invalid UTF-8 bytes"),
    ".vec nan": ("es.vec", 5, b"es3" + b" 0.5" * 9 + b" nan\n", 2,
                 "non-finite vector component"),
    ".vec inf": ("es.vec", 5, b"es3 inf" + b" 0.5" * 9 + b"\n", 2,
                 "non-finite vector component"),
    ".vec -inf": ("es.vec", 5, b"es3 0.5 -inf" + b" 0.5" * 8 + b"\n", 2,
                  "non-finite vector component"),
    ".vec float32 overflow": ("es.vec", 5, b"es3" + b" 0.5" * 9 + b" 1e39\n",
                              2, "non-finite vector component"),
    "metadata.json": ("model/metadata.json", 3, b'  "\xff": 1,\n', 2,
                      "invalid UTF-8 bytes"),
    ".mat": ("model/es.mat", 4, b"0.5 \xff\n", 2, "invalid UTF-8 bytes"),
    ".mat nan": ("model/es.mat", 4, b"0.5" + b" 0.5" * 8 + b" nan\n", 2,
                 "non-finite matrix cell"),
    ".mat float overflow": ("model/es.mat", 4, b"1e400" + b" 0.5" * 9 + b"\n", 2,
                            "non-finite matrix cell"),
    "--config": ("run.ini", 2, b"top_n = \xff\n", 1,
                 "invalid UTF-8 bytes"),
    "report not UTF-8": ("report.jsonl", 2, b'{"seed": "\xff"}\n', 2,
                         "invalid UTF-8 bytes"),
    "report lone surrogate": (
        "report.jsonl", 2,
        b'{"seed": "\\ud800", "target_lang": "es", "results": []}\n', 2,
        "malformed record: 'utf-8' codec can't encode character '\\ud800'"),
    "report truncated line": ("report.jsonl", 2, b'{"seed": "s2", "target_',
                              2, "invalid JSON: Unterminated string"),
    "report record without seed": (
        "report.jsonl", 2,
        b'{"source_lang": "en", "target_lang": "es", "k": 1, "precision": 0.5}\n',
        2, "record lacks key 'seed'"),
    "report record without results": (
        "report.jsonl", 2, b'{"seed": "s2", "target_lang": "es"}\n', 2,
        "record lacks key 'results'"),
    "report array line": ("report.jsonl", 2, b"[1, 2]\n", 2,
                          "record is not a JSON object"),
    "report string line": ("report.jsonl", 2, b'"x"\n', 2,
                           "record is not a JSON object"),
    "report string that contains seed": ("report.jsonl", 2, b'"seedling"\n', 2,
                                         "record is not a JSON object"),
    "report result without score": (
        "report.jsonl", 2,
        b'{"seed": "s2", "target_lang": "es", "results": [{"word": "w"}]}\n',
        2, "record lacks key 'score'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_file_and_line(mini_pipeline_inputs, tmp_path,
                                             capsys, case):
    emb = _aligned_model(mini_pipeline_inputs, tmp_path / "model")
    config = tmp_path / "run.ini"
    config.write_text("[mining]\ntop_n = 1\n")
    report = tmp_path / "report.jsonl"
    report.write_text((json.dumps(_REPORT_LINE) + "\n") * 2)
    argv = (["report", "--input", str(report)] if case.startswith("report")
            else ["knn", "--model", str(tmp_path / "model"), *emb, "--config",
                  str(config), "--word", "en3", "--lang", "en", "--target", "es"])
    assert main(argv) == 0
    name, line, bad, code, message = MALFORMED[case]
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = bad
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = "configuration error: cannot parse config file" if code == 1 else "error"
    assert f"crosslex: {prefix}: {path}: {message}" in err
    assert f"(line {line})" in err
    assert "Traceback" not in err


def _replace_line(number, new):
    """A form that replaces the 1-based line ``number`` by ``new(line)``."""
    def form(data):
        lines = data.splitlines(keepends=True)
        lines[number - 1] = new(lines[number - 1])
        return b"".join(lines)
    return form


def _empty(data):
    return b""


_NOT_UTF8 = _replace_line(2, lambda line: b"\xff" + line)
_SHORT_ROW = _replace_line(3, lambda line: line.rsplit(None, 1)[0] + b"\n")


def _half(data):
    """The first half of the file: it ends inside a count or a nesting that
    the format states, or inside a row."""
    return data[:len(data) // 2]


def _cut_before_last_tab(data):
    """The last record cut before its second column; in a format without a
    row count, a cut after the tab leaves a shorter valid record."""
    return data[:data.rindex(b"\t")]


def _without_first_line(data):
    """The file without its first line: a config's section header, a
    ``.vec`` header or a ``.mat`` block header."""
    return data.split(b"\n", 1)[1]


def _metadata(change):
    """A form that applies ``change`` to the parsed metadata."""
    def form(data):
        meta = json.loads(data)
        change(meta)
        return json.dumps(meta).encode()
    return form


def _mat_blocks(data):
    """The W and b blocks of a ``.mat`` file."""
    lines = data.decode().splitlines()
    rows = int(lines[0].split()[0])
    return (np.array([line.split() for line in block], dtype=float)
            for block in (lines[1:rows + 1], lines[rows + 2:]))


def _one_column_fewer(data):
    """A ``.mat`` file's W and b without their last column: blocks that
    agree with each other, but a W that does not end in shared_dim."""
    W, b = _mat_blocks(data)
    return "".join(crosslex.alignment._matrix_lines(W[:, :-1], b[:, :-1])).encode()


def _four_blocks(data):
    """The same map in the layout that older versions wrote: a zero mean,
    W as the projection, an identity back-map, and b as the pivot mean."""
    W, b = _mat_blocks(data)
    return "".join(crosslex.alignment._matrix_lines(
        np.zeros(len(W)), W, np.eye(W.shape[1]), b)).encode()


# Per input kind, its malformed forms: functions of the valid file's bytes.
# A kind lacks a form its format cannot tell from a valid file: a corpus or
# seed list is free text, one item per line, so any cut of it is text and it
# has no columns or keys; an empty config sets no key, so the defaults apply;
# and JSON has keys, not columns.
MALFORMED_FORMS = {
    "corpus": {"empty": _empty, "not UTF-8": _NOT_UTF8},
    "seed list": {"empty": _empty, "not UTF-8": _NOT_UTF8},
    "config": {
        "truncated": lambda data: data[:5],  # inside the section header
        "not UTF-8": _NOT_UTF8,
        "wrong column count": _replace_line(2, lambda line: line.replace(b" = ", b" ")),
        "missing key": _without_first_line,
    },
    ".vec": {
        "empty": _empty, "truncated": _half, "not UTF-8": _NOT_UTF8,
        "wrong column count": _SHORT_ROW,
        "missing key": _without_first_line,
    },
    ".mat": {
        "empty": _empty, "truncated": _half, "not UTF-8": _NOT_UTF8,
        "wrong column count": _SHORT_ROW,
        "missing key": _without_first_line,
        "width not shared_dim": _one_column_fewer,
        "four blocks": _four_blocks,
    },
    "metadata.json": {
        "empty": _empty, "truncated": _half, "not UTF-8": _NOT_UTF8,
        "missing key": _metadata(lambda meta: meta.pop("pivot_lang")),
        "wrong type": _metadata(
            lambda meta: meta.update(shared_dim=str(meta["shared_dim"]))),
        "no format marker": _metadata(unmarked),
        "normalize false": _metadata(lambda meta: meta.update(normalize=False)),
        "a digest missing": _metadata(lambda meta: meta["sha256"].pop("es")),
        "a correlation missing": _metadata(
            lambda meta: meta["correlations"].pop("es")),
    },
    "lexicon": {
        "empty": _empty, "truncated": _cut_before_last_tab, "not UTF-8": _NOT_UTF8,
        "wrong column count": _replace_line(3, lambda line: line[:-1] + b"\tx\n"),
        "missing key": _replace_line(3, lambda line: line[line.index(b"\t"):]),
    },
    "dataset": {
        "empty": _empty, "truncated": _cut_before_last_tab, "not UTF-8": _NOT_UTF8,
        "wrong column count": _replace_line(3, lambda line: line.replace(b"\t", b" ")),
        "missing key": _replace_line(3, lambda line: line[1:]),  # no label
    },
    "report": {
        "empty": _empty, "not UTF-8": _NOT_UTF8,
        # inside the last record
        "truncated": lambda data: data[:-len(data.splitlines()[-1]) // 2],
        "missing key": lambda data: data.replace(b'"target_lang"', b'"target"'),
    },
}


def _probe_argv(base, out):
    """Per command, argv that reads its inputs from ``base`` and writes any
    output into ``out``."""
    emb = ["--embeddings", f"en={base / 'en.vec'}", "--embeddings",
           f"es={base / 'es.vec'}"]
    config = ["--config", str(base / "run.ini")]
    model = ["--model", str(base / "model"), *emb, *config]
    return {
        "filter-corpus": ["filter-corpus", "--input", str(base / "corpus.txt"),
                          "--seeds", str(base / "seeds.txt"), *config,
                          "--output", str(out / "filtered.txt")],
        "train-embeddings": ["train-embeddings", "--corpus",
                             str(base / "corpus.txt"), "--language", "en",
                             *config, "--output", str(out / "trained.vec")],
        "align": ["align", "--pivot", "en", *emb, "--lexicon",
                  f"es={base / 'lex.tsv'}", *config, "--output",
                  str(out / "model")],
        "knn": ["knn", *model, "--word", "en3", "--lang", "en", "--target", "es"],
        "bli": ["bli", *model, "--validation", f"es={base / 'lex.tsv'}"],
        "mine-rules": ["mine-rules", "--dataset", str(base / "es.tsv"),
                       "--language", "es", *config],
        "context-sim": ["context-sim", *model, "--dataset", f"en={base / 'en.tsv'}",
                        "--dataset", f"es={base / 'es.tsv'}", "--seed-terms",
                        "en1,en2", "--source-lang", "en"],
        "classify": ["classify", *model, "--train", f"en={base / 'en.tsv'}",
                     "--test", f"es={base / 'es.tsv'}"],
        "classify --train": ["classify", *model, "--train", f"es={base / 'es.tsv'}",
                             "--test", f"en={base / 'en.tsv'}"],
        "report": ["report", "--input", str(base / "report.jsonl")],
    }


_MODEL_INPUTS = [("--model", "model/metadata.json", "metadata.json"),
                 ("--model", "model/es.mat", ".mat"),
                 ("--embeddings", "es.vec", ".vec")]

# (command, flag, file, kind): every input of every command.
PROBE_INPUTS = [
    ("filter-corpus", "--input", "corpus.txt", "corpus"),
    ("filter-corpus", "--seeds", "seeds.txt", "seed list"),
    ("train-embeddings", "--corpus", "corpus.txt", "corpus"),
    ("align", "--embeddings", "es.vec", ".vec"),
    ("align", "--lexicon", "lex.tsv", "lexicon"),
    *(("knn", *read) for read in _MODEL_INPUTS),
    *(("bli", *read) for read in _MODEL_INPUTS),
    ("bli", "--validation", "lex.tsv", "lexicon"),
    ("mine-rules", "--dataset", "es.tsv", "dataset"),
    *(("context-sim", *read) for read in _MODEL_INPUTS),
    ("context-sim", "--dataset", "es.tsv", "dataset"),
    *(("classify", *read) for read in _MODEL_INPUTS),
    ("classify", "--train", "en.tsv", "dataset"),
    ("classify", "--test", "es.tsv", "dataset"),
    ("report", "--input", "report.jsonl", "report"),
    *((command, "--config", "run.ini", "config")
      for command in sorted(FLAG_TABLE) if command != "report"),
]

PROBES = [(command, flag, name, kind, form)
          for command, flag, name, kind in PROBE_INPUTS
          for form in MALFORMED_FORMS[kind]]


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """Valid inputs of every command, in one directory: the mini fixture, a
    corpus, a seed list, a config, an aligned model and a context-sim
    report. Every command exits 0 on them."""
    base = tmp_path_factory.mktemp("probe")
    write_mini_inputs(base)
    rng = np.random.default_rng(5)
    words = [f"en{i}" for i in range(60)]
    (base / "corpus.txt").write_text("".join(
        " ".join(rng.choice(words, size=8)) + "\n" for _ in range(200)))
    (base / "seeds.txt").write_text("en1\nen2\n")
    (base / "run.ini").write_text("[sgns]\nepochs = 1\nmin_count = 2\n\n"
                                  "[mining]\ntop_n = 20\nmin_support = 0.05\n")
    assert main(_probe_argv(base, base)["align"]) == 0  # writes base / "model"
    argv = _probe_argv(base, tmp_path_factory.mktemp("probe_out"))
    assert main(argv["context-sim"] + ["--output", str(base / "report.jsonl")]) == 0
    for command in [*FLAG_TABLE, "classify --train"]:
        assert main(argv[command]) == 0, command
    return base


@pytest.mark.parametrize("command,flag,name,kind,form", PROBES,
                         ids=[f"{c} {f} {k}: {form}" for c, f, _, k, form in PROBES])
def test_every_command_refuses_each_malformed_input(probe_inputs, tmp_path, capsys,
                                                    command, flag, name, kind, form):
    """Each input of each command, in each malformed form its kind has,
    exits 1 or 2 with a message that names the file."""
    base = tmp_path / "in"
    shutil.copytree(probe_inputs, base)
    path = base / name
    path.write_bytes(MALFORMED_FORMS[kind][form](path.read_bytes()))
    code = main(_probe_argv(base, tmp_path)[command])
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert str(path) in captured.err
    assert "Traceback" not in captured.err


# (file in the model directory, its kind, form): models that align does not
# write, which no command loads.
REFUSED_MODELS = [("metadata.json", "metadata.json", form) for form in (
    "no format marker", "normalize false", "a digest missing",
    "a correlation missing")] + [("es.mat", ".mat", "four blocks")]


@pytest.mark.parametrize("name,kind,form", REFUSED_MODELS,
                         ids=[form for _, _, form in REFUSED_MODELS])
def test_a_model_that_align_did_not_write_exits_2_with_the_refit_hint(
        probe_inputs, tmp_path, capsys, name, kind, form):
    base = tmp_path / "in"
    shutil.copytree(probe_inputs, base)
    path = base / "model" / name
    path.write_bytes(MALFORMED_FORMS[kind][form](path.read_bytes()))
    assert main(_probe_argv(base, tmp_path)["knn"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crosslex: error: {path}: ") and REFIT in err
    assert "Traceback" not in err


def _empty_input_cases(inp, model_dir, emb, empty):
    """Per case, argv that gives one input the empty file ``empty``, and the
    message that names it."""
    common = ["--model", str(model_dir), *emb]
    en_tsv = str(inp["datasets"]["en"])
    return {
        "train-embeddings --corpus": (
            ["train-embeddings", "--corpus", empty, "--language", "en",
             "--output", str(model_dir.parent / "x.vec")],
            f"{empty}: empty corpus"),
        "mine-rules --dataset": (
            ["mine-rules", "--dataset", empty, "--language", "en"],
            f"{empty}: no nonempty documents to mine"),
        "context-sim --dataset": (
            ["context-sim", *common, "--dataset", f"en={en_tsv}", "--dataset",
             f"es={empty}", "--seed-terms", "en1", "--source-lang", "en"],
            f"{empty}: no nonempty documents to mine"),
        "classify --train": (
            ["classify", *common, "--train", f"es={empty}", "--test",
             f"en={en_tsv}"],
            f"{empty}: need at least 2 training examples"),
        "classify --test": (
            ["classify", *common, "--train", f"en={en_tsv}", "--test",
             f"es={empty}"],
            f"{empty}: no test documents to evaluate"),
        "bli --validation": (
            ["bli", *common, "--validation", f"es={empty}"],
            f"{empty}: no validation pair survives vocabulary restriction"),
        "align --lexicon": (
            ["align", "--pivot", "en", *emb, "--lexicon", f"es={empty}",
             "--output", str(model_dir.parent / "model2")],
            f"{empty}: no en-es lexicon pair is covered"),
    }


@pytest.mark.parametrize("case", [
    "align --lexicon", "bli --validation", "classify --test", "classify --train",
    "context-sim --dataset", "mine-rules --dataset", "train-embeddings --corpus",
])
def test_empty_input_exits_2_naming_file_or_language(mini_pipeline_inputs,
                                                     tmp_path, capsys, case):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    capsys.readouterr()
    argv, message = _empty_input_cases(mini_pipeline_inputs, model_dir, emb,
                                       str(empty))[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"crosslex: error: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_bli_and_classify_manifests_list_every_file_read(mini_pipeline_inputs,
                                                         tmp_path):
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = _aligned_model(inp, model_dir)
    common = ["--model", str(model_dir), *emb]
    read = {str(inp["en"]), str(inp["es"]), str(model_dir / "metadata.json"),
            str(model_dir / "es.mat")}
    tsv = inp["datasets"]
    runs = {
        "bli": (["--validation", f"es={inp['lexicon']}"], {str(inp["lexicon"])}),
        "classify": (["--train", f"en={tsv['en']}", "--test", f"es={tsv['es']}"],
                     {str(tsv["en"]), str(tsv["es"])}),
    }
    for command, (flags, given) in runs.items():
        out = tmp_path / f"{command}.jsonl"
        assert main([command, *common, *flags, "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{command}.jsonl.manifest.json")
                              .read_text())
        assert manifest["command"] == command
        assert set(manifest["inputs"]) == given | read


def test_each_space_is_hashed_once_per_command(mini_pipeline_inputs, tmp_path,
                                               monkeypatch):
    """align, bli and classify list each space in their manifest with the
    sha256 it had when it was loaded, and do not hash it again."""
    hashed = collections.Counter()

    def counting(path):
        hashed[str(path)] += 1
        return errors.sha256_file(path)

    monkeypatch.setattr(embedding_store, "sha256_file", counting)
    monkeypatch.setattr(manifest, "sha256_file", counting)
    inp = mini_pipeline_inputs
    model_dir = tmp_path / "model"
    emb = ["--embeddings", f"en={inp['en']}", "--embeddings", f"es={inp['es']}"]
    tsv = inp["datasets"]
    bli, classify = tmp_path / "bli.jsonl", tmp_path / "classify.jsonl"
    runs = [
        (["align", *emb, "--lexicon", f"es={inp['lexicon']}",
          "--output", str(model_dir)], model_dir / "manifest.json"),
        (["bli", "--model", str(model_dir), *emb,
          "--validation", f"es={inp['lexicon']}", "--output", str(bli)],
         tmp_path / "bli.jsonl.manifest.json"),
        (["classify", "--model", str(model_dir), *emb, "--train", f"en={tsv['en']}",
          "--test", f"es={tsv['es']}", "--output", str(classify)],
         tmp_path / "classify.jsonl.manifest.json"),
    ]
    for argv, manifest_path in runs:
        hashed.clear()
        assert main(argv) == 0
        inputs = json.loads(manifest_path.read_text())["inputs"]
        for space in (inp["en"], inp["es"]):
            assert hashed[str(space)] == 1
            assert inputs[str(space)] == hashlib.sha256(space.read_bytes()).hexdigest()


def test_manifests_state_each_rng_seed_once_in_their_config(mini_pipeline_inputs,
                                                            tmp_path):
    """A manifest has no copy of its seeds beside its config: train-embeddings,
    align and classify each record their seed in the config section that
    sets it, and nowhere else."""
    inp = mini_pipeline_inputs
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b c d\n" * 10)
    vec = tmp_path / "trained" / "en.vec"
    assert main(["train-embeddings", "--corpus", str(corpus), "--language", "en",
                 "--set", "sgns.dim=4", "--set", "sgns.min_count=1",
                 "--set", "sgns.epochs=1", "--set", "sgns.rng_seed=5",
                 "--output", str(vec)]) == 0
    model_dir = tmp_path / "model"
    argv, align_manifest = _align_argv(inp, model_dir)
    assert main([*argv, "--holdout", "--set", "alignment.split_seed=6"]) == 0
    tsv = inp["datasets"]
    out = tmp_path / "classify.jsonl"
    assert main(["classify", "--model", str(model_dir), "--embeddings",
                 f"en={inp['en']}", "--embeddings", f"es={inp['es']}",
                 "--train", f"en={tsv['en']}", "--test", f"es={tsv['es']}",
                 "--set", "classify.split_seed=7", "--output", str(out)]) == 0
    for path, section, key, seed in [
            (tmp_path / "trained" / "en.vec.manifest.json", "sgns", "rng_seed", 5),
            (align_manifest, "alignment", "split_seed", 6),
            (tmp_path / "classify.jsonl.manifest.json", "classify", "split_seed", 7)]:
        manifest = json.loads(path.read_text())
        assert set(manifest) == {"command", "config", "inputs", "version",
                                 "timestamp"}
        assert manifest["config"][section][key] == seed


@pytest.mark.parametrize("seeds", ["", "a,,b", "a,", ",a"])
def test_empty_seed_term_exits_1_naming_flag(tmp_path, capsys, seeds):
    gone = str(tmp_path / "missing")
    assert main(["context-sim", "--model", gone, "--embeddings", f"en={gone}",
                 "--dataset", f"en={gone}", "--seed-terms", seeds,
                 "--source-lang", "en", "--output", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed-terms: empty seed term in {seeds!r}" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds,term,tokens", [
    ("en1,hate_speech", "hate_speech", ["hate", "speech"]),
    ("#hate", "#hate", ["hate"]),
    ("e-mail,en1", "e-mail", ["e", "mail"]),
    ("İstanbul", "İstanbul", ["i", "stanbul"]),
])
def test_seed_term_the_tokenizer_never_yields_exits_1_naming_flag(
        tmp_path, capsys, seeds, term, tokens):
    gone = str(tmp_path / "missing")
    assert main(["context-sim", "--model", gone, "--embeddings", f"en={gone}",
                 "--dataset", f"en={gone}", "--seed-terms", seeds,
                 "--source-lang", "en", "--output", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --seed-terms: seed term {term!r} can never match: it "
            f"tokenizes as {tokens}") in captured.err
    assert not (tmp_path / "out").exists()


def _bad_language_argv(inp, model_dir, emb):
    """Per flag, argv that gives it the language name ``../x``."""
    common = ["--model", str(model_dir), *emb]
    tsv = str(inp["datasets"]["en"])
    out = str(model_dir.parent / "bad_model")
    knn = ["knn", *common, "--word", "en3", "--lang", "en", "--target", "es"]
    context_sim = ["context-sim", *common, "--dataset", f"en={tsv}",
                   "--seed-terms", "en1", "--source-lang", "en"]
    return {
        "--embeddings": ["align", "--pivot", "en", *emb, "--embeddings",
                         f"../x={inp['es']}", "--lexicon",
                         f"es={inp['lexicon']}", "--output", out],
        "--lexicon": ["align", "--pivot", "en", *emb, "--lexicon",
                      f"../x={inp['lexicon']}", "--output", out],
        "--pivot": ["align", "--pivot", "../x", *emb, "--lexicon",
                    f"es={inp['lexicon']}", "--output", out],
        "--validation": ["bli", *common, "--validation", f"../x={inp['lexicon']}"],
        "--dataset": [*context_sim, "--dataset", f"../x={tsv}"],
        "--source-lang": [*context_sim, "--source-lang", "../x"],
        "--train": ["classify", *common, "--train", f"../x={tsv}", "--test",
                    f"es={tsv}"],
        "--test": ["classify", *common, "--train", f"en={tsv}", "--test",
                   f"../x={tsv}"],
        "--lang": [*knn, "--lang", "../x"],
        "--target": [*knn, "--target", "../x"],
        "--language": ["mine-rules", "--dataset", tsv, "--language", "../x"],
    }


@pytest.mark.parametrize("flag", [
    "--dataset", "--embeddings", "--lang", "--language", "--lexicon", "--pivot",
    "--source-lang", "--target", "--test", "--train", "--validation",
])
def test_bad_language_name_exits_1_naming_flag(mini_pipeline_inputs, tmp_path,
                                               capsys, flag):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    capsys.readouterr()
    argv = _bad_language_argv(mini_pipeline_inputs, model_dir, emb)[flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: argument {flag}: invalid language name '../x'"
            in captured.err)
    assert "Traceback" not in captured.err
    assert not (tmp_path / "bad_model").exists()
    assert not (tmp_path / "x.mat").exists()


@pytest.mark.parametrize("key,value", [
    ("languages", ["es", "\ud800"]),
    ("languages", ["../x"]),
    ("pivot_lang", "../x"),
])
def test_bad_language_in_metadata_exits_2(mini_pipeline_inputs, tmp_path,
                                          capsys, key, value):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert _knn(model_dir, emb) == 2
    err = capsys.readouterr().err
    assert f"crosslex: error: {meta_path}: metadata names an invalid language" in err
    assert "Traceback" not in err


def _output_argv(inp, model_dir, emb):
    """Per command, argv on valid inputs without ``--output``."""
    common = ["--model", str(model_dir), *emb]
    en_tsv, es_tsv = (str(inp["datasets"][lang]) for lang in ("en", "es"))
    report = inp["dir"] / "report.jsonl"
    report.write_text(json.dumps(_REPORT_LINE) + "\n")
    return {
        "knn": ["knn", *common, "--word", "en3", "--lang", "en", "--target", "es"],
        "bli": ["bli", *common, "--validation", f"es={inp['lexicon']}"],
        "mine-rules": ["mine-rules", "--dataset", en_tsv, "--language", "en"],
        "context-sim": ["context-sim", *common, "--dataset", f"en={en_tsv}",
                        "--dataset", f"es={es_tsv}", "--seed-terms", "en1",
                        "--source-lang", "en"],
        "classify": ["classify", *common, "--train", f"es={es_tsv}", "--test",
                     f"en={en_tsv}"],
        "report": ["report", "--input", str(report)],
    }


@pytest.mark.parametrize("command", ["bli", "classify", "context-sim", "knn",
                                     "mine-rules", "report"])
def test_output_into_missing_directory(mini_pipeline_inputs, tmp_path, capsys,
                                       command):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    argv = _output_argv(mini_pipeline_inputs, model_dir, emb)[command]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    out = tmp_path / "new" / "dir" / "out.txt"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == expected


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


@pytest.mark.parametrize("command", ["bli", "classify", "context-sim", "knn",
                                     "mine-rules"])
def test_jsonl_floats_are_rounded_to_6_decimals(mini_pipeline_inputs, tmp_path,
                                                capsys, command):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    argv = _output_argv(mini_pipeline_inputs, model_dir, emb)[command]
    capsys.readouterr()
    assert main([*argv, *(["--detailed"] if command == "bli" else [])]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    floats = list(_floats(records))
    assert floats and all(x == round(x, 6) for x in floats)


@pytest.mark.parametrize("command", ["bli", "knn"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_k_below_1_exits_1_before_reading(tmp_path, capsys, command, k):
    """``--k`` is checked when parsed: the missing model would exit 2."""
    argv = _missing_input_argv(tmp_path)[command]
    assert main([*argv, "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --k: must be >= 1, got {k}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command,flag,value,message", [
    ("knn", "--k", "x", "argument --k: invalid int value: 'x'"),
    ("bli", "--embeddings", "en",
     "argument --embeddings: expected LANG=PATH, got 'en'"),
    ("align", "--set", "alignment",
     "argument --set: expected SECTION.KEY=VALUE, got 'alignment'"),
])
def test_malformed_flag_value_exits_1_before_reading(tmp_path, capsys, command,
                                                     flag, value, message):
    """A flag value that does not parse is a usage error: the missing
    inputs would exit 2."""
    argv = _missing_input_argv(tmp_path)[command]
    assert main([*argv, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err


# Per input kind of PROBES, the commands that read each mutation and the
# file that the seeded fuzz mutates. A dataset is mined by context-sim and
# featurized by classify, as its training set.
FUZZ_CASES = {
    "corpus": (("train-embeddings",), "corpus.txt"),
    "seed list": (("filter-corpus",), "seeds.txt"),
    "config": (("mine-rules",), "run.ini"),
    ".vec": (("knn",), "es.vec"),
    "lexicon": (("bli",), "lex.tsv"),
    "dataset": (("context-sim", "classify --train"), "es.tsv"),
    "metadata.json": (("bli",), "model/metadata.json"),
    ".mat": (("knn",), "model/es.mat"),
    "report": (("report",), "report.jsonl"),
}
FUZZ_SEED = 0  # with the kind's index, the seed of its mutations
FUZZ_BUDGET = 16  # mutations per kind
_INSERTED_LINES = (b"\n", b"x\n", b"1\n", b"x\t1\n", b"x = 1\n", b"[x]\n")
_SEPARATOR = re.compile(rb"[ \t=:,]")
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_NUMBERS = (b"0", b"-1", b"2", b"0.5", b"1e400", b"nan")


def _mutate(data, rng):
    """``data`` with one seeded mutation: a line deleted, inserted,
    duplicated or cut short, or a separator or a number swapped."""
    lines = data.splitlines(keepends=True)
    at = int(rng.integers(len(lines)))
    kind = int(rng.integers(6))
    if kind == 0:
        del lines[at]
    elif kind == 1:
        lines.insert(at, _INSERTED_LINES[rng.integers(len(_INSERTED_LINES))])
    elif kind == 2:
        lines.insert(at, lines[at])
    elif kind == 3:
        lines[at] = lines[at][:rng.integers(len(lines[at]))]
    else:
        pattern, swaps = ((_SEPARATOR, (b" ", b"\t", b"=", b":", b",")) if kind == 4
                          else (_NUMBER, _NUMBERS))
        found = list(pattern.finditer(data))
        if found:
            match = found[rng.integers(len(found))]
            return (data[:match.start()] + swaps[rng.integers(len(swaps))]
                    + data[match.end():])
    return b"".join(lines)


@pytest.mark.parametrize("kind", sorted(FUZZ_CASES))
def test_seeded_mutations_exit_cleanly_naming_the_file(probe_inputs, tmp_path,
                                                       capsys, kind):
    """Each mutation exits 0, 1 or 2 without a traceback, and a nonzero exit
    names the mutated file; a model file's may instead name the --model
    directory."""
    commands, name = FUZZ_CASES[kind]
    base = tmp_path / "in"
    shutil.copytree(probe_inputs, base)
    path = base / name
    valid = path.read_bytes()
    names = ((str(base / "model"),) if name.startswith("model/")
             else (str(path),))
    rng = np.random.default_rng([FUZZ_SEED, sorted(FUZZ_CASES).index(kind)])
    for _ in range(FUZZ_BUDGET):
        mutated = _mutate(valid, rng)
        path.write_bytes(mutated)
        for command in commands:
            code = main(_probe_argv(base, tmp_path)[command])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (command, mutated)
            assert code == 0 or any(part in err for part in names), (
                command, mutated, err)
