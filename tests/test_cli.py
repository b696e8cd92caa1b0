import argparse
import json

import numpy as np
import pytest

import crosslex
from crosslex.cli import main
from crosslex.errors import ConfigurationError

from conftest import planted_pair_corpus, write_embedding_file


@pytest.fixture
def mini_pipeline_inputs(tmp_path):
    """Tiny aligned en/es fixture on disk: embeddings, lexicon, datasets."""
    rng = np.random.default_rng(77)
    n, dim = 60, 10
    proto = rng.normal(size=(n, dim))
    proto /= np.linalg.norm(proto, axis=1, keepdims=True)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    en_words = [f"en{i}" for i in range(n)]
    es_words = [f"es{i}" for i in range(n)]
    en_path = tmp_path / "en.vec"
    es_path = tmp_path / "es.vec"
    write_embedding_file(en_path, en_words, proto)
    write_embedding_file(es_path, es_words, proto @ (q * np.sign(np.diag(r))))
    lex_path = tmp_path / "lex.tsv"
    lex_path.write_text(
        "".join(f"{e}\t{s}\n" for e, s in zip(en_words, es_words))
    )
    ds = {}
    for lang, words in (("en", en_words), ("es", es_words)):
        lines = []
        for i in range(40):
            toks = " ".join(rng.choice(words, size=5))
            lines.append(f"{i % 2}\t{toks}\n")
        p = tmp_path / f"{lang}.tsv"
        p.write_text("".join(lines))
        ds[lang] = p
    return {
        "dir": tmp_path,
        "en": en_path,
        "es": es_path,
        "lexicon": lex_path,
        "datasets": ds,
    }


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


def _knn(model_dir, emb):
    return main([
        "knn", "--model", str(model_dir), *emb,
        "--word", "en3", "--lang", "en", "--target", "es", "--k", "5",
    ])


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
    # Blocks that agree with each other: a 5 x 10 W and a 1 x 10 b.
    (model_dir / "es.mat").write_text(
        "5 10\n" + "0.1 " * 9 + "0.1\n" + ("0.0 " * 9 + "0.0\n") * 4
        + "1 10\n" + "0.0 " * 9 + "0.0\n")
    capsys.readouterr()
    assert _knn(model_dir, emb) == 2
    err = capsys.readouterr().err
    assert ("the es map takes 5 dimensions to 10, but the es space has 10 "
            "and the shared space 10") in err
    assert "Traceback" not in err


def test_align_records_preparation_and_config_must_agree(mini_pipeline_inputs,
                                                         tmp_path, capsys):
    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    meta = json.loads((model_dir / "metadata.json").read_text())
    assert meta["format"] == 2 and meta["normalize"] is True
    assert len(meta["correlations"]["es"]) == 8  # ceil(0.8 * 10) directions
    capsys.readouterr()
    assert main([
        "knn", "--model", str(model_dir), *emb, "--word", "en3", "--lang", "en",
        "--target", "es", "--set", "alignment.normalize=false",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{model_dir} was fitted with normalize=True, but "
            "alignment.normalize is False") in captured.err


def test_legacy_model_normalizes_by_metadata_or_config(mini_pipeline_inputs,
                                                       tmp_path, capsys):
    from crosslex.alignment import _matrix_lines, load_alignment

    model_dir = tmp_path / "model"
    emb = _aligned_model(mini_pipeline_inputs, model_dir)
    knn_out = tmp_path / "knn.jsonl"
    argv = ["knn", "--model", str(model_dir), *emb, "--word", "en3",
            "--lang", "en", "--target", "es", "--k", "5",
            "--output", str(knn_out)]
    assert main(argv) == 0
    expected = knn_out.read_text()
    # The same map in the older layout: four blocks per language, no format
    # marker, and "normalize": false, as align wrote when it normalized the
    # spaces itself.
    lmap = load_alignment(model_dir).maps["es"]
    with open(model_dir / "es.mat", "w", encoding="utf-8") as fh:
        for block in (np.zeros(10), lmap.W, np.eye(10), lmap.b):
            fh.writelines(_matrix_lines(block))
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    del meta["format"], meta["correlations"]
    meta["normalize"] = False
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(argv) == 0
    assert knn_out.read_text() == expected
    err = capsys.readouterr().err
    assert err.count("warning") == 1
    assert f"{model_dir} has no format marker; normalize=True" in err


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
    assert capsys.readouterr().err.endswith(
        f"[{section}] {key} must be finite and >= 0, got {raw}\n"
        if key != "learning_rate" else
        f"[{section}] {key} must be finite and > 0, got {raw}\n")
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
    report.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "r.tsv"
    assert main(["report", "--input", str(report), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed\tes\tit"
    assert lines[1] == "s1\tw (0.90)\t(no context)"


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


@pytest.mark.parametrize("section,key,message", [
    ("paths", "output_dir", "unknown configuration section [paths]"),
    ("classify", "seed", "unknown configuration key [classify] seed"),
])
def test_removed_config_key_exits_1(tmp_path, capsys, section, key, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = 1\n")
    ds = tmp_path / "ds.tsv"
    ds.write_text("1\ta b\n0\tc d\n")
    assert main(["mine-rules", "--config", str(cfg), "--dataset", str(ds),
                 "--language", "en"]) == 1
    assert message in capsys.readouterr().err


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
              (["--pivot"], False, None, "pivot", None),
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
                 (["--monolingual"], False, False, "monolingual", None),
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
    """filter-corpus argv on a corpus whose kept-line count shows
    ``tokenizer.lowercase``: 2 lines kept when it is true, 1 when false."""
    corpus = tmp_path / "c.txt"
    corpus.write_text("keep me\nKeep you\ndrop\n")
    seeds = tmp_path / "s.txt"
    seeds.write_text("keep\n")
    out = tmp_path / "f.txt"
    argv = ["filter-corpus", "--input", str(corpus), "--seeds", str(seeds),
            "--output", str(out)]
    return argv, tmp_path / "f.txt.manifest.json"


@pytest.mark.parametrize("override,message", [
    ("tokenizer.lowercase=maybe",
     "[tokenizer] lowercase: expected a boolean, got 'maybe'"),
    ("sgns.dim=abc", "[sgns] dim: expected int, got 'abc'"),
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
    cfg.write_text("lowercase = no\n")
    assert main([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "crosslex: configuration error: cannot parse config file: File "
        f"contains no section headers.\nfile: '{cfg}', line: 1\n"
        "'lowercase = no\\n'\n")
    assert not manifest.exists()


@pytest.mark.parametrize("spelling,value", [
    ("yes", True), ("no", False), ("1", True), ("0", False),
    ("True", True), ("FALSE", False),
])
def test_boolean_spellings(filter_inputs, capsys, spelling, value):
    argv, manifest = filter_inputs
    assert main([*argv, "--set", f"tokenizer.lowercase={spelling}"]) == 0
    config = json.loads(manifest.read_text())["config"]
    assert config["tokenizer"]["lowercase"] is value
    assert config["kept"] == (2 if value else 1)


def test_set_overrides_config_file(filter_inputs, tmp_path, capsys):
    argv, manifest = filter_inputs
    cfg = tmp_path / "run.ini"
    cfg.write_text("[tokenizer]\nlowercase = false\nstrip_urls = no\n")
    assert main([*argv, "--config", str(cfg)]) == 0
    assert json.loads(manifest.read_text())["config"]["tokenizer"] == {
        "keep_hashtag_body": True, "lowercase": False,
        "strip_mentions": True, "strip_urls": False}
    assert main([*argv, "--config", str(cfg),
                 "--set", "tokenizer.lowercase=true"]) == 0
    assert json.loads(manifest.read_text())["config"] == {
        "kept": 2, "total": 3,
        "tokenizer": {"keep_hashtag_body": True, "lowercase": True,
                      "strip_mentions": True, "strip_urls": False}}
    assert "kept 2 of 3 lines" in capsys.readouterr().err


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


def _library_guards():
    """Per guard, a library call that passes it one value out of range."""
    lex = crosslex.BilingualLexicon("en", "es", [("a", "b"), ("c", "d")])
    ds = crosslex.LabeledDataset("en", [(["a"], "hate"), (["b"], "non-hate")])
    clf = crosslex.ClassifierModel(weights=np.zeros(2), bias=0.0)
    xy = np.eye(3)
    report = (["a"], "en", {"en": ds}, "hate", None, {}, {})
    return {
        "SgnsConfig.validate": lambda: crosslex.SgnsConfig(window=0).validate(),
        "ClassifyConfig.validate": lambda: crosslex.ClassifyConfig(
            l2=float("inf")).validate(),
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
