"""Metamorphic relations of the CLI (Chen, Cheung and Yiu 1998, "Metamorphic
testing: a new approach for generating next test cases", HKUST-CS98-01).

Each test runs commands on the mini fixture and on a transform of it that
must not change their answer, then compares the two outputs. A relation
needs no oracle but the command itself, so it keeps checking a command
after the scalar code that a rewrite replaced is gone, and it catches order
and tie-break faults that one fixed input can miss.
"""

import json
import shutil

import numpy as np
import pytest

from crosslex.cli import main

from conftest import planted_pair_corpus, random_orthogonal, write_mini_inputs

LANGS = ("en", "es")
CLASSES = ("hate", "non-hate", "all")


def _run(*argv):
    assert main([str(arg) for arg in argv]) == 0, argv


def _embeddings(inputs, langs=LANGS):
    return [arg for lang in langs
            for arg in ("--embeddings", f"{lang}={inputs / f'{lang}.vec'}")]


def _align(inputs, out, langs=LANGS):
    """The model files of ``align`` on the inputs: its directory and each
    file's bytes, its manifest aside. ``langs`` names the fixture's pivot
    and other language, here and below."""
    model = out / "model"
    _run("align", "--pivot", langs[0], *_embeddings(inputs, langs),
         "--lexicon", f"{langs[1]}={inputs / 'lex.tsv'}", "--output", model)
    return model, {path.name: path.read_bytes() for path in sorted(model.iterdir())
                   if path.name != "manifest.json"}


def _bli(inputs, model, out, langs=LANGS):
    path = out / "bli.jsonl"
    _run("bli", "--model", model, *_embeddings(inputs, langs), "--validation",
         f"{langs[1]}={inputs / 'lex.tsv'}", "--k", "5", "--detailed",
         "--output", path)
    return path.read_bytes()


def _labeled(inputs, model, out, langs=LANGS):
    """Each output of the commands that read the labeled TSVs: mine-rules
    per language and class, context-sim and zero-shot classify."""
    pivot, other = langs
    datasets = {lang: inputs / f"{lang}.tsv" for lang in langs}
    outputs = {}
    for lang in langs:
        for cls in CLASSES:
            outputs[f"rules_{lang}_{cls}"] = out / f"rules_{lang}_{cls}.jsonl"
            _run("mine-rules", "--dataset", datasets[lang], "--language", lang,
                 "--class", cls, "--output", outputs[f"rules_{lang}_{cls}"])
    common = ["--model", model, *_embeddings(inputs, langs)]
    outputs["context-sim"] = out / "context.jsonl"
    _run("context-sim", *common, *(arg for lang, path in datasets.items()
                                   for arg in ("--dataset", f"{lang}={path}")),
         "--seed-terms", "en1,en2,en3,en4", "--source-lang", pivot,
         "--output", outputs["context-sim"])
    outputs["classify"] = out / "classify.jsonl"
    _run("classify", *common, "--train", f"{pivot}={datasets[pivot]}",
         "--test", f"{other}={datasets[other]}", "--output", outputs["classify"])
    return {name: path.read_bytes() for name, path in outputs.items()}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The mini fixture and every output on it."""
    base = write_mini_inputs(tmp_path_factory.mktemp("mini"))["dir"]
    out = tmp_path_factory.mktemp("reference")
    model, model_files = _align(base, out)
    labeled = _labeled(base, model, out)
    context = [json.loads(line) for line in labeled["context-sim"].splitlines()]
    assert any(record["results"] for record in context)  # rules were mined
    return {"base": base, "model": model, "model_files": model_files,
            "bli": _bli(base, model, out), "labeled": labeled}


def _copy(reference, tmp_path):
    inputs = tmp_path / "in"
    shutil.copytree(reference["base"], inputs)
    return inputs


def _records(data):
    return [json.loads(line) for line in data.splitlines()]


def test_vector_row_order_changes_no_model_or_ranking(reference, tmp_path):
    inputs = _copy(reference, tmp_path)
    rng = np.random.default_rng(0)
    for lang in LANGS:
        header, *rows = (inputs / f"{lang}.vec").read_text().splitlines(keepends=True)
        (inputs / f"{lang}.vec").write_text(
            header + "".join(rows[i] for i in rng.permutation(len(rows))))
    model, model_files = _align(inputs, tmp_path)
    assert model_files == reference["model_files"]
    assert _bli(inputs, model, tmp_path) == reference["bli"]


def test_rotating_a_non_pivot_space_moves_scores_by_rounding_only(reference,
                                                                  tmp_path):
    """CCA is blind to a rotation of one side, so only the float32 rounding
    of the rotated file can move a score."""
    inputs = _copy(reference, tmp_path)
    path = inputs / "es.vec"
    header, *rows = path.read_text().splitlines()
    words = [row.split(" ", 1)[0] for row in rows]
    vectors = np.array([row.split()[1:] for row in rows], dtype=np.float64)
    rotated = vectors @ random_orthogonal(vectors.shape[1], seed=3)
    path.write_text(header + "\n" + "".join(
        word + " " + " ".join(f"{x:.9e}" for x in row) + "\n"
        for word, row in zip(words, rotated)))
    model, _ = _align(inputs, tmp_path)
    got, want = _records(_bli(inputs, model, tmp_path)), _records(reference["bli"])
    assert len(got) == len(want)
    for new, old in zip(got, want):
        new_neighbors, old_neighbors = new.pop("neighbors", []), old.pop("neighbors", [])
        assert new == old  # the query and the summary's precision
        assert [n["word"] for n in new_neighbors] == [n["word"] for n in old_neighbors]
        for a, b in zip(new_neighbors, old_neighbors):
            assert abs(a["score"] - b["score"]) <= 1e-6 + 1e-12


def test_document_order_changes_no_labeled_output(reference, tmp_path):
    inputs = _copy(reference, tmp_path)
    rng = np.random.default_rng(1)
    for lang in LANGS:
        lines = (inputs / f"{lang}.tsv").read_text().splitlines(keepends=True)
        (inputs / f"{lang}.tsv").write_text(
            "".join(lines[i] for i in rng.permutation(len(lines))))
    assert _labeled(inputs, reference["model"], tmp_path) == reference["labeled"]


def test_every_document_twice_doubles_counts_only(reference, tmp_path):
    """Support and confidence are ratios of document counts, and classify's
    rates are ratios of its confusion counts."""
    inputs = _copy(reference, tmp_path)
    for lang in LANGS:
        (inputs / f"{lang}.tsv").write_text((inputs / f"{lang}.tsv").read_text() * 2)
    got = _labeled(inputs, reference["model"], tmp_path)
    want = dict(reference["labeled"])
    [got_metrics], [want_metrics] = (_records(outputs.pop("classify"))
                                     for outputs in (got, want))
    assert got == want
    assert got_metrics == {**want_metrics, **{
        key: 2 * want_metrics[key] for key in ("tp", "fp", "fn", "tn")}}


def test_renaming_a_language_changes_only_its_name(reference, tmp_path):
    """es becomes xx in every flag, file name and model file, and words keep
    their spelling; once each "xx" field reads "es" again, every output is
    the reference's. Stopword lists are chosen by language name, and no
    word of the mini fixture is a stopword, so mining is blind to the name.
    en sorts first under either name, so record order holds."""
    inputs = _copy(reference, tmp_path)
    for suffix in (".vec", ".tsv"):
        (inputs / f"es{suffix}").rename(inputs / f"xx{suffix}")
    langs = ("en", "xx")

    def back(data):
        return data.replace(b'"xx"', b'"es"')

    model, model_files = _align(inputs, tmp_path, langs)
    assert {name.replace("xx", "es"): back(data)
            for name, data in model_files.items()} == reference["model_files"]
    assert back(_bli(inputs, model, tmp_path, langs)) == reference["bli"]
    labeled = _labeled(inputs, model, tmp_path, langs)
    assert {name.replace("xx", "es"): back(data)
            for name, data in labeled.items()} == reference["labeled"]


def test_lines_of_words_below_min_count_change_no_vector(tmp_path):
    """Words below ``sgns.min_count`` leave the kept token stream as it is,
    wherever their lines are, so SGNS draws the same numbers."""
    lines = [" ".join(line) + "\n" for line in planted_pair_corpus(10, 10)[0]]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(lines))
    padded = list(lines)
    rare = [f"rare{i} rare{i + 1} rare{i + 2}\n" for i in range(0, 12, 3)] * 2
    for at, line in enumerate(rare + ["\n", "!!\n"]):  # each rare word twice
        padded.insert(at * 11, line)
    (tmp_path / "padded.txt").write_text("".join(padded))
    vectors = []
    for path in (corpus, tmp_path / "padded.txt"):
        out = tmp_path / f"{path.stem}.vec"
        _run("train-embeddings", "--corpus", path, "--language", "en",
             "--output", out, "--set", "sgns.dim=10", "--set", "sgns.epochs=2",
             "--set", "sgns.min_count=3", "--set", "sgns.subsample_t=1e-2")
        vectors.append(out.read_bytes())
    assert vectors[0] == vectors[1]
