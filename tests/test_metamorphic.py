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

from crosslex import knn, knn_batch, load_alignment, load_embeddings, save_alignment
from crosslex.alignment import AlignmentModel, LanguageMap
from crosslex.cli import main

from conftest import (
    planted_pair_corpus,
    random_orthogonal,
    write_embedding_file,
    write_mini_inputs,
)

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


def _equal_cosine_inputs(base):
    """12 en queries, 400 es words whose rows are signed permutations of one
    row, and an identity model: in exact arithmetic many es words share a
    cosine with a query, and in float64 they differ in the last bits."""
    rng = np.random.default_rng(5)
    dim, n = 64, 400
    row = np.round(rng.normal(size=dim), 6)
    es = np.array([row[rng.permutation(dim)] * rng.choice([-1, 1], size=dim)
                   for _ in range(n)])
    en = np.vstack([np.ones((4, dim)), np.abs(es[:8]) + np.round(
        rng.normal(scale=0.01, size=(8, dim)), 6)])
    en_words = [f"q{i}" for i in range(len(en))]
    es_words = [f"t{i:03d}" for i in range(n)]
    base.mkdir()
    write_embedding_file(base / "en.vec", en_words, en)
    write_embedding_file(base / "es.vec", es_words, es)
    (base / "lex.tsv").write_text("".join(f"{q}\tt{i:03d}\n"
                                          for i, q in enumerate(en_words)))
    model = base / "model"
    save_alignment(AlignmentModel("en", dim, 0.0, 1.0, maps={
        "es": LanguageMap(np.eye(dim), np.zeros(dim))}), model)
    return base, model


@pytest.mark.parametrize("space", ["mini", "equal-cosine"])
def test_a_words_list_does_not_depend_on_its_batch(reference, tmp_path, space):
    """A word's ``knn`` list, scores to the last bit, is its list in
    ``knn_batch`` at every batch size and, to the 6 decimals written, in
    ``bli --detailed`` and the ``knn`` command."""
    if space == "mini":
        inputs, model_dir = reference["base"], reference["model"]
        bli = reference["bli"]
    else:
        inputs, model_dir = _equal_cosine_inputs(tmp_path / "in")
        bli = _bli(inputs, model_dir, tmp_path)
    detailed = {record["query"]: record["neighbors"] for record in _records(bli)
                if "query" in record}
    model = load_alignment(model_dir)
    spaces = {lang: load_embeddings(inputs / f"{lang}.vec", lang) for lang in LANGS}
    words = list(detailed)
    alone = [knn(model, spaces, word, "en", "es", 5).neighbors for word in words]
    for size in range(1, len(words) + 1):
        assert [result.neighbors for start in range(0, len(words), size)
                for result in knn_batch(model, spaces, words[start:start + size],
                                        "en", "es", 5)] == alone, size
    path = tmp_path / "knn.jsonl"
    for word, neighbors in zip(words, alone):
        _run("knn", "--model", model_dir, *_embeddings(inputs), "--word", word,
             "--lang", "en", "--target", "es", "--k", 5, "--output", path)
        written = [{"word": record["word"], "score": record["score"]}
                   for record in _records(path.read_bytes())]
        assert written == detailed[word] == [
            {"word": w, "score": round(score, 6)} for w, _, score in neighbors]
