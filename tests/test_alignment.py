import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crosslex import (
    AlignmentModel,
    BilingualLexicon,
    ClassifyConfig,
    EmbeddingSpace,
    alignment,
    cosine,
    featurize_dataset,
    fit_cca,
    fit_hub_alignment,
    load_alignment,
    project,
    project_space,
    save_alignment,
    zero_shot_eval,
)
from crosslex.embedding_store import unit_rows
from crosslex.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InsufficientDataError,
    NotFoundError,
    SingularityError,
)
from crosslex.rules import HATE, LabeledDataset

from conftest import mostly, random_orthogonal


def oracle_correlations(X, Y):
    """Canonical correlations via the generalized eigenproblem
    Cxy Cyy^-1 Cyx v = rho^2 Cxx v, solved numerically."""
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    cxx = Xc.T @ Xc / (n - 1)
    cyy = Yc.T @ Yc / (n - 1)
    cxy = Xc.T @ Yc / (n - 1)
    vals = scipy.linalg.eigh(
        cxy @ np.linalg.inv(cyy) @ cxy.T, cxx, eigvals_only=True
    )
    return np.sqrt(np.clip(vals, 0.0, None))[::-1]


def random_pair(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = 0.7 * X @ rng.normal(size=(d, d)) + 0.3 * rng.normal(size=(n, d))
    return X, Y


def test_cca_identical_inputs_perfect_correlation():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    res = fit_cca(X, X.copy(), lam=0.0, kept_ratio=1.0)
    assert np.max(np.abs(res.correlations - 1.0)) < 1e-6


def test_cca_orthogonal_map_perfect_correlation():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 5))
    Y = X @ random_orthogonal(5, seed=3)
    res = fit_cca(X, Y, lam=0.0, kept_ratio=1.0)
    assert np.max(np.abs(res.correlations - 1.0)) < 1e-6


@pytest.mark.parametrize("n,d", [(6, 2), (20, 5), (100, 10)])
def test_cca_matches_eigenproblem_oracle(n, d):
    X, Y = random_pair(n, d, seed=n * 7 + d)
    res = fit_cca(X, Y, lam=0.0, kept_ratio=1.0)
    assert np.max(np.abs(res.correlations - oracle_correlations(X, Y)[:d])) < 1e-6


def test_cca_projected_sample_correlations_match():
    X, Y = random_pair(40, 4, seed=8)
    res = fit_cca(X, Y, lam=0.0, kept_ratio=1.0)
    Px = (X - res.means_src) @ res.proj_src
    Py = (Y - res.means_tgt) @ res.proj_tgt
    for i, rho in enumerate(res.correlations):
        sample = abs(np.corrcoef(Px[:, i], Py[:, i])[0, 1])
        assert abs(sample - rho) < 1e-6


def test_cca_correlations_descending_and_bounded():
    X, Y = random_pair(50, 6, seed=4)
    res = fit_cca(X, Y, lam=1e-3, kept_ratio=1.0)
    assert np.all(np.diff(res.correlations) <= 1e-12)
    assert np.all(res.correlations >= -1e-9)
    assert np.all(res.correlations <= 1 + 1e-9)


def test_cca_kept_ratio_truncates():
    X, Y = random_pair(50, 10, seed=5)
    res = fit_cca(X, Y, lam=1e-3, kept_ratio=0.8)
    assert res.proj_src.shape[1] == 8
    assert len(res.correlations) == 8


def test_cca_invariant_under_invertible_transform_of_x():
    X, Y = random_pair(60, 2, seed=6)
    base = fit_cca(X, Y, lam=0.0, kept_ratio=1.0).correlations
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        while abs(np.linalg.det(A)) < 1e-3:
            A = rng.normal(size=(2, 2))
        res = fit_cca(X @ A, Y, lam=0.0, kept_ratio=1.0)
        assert np.max(np.abs(res.correlations - base)) < 1e-6


def test_cca_invariant_under_pair_duplication():
    X, Y = random_pair(25, 3, seed=9)
    base = fit_cca(X, Y, lam=0.0, kept_ratio=1.0).correlations
    dup = fit_cca(np.vstack([X, X]), np.vstack([Y, Y]), lam=0.0, kept_ratio=1.0)
    assert np.max(np.abs(dup.correlations - base)) < 1e-9


def test_cca_rank_deficient_needs_lambda():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 4))
    X[:, 3] = X[:, 0] + X[:, 1]  # exactly dependent column
    Y = rng.normal(size=(30, 4))
    with pytest.raises(SingularityError):
        fit_cca(X, Y, lam=0.0, kept_ratio=1.0)
    fit_cca(X, Y, lam=1e-3, kept_ratio=1.0)  # regularized fit succeeds


@pytest.mark.parametrize("name", ["X", "Y"])
def test_cca_rank_check_names_the_covariance(name):
    rng = np.random.default_rng(10)
    X, Y = rng.normal(size=(2, 30, 4))
    bad = X if name == "X" else Y
    bad[:, 3] = bad[:, 0] + bad[:, 1]
    with pytest.raises(SingularityError,
                       match=f"covariance of {name} is rank-deficient with lambda=0"):
        fit_cca(X, Y, lam=0.0, kept_ratio=1.0)


def test_cca_too_few_samples():
    with pytest.raises(InsufficientDataError):
        fit_cca(np.zeros((1, 2)), np.zeros((1, 2)))


@pytest.mark.parametrize("X,Y", [
    (np.zeros((3, 2)), np.zeros((4, 2))),
    (np.zeros(3), np.zeros((3, 2))),
])
def test_cca_refuses_unpaired_or_flat_inputs(X, Y):
    with pytest.raises(ConfigurationError,
                       match="X and Y must be 2-d with equal row counts"):
        fit_cca(X, Y)


def test_fit_hub_alignment_refusals(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    for args, error, message in [
        ((spaces, [lex], "zz"), ConfigurationError,
         "pivot language 'zz' has no embedding space"),
        ((spaces, [BilingualLexicon("xx", "en", [("a", "b")])], "en"),
         ConfigurationError, "lexicon xx-en: source must be the pivot"),
        ((spaces, [BilingualLexicon("en", "yy", [("a", "b")])], "en"),
         ConfigurationError, "no embedding space for language 'yy'"),
        ((spaces, [BilingualLexicon("en", "xx")], "en"), InsufficientDataError,
         "empty alignment lexicon for 'xx'"),
    ]:
        with pytest.raises(error) as exc:
            fit_hub_alignment(*args)
        assert str(exc.value) == message


def test_identity_alignment(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    en = spaces["en"]
    for word in spaces["xx"].words:
        shared = project(model, word, "xx", spaces)
        assert np.max(np.abs(shared - en.vectors[en.vocab[word]])) < 1e-5


def test_pivot_words_unchanged(duplicate_space_pair, tmp_path):
    """Pivot words get the model's preparation and no map; a model saved
    with ``"normalize": false`` loads and keeps their rows as given."""
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    word = spaces["en"].words[0]
    row = spaces["en"].vectors[0]
    assert np.array_equal(
        project(model, word, "en", spaces), unit_rows(row[None])[0]
    )
    save_alignment(dataclasses.replace(model, normalize=False), tmp_path / "raw")
    raw = load_alignment(tmp_path / "raw")
    assert not raw.normalize and not raw.legacy
    assert np.array_equal(project(raw, word, "en", spaces), row)


def test_trilingual_recovery(trilingual):
    tri = trilingual
    for lang in ("es", "it"):
        good = 0
        for w in tri.val_words:
            s = project(tri.model, w, lang, tri.spaces)
            t = project(tri.model, w, "en", tri.spaces)
            if cosine(s, t) > 0.9:
                good += 1
        assert good / len(tri.val_words) >= 0.95


def test_project_matches_matrix_chain_oracle(trilingual):
    """The folded map gives the unfolded chain (v - mean) @ P @ B + pm,
    rebuilt here from a CCA of the prepared lexicon pairs."""
    tri = trilingual

    def prepared(lang, words):
        space = tri.spaces[lang]
        rows = space.vectors[[space.vocab[w] for w in words]]
        return unit_rows(rows).astype(np.float64)

    cca = fit_cca(prepared("en", tri.align_words),
                  prepared("es", tri.align_words), lam=1e-3, kept_ratio=1.0)
    back = np.linalg.pinv(cca.proj_src, rcond=alignment._PINV_RCOND)
    word = tri.val_words[3]
    v = prepared("es", [word])[0]
    expected = (v - cca.means_tgt) @ cca.proj_tgt @ back + cca.means_src
    got = project(tri.model, word, "es", tri.spaces)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_project_errors(trilingual):
    tri = trilingual
    with pytest.raises(NotFoundError):
        project(tri.model, "nonexistent", "es", tri.spaces)
    with pytest.raises(ConfigurationError):
        project(tri.model, tri.words[0], "zz", tri.spaces)


def test_error_tagged_with_language():
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(10)]
    vecs = rng.normal(size=(10, 4))
    vecs[:, 3] = vecs[:, 0]  # rank-deficient space
    spaces = {
        "en": EmbeddingSpace("en", words, vecs),
        "es": EmbeddingSpace("es", words, vecs),
    }
    lex = BilingualLexicon("en", "es", [(w, w) for w in words])
    with pytest.raises(SingularityError, match=r"\[es\]"):
        fit_hub_alignment(spaces, [lex], "en", lam=0.0, kept_ratio=1.0)


def _raw_spaces(tri, seed=13):
    """The fixture's spaces with every row scaled by its own factor."""
    rng = np.random.default_rng(seed)
    return {
        lang: EmbeddingSpace(lang, space.words, space.vectors
                             * rng.uniform(0.5, 8.0, size=(len(space), 1)))
        for lang, space in tri.spaces.items()
    }


def _unnormalized_model(spaces, lexicons, pivot, lam, kept_ratio):
    """The model ``fit_hub_alignment`` would fit on the rows as given,
    built from the ``fit_cca`` oracle, with ``normalize`` false."""
    maps = {}
    for lex in lexicons:
        src, tgt = spaces[pivot], spaces[lex.tgt_lang]
        cca = fit_cca(src.vectors[[src.vocab[s] for s, _ in lex.pairs]].astype(float),
                      tgt.vectors[[tgt.vocab[t] for _, t in lex.pairs]].astype(float),
                      lam=lam, kept_ratio=kept_ratio)
        back = np.linalg.pinv(cca.proj_src, rcond=alignment._PINV_RCOND)
        maps[lex.tgt_lang] = alignment.LanguageMap(
            *alignment._fold(cca.means_tgt, cca.proj_tgt, back, cca.means_src),
            correlations=cca.correlations)
    return AlignmentModel(pivot, spaces[pivot].dim, lam, kept_ratio, False, maps)


def test_model_normalizes_raw_spaces_pivot_included(trilingual_labeled):
    """Raw spaces fitted by the model give what pre-normalized spaces give
    to the same fit without normalization, down to the classifier's counts."""
    tri = trilingual_labeled
    raw = _raw_spaces(tri)
    prenormalized = {lang: EmbeddingSpace(lang, space.words, unit_rows(space.vectors))
                     for lang, space in raw.items()}
    lexicons = [BilingualLexicon("en", lang, [(w, w) for w in tri.align_words])
                for lang in ("es", "it")]
    own = fit_hub_alignment(raw, lexicons, "en", lam=1e-3, kept_ratio=1.0)
    outside = _unnormalized_model(prenormalized, lexicons, "en", 1e-3, 1.0)
    pivot_norms = np.linalg.norm(project_space(own, "en", raw), axis=1)
    assert np.max(np.abs(pivot_norms - 1.0)) < 1e-6
    for lang in ("en", "es", "it"):
        assert np.array_equal(project_space(own, lang, raw),
                              project_space(outside, lang, prenormalized))
    cfg = ClassifyConfig(epochs=500, learning_rate=2.0, l2=1e-5)
    for train, test in (("es", "en"), ("en", "es")):
        got = zero_shot_eval(tri.datasets[train], tri.datasets[test], own, raw,
                             cfg)
        want = zero_shot_eval(tri.datasets[train], tri.datasets[test], outside,
                              prenormalized, cfg)
        assert got == want
        assert got.f1 > 0.9


def test_project_is_a_row_of_project_space(trilingual):
    tri = trilingual
    raw = _raw_spaces(tri)
    fitted = fit_hub_alignment(
        raw, [BilingualLexicon("en", "es", [(w, w) for w in tri.align_words])],
        "en", lam=1e-3, kept_ratio=1.0)
    for model in (fitted, dataclasses.replace(fitted, normalize=False)):
        for lang in ("en", "es"):
            whole = project_space(model, lang, raw)
            for word in tri.val_words[:20]:
                row = whole[raw[lang].vocab[word]]
                np.testing.assert_allclose(project(model, word, lang, raw), row,
                                           rtol=0, atol=1e-12)


def test_featurize_projects_only_document_rows(trilingual):
    tri = trilingual
    doc = tri.words[3:40:3] + ["nope"] + tri.words[5:8]
    for lang in ("en", "es"):
        vocab = tri.spaces[lang].vocab
        whole = project_space(tri.model, lang, tri.spaces)
        feats, _, oov_docs = featurize_dataset(
            LabeledDataset(lang, [(doc, HATE)]), tri.model, tri.spaces)
        assert oov_docs == 0
        np.testing.assert_allclose(
            feats[0], whole[[vocab[t] for t in doc if t in vocab]].mean(axis=0),
            rtol=0, atol=1e-12)


@pytest.mark.parametrize("lang", ["en", "xx"])
def test_map_that_does_not_fit_the_space_names_language(duplicate_space_pair, lang):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    narrow = dict(spaces)
    narrow[lang] = EmbeddingSpace(lang, spaces[lang].words,
                                  spaces[lang].vectors[:, :6])
    word = spaces[lang].words[0]
    with pytest.raises(DimensionError, match=f"the {lang} map takes 8 "
                       f"dimensions to 8, but the {lang} space has 6"):
        project(model, word, lang, narrow)
    with pytest.raises(DimensionError, match=f"the {lang} map"):
        project_space(model, lang, narrow)


def test_legacy_four_block_model_loads_folded(tmp_path, trilingual):
    """A model written before the format marker: four blocks per language,
    no marker, and "normalize": false although align normalized. It folds
    at load, normalizes, and projects like the fitted model."""
    tri = trilingual
    save_alignment(tri.model, tmp_path / "model")
    meta_path = tmp_path / "model" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    del meta["format"], meta["correlations"]
    meta["normalize"] = False
    meta_path.write_text(json.dumps(meta))
    for lang in ("es", "it"):
        lmap = tri.model.maps[lang]
        with open(tmp_path / "model" / f"{lang}.mat", "w") as fh:
            for block in (np.zeros(50), lmap.W, np.eye(50), lmap.b):
                fh.writelines(alignment._matrix_lines(block))
    again = load_alignment(tmp_path / "model")
    assert again.legacy and again.normalize
    assert len(again.maps["es"].correlations) == 0
    for lang in ("es", "it"):
        assert np.max(np.abs(again.maps[lang].W - tri.model.maps[lang].W)) < 1e-12
        assert np.max(np.abs(again.maps[lang].b - tri.model.maps[lang].b)) < 1e-12


def test_alignment_model_roundtrip(tmp_path, trilingual):
    tri = trilingual
    save_alignment(tri.model, tmp_path / "model")
    again = load_alignment(tmp_path / "model")
    assert again.pivot_lang == "en"
    assert again.kept_ratio == tri.model.kept_ratio
    word = tri.val_words[0]
    a = project(tri.model, word, "it", tri.spaces)
    b = project(again, word, "it", tri.spaces)
    assert np.max(np.abs(a - b)) < 1e-6
    assert not again.legacy
    for lang in ("es", "it"):
        fitted = tri.model.maps[lang].correlations
        assert len(fitted) == 50
        assert np.array_equal(again.maps[lang].correlations, fitted)
    meta = json.loads((tmp_path / "model" / "metadata.json").read_text())
    assert meta["format"] == 2 and meta["normalize"] is True
    assert meta["correlations"]["es"] == tri.model.maps["es"].correlations.tolist()


def _saved_mat_lines(tmp_path, trilingual):
    save_alignment(trilingual.model, tmp_path / "model")
    return (tmp_path / "model" / "it.mat").read_text().splitlines(keepends=True)


def _load_error(tmp_path, lines):
    (tmp_path / "model" / "it.mat").write_text("".join(lines))
    with pytest.raises(FormatError) as exc:
        load_alignment(tmp_path / "model")
    return exc.value


def test_mat_short_row_reports_line(tmp_path, trilingual):
    lines = _saved_mat_lines(tmp_path, trilingual)
    lines[4] = lines[4].rsplit(" ", 1)[0] + "\n"  # a row of the projection block
    err = _load_error(tmp_path, lines)
    assert err.line_number == 5
    assert "expected" in str(err)


def test_mat_truncated_block_reports_line(tmp_path, trilingual):
    lines = _saved_mat_lines(tmp_path, trilingual)
    assert _load_error(tmp_path, lines[:-1]).line_number == len(lines)
    assert _load_error(tmp_path, lines[:5]).line_number == 6  # 2 projection rows
    assert _load_error(tmp_path, lines[:2]).line_number == 3  # no projection block


def test_mat_non_numeric_cell_reports_line(tmp_path, trilingual):
    lines = _saved_mat_lines(tmp_path, trilingual)
    lines[1] = "x" + lines[1][1:]  # the mean row
    err = _load_error(tmp_path, lines)
    assert err.line_number == 2
    assert "non-numeric" in str(err)


@pytest.mark.parametrize("cell", ["nan", "inf", "-1e400"])
@pytest.mark.parametrize("layout", ["two blocks", "four blocks"])
def test_mat_non_finite_cell_reports_line(tmp_path, trilingual, layout, cell):
    """A cell that ``float`` reads but that is not finite is refused in both
    layouts; line 4 is a row of W in each."""
    lines = _saved_mat_lines(tmp_path, trilingual)
    if layout == "four blocks":
        lmap = trilingual.model.maps["it"]
        lines = list(alignment._matrix_lines(np.zeros(50), lmap.W, np.eye(50),
                                             lmap.b))
    lines[3] = cell + lines[3][lines[3].index(" "):]
    err = _load_error(tmp_path, lines)
    assert err.line_number == 4
    assert "non-finite matrix cell" in str(err)


def test_mat_bad_block_header_reports_line(tmp_path, trilingual):
    lines = _saved_mat_lines(tmp_path, trilingual)
    lines[2] = "80\n"  # the projection block's "<rows> <cols>"
    assert _load_error(tmp_path, lines).line_number == 3


def test_mat_invalid_utf8_reports_line(tmp_path, trilingual):
    lines = _saved_mat_lines(tmp_path, trilingual)
    path = tmp_path / "model" / "it.mat"
    path.write_bytes("".join(lines[:3]).encode() + b"\xff" + "".join(lines[3:]).encode())
    with pytest.raises(FormatError) as exc:
        load_alignment(tmp_path / "model")
    assert exc.value.line_number == 4
    assert str(exc.value).startswith(f"{path}: invalid UTF-8 bytes")


def _mat_lines(*shapes):
    """A .mat file whose blocks are all-ones matrices of the given shapes."""
    lines = []
    for rows, cols in shapes:
        lines.append(f"{rows} {cols}\n")
        lines += [" ".join(["1.0"] * cols) + "\n"] * rows
    return lines


@pytest.mark.parametrize("shapes, line, message", [
    (((1, 5), (6, 4), (4, 6), (1, 6)), 3,
     "projection block has 6 rows, expected 5 (the mean's length)"),
    (((1, 6), (6, 4), (3, 6), (1, 6)), 10,
     "back-map block has 3 rows, expected 4 (the projection's columns)"),
    (((1, 6), (6, 4), (4, 6), (1, 5)), 15,
     "pivot mean block has 5 values, expected 6 (the back-map's columns)"),
    (((2, 6), (6, 4), (4, 6), (1, 6)), 1, "mean block has 2 rows, expected 1"),
    (((1, 6), (6, 4), (4, 6), (2, 6)), 15,
     "pivot mean block has 2 rows, expected 1"),
    # blocks that agree with each other but not with shared_dim, 50
    (((50, 49), (1, 49)), 1, "W block has 49 columns, expected 50 (shared_dim)"),
    (((1, 6), (6, 4), (4, 6), (1, 6)), 10,
     "back-map block has 6 columns, expected 50 (shared_dim)"),
])
def test_mat_block_shape_mismatch_names_block(tmp_path, trilingual, shapes,
                                               line, message):
    save_alignment(trilingual.model, tmp_path / "model")
    err = _load_error(tmp_path, _mat_lines(*shapes))
    assert err.line_number == line
    assert str(err) == f"{tmp_path / 'model' / 'it.mat'}: {message} (line {line})"


def test_mat_consistent_blocks_load(tmp_path, trilingual):
    save_alignment(trilingual.model, tmp_path / "model")
    (tmp_path / "model" / "it.mat").write_text(
        "".join(_mat_lines((1, 6), (6, 4), (4, 50), (1, 50))))
    lmap = load_alignment(tmp_path / "model").maps["it"]
    mean, P, B, pm = (np.ones(shape) for shape in ((6,), (6, 4), (4, 50), (50,)))
    assert np.array_equal(lmap.W, P @ B)
    assert np.array_equal(lmap.b, pm - mean @ lmap.W)


@pytest.mark.parametrize("text, message, line", [
    ("{not json", "invalid JSON: Expecting property name enclosed in double "
     "quotes", 1),
    ('{\n"pivot_lang": "en",\n', "invalid JSON: Expecting property name "
     "enclosed in double quotes", 3),
    ("[1, 2]", "metadata must be a JSON object", None),
    ('{"pivot_lang": "en", "shared_dim": 3}', "metadata lacks regularization, "
     "kept_ratio, normalize, languages", None),
])
def test_corrupt_metadata_is_format_error(tmp_path, trilingual, text, message,
                                          line):
    save_alignment(trilingual.model, tmp_path / "model")
    meta = tmp_path / "model" / "metadata.json"
    meta.write_text(text)
    with pytest.raises(FormatError) as exc:
        load_alignment(tmp_path / "model")
    assert exc.value.line_number == line
    assert str(exc.value).startswith(f"{meta}: {message}")


# (field, stored value, the message after "metadata "): one value of the
# wrong type or out of range per stored field, refused on save and on load.
BAD_STORED = [
    ("shared_dim", "100", "'shared_dim' must be an integer >= 1"),
    ("shared_dim", True, "'shared_dim' must be an integer >= 1"),
    ("shared_dim", 0, "'shared_dim' must be an integer >= 1"),
    ("normalize", "true", "'normalize' must be true or false"),
    ("normalize", 1, "'normalize' must be true or false"),
    ("regularization", None, "'regularization' must be a number"),
    ("regularization", False, "'regularization' must be a number"),
    ("regularization", -1.0, "'regularization': [alignment] lambda must be "
     "finite and >= 0, got -1.0"),
    ("kept_ratio", "x", "'kept_ratio' must be a number"),
    ("kept_ratio", 7, "'kept_ratio': [alignment] kept_ratio must be in (0, 1], "
     "got 7"),
]


@pytest.mark.parametrize("key,value,message", BAD_STORED)
def test_metadata_value_of_wrong_type_or_range_is_format_error(
        tmp_path, trilingual, key, value, message):
    save_alignment(trilingual.model, tmp_path / "model")
    meta = tmp_path / "model" / "metadata.json"
    data = json.loads(meta.read_text())
    data[key] = value
    meta.write_text(json.dumps(data))
    with pytest.raises(FormatError) as exc:
        load_alignment(tmp_path / "model")
    assert str(exc.value) == f"{meta}: metadata {message}"


def _replace(**values):
    """A change of a model: these fields replaced."""
    return lambda model: dataclasses.replace(model, **values)


def _languages(pivot, lang):
    """A change of a model: this pivot, and the es map under ``lang``."""
    return lambda model: dataclasses.replace(model, pivot_lang=pivot,
                                             maps={lang: model.maps["es"]})


def _es_map(W=lambda W: W, b=lambda b: b):
    """A change of a model: the es map's ``W`` and ``b`` passed through
    these functions."""
    def change(model):
        lmap = model.maps["es"]
        es = alignment.LanguageMap(W(lmap.W.copy()), b(lmap.b.copy()))
        return dataclasses.replace(model, maps={**model.maps, "es": es})
    return change


def _cell(index, value):
    """A function that sets one cell of a matrix."""
    def put(mat):
        mat[index] = value
        return mat
    return put


# (change of the fitted trilingual model, the file the loader names, its
# message): models that load_alignment refuses once written. The es map's
# W (50 x 50) is lines 1-51 of es.mat and its b lines 52-53.
BAD_MODELS = [
    *(pytest.param(_replace(**{key: value}), "metadata.json",
                   f"metadata {message}", id=f"{key}-{value}-{message}")
      for key, value, message in BAD_STORED),
    pytest.param(lambda model: AlignmentModel("en", 0, -1.0, 7.0, "yes"),
                 "metadata.json", "metadata 'shared_dim' must be an integer >= 1",
                 id="hand-built"),
    pytest.param(_languages("en", "../x"), "metadata.json",
                 "metadata names an invalid language '../x'", id="language en-../x"),
    pytest.param(_languages("../x", "es"), "metadata.json",
                 "metadata names an invalid language '../x'", id="language ../x-es"),
    pytest.param(_languages("\ud800", "es"), "metadata.json",
                 "metadata names an invalid language '\\ud800'",
                 id="language \ud800-es"),
    pytest.param(_replace(shared_dim=49), "es.mat",
                 "W block has 50 columns, expected 49 (shared_dim) (line 1)",
                 id="W width not shared_dim"),
    pytest.param(_es_map(b=lambda b: b[:2]), "es.mat",
                 "b block has 2 values, expected 50 (W's columns) (line 52)",
                 id="b narrower than W"),
    pytest.param(_es_map(b=lambda b: np.stack([b, b])), "es.mat",
                 "b block has 2 rows, expected 1 (line 52)", id="b of 2 rows"),
    pytest.param(_es_map(W=_cell((0, 0), np.nan)), "es.mat",
                 "non-finite matrix cell (line 2)", id="nan in W"),
    pytest.param(_es_map(b=_cell(0, np.inf)), "es.mat",
                 "non-finite matrix cell (line 53)", id="inf in b"),
    pytest.param(_es_map(W=lambda W: W[:0]), "es.mat",
                 "matrix block must be at least 1 x 1 (line 1)", id="W of 0 rows"),
]


@pytest.mark.parametrize("change,file,message", BAD_MODELS)
def test_save_alignment_refuses_what_load_refuses(tmp_path, monkeypatch,
                                                  trilingual, change, file,
                                                  message):
    """save_alignment writes nothing and raises the text of the FormatError
    that load_alignment raises for the files it writes with its two checks
    switched off."""
    model, model_dir = change(trilingual.model), tmp_path / "model"
    with pytest.raises(ConfigurationError) as refused:
        save_alignment(model, model_dir)
    assert list(tmp_path.iterdir()) == []
    with monkeypatch.context() as unchecked:
        unchecked.setattr(alignment, "_check_metadata", lambda meta: None)
        unchecked.setattr(alignment, "_read_language_map", lambda lines, dim: None)
        save_alignment(model, model_dir)
    with pytest.raises(FormatError) as loaded:
        load_alignment(model_dir)
    assert str(refused.value) == str(loaded.value) == f"{model_dir / file}: {message}"


@st.composite
def _models(draw):
    """Small hand-built models, some of which load_alignment would refuse."""
    dim = draw(st.integers(1, 3))
    names = mostly(st.sampled_from(["en", "es", "it", "x-y"]), "../x", "e s")
    cells = mostly(st.floats(-1e3, 1e3), np.nan, np.inf, one_in=50)
    maps = {}
    for lang in draw(st.lists(names, max_size=2, unique=True)):
        cols = draw(mostly(st.just(dim), dim + 1))
        W = draw(arrays(np.float64, (draw(mostly(st.integers(1, 3), 0)), cols),
                        elements=cells))
        b = draw(arrays(np.float64, draw(mostly(st.just((cols,)), (1, cols),
                                                 (2, cols), (cols + 1,))),
                        elements=cells))
        correlations = draw(arrays(np.float64, draw(st.integers(0, 3)),
                                   elements=st.floats(-1, 1)))
        maps[lang] = alignment.LanguageMap(W, b, correlations)
    return AlignmentModel(
        pivot_lang=draw(names),
        shared_dim=draw(mostly(st.just(dim), 0, True, "2")),
        regularization=draw(mostly(st.floats(0, 10), -1.0, np.nan, None)),
        kept_ratio=draw(mostly(st.floats(0, 1, exclude_min=True), 0.0, 2.0, "x")),
        normalize=draw(mostly(st.booleans(), 1)),
        maps=maps)


def _as_written(mat):
    """``mat`` as a 2-d matrix of the values its ``%.12e`` text reads as."""
    return np.vectorize(lambda x: float(f"{x:.12e}"), otypes=[float])(
        np.atleast_2d(mat))


@settings(max_examples=200, deadline=None)
@given(_models())
def test_a_model_that_saves_loads_back(model):
    """What save_alignment writes loads back with the same metadata and
    correlations, and with W and b equal to their %.12e text."""
    with tempfile.TemporaryDirectory() as tmp:
        model_dir = os.path.join(tmp, "model")
        try:
            save_alignment(model, model_dir)
        except ConfigurationError:
            assert os.listdir(tmp) == []
            return
        again = load_alignment(model_dir)
    assert [getattr(again, name) for name in alignment._STORED] == [
        getattr(model, name) for name in alignment._STORED]
    assert sorted(again.maps) == sorted(model.maps) and not again.legacy
    for lang, lmap in model.maps.items():
        assert np.array_equal(again.maps[lang].W, _as_written(lmap.W))
        assert np.array_equal(again.maps[lang].b, _as_written(lmap.b)[0])
        assert np.array_equal(again.maps[lang].correlations, lmap.correlations)


@pytest.mark.parametrize("key,value,message", [
    ("format", 3, "unsupported model format 3"),
    ("correlations", {"es": ["x"]},
     "metadata 'correlations' must map languages to lists of numbers"),
])
def test_metadata_format_and_correlations_are_checked(tmp_path, trilingual, key,
                                                      value, message):
    save_alignment(trilingual.model, tmp_path / "model")
    meta = tmp_path / "model" / "metadata.json"
    data = json.loads(meta.read_text())
    data[key] = value
    meta.write_text(json.dumps(data))
    with pytest.raises(FormatError) as exc:
        load_alignment(tmp_path / "model")
    assert str(exc.value) == f"{meta}: {message}"


def test_metadata_languages_must_be_strings(tmp_path, trilingual):
    save_alignment(trilingual.model, tmp_path / "model")
    meta = tmp_path / "model" / "metadata.json"
    data = json.loads(meta.read_text())
    data["languages"] = [1]
    meta.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="'languages' must be a list of strings"):
        load_alignment(tmp_path / "model")
