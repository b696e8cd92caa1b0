import json

import numpy as np
import pytest
import scipy.linalg

from crosslex import (
    BilingualLexicon,
    cosine,
    fit_cca,
    fit_hub_alignment,
    load_alignment,
    project,
    save_alignment,
)
from crosslex.errors import (
    ConfigurationError,
    FormatError,
    InsufficientDataError,
    NotFoundError,
    SingularityError,
)

from conftest import random_orthogonal


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


def test_cca_too_few_samples():
    with pytest.raises(InsufficientDataError):
        fit_cca(np.zeros((1, 2)), np.zeros((1, 2)))


def test_identity_alignment(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    for word in spaces["xx"].words:
        shared = project(model, word, "xx", spaces)
        assert np.max(np.abs(shared - spaces["en"].vector(word))) < 1e-5


def test_pivot_words_unchanged(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    word = spaces["en"].words[0]
    assert np.array_equal(
        project(model, word, "en", spaces), spaces["en"].vector(word)
    )


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
    tri = trilingual
    lmap = tri.model.maps["es"]
    word = tri.val_words[3]
    v = tri.spaces["es"].vector(word).astype(np.float64)
    v = v / np.linalg.norm(v)
    expected = (v - lmap.mean) @ lmap.projection @ lmap.back_map + lmap.pivot_mean
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
    from crosslex import EmbeddingSpace

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
    assert str(exc.value).startswith(f"{path}: non-numeric matrix cell")


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
        "".join(_mat_lines((1, 6), (6, 4), (4, 6), (1, 6))))
    lmap = load_alignment(tmp_path / "model").maps["it"]
    assert lmap.mean.shape == (6,) and lmap.pivot_mean.shape == (6,)
    assert lmap.projection.shape == (6, 4) and lmap.back_map.shape == (4, 6)


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


def test_metadata_languages_must_be_strings(tmp_path, trilingual):
    save_alignment(trilingual.model, tmp_path / "model")
    meta = tmp_path / "model" / "metadata.json"
    data = json.loads(meta.read_text())
    data["languages"] = [1]
    meta.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="'languages' must be a list of strings"):
        load_alignment(tmp_path / "model")
