import numpy as np
import pytest

from crosslex import (
    BilingualLexicon,
    EmbeddingSpace,
    bli_precision_at_k,
    cosine,
    fit_hub_alignment,
    knn,
    knn_batch,
    project,
)
from crosslex import retrieval
from crosslex.alignment import AlignmentModel, LanguageMap, project_space
from crosslex.errors import ConfigurationError, InsufficientDataError, NotFoundError


def _rank(query_vec, target_unit, words, exclude=None, k=None):
    """Exact cosine ranking; ties broken by ascending word order."""
    qn = np.linalg.norm(query_vec)
    scores = target_unit @ (query_vec / qn if qn > 0 else query_vec)
    order = sorted(range(len(words)), key=lambda i: (-scores[i], words[i]))
    out = []
    for i in order:
        if exclude is not None and words[i] == exclude:
            continue
        out.append((words[i], float(scores[i])))
        if k is not None and len(out) == k:
            break
    return out


@pytest.mark.parametrize("seed", range(6))
def test_top_k_matches_scalar_oracle(seed, monkeypatch):
    """knn_batch ranks like the scalar per-query sort it replaced, in the
    query's own language and across languages."""
    rng = np.random.default_rng(seed)
    n_words, dim = 40, 6
    words = [f"w{i:02d}" for i in rng.permutation(n_words)]
    target = rng.normal(size=(n_words, dim))
    # Exact ties: one row copied under eight other words, another under two.
    tied = rng.choice(n_words, size=11, replace=False)
    target[tied[1:9]] = target[tied[0]]
    target[tied[10]] = target[tied[9]]
    cross = np.vstack([
        rng.normal(size=(6, dim)),
        target[tied[[0, 0, 9]]],  # the tie groups rank first
        target[tied[0]] + 0.3 * rng.normal(size=dim),
        np.zeros(dim),
    ])
    spaces = {"xx": EmbeddingSpace("xx", words, target),
              "yy": EmbeddingSpace("yy", [f"q{i}" for i in range(len(cross))], cross)}
    model = AlignmentModel("xx", dim, 0.0, 1.0,
                           maps={"yy": LanguageMap(np.eye(dim), np.zeros(dim))})
    target_unit = retrieval.unit_rows(project_space(model, "xx", spaces))
    # Same-language queries inside both tie groups, and one outside them.
    own = [words[i] for i in (tied[0], tied[3], tied[10], rng.integers(n_words))]
    # Three queries per score block, so each batch spans several blocks.
    monkeypatch.setattr(retrieval, "_BLOCK_ENTRIES", 3 * n_words)
    for k in (1, 3, 5, 9, n_words - 1, n_words, n_words + 4):
        for lang, queries in (("xx", own), ("yy", spaces["yy"].words)):
            ranked = knn_batch(model, spaces, queries, lang, "xx", k)
            assert [r.query_word for r in ranked] == queries
            for result in ranked:
                w = result.query_word
                expected = _rank(project(model, w, lang, spaces), target_unit, words,
                                 w if lang == "xx" else None, k)
                assert [n for n, _, _ in result.neighbors] == [n for n, _ in expected]
                np.testing.assert_allclose(
                    [s for _, _, s in result.neighbors], [s for _, s in expected],
                    rtol=0, atol=1e-12)
                assert result.truncated == (len(expected) < k)


def test_top_k_ranks_near_ties_on_row_scores():
    """Rows a few ulps apart are ranked on each row's own score, which the
    block product only approximates: the product picks the candidates with
    a slack, so no row of the top k is lost."""
    rng = np.random.default_rng(0)
    n_words, dim = 300, 100
    base = rng.normal(size=dim)
    target = retrieval.unit_rows(base + rng.normal(scale=1e-15, size=(n_words, dim)))
    words = [f"t{i:03d}" for i in range(n_words)]
    queries = base + rng.normal(scale=1e-3, size=(8, dim))
    for k in (1, 2, 3, 5):
        ranked = retrieval._top_k(queries, target, words, k)
        for query, (rows, scores) in zip(retrieval.unit_rows(queries), ranked):
            own = (target * query).sum(axis=1)
            assert rows == sorted(range(n_words), key=lambda i: (-own[i], words[i]))[:k]
            assert np.array_equal(scores, own[rows])


def test_knn_self_match_across_duplicate_spaces(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    word = spaces["xx"].words[5]
    result = knn(model, spaces, word, "en", "xx", k=1)
    top_word, top_lang, score = result.neighbors[0]
    assert top_word == word
    assert top_lang == "xx"
    assert score == pytest.approx(1.0, abs=1e-6)


def test_knn_truncation_flag(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    small = EmbeddingSpace("xx", spaces["xx"].words[:2], spaces["xx"].vectors[:2])
    spaces2 = {"en": spaces["en"], "xx": small}
    result = knn(model, spaces2, spaces["en"].words[0], "en", "xx", k=3)
    assert len(result.neighbors) == 2
    assert result.truncated


def test_knn_same_language_truncation(duplicate_space_pair):
    """In its own language a query is left out of its list, so a space of
    n words holds n - 1 neighbours for it."""
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    n = len(spaces["xx"])
    word = spaces["xx"].words[0]
    for k, truncated in ((n - 1, False), (n, True)):
        result = knn(model, spaces, word, "xx", "xx", k)
        assert len(result.neighbors) == n - 1
        assert word not in (w for w, _, _ in result.neighbors)
        assert result.truncated == truncated
    one = EmbeddingSpace("xx", [word], spaces["xx"].vectors[:1])
    result = knn(model, dict(spaces, xx=one), word, "xx", "xx", k=1)
    assert (result.neighbors, result.truncated) == ([], True)


def test_knn_empty_target_space():
    """A target space with no words gives every query an empty, truncated
    list; an unknown query word is still an error."""
    model = AlignmentModel("xx", 3, 0.0, 1.0,
                           maps={"en": LanguageMap(np.eye(3), np.zeros(3))})
    spaces = {"en": EmbeddingSpace("en", ["a"], np.ones((1, 3))),
              "xx": EmbeddingSpace("xx", [], np.empty((0, 3)))}
    result = knn(model, spaces, "a", "en", "xx", 1)
    assert (result.neighbors, result.truncated) == ([], True)
    ranked = knn_batch(model, spaces, ["a", "a"], "en", "xx", 3)
    assert [(r.neighbors, r.truncated) for r in ranked] == [([], True)] * 2
    with pytest.raises(NotFoundError):
        knn(model, spaces, "b", "en", "xx", 1)


def test_knn_excludes_self_only_same_language(trilingual):
    tri = trilingual
    word = tri.words[0]
    same = knn(tri.model, tri.spaces, word, "en", "en", k=5)
    assert all(w != word for w, _, _ in same.neighbors)
    cross = knn(tri.model, tri.spaces, word, "es", "en", k=1)
    assert cross.neighbors[0][0] == word  # aligned twin is the top hit


def test_knn_matches_brute_force_oracle(trilingual):
    tri = trilingual
    sub_words = tri.words[:50]
    sub = EmbeddingSpace(
        "it", sub_words, tri.spaces["it"].vectors[:50]
    )
    spaces = dict(tri.spaces, it=sub)
    query = tri.words[10]
    result = knn(tri.model, spaces, query, "en", "it", k=7)
    qvec = project(tri.model, query, "en", spaces)
    scored = sorted(
        ((cosine(qvec, project(tri.model, w, "it", spaces)), w) for w in sub_words),
        key=lambda t: (-t[0], t[1]),
    )
    expected = [(w, "it", pytest.approx(s, abs=1e-9)) for s, w in scored[:7]]
    assert result.neighbors == expected


def test_knn_scale_invariance(trilingual):
    tri = trilingual
    scaled = EmbeddingSpace(
        "it", tri.spaces["it"].words, tri.spaces["it"].vectors * 3.0
    )
    spaces = dict(tri.spaces, it=scaled)
    a = knn(tri.model, tri.spaces, tri.words[4], "en", "it", k=10)
    b = knn(tri.model, spaces, tri.words[4], "en", "it", k=10)
    assert [w for w, _, _ in a.neighbors] == [w for w, _, _ in b.neighbors]


def test_knn_full_ranking_is_permutation(trilingual):
    tri = trilingual
    result = knn(
        tri.model, tri.spaces, tri.words[0], "en", "es", k=len(tri.words)
    )
    assert sorted(w for w, _, _ in result.neighbors) == sorted(tri.words)


def test_knn_oov_query(trilingual):
    with pytest.raises(NotFoundError):
        knn(trilingual.model, trilingual.spaces, "missing", "en", "es", k=1)


def test_knn_scores_descending(trilingual):
    tri = trilingual
    result = knn(tri.model, tri.spaces, tri.words[2], "en", "it", k=20)
    scores = [s for _, _, s in result.neighbors]
    assert scores == sorted(scores, reverse=True)


def test_bli_identity_perfect(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    res = bli_precision_at_k(model, spaces, lex, k=1)
    assert res.precision == 1.0
    assert res.excluded == 0


def test_bli_excludes_oov_targets(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    pairs = lex.pairs[:3] + [(lex.pairs[3][0], "notavector")]
    val = BilingualLexicon("en", "xx", pairs)
    res = bli_precision_at_k(model, spaces, val, k=1)
    assert res.evaluated == 3
    assert res.excluded == 1


def test_bli_ranks_every_in_vocabulary_source_word_once(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    pairs = lex.pairs[:3] + [(lex.pairs[3][0], "notavector"),
                             ("ghost", lex.pairs[4][1])]
    res = bli_precision_at_k(model, spaces, BilingualLexicon("en", "xx", pairs), k=2)
    assert (res.evaluated, res.excluded) == (3, 2)
    queries = [s for s, _ in pairs[:4]]  # the OOV-target word too, not "ghost"
    assert res.rankings == knn_batch(model, spaces, queries, "en", "xx", 2)


def test_bli_empty_after_restriction(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    val = BilingualLexicon("en", "xx", [("ghost", "phantom")])
    with pytest.raises(InsufficientDataError):
        bli_precision_at_k(model, spaces, val, k=1)


def test_bli_monotone_in_k(trilingual):
    tri = trilingual
    val = tri.validation_lexicon("es")
    p1 = bli_precision_at_k(tri.model, tri.spaces, val, k=1).precision
    p5 = bli_precision_at_k(tri.model, tri.spaces, val, k=5).precision
    assert 0.0 <= p1 <= p5 <= 1.0


def test_bli_one_to_many_counts_once(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    w = lex.pairs[0][0]
    val = BilingualLexicon(
        "en", "xx", [(w, w), (w, spaces["xx"].words[1])]
    )
    res = bli_precision_at_k(model, spaces, val, k=1)
    assert res.evaluated == 1
    assert res.precision == 1.0  # any gold target in top-k counts


def test_bli_rejects_k_below_one(duplicate_space_pair):
    spaces, lex = duplicate_space_pair
    model = fit_hub_alignment(spaces, [lex], "en", lam=1e-3, kept_ratio=1.0)
    with pytest.raises(ConfigurationError):
        bli_precision_at_k(model, spaces, lex, k=0)
