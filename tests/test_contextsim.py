import numpy as np
import pytest
from hypothesis import given, strategies as st

from crosslex import (
    EmbeddingSpace,
    context_sim,
    cross_lingual_report,
    met_sim,
    word_sim,
)
from crosslex.alignment import AlignmentModel, LanguageMap
from crosslex.contextsim import BOUNDED, LITERAL
from crosslex.errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    NotFoundError,
)
from crosslex.rules import AssociationRule, WordContext

metric = st.floats(0.0, 1.0, allow_nan=False)


def test_met_sim_equal_entries():
    assert met_sim((0.3, 0.9), (0.3, 0.9), LITERAL) == pytest.approx(1.0)
    assert met_sim((0.3, 0.9), (0.3, 0.9), BOUNDED) == pytest.approx(1.0)


def test_met_sim_substitution_examples():
    assert met_sim((0.4, 0.8), (0.2, 0.6), LITERAL) == pytest.approx(1.0)
    assert met_sim((0.4, 0.8), (0.2, 0.6), BOUNDED) == pytest.approx(0.8)
    assert met_sim((0.3, 0.9), (0.3, 0.5), LITERAL) == pytest.approx(1.2)
    assert met_sim((0.3, 0.9), (0.3, 0.5), BOUNDED) == pytest.approx(0.8)


def test_met_sim_domain_check():
    with pytest.raises(DomainError):
        met_sim((1.2, 0.5), (0.1, 0.1), LITERAL)
    with pytest.raises(DomainError):
        met_sim((0.2, 0.5), (0.1, -0.1), BOUNDED)


@given(metric, metric, metric, metric)
def test_met_sim_symmetric_and_bounded(s1, c1, s2, c2):
    for variant, lo, hi in ((LITERAL, 0.5, 1.5), (BOUNDED, 0.0, 1.0)):
        a = met_sim((s1, c1), (s2, c2), variant)
        b = met_sim((s2, c2), (s1, c1), variant)
        assert abs(a - b) < 1e-12
        assert lo - 1e-12 <= a <= hi + 1e-12


def test_word_sim_identity():
    vec = np.array([1.0, 2.0])
    assert word_sim((0.4, 0.6), (0.4, 0.6), vec, vec, BOUNDED) == pytest.approx(1.0)


def test_word_sim_direct_arithmetic():
    # orthogonal-ish vectors chosen so cosine = 0.6
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8])
    got = word_sim((0.5, 0.5), (0.4, 0.6), u, v, BOUNDED)
    assert got == pytest.approx((0.6 + 0.9) / 2)


@pytest.mark.parametrize("missing", ["u", "v"])
def test_word_sim_refuses_a_missing_vector(missing):
    vecs = {"u": np.array([1.0, 0.0]), "v": np.array([0.6, 0.8]), missing: None}
    with pytest.raises(NotFoundError,
                       match="missing shared-space vector for word similarity"):
        word_sim((0.5, 0.5), (0.4, 0.6), vecs["u"], vecs["v"])


def test_report_skips_a_candidate_whose_context_has_no_vectors():
    """A candidate none of whose context words is in its language's
    vocabulary is left out of the results and adds no skipped pairs."""
    model = AlignmentModel("en", 2, 0.0, 1.0, False,
                           maps={"es": LanguageMap(np.eye(2), np.zeros(2))})
    spaces = {"en": EmbeddingSpace("en", ["a"], [[1.0, 0.0]]),
              "es": EmbeddingSpace("es", ["b"], [[0.6, 0.8]])}
    rules = {"en": [AssociationRule("seed", "a", 0.5, 0.5)],
             "es": [AssociationRule("kept", "b", 0.5, 0.5),
                    AssociationRule("blind", "oov", 0.5, 0.5)]}
    [record] = cross_lingual_report(["seed"], "en", rules, "all", model, spaces)
    assert record["results"] == [{"word": "kept", "score": pytest.approx(
        (0.6 + 1.0) / 2)}]
    assert (record["skipped_pairs"], record["no_context"]) == (0, False)


def test_word_sim_bounds():
    # cos in [-1, 1]; bounded met-sim in [0, 1] -> sim in [-0.5, 1]
    u = np.array([1.0, 0.0])
    worst = word_sim((1.0, 1.0), (0.0, 0.0), u, -u, BOUNDED)
    best = word_sim((0.5, 0.5), (0.5, 0.5), u, u, BOUNDED)
    assert worst == pytest.approx(-0.5)
    assert best == pytest.approx(1.0)
    assert word_sim((1.0, 0.0), (0.0, 1.0), u, -u, LITERAL) >= -0.25 - 1e-12
    assert word_sim((1.0, 0.0), (0.0, 1.0), u, u, LITERAL) <= 1.25 + 1e-12


def make_ctx(word, entries):
    return WordContext(word=word, entries=entries)


def test_context_sim_singleton_collapse():
    rng = np.random.default_rng(0)
    vec_u, vec_v = rng.normal(size=(2, 4))
    a = make_ctx("x", {"u": (0.3, 0.4)})
    b = make_ctx("y", {"v": (0.2, 0.7)})
    value, skipped = context_sim(a, b, {"u": vec_u}, {"v": vec_v}, LITERAL)
    assert skipped == 0
    assert value == pytest.approx(
        word_sim((0.3, 0.4), (0.2, 0.7), vec_u, vec_v, LITERAL)
    )


def test_context_sim_identical_contexts_bounded():
    rng = np.random.default_rng(1)
    vectors = {w: rng.normal(size=4) for w in ("u1", "u2", "u3")}
    entries = {"u1": (0.2, 0.5), "u2": (0.4, 0.9), "u3": (0.1, 0.3)}
    a = make_ctx("x", dict(entries))
    b = make_ctx("x", dict(entries))
    value, _ = context_sim(a, b, vectors, vectors, BOUNDED)
    assert value == pytest.approx(1.0)


def test_context_sim_symmetry_randomized():
    rng = np.random.default_rng(2)
    for trial in range(20):
        wa = [f"a{i}" for i in range(rng.integers(1, 5))]
        wb = [f"b{i}" for i in range(rng.integers(1, 5))]
        ca = make_ctx("x", {w: tuple(rng.random(2)) for w in wa})
        cb = make_ctx("y", {w: tuple(rng.random(2)) for w in wb})
        va = {w: rng.normal(size=3) for w in wa}
        vb = {w: rng.normal(size=3) for w in wb}
        fwd, _ = context_sim(ca, cb, va, vb, LITERAL)
        rev, _ = context_sim(cb, ca, vb, va, LITERAL)
        assert abs(fwd - rev) < 1e-12


def test_context_sim_brute_force_oracle():
    rng = np.random.default_rng(3)
    ca = make_ctx("x", {"u1": (0.2, 0.8), "u2": (0.5, 0.5)})
    cb = make_ctx("y", {"v1": (0.1, 0.9), "v2": (0.6, 0.4), "v3": (0.3, 0.3)})
    va = {w: rng.normal(size=4) for w in ca.entries}
    vb = {w: rng.normal(size=4) for w in cb.entries}
    # exhaustive pairwise table
    table = {
        (u, v): word_sim(ca.entries[u], cb.entries[v], va[u], vb[v], LITERAL)
        for u in ca.entries
        for v in cb.entries
    }
    fwd = np.mean([max(table[(u, v)] for v in cb.entries) for u in ca.entries])
    bwd = np.mean([max(table[(u, v)] for u in ca.entries) for v in cb.entries])
    expected = (fwd + bwd) / 2
    value, _ = context_sim(ca, cb, va, vb, LITERAL)
    assert value == pytest.approx(expected, abs=1e-12)


def test_context_sim_empty_context_error():
    a = make_ctx("x", {"u": (0.1, 0.2)})
    empty = make_ctx("y", {})
    with pytest.raises(InsufficientDataError, match="y"):
        context_sim(a, empty, {"u": np.ones(2)}, {}, LITERAL)


def test_context_sim_skips_missing_vectors():
    rng = np.random.default_rng(4)
    ca = make_ctx("x", {"u1": (0.2, 0.2), "u2": (0.3, 0.3)})
    cb = make_ctx("y", {"v1": (0.4, 0.4)})
    va = {"u1": rng.normal(size=3)}  # u2 has no vector
    vb = {"v1": rng.normal(size=3)}
    value, skipped = context_sim(ca, cb, va, vb, LITERAL)
    assert skipped == 1
    assert value == pytest.approx(
        word_sim(ca.entries["u1"], cb.entries["v1"], va["u1"], vb["v1"], LITERAL)
    )


def _brute_force_context_sim(ca, cb, va, vb, variant):
    """Mean-of-max over the ``word_sim`` table of the pairs with vectors."""
    table = {
        (u, v): word_sim(ca.entries[u], cb.entries[v], va[u], vb[v], variant)
        for u in ca.entries if u in va
        for v in cb.entries if v in vb
    }
    xs = sorted({u for u, _ in table})
    ys = sorted({v for _, v in table})
    fwd = np.mean([max(table[(u, v)] for v in ys) for u in xs])
    bwd = np.mean([max(table[(u, v)] for u in xs) for v in ys])
    return (fwd + bwd) / 2, len(ca.entries) * len(cb.entries) - len(table)


@pytest.mark.parametrize("variant", [LITERAL, BOUNDED])
def test_context_sim_matches_word_sim_table(variant):
    rng = np.random.default_rng(5)
    trials = 0
    while trials < 40:
        wa = [f"a{i}" for i in range(rng.integers(1, 9))]
        wb = [f"b{i}" for i in range(rng.integers(1, 9))]
        ca = make_ctx("x", {w: tuple(rng.random(2)) for w in wa})
        cb = make_ctx("y", {w: tuple(rng.random(2)) for w in wb})
        # about a third of the words on each side have no vector
        va = {w: rng.normal(size=6) for w in wa if rng.random() > 0.3}
        vb = {w: rng.normal(size=6) for w in wb if rng.random() > 0.3}
        if not va or not vb:
            with pytest.raises(InsufficientDataError):
                context_sim(ca, cb, va, vb, variant)
            continue
        trials += 1
        expected, expected_skipped = _brute_force_context_sim(ca, cb, va, vb, variant)
        value, skipped = context_sim(ca, cb, va, vb, variant)
        assert skipped == expected_skipped
        assert abs(value - expected) < 1e-12


def test_context_sim_none_vector_counts_as_missing():
    rng = np.random.default_rng(6)
    ca = make_ctx("x", {"u1": (0.2, 0.2), "u2": (0.3, 0.3)})
    cb = make_ctx("y", {"v1": (0.4, 0.4), "v2": (0.5, 0.1)})
    va = {"u1": rng.normal(size=3), "u2": None}
    vb = {"v1": None, "v2": rng.normal(size=3)}
    value, skipped = context_sim(ca, cb, va, vb, BOUNDED)
    assert skipped == 3
    assert abs(value - word_sim(ca.entries["u1"], cb.entries["v2"], va["u1"],
                                vb["v2"], BOUNDED)) < 1e-12


NAN = float("nan")
VALID = {"cx": {"u": (0.2, 0.4), "w": (0.1, 0.1)}, "cy": {"v": (0.3, 0.5)},
         "vx": {"u": [1.0, 0.0], "w": [0.0, 1.0]}, "vy": {"v": [0.6, 0.8]},
         "variant": LITERAL}
ERROR_CASES = {
    "empty first context": ({"cx": {}}, InsufficientDataError,
                            "'x' has an empty context"),
    "no pair with vectors": ({"vy": {}}, InsufficientDataError, "no context pair"),
    "unknown variant": ({"variant": "loose"}, ConfigurationError,
                        r"\[similarity\] variant must be one of literal, bounded"),
    "support above 1": ({"cy": {"v": (1.2, 0.5)}}, DomainError, "support must be in"),
    "negative confidence": ({"cx": {"u": (0.2, -0.1), "w": (0.1, 0.1)}},
                            DomainError, "confidence must be in"),
    "nan support": ({"cx": {"u": (NAN, 0.4), "w": (0.1, 0.1)}},
                    DomainError, "support must be in"),
    "nan confidence": ({"cy": {"v": (0.3, NAN)}}, DomainError, "confidence must be in"),
    "zero vector": ({"vy": {"v": [0.0, 0.0]}}, DomainError, "zero vectors"),
    "unequal dimensions": ({"vy": {"v": [0.6, 0.8, 0.0]}}, DimensionError,
                           "dimension mismatch"),
    "unequal dimensions on one side": (
        {"vx": {"u": [1.0, 0.0], "w": [0.0, 1.0, 0.0]}}, DimensionError,
        "dimension mismatch"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_context_sim_errors(case):
    change, error, match = ERROR_CASES[case]
    args = dict(VALID, **change)
    ca, cb = make_ctx("x", args["cx"]), make_ctx("y", args["cy"])
    va = {w: np.array(v) for w, v in args["vx"].items()}
    vb = {w: np.array(v) for w, v in args["vy"].items()}
    with pytest.raises(error, match=match):
        context_sim(ca, cb, va, vb, args["variant"])
    # the one-pair path raises the same error on the same pairs
    if ca.entries and vb:
        with pytest.raises(error):
            for u in ca.entries:
                for v in cb.entries:
                    word_sim(ca.entries[u], cb.entries[v], va[u], vb[v],
                             args["variant"])


def test_context_sim_row_whose_norm_underflows_scores_as_its_direction():
    """A nonzero row whose float64 norm underflows is scaled like any other
    row, so ``[1e-200, 0]`` scores exactly like ``[1, 0]``."""
    ca, cb = make_ctx("x", VALID["cx"]), make_ctx("y", VALID["cy"])
    vb = {"v": np.array([0.6, 0.8])}
    tiny = context_sim(ca, cb, {"u": np.array([1e-200, 0.0]),
                                "w": np.array([0.0, 1e-300])}, vb)
    plain = context_sim(ca, cb, {"u": np.array([1.0, 0.0]),
                                 "w": np.array([0.0, 1.0])}, vb)
    assert tiny == plain


@pytest.mark.parametrize("u", [[1e-200, 0.0], [1e200, 1e200], [0.3, -0.4]])
def test_word_sim_agrees_with_one_pair_context_sim(u):
    """``word_sim`` is the one-pair case of ``context_sim``, rows whose norm
    under- or overflows included."""
    v = np.array([0.6, 0.8])
    ca, cb = make_ctx("x", {"u": (0.2, 0.5)}), make_ctx("y", {"v": (0.3, 0.4)})
    value, skipped = context_sim(ca, cb, {"u": np.array(u)}, {"v": v})
    assert skipped == 0
    assert value == pytest.approx(word_sim((0.2, 0.5), (0.3, 0.4), u, v),
                                  rel=0, abs=1e-15)
