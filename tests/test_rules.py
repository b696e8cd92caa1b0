import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crosslex import build_context, load_labeled_dataset, mine_rules
from crosslex.errors import FormatError, InsufficientDataError
from crosslex.rules import HATE, NON_HATE, AssociationRule, load_stopwords

DOCS = [["a", "b"], ["a", "b", "c"], ["a", "c"]]


def brute_force_rules(docs, top_n, min_support, min_confidence,
                      stopwords=frozenset()):
    """Exhaustive enumeration over (top-n antecedent, vocab word) pairs."""
    doc_sets = [set(d) for d in docs if d]
    n = len(doc_sets)
    vocab = set().union(*doc_sets)
    df = {w: sum(1 for d in doc_sets if w in d) for w in vocab}
    ranked = sorted(
        (w for w in vocab if w not in stopwords), key=lambda w: (-df[w], w)
    )
    rules = []
    for x, u in itertools.product(ranked[:top_n], vocab):
        if x == u:
            continue
        both = sum(1 for d in doc_sets if x in d and u in d)
        supp = both / n
        conf = both / df[x]
        if supp >= min_support and conf >= min_confidence:
            rules.append(AssociationRule(x, u, supp, conf))
    rules.sort(key=lambda r: (r.antecedent, -r.confidence, r.consequent))
    return rules


def test_mine_rules_small_example():
    rules = mine_rules(DOCS, top_n_antecedents=1, min_support=0.5,
                       min_confidence=0.5)
    assert [(r.antecedent, r.consequent) for r in rules] == [("a", "b"), ("a", "c")]
    for r in rules:
        assert r.support == pytest.approx(2 / 3)
        assert r.confidence == pytest.approx(2 / 3)


def test_mine_rules_threshold_excludes():
    assert mine_rules(DOCS, 1, min_support=0.7, min_confidence=0.5) == []


def test_mine_rules_set_semantics():
    rules = mine_rules([["a", "a", "b"]], 1, min_support=0.5, min_confidence=0.5)
    rule = next(r for r in rules if r.antecedent == "a" and r.consequent == "b")
    assert rule.support == 1.0


def test_confidence_consistent_with_support():
    rand = random.Random(17)
    docs = [
        [f"w{rand.randrange(8)}" for _ in range(rand.randrange(1, 6))]
        for _ in range(15)
    ]
    doc_sets = [set(d) for d in docs]
    rules = mine_rules(docs, 5, min_support=0.05, min_confidence=0.05)
    for r in rules:
        df_x = sum(1 for d in doc_sets if r.antecedent in d) / len(doc_sets)
        assert r.support <= df_x + 1e-12
        assert abs(r.confidence - r.support / df_x) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_mine_rules_matches_brute_force(seed):
    rand = random.Random(seed)
    docs = [
        [f"w{rand.randrange(12)}" for _ in range(rand.randrange(1, 8))]
        for _ in range(rand.randrange(3, 20))
    ]
    mined = mine_rules(docs, 6, min_support=0.1, min_confidence=0.2)
    expected = brute_force_rules(docs, 6, 0.1, 0.2)
    assert mined == expected


# A few words, so document-frequency ties at the top_n cut are common and
# top_n often exceeds the vocabulary; "B" and "é" sort around the others.
_WORDS = ["a", "b", "c", "d", "ab", "the", "B", "é"]
# Fractions that some support or confidence equals exactly.
_THRESHOLDS = [1e-9, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]
_FORMS = {
    "list": lambda docs: docs,
    "tuples": lambda docs: [tuple(d) for d in docs],
    "sets": lambda docs: [set(d) for d in docs],
    "generator": lambda docs: (iter(d) for d in docs),
}


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), max_size=12),
       top_n=st.integers(1, 10), min_support=st.sampled_from(_THRESHOLDS),
       min_confidence=st.sampled_from(_THRESHOLDS),
       stopwords=st.frozensets(st.sampled_from(_WORDS), max_size=8),
       form=st.sampled_from(sorted(_FORMS)))
def test_mine_rules_equals_brute_force_exactly(docs, top_n, min_support,
                                               min_confidence, stopwords, form):
    """Rules, their order and their float metrics equal the exhaustive
    recount bit for bit, on corpora with empty documents, repeated tokens
    and stopwords, passed as lists, tuples, sets or a generator of
    iterators."""
    args = (top_n, min_support, min_confidence, stopwords)
    if not any(docs):
        with pytest.raises(InsufficientDataError,
                           match="no nonempty documents to mine"):
            mine_rules(_FORMS[form](docs), *args)
        return
    assert mine_rules(_FORMS[form](docs), *args) == brute_force_rules(docs, *args)


@pytest.mark.parametrize("docs", [[], [[], []], iter([[], ()])])
def test_mine_rules_refuses_corpus_without_words(docs):
    with pytest.raises(InsufficientDataError, match="no nonempty documents to mine"):
        mine_rules(docs, 3, 0.1, 0.1)


def test_mine_rules_every_candidate_a_stopword():
    assert mine_rules([["the", "a"], ["a"]], 5, 0.1, 0.1,
                      stopwords={"the", "a"}) == []


def test_mine_rules_deterministic_order():
    rand = random.Random(5)
    docs = [[f"w{rand.randrange(6)}" for _ in range(4)] for _ in range(12)]
    a = mine_rules(docs, 4, 0.1, 0.1)
    b = mine_rules(docs, 4, 0.1, 0.1)
    assert a == b
    assert a == sorted(a, key=lambda r: (r.antecedent, -r.confidence, r.consequent))


def test_mine_rules_stopwords_excluded_from_antecedents():
    docs = [["the", "cat"], ["the", "dog"], ["the", "cat", "dog"]]
    rules = mine_rules(docs, 1, 0.1, 0.1, stopwords={"the"})
    assert {r.antecedent for r in rules} <= {"cat"}


def test_build_context_entries():
    rules = mine_rules(DOCS, 1, min_support=0.5, min_confidence=0.5)
    ctx = build_context(rules, "a")
    assert set(ctx.entries) == {"b", "c"}
    assert ctx.entries["b"] == (pytest.approx(2 / 3), pytest.approx(2 / 3))
    assert len(ctx) == sum(1 for r in rules if r.antecedent == "a")


def test_build_context_missing_word():
    rules = mine_rules(DOCS, 1, 0.5, 0.5)
    ctx = build_context(rules, "zzz")
    assert ctx.entries == {}


def test_load_labeled_dataset(tmp_path):
    path = tmp_path / "ds.tsv"
    path.write_text("1\tyou are scum\n1\thate speech here\n0\tnice day\n")
    ds = load_labeled_dataset(path, "en")
    assert ds.class_counts() == {HATE: 2, NON_HATE: 1}
    assert ds.docs[0][0] == ["you", "are", "scum"]


def test_load_labeled_dataset_bad_label(tmp_path):
    path = tmp_path / "ds.tsv"
    path.write_text("2\toops\n")
    with pytest.raises(FormatError) as exc:
        load_labeled_dataset(path, "en")
    assert exc.value.line_number == 1


def test_load_labeled_dataset_drops_empty(tmp_path):
    path = tmp_path / "ds.tsv"
    path.write_text("1\thello\n0\t@mention http://only.url\n")
    ds = load_labeled_dataset(path, "en")
    assert len(ds.docs) == 1
    assert ds.dropped_empty == 1


def test_bundled_stopwords_loaded():
    for lang in ("en", "es", "it"):
        stop = load_stopwords(lang)
        assert stop
    assert load_stopwords("zz") == frozenset()
