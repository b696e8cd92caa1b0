import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from crosslex import (
    build_vocab,
    filter_corpus,
    load_labeled_dataset,
    load_lexicon,
    tokenize,
)
from crosslex.corpus import check_seed_term, load_seed_terms, read_lines
from crosslex.errors import ConfigurationError, FormatError


def test_tokenize_lowercase():
    assert tokenize("Hello WORLD") == ["hello", "world"]


def test_tokenize_strips_and_keeps_hashtag_body():
    assert tokenize("see http://x.y @bob #stopX") == ["see", "stopx"]


# text -> its tokens: a URL ends at whitespace, so a "#" or "@" in it starts
# no hashtag or mention; a mention ends where a "#" begins; the spaces put
# around a hashtag's body end it as a word, so its capital sigma lowercases
# to the final form even before a full stop or an apostrophe; an underscore
# belongs to a hashtag's body and a mention's name but splits tokens.
TRICKY_TOKENS = {
    "see http://x.y/#frag @bob": ["see"],
    "http://a.b/@user?q=#x tail": ["tail"],
    "www.site.com/#top #Tag": ["tag"],
    "@alice#Hate now": ["hate", "now"],
    "@bob#x": ["x"],
    "email me@x.org ok": ["email", "me", "org", "ok"],
    "#ΑΣ.Β": ["ας", "β"],
    "#ΑΣ'Β": ["ας", "β"],
    "ΟΔΟΣ #ΟΔΟΣ": ["οδος", "οδος"],
    "#ΣΣ": ["σς"],
    "#hate_speech now": ["hate", "speech", "now"],
    "#_x_ y": ["x", "y"],
    "@a_b c": ["c"],
    "#a#b": ["a", "b"],
}


@pytest.mark.parametrize("text", sorted(TRICKY_TOKENS))
def test_tokenize_tricky_inputs(text):
    assert tokenize(text) == TRICKY_TOKENS[text]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_deterministic():
    text = "RT @x: niña 123 #hash http://a.b c'est"
    assert tokenize(text) == tokenize(text)


def test_filter_corpus_membership():
    assert list(filter_corpus(["a b", "c d"], {"b"})) == ["a b"]


def test_filter_corpus_no_match():
    assert list(filter_corpus(["a b", "c d"], {"x"})) == []


def test_filter_corpus_empty_seeds():
    with pytest.raises(ConfigurationError):
        list(filter_corpus(["a"], set()))


def test_filter_corpus_matches_tokens_not_substrings():
    # seed "cat" must not fire inside "category"
    assert list(filter_corpus(["the category", "a cat"], {"cat"})) == ["a cat"]


def test_filter_corpus_count_oracle():
    rand = random.Random(13)
    vocab = [f"t{i}" for i in range(50)]
    seeds = {"s1", "s2"}
    lines = []
    expected = 0
    for _ in range(1000):
        words = [rand.choice(vocab) for _ in range(6)]
        if rand.random() < 0.14:
            words[rand.randrange(6)] = rand.choice(sorted(seeds))
        line = " ".join(words)
        if seeds.intersection(words):
            expected += 1
        lines.append(line)
    got = list(filter_corpus(lines, seeds))
    assert len(got) == expected
    assert got == [l for l in lines if seeds.intersection(l.split())]


def test_build_vocab_min_count():
    assert build_vocab([["a", "a", "b"]], min_count=2) == {"a": 2}
    assert build_vocab([["a", "a", "b"]], min_count=1) == {"a": 2, "b": 1}


def test_build_vocab_recount_oracle():
    rand = random.Random(99)
    corpus = [
        [f"w{rand.randrange(40)}" for _ in range(20)] for _ in range(500)
    ]
    expected = Counter()
    for doc in corpus:
        for tok in doc:
            expected[tok] += 1
    assert build_vocab(corpus, 1) == dict(expected)
    assert build_vocab(corpus, 100) == {
        w: c for w, c in expected.items() if c >= 100
    }


def test_load_seed_terms(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("# comment\nfoo\n\nbar\n")
    assert load_seed_terms(path) == ["foo", "bar"]


# Seed terms that ``tokenize`` never yields, and the tokens it makes of them.
UNPRODUCIBLE_SEEDS = [
    ("hate_speech", ["hate", "speech"]),
    ("#hate", ["hate"]),
    ("e-mail", ["e", "mail"]),
    ("İstanbul", ["i", "stanbul"]),
    ("@user", []),
]


@pytest.mark.parametrize("term", ["hate", "Hate", "ñandú", "abc123"])
def test_seed_term_the_tokenizer_yields_is_accepted(term):
    assert check_seed_term(term) == term.lower()
    assert list(filter_corpus([f"x {term.upper()} y", "z"], [term])) == [
        f"x {term.upper()} y"]


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=8), st.sampled_from(
    [term for term, _ in UNPRODUCIBLE_SEEDS] + ["www", "http", "ΑΣ", "ß"])))
def test_seed_term_is_accepted_exactly_when_it_tokenizes_as_itself(term):
    try:
        checked = check_seed_term(term)
    except ConfigurationError:
        assert tokenize(term) != [term.lower()]
    else:
        assert tokenize(term) == [checked] == [term.lower()]


@pytest.mark.parametrize("term,tokens", UNPRODUCIBLE_SEEDS)
def test_seed_term_the_tokenizer_never_yields_is_refused(term, tokens):
    message = f"seed term {term!r} can never match: it tokenizes as {tokens}"
    with pytest.raises(ConfigurationError) as exc:
        check_seed_term(term)
    assert str(exc.value) == message
    with pytest.raises(ConfigurationError) as exc:
        list(filter_corpus([term, "hate"], ["hate", term]))
    assert str(exc.value) == message


# In a seed file a line that starts with "#" is a comment.
@pytest.mark.parametrize("term,tokens", [(term, tokens) for term, tokens in
                                         UNPRODUCIBLE_SEEDS if term[0] != "#"])
def test_seed_file_term_the_tokenizer_never_yields_names_file_and_line(
        tmp_path, term, tokens):
    path = tmp_path / "seeds.txt"
    path.write_text(f"# seeds\nhate\n\n{term}\nslur\n", encoding="utf-8")
    with pytest.raises(ConfigurationError) as exc:
        load_seed_terms(path)
    assert str(exc.value) == (f"{path}: seed term {term!r} can never match: "
                              f"it tokenizes as {tokens} (line 4)")


@pytest.mark.parametrize("load, first_line", [
    (read_lines, b"a document\n"),
    (load_seed_terms, b"# seeds\n"),
    (lambda path: load_labeled_dataset(path, "en"), b"1\tsome text\n"),
    (lambda path: load_lexicon(path, "en", "es"), b"dog\tperro\n"),
])
def test_invalid_utf8_names_file_and_line(tmp_path, load, first_line):
    path = tmp_path / "input.txt"
    path.write_bytes(first_line + b"\n" + first_line + b"caf\xe9\n" + first_line)
    with pytest.raises(FormatError) as exc:
        load(path)
    assert exc.value.line_number == 4
    assert str(exc.value) == f"{path}: invalid UTF-8 bytes (line 4)"
