import numpy as np
import pytest

from crosslex import (
    BilingualLexicon,
    EmbeddingSpace,
    load_lexicon,
    restrict_to_vocab,
    split_lexicon,
)
from crosslex.errors import (
    ConfigurationError,
    FormatError,
    InsufficientDataError,
    InsufficientOverlapError,
)


def make_space(lang, words):
    rng = np.random.default_rng(hash(lang) % 2**32)
    return EmbeddingSpace(lang, words, rng.normal(size=(len(words), 4)))


def test_load_expands_alternatives(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("pussy\tcoño,chocho\n")
    lex = load_lexicon(path, "en", "es")
    assert lex.pairs == [("pussy", "coño"), ("pussy", "chocho")]


def test_load_expansion_count(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("pussy\tfica,figa\nbitch\tcagna\n")
    lex = load_lexicon(path, "en", "it")
    assert len(lex) == 3


def test_load_dedup(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("a\tb\na\tb\n")
    lex = load_lexicon(path, "en", "es")
    assert lex.pairs == [("a", "b")]


def test_dedup_keeps_first_appearance_order():
    lex = BilingualLexicon("en", "es", [
        ("b", "x"), ("a", "y"), ["b", "x"], ("b", "z"), ("a", "y"), ("c", "x"),
    ])
    assert lex.pairs == [("b", "x"), ("a", "y"), ("b", "z"), ("c", "x")]
    assert lex.source_words() == ["b", "a", "c"]


def test_load_comment_and_case(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# header\nFoo\tBar\n")
    lex = load_lexicon(path, "en", "es")
    assert lex.pairs == [("foo", "bar")]


def test_load_malformed_row(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("a\tb\nbad row without tab\n")
    with pytest.raises(FormatError) as exc:
        load_lexicon(path, "en", "es")
    assert exc.value.line_number == 2


def test_load_drops_multiword(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("son of a bitch\thijo de puta\nfoo\tbar\n")
    lex = load_lexicon(path, "en", "es")
    assert lex.pairs == [("foo", "bar")]
    assert lex.multiword_dropped == 1


def test_multiword_dropped_is_a_field_other_lexicons_read_zero(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("a b\tc\nd\te\nf\tg\nh\ti\n")
    lex = load_lexicon(path, "en", "es")
    assert lex.multiword_dropped == 1
    assert BilingualLexicon("en", "es", [("d", "e")]).multiword_dropped == 0
    kept, _ = restrict_to_vocab(lex, make_space("en", ["d", "f", "h"]),
                                make_space("es", ["e", "g", "i"]))
    assert kept.multiword_dropped == 0
    assert [part.multiword_dropped for part in split_lexicon(lex, 0.5, 0)] == [0, 0]


def test_same_language_rejected():
    with pytest.raises(ConfigurationError):
        BilingualLexicon("en", "en", [("a", "b")])


def test_restrict_keeps_in_vocab_pairs():
    src = make_space("en", ["a", "b", "c"])
    tgt = make_space("es", ["x", "y"])
    lex = BilingualLexicon("en", "es", [("a", "x"), ("b", "y"), ("c", "missing")])
    kept, dropped = restrict_to_vocab(lex, src, tgt)
    assert kept.pairs == [("a", "x"), ("b", "y")]
    assert dropped == 1


def test_restrict_all_oov():
    src = make_space("en", ["a"])
    tgt = make_space("es", ["x"])
    lex = BilingualLexicon("en", "es", [("q", "z")])
    with pytest.raises(InsufficientOverlapError):
        restrict_to_vocab(lex, src, tgt)


def test_restrict_brute_force_oracle():
    rng = np.random.default_rng(3)
    src_words = [f"s{i}" for i in range(120)]
    tgt_words = [f"t{i}" for i in range(120)]
    src = make_space("en", src_words[:80])
    tgt = make_space("es", tgt_words[40:])
    pairs = [
        (src_words[rng.integers(0, 120)], tgt_words[rng.integers(0, 120)])
        for _ in range(200)
    ]
    lex = BilingualLexicon("en", "es", pairs)
    kept, dropped = restrict_to_vocab(lex, src, tgt)
    expected = [
        (s, t) for s, t in lex.pairs if s in src.vocab and t in tgt.vocab
    ]
    assert kept.pairs == expected
    assert dropped == len(lex.pairs) - len(expected)


def test_split_counts_and_determinism():
    pairs = [(f"s{i}", f"t{i}") for i in range(10)]
    lex = BilingualLexicon("en", "es", pairs)
    train, val = split_lexicon(lex, 0.8, rng_seed=1)
    assert len(train.source_words()) == 8
    assert len(val.source_words()) == 2
    train2, val2 = split_lexicon(lex, 0.8, rng_seed=1)
    assert train.pairs == train2.pairs and val.pairs == val2.pairs


def test_split_groups_by_source_word():
    pairs = [("multi", f"t{i}") for i in range(3)]
    pairs += [(f"s{i}", f"u{i}") for i in range(7)]
    lex = BilingualLexicon("en", "es", pairs)
    train, val = split_lexicon(lex, 0.5, rng_seed=4)
    for side in (train, val):
        n = sum(1 for s, _ in side.pairs if s == "multi")
        assert n in (0, 3)


def test_split_partition_properties():
    pairs = [(f"s{i % 6}", f"t{i}") for i in range(18)]
    lex = BilingualLexicon("en", "es", pairs)
    train, val = split_lexicon(lex, 0.5, rng_seed=2)
    assert sorted(train.pairs + val.pairs) == sorted(lex.pairs)
    assert not set(train.pairs) & set(val.pairs)
    assert not set(train.source_words()) & set(val.source_words())


def test_lexicon_refusals():
    with pytest.raises(ConfigurationError,
                       match="source and target language must differ"):
        BilingualLexicon("en", "en", [("a", "b")])
    with pytest.raises(FormatError, match="empty word in lexicon pair"):
        BilingualLexicon("en", "es", [("a", "b"), ("c", "")])


def test_split_needs_two_source_words():
    lex = BilingualLexicon("en", "es", [("a", "b"), ("a", "c")])
    with pytest.raises(InsufficientDataError,
                       match="need >= 2 distinct source words to split"):
        split_lexicon(lex, 0.5, rng_seed=0)


def test_split_fraction_out_of_range():
    lex = BilingualLexicon("en", "es", [("a", "b"), ("c", "d")])
    with pytest.raises(ConfigurationError):
        split_lexicon(lex, 1.0, rng_seed=0)
