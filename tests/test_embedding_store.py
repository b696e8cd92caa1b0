import contextlib
import hashlib
import io
import os
import pickle
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crosslex import EmbeddingSpace, cosine, load_embeddings, save_embeddings
from crosslex import embedding_store
from crosslex.embedding_store import unit_rows
from crosslex.cli import main
from crosslex.errors import (
    ConfigurationError,
    CrosslexError,
    DimensionError,
    DomainError,
    FormatError,
    InsufficientDataError,
)

from conftest import mostly, write_embedding_file


def test_load_basic(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("3 2\na 1 0\nb 0 1\nc 1 1\n")
    space = load_embeddings(path, "en")
    assert space.dim == 2
    assert len(space.vocab) == 3
    assert np.allclose(space.vectors[space.vocab["c"]], [1, 1])


def test_load_header_row_mismatch(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("4 2\na 1 0\nb 0 1\nc 1 1\n")
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 5


def test_load_wrong_arity_reports_line(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 3\na 1 0 2\nb 0 1\n")
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 3


def test_load_duplicate_keeps_first(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("4 2\na 1 0\nb 0 1\na 9 9\nc 1 1\n")
    space = load_embeddings(path, "en")
    assert len(space.vocab) == 3
    assert space.duplicates_dropped == 1
    assert np.allclose(space.vectors[space.vocab["a"]], [1, 0])


def test_load_rejects_zero_row(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 2\na 0 0\nb 1 1\n")
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 2


def test_load_non_numeric_reports_line(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("3 2\na 1 0\nb 0 x\nc 1 1\n")
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 3


def test_load_empty_vocab(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("0 2\n")
    with pytest.raises(InsufficientDataError):
        load_embeddings(path, "en")


# The per-line loader that the one-call parse replaced, kept verbatim as the
# oracle: same words, float32 bits, duplicate count, error class and line.
def _scalar_load_embeddings(path, language):
    """Parse a word2vec text file into an EmbeddingSpace.

    First line is "<vocab_count> <dim>"; each following line is a word and
    its components, space separated. Duplicate words keep the first
    occurrence; the count of dropped rows is recorded on the returned
    space as ``duplicates_dropped``.
    """
    words = []
    rows = []
    seen = {}
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise FormatError("expected header '<vocab_count> <dim>'", 1)
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("non-integer header fields", 1) from None
        if count < 1:
            raise InsufficientDataError("empty vocabulary in embedding file")
        if dim < 1:
            raise FormatError("embedding dimension must be >= 1", 1)
        lineno = 1
        for line in fh:
            lineno += 1
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            fields = [f for f in fields if f != ""]
            if len(fields) != dim + 1:
                raise FormatError(
                    f"expected {dim + 1} fields, found {len(fields)}", lineno
                )
            word = fields[0]
            try:
                vec = np.array(fields[1:], dtype=np.float32)
            except ValueError:
                raise FormatError("non-numeric vector component", lineno) from None
            if not np.isfinite(vec).all():
                raise FormatError("non-finite vector component", lineno)
            if not vec.any():
                raise FormatError(f"all-zero vector for word {word!r}", lineno)
            if word in seen:
                duplicates += 1
                continue
            seen[word] = True
            words.append(word)
            rows.append(vec)
    if len(words) + duplicates != count:
        raise FormatError(
            f"header promised {count} rows, found {len(words) + duplicates}",
            lineno + 1,
        )
    space = EmbeddingSpace(language, words, np.vstack(rows))
    space.duplicates_dropped = duplicates
    return space


def _outcome(load, path):
    """What a loader makes of a file: the space's words, float32 bits and
    duplicate count, or the error class and line number it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # float32 overflow
            space = load(path, "en")
    except CrosslexError as err:
        return type(err), getattr(err, "line_number", None)
    # str, not the bytes that numpy < 2.0 hands loadtxt converters by default
    assert all(type(w) is str for w in space.words)
    return space.words, space.vectors.view(np.uint32).tolist(), space.duplicates_dropped


# Well-formed files the one-call parse reads without the per-line scan.
BULK_CASES = {
    "plain": "3 2\na 1 0\nb 0 1\nc 1 1\n",
    "no final newline": "2 2\na 1 0\nb 0 1",
    "empty lines": "2 2\n\na 1 0\n\nb 0 1\n\n\n",
    "crlf": "3 2\r\na 1 0\r\nb 0 1\r\nc 1 1\r\n",
    "bare cr": "2 2\ra 1 0\rb 0 1\r",
    "tab inside word": "2 2\na\tb 1 0\nb 0 1\n",
    "tab around numbers": "2 2\na 1\t 0\nb \t0 1\x0c\n",
    "finite 1e30": "2 2\na 1e30 1\nb -1e30 1\n",
    "norm overflows float32": "2 2\na 1e30 0\nb 3e19 1\n",
    "norm underflows float32": "2 2\na 1e-30 0\nb 0 1\n",
    "spellings": "2 3\na +1e5 .5 5.\nb -0 1E-3 0.0\n",
    "duplicate keeps first": "4 2\na 1 0\nb 0 1\na 9 9\nc 1 1\n",
    "subnormal square survives": "2 2\na 1e-20 0\nb 3e-23 0\n",
    "float32 half-way values": (
        "4 3\n"
        "a 1.000000059604644775390625 1.00000005960464477539062500001 1\n"
        "b 1.0000001788139343 1.00000017881393432617187499999 1\n"
        "c 3.4028235677973362e38 -3.4028235677973362e38 1\n"
        "d 0.1234565 -0.1234565 16777217\n"
    ),
    "dim one": "2 1\na 1\nb -2\n",
    "trailing space on every row": "2 2\na 1 0 \nb 0 1 \n",
    "trailing space crlf": "2 2\r\na 1 0 \r\nb 0 1 \r\n",
    "trailing space, no final newline": "2 2\na 1 0 \nb 0 1 ",
    "trailing space, empty lines": "2 2\n\na 1 0 \n\nb 0 1 \n\n",
    "trailing space, dim one": "3 1\na 1 \nb -2 \na 5 \n",
}

# Files the one-call parse refuses: the per-line scan reads or rejects them.
SCAN_CASES = {
    "whitespace-only lines": "3 2\na 1 0\n   \nb 0 1\n\t\nc 1 1\n",
    "double spaces": "2 2\na  1 0\nb 0  1\n",
    "leading space": "2 2\n a 1 0\nb 0 1\n",
    "leading space on every row": "2 2\n 1 0\n 0 1\n",
    "two trailing spaces": "2 2\na 1 0  \nb 0 1  \n",
    "mixed trailing spaces": "2 2\na 1 0 \nb 0 1\n",
    "trailing spaces from the second row": "2 2\na 1 0\nb 0 1 \nc 1 1 \n",
    "number after the trailing space column": "3 2\na 1 0 \nb 0 1 5\nc 1 1 \n",
    "extra column with trailing space": "2 2\na 1 0 \nb 0 1 5 \n",
    "trailing space, missing column": "2 2\na 1 0 \nb 0 \n",
    "trailing space, every row a column short": "2 3\na 1 0 \nb 0 1 \n",
    "tab inside a number": "2 2\na 1\t0 5\nb 0 1\n",
    "missing column": "2 2\na 1\nb 0 1\n",
    "extra column": "2 2\na 1 0\nb 0 1 5\n",
    "extra column on every row": "2 2\na 1 0 3\nb 0 1 5\n",
    "non-numeric": "2 2\na 1 x\nb 0 1\n",
    "whitespace field": "2 2\na 1\t2 \t\nb 0 1\n",
    "underscore digits": "2 2\na 1_0 0\nb 0 1\n",
    "non-ascii digits": "2 2\na \u0661 0\nb 0 \u0663\n",
    "nan row": "2 2\na nan 1\nb 0 1\n",
    "inf": "2 2\na inf 1\nb -Infinity 1\n",
    "float32 overflow": "2 2\na 1 1\nb 1e39 1\n",
    "float32 half-way overflow": "2 2\na 3.4028235677973366e38 1\nb 0 1\n",
    "all-zero row": "2 2\na 0 0\nb 0 1\n",
    "negative zero row": "2 2\na -0 0.0\nb 0 1\n",
    # rows that load: their norm underflows float32, but they are not zero
    "only nonzero is 1e-45": "2 2\na 1e-45 0\nb 0 1\n",
    "square underflows": "2 2\na 2e-23 0\nb 0 1\n",
    "norm underflows, double spaces": "2 2\na  1e-30 0\nb 0  1\n",
    "norm overflows, double spaces": "2 2\na  1e30 0\nb 3e19  1\n",
    "duplicate with malformed second row": "3 2\na 1 0\nb 0 1\na x 1\n",
    "duplicate with short second row": "3 2\na 1 0\nb 0 1\na 1\n",
    "duplicate with zero second row": "3 2\na 1 0\nb 0 1\na 0 0\n",
    "non-numeric before zero row": "3 2\na 1 x\nb 0 0\nc 1\n",
    "zero row before non-numeric": "3 2\na 0 0\nb x 1\nc 1 1\n",
    "zero row before short row": "3 2\na 1 1\nb 0 0\nc 1\n",
    "bad line after header mismatch": "5 2\na 1 0\nb 0 1\nc 1 x\n",
    "more rows than promised": "2 2\na 1 0\nb 0 1\nc 1 1\n",
    "fewer rows, trailing blank lines": "4 2\na 1 0\nb 0 1\nc 1 1\n\n\n",
    "fewer rows, trailing whitespace lines": "4 2\na 1 0\nb 0 1\nc 1 1\n \n\t\n",
    "header only": "1 1\n",
    "only blank lines": "1 1\n\n\n",
    "empty file": "",
    "bad header": "x 2\na 1 0\n",
    "one header field": "2\na 1 0\n",
    "zero count": "0 2\n",
    "zero dim": "2 0\na\nb\n",
    "comment sign": "2 2\na 1 0#\nb 0 1\n",
    "quote": '2 2\na "1" 0\nb 0 1\n',
    "comma decimal": "2 2\na 1,5 0\nb 0 1\n",
}


@pytest.mark.parametrize("text", BULK_CASES.values(), ids=BULK_CASES.keys())
def test_bulk_parse_matches_scalar_oracle(tmp_path, monkeypatch, text):
    path = tmp_path / "e.vec"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(_scalar_load_embeddings, path)
    assert not isinstance(expected[0], type)  # a space, not an error
    monkeypatch.setattr(embedding_store, "_parse_lines", None)  # no fallback
    assert _outcome(load_embeddings, path) == expected


@pytest.mark.parametrize("text", SCAN_CASES.values(), ids=SCAN_CASES.keys())
def test_scan_fallback_matches_scalar_oracle(tmp_path, text):
    path = tmp_path / "e.vec"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_embeddings, path) == _outcome(_scalar_load_embeddings, path)


def _random_vec_text(rng):
    """A small .vec file: half are well formed apart from their numbers,
    half also mix spacing, line ends, field counts and header counts."""
    numbers = ["1", "-2.5", "0", "-0", "0.1", "1e-45", "2e-23", "1e-20", "nan",
               "inf", "-inf", "1e999", "1_0", "\u0663", "x", "\t3", "4\t",
               "1\t2", "\t"]
    words = ["a", "b", "c", "a\tb", "\xa0", "#"]
    ends = ["\n", "\r\n", " \n", "  \n", "\n\n", "\n \n"]
    messy = rng.random() < 0.5
    dim = int(rng.integers(1, 4))
    n_rows = int(rng.integers(1, 5))
    end = str(rng.choice(ends[:2]))
    lines = []
    for _ in range(n_rows):
        pool = numbers if messy and rng.random() < 0.5 else numbers[:10]
        width = dim + (int(rng.integers(-1, 2)) if messy and rng.random() < 0.2 else 0)
        fields = [str(rng.choice(words))]
        fields += [str(rng.choice(pool)) for _ in range(width)]
        sep = "  " if messy and rng.random() < 0.1 else " "
        lines.append(sep.join(fields) + (str(rng.choice(ends)) if messy else end))
    count = n_rows + (int(rng.integers(-1, 2)) if messy and rng.random() < 0.2 else 0)
    return f"{count} {dim}\n" + "".join(lines)


def test_random_files_match_scalar_oracle(tmp_path):
    rng = np.random.default_rng(20)
    outcomes = set()
    for case in range(400):
        path = tmp_path / f"r{case}.vec"
        path.write_bytes(_random_vec_text(rng).encode("utf-8"))
        expected = _outcome(_scalar_load_embeddings, path)
        assert _outcome(load_embeddings, path) == expected, path.read_bytes()
        outcomes.add(expected[0] if isinstance(expected[0], type) else "space")
    assert {"space", FormatError} <= outcomes


def test_load_large_file_matches_scalar_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.integers(-15, 15, size=(3000, 1))
    vectors = rng.normal(size=(3000, 50)) * scales
    words = [f"w{i}" for i in range(3000)] + ["w7"]
    path = tmp_path / "big.vec"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("3001 50\n")
        for word, row in zip(words, np.vstack([vectors, vectors[:1]])):
            fh.write(word + " " + " ".join(f"{x:.17g}" for x in row) + "\n")
    expected = _outcome(_scalar_load_embeddings, path)
    assert expected[2] == 1
    monkeypatch.setattr(embedding_store, "_parse_lines", None)  # no fallback
    assert _outcome(load_embeddings, path) == expected


def test_invalid_utf8_reports_line(tmp_path):
    path = tmp_path / "e.vec"
    path.write_bytes(b"3 2\na 1 0\r\nb 0 1\r\n\n\xffc 1 1\n")
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 5
    path.write_bytes(b"3 2\xff\na 1 0\n")
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 1
    path.write_bytes(b"3 2\na 1 x\nb 0 1\n\xe9 1 1\n")  # an earlier bad line
    with pytest.raises(FormatError) as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 2


@pytest.mark.parametrize("sep", [" ", "  "], ids=["bulk", "scan"])
@pytest.mark.parametrize("number", ["nan", "inf", "-inf", "1e39", "-1e39"])
def test_non_finite_component_names_line(tmp_path, sep, number):
    path = tmp_path / "e.vec"
    path.write_text(f"3 2\na 1 0\nb{sep}1 {number}\nc 0 1\n")
    with pytest.raises(FormatError, match="non-finite vector component") as exc:
        load_embeddings(path, "en")
    assert exc.value.line_number == 3


def test_finite_1e30_component_loads(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("2 2\na 1e30 0\nb -3e38 1\n")
    space = load_embeddings(path, "en")
    assert space.vectors.tolist() == [[np.float32(1e30), 0], [np.float32(-3e38), 1]]


def test_cli_invalid_utf8_exits_2_with_line(tmp_path, capsys):
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(30, 4))
    words = [f"w{i}" for i in range(30)]
    en, es = tmp_path / "en.vec", tmp_path / "es.vec"
    write_embedding_file(en, words, vectors)
    write_embedding_file(es, words, vectors)
    lines = es.read_bytes().split(b"\n")
    lines[11] = b"w10\xff" + lines[11][3:]
    es.write_bytes(b"\n".join(lines))
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("".join(f"{w}\t{w}\n" for w in words))
    code = main([
        "align", "--pivot", "en",
        "--embeddings", f"en={en}", "--embeddings", f"es={es}",
        "--lexicon", f"es={lexicon}", "--output", str(tmp_path / "model"),
    ])
    assert code == 2
    assert f"{es}: invalid UTF-8 bytes (line 12)" in capsys.readouterr().err


def test_roundtrip_small(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("3 2\na 1 0\nb 0 1\nc 1 1\n")
    space = load_embeddings(path, "en")
    out = tmp_path / "out.txt"
    save_embeddings(space, out)
    again = load_embeddings(out, "en")
    assert again.words == space.words
    assert np.max(np.abs(again.vectors - space.vectors)) < 1e-6


def test_roundtrip_large_random(tmp_path):
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(1000)]
    vecs = rng.normal(size=(1000, 20)).astype(np.float32)
    space = EmbeddingSpace("en", words, vecs)
    path = tmp_path / "big.txt"
    save_embeddings(space, path)
    again = load_embeddings(path, "en")
    assert again.words == words
    assert np.max(np.abs(again.vectors - space.vectors)) < 1e-6


def test_save_bytes_match_per_float_formatting(tmp_path):
    special = [5e-7, -5e-7, -0.0, 0.0, 1.5e-6, 2.5e-6, -1e-9, 1.0000005,
               0.1234565, -0.1234565, 123456.7890625, -3.4e38, 1e-45]
    vectors = np.random.default_rng(3).normal(size=(4, len(special)))
    vectors[0] = special
    vectors[1] = -vectors[1]
    space = EmbeddingSpace("en", ["a", "b", "c", "d"], vectors)
    path = tmp_path / "e.vec"
    save_embeddings(space, path)
    expected = f"4 {len(special)}\n" + "".join(
        f"{w} " + " ".join(f"{x:.6f}" for x in row) + "\n"
        for w, row in zip(space.words, space.vectors)
    )
    assert path.read_bytes() == expected.encode("utf-8")


def test_save_unwritable(tmp_path):
    space = EmbeddingSpace("en", ["a"], [[1.0, 2.0]])
    with pytest.raises(OSError):
        save_embeddings(space, tmp_path / "no" / "such" / "dir" / "e.txt")


_BAD_WORD = "a word must be nonempty and hold no space, \\n or \\r"


@pytest.mark.parametrize("words, vectors, message", [
    (["a", ""], [[1, 2], [3, 4]], f"cannot save word '': {_BAD_WORD}"),
    (["a b"], [[1, 2]], f"cannot save word 'a b': {_BAD_WORD}"),
    (["a\n"], [[1, 2]], f"cannot save word 'a\\n': {_BAD_WORD}"),
    (["a\r"], [[1, 2]], f"cannot save word 'a\\r': {_BAD_WORD}"),
    (["a", "b"], [[1, 2], [np.nan, 4]],
     "cannot save word 'b': its vector is not finite"),
    (["a"], [[4e-7, -4e-7]],
     "cannot save word 'a': its vector is all zeros at 6 decimals"),
    ([], np.empty((0, 2)), "cannot save a space without words"),
    (["a", "b\udc80"], [[1, 2], [3, 4]],
     "cannot save word 'b\\udc80': a word must be encodable as UTF-8"),
], ids=["empty word", "space", "newline", "carriage return", "nan",
        "zeros at 6 decimals", "no words", "lone surrogate"])
def test_save_embeddings_refuses_what_load_refuses(tmp_path, words, vectors,
                                                   message):
    """A space whose file load_embeddings would refuse is not written."""
    path = tmp_path / "e.vec"
    with pytest.raises(ConfigurationError) as exc:
        save_embeddings(EmbeddingSpace("en", words, vectors), path)
    assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []
    path.write_text(f"{len(words)} 2\n" + "".join(
        f"{word} {row[0]:.6f} {row[1]:.6f}\n" for word, row in zip(words, vectors)),
        encoding="utf-8", errors="surrogateescape")
    with pytest.raises((FormatError, InsufficientDataError)):
        load_embeddings(path, "en")


def test_save_embeddings_keeps_tabs_and_the_smallest_written_rows(tmp_path):
    """A tab is part of its word, and a row whose largest magnitude is the
    float32 just above 5e-7 is written as 0.000001."""
    space = EmbeddingSpace("en", ["a\tb"], [[np.nextafter(np.float32(5e-7),
                                                          np.float32(1)), 0]])
    save_embeddings(space, tmp_path / "e.vec")
    assert (tmp_path / "e.vec").read_text() == "1 2\na\tb 0.000001 0.000000\n"
    assert load_embeddings(tmp_path / "e.vec", "en").words == ["a\tb"]


def test_normalized_rows_unit():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(3, 5)).astype(np.float32)
    norms = np.linalg.norm(unit_rows(rows), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_unit_rows_keeps_dtype_and_zero_rows():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 7)).astype(np.float32) * 5
    mat[4] = 0
    unit = unit_rows(mat)
    assert unit.dtype == np.float32
    assert np.all(unit[4] == 0)
    norms = np.linalg.norm(np.delete(unit, 4, axis=0), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6
    # A row comes out the same alone as inside the whole matrix.
    for i in (0, 4, 39):
        assert np.array_equal(unit_rows(mat[i:i + 1])[0], unit[i])
    assert np.array_equal(unit_rows(mat[[3, 9, 3]]), unit[[3, 9, 3]])
    assert unit_rows(mat.astype(np.float64)).dtype == np.float64


def test_unit_rows_rescales_norms_that_overflow_or_underflow():
    mat = np.array([[1e30, 0], [3e19, 1], [1e-30, 0], [0, -0.0], [3, 4]],
                   dtype=np.float32)
    unit = unit_rows(mat)  # an overflow warning fails the test
    assert unit.dtype == np.float32
    assert unit[[0, 2, 3]].tolist() == [[1, 0], [1, 0], [0, 0]]
    assert np.allclose(unit[1], [1, 1 / 3e19], rtol=1e-6, atol=0)
    assert np.array_equal(unit[4], mat[4] / np.linalg.norm(mat[4]))


@pytest.mark.parametrize("sep", [" ", "  "], ids=["bulk", "scan"])
def test_rows_whose_norm_overflows_or_underflows_load(tmp_path, monkeypatch, sep):
    path = tmp_path / "e.vec"
    path.write_text(f"3 2\na{sep}1e30 0\nb 3e19{sep}1\nc 1e-30{sep}0\n")
    if sep == " ":
        monkeypatch.setattr(embedding_store, "_parse_lines", None)  # no fallback
    space = load_embeddings(path, "en")
    assert space.words == ["a", "b", "c"]
    norms = np.linalg.norm(unit_rows(space.vectors).astype(np.float64), axis=1)
    assert np.allclose(norms, 1, rtol=0, atol=1e-6)


def test_cosine_values():
    assert cosine([3, 4], [3, 4]) == pytest.approx(1.0)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine([1, 2], [2, 1]) == pytest.approx(0.8)
    # rows whose float64 norm overflows or underflows keep their direction
    assert cosine([1e200, 1e200], [1e200, 0]) == pytest.approx(0.5 ** 0.5)
    assert cosine([1e-200, 0], [1, 0]) == 1.0


@pytest.mark.parametrize("words,vectors,error,message", [
    (["a"], np.ones(3), DimensionError, "vectors must be a 2-d matrix"),
    (["a", "b"], np.ones((3, 2)), DimensionError, "2 words but 3 vector rows"),
    (["a"], np.ones((1, 0)), DimensionError, "embedding dimension must be >= 1"),
    (["a", "a"], np.ones((2, 2)), FormatError, "duplicate words in vocabulary"),
])
def test_embedding_space_refusals(words, vectors, error, message):
    with pytest.raises(error) as exc:
        EmbeddingSpace("en", words, vectors)
    assert str(exc.value) == message


def test_cosine_errors():
    with pytest.raises(DomainError):
        cosine([0, 0], [1, 1])
    with pytest.raises(DomainError):
        cosine([1, 1], [0.0, -0.0])
    with pytest.raises(DimensionError):
        cosine([1, 0], [1, 0, 0])


@given(st.integers(0, 2**32 - 1))
def test_cosine_symmetric_and_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=6) + 0.1
    v = rng.normal(size=6) + 0.1
    alpha = float(rng.uniform(0.01, 100.0))
    assert abs(cosine(u, v) - cosine(v, u)) < 1e-12
    assert abs(cosine(alpha * u, v) - cosine(u, v)) < 1e-9


@st.composite
def _spaces(draw):
    """Small spaces, some of which load_embeddings could not read back."""
    word = st.text(st.characters(exclude_categories=("Cs",),
                                 exclude_characters=" \n\r"),
                   min_size=1, max_size=3)
    words = draw(st.lists(mostly(word, "", " ", "a b", "a\n", "\r"),
                          max_size=4, unique=True))
    cells = mostly(st.floats(-1e3, 1e3, width=32), np.nan, np.inf, 4e-7,
                   -4.9e-7, 5e-7, one_in=20)
    vectors = draw(arrays(np.float32, (len(words), draw(st.integers(1, 3))),
                          elements=cells))
    return EmbeddingSpace("en", words, vectors)


@settings(max_examples=200, deadline=None)
@given(_spaces())
def test_a_space_that_saves_loads_back(space):
    """What save_embeddings writes loads back with its words, and with each
    component within 5e-7 (6 decimals) plus half a float32 step."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.vec")
        try:
            save_embeddings(space, path)
        except ConfigurationError:
            assert os.listdir(tmp) == []
            return
        again = load_embeddings(path, "en")
    assert again.words == space.words
    assert np.allclose(again.vectors.astype(np.float64), space.vectors,
                       rtol=2 ** -24, atol=5e-7)



# The parse kept beside each .vec file in <path>.cache, keyed by the sha256
# of the file's bytes.

def _write_exact(path, words, vectors):
    """A .vec file whose components parse back to the float32 bits of
    ``vectors``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {vectors.shape[1]}\n")
        for word, row in zip(words, vectors.tolist()):
            fh.write(word + " " + " ".join(map(repr, row)) + "\n")


def _same_space(got, want):
    assert got.words == want.words
    assert np.array_equal(got.vectors.view(np.uint32), want.vectors.view(np.uint32))
    assert got.duplicates_dropped == want.duplicates_dropped
    assert got.source_sha256 == want.source_sha256


@contextlib.contextmanager
def _unparsed():
    """Within the block, a parse of any .vec file fails the test."""
    def fail(path):
        raise AssertionError(f"{path} was parsed")
    with mock.patch.object(embedding_store, "_parse_bulk", fail), \
            mock.patch.object(embedding_store, "_parse_lines", fail):
        yield


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_cache_hit_returns_the_parse(data):
    """A load of unchanged bytes reads the cache that the first load wrote,
    and returns the words, vector bits and duplicate count that the parse
    did, words that end in NUL and words given twice included."""
    word = st.text(st.characters(exclude_categories=("Cs",),
                                 exclude_characters=" \n\r"), min_size=1, max_size=3)
    words = data.draw(st.lists(st.sampled_from(["a", "a\x00", "b\x00\x00"]) | word,
                               min_size=1, max_size=6))
    vectors = data.draw(arrays(np.float32, (len(words), data.draw(st.integers(1, 3))),
                               elements=st.floats(-1e3, 1e3, width=32)))
    vectors[vectors[:, 0] == 0, 0] = 1  # no all-zero row
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.vec")
        _write_exact(path, words, vectors)
        parsed = load_embeddings(path, "en")
        assert parsed.source_sha256 == _sha256(path)
        assert os.path.exists(path + ".cache")
        with _unparsed():
            again = load_embeddings(path, "en")
    _same_space(again, parsed)


def test_a_hit_keeps_nul_endings_and_the_duplicate_count(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("4 2\na\x00 1 0\na 0 1\na\x00 9 9\nb 1 1\n", encoding="utf-8")
    parsed = load_embeddings(path, "en")
    with _unparsed():
        again = load_embeddings(path, "en")
    assert again.words == ["a\x00", "a", "b"] and again.duplicates_dropped == 1
    _same_space(again, parsed)


def test_a_rewritten_file_is_parsed_again(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("2 2\na 1 0\nb 0 1\n")
    load_embeddings(path, "en")
    path.write_text("2 2\na 1 0\nc 0 2\n")
    space = load_embeddings(path, "en")
    assert space.words == ["a", "c"] and space.vectors[1].tolist() == [0, 2]
    assert space.source_sha256 == _sha256(path)
    with _unparsed():
        _same_space(load_embeddings(path, "en"), space)


def _pickled(good):
    array = io.BytesIO()
    np.save(array, np.array([{"a": 1}], dtype=object), allow_pickle=True)
    return good[:64] + array.getvalue()


def _npy(*arrays_):
    out = io.BytesIO()
    for array in arrays_:
        np.save(out, array)
    return out.getvalue()


def _huge_header():
    """The .npy header of a float32 array too large for any memory."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": "<f4", "fortran_order": False, "shape": (2 ** 40, 100)})
    return out.getvalue()


# name -> the bad cache, made from the good cache's bytes of the file
# "2 2\na 1 0\nb 0 1\n"
BAD_CACHES = {
    "empty": lambda good: b"",
    "digest only": lambda good: good[:64],
    "truncated header": lambda good: good[:80],
    "truncated vectors": lambda good: good[:-1],
    "trailing bytes": lambda good: good + b"\0",
    "garbage": lambda good: bytes(range(256)) * 4,
    "garbage after the digest": lambda good: good[:64] + bytes(range(256)),
    "another digest": lambda good: b"0" * 64 + good[64:],
    "pickle": lambda good: good[:64] + pickle.dumps([0, ["a", "b"], [[1, 0]]]),
    "object array": _pickled,
    "float64 vectors": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\nb", np.uint8), np.eye(2)),
    "one row short": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\nb", np.uint8), np.eye(1, 2, dtype=np.float32)),
    "duplicate words": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\na", np.uint8), np.eye(2, dtype=np.float32)),
    "not UTF-8": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\n\xff", np.uint8), np.eye(2, dtype=np.float32)),
    "3-d vectors": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\nb", np.uint8),
        np.ones((2, 2, 1), dtype=np.float32)),
    "no dimension": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\nb", np.uint8), np.ones((2, 0), np.float32)),
    "huge declared shape": lambda good: good[:64] + _npy(
        np.int64(0), np.frombuffer(b"a\nb", np.uint8)) + _huge_header(),
}


@pytest.mark.parametrize("bad", BAD_CACHES.values(), ids=BAD_CACHES.keys())
def test_a_bad_cache_is_ignored_and_replaced(tmp_path, bad):
    path = tmp_path / "e.vec"
    path.write_text("2 2\na 1 0\nb 0 1\n")
    space = load_embeddings(path, "en")
    cache = tmp_path / "e.vec.cache"
    good = cache.read_bytes()
    cache.write_bytes(bad(good))
    _same_space(load_embeddings(path, "en"), space)
    assert cache.read_bytes() == good


def test_a_cache_that_cannot_be_written_is_skipped(tmp_path, monkeypatch):
    def refuse(path, chunks):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(embedding_store, "write_text", refuse)
    path = tmp_path / "e.vec"
    path.write_text("2 2\na 1 0\nb 0 1\n")
    assert load_embeddings(path, "en").words == ["a", "b"]
    assert list(tmp_path.iterdir()) == [path]


def test_a_directory_in_the_caches_place_is_left_alone(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("2 2\na 1 0\nb 0 1\n")
    (tmp_path / "e.vec.cache").mkdir()
    assert load_embeddings(path, "en").words == ["a", "b"]
    assert list((tmp_path / "e.vec.cache").iterdir()) == []


def test_a_file_changed_after_it_was_hashed_gets_no_cache(tmp_path, monkeypatch):
    """The file's size and mtime when the parse ends differ from those when
    it was hashed, so the parse may not be of the hashed bytes."""
    path = tmp_path / "e.vec"
    path.write_text("2 2\na 1 0\nb 0 1\n")
    parse_bulk = embedding_store._parse_bulk

    def touched(p):
        result = parse_bulk(p)
        os.utime(p, ns=(0, 0))
        return result

    monkeypatch.setattr(embedding_store, "_parse_bulk", touched)
    assert load_embeddings(path, "en").words == ["a", "b"]
    assert list(tmp_path.iterdir()) == [path]


def test_a_malformed_file_gets_no_cache(tmp_path):
    path = tmp_path / "e.vec"
    path.write_text("3 2\na 1 0\nb 0 x\nc 1 1\n")
    for _ in range(2):
        with pytest.raises(FormatError) as exc:
            load_embeddings(path, "en")
        assert str(exc.value) == f"{path}: non-numeric vector component (line 3)"
        assert list(tmp_path.iterdir()) == [path]


def test_save_embeddings_writes_no_cache(tmp_path):
    save_embeddings(EmbeddingSpace("en", ["a", "b"], np.eye(2)), tmp_path / "e.vec")
    assert list(tmp_path.iterdir()) == [tmp_path / "e.vec"]
