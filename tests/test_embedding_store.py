import numpy as np
import pytest
from hypothesis import given, strategies as st

from crosslex import EmbeddingSpace, cosine, load_embeddings, save_embeddings
from crosslex.errors import DimensionError, DomainError, FormatError


def test_load_basic(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("3 2\na 1 0\nb 0 1\nc 1 1\n")
    space = load_embeddings(path, "en")
    assert space.dim == 2
    assert len(space.vocab) == 3
    assert np.allclose(space.vector("c"), [1, 1])


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
    assert np.allclose(space.vector("a"), [1, 0])


def test_load_rejects_zero_row(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 2\na 0 0\nb 1 1\n")
    with pytest.raises(FormatError):
        load_embeddings(path, "en")


def test_load_empty_vocab(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("0 2\n")
    from crosslex.errors import InsufficientDataError

    with pytest.raises(InsufficientDataError):
        load_embeddings(path, "en")


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


def test_normalized_rows_unit():
    rng = np.random.default_rng(2)
    space = EmbeddingSpace("en", ["a", "b", "c"], rng.normal(size=(3, 5)))
    norms = np.linalg.norm(space.normalized().vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_cosine_values():
    assert cosine([3, 4], [3, 4]) == pytest.approx(1.0)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine([1, 2], [2, 1]) == pytest.approx(0.8)


def test_cosine_errors():
    with pytest.raises(DomainError):
        cosine([0, 0], [1, 1])
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
