import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import strategies as st

from crosslex import (
    BilingualLexicon,
    EmbeddingSpace,
    LabeledDataset,
    fit_hub_alignment,
)
from crosslex.embedding_store import unit_rows
from crosslex.rules import HATE, NON_HATE


def random_orthogonal(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def mostly(valid, *faults, one_in=10):
    """A strategy: one of ``faults`` in about one draw of ``one_in``, else
    ``valid``. The fault is on a middle value, which Hypothesis draws no
    more often than the others, unlike the bounds."""
    return st.integers(1, one_in).flatmap(
        lambda i: st.sampled_from(faults) if i == one_in // 2 else valid)


# What the message of a model that does not load tells its user to do.
REFIT = "fit the model again with `crosslex align`"


def record_map(model_dir, lang, text):
    """Replace ``lang``'s ``.mat`` file of a saved model with ``text``, and
    record its digest in ``metadata.json`` as ``save_alignment`` does."""
    (model_dir / f"{lang}.mat").write_text(text, encoding="utf-8")
    meta_path = model_dir / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["sha256"][lang] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    meta_path.write_text(json.dumps(meta))


def unmarked(meta):
    """``meta`` as models were written before the format marker and the
    digests: no ``format``, ``correlations`` or ``sha256``, and
    ``"normalize": false``."""
    del meta["format"], meta["correlations"], meta["sha256"]
    meta["normalize"] = False
    return meta


def write_embedding_file(path, words, vectors):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {len(vectors[0])}\n")
        for w, row in zip(words, vectors):
            fh.write(w + " " + " ".join(f"{x:.6f}" for x in row) + "\n")


def write_mini_inputs(tmp_path):
    """Tiny aligned en/es fixture on disk: embeddings, lexicon, datasets."""
    rng = np.random.default_rng(77)
    n, dim = 60, 10
    proto = rng.normal(size=(n, dim))
    proto /= np.linalg.norm(proto, axis=1, keepdims=True)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    en_words = [f"en{i}" for i in range(n)]
    es_words = [f"es{i}" for i in range(n)]
    en_path = tmp_path / "en.vec"
    es_path = tmp_path / "es.vec"
    write_embedding_file(en_path, en_words, proto)
    write_embedding_file(es_path, es_words, proto @ (q * np.sign(np.diag(r))))
    lex_path = tmp_path / "lex.tsv"
    lex_path.write_text(
        "".join(f"{e}\t{s}\n" for e, s in zip(en_words, es_words))
    )
    ds = {}
    for lang, words in (("en", en_words), ("es", es_words)):
        lines = []
        for i in range(40):
            toks = " ".join(rng.choice(words, size=5))
            lines.append(f"{i % 2}\t{toks}\n")
        p = tmp_path / f"{lang}.tsv"
        p.write_text("".join(lines))
        ds[lang] = p
    return {
        "dir": tmp_path,
        "en": en_path,
        "es": es_path,
        "lexicon": lex_path,
        "datasets": ds,
    }


@dataclass
class TrilingualFixture:
    """Proto-space mapped per language by a random orthogonal matrix plus
    Gaussian noise; an exact linear alignment exists by construction."""

    words: list
    proto: np.ndarray
    proto_unit: np.ndarray
    spaces: dict
    model: object
    align_words: list
    val_words: list
    label_rule: np.ndarray
    datasets: dict = field(default_factory=dict)

    def validation_lexicon(self, target_lang):
        return BilingualLexicon(
            "en", target_lang, [(w, w) for w in self.val_words]
        )


LANGS = ("en", "es", "it")


def build_trilingual(n_words=500, dim=50, noise=0.01, n_align=150, n_val=100,
                     seed=42):
    rng = np.random.default_rng(seed)
    proto = rng.normal(size=(n_words, dim))
    proto_unit = proto / np.linalg.norm(proto, axis=1, keepdims=True)
    words = [f"w{i:03d}" for i in range(n_words)]
    spaces = {}
    for li, lang in enumerate(LANGS):
        q = random_orthogonal(dim, seed=100 + li)
        noisy = proto @ q + rng.normal(scale=noise, size=(n_words, dim))
        spaces[lang] = EmbeddingSpace(lang, words,
                                      unit_rows(noisy.astype(np.float32)))
    align_words = words[:n_align]
    val_words = words[n_align:n_align + n_val]
    lexicons = [
        BilingualLexicon("en", lang, [(w, w) for w in align_words])
        for lang in LANGS
        if lang != "en"
    ]
    model = fit_hub_alignment(spaces, lexicons, "en", lam=1e-3, kept_ratio=1.0)
    return TrilingualFixture(
        words=words,
        proto=proto,
        proto_unit=proto_unit,
        spaces=spaces,
        model=model,
        align_words=align_words,
        val_words=val_words,
        label_rule=rng.normal(size=dim),
    )


def labeled_fixture_dataset(tri, lang, n_docs=2000, doc_len=8, margin=0.03,
                            seed=7):
    """Documents labeled by a planted linear rule on the mean proto vector.

    Documents too close to the decision boundary are resampled so the rule
    survives the orthogonal maps and alignment noise.
    """
    rng = np.random.default_rng(seed)
    docs = []
    while len(docs) < n_docs:
        idx = rng.integers(0, len(tri.words), size=doc_len)
        score = tri.proto_unit[idx].mean(axis=0) @ tri.label_rule
        if abs(score) < margin:
            continue
        tokens = [tri.words[i] for i in idx]
        docs.append((tokens, HATE if score > 0 else NON_HATE))
    return LabeledDataset(language=lang, docs=docs)


@pytest.fixture(scope="session")
def trilingual():
    return build_trilingual()


@pytest.fixture(scope="session")
def trilingual_labeled(trilingual):
    tri = trilingual
    tri.datasets = {
        lang: labeled_fixture_dataset(tri, lang, seed=7 + i)
        for i, lang in enumerate(LANGS)
    }
    return tri


def planted_pair_corpus(n_pairs=20, reps=30, seed=3):
    """Corpus where each (p_i, q_i) pair always co-occurs with its own
    marker word; fillers are shared across all pairs."""
    rand = random.Random(seed)
    pairs = [(f"p{i}", f"q{i}") for i in range(n_pairs)]
    fillers = [f"f{i}" for i in range(10)]
    lines = []
    for _ in range(reps):
        for i, (p, q) in enumerate(pairs):
            line = [p, q, f"m{i}", rand.choice(fillers), rand.choice(fillers)]
            rand.shuffle(line)
            lines.append(line)
    rand.shuffle(lines)
    return lines, pairs


@pytest.fixture
def duplicate_space_pair():
    """Two 'languages' sharing the same normalized vectors, plus an
    identity lexicon: the identity alignment must be exactly recoverable."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    vecs = rng.normal(size=(40, 8)).astype(np.float32)
    en = EmbeddingSpace("en", words, unit_rows(vecs))
    xx = EmbeddingSpace("xx", words, unit_rows(vecs))
    lex = BilingualLexicon("en", "xx", [(w, w) for w in words])
    return {"en": en, "xx": xx}, lex
