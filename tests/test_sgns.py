import numpy as np
import pytest

from crosslex import SgnsConfig, build_vocab, cosine, train_sgns
from crosslex.errors import ConfigurationError, InsufficientDataError
from crosslex.sgns import (
    _BLOCK_CENTERS,
    _LR_FLOOR_FACTOR,
    _SUPER_BLOCKS,
    _block_pairs,
    _block_update,
    subsample,
)

from conftest import planted_pair_corpus

FAST = SgnsConfig(dim=8, window=2, negatives=3, epochs=3, min_count=1,
                  subsample_t=0.0, rng_seed=1)


def test_vocab_matches_build_vocab():
    corpus = [["a", "b", "a", "c"], ["b", "c", "d"]]
    space = train_sgns(corpus, FAST)
    assert set(space.words) == set(build_vocab(corpus, FAST.min_count))


def test_min_count_filters_vocab():
    cfg = SgnsConfig(dim=8, window=2, negatives=2, epochs=2, min_count=2,
                     subsample_t=0.0, rng_seed=1)
    corpus = [["a", "b", "a", "b"], ["a", "b", "rare"]]
    space = train_sgns(corpus, cfg)
    assert set(space.words) == {"a", "b"}


def test_single_word_vocab_error():
    with pytest.raises(InsufficientDataError):
        train_sgns([["only", "only", "only"]], FAST)


@pytest.mark.parametrize("field", ["learning_rate", "subsample_t"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_rates_rejected(field, value):
    cfg = SgnsConfig(dim=8, min_count=1, **{field: value})
    with pytest.raises(ConfigurationError, match=field):
        train_sgns([["a", "b", "a", "c"]], cfg)


def test_deterministic_rerun():
    corpus, _ = planted_pair_corpus(n_pairs=5, reps=4)
    a = train_sgns(corpus, FAST)
    b = train_sgns(corpus, FAST)
    assert a.words == b.words
    assert np.array_equal(a.vectors, b.vectors)


def test_vectors_finite():
    corpus, _ = planted_pair_corpus(n_pairs=5, reps=4)
    cfg = SgnsConfig(dim=8, window=2, negatives=3, epochs=3, min_count=1,
                     learning_rate=0.05, subsample_t=0.0, rng_seed=2)
    space = train_sgns(corpus, cfg)
    assert np.all(np.isfinite(space.vectors))


def test_subsample_zero_threshold_noop():
    ids = [3, 1, 4, 1, 5]
    assert subsample(ids, None, np.random.default_rng(0)) == ids


def test_planted_pairs_closer_than_random():
    corpus, pairs = planted_pair_corpus(n_pairs=20, reps=30)
    cfg = SgnsConfig(dim=16, window=3, negatives=5, epochs=25, min_count=1,
                     subsample_t=0.0, rng_seed=7)
    space = train_sgns(corpus, cfg)
    planted = np.mean([cosine(space.vector(p), space.vector(q)) for p, q in pairs])
    rng = np.random.default_rng(9)
    unplanted = []
    while len(unplanted) < 10:
        i, j = rng.integers(0, len(pairs), size=2)
        if i == j:
            continue
        unplanted.append(cosine(space.vector(pairs[i][0]), space.vector(pairs[j][0])))
    assert planted - np.mean(unplanted) >= 0.2


def _scalar_pairs(sentences, keep, win):
    """Pairs of kept-stream positions, by a per-token loop written like the
    old trainer: subsample each sentence, then take the window around each
    kept center and drop contexts that are the center's word."""
    pairs = []
    start = 0  # kept-stream position of the sentence's first kept token
    draws = iter(win)
    keep = iter(keep)
    for sent in sentences:
        ids = [i for i in sent if next(keep)]
        for pos in range(len(ids)):
            w = int(next(draws))
            ctx = list(range(max(0, pos - w), pos)) + list(range(pos + 1, pos + 1 + w))
            pairs += [(start + pos, start + q) for q in ctx
                      if q < len(ids) and ids[q] != ids[pos]]
        start += len(ids)
    return pairs


def _vector_pairs(sentences, keep, win, window, block):
    tokens = np.array([i for s in sentences for i in s], dtype=np.int32)
    sentence = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    ids, sent = tokens[keep], sentence[keep]
    pairs = []
    for lo in range(0, len(ids), block):
        c, x = _block_pairs(ids, sent, win, lo, min(lo + block, len(ids)), window)
        pairs += list(zip(c.tolist(), x.tolist()))
    return pairs


def test_block_pairs_hand_example():
    # kept stream: [0 1 0 2] [3 3] [4]; "2" and "5" were subsampled away
    sentences = [[0, 1, 0, 2, 2], [3, 5, 3], [4]]
    keep = np.array([1, 1, 1, 1, 0, 1, 0, 1, 1], dtype=bool)
    win = np.array([2, 1, 2, 1, 2, 2, 2])
    expected = [
        (0, 1),                  # 0: positions 1, 2; 2 holds the center's word
        (1, 0), (1, 2),          # 1: window 1
        (2, 1), (2, 3),          # 0: positions 0..3, 0 holds the center's word
        (3, 2),                  # 2: window 1, the sentence ends after it
        # 3 3: the only context is the center's word; 4: a sentence alone
    ]
    assert _scalar_pairs(sentences, keep, win) == expected
    for block in (1, 2, 3, 7):
        assert _vector_pairs(sentences, keep, win, 2, block) == expected


@pytest.mark.parametrize("seed", range(6))
def test_block_pairs_match_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    window = int(rng.integers(1, 6))
    sentences = [rng.integers(0, 6, size=rng.integers(1, 15)).tolist()
                 for _ in range(40)]
    keep = rng.random(sum(map(len, sentences))) < 0.7
    win = rng.integers(1, window + 1, size=int(keep.sum()))
    expected = _scalar_pairs(sentences, keep, win)
    assert len(expected) > 100
    for block in (1, 5, _BLOCK_CENTERS, len(win)):
        assert _vector_pairs(sentences, keep, win, window, block) == expected


def _sigmoid64(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_block_update_sums_scalar_pair_gradients():
    rng = np.random.default_rng(3)
    nvocab, dim = 7, 5
    w_in = (rng.normal(size=(nvocab, dim)) * 0.5).astype(np.float32)
    w_out = (rng.normal(size=(nvocab, dim)) * 0.5).astype(np.float32)
    centers = np.array([0, 0, 2, 2, 5, 0])
    contexts = np.array([1, 3, 1, 1, 0, 1])  # pairs (0, 1) and (2, 1) twice
    negs = np.array([[1, 1, 4], [6, 0, 6], [3, 3, 3], [4, 1, 2],
                     [5, 5, 1], [2, 6, 1]])  # targets repeat in and across pairs
    lr = rng.uniform(0.01, 0.1, size=len(centers)).astype(np.float32)

    grad_in = np.zeros((nvocab, dim))
    grad_out = np.zeros((nvocab, dim))
    for p, center in enumerate(centers):
        v = w_in[center].astype(np.float64)
        for target, label in [(contexts[p], 1.0)] + [(n, 0.0) for n in negs[p]]:
            u = w_out[target].astype(np.float64)
            g = lr[p] * (label - _sigmoid64(u @ v))
            grad_in[center] += g * u
            grad_out[target] += g * v
    expected_in = w_in + grad_in
    expected_out = w_out + grad_out

    _block_update(w_in, w_out, centers, contexts, negs, lr,
                  np.empty(nvocab, dtype=np.intp))
    assert np.max(np.abs(w_in - expected_in)) < 1e-6
    assert np.max(np.abs(w_out - expected_out)) < 1e-6
    assert np.max(np.abs(grad_out[1])) > 1e-3  # the summed rows really moved


def _per_block_reference(corpus, cfg):
    """``train_sgns`` as it ran before superblocks: pairs, rates and noise
    drawn for each block of ``_BLOCK_CENTERS`` centers just before its
    step. Returns (words, vectors)."""
    vocab = build_vocab(corpus, cfg.min_count)
    words = sorted(vocab, key=lambda w: (-vocab[w], w))
    index = {w: i for i, w in enumerate(words)}
    counts = np.array([vocab[w] for w in words], dtype=np.float64)
    tokens = np.array([index.get(t, -1) for doc in corpus for t in doc],
                      dtype=np.int32)
    sentence = np.repeat(np.arange(len(corpus), dtype=np.int32),
                         [len(doc) for doc in corpus])
    tokens, sentence = tokens[tokens >= 0], sentence[tokens >= 0]
    noise = counts ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0
    keep_prob = None
    if cfg.subsample_t > 0:
        keep_prob = np.minimum(1.0, np.sqrt(cfg.subsample_t / (counts / counts.sum())))
    rng = np.random.default_rng(cfg.rng_seed)
    nvocab = len(words)
    w_in = ((rng.random((nvocab, cfg.dim)) - 0.5) / cfg.dim).astype(np.float32)
    w_out = np.zeros((nvocab, cfg.dim), dtype=np.float32)
    lr0 = cfg.learning_rate
    total_tokens = cfg.epochs * len(tokens)
    positions = np.arange(len(tokens), dtype=np.int32)
    token_keep = None if keep_prob is None else keep_prob[tokens]
    slot = np.empty(nvocab, dtype=np.intp)
    done = 0
    for _ in range(cfg.epochs):
        kept = subsample(positions, token_keep, rng)
        ids, sent = tokens[kept], sentence[kept]
        win = rng.integers(1, cfg.window + 1, size=len(ids), dtype=np.int32)
        for lo in range(0, len(ids), _BLOCK_CENTERS):
            c, x = _block_pairs(ids, sent, win, lo,
                                min(lo + _BLOCK_CENTERS, len(ids)), cfg.window)
            if not len(c):
                continue
            lr = np.maximum(lr0 * (1.0 - (done + c + 1) / total_tokens),
                            lr0 * _LR_FLOOR_FACTOR).astype(np.float32)
            negs = np.searchsorted(noise_cdf, rng.random((len(c), cfg.negatives)))
            _block_update(w_in, w_out, ids[c], ids[x], negs, lr, slot)
        done += len(ids)
    return words, w_in


def _oracle_corpora():
    rng = np.random.default_rng(5)
    p = 1.0 / np.arange(1, 61) ** 1.1
    p /= p.sum()

    def text(n_lines, max_len):
        return [[f"w{i}" for i in rng.choice(60, size=rng.integers(1, max_len + 1), p=p)]
                for _ in range(n_lines)]

    # Under one superblock, every sentence shorter than a window of 5.
    short = text(150, 4)
    # More than one superblock; with subsample_t = 0 an epoch of 3001 kept
    # tokens is a multiple of neither block size.
    long = text(299, 19)
    long.append(["w0"] * (3001 - sum(map(len, long))))
    # Over a superblock of single-word and then repeated-word sentences
    # first: whole blocks, and a whole superblock, without pairs.
    pairless = ([[f"w{i % 60}"] for i in range(1100)] + [["w7"] * 70]
                + [["w3", "w3"]] * 20 + text(120, 12))
    return {"short": short, "long": long, "pairless": pairless}


_CORPORA = _oracle_corpora()


def test_oracle_corpora_cover_the_edges():
    assert sum(map(len, _CORPORA["short"])) < _BLOCK_CENTERS * _SUPER_BLOCKS
    assert max(map(len, _CORPORA["short"])) < 5
    n_long = sum(map(len, _CORPORA["long"]))
    assert n_long % _BLOCK_CENTERS and n_long % (_BLOCK_CENTERS * _SUPER_BLOCKS)
    assert n_long > _BLOCK_CENTERS * _SUPER_BLOCKS


@pytest.mark.parametrize("corpus", sorted(_CORPORA))
@pytest.mark.parametrize("subsample_t", [0.0, 1e-2])
@pytest.mark.parametrize("window,negatives", [(1, 1), (1, 5), (5, 1), (5, 5)])
def test_superblocks_equal_per_block_training(corpus, subsample_t, window,
                                              negatives):
    cfg = SgnsConfig(dim=12, window=window, negatives=negatives, epochs=2,
                     min_count=1, subsample_t=subsample_t, rng_seed=4)
    words, vectors = _per_block_reference(_CORPORA[corpus], cfg)
    space = train_sgns(_CORPORA[corpus], cfg)
    assert space.words == words
    assert np.array_equal(space.vectors, vectors)
