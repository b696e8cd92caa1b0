import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosslex import SgnsConfig, build_vocab, cosine, sgns, train_sgns
from crosslex.errors import ConfigurationError, InsufficientDataError
from crosslex.sgns import (
    _BLOCK_CENTERS,
    _LR_FLOOR_FACTOR,
    _SUPER_BLOCKS,
    _bucket_starts,
    _block_pairs,
    _block_update,
    _draw_noise,
    _Workspace,
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


def test_empty_corpus_error():
    with pytest.raises(InsufficientDataError, match="empty corpus"):
        train_sgns([], SgnsConfig())


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


def test_planted_pairs_closer_than_random():
    corpus, pairs = planted_pair_corpus(n_pairs=20, reps=30)
    cfg = SgnsConfig(dim=16, window=3, negatives=5, epochs=25, min_count=1,
                     subsample_t=0.0, rng_seed=7)
    space = train_sgns(corpus, cfg)
    vec = dict(zip(space.words, space.vectors))
    planted = np.mean([cosine(vec[p], vec[q]) for p, q in pairs])
    rng = np.random.default_rng(9)
    unplanted = []
    while len(unplanted) < 10:
        i, j = rng.integers(0, len(pairs), size=2)
        if i == j:
            continue
        unplanted.append(cosine(vec[pairs[i][0]], vec[pairs[j][0]]))
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

    _block_update(w_in, w_out, centers, np.column_stack([contexts, negs]), lr,
                  _Workspace(nvocab, dim, len(centers), 1, negs.shape[1]))
    assert np.max(np.abs(w_in - expected_in)) < 1e-6
    assert np.max(np.abs(w_out - expected_out)) < 1e-6
    assert np.max(np.abs(grad_out[1])) > 1e-3  # the summed rows really moved


def _distinct_reference(ids, slot):
    flat = ids.ravel()
    entry = np.arange(len(flat))
    slot[flat] = entry
    last = slot[flat]
    is_last = last == entry
    return flat[is_last], (np.cumsum(is_last) - 1)[last].reshape(ids.shape)


def _block_update_reference(w_in, w_out, centers, contexts, negs, lr, slot):
    """The block step as it was written before the workspace: every array
    allocated per call."""
    targets = np.concatenate([contexts[:, None], negs], axis=1)
    rows, t = _distinct_reference(targets, slot)
    cols, c = _distinct_reference(centers[:, None], slot)
    u = w_out[rows]
    v = w_in[cols]
    g = -(1.0 / (1.0 + np.exp(-(u @ v.T)[t, c])))
    g[:, 0] += 1.0
    g *= lr[:, None]
    coef = np.zeros((len(rows), len(cols)), dtype=w_out.dtype)
    np.add.at(coef.reshape(-1), (t * len(cols) + c).ravel(), g.ravel())
    w_out[rows] += coef @ v
    w_in[cols] += coef.T @ u


def _random_blocks(rng, nvocab, dim, sizes, negatives):
    """Weights and a list of (centers, contexts, negs, lr) blocks of the
    given pair counts, drawn at random from ``nvocab`` words; each center
    position has up to 10 pairs, as with a window of 5."""
    w_in = (rng.normal(size=(nvocab, dim)) * 0.3).astype(np.float32)
    w_out = (rng.normal(size=(nvocab, dim)) * 0.3).astype(np.float32)
    blocks = [(np.repeat(rng.integers(0, nvocab, size=-(-n // 10)), 10)[:n],
               rng.integers(0, nvocab, size=n),
               rng.integers(0, nvocab, size=(n, negatives)),
               rng.uniform(0.01, 0.1, size=n).astype(np.float32))
              for n in sizes]
    return w_in, w_out, blocks


@pytest.mark.parametrize("nvocab,sizes,negatives", [
    (6, [40, 3, 40], 5),          # every target and center repeats
    (50, [1], 1),                 # a single pair
    (50, [1, 640, 2, 640], 5),    # fewer words than the row bound
    (20_000, [640, 17, 640], 5),  # a vocabulary past the row bound
], ids=["repeated targets", "single pair", "small vocabulary", "V=20k"])
def test_workspace_step_equals_allocating_step(nvocab, sizes, negatives):
    rng = np.random.default_rng(nvocab + len(sizes))
    dim = 16
    w_in, w_out, blocks = _random_blocks(rng, nvocab, dim, sizes, negatives)
    ref_in, ref_out = w_in.copy(), w_out.copy()
    # 64 centers and a window of 5 bound a block at 640 pairs
    ws = _Workspace(nvocab, dim, 64, 5, negatives)
    slot = np.empty(nvocab, dtype=np.intp)
    for centers, contexts, negs, lr in blocks:
        _block_update_reference(ref_in, ref_out, centers, contexts, negs, lr, slot)
        _block_update(w_in, w_out, centers, np.column_stack([contexts, negs]),
                      lr, ws)
        assert np.array_equal(w_in, ref_in)
        assert np.array_equal(w_out, ref_out)
    assert not np.array_equal(w_out, np.zeros_like(w_out))


# The subsample draw as train_sgns made it, over token positions; the
# superblock tests check the trainer's own draw against it.
def subsample(ids, keep_prob, rng):
    """Keep each entry ``i`` of ``ids`` with probability ``keep_prob[i]``,
    in order; ``None`` (a zero threshold) keeps everything."""
    if keep_prob is None:
        return ids
    return ids[rng.random(len(ids)) < keep_prob[ids]]


def _per_block_reference(corpus, cfg, block):
    """``train_sgns`` as it ran before superblocks: pairs, rates and noise
    drawn for each block of ``block`` centers just before its step, with
    ``np.searchsorted`` for the noise and the allocating block step.
    Returns (words, vectors)."""
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
        for lo in range(0, len(ids), block):
            c, x = _block_pairs(ids, sent, win, lo, min(lo + block, len(ids)),
                                cfg.window)
            if not len(c):
                continue
            lr = np.maximum(lr0 * (1.0 - (done + c + 1) / total_tokens),
                            lr0 * _LR_FLOOR_FACTOR).astype(np.float32)
            negs = np.searchsorted(noise_cdf, rng.random((len(c), cfg.negatives)))
            _block_update_reference(w_in, w_out, ids[c], ids[x], negs, lr, slot)
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
    words, vectors = _per_block_reference(_CORPORA[corpus], cfg, _BLOCK_CENTERS)
    space = train_sgns(_CORPORA[corpus], cfg)
    assert space.words == words
    assert np.array_equal(space.vectors, vectors)


@pytest.mark.parametrize("block", [32, 128])
@pytest.mark.parametrize("corpus", sorted(_CORPORA))
@pytest.mark.parametrize("window,negatives", [(1, 5), (5, 5)])
def test_superblocks_equal_per_block_training_at_block_size(
        monkeypatch, corpus, window, negatives, block):
    monkeypatch.setattr(sgns, "_BLOCK_CENTERS", block)
    cfg = SgnsConfig(dim=12, window=window, negatives=negatives, epochs=2,
                     min_count=1, subsample_t=1e-2, rng_seed=5)
    words, vectors = _per_block_reference(_CORPORA[corpus], cfg, block)
    space = train_sgns(_CORPORA[corpus], cfg)
    assert space.words == words
    assert np.array_equal(space.vectors, vectors)


def _noise_cdf(counts):
    noise = np.asarray(counts, dtype=np.float64) ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf[-1] = 1.0
    return cdf


def _check_draws(cdf, r):
    r = np.asarray(r, dtype=np.float64)
    got = _draw_noise(cdf, _bucket_starts(cdf), r)
    assert np.array_equal(got, np.searchsorted(cdf, r))


def test_noise_lookup_edges():
    cdf = _noise_cdf([50, 20, 20, 7, 3, 1, 1, 1])
    n = len(_bucket_starts(cdf))
    assert n >= 2 * len(cdf) and n & (n - 1) == 0
    edges = np.arange(n) / n
    _check_draws(cdf, [0.0, np.nextafter(1.0, 0.0), 0.5])
    _check_draws(cdf, edges)                        # exactly on a bucket edge
    _check_draws(cdf, np.nextafter(edges[1:], 0))   # just below one
    _check_draws(cdf, cdf[:-1])                     # exactly on a CDF step
    _check_draws(cdf, np.nextafter(cdf[:-1], 1))    # just past one


def test_noise_lookup_two_words():
    cdf = _noise_cdf([3, 1])
    rng = np.random.default_rng(0)
    _check_draws(cdf, np.concatenate([[0.0, cdf[0], np.nextafter(1.0, 0.0)],
                                      rng.random(1000)]))


def test_noise_lookup_zipf_tail():
    # V=20k with counts down to 1: the tail buckets hold several CDF steps
    counts = np.maximum(1, 1e7 / np.arange(1, 20_001) ** 1.5).astype(int)
    cdf = _noise_cdf(counts)
    starts = _bucket_starts(cdf)
    assert np.max(np.diff(starts)) >= 4
    rng = np.random.default_rng(1)
    tail = cdf[-2000]
    _check_draws(cdf, rng.random(100_000))
    _check_draws(cdf, tail + (1 - tail) * rng.random(100_000))
    _check_draws(cdf, cdf[-2000:-1])


@given(st.lists(st.integers(1, 10**6), min_size=2, max_size=300),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50))
def test_noise_lookup_equals_searchsorted(counts, r):
    _check_draws(_noise_cdf(counts), r)


def test_divergent_learning_rate_rejected():
    corpus, _ = planted_pair_corpus(n_pairs=20, reps=30)
    cfg = SgnsConfig(dim=8, window=2, negatives=3, epochs=2, min_count=1,
                     learning_rate=1000.0, subsample_t=0.0, rng_seed=1)
    with pytest.raises(ConfigurationError, match=r"\[sgns\] learning_rate"):
        train_sgns(corpus, cfg)
