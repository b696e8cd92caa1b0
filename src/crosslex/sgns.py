"""Skip-gram with negative sampling, trained from scratch in numpy.

Training is bit-reproducible for a fixed seed. Sentence boundaries are
input lines; context windows never cross them. Negative samples are drawn
from the unigram distribution raised to the 3/4 power.

Each epoch first draws, with whole-array operations, which tokens survive
frequent-word subsampling and one window size per kept token. The kept
tokens are then walked in superblocks of ``_SUPER_BLOCKS`` blocks of
``_BLOCK_CENTERS`` center positions. What does not depend on the weights
is done once per superblock: its (center, context) pairs come from one
broadcast over the window offsets, and one call each gives their learning
rates, their ``negatives`` noise words and their word ids. One
``searchsorted`` on the center positions then cuts these arrays at the
block boundaries. The gradient steps stay per block, with minibatch SGD in
the word2vec form (Mikolov et al., 2013). A block scores every pair
against the weights as they were before the block, gathers the pair
gradients into one (distinct targets x distinct centers) matrix with one
scalar scatter-add, and updates each weight matrix with one product over
its distinct rows, so repeated words have their gradients summed.

The superblocks change no number: ``Generator.random`` fills in C order,
so one draw of (P1 + P2, k) noise values is the draws of (P1, k) and then
(P2, k), and a block with no pairs draws nothing. The vectors are those of
drawing and updating block by block. Every array with a pair or negative
axis is sized to a superblock, never to the epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import build_vocab
from .embedding_store import EmbeddingSpace
from .errors import ConfigurationError, InsufficientDataError

_LR_FLOOR_FACTOR = 1e-4
# Center positions per minibatch, each with at most 2 * window pairs.
# Larger blocks spend less Python time per token, but update from staler
# weights and hold more target rows at once.
_BLOCK_CENTERS = 32
# Blocks per superblock, whose pairs, learning rates and noise words are
# drawn in one call each. Their arrays take about 8 * (2 * negatives + 6)
# bytes per pair, under 1 MB for 1024 centers at the defaults.
_SUPER_BLOCKS = 32


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 5
    subsample_t: float = 1e-4
    rng_seed: int = 1

    def validate(self):
        if self.dim < 2:
            raise ConfigurationError("dim must be >= 2")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.negatives < 1:
            raise ConfigurationError("negatives must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError("learning_rate must be positive and finite")
        if self.min_count < 1:
            raise ConfigurationError("min_count must be >= 1")
        if not (math.isfinite(self.subsample_t) and self.subsample_t >= 0):
            raise ConfigurationError("subsample_t must be finite and >= 0")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be >= 0")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def subsample(ids, keep_prob, rng):
    """Keep each entry ``i`` of ``ids`` with probability ``keep_prob[i]``,
    in order; ``None`` (a zero threshold) keeps everything."""
    if keep_prob is None:
        return ids
    return ids[rng.random(len(ids)) < keep_prob[ids]]


def _block_pairs(ids, sentence, win, lo, hi, window):
    """(center, context) position pairs for the centers ``lo:hi``.

    ``ids`` are the kept word ids of an epoch, ``sentence`` their sentence
    numbers and ``win`` the window drawn for each. A context lies within
    its center's window, in the same sentence, and is not the center's
    word. Pairs come in center order, then left to right.
    """
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    ctx = np.arange(lo, hi)[:, None] + offsets
    ok = (np.abs(offsets) <= win[lo:hi, None]) & (ctx >= 0) & (ctx < len(ids))
    np.clip(ctx, 0, len(ids) - 1, out=ctx)
    ok &= sentence[ctx] == sentence[lo:hi, None]
    ok &= ids[ctx] != ids[lo:hi, None]
    row, col = np.nonzero(ok)
    return lo + row, ctx[row, col]


def _distinct(ids, slot):
    """(distinct values of ``ids``, each entry's index among them).

    ``np.unique(ids, return_inverse=True)`` without the sort, whose code
    alone raised a training run's peak memory by about 0.4 MB. The values
    come in order of their last occurrence; ``slot`` is scratch space with
    one entry per possible value.
    """
    flat = ids.ravel()
    entry = np.arange(len(flat))
    slot[flat] = entry
    last = slot[flat]
    is_last = last == entry
    return flat[is_last], (np.cumsum(is_last) - 1)[last].reshape(ids.shape)


def _block_update(w_in, w_out, centers, contexts, negs, lr, slot):
    """One minibatch step over pairs of word ids, in place.

    Pair p pulls ``w_out[contexts[p]]`` towards ``w_in[centers[p]]`` and
    pushes the ``w_out`` rows of its ``negs[p]`` away, at rate ``lr[p]``.
    Every gradient is taken against the weights from before the call, and
    the gradients of repeated words are summed.
    """
    targets = np.concatenate([contexts[:, None], negs], axis=1)
    rows, t = _distinct(targets, slot)
    cols, c = _distinct(centers[:, None], slot)
    u = w_out[rows]
    v = w_in[cols]
    g = -_sigmoid((u @ v.T)[t, c])
    g[:, 0] += 1.0
    g *= lr[:, None]
    # coef[i, j]: summed gradient weight between target row i and center j
    coef = np.zeros((len(rows), len(cols)), dtype=w_out.dtype)
    np.add.at(coef.reshape(-1), (t * len(cols) + c).ravel(), g.ravel())
    w_out[rows] += coef @ v
    w_in[cols] += coef.T @ u


def train_sgns(corpus, cfg):
    """Train word vectors on a corpus of token lists.

    Returns an EmbeddingSpace over the min_count-filtered vocabulary,
    ordered by descending frequency (ties alphabetical). The result is
    bit-reproducible for a fixed rng_seed.
    """
    cfg.validate()
    corpus = [list(doc) for doc in corpus]
    if not corpus:
        raise InsufficientDataError("empty corpus")
    vocab = build_vocab(corpus, cfg.min_count)
    if len(vocab) < 2:
        raise InsufficientDataError(
            f"vocabulary after min_count filtering has {len(vocab)} words; need >= 2"
        )
    words = sorted(vocab, key=lambda w: (-vocab[w], w))
    index = {w: i for i, w in enumerate(words)}
    counts = np.array([vocab[w] for w in words], dtype=np.float64)

    # One flat stream of in-vocabulary ids, each with its sentence number.
    tokens = np.fromiter((index.get(t, -1) for doc in corpus for t in doc),
                         dtype=np.int32)
    sentence = np.repeat(np.arange(len(corpus), dtype=np.int32),
                         [len(doc) for doc in corpus])
    known = tokens >= 0
    tokens, sentence = tokens[known], sentence[known]
    del known

    noise = counts ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0

    keep_prob = None
    if cfg.subsample_t > 0:
        freq = counts / counts.sum()
        keep_prob = np.minimum(1.0, np.sqrt(cfg.subsample_t / freq))

    rng = np.random.default_rng(cfg.rng_seed)
    nvocab = len(words)
    w_in = ((rng.random((nvocab, cfg.dim)) - 0.5) / cfg.dim).astype(np.float32)
    w_out = np.zeros((nvocab, cfg.dim), dtype=np.float32)

    lr0 = cfg.learning_rate
    total_tokens = cfg.epochs * len(tokens)
    # Subsampling keeps token positions, so each kept id keeps its sentence.
    positions = np.arange(len(tokens), dtype=np.int32)
    token_keep = None if keep_prob is None else keep_prob[tokens]
    slot = np.empty(nvocab, dtype=np.intp)
    span = _BLOCK_CENTERS * _SUPER_BLOCKS
    done = 0  # centers of earlier epochs, for the linear LR decay
    for _ in range(cfg.epochs):
        kept = subsample(positions, token_keep, rng)
        ids, sent = tokens[kept], sentence[kept]
        del kept
        win = rng.integers(1, cfg.window + 1, size=len(ids), dtype=np.int32)
        for lo in range(0, len(ids), span):
            hi = min(lo + span, len(ids))
            c, x = _block_pairs(ids, sent, win, lo, hi, cfg.window)
            lr = np.maximum(lr0 * (1.0 - (done + c + 1) / total_tokens),
                            lr0 * _LR_FLOOR_FACTOR).astype(np.float32)
            negs = np.searchsorted(noise_cdf, rng.random((len(c), cfg.negatives)))
            centers, contexts = ids[c], ids[x]
            # pair index of each block's first pair, and the end
            cuts = np.searchsorted(c, range(lo, hi, _BLOCK_CENTERS)).tolist()
            cuts.append(len(c))
            for a, b in zip(cuts, cuts[1:]):
                if a < b:
                    _block_update(w_in, w_out, centers[a:b], contexts[a:b],
                                  negs[a:b], lr[a:b], slot)
        done += len(ids)

    return EmbeddingSpace(language="", words=words, vectors=w_in)
