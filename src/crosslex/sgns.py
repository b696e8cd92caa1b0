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
rates, their ``negatives`` noise words and their word ids. The noise words
come from a bucketed lookup into the noise CDF that returns exactly what
``np.searchsorted`` would. One ``searchsorted`` on the center positions
then cuts these arrays at the block boundaries. The gradient steps stay
per block, with minibatch SGD in the word2vec form (Mikolov et al., 2013).
A block scores every pair against the weights as they were before the
block, gathers the pair gradients into one (distinct targets x distinct
centers) matrix with one scalar scatter-add, and updates each weight
matrix with one product over its distinct rows, so repeated words have
their gradients summed. Every block step works in one set of buffers
allocated per training run, so no block allocates an array with a row or
pair axis.

The superblocks change no number: ``Generator.random`` fills in C order,
so one draw of (P1 + P2, k) noise values is the draws of (P1, k) and then
(P2, k), and a block with no pairs draws nothing. The vectors are those of
drawing and updating block by block. Every array with a pair or negative
axis is sized to a superblock, never to the epoch.
"""

from __future__ import annotations

import numpy as np

from .config import SgnsConfig  # noqa: F401 (re-exported)
from .corpus import build_vocab
from .embedding_store import EmbeddingSpace
from .errors import ConfigurationError, InsufficientDataError

_LR_FLOOR_FACTOR = 1e-4
# Center positions per minibatch, each with at most 2 * window pairs.
# Larger blocks spend less Python time per token, but update from staler
# weights and hold more target rows at once: at 128 centers and the
# defaults, up to min(7680, vocabulary) rows, whose buffers a training run
# allocates once. The vectors depend on this size: over 32 input seeds,
# 128 kept the mean BLI precision of 32 within a standard error, though
# lower on 9 seeds and higher on none.
_BLOCK_CENTERS = 128
# Blocks per superblock, whose pairs, learning rates and noise words are
# drawn in one call each. Their arrays take about 8 * (2 * negatives + 6)
# bytes per pair, under 1 MB for 1024 centers at the defaults.
_SUPER_BLOCKS = 8


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


class _Workspace:
    """The buffers of a block step, allocated once per training run.

    A block has at most ``centers`` centers and ``centers * 2 * window``
    pairs, each with ``1 + negatives`` targets. Its distinct target rows and
    distinct centers are also bounded by the vocabulary. The weights are
    float32.
    """

    def __init__(self, nvocab, dim, centers, window, negatives):
        pairs = centers * 2 * window
        entries = pairs * (1 + negatives)
        nrows, ncols = min(entries, nvocab), min(centers, nvocab)
        # _distinct's scratch, shared by its two calls per block
        self.slot = np.empty(nvocab, dtype=np.intp)
        self.entry = np.arange(entries)
        self.last = np.empty(entries, dtype=np.intp)
        self.is_last = np.empty(entries, dtype=bool)
        self.rank = np.empty(entries, dtype=np.intp)
        # per target entry: its row's index, its score's flat index, and
        # its gradient weight; per pair: its center's index
        self.t = np.empty(entries, dtype=np.intp)
        self.cell = np.empty(entries, dtype=np.intp)
        self.g = np.empty(entries, dtype=np.float32)
        self.c = np.empty(pairs, dtype=np.intp)
        self.rows = np.empty(nrows, dtype=np.intp)
        self.cols = np.empty(ncols, dtype=np.intp)
        self.u = np.empty((nrows, dim), dtype=np.float32)
        self.v = np.empty((ncols, dim), dtype=np.float32)
        # the scores, then the gradient weights, of (row, center) cells
        self.scores = np.empty(nrows * ncols, dtype=np.float32)
        self.step_u = np.empty((nrows, dim), dtype=np.float32)
        self.step_v = np.empty((ncols, dim), dtype=np.float32)


def _distinct(ids, ws, values, index):
    """``np.unique(ids, return_inverse=True)`` of a flat intp array without
    the sort, whose code alone raised a training run's peak memory by
    about 0.4 MB.

    Writes the distinct values, in order of their last occurrence, to the
    front of ``values`` and each entry's index among them to ``index``, and
    returns their count. Scratch space comes from the workspace ``ws``.
    """
    n = len(ids)
    entry = ws.entry[:n]
    ws.slot[ids] = entry
    last = np.take(ws.slot, ids, out=ws.last[:n], mode="clip")
    is_last = np.equal(last, entry, out=ws.is_last[:n])
    count = np.count_nonzero(is_last)
    np.compress(is_last, ids, out=values[:count])
    rank = np.cumsum(is_last, out=ws.rank[:n])
    rank -= 1
    np.take(rank, last, out=index, mode="clip")
    return count


def _block_update(w_in, w_out, centers, targets, lr, ws):
    """One minibatch step over pairs of word ids, in place.

    Pair p pulls ``w_out[targets[p, 0]]``, its context, towards
    ``w_in[centers[p]]`` and pushes the ``w_out`` rows of its noise words
    ``targets[p, 1:]`` away, at rate ``lr[p]``. Every gradient is taken
    against the weights from before the call, and the gradients of
    repeated words are summed. Both id arrays are intp; the work happens
    in the buffers of the workspace ``ws``.
    """
    npairs, width = targets.shape
    t = ws.t[:npairs * width]
    c = ws.c[:npairs]
    nrows = _distinct(targets.ravel(), ws, ws.rows, t)
    ncols = _distinct(centers, ws, ws.cols, c)
    rows, cols = ws.rows[:nrows], ws.cols[:ncols]
    u = np.take(w_out, rows, axis=0, out=ws.u[:nrows], mode="clip")
    v = np.take(w_in, cols, axis=0, out=ws.v[:ncols], mode="clip")
    scores = ws.scores[:nrows * ncols]
    np.matmul(u, v.T, out=scores.reshape(nrows, ncols))
    cell = ws.cell[:len(t)].reshape(npairs, width)
    np.multiply(t.reshape(npairs, width), ncols, out=cell)
    cell += c[:, None]
    g = np.take(scores, cell, out=ws.g[:len(t)].reshape(npairs, width),
                mode="clip")
    # g = -sigmoid(g), in place
    np.negative(g, out=g)
    np.exp(g, out=g)
    g += 1.0
    np.divide(1.0, g, out=g)
    np.negative(g, out=g)
    g[:, 0] += 1.0
    g *= lr[:, None]
    # coef[i, j]: summed gradient weight between target row i and center j
    coef = scores
    coef[:] = 0
    np.add.at(coef, cell.ravel(), g.ravel())
    coef = coef.reshape(nrows, ncols)
    step = np.matmul(coef, v, out=ws.step_u[:nrows])
    step += u
    w_out[rows] = step
    step = np.matmul(coef.T, u, out=ws.step_v[:ncols])
    step += v
    w_in[cols] = step


def _bucket_starts(cdf):
    """The first index of each bucket of ``cdf`` for ``_draw_noise``.

    Bucket ``b`` of ``n`` covers [b / n, (b + 1) / n), and its first index
    is the first ``i`` with ``cdf[i] >= b / n``. ``n`` is a power of two,
    so ``b / n`` and ``r * n`` are exact, and at least twice the vocabulary
    size, so that few draws take a step.
    """
    n = 1 << (2 * len(cdf) - 1).bit_length()
    return np.searchsorted(cdf, np.arange(n) / n)


def _draw_noise(cdf, starts, r):
    """``np.searchsorted(cdf, r)`` for a flat array ``r`` in [0, 1).

    A draw in bucket ``b = floor(r * n)`` has ``r >= b / n``, so its answer,
    the first ``i`` with ``cdf[i] >= r``, is not before ``starts[b]``. Each
    draw starts there and steps forward while ``cdf`` is below it;
    ``cdf[-1] == 1`` stops every walk.
    """
    ids = starts[(r * len(starts)).astype(np.intp)]
    todo = np.flatnonzero(cdf[ids] < r)
    while len(todo):
        ids[todo] += 1
        todo = todo[cdf[ids[todo]] < r[todo]]
    return ids


# Overflow warns nothing: a run that diverges ends in one error instead.
@np.errstate(over="ignore", invalid="ignore")
def train_sgns(corpus, cfg):
    """Train word vectors on a corpus of token lists.

    Returns an EmbeddingSpace over the min_count-filtered vocabulary,
    ordered by descending frequency (ties alphabetical). The result is
    bit-reproducible for a fixed rng_seed. A learning rate so large that
    a vector becomes non-finite raises ConfigurationError.
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
    starts = _bucket_starts(noise_cdf)
    ws = _Workspace(nvocab, cfg.dim, _BLOCK_CENTERS, cfg.window, cfg.negatives)
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
            # each pair's context, then its noise words
            targets = np.empty((len(c), 1 + cfg.negatives), dtype=np.intp)
            targets[:, 0] = ids[x]
            targets[:, 1:] = _draw_noise(
                noise_cdf, starts, rng.random(len(c) * cfg.negatives)
            ).reshape(len(c), cfg.negatives)
            centers = ids[c].astype(np.intp)
            # pair index of each block's first pair, and the end
            cuts = np.searchsorted(c, range(lo, hi, _BLOCK_CENTERS)).tolist()
            cuts.append(len(c))
            for a, b in zip(cuts, cuts[1:]):
                if a < b:
                    _block_update(w_in, w_out, centers[a:b], targets[a:b],
                                  lr[a:b], ws)
        done += len(ids)

    if not np.isfinite(w_in).all():
        raise ConfigurationError(
            f"[sgns] learning_rate {lr0} made training diverge to non-finite "
            "vectors; use a smaller learning rate"
        )

    return EmbeddingSpace(language="", words=words, vectors=w_in)
