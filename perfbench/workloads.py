"""Seeded input generator for the crosslex pipeline benchmark.

crosslex receives only the plain files written here: corpora, seed lists,
lexicon TSVs, labeled TSVs, word2vec ``.vec`` files and a run config. The
facts the output checks need (held-out counts, context-sim seeds, floors)
go into ``workload.json`` beside them, computed from the generator's own
data and never from crosslex output.

Run as a script it performs one set-up in a process of its own, so that
generation and model fitting never count towards the peak RSS of the
timed pass:

    python3 perfbench/workloads.py --workload evaluate --seed 1 --workdir DIR --repeat 3
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
from collections import Counter

import numpy as np

LANGS = ("en", "es", "it")
PIVOT = "en"
TARGETS = ("es", "it")
SETUP_FILE = "workload.json"

# Per part and scale: the knobs of the generator and the run config.
SIZES = {
    "train-align": {
        "full": {"vocab": 400, "topics": 40, "lines": 3000, "line_len": 10,
                 "topic_share": 0.95, "zipf": 0.8, "seeds_per_topic": 3,
                 "dim": 100, "epochs": 2, "subsample_t": 1e-3, "min_count": 5},
        "tiny": {"vocab": 60, "topics": 6, "lines": 400, "line_len": 10,
                 "topic_share": 0.95, "zipf": 0.8, "seeds_per_topic": 3,
                 "dim": 10, "epochs": 1, "subsample_t": 1e-3, "min_count": 5},
    },
    "retrieve": {
        "full": {"vocab": 20000, "dim": 100, "noise": 0.05,
                 "align_pairs": 5000, "heldout": 100},
        "tiny": {"vocab": 400, "dim": 16, "noise": 0.05,
                 "align_pairs": 200, "heldout": 20},
    },
    "context-classify": {
        "full": {"vocab": 5000, "dim": 50, "noise": 0.05, "align_pairs": 2000,
                 "docs": 3000, "doc_len": 12, "zipf": 1.0, "margin": 0.5,
                 "context_seeds": 5, "rule_dims": 20},
        "tiny": {"vocab": 300, "dim": 16, "noise": 0.05, "align_pairs": 200,
                 "docs": 300, "doc_len": 5, "zipf": 1.0, "margin": 0.5,
                 "context_seeds": 2, "rule_dims": 6},
    },
}

# Standard deviation of the latent dimensions that carry no label rule.
WEAK_SCALE = 0.3
KNN_K = 10
BLI_K = 10
# The planted label rule is linear in the mean word vector, so an aligned
# shared space lets the classifier transfer it across languages (F1 0.92 to
# 0.97 over seeds 1-20 at the default kept_ratio). Guessing one class
# scores at most 0.67.
F1_FLOOR = 0.75
P_AT_10_FLOOR = 0.95


def word(lang, i):
    """Surface form of latent word id ``i`` in ``lang``: one tokenizer token."""
    return f"{lang}{i}"


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def write_vec(path, words, vectors):
    fmt = " ".join(["%.6f"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {vectors.shape[1]}\n")
        fh.write("".join(f"{w} {fmt % tuple(row)}\n"
                         for w, row in zip(words, vectors)))


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_lexicon(path, pairs):
    write_lines(path, [f"{s}\t{t}" for s, t in pairs])


def write_config(path, sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    write_lines(path, lines)


def near_orthogonal_spaces(size, rng, workdir, scale=1.0):
    """One latent space, with standard deviation ``scale`` per dimension,
    seen through a random orthogonal map plus noise per language, written
    with a per-language row order. An exact linear alignment exists by
    construction."""
    proto = rng.normal(size=(size["vocab"], size["dim"])) * scale
    for lang in LANGS:
        q = random_orthogonal(size["dim"], rng)
        vecs = proto @ q + rng.normal(scale=size["noise"], size=proto.shape)
        order = rng.permutation(size["vocab"])
        write_vec(os.path.join(workdir, f"{lang}.vec"),
                  [word(lang, i) for i in order], vecs[order])
    return proto


def align_model(workdir, align_ids):
    """Fit the alignment model through the real CLI, as a user would."""
    from crosslex.cli import main

    for lang in TARGETS:
        write_lexicon(os.path.join(workdir, f"lex_{lang}.tsv"),
                      [(word(PIVOT, i), word(lang, i)) for i in align_ids])
    argv = ["align", "--config", os.path.join(workdir, "run.ini"),
            "--output", os.path.join(workdir, "model")]
    argv += [f"--embeddings={lang}={os.path.join(workdir, lang + '.vec')}"
             for lang in LANGS]
    argv += [f"--lexicon={lang}={os.path.join(workdir, f'lex_{lang}.tsv')}"
             for lang in TARGETS]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"set-up alignment exited {code}")


def _zipf(n, s):
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def gen_train_align(size, rng, workdir):
    """Topic-structured Zipf corpora from one latent process. Each language
    draws its own sentences over the same word ids; the pivot lexicons come
    from the shared ids."""
    vocab, topics = size["vocab"], size["topics"]
    p_global = _zipf(vocab, size["zipf"])
    topic_of = rng.permutation(vocab) % topics
    members = [np.flatnonzero(topic_of == t) for t in range(topics)]
    p_topic = [p_global[m] / p_global[m].sum() for m in members]
    # The filter's seed terms: each topic's most frequent words.
    seed_ids = [i for m in members for i in m[:size["seeds_per_topic"]]]
    counts = {}
    kept_lines = {}
    for lang in LANGS:
        lines = []
        for _ in range(size["lines"]):
            t = rng.integers(topics)
            n_topic = rng.binomial(size["line_len"], size["topic_share"])
            ids = np.concatenate([
                rng.choice(members[t], size=n_topic, p=p_topic[t]),
                rng.choice(vocab, size=size["line_len"] - n_topic, p=p_global),
            ])
            rng.shuffle(ids)
            lines.append([word(lang, i) for i in ids])
        seeds = {word(lang, i) for i in seed_ids}
        kept = [toks for toks in lines if seeds.intersection(toks)]
        kept_lines[lang] = len(kept)
        counts[lang] = Counter(t for toks in kept for t in toks)
        write_lines(os.path.join(workdir, f"{lang}.txt"),
                    [" ".join(toks) for toks in lines])
        write_lines(os.path.join(workdir, f"{lang}.seeds"), sorted(seeds))
    for lang in TARGETS:
        write_lexicon(os.path.join(workdir, f"lex_{lang}.tsv"),
                      [(word(PIVOT, i), word(lang, i)) for i in range(vocab)])
    write_config(os.path.join(workdir, "run.ini"), {
        "sgns": {"dim": size["dim"], "epochs": size["epochs"],
                 "subsample_t": size["subsample_t"],
                 "min_count": size["min_count"]},
    })
    # Expected held-out size: lexicon ids whose words survive min_count in
    # both languages, less the ceil(0.8 n) training share align keeps.
    def in_vocab(lang, i):
        return counts[lang][word(lang, i)] >= size["min_count"]

    heldout = {}
    for lang in TARGETS:
        n = sum(in_vocab(PIVOT, i) and in_vocab(lang, i) for i in range(vocab))
        heldout[lang] = n - math.ceil(0.8 * n)
    return {
        "kept_lines": kept_lines,
        "input_tokens": sum(sum(c.values()) for c in counts.values()),
        "heldout": heldout,
    }


def gen_retrieve(size, rng, workdir):
    near_orthogonal_spaces(size, rng, workdir)
    ids = rng.permutation(size["vocab"])
    align_ids = ids[:size["align_pairs"]]
    val_ids = ids[size["align_pairs"]:size["align_pairs"] + size["heldout"]]
    for lang in TARGETS:
        write_lexicon(os.path.join(workdir, f"val_{lang}.tsv"),
                      [(word(PIVOT, i), word(lang, i)) for i in val_ids])
    write_config(os.path.join(workdir, "run.ini"), {})
    align_model(workdir, align_ids)
    # One single-word knn query: the first held-out word, es -> en.
    knn = {"word": word("es", val_ids[0]), "lang": "es", "target": PIVOT,
           "gold": word(PIVOT, val_ids[0])}
    return {"heldout": {lang: len(val_ids) for lang in TARGETS}, "knn": knn}


def gen_context_classify(size, rng, workdir):
    """Zipf-distributed labeled documents over near-orthogonal spaces. The
    label is planted as the sign of the mean latent vector of a document
    along a random rule direction, with documents near the boundary
    resampled so the rule survives alignment noise."""
    # The rule lies in the first rule_dims latent dimensions, which have
    # about eleven times the variance of the others, so their canonical
    # correlations are the highest and the CCA keeps them at any seed. In
    # an isotropic latent space it is chance which 20% of directions the
    # CCA drops, and on some seeds the planted rule lost enough of itself
    # for F1 to fall under the floor.
    strong = np.arange(size["dim"]) < size["rule_dims"]
    proto = near_orthogonal_spaces(size, rng, workdir,
                                   np.where(strong, 1.0, WEAK_SCALE))
    unit = proto / np.linalg.norm(proto, axis=1, keepdims=True)
    rule = np.where(strong, rng.normal(size=size["dim"]), 0.0)
    p_word = _zipf(size["vocab"], size["zipf"])
    n, length = size["docs"], size["doc_len"]
    margin = None
    docs = {}
    for lang in LANGS:
        ids = np.empty((0, length), dtype=np.int64)
        scores = np.empty(0)
        while len(ids) < n:
            cand = rng.choice(size["vocab"], size=(2 * n, length), p=p_word)
            s = unit[cand].mean(axis=1) @ rule
            if margin is None:
                center = float(np.median(s))
                margin = size["margin"] * float(np.std(s))
            keep = np.abs(s - center) >= margin
            ids = np.concatenate([ids, cand[keep]])
            scores = np.concatenate([scores, s[keep]])
        ids, labels = ids[:n], (scores[:n] > center).astype(int)
        docs[lang] = [([word(lang, i) for i in row], int(lab))
                      for row, lab in zip(ids, labels)]
        write_lines(os.path.join(workdir, f"{lang}.tsv"),
                    [f"{lab}\t{' '.join(toks)}" for toks, lab in docs[lang]])
    write_config(os.path.join(workdir, "run.ini"), {})
    align_model(workdir, rng.permutation(size["vocab"])[:size["align_pairs"]])
    # Context-sim seeds: the pivot's most document-frequent hate-class words.
    df = Counter(t for toks, lab in docs[PIVOT] if lab == 1 for t in set(toks))
    seeds = sorted(df, key=lambda w: (-df[w], w))[:size["context_seeds"]]
    return {"context_seeds": seeds, "docs": {lang: n for lang in LANGS}}


# A workload runs one or more parts; each part's generator writes into a
# directory of its own, named after the part.
GENERATORS = {
    "train-align": gen_train_align,
    "retrieve": gen_retrieve,
    "context-classify": gen_context_classify,
}
PARTS = {
    "train-align": ("train-align",),
    "evaluate": ("retrieve", "context-classify"),
}


def setup(workload, seed, workdir, scale="full"):
    """Generate one workload's inputs into ``workdir``; fit its models where
    the workload needs them. Returns the workload record with set-up time."""
    sizes = {part: SIZES[part][scale] for part in PARTS[workload]}
    rng = np.random.default_rng(seed)
    facts = {}
    start = time.perf_counter()
    for part, size in sizes.items():
        os.makedirs(os.path.join(workdir, part))
        facts.update(GENERATORS[part](size, rng, os.path.join(workdir, part)))
    setup_s = time.perf_counter() - start
    record = {"workload": workload, "seed": seed, "scale": scale,
              "sizes": sizes, "setup_s": setup_s, **facts}
    with open(os.path.join(workdir, SETUP_FILE), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _main(argv=None):
    from checkout import import_crosslex

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    parser.add_argument("--repeat", type=int, default=1,
                        help="set up this many times from scratch")
    args = parser.parse_args(argv)
    import_crosslex()
    times = []
    for _ in range(args.repeat):
        shutil.rmtree(args.workdir, ignore_errors=True)
        times.append(setup(args.workload, args.seed, args.workdir,
                           args.scale)["setup_s"])
    print(json.dumps({"setup_s": times}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
