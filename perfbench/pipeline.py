"""Timed passes of a workload's command sequence, and their output checks.

A pass calls ``crosslex.cli.main`` once per command, in sequence, as a user
of the pipeline runs one command after another. One process repeats passes
for the given time and reports each pass's command times, output checks
and, when traced, per-layer metrics, plus its own peak RSS:

    python3 perfbench/pipeline.py --workdir DIR --seconds 20 --trace 0

The checks test properties the generator planted, never bytes a legitimate
rewrite may change: SGNS vectors, for one, may change once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

from checkout import import_crosslex
from workloads import (BLI_K, F1_FLOOR, KNN_K, LANGS, P_AT_10_FLOOR, PARTS,
                       PIVOT, SETUP_FILE, TARGETS)

MINING = {"top_n": 100, "min_support": 0.01, "min_confidence": 0.1}


class Command:
    """One CLI invocation, the checks on its outputs, and what it measured."""

    def __init__(self, kind, argv, check=None, jsonl=None):
        self.kind = kind
        self.argv = argv
        self.check = check  # callable(command) -> list of failure messages
        self.jsonl = jsonl  # JSON-lines output file, parsed into records
        self.seconds = 0.0
        self.code = None
        self.failures = []
        self.records = None  # parsed JSONL output, when there is one

    def verify(self):
        if self.code != 0:
            self.failures.append(f"exit code {self.code}")
            return
        if self.jsonl:
            try:
                with open(self.jsonl, encoding="utf-8") as fh:
                    self.records = [json.loads(line) for line in fh if line.strip()]
            except (OSError, ValueError) as err:
                self.failures.append(f"unreadable JSONL output: {err}")
                return
        if self.check is not None:
            try:
                self.failures.extend(self.check(self))
            except Exception as err:  # malformed output fails the command
                self.failures.append(f"check raised {type(err).__name__}: {err}")


def _embeddings(paths):
    return [f"--embeddings={lang}={path}" for lang, path in paths]


def _count_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _distinct_sources(path):
    with open(path, encoding="utf-8") as fh:
        return len({line.split("\t", 1)[0] for line in fh if line.strip()})


def _check_bli(facts, floor=None):
    def check(cmd):
        got = {r["target_lang"]: r for r in cmd.records}
        out = []
        for lang in TARGETS:
            if lang not in got:
                out.append(f"no BLI record for {lang}")
            elif got[lang]["evaluated"] != facts["heldout"][lang]:
                out.append(f"{lang}: evaluated {got[lang]['evaluated']} of "
                           f"{facts['heldout'][lang]} held-out words")
        if not out and floor is not None and _pooled_precision(cmd) < floor:
            out.append(f"precision@{BLI_K} {_pooled_precision(cmd):.3f} < {floor}")
        return out
    return check


def _pooled_precision(cmd):
    n = sum(r["evaluated"] for r in cmd.records)
    return sum(r["precision"] * r["evaluated"] for r in cmd.records) / n


def train_align(workdir, out_dir, facts):
    d = lambda *p: os.path.join(workdir, *p)  # noqa: E731
    o = lambda *p: os.path.join(out_dir, *p)  # noqa: E731
    config = ["--config", d("run.ini")]
    cmds = []
    for lang in LANGS:
        out = o(f"{lang}.filtered.txt")
        expected = facts["kept_lines"][lang]
        cmds.append(Command(
            "filter-corpus",
            ["filter-corpus", "--input", d(f"{lang}.txt"),
             "--seeds", d(f"{lang}.seeds"), "--output", out],
            lambda c, out=out, n=expected: (
                [] if _count_lines(out) == n
                else [f"kept {_count_lines(out)} lines, expected {n}"])))
    for lang in LANGS:
        cmds.append(Command(
            "train-embeddings",
            ["train-embeddings", *config, "--corpus", o(f"{lang}.filtered.txt"),
             "--language", lang, "--output", o(f"{lang}.vec")]))
    vecs = [(lang, o(f"{lang}.vec")) for lang in LANGS]
    model = o("model")

    def check_align(cmd):
        out = []
        for lang in TARGETS:
            n = _distinct_sources(os.path.join(model, f"validation_{lang}.tsv"))
            if n != facts["heldout"][lang]:
                out.append(f"{lang}: {n} held-out words, expected "
                           f"{facts['heldout'][lang]}")
        return out
    cmds.append(Command(
        "align",
        ["align", *config, *_embeddings(vecs),
         *[f"--lexicon={lang}={d(f'lex_{lang}.tsv')}" for lang in TARGETS],
         "--holdout", "--output", model],
        check_align))
    out = o("bli.jsonl")
    cmds.append(Command(
        "bli",
        ["bli", *config, "--model", model, *_embeddings(vecs),
         *[f"--validation={lang}={os.path.join(model, f'validation_{lang}.tsv')}"
           for lang in TARGETS],
         "--k", str(BLI_K), "--output", out],
        _check_bli(facts), out))
    return cmds


def retrieve(workdir, out_dir, facts):
    d = lambda *p: os.path.join(workdir, *p)  # noqa: E731
    o = lambda *p: os.path.join(out_dir, *p)  # noqa: E731
    common = ["--config", d("run.ini"), "--model", d("model")]
    out = o("bli.jsonl")
    cmds = [Command(
        "bli",
        ["bli", *common, *_embeddings((lang, d(f"{lang}.vec")) for lang in LANGS),
         *[f"--validation={lang}={d(f'val_{lang}.tsv')}" for lang in TARGETS],
         "--k", str(BLI_K), "--output", out],
        _check_bli(facts, floor=P_AT_10_FLOOR), out)]
    q = facts["knn"]
    out = o("knn.jsonl")

    def check_knn(cmd):
        ranks = [r.get("rank") for r in cmd.records]
        if ranks != list(range(1, KNN_K + 1)):
            return [f"knn {q['word']}: ranks {ranks}"]
        if q["gold"] not in {r["word"] for r in cmd.records}:
            return [f"knn {q['word']}: {q['gold']} not in top {KNN_K}"]
        return []
    cmds.append(Command(
        "knn",
        ["knn", *common,
         *_embeddings((lang, d(f"{lang}.vec")) for lang in (q["lang"], q["target"])),
         "--word", q["word"], "--lang", q["lang"], "--target", q["target"],
         "--k", str(KNN_K), "--output", out],
        check_knn, out))
    return cmds


def brute_force_rules(dataset_path, label="1"):
    """Recount the mined rules of one class partition with a document-term
    incidence matrix, independently of crosslex's miner."""
    import numpy as np

    with open(dataset_path, encoding="utf-8") as fh:
        docs = [set(text.split()) for lab, text in
                (line.rstrip("\n").split("\t", 1) for line in fh if line.strip())
                if lab == label]
    vocab = sorted(set().union(*docs))
    index = {w: i for i, w in enumerate(vocab)}
    inc = np.zeros((len(docs), len(vocab)), dtype=np.float32)
    for row, doc in enumerate(docs):
        inc[row, [index[w] for w in doc]] = 1.0
    df = inc.sum(axis=0)
    ants = sorted(vocab, key=lambda w: (-df[index[w]], w))[:MINING["top_n"]]
    both = inc[:, [index[x] for x in ants]].T @ inc
    n = len(docs)
    rules = {}
    for a, x in enumerate(ants):
        for j in np.flatnonzero(both[a]):
            u = vocab[j]
            count = int(both[a, j])
            support, confidence = count / n, count / int(df[index[x]])
            if (u != x and support >= MINING["min_support"]
                    and confidence >= MINING["min_confidence"]):
                rules[(x, u)] = (support, confidence)
    return rules


def context_classify(workdir, out_dir, facts):
    d = lambda *p: os.path.join(workdir, *p)  # noqa: E731
    o = lambda *p: os.path.join(out_dir, *p)  # noqa: E731
    config = ["--config", d("run.ini")]
    common = [*config, "--model", d("model")]
    cmds = []
    for lang in LANGS:
        out = o(f"rules_{lang}.jsonl")
        check = None
        if lang == PIVOT:
            def check(cmd, lang=lang):
                got = {(r["antecedent"], r["consequent"]): (r["support"], r["confidence"])
                       for r in cmd.records}
                want = brute_force_rules(d(f"{lang}.tsv"))
                if got.keys() != want.keys():
                    return [f"{lang}: {len(got)} rules mined, recount gives {len(want)}"]
                bad = [k for k, (s, c) in want.items()
                       if abs(got[k][0] - s) > 1e-6 or abs(got[k][1] - c) > 1e-6]
                return [f"{lang}: {len(bad)} rules with wrong metrics"] if bad else []
        cmds.append(Command(
            "mine-rules",
            ["mine-rules", *config, "--dataset", d(f"{lang}.tsv"),
             "--language", lang, "--class", "hate", "--output", out],
            check, out))
    seeds = facts["context_seeds"]
    expected = [(s, lang) for s in seeds for lang in TARGETS]
    out = o("contextsim.jsonl")
    cmds.append(Command(
        "context-sim",
        ["context-sim", *common,
         *_embeddings((lang, d(f"{lang}.vec")) for lang in LANGS),
         *[f"--dataset={lang}={d(f'{lang}.tsv')}" for lang in LANGS],
         "--seed-terms", ",".join(seeds), "--source-lang", PIVOT,
         "--class", "hate", "--output", out],
        lambda c: ([] if [(r["seed"], r["target_lang"]) for r in c.records] == expected
                   else [f"{len(c.records)} context-sim records, expected "
                         f"one per (seed, target): {len(expected)}"]),
        out))
    report = o("report.tsv")

    def check_report(cmd):
        with open(report, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
        if rows[0] != ["seed", *TARGETS] or [r[0] for r in rows[1:]] != seeds:
            return [f"report table {len(rows) - 1} rows x {len(rows[0])} columns"]
        return []
    cmds.append(Command("report", ["report", "--input", out, "--output", report],
                        check_report))
    for lang in TARGETS:
        out = o(f"classify_{lang}_{PIVOT}.jsonl")
        cmds.append(Command(
            "classify",
            ["classify", *common,
             *_embeddings((l_, d(f"{l_}.vec")) for l_ in (PIVOT, lang)),
             "--train", f"{lang}={d(f'{lang}.tsv')}",
             "--test", f"{PIVOT}={d(f'{PIVOT}.tsv')}", "--output", out],
            lambda c, lang=lang: (
                [] if c.records[0]["f1"] >= F1_FLOOR
                else [f"{lang}->{PIVOT} F1 {c.records[0]['f1']:.3f} < {F1_FLOOR}"]),
            out))
    return cmds


SEQUENCES = {
    "train-align": train_align,
    "retrieve": retrieve,
    "context-classify": context_classify,
}


def _seconds(cmds):
    return sum(c.seconds for c in cmds)


def pass_metrics(cmds, facts):
    """End-to-end figures of one pass, from the commands that succeeded."""
    ok = [c for c in cmds if not c.failures]
    out = {"knn_samples": [c.seconds for c in ok if c.kind == "knn"]}
    train = [c for c in cmds if c.kind == "train-embeddings"]
    if train and all(c in ok for c in train):
        out["train_tokens_per_s"] = facts["input_tokens"] / _seconds(train)
    for c in ok:
        if c.kind == "bli":
            out["bli_queries_per_s"] = sum(r["evaluated"] for r in c.records) / c.seconds
            out["bli_p_at_10"] = _pooled_precision(c)
        elif c.kind == "context-sim":
            out["contextsim_records_per_s"] = len(c.records) / c.seconds
    classify = [c for c in cmds if c.kind == "classify"]
    if classify and all(c in ok for c in classify):
        # One classify command per target language, trained on it and
        # tested on the pivot.
        docs = sum(facts["docs"][lang] + facts["docs"][PIVOT] for lang in TARGETS)
        out["classify_docs_per_s"] = docs / _seconds(classify)
        out["zero_shot_f1"] = statistics.mean(c.records[0]["f1"] for c in classify)
    return out


def run_pass(workdir, facts, cli, pass_id, tracer=None):
    """Run the command sequence once, into an output directory of its own.
    Outputs are checked later, so that checking adds nothing to the peak
    RSS of the passes."""
    out_dir = os.path.join(workdir, "out", f"pass{pass_id}")
    cmds = []
    for part in PARTS[facts["workload"]]:
        os.makedirs(os.path.join(out_dir, part))
        cmds += SEQUENCES[part](os.path.join(workdir, part),
                                os.path.join(out_dir, part), facts)
    if tracer is not None:
        tracer.begin_pass(pass_id)
    with open(os.path.join(out_dir, "commands.log"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log):
        for cmd in cmds:
            # Each command of a real pipeline is a process of its own, so no
            # command should inherit the garbage of the one before.
            gc.collect()
            t0 = time.perf_counter()
            try:
                cmd.code = cli.main(cmd.argv)
            except Exception as err:  # a crash counts as a failed command
                print(f"{cmd.kind}: {type(err).__name__}: {err}", file=sys.stderr)
                cmd.code = -1
            cmd.seconds = time.perf_counter() - t0
    result = {"pass_id": pass_id, "wall_s": _seconds(cmds)}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    return cmds, result


def check_pass(cmds, result, facts):
    for cmd in cmds:
        cmd.verify()
    result.update({
        "attempted": len(cmds),
        "failed": sum(1 for c in cmds if c.failures),
        "failures": [f"{c.kind}: {m}" for c in cmds for m in c.failures],
        "commands": [{"kind": c.kind, "seconds": c.seconds, "code": c.code}
                     for c in cmds],
        "metrics": pass_metrics(cmds, facts),
    })
    return result


def run_passes(workdir, seconds, trace, spans_path=None, min_passes=1):
    """Repeat passes in this process for about ``seconds``, then check
    every pass's outputs. A pass starts only if it should end no later than
    half a typical pass after ``seconds``, so a run lasts about ``seconds``.

    ``peak_rss_mb`` is the high-water mark of this process, read before any
    check ran. The process has run nothing but passes: set-up ran in other
    processes.
    """
    with open(os.path.join(workdir, SETUP_FILE), encoding="utf-8") as fh:
        facts = json.load(fh)
    import_crosslex()
    from crosslex import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    done = []
    start = time.perf_counter()
    while len(done) < min_passes or (
            time.perf_counter() - start
            + statistics.median(r["wall_s"] for _, r in done) / 2 < seconds):
        done.append(run_pass(workdir, facts, cli, len(done), tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {
        "traced": bool(trace),
        "peak_rss_mb": peak_rss_mb,
        "passes": [check_pass(cmds, res, facts) for cmds, res in done],
    }
    if tracer is not None:
        result["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="write the spans here (gzip JSONL)")
    args = parser.parse_args(argv)
    result = run_passes(args.workdir, args.seconds, args.trace, args.spans,
                        args.min_passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
