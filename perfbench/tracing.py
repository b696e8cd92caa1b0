"""Span tracing of crosslex's layers for the benchmark's traced run.

``Tracer.install`` wraps the public functions, and the public methods of
public classes, of every layer module, at every binding the package calls
them through: a module that did ``from .alignment import project_space``
holds its own reference, which is replaced too. ``crosslex.cli.main`` is
wrapped as the root span of each command. The ``config`` and ``errors``
modules are not layers; their time counts as ``cli`` time.

Each span records its name, start, end, parent span and pass id. Spans stay
in memory until the pass ends. Counts are taken at the same boundaries from
call arguments and return values, so no crosslex code changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("corpus", "sgns", "embedding_store", "lexicon", "alignment",
          "retrieval", "rules", "contextsim", "classify", "manifest")
ROOT_SPAN = "cli.main"

# name -> unit, in report order.
LAYER_METRICS = {
    "corpus.lines": "count", "corpus.tokens": "count", "corpus.busy_s": "s",
    "sgns.tokens_in": "count", "sgns.busy_s": "s", "sgns.tokens_per_s": "1/s",
    "embedding_store.save_bytes": "bytes", "embedding_store.save_s": "s",
    "embedding_store.save_mb_per_s": "MB/s",
    "embedding_store.load_bytes": "bytes", "embedding_store.load_s": "s",
    "embedding_store.load_mb_per_s": "MB/s",
    "lexicon.pairs_loaded": "count", "lexicon.pairs_dropped": "count",
    "lexicon.busy_s": "s",
    "alignment.cca_fits": "count", "alignment.fit_s": "s",
    "alignment.model_io_s": "s",
    "alignment.project_calls": "count", "alignment.project_space_calls": "count",
    "alignment.rows_projected": "count", "alignment.project_s": "s",
    "alignment.reprojection_ratio": "ratio",
    "retrieval.queries": "count", "retrieval.candidates_ranked": "count",
    "retrieval.self_s": "s", "retrieval.queries_per_s": "1/s",
    "rules.docs_loaded": "count", "rules.load_s": "s",
    "rules.mine_calls": "count", "rules.mine_s": "s",
    "rules.rules_mined": "count", "rules.rules_per_s": "1/s",
    "rules.build_context_calls": "count", "rules.rules_scanned": "count",
    "rules.context_hit_ratio": "ratio",
    "contextsim.records": "count", "contextsim.pairs_scored": "count",
    "contextsim.pairs_skipped": "count", "contextsim.self_s": "s",
    "contextsim.pairs_per_s": "1/s",
    "classify.docs_featurized": "count", "classify.featurize_s": "s",
    "classify.docs_per_s": "1/s", "classify.train_epochs": "count",
    "classify.train_s": "s", "classify.eval_s": "s",
    "manifest.writes": "count", "manifest.bytes_hashed": "bytes",
    "manifest.s": "s",
    "cli.self_s": "s",
}


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counters run when a wrapped call returns (err is None) or raises.
def _count_project(t, a, k, res, err):
    if err is None:
        t.counts["alignment.project_calls"] += 1
        t.counts["alignment.rows_projected"] += 1
        t.projected_word(_arg(a, k, 2, "language"), _arg(a, k, 1, "word"))


def _count_project_space(t, a, k, res, err):
    if err is None:
        t.counts["alignment.project_space_calls"] += 1
        t.counts["alignment.rows_projected"] += len(res)
        t.projected_space(_arg(a, k, 1, "language"), len(res))


def _count_knn(t, a, k, res, err):
    if err is None:
        spaces = _arg(a, k, 1, "spaces")
        t.counts["retrieval.queries"] += 1
        t.counts["retrieval.candidates_ranked"] += len(
            spaces[_arg(a, k, 4, "target_lang")])


def _count_bli(t, a, k, res, err):
    if err is None:
        spaces = _arg(a, k, 1, "spaces")
        tgt = _arg(a, k, 2, "validation").tgt_lang
        t.counts["retrieval.queries"] += res.evaluated
        t.counts["retrieval.candidates_ranked"] += res.evaluated * len(spaces[tgt])


def _count_build_context(t, a, k, res, err):
    if err is None:
        t.counts["rules.build_context_calls"] += 1
        t.counts["rules.rules_scanned"] += len(_arg(a, k, 0, "rules"))
        t.counts["rules.context_entries"] += len(res.entries)


def _count_context_sim(t, a, k, res, err):
    from crosslex.errors import InsufficientDataError

    cx, cy = _arg(a, k, 0, "context_x"), _arg(a, k, 1, "context_y")
    pairs = len(cx.entries) * len(cy.entries)
    if err is None:
        t.counts["contextsim.pairs_scored"] += pairs - res[1]
        t.counts["contextsim.pairs_skipped"] += res[1]
    elif isinstance(err, InsufficientDataError):
        t.counts["contextsim.pairs_skipped"] += pairs


def _count_sgns(t, a, k, res, err):
    corpus = _arg(a, k, 0, "corpus")
    if err is None and isinstance(corpus, (list, tuple)):
        t.counts["sgns.tokens_in"] += sum(len(doc) for doc in corpus)


def _count_load_lexicon(t, a, k, res, err):
    if err is None:
        t.counts["lexicon.pairs_loaded"] += len(res)
        t.counts["lexicon.pairs_dropped"] += getattr(res, "multiword_dropped", 0)


def _count_manifest(t, a, k, res, err):
    if err is None:
        t.counts["manifest.writes"] += 1
        t.counts["manifest.bytes_hashed"] += sum(
            _size(p) for p in _arg(a, k, 3, "inputs"))


def _counter(metric, value):
    def count(t, a, k, res, err):
        if err is None:
            t.counts[metric] += value(a, k, res)
    return count


COUNTERS = {
    "corpus.read_lines": _counter("corpus.lines", lambda a, k, r: len(r)),
    "corpus.tokenize": _counter("corpus.tokens", lambda a, k, r: len(r)),
    "sgns.train_sgns": _count_sgns,
    "embedding_store.save_embeddings": _counter(
        "embedding_store.save_bytes", lambda a, k, r: _size(_arg(a, k, 1, "path"))),
    "embedding_store.load_embeddings": _counter(
        "embedding_store.load_bytes", lambda a, k, r: _size(_arg(a, k, 0, "path"))),
    "lexicon.load_lexicon": _count_load_lexicon,
    "lexicon.restrict_to_vocab": _counter(
        "lexicon.pairs_dropped", lambda a, k, r: r[1]),
    "alignment.fit_cca": _counter("alignment.cca_fits", lambda a, k, r: 1),
    "alignment.project": _count_project,
    "alignment.project_space": _count_project_space,
    "retrieval.knn": _count_knn,
    "retrieval.bli_precision_at_k": _count_bli,
    "rules.load_labeled_dataset": _counter(
        "rules.docs_loaded", lambda a, k, r: len(r.docs)),
    "rules.mine_rules": _counter("rules.rules_mined", lambda a, k, r: len(r)),
    "rules.build_context": _count_build_context,
    "contextsim.cross_lingual_report": _counter(
        "contextsim.records", lambda a, k, r: len(r)),
    "contextsim.context_sim": _count_context_sim,
    "classify.featurize": _counter(
        "classify.docs_featurized", lambda a, k, r: 1),
    "classify.featurize_dataset": _counter(
        "classify.docs_featurized", lambda a, k, r: len(r[0])),
    "classify.train_logreg": _counter(
        "classify.train_epochs", lambda a, k, r: len(r.losses)),
    "manifest.write_manifest": _count_manifest,
}


class Tracer:
    """Records the spans of one process and the counts of its current pass."""

    def __init__(self):
        self.spans = []  # [id, parent id or -1, pass id, name, start, end]
        self._stack = []
        self.begin_pass(0)

    def begin_pass(self, pass_id):
        """Start counting a new pass; spans of earlier passes stay."""
        self.pass_id = pass_id
        self._first_span = len(self.spans)
        self.counts = Counter()
        self._command = -1
        # (command span, language) -> [rows of a whole-space projection,
        # words projected one at a time]
        self._projected = {}

    def projected_word(self, language, word):
        self._projected.setdefault((self._command, language), [0, set()])[1].add(word)

    def projected_space(self, language, rows):
        self._projected.setdefault((self._command, language), [0, set()])[0] = rows

    def distinct_rows_projected(self):
        """Distinct (language, word) rows projected within each command,
        summed over commands; words a whole-space projection covered are
        not counted again."""
        return sum(full or len(words) for full, words in self._projected.values())

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        def open_span():
            sid = len(spans)
            spans.append([sid, stack[-1] if stack else -1, tracer.pass_id,
                          name, 0.0, 0.0])
            stack.append(sid)
            if name == ROOT_SPAN:
                tracer._command = sid
            return sid

        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration; the consumer's own work
            # between items would count as a child, and crosslex's one
            # generator is drained by list() with nothing in between.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                sid = open_span()
                spans[sid][4] = clock()
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    spans[sid][5] = clock()
                    stack.pop()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_span()
            span = spans[sid]
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = clock()
                stack.pop()
                if counter is not None:
                    counter(tracer, args, kwargs, None, err)
                raise
            span[5] = clock()
            stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result, None)
            return result
        return traced

    def install(self):
        """Wrap every layer's public callables at every binding in the
        crosslex package. Returns the number of bindings replaced."""
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"crosslex.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        cli = importlib.import_module("crosslex.cli")
        wrapped[id(cli.main)] = (cli.main, self.wrap(ROOT_SPAN, cli.main))
        replaced = 0
        modules = [m for n, m in list(sys.modules.items())
                   if n == "crosslex" or n.startswith("crosslex.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    replaced += 1
        return replaced

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, pass_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "pass": pass_id, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self):
        """Per-layer metrics of the current pass, named as in ``LAYER_METRICS``."""
        spans = self.spans
        first = self._first_span
        child_time = Counter()
        for sid, parent, _, _, start, end in spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        inclusive = Counter()
        for sid, parent, _, name, start, end in spans[first:]:
            self_time[name.split(".", 1)[0]] += end - start - child_time[sid]
            # Inclusive time counts only the outermost span of each name.
            if parent < 0 or spans[parent][3] != name:
                inclusive[name] += end - start

        def incl(*names):
            return sum(inclusive[n] for n in names)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        c = self.counts
        save_s = incl("embedding_store.save_embeddings")
        load_s = incl("embedding_store.load_embeddings")
        retrieval_s = incl("retrieval.knn", "retrieval.bli_precision_at_k")
        featurize_s = incl("classify.featurize", "classify.featurize_dataset")
        mine_s = incl("rules.mine_rules")
        pairs_s = incl("contextsim.context_sim")
        out = {
            "corpus.lines": c["corpus.lines"],
            "corpus.tokens": c["corpus.tokens"],
            "corpus.busy_s": self_time["corpus"],
            "sgns.tokens_in": c["sgns.tokens_in"],
            "sgns.busy_s": self_time["sgns"],
            "sgns.tokens_per_s": rate(c["sgns.tokens_in"], self_time["sgns"]),
            "embedding_store.save_bytes": c["embedding_store.save_bytes"],
            "embedding_store.save_s": save_s,
            "embedding_store.save_mb_per_s": rate(
                c["embedding_store.save_bytes"] / 1e6, save_s),
            "embedding_store.load_bytes": c["embedding_store.load_bytes"],
            "embedding_store.load_s": load_s,
            "embedding_store.load_mb_per_s": rate(
                c["embedding_store.load_bytes"] / 1e6, load_s),
            "lexicon.pairs_loaded": c["lexicon.pairs_loaded"],
            "lexicon.pairs_dropped": c["lexicon.pairs_dropped"],
            "lexicon.busy_s": self_time["lexicon"],
            "alignment.cca_fits": c["alignment.cca_fits"],
            "alignment.fit_s": incl("alignment.fit_hub_alignment"),
            "alignment.model_io_s": incl("alignment.save_alignment",
                                         "alignment.load_alignment"),
            "alignment.project_calls": c["alignment.project_calls"],
            "alignment.project_space_calls": c["alignment.project_space_calls"],
            "alignment.rows_projected": c["alignment.rows_projected"],
            "alignment.project_s": incl("alignment.project",
                                        "alignment.project_space"),
            "alignment.reprojection_ratio": rate(
                c["alignment.rows_projected"], self.distinct_rows_projected()),
            "retrieval.queries": c["retrieval.queries"],
            "retrieval.candidates_ranked": c["retrieval.candidates_ranked"],
            "retrieval.self_s": self_time["retrieval"],
            "retrieval.queries_per_s": rate(c["retrieval.queries"], retrieval_s),
            "rules.docs_loaded": c["rules.docs_loaded"],
            "rules.load_s": incl("rules.load_labeled_dataset"),
            "rules.mine_calls": sum(1 for span in spans[first:]
                                    if span[3] == "rules.mine_rules"),
            "rules.mine_s": mine_s,
            "rules.rules_mined": c["rules.rules_mined"],
            "rules.rules_per_s": rate(c["rules.rules_mined"], mine_s),
            "rules.build_context_calls": c["rules.build_context_calls"],
            "rules.rules_scanned": c["rules.rules_scanned"],
            "rules.context_hit_ratio": rate(c["rules.context_entries"],
                                            c["rules.rules_scanned"]),
            "contextsim.records": c["contextsim.records"],
            "contextsim.pairs_scored": c["contextsim.pairs_scored"],
            "contextsim.pairs_skipped": c["contextsim.pairs_skipped"],
            "contextsim.self_s": self_time["contextsim"],
            "contextsim.pairs_per_s": rate(c["contextsim.pairs_scored"], pairs_s),
            "classify.docs_featurized": c["classify.docs_featurized"],
            "classify.featurize_s": featurize_s,
            "classify.docs_per_s": rate(c["classify.docs_featurized"], featurize_s),
            "classify.train_epochs": c["classify.train_epochs"],
            "classify.train_s": incl("classify.train_logreg"),
            "classify.eval_s": incl("classify.evaluate"),
            "manifest.writes": c["manifest.writes"],
            "manifest.bytes_hashed": c["manifest.bytes_hashed"],
            "manifest.s": incl("manifest.write_manifest"),
            "cli.self_s": self_time["cli"],
        }
        return out
