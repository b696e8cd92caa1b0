"""Command-line entry point for the crosslex pipeline.

Exit codes: 0 success, 1 usage/configuration error, 2 data or format error.
filter-corpus, train-embeddings and align, and bli and classify given
--output, also write a run manifest with the resolved config, input
checksums, and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .alignment import (
    fit_hub_alignment,
    is_language_name,
    load_alignment,
    save_alignment,
)
from .classify import split_dataset, zero_shot_eval
from .config import ClassifyConfig, SgnsConfig, TokenizerConfig, load_config
from .contextsim import cross_lingual_report
from .corpus import filter_corpus, load_seed_terms, read_lines, tokenize
from .embedding_store import load_embeddings, save_embeddings
from .errors import (
    ConfigurationError,
    CrosslexError,
    FormatError,
    ProtocolError,
    in_file,
    text_lines,
    write_text,
)
from .lexicon import load_lexicon, restrict_to_vocab, split_lexicon
from .manifest import write_manifest
from .retrieval import bli_precision_at_k, knn
from .rules import (
    HATE,
    NON_HATE,
    load_labeled_dataset,
    load_stopwords,
    mine_rules,
)
from .sgns import train_sgns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _language(value):
    if not is_language_name(value):
        raise argparse.ArgumentTypeError(
            f"invalid language name {value!r}: expected letters, digits, _ or -")
    return value


def _seed_terms(value):
    if "" in value.split(","):
        raise argparse.ArgumentTypeError(f"empty seed term in {value!r}")
    return value.split(",")


def _lang_path_pair(value):
    if "=" not in value:
        raise argparse.ArgumentTypeError(f"expected LANG=PATH, got {value!r}")
    lang, path = value.split("=", 1)
    return _language(lang), path


class _LangPaths(argparse.Action):
    """Collects repeated ``LANG=PATH`` values into a language -> path dict;
    a language given twice is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        lang, path = value
        given = getattr(namespace, self.dest) or {}
        if lang in given:
            raise argparse.ArgumentError(self, f"language {lang!r} given twice")
        given[lang] = path
        setattr(namespace, self.dest, given)


def _add_lang_paths(parser, flag, help=None):
    parser.add_argument(flag, required=True, action=_LangPaths,
                        type=_lang_path_pair, metavar="LANG=PATH", help=help)


def _load_spaces(args, needed):
    """The ``--embeddings`` spaces of the languages in ``needed``, which maps
    each language the command uses to the flag that names it, and the paths
    read. A needed language without a space is an error; the files of other
    languages are not read."""
    for lang, flag in needed.items():
        if lang not in args.embeddings:
            raise ConfigurationError(
                f"{flag} language {lang!r} has no --embeddings {lang}=PATH")
    paths = {lang: path for lang, path in args.embeddings.items() if lang in needed}
    spaces = {lang: load_embeddings(path, lang) for lang, path in paths.items()}
    return spaces, list(paths.values())


def _write_output_manifest(output, command, config, inputs, seeds=None):
    """The manifest of a file output, as ``<output>.manifest.json`` beside it."""
    write_manifest(os.path.dirname(os.path.abspath(output)), command, config,
                   inputs, seeds=seeds,
                   name=os.path.basename(output) + ".manifest.json")


def _write_jsonl(path_or_stdout, records):
    write_text(path_or_stdout,
               (json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def _cmd_filter_corpus(args):
    cfg = load_config(args.config, args.overrides)
    seeds = load_seed_terms(args.seeds)
    lines = read_lines(args.input)
    kept = list(filter_corpus(lines, seeds, TokenizerConfig(**cfg["tokenizer"])))
    write_text(args.output, (line + "\n" for line in kept))
    _write_output_manifest(
        args.output, "filter-corpus",
        {"tokenizer": cfg["tokenizer"], "kept": len(kept), "total": len(lines)},
        [args.input, args.seeds],
    )
    print(f"kept {len(kept)} of {len(lines)} lines", file=sys.stderr)
    return EXIT_OK


def _cmd_train_embeddings(args):
    cfg = load_config(args.config, args.overrides)
    tok = TokenizerConfig(**cfg["tokenizer"])
    corpus = [tokenize(line, tok) for line in read_lines(args.corpus)]
    space = train_sgns(corpus, SgnsConfig(**cfg["sgns"]))
    space.language = args.language
    save_embeddings(space, args.output)
    _write_output_manifest(
        args.output, "train-embeddings",
        {"tokenizer": cfg["tokenizer"], "sgns": cfg["sgns"],
         "language": args.language},
        [args.corpus],
        seeds={"rng_seed": cfg["sgns"]["rng_seed"]},
    )
    print(f"trained {len(space)} x {space.dim} vectors for {args.language}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_align(args):
    acfg = load_config(args.config, args.overrides)["alignment"]
    pivot = args.pivot or acfg["pivot"]
    spaces, read = _load_spaces(
        args, {pivot: "pivot", **{lang: "--lexicon" for lang in args.lexicon}})
    lexicons = []
    heldout = {}
    for lang, path in args.lexicon.items():
        lex = load_lexicon(path, pivot, lang)
        lex, dropped = restrict_to_vocab(lex, spaces[pivot], spaces[lang])
        if args.holdout:
            train, val = split_lexicon(
                lex, acfg["train_fraction"], acfg["split_seed"]
            )
            heldout[lang] = val
            lex = train
        lexicons.append(lex)
        print(f"{pivot}-{lang}: {len(lex)} alignment pairs ({dropped} dropped)",
              file=sys.stderr)
    model = fit_hub_alignment(
        spaces, lexicons, pivot,
        lam=acfg["lambda"], kept_ratio=acfg["kept_ratio"],
        normalize=acfg["normalize"],
    )
    save_alignment(model, args.output)
    for lang, val in heldout.items():
        write_text(os.path.join(args.output, f"validation_{lang}.tsv"),
                   (f"{s}\t{t}\n" for s, t in val.pairs))
    write_manifest(
        args.output,
        "align",
        {"alignment": acfg, "pivot": pivot},
        read + list(args.lexicon.values()),
        seeds={"split_seed": acfg["split_seed"]},
    )
    return EXIT_OK


def _load_model(args, cfg):
    """The model as loaded; it prepares the spaces it is given.

    A run config whose ``alignment.normalize`` disagrees with the model is
    an error. A model without the format marker may understate its
    preparation, so it normalizes when its metadata or the config says so.
    """
    model = load_alignment(args.model)
    normalize = cfg["alignment"]["normalize"]
    if model.legacy:
        model.normalize = model.normalize or normalize
        print(f"crosslex: warning: {args.model} has no format marker; "
              f"normalize={model.normalize} taken from its metadata or "
              "alignment.normalize", file=sys.stderr)
    elif model.normalize != normalize:
        raise ConfigurationError(
            f"{args.model} was fitted with normalize={model.normalize}, "
            f"but alignment.normalize is {normalize}")
    return model


def _cmd_knn(args):
    model = _load_model(args, load_config(args.config, args.overrides))
    spaces, _ = _load_spaces(args, {args.lang: "--lang", args.target: "--target"})
    result = knn(model, spaces, args.word, args.lang, args.target, args.k)
    records = [
        {"query": result.query_word, "query_lang": result.query_lang,
         "rank": i + 1, "word": w, "language": lang, "score": round(s, 6)}
        for i, (w, lang, s) in enumerate(result.neighbors)
    ]
    if result.truncated:
        records.append({"query": result.query_word, "truncated": True})
    _write_jsonl(args.output, records)
    return EXIT_OK


def _cmd_bli(args):
    model = _load_model(args, load_config(args.config, args.overrides))
    spaces, read = _load_spaces(args, {
        model.pivot_lang: "pivot",
        **{lang: "--validation" for lang in args.validation}})
    records = []
    for lang, path in args.validation.items():
        lex = load_lexicon(path, model.pivot_lang, lang)
        res = bli_precision_at_k(model, spaces, lex, args.k)
        if args.detailed:
            records.extend({
                "query": result.query_word, "query_lang": lex.src_lang,
                "target_lang": lang,
                "neighbors": [{"word": w, "score": round(s, 6)}
                              for w, _, s in result.neighbors],
            } for result in res.rankings)
        records.append({
            "source_lang": lex.src_lang, "target_lang": lang,
            "k": args.k, "precision": round(res.precision, 6),
            "evaluated": res.evaluated, "excluded": res.excluded,
        })
    _write_jsonl(args.output, records)
    if args.output:
        _write_output_manifest(args.output, "bli", {"k": args.k},
                               list(args.validation.values()) + read)
    return EXIT_OK


def _class_filter(name):
    return {"hate": HATE, "non-hate": NON_HATE}[name]


def _mining_args(mcfg):
    """The ``mine_rules`` keyword arguments of the ``[mining]`` section."""
    return {"top_n_antecedents": mcfg["top_n"], "min_support": mcfg["min_support"],
            "min_confidence": mcfg["min_confidence"]}


def _cmd_mine_rules(args):
    cfg = load_config(args.config, args.overrides)
    mcfg = cfg["mining"]
    ds = load_labeled_dataset(args.dataset, args.language,
                              TokenizerConfig(**cfg["tokenizer"]))
    docs = (
        ds.partition(_class_filter(args.class_filter))
        if args.class_filter != "all"
        else ds.token_lists()
    )
    stop = load_stopwords(args.language) if mcfg["use_stopwords"] else frozenset()
    rules = mine_rules(docs, stopwords=stop, **_mining_args(mcfg))
    records = [
        {"antecedent": r.antecedent, "consequent": r.consequent,
         "support": round(r.support, 6), "confidence": round(r.confidence, 6)}
        for r in rules
    ]
    _write_jsonl(args.output, records)
    counts = ds.class_counts()
    print(f"classes: hate={counts.get(HATE, 0)} non-hate={counts.get(NON_HATE, 0)}; "
          f"{len(rules)} rules", file=sys.stderr)
    return EXIT_OK


def _cmd_context_sim(args):
    cfg = load_config(args.config, args.overrides)
    tok = TokenizerConfig(**cfg["tokenizer"])
    mcfg, scfg = cfg["mining"], cfg["similarity"]
    model = _load_model(args, cfg)
    spaces, _ = _load_spaces(args, {args.source_lang: "--source-lang",
                                    **{lang: "--dataset" for lang in args.dataset}})
    datasets = {
        lang: load_labeled_dataset(path, lang, tok)
        for lang, path in args.dataset.items()
    }
    stopword_map = (
        {lang: load_stopwords(lang) for lang in datasets}
        if mcfg["use_stopwords"] else {}
    )
    records = cross_lingual_report(
        args.seed_terms, args.source_lang, datasets, _class_filter(args.class_filter),
        model, spaces, {**_mining_args(mcfg), "stopwords": stopword_map},
        top_m=scfg["top_m"], variant=scfg["variant"],
    )
    for rec in records:
        rec["results"] = [
            {"word": r["word"], "score": round(r["score"], 6)}
            for r in rec["results"]
        ]
    _write_jsonl(args.output, records)
    return EXIT_OK


def _cmd_classify(args):
    cfg = load_config(args.config, args.overrides)
    tok = TokenizerConfig(**cfg["tokenizer"])
    ccfg = dict(cfg["classify"])
    split_seed = ccfg.pop("split_seed")
    model = _load_model(args, cfg)
    train_lang, train_path = args.train
    test_lang, test_path = args.test
    spaces, _ = _load_spaces(args, {train_lang: "--train", test_lang: "--test"})
    train_ds = load_labeled_dataset(train_path, train_lang, tok)
    test_ds = load_labeled_dataset(test_path, test_lang, tok)
    if args.monolingual:
        if train_lang != test_lang:
            raise ProtocolError("--monolingual requires matching languages")
        if train_path == test_path:
            train_ds, _, test_ds = split_dataset(train_ds, seed=split_seed)
    metrics = zero_shot_eval(
        train_ds, test_ds, model, spaces, ClassifyConfig(**ccfg),
        allow_same_language=args.monolingual,
    )
    record = {"train_lang": train_lang, "test_lang": test_lang,
              "monolingual": args.monolingual}
    record.update(
        {k: (round(v, 6) if isinstance(v, float) else v)
         for k, v in dataclasses.asdict(metrics).items()}
    )
    _write_jsonl(args.output, [record])
    tsv = (f"{train_lang}\t{test_lang}\t{metrics.f1:.4f}\t"
           f"{metrics.precision:.4f}\t{metrics.recall:.4f}\t{metrics.accuracy:.4f}")
    print(tsv, file=sys.stderr)
    if args.output:
        _write_output_manifest(
            args.output, "classify",
            {"classify": cfg["classify"], "train": train_lang, "test": test_lang},
            [train_path, test_path],
            seeds={"split_seed": split_seed},
        )
    return EXIT_OK


def _cmd_report(args):
    """Flatten a context-sim JSON-lines report into a TSV table:
    rows = seed terms, columns = target languages."""
    cells = {}
    with in_file(args.input):
        for lineno, line in text_lines(args.input):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise FormatError("record is not a JSON object", lineno)
                if "seed" in rec:
                    key = str(rec["seed"]), str(rec["target_lang"])
                    cells[key] = ("(no context)" if rec.get("no_context") else
                                  "; ".join(f"{r['word']} ({r['score']:.2f})"
                                            for r in rec["results"]))
                    # a JSON escape can spell a lone surrogate, not UTF-8
                    "".join([*key, cells[key]]).encode("utf-8")
            except json.JSONDecodeError as err:
                raise FormatError(f"invalid JSON: {err.msg}", lineno) from None
            except KeyError as err:
                raise FormatError(f"record lacks key {err}", lineno) from None
            except (TypeError, ValueError) as err:
                raise FormatError(f"malformed record: {err}", lineno) from None
    seeds = list(dict.fromkeys(seed for seed, _ in cells))
    langs = list(dict.fromkeys(lang for _, lang in cells))
    lines = ["seed\t" + "\t".join(langs)]
    for seed in seeds:
        lines.append(
            seed + "\t" + "\t".join(cells.get((seed, lang), "") for lang in langs)
        )
    write_text(args.output, (line + "\n" for line in lines))
    return EXIT_OK


def _override(value):
    try:
        dotted, val = value.split("=", 1)
        section, key = dotted.split(".", 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected SECTION.KEY=VALUE, got {value!r}"
        ) from None
    return section, key, val


def build_parser():
    parser = _Parser(prog="crosslex", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="sectioned key-value config file")
    config.add_argument(
        "--set", dest="overrides", action="append", default=[],
        type=_override, metavar="SECTION.KEY=VALUE",
        help="override a single config value",
    )
    with_model = argparse.ArgumentParser(add_help=False, parents=[config])
    with_model.add_argument("--model", required=True)
    _add_lang_paths(with_model, "--embeddings")

    p = sub.add_parser("filter-corpus", parents=[config],
                       help="keep lines containing seed terms")
    p.add_argument("--input", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_filter_corpus)

    p = sub.add_parser("train-embeddings", parents=[config],
                       help="train SGNS vectors on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--language", required=True, type=_language)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_train_embeddings)

    p = sub.add_parser("align", parents=[config],
                       help="fit CCA hub alignment from lexicons")
    _add_lang_paths(p, "--embeddings")
    _add_lang_paths(p, "--lexicon", help="pivot-to-LANG lexicon TSV")
    p.add_argument("--pivot", type=_language)
    p.add_argument("--holdout", action="store_true",
                   help="split off a validation lexicon per language")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("knn", parents=[with_model],
                       help="nearest neighbors in the shared space")
    p.add_argument("--word", required=True)
    p.add_argument("--lang", required=True, type=_language)
    p.add_argument("--target", required=True, type=_language)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("bli", parents=[with_model],
                       help="precision@k against validation lexicons")
    _add_lang_paths(p, "--validation")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--detailed", action="store_true",
                   help="emit per-word neighbor records before the summary")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bli)

    p = sub.add_parser("mine-rules", parents=[config],
                       help="mine association rules from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--language", required=True, type=_language)
    p.add_argument("--class", dest="class_filter", default="all",
                   choices=["hate", "non-hate", "all"])
    p.add_argument("--output")
    p.set_defaults(func=_cmd_mine_rules)

    p = sub.add_parser("context-sim", parents=[with_model],
                       help="cross-lingual context similarity report")
    _add_lang_paths(p, "--dataset")
    p.add_argument("--seed-terms", required=True, type=_seed_terms,
                   help="comma-separated seed words")
    p.add_argument("--source-lang", required=True, type=_language)
    p.add_argument("--class", dest="class_filter", default="hate",
                   choices=["hate", "non-hate"])
    p.add_argument("--output")
    p.set_defaults(func=_cmd_context_sim)

    p = sub.add_parser("classify", parents=[with_model],
                       help="zero-shot cross-lingual classification")
    p.add_argument("--train", required=True, type=_lang_path_pair,
                   metavar="LANG=PATH")
    p.add_argument("--test", required=True, type=_lang_path_pair,
                   metavar="LANG=PATH")
    p.add_argument("--monolingual", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("report", help="flatten a JSON-lines report into TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --version
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "output", None):
            os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        return args.func(args)
    except ConfigurationError as err:
        print(f"crosslex: configuration error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CrosslexError as err:
        print(f"crosslex: error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"crosslex: i/o error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
