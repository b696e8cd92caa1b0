"""Command-line entry point for the crosslex pipeline.

Exit codes: 0 success, 1 usage/configuration error, 2 data or format error.
filter-corpus, train-embeddings and align, and bli and classify given
--output, also write a run manifest with the resolved config, seeds
included, and input checksums.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import __version__
from .alignment import (
    checked_map,
    fit_hub_alignment,
    is_language_name,
    load_alignment,
    save_alignment,
)
from .classify import split_dataset, zero_shot_eval
from .config import ClassifyConfig, SgnsConfig, load_config
from .contextsim import cross_lingual_report
from .corpus import (
    check_seed_term,
    filter_corpus,
    load_seed_terms,
    read_lines,
    tokenize,
)
from .embedding_store import load_embeddings, save_embeddings
from .errors import (
    ConfigurationError,
    CrosslexError,
    DimensionError,
    FormatError,
    InsufficientDataError,
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


class _StderrHandler(logging.Handler):
    """Prints a log record to the stderr of the moment, prefixed as the CLI's
    other diagnostics are: ``crosslex: warning: ...``."""

    def emit(self, record):
        print(f"crosslex: {record.levelname.lower()}: {self.format(record)}",
              file=sys.stderr)


# The one handler of the library's log records; adding it again is a no-op.
_STDERR = _StderrHandler()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _language(value):
    if not is_language_name(value):
        raise argparse.ArgumentTypeError(
            f"invalid language name {value!r}: expected letters, digits, _ or -")
    return value


def _k(value):
    try:
        k = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return k


def _seed_terms(value):
    """The comma-separated seed words, stripped, each once in the form
    ``check_seed_term`` matches them."""
    terms = [term.strip() for term in value.split(",")]
    if "" in terms:
        raise argparse.ArgumentTypeError(f"empty seed term in {value!r}")
    try:
        return list(dict.fromkeys(check_seed_term(term) for term in terms))
    except ConfigurationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


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


def _load_spaces(args, needed, model=None):
    """The ``--embeddings`` spaces of the languages in ``needed``, which maps
    each language the command uses to the flag that names it, and the paths
    read. A needed language without a space, or one other than the pivot
    that is not in ``model``, is an error raised before any file is read;
    the files of other languages are not read. A space that its map in
    ``model`` does not fit is an error naming its file and the model. The
    paths read map to the sha256 each file had when it was loaded."""
    for lang, flag in needed.items():
        if lang not in args.embeddings:
            raise ConfigurationError(
                f"{flag} language {lang!r} has no --embeddings {lang}=PATH")
        if model and lang != model.pivot_lang and lang not in model.maps:
            raise ConfigurationError(
                f"{args.model}: language {lang!r} not in alignment model")
    paths = {lang: path for lang, path in args.embeddings.items() if lang in needed}
    spaces = {}
    for lang, path in paths.items():
        spaces[lang] = load_embeddings(path, lang)
        if model:
            try:
                checked_map(model, lang, spaces[lang])
            except DimensionError as err:
                raise DimensionError(
                    f"{path} does not fit {args.model}: {err}") from None
    return spaces, {path: spaces[lang].source_sha256 for lang, path in paths.items()}


def _not_pivot(paths, flag, pivot):
    """A ``flag`` LANG=PATH pairs ``pivot`` with LANG, so LANG may not be it."""
    if pivot in paths:
        raise ConfigurationError(
            f"{flag} language {pivot!r} is the pivot; name the language paired with it")


def _rounded(value):
    """``value`` with every float in it rounded to 6 decimals."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _write_jsonl(path_or_stdout, records):
    write_text(path_or_stdout, (json.dumps(_rounded(rec), sort_keys=True) + "\n"
                                for rec in records))


def _manifest(args, config, inputs, digests=None):
    """Write the run manifest of a command given ``--output``: align's as
    ``manifest.json`` in the model directory, any other's beside its output
    as ``<output>.manifest.json``. ``digests`` maps the inputs already
    hashed, the spaces, to their sha256."""
    if args.output:
        path = (os.path.join(args.output, "manifest.json") if args.command == "align"
                else args.output + ".manifest.json")
        write_manifest(path, args.command, config, inputs, digests=digests)


def _cmd_filter_corpus(args, cfg):
    seeds = load_seed_terms(args.seeds)
    lines = read_lines(args.input)
    kept = list(filter_corpus(lines, seeds))
    write_text(args.output, (line + "\n" for line in kept))
    _manifest(args, {"kept": len(kept), "total": len(lines)}, [args.input, args.seeds])
    print(f"kept {len(kept)} of {len(lines)} lines", file=sys.stderr)


def _cmd_train_embeddings(args, cfg):
    corpus = [tokenize(line) for line in read_lines(args.corpus)]
    with in_file(args.corpus):
        space = train_sgns(corpus, SgnsConfig(**cfg["sgns"]))
    save_embeddings(space, args.output)
    _manifest(args, {"sgns": cfg["sgns"], "language": args.language}, [args.corpus])
    print(f"trained {len(space)} x {space.dim} vectors for {args.language}",
          file=sys.stderr)


def _cmd_align(args, cfg):
    acfg = cfg["alignment"]
    pivot = args.pivot
    _not_pivot(args.lexicon, "--lexicon", pivot)
    spaces, read = _load_spaces(
        args, {pivot: "pivot", **{lang: "--lexicon" for lang in args.lexicon}})
    lexicons = []
    heldout = {}
    for lang, path in args.lexicon.items():
        with in_file(path):
            lex, dropped = restrict_to_vocab(load_lexicon(path, pivot, lang),
                                             spaces[pivot], spaces[lang])
            if args.holdout:
                lex, heldout[lang] = split_lexicon(
                    lex, acfg["train_fraction"], acfg["split_seed"])
        lexicons.append(lex)
        print(f"{pivot}-{lang}: {len(lex)} alignment pairs ({dropped} dropped)",
              file=sys.stderr)
    model = fit_hub_alignment(
        spaces, lexicons, pivot,
        lam=acfg["lambda"], kept_ratio=acfg["kept_ratio"])
    save_alignment(model, args.output)
    for lang in args.lexicon:  # an earlier run's held-out pairs are now fitted
        path = os.path.join(args.output, f"validation_{lang}.tsv")
        if lang in heldout:
            write_text(path, (f"{s}\t{t}\n" for s, t in heldout[lang].pairs))
        elif os.path.exists(path):
            os.remove(path)
    _manifest(args, {"alignment": acfg, "pivot": pivot},
              [*read, *args.lexicon.values()], read)


def _load_model(args):
    """The model as loaded, which prepares the spaces it is given as its
    metadata says, and the files read: its ``metadata.json`` and one
    ``.mat`` per language. A model without the format marker is warned of."""
    model = load_alignment(args.model)
    if model.legacy:
        print(f"crosslex: warning: {args.model} has no format marker; "
              "normalizing its inputs, as align did before models recorded it",
              file=sys.stderr)
    return model, [os.path.join(args.model, name) for name in (
        "metadata.json", *(f"{lang}.mat" for lang in model.maps))]


def _cmd_knn(args, cfg):
    model, _ = _load_model(args)
    spaces, _ = _load_spaces(args, {args.lang: "--lang", args.target: "--target"},
                             model)
    result = knn(model, spaces, args.word, args.lang, args.target, args.k)
    records = [
        {"query": result.query_word, "query_lang": result.query_lang,
         "rank": i + 1, "word": w, "language": lang, "score": s}
        for i, (w, lang, s) in enumerate(result.neighbors)
    ]
    if result.truncated:
        records.append({"query": result.query_word, "truncated": True})
    _write_jsonl(args.output, records)


def _cmd_bli(args, cfg):
    model, model_files = _load_model(args)
    _not_pivot(args.validation, "--validation", model.pivot_lang)
    spaces, read = _load_spaces(args, {
        model.pivot_lang: "pivot",
        **{lang: "--validation" for lang in args.validation}}, model)
    records = []
    for lang, path in args.validation.items():
        with in_file(path):
            lex = load_lexicon(path, model.pivot_lang, lang)
            res = bli_precision_at_k(model, spaces, lex, args.k)
        if args.detailed:
            records.extend({
                "query": result.query_word, "query_lang": lex.src_lang,
                "target_lang": lang,
                "neighbors": [{"word": w, "score": s}
                              for w, _, s in result.neighbors],
            } for result in res.rankings)
        records.append({
            "source_lang": lex.src_lang, "target_lang": lang,
            "k": args.k, "precision": res.precision,
            "evaluated": res.evaluated, "excluded": res.excluded,
        })
    _write_jsonl(args.output, records)
    _manifest(args, {"k": args.k},
              [*args.validation.values(), *read, *model_files], read)


def _mine(ds, class_filter, mcfg, path):
    """The ``[mining]`` rules of the ``class_filter`` documents of ``ds``, or
    of all its documents for "all"; a too-little-data error names ``path``."""
    docs = ds.token_lists() if class_filter == "all" else ds.partition(class_filter)
    with in_file(path):
        return mine_rules(docs, top_n_antecedents=mcfg["top_n"],
                          min_support=mcfg["min_support"],
                          min_confidence=mcfg["min_confidence"],
                          stopwords=load_stopwords(ds.language))


def _cmd_mine_rules(args, cfg):
    ds = load_labeled_dataset(args.dataset, args.language)
    rules = _mine(ds, args.class_filter, cfg["mining"], args.dataset)
    _write_jsonl(args.output, (dataclasses.asdict(r) for r in rules))
    counts = ds.class_counts()
    print(f"classes: hate={counts.get(HATE, 0)} non-hate={counts.get(NON_HATE, 0)}; "
          f"{len(rules)} rules", file=sys.stderr)


def _cmd_context_sim(args, cfg):
    if args.source_lang not in args.dataset:
        raise ConfigurationError(
            f"source language {args.source_lang!r} has no dataset; pass one with "
            f"--dataset {args.source_lang}=PATH")
    if len(args.dataset) == 1:
        raise ConfigurationError(
            f"no target language: pass a --dataset in a language other than "
            f"{args.source_lang!r}")
    model, _ = _load_model(args)
    spaces, _ = _load_spaces(args, {lang: "--dataset" for lang in args.dataset},
                             model)
    datasets = {lang: load_labeled_dataset(path, lang)
                for lang, path in args.dataset.items()}
    rules = {lang: _mine(ds, args.class_filter, cfg["mining"], args.dataset[lang])
             for lang, ds in datasets.items()}
    scfg = cfg["similarity"]
    records = cross_lingual_report(
        args.seed_terms, args.source_lang, rules, args.class_filter, model, spaces,
        top_m=scfg["top_m"], variant=scfg["variant"])
    _write_jsonl(args.output, records)


def _cmd_classify(args, cfg):
    ccfg = ClassifyConfig(**cfg["classify"])
    train_lang, train_path = args.train
    test_lang, test_path = args.test
    monolingual = train_lang == test_lang
    model, model_files = _load_model(args)
    spaces, read = _load_spaces(args, {train_lang: "--train", test_lang: "--test"},
                                model)
    train_ds = load_labeled_dataset(train_path, train_lang)
    datasets = [train_path]
    if monolingual and os.path.samefile(train_path, test_path):
        train_ds, _, test_ds = split_dataset(train_ds, seed=ccfg.split_seed)
    else:
        test_ds = load_labeled_dataset(test_path, test_lang)
        datasets.append(test_path)
    # too little data is the --test file's fault when it has no document
    with in_file(train_path if test_ds.docs else test_path):
        metrics = zero_shot_eval(train_ds, test_ds, model, spaces, ccfg,
                                 allow_same_language=monolingual)
    record = {"train_lang": train_lang, "test_lang": test_lang,
              "monolingual": monolingual, **dataclasses.asdict(metrics)}
    _write_jsonl(args.output, [record])
    tsv = (f"{train_lang}\t{test_lang}\t{metrics.f1:.4f}\t"
           f"{metrics.precision:.4f}\t{metrics.recall:.4f}\t{metrics.accuracy:.4f}")
    print(tsv, file=sys.stderr)
    _manifest(args, {"classify": cfg["classify"], "train": train_lang,
                     "test": test_lang},
              [*datasets, *read, *model_files], read)


def _cmd_report(args, cfg):
    """Flatten a context-sim JSON-lines report into a TSV table:
    rows = seed terms, columns = target languages. A file without a
    context-sim record is an error."""
    cells = {}
    with in_file(args.input):
        for lineno, line in text_lines(args.input):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise FormatError("record is not a JSON object", lineno)
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
        if not cells:
            raise InsufficientDataError("no context-sim record to tabulate")
    seeds = list(dict.fromkeys(seed for seed, _ in cells))
    langs = list(dict.fromkeys(lang for _, lang in cells))
    lines = ["seed\t" + "\t".join(langs)]
    for seed in seeds:
        lines.append(
            seed + "\t" + "\t".join(cells.get((seed, lang), "") for lang in langs)
        )
    write_text(args.output, (line + "\n" for line in lines))


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
    p.add_argument("--pivot", type=_language, default="en")
    p.add_argument("--holdout", action="store_true",
                   help="split off a validation lexicon per language")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("knn", parents=[with_model],
                       help="nearest neighbors in the shared space")
    p.add_argument("--word", required=True)
    p.add_argument("--lang", required=True, type=_language)
    p.add_argument("--target", required=True, type=_language)
    p.add_argument("--k", type=_k, default=5)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("bli", parents=[with_model],
                       help="precision@k against validation lexicons")
    _add_lang_paths(p, "--validation")
    p.add_argument("--k", type=_k, default=1)
    p.add_argument("--detailed", action="store_true",
                   help="emit per-word neighbor records before the summary")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bli)

    p = sub.add_parser("mine-rules", parents=[config],
                       help="mine association rules from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--language", required=True, type=_language)
    p.add_argument("--class", dest="class_filter", default="all",
                   choices=[HATE, NON_HATE, "all"])
    p.add_argument("--output")
    p.set_defaults(func=_cmd_mine_rules)

    p = sub.add_parser("context-sim", parents=[with_model],
                       help="cross-lingual context similarity report")
    _add_lang_paths(p, "--dataset")
    p.add_argument("--seed-terms", required=True, type=_seed_terms,
                   help="comma-separated seed words")
    p.add_argument("--source-lang", required=True, type=_language)
    p.add_argument("--class", dest="class_filter", default="hate",
                   choices=[HATE, NON_HATE])
    p.add_argument("--output")
    p.set_defaults(func=_cmd_context_sim)

    p = sub.add_parser("classify", parents=[with_model],
                       help="zero-shot cross-lingual classification")
    p.add_argument("--train", required=True, type=_lang_path_pair,
                   metavar="LANG=PATH")
    p.add_argument("--test", required=True, type=_lang_path_pair,
                   metavar="LANG=PATH")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("report", help="flatten a JSON-lines report into TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    logging.getLogger("crosslex").addHandler(_STDERR)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --version
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = (load_config(args.config, args.overrides)
               if hasattr(args, "overrides") else None)
        if getattr(args, "output", None):
            os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        args.func(args, cfg)
        return EXIT_OK
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
