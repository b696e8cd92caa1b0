"""Structural rules of the source tree that no behavioral test pins down."""

import ast
import inspect
from pathlib import Path

import pytest

import crosslex
from crosslex import config

from test_cli import _library_guards

SRC = Path(crosslex.__file__).resolve().parent

# The only functions that open a file for reading: the one checked reader of
# text inputs, the bulk embedding parse, the byte hash of the inputs, and the
# reader of the parse cache beside each .vec file.
# np.loadtxt takes any iterable of lines, so the bulk parse could stream the
# checked reader; it opens its own handle because that measured no slower on
# a 20k x 100 .vec (0.2386 s against 0.2355 s streamed) and faster on a
# 5k x 50 one (0.0237 s against 0.0274 s). A decode error there falls back
# to the checked reader. The cache makes a repeat load_embeddings of those
# files 0.025 s and 0.0043 s, hash included, against 0.19-0.25 s and 0.032 s
# for a parse; a first load, which hashes, parses and writes the cache, took
# 0.265 s and 0.035 s.
READERS = {"errors.text_lines", "embedding_store._parse_bulk", "errors.sha256_file",
           "embedding_store._read_cache"}

# The only function that opens a file for writing: the one writer of outputs,
# which writes bytes chunks (the cache's arrays, as memoryviews) as they are.
WRITERS = {"errors.write_text"}


def _read_mode(call):
    """False only for an ``open`` call whose constant mode writes."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax+"))


def _nodes(tree, module, match):
    """``(module.function, node)`` of every node of ``tree`` that ``match``
    accepts."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if match(node):
            found.append((where, node))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def _calls(tree, module, name):
    """``(module.function, call)`` of every call of ``name`` in ``tree``."""
    return _nodes(tree, module, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def _source_calls(name):
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _calls(ast.parse(path.read_text(encoding="utf-8")), path.stem, name)
    return found


def _source_opens():
    """``(module.function, reads)`` of every ``open(...)`` call."""
    return [(where, _read_mode(call)) for where, call in _source_calls("open")
            if isinstance(call.func, ast.Name)]


def test_only_the_checked_reader_opens_text_inputs():
    found = [where for where, reads in _source_opens() if reads]
    assert sorted(found) == sorted(READERS)


def test_only_the_one_writer_opens_outputs():
    found = {where for where, reads in _source_opens() if not reads}
    assert found == WRITERS


def test_config_imports_only_errors():
    """The module that declares the run config depends on no other layer."""
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"errors"}


def test_only_main_loads_the_run_config():
    """Every command gets the run config from ``main``, which reads it before
    it makes any directory."""
    assert [where for where, _ in _source_calls("load_config")] == ["cli.main"]


# (function, keyword, section, key): each library default that is a run-config
# value, and the ``config._SCHEMA`` entry it must equal.
LIBRARY_DEFAULTS = [
    (crosslex.fit_cca, "lam", "alignment", "lambda"),
    (crosslex.fit_cca, "kept_ratio", "alignment", "kept_ratio"),
    (crosslex.fit_hub_alignment, "lam", "alignment", "lambda"),
    (crosslex.fit_hub_alignment, "kept_ratio", "alignment", "kept_ratio"),
    (crosslex.mine_rules, "top_n_antecedents", "mining", "top_n"),
    (crosslex.mine_rules, "min_support", "mining", "min_support"),
    (crosslex.mine_rules, "min_confidence", "mining", "min_confidence"),
    (crosslex.cross_lingual_report, "top_m", "similarity", "top_m"),
    (crosslex.cross_lingual_report, "variant", "similarity", "variant"),
    (crosslex.split_dataset, "seed", "classify", "split_seed"),
    (crosslex.train_logreg, "epochs", "classify", "epochs"),
    (crosslex.train_logreg, "learning_rate", "classify", "learning_rate"),
    (crosslex.train_logreg, "l2", "classify", "l2"),
    (crosslex.evaluate, "threshold", "classify", "threshold"),
]


@pytest.mark.parametrize("func,keyword,section,key", LIBRARY_DEFAULTS,
                         ids=lambda v: getattr(v, "__name__", v))
def test_library_defaults_are_the_run_config_defaults(func, keyword, section,
                                                      key):
    default = inspect.signature(func).parameters[keyword].default
    assert default == config._SCHEMA[section][key][1]


def test_every_library_default_has_a_guard():
    """Each function that takes a run-config value checks it: the guard
    table of ``test_cli`` names it first in one of its keys."""
    guarded = {guard.split()[0] for guard in _library_guards()}
    assert {func.__name__ for func, *_ in LIBRARY_DEFAULTS} - guarded == set()


# rule -> (the calls it makes, the only functions that make them): one
# manifest writer, one row normalizer, one eigendecomposition with its rank
# check, one association-rule miner of the CLI's datasets, one batched top-k
# kernel, and one place where the CLI loads spaces and one where it loads
# models, so a check of what a model was fitted on has one place to go. A
# model directory has one set of rules, the loader's: save_alignment runs
# the same metadata and map checks on what it is about to write.
ONE_HOME = {
    "language names": (("is_language_name",),
                       {"alignment._check_metadata", "cli._language"}),
    "model map rules": (("_read_language_map",),
                        {"alignment.load_alignment", "alignment.save_alignment"}),
    "manifest path and name": (("write_manifest",), {"cli._manifest"}),
    "row norms": (("norm",), {"embedding_store.unit_rows"}),
    "rank check": (("eigh", "eigvalsh"), {"alignment._inv_sqrt"}),
    "rule mining": (("mine_rules",), {"cli._mine"}),
    "top-k selection": (("argpartition",), {"retrieval._top_k"}),
    "space loading": (("load_embeddings",), {"cli._load_spaces"}),
    "model loading": (("load_alignment",), {"cli._load_model"}),
}


@pytest.mark.parametrize("rule", sorted(ONE_HOME))
def test_each_rule_has_one_home(rule):
    names, home = ONE_HOME[rule]
    assert {where for name in names for where, _ in _source_calls(name)} == home


def _module_tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_commands_leave_the_success_code_to_main():
    """No ``cli._cmd_*`` returns a value: ``main`` returns 0 once a command
    has run, and every failure is an exception that it maps to its code."""
    found = [node.name for node in _module_tree("cli").body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
             and any(isinstance(inner, ast.Return) and inner.value is not None
                     for inner in ast.walk(node))]
    assert found == []


@pytest.mark.parametrize("name", ["SgnsConfig", "ClassifyConfig"])
def test_config_records_define_no_functions(name):
    """The config dataclasses are plain records: a value is checked by the
    function that takes it, against ``config._SCHEMA``."""
    [record] = [node for node in _module_tree("config").body
                if isinstance(node, ast.ClassDef) and node.name == name]
    assert not [node for node in ast.walk(record)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _names_read(module):
    """The string constants and attribute names in a module's source."""
    names = set()
    for node in ast.walk(_module_tree(module)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_config_key_is_read_outside_config():
    """Each key of ``config._SCHEMA`` is read by another module, as a string
    constant (``cfg["mining"]["top_n"]``) or an attribute (``cfg.dim``), so
    the schema keeps no key that nothing reads. The check goes by name: a key
    named like a flag's dest or any other string of the source passes."""
    read = set().union(*(_names_read(path.stem) for path in SRC.glob("*.py")
                         if path.stem != "config"))
    unread = [(section, key) for section, keys in config._SCHEMA.items()
              for key in keys if key not in read]
    assert unread == []


def test_only_align_reads_the_alignment_section():
    """The ``[alignment]`` config section configures the fit alone: no
    command that loads a model reads it."""
    found = {where for where, _ in _nodes(
        _module_tree("cli"), "cli",
        lambda node: isinstance(node, ast.Constant) and node.value == "alignment")}
    assert found == {"cli._cmd_align"}
