"""The README's promises about the package match the package."""

import argparse
import inspect
import re
from pathlib import Path

import crosslex
from crosslex import config
from crosslex.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_surface():
    """Backticked names of the first paragraph under "## Library surface"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    paragraph = section.strip().split("\n\n", 1)[0]
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)


def test_every_documented_name_imports_from_crosslex():
    names = _library_surface()
    assert "load_embeddings" in names and "zero_shot_eval" in names
    missing = [name for name in names if not hasattr(crosslex, name)]
    assert missing == []


def test_config_table_matches_the_schema():
    """Every row of the README's config table is one key of ``config._SCHEMA``
    with its type, default and valid values, in order."""
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| (\w+) \| (\S+) \| (.*?) ?\|$",
                      text, re.M)
    expected = [
        (section, key, kind.__name__, str(default), config._describe(kind, valid))
        for section, keys in config._SCHEMA.items()
        for key, (kind, default, valid) in keys.items()
    ]
    assert rows == expected


def test_every_exported_function_is_documented():
    names = set(_library_surface())
    exported = [name for name, obj in vars(crosslex).items()
                if inspect.isfunction(obj) and not name.startswith("_")]
    assert sorted(set(exported) - names) == []


def test_command_table_matches_the_parser():
    """The rows of the README's ``| command | purpose |`` table are the CLI's
    subcommands, in the parser's order."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| command | purpose |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|", table, re.M)
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert rows == list(sub.choices)


def _backticked_flags(text):
    """The ``--flag`` names in the text's code spans and in the ``crosslex``
    commands of its fenced blocks."""
    parts = text.split("```")
    commands = [line for block in parts[1::2]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("crosslex ")]
    spans = [span for prose in parts[::2] for span in re.findall(r"`([^`]+)`", prose)]
    return {flag for chunk in commands + spans
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", chunk)}


def test_readme_names_only_real_flags():
    """Every backticked ``--flag`` in the README is an option of the CLI or
    of one of its subcommands."""
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {option for p in (parser, *sub.choices.values())
               for action in p._actions for option in action.option_strings}
    named = _backticked_flags(README.read_text(encoding="utf-8"))
    assert "--embeddings" in named
    assert sorted(named - options) == []
