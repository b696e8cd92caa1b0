"""The README's promises about the package match the package."""

import re
from pathlib import Path

import crosslex
from crosslex import config

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
        (section, key, kind.__name__,
         str(default).lower() if kind is bool else str(default),
         "" if valid is None else config._describe(kind, valid))
        for section, keys in config._SCHEMA.items()
        for key, (kind, default, valid) in keys.items()
    ]
    assert rows == expected
