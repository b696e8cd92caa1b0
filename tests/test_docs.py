"""The README's promises about the package match the package."""

import re
from pathlib import Path

import crosslex

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
