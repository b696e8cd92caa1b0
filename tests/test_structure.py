"""Structural rules of the source tree that no behavioral test pins down."""

import ast
from pathlib import Path

import crosslex

SRC = Path(crosslex.__file__).resolve().parent

# The only functions that open a file for reading: the one checked reader of
# text inputs, the bulk embedding parse (np.loadtxt needs a file handle, and
# any decode error there falls back to the checked reader), and the byte
# hash of the manifests.
READERS = {"errors.text_lines", "embedding_store._parse_bulk", "manifest._sha256"}


def _read_mode(call):
    """False only for an ``open`` call whose constant mode writes."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax+"))


def _read_opens(tree, module):
    """``module.function`` of every read-mode ``open(...)`` call in ``tree``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open" and _read_mode(node)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_only_the_checked_reader_opens_text_inputs():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _read_opens(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == sorted(READERS)
