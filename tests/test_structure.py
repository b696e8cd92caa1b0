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

# The only function that opens a file for writing: the one writer of outputs.
WRITERS = {"errors.write_text"}


def _read_mode(call):
    """False only for an ``open`` call whose constant mode writes."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax+"))


def _opens(tree, module):
    """``(module.function, reads)`` of every ``open(...)`` call in ``tree``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            found.append((where, _read_mode(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def _source_opens():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _opens(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


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
