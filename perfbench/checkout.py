"""Locate the checkout the benchmark runs in and import crosslex from it.

The benchmark measures the source tree beside it, never an installed copy,
so it puts ``<checkout>/src`` first on the import path and refuses to run
when that tree is missing.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSourceError(RuntimeError):
    pass


def require_source():
    if not os.path.isfile(os.path.join(SRC, "crosslex", "__init__.py")):
        raise MissingSourceError(f"no crosslex source tree under {SRC}")


def import_crosslex():
    """Import the package from this checkout's ``src`` and return it."""
    require_source()
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import crosslex

    if not os.path.abspath(crosslex.__file__).startswith(SRC + os.sep):
        raise MissingSourceError(
            f"crosslex imported from {crosslex.__file__}, not from {SRC}")
    return crosslex
