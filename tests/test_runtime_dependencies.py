"""Offline dependency lint over the package sources, using only ``ast``.

numpy is the package's one runtime dependency (``pyproject.toml``): every
absolute import in ``src/camloc`` must be numpy or a standard-library
module. scipy is a test dependency only.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "camloc").glob("*.py"))
RUNTIME = {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Top-level modules that ``source`` imports absolutely and that are
    neither in ``RUNTIME`` nor in the standard library, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in RUNTIME and top not in sys.stdlib_module_names:
                found.append(f"{top} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport os, scipy.ndimage\nfrom . import tensor\n"
        "from .data import BBox\nimport numpy as np\n\ndef f():\n    from matplotlib import pyplot\n"
    )
    assert foreign_imports(source) == ["scipy (line 2)", "matplotlib (line 8)"]
