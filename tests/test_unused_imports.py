"""Offline unused-import check over the package sources, using only ``ast``.

``__init__.py`` re-exports what it imports, and an import line marked
``# noqa: F401`` is kept on purpose (perfbench's tracer patches the name in
that module), so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "camloc").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom a.b import c as d, e\nprint(e)\n"
    assert unused_imports(source) == ["os (line 1)", "d (line 3)"]
