"""Offline unused-import check over the package sources, using only ``ast``.

``__init__.py`` re-exports what it imports, so it is exempt. An import line
marked ``# noqa: F401`` is exempt only when ``perfbench/tracer.py``'s
``SPECS`` patches that name in that module; a stray ``noqa``, or one left
behind after the tracer stops patching its name, fails the check.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "camloc").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_held(monkeypatch):
    """{module file name: the names the tracer patches in that module}."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracer)
    held = {}
    for attr, _, _, modules in tracer.SPECS:
        for module in modules:
            held.setdefault(module.__name__.rpartition(".")[2] + ".py", set()).add(attr)
    return held


def unused_imports(source: str, held=frozenset()) -> list[str]:
    """Names bound by an import statement of ``source`` that the module never
    reads, except a name in ``held`` whose import line is marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in held or "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path, tracer_held):
    assert unused_imports(path.read_text(encoding="utf-8"), tracer_held.get(path.name, set())) == []


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom a.b import c as d, e\nprint(e)\n"
    assert unused_imports(source, held={"sys"}) == ["os (line 1)", "d (line 3)"]


def test_stray_noqa_is_an_unused_import():
    # the marker exempts only a name the tracer holds in that module
    source = "import os  # noqa: F401\nimport sys  # noqa: F401\n"
    assert unused_imports(source) == ["os (line 1)", "sys (line 2)"]
    assert unused_imports(source, held={"sys"}) == ["os (line 1)"]
