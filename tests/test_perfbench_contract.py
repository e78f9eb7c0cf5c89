"""The benchmark's tracer patches names it imports from the program.

``perfbench/tracer.py`` wraps functions where ``model``, ``metrics`` and
``cli`` hold them (``model.maxpool2d``, ``model.add``, ``metrics.forward``,
...). ``Tracer()`` raises when one of those names is missing or is not the
same object as its source, and every traced benchmark run would then fail.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_constructs_against_the_program(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracer)
    assert tracer.Tracer()._patches
