"""The benchmark leans on names and shapes of the program.

``perfbench/tracer.py`` wraps functions where ``model``, ``metrics`` and
``cli`` hold them (``model.maxpool2d``, ``model.add``, ``metrics.forward``,
...). ``Tracer()`` raises when one of those names is missing or is not the
same object as its source, and every traced benchmark run would then fail.

``perfbench/workloads.py`` builds the ``eval_grid`` workload from
``fusion.STRATEGIES``, so a program change could reshape that workload, and
move its ms/sample, without a line of the benchmark changing. The checks
below pin its shape.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from camloc.fusion import FusionConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return load(monkeypatch, "tracer")


@pytest.fixture
def workloads(monkeypatch):
    return load(monkeypatch, "workloads")


def test_tracer_constructs_against_the_program(tracer):
    assert tracer.Tracer()._patches


def test_eval_grid_keys_are_unique(workloads):
    keys = [workloads._grid_key(*entry) for entry in workloads.GRID]
    assert len(keys) == len(set(keys)) == 7


def test_eval_grid_counts_one_sample_per_key_and_test_sample(workloads, tmp_path):
    workload = workloads.EvalGridWorkload(seed=11, workdir=tmp_path)
    distinct = {workloads._grid_key(*entry) for entry in workloads.GRID}
    assert workload.samples_per_round == len(distinct) * workload.test_samples


def test_tracer_names_the_single_readout(tracer):
    maps = np.zeros((2, 4, 4), dtype=np.float32)
    assert tracer._fusion_name((maps, maps, 0, FusionConfig("single")), {}) == "fusion.localization_map.single"
