"""The package surface that the benchmark in ``bench/`` drives.

The benchmark traces the functions named in ``bench/instrument.py``'s
``TRACED`` and builds an ``ExperimentConfig`` for each workload in
``bench/workloads.py``. Both files are only read here, never changed, so a
change to amolf's names or config fields that would break a benchmark run
fails this test instead.
"""

import importlib
import importlib.util
import os
import sys

from amolf import ExperimentConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name: str, monkeypatch):
    """Import ``bench/<name>.py`` without writing bytecode into ``bench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    traced = _load("instrument", monkeypatch).TRACED
    missing = [
        f"amolf.{module_name}.{fn_name}"
        for module_name, functions in traced.items()
        for fn_name in functions
        if not callable(
            getattr(importlib.import_module(f"amolf.{module_name}"), fn_name, None)
        )
    ]
    assert missing == []


def test_every_workload_config_builds(monkeypatch):
    workloads = _load("workloads", monkeypatch).WORKLOADS
    assert workloads
    for workload in workloads.values():
        config = ExperimentConfig(**workload.config_kwargs(0))
        assert config.algorithm == workload.algorithm

