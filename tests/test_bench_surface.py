"""The package surface that the benchmark in ``bench/`` drives.

The benchmark traces the functions named in ``bench/instrument.py``'s
``TRACED``, builds an ``ExperimentConfig`` for each workload in
``bench/workloads.py``, and reads fields of the states and results these
return. The bench files are only read here, never changed, so a change to
amolf's names, config fields or state fields that would break a benchmark
run fails this test instead.
"""

import dataclasses
import importlib
import importlib.util
import math
import os
import sys

import numpy as np

import amolf
import amolf.experiment
import amolf.trainers
from amolf import (
    ExperimentConfig,
    gen_matrix_inversion,
    init_net_control,
    init_state,
    normalize_zero_mean,
    run_kfold,
    run_training,
    solve_output_weights,
)

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
        assert isinstance(config.search_period, int)


def test_one_iteration_has_the_fields_the_bench_reads(monkeypatch):
    # IterationRecorder reads each iteration's state; expected_ledger_total
    # reads the final state's dataset sizes and ledger total.
    instrument = _load("instrument", monkeypatch)
    for workload in _load("workloads", monkeypatch).WORKLOADS.values():
        config = ExperimentConfig(**workload.config_kwargs(0))
        data = normalize_zero_mean(gen_matrix_inversion(40, 0))
        state = init_state(
            config.algorithm,
            init_net_control(data, 3, 0),
            data,
            search_period=config.search_period,
        )
        recorder = instrument.IterationRecorder(amolf.trainers)
        out = recorder(state)
        assert recorder.failed == 0
        assert out.iteration == 1
        assert out.algorithm == workload.algorithm
        assert math.isfinite(out.last_error)
        d = out.dataset
        assert (d.n_inputs, d.n_outputs, d.n_patterns) == (4, 4, 40)
        assert out.ledger.total() > 0
        assert out.lm_lambda > 0.0 and isinstance(out.lm_stalled, bool)
        if workload.algorithm == "amolf":
            assert recorder.trials[0].n_groups == [out.amolf.n_groups]


def test_run_loops_call_the_recorded_iterate_once_per_iteration(monkeypatch):
    # The bench records iterations by replacing amolf.experiment.iterate
    # with an IterationRecorder. A run loop that stepped its trainer any
    # other way would record no iterations, and every bench run would fail
    # its gates.
    recorder = _load("instrument", monkeypatch).IterationRecorder(amolf.trainers)
    monkeypatch.setattr(amolf.experiment, "iterate", recorder)
    data = gen_matrix_inversion(60, 0)

    run_training(data, ExperimentConfig("owo-bp", n_hidden=3, iterations=4, n_trials=2))
    trials = recorder.reset()
    assert [len(log.durations_ns) for log in trials] == [4, 4]
    assert [log.final_state.iteration for log in trials] == [4, 4]

    # patience above the iteration cap: every round runs every iteration.
    run_kfold(
        data, ExperimentConfig("owo-bp", n_hidden=3, iterations=3, k_folds=4, patience=5)
    )
    rounds = recorder.reset()
    assert [len(log.durations_ns) for log in rounds] == [3, 3, 3, 3]
    assert [log.final_state.iteration for log in rounds] == [3, 3, 3, 3]
    assert (recorder.attempted, recorder.failed) == (8 + 12, 0)


def test_bench_ledger_gate_matches_the_trainers(monkeypatch):
    # run.py's gate re-derives each trial's multiply count from the cost
    # formulas and amolf's search schedule. 51 amolf iterations include the
    # searches at iterations 1 and 50.
    for name in ("instrument", "workloads"):
        # run.py imports its siblings by these names, as from bench/.
        monkeypatch.setitem(sys.modules, name, _load(name, monkeypatch))
    run = _load("run", monkeypatch)
    # Bench installs its recorder as amolf.experiment.iterate.
    monkeypatch.setattr(amolf.experiment, "iterate", amolf.experiment.iterate)
    for workload in run.WORKLOADS.values():
        small = dataclasses.replace(
            workload,
            n_patterns=40,
            n_hidden=3,
            iterations=51 if workload.algorithm == "amolf" else 3,
            instances=1,
        )
        bench = run.Bench(np, amolf, small, 0)
        call = bench.call(0)
        assert call.result is not None and call.trials
        for trial in call.trials:
            total = trial.final_state.ledger.total()
            assert run.expected_ledger_total(bench, trial, 0) == total


def test_output_solve_reports_rank_deficiency_as_a_bool():
    report = solve_output_weights(np.eye(2), np.ones((2, 1)))
    assert type(report.rank_deficient) is bool


def test_every_exported_name_resolves():
    assert [name for name in amolf.__all__ if not hasattr(amolf, name)] == []

