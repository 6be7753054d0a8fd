import numpy as np
import pytest

from amolf import cost
from amolf.dataset import gen_matrix_inversion, kfold_split, normalize_zero_mean
from amolf.experiment import (
    ExperimentConfig,
    emit_curve,
    emit_kfold,
    run_kfold,
    run_training,
    trial_seed,
)
from amolf.network import init_net_control
from amolf.trainers import init_state, iterate
from support import read_curve


def _config(**kwargs):
    defaults = dict(algorithm="owo-molf", n_hidden=4, iterations=3, n_trials=2, seed=0)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_single_trial_single_iteration():
    d = gen_matrix_inversion(80, 0)
    curve = run_training(d, _config(iterations=1, n_trials=1))
    assert len(curve.iterations) == 1
    assert curve.iterations[0] == 1
    assert curve.cum_multiplies[0] > 0


def test_run_training_deterministic():
    d = gen_matrix_inversion(80, 0)
    a = run_training(d, _config())
    b = run_training(d, _config())
    assert np.array_equal(a.mean_mse, b.mean_mse)
    assert np.array_equal(a.cum_multiplies, b.cum_multiplies)


def test_curve_is_mean_over_trials_any_order():
    d = gen_matrix_inversion(100, 1)
    config = _config(n_trials=3, iterations=4)
    curve = run_training(d, config)
    data = normalize_zero_mean(d)
    per_trial = []
    for trial in range(3):
        mlp = init_net_control(data, 4, trial_seed(config.seed, trial))
        state = init_state("owo-molf", mlp, data)
        errs = []
        for _ in range(4):
            state = iterate(state)
            errs.append(state.last_error)
        per_trial.append(errs)
    stacked = np.array(per_trial)
    assert np.abs(curve.mean_mse - stacked.mean(axis=0)).max() <= 1e-12
    assert np.abs(curve.mean_mse - stacked[::-1].mean(axis=0)).max() <= 1e-12


def test_cumulative_multiplies_formula_for_constant_cost_trainer():
    d = gen_matrix_inversion(80, 2)
    config = _config(algorithm="owo-molf", iterations=5, n_trials=2)
    curve = run_training(d, config)
    per_iter = cost.mult_owo_molf(4, 4, 4, 80)
    expected = per_iter * np.arange(1, 6)
    assert np.array_equal(curve.cum_multiplies, expected.astype(float))
    assert np.all(np.diff(curve.cum_multiplies) > 0)


def test_amolf_cumulative_multiplies_reconstruct_from_group_counts():
    d = gen_matrix_inversion(120, 3)
    config = _config(algorithm="amolf", iterations=6, n_trials=1, search_period=4)
    curve = run_training(d, config)
    data = normalize_zero_mean(d)
    state = init_state("amolf", init_net_control(data, 4, trial_seed(0, 0)), data, search_period=4)
    expected = []
    total = 0
    for it in range(1, 7):
        state = iterate(state)
        ng = state.amolf.n_groups
        total += cost.mult_amolf(4, 4, 4, 120, ng)
        if it == 1 or it % 4 == 0:
            total += cost.mult_amolf_search(4, 4, 4, 120)
        expected.append(total)
    assert np.array_equal(curve.cum_multiplies, np.array(expected, dtype=float))


def test_tanh_activation_trains():
    d = gen_matrix_inversion(300, 7)
    curve = run_training(
        d,
        _config(algorithm="amolf", n_hidden=8, iterations=20, n_trials=2, activation="tanh"),
    )
    assert curve.mean_mse[-1] < 0.5 * curve.mean_mse[0]


def test_kfold_round_sizes():
    d = gen_matrix_inversion(2000, 0)
    plan = kfold_split(d, 10, 0)
    for r in range(1, 11):
        assert len(plan.split(r)[0]) == 1600


def test_kfold_report_has_one_entry_per_round():
    d = gen_matrix_inversion(200, 4)
    report = run_kfold(d, _config(iterations=5, k_folds=5))
    assert len(report.train_errors) == 5
    assert len(report.test_errors) == 5
    assert report.mean_test_error == pytest.approx(float(np.mean(report.test_errors)))
    assert min(report.train_errors) >= 0.0


def test_kfold_deterministic():
    d = gen_matrix_inversion(150, 5)
    a = run_kfold(d, _config(iterations=4, k_folds=4))
    b = run_kfold(d, _config(iterations=4, k_folds=4))
    assert a.train_errors == b.train_errors
    assert a.test_errors == b.test_errors


def test_kfold_amolf_matrix_inversion_generalizes():
    d = gen_matrix_inversion(2000, 0)
    config = ExperimentConfig(
        algorithm="amolf", n_hidden=30, iterations=100, k_folds=10, seed=0
    )
    report = run_kfold(d, config)
    assert report.mean_test_error <= 0.01


def test_kfold_test_patterns_unseen_in_training():
    d = gen_matrix_inversion(90, 6)
    plan = kfold_split(d, 5, 6)
    for r in range(1, 6):
        train, val, test = (set(idx) for idx in plan.split(r))
        assert not test & train
        assert not test & val


def test_emit_curve_single_record(tmp_path):
    d = gen_matrix_inversion(60, 0)
    curve = run_training(d, _config(iterations=1, n_trials=1))
    path = tmp_path / "curve.csv"
    emit_curve(curve, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "iteration,mean_mse,cum_multiplies"


def test_emit_curve_round_trip_exact(tmp_path):
    d = gen_matrix_inversion(60, 1)
    curve = run_training(d, _config(iterations=4, n_trials=2))
    path = tmp_path / "curve.csv"
    emit_curve(curve, str(path))
    back = read_curve(str(path))
    assert np.array_equal(back.iterations, curve.iterations)
    assert np.array_equal(back.mean_mse, curve.mean_mse)
    assert np.array_equal(back.cum_multiplies, curve.cum_multiplies)


def test_emit_curve_iterations_ascend_from_one(tmp_path):
    d = gen_matrix_inversion(60, 2)
    curve = run_training(d, _config(iterations=5, n_trials=1))
    assert np.array_equal(curve.iterations, np.arange(1, 6))


def test_emit_kfold_layout(tmp_path):
    d = gen_matrix_inversion(100, 3)
    report = run_kfold(d, _config(iterations=3, k_folds=4))
    path = tmp_path / "kfold.csv"
    emit_kfold(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "round,train_mse,test_mse"
    assert len(lines) == 6  # header + 4 rounds + mean
    assert lines[-1].startswith("mean,")


def test_config_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(algorithm="sgd", n_hidden=3, iterations=1)
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="cg", n_hidden=3, iterations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="cg", n_hidden=3, iterations=1, n_trials=0)
    with pytest.raises(ValueError, match="search_period"):
        ExperimentConfig(algorithm="amolf", n_hidden=3, iterations=1, search_period=-1)
    ExperimentConfig(algorithm="amolf", n_hidden=3, iterations=1, search_period=0)
