import os
import threading
import weakref

import numpy as np
import pytest

import amolf.experiment
import amolf.network
import amolf.trainers
from amolf import cost
from amolf.dataset import gen_matrix_inversion, kfold_split, normalize_zero_mean, take
from amolf.experiment import (
    MIN_IMPROVEMENT,
    ExperimentConfig,
    emit_curve,
    emit_kfold,
    run_kfold,
    run_training,
    trial_seed,
)
from amolf.network import init_net_control
from amolf.trainers import ALGORITHMS, DEFAULT_SEARCH_PERIOD, init_state, iterate
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


def test_config_refuses_an_unknown_activation():
    with pytest.raises(ValueError, match=r"^unknown activation 'relu'$"):
        ExperimentConfig(algorithm="owo-bp", n_hidden=3, iterations=2, activation="relu")
    data = normalize_zero_mean(gen_matrix_inversion(40, 0))
    with pytest.raises(ValueError, match=r"^unknown activation 'relu'$"):
        init_net_control(data, 3, 0, "relu")
    for activation in ("sigmoid", "tanh", "linear"):
        ExperimentConfig(algorithm="owo-bp", n_hidden=3, iterations=2, activation=activation)


@pytest.mark.parametrize("k_folds", [2, 1, 0, -3])
def test_config_refuses_fewer_than_three_folds(k_folds):
    with pytest.raises(
        ValueError,
        match=rf"^k_folds must be >= 3 \(train, validation, and test roles\), got {k_folds}$",
    ):
        ExperimentConfig(algorithm="owo-bp", n_hidden=3, iterations=2, k_folds=k_folds)
    ExperimentConfig(algorithm="owo-bp", n_hidden=3, iterations=2, k_folds=3)


@pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a != "amolf"])
def test_config_rejects_a_search_period_outside_amolf(algo):
    with pytest.raises(ValueError, match=rf"^search_period is for amolf only, not {algo}$"):
        ExperimentConfig(algorithm=algo, n_hidden=3, iterations=1, search_period=0)
    ExperimentConfig(algorithm=algo, n_hidden=3, iterations=1, search_period=DEFAULT_SEARCH_PERIOD)


@pytest.mark.parametrize(
    "algo, period", [("sgd", DEFAULT_SEARCH_PERIOD), ("amolf", -1), ("lm", 0)]
)
def test_config_and_init_state_refuse_run_settings_alike(algo, period):
    data = normalize_zero_mean(gen_matrix_inversion(40, 0))
    mlp = init_net_control(data, 3, trial_seed(0, 0))
    with pytest.raises(ValueError) as config_error:
        ExperimentConfig(algorithm=algo, n_hidden=3, iterations=1, search_period=period)
    with pytest.raises(ValueError) as state_error:
        init_state(algo, mlp, data, search_period=period)
    assert str(config_error.value) == str(state_error.value)


def _weight_bits(mlp):
    return mlp.w.tobytes(), mlp.woh.tobytes(), mlp.woi.tobytes()


def _curve_bits(curve):
    weights = tuple(_weight_bits(mlp) for mlp in curve.final_models)
    return curve.mean_mse.tobytes(), curve.cum_multiplies.tobytes(), weights


def _state_bits(states):
    return [(s.ledger.per_iteration, s.last_error, _weight_bits(s.mlp)) for s in states]


def _run_bits(dataset, algo, step=iterate):
    """Bits of a training curve with its final weights, of a k-fold report,
    and of one trial's states (ledger, error, weights) with a branch taken
    from an earlier state, the trial stepped with ``step``."""
    period = {"search_period": 2} if algo == "amolf" else {}
    config = _config(algorithm=algo, iterations=6, k_folds=5, **period)
    data = normalize_zero_mean(dataset)
    state = init_state(algo, init_net_control(data, 4, 0), data, **period)
    states = [state]
    for _ in range(5):
        states.append(step(states[-1]))
    states.append(step(states[2]))
    report = run_kfold(dataset, config)
    return (
        _curve_bits(run_training(dataset, config)),
        report.train_errors,
        report.test_errors,
        _state_bits(states),
    )


def _without_pass(state):
    """``iterate`` after emptying the pass ``state`` holds, so that it runs
    ``forward`` afresh."""
    state._trace = None
    return iterate(state)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_the_forward_pass_hand_off_changes_no_bit(algo, monkeypatch):
    dataset = gen_matrix_inversion(90, 4)
    passes = []
    counted = amolf.trainers.forward

    def counting_forward(mlp, data):
        passes.append(1)
        return counted(mlp, data)

    monkeypatch.setattr(amolf.trainers, "forward", counting_forward)
    handed_off = _run_bits(dataset, algo)
    handed_off_passes = len(passes)
    passes.clear()
    monkeypatch.setattr(amolf.experiment, "iterate", _without_pass)
    assert _run_bits(dataset, algo, _without_pass) == handed_off
    assert handed_off_passes < len(passes)


def test_runs_stepped_alternately_or_in_threads_keep_their_own_passes(monkeypatch):
    # Each run reuses its own pass, so it runs as many forward passes as it
    # does alone, with the same bits. With one pass shared between runs,
    # alternated runs took each other's and missed on every iteration.
    dataset = gen_matrix_inversion(200, 5)
    configs = (
        _config(algorithm="owo-bp", iterations=10),
        _config(algorithm="amolf", iterations=10, search_period=3, seed=1),
    )
    data = normalize_zero_mean(dataset)
    calling = threading.local()  # the index of the run a thread steps
    passes = ([], [])
    counted = amolf.trainers.forward

    def counting_forward(mlp, data):
        passes[calling.run].append(1)
        return counted(mlp, data)

    def counts():
        counted_passes = [len(p) for p in passes]
        for p in passes:
            p.clear()
        return counted_passes

    monkeypatch.setattr(amolf.trainers, "forward", counting_forward)

    def start(run):
        calling.run = run
        c = configs[run]
        mlp = init_net_control(data, c.n_hidden, c.seed)
        return [init_state(c.algorithm, mlp, data, search_period=c.search_period)]

    def step(run, states):
        calling.run = run
        states.append(iterate(states[-1]))

    lone = []
    for run in range(2):
        lone.append(start(run))
        for _ in range(10):
            step(run, lone[-1])
    lone_bits, lone_passes = [_state_bits(states) for states in lone], counts()
    assert lone_passes[0] == 1 + 10  # owo-bp runs one pass an iteration
    alternated = [start(0), start(1)]
    for _ in range(10):
        for run in range(2):
            step(run, alternated[run])
    assert [_state_bits(states) for states in alternated] == lone_bits
    assert counts() == lone_passes

    def train(run, results):
        calling.run = run
        results[run] = _curve_bits(run_training(dataset, configs[run]))

    sequential = [None, None]
    for run in range(2):
        train(run, sequential)
    sequential_passes = counts()
    assert sequential_passes[0] == 2 * (1 + 10)  # two trials
    lockstep = threading.Barrier(2, timeout=60)

    def iterate_in_lockstep(state):
        lockstep.wait()
        return iterate(state)

    monkeypatch.setattr(amolf.experiment, "iterate", iterate_in_lockstep)
    threaded = [None, None]
    threads = [threading.Thread(target=train, args=(run, threaded)) for run in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == sequential
    assert counts() == sequential_passes


def _keeping_states(monkeypatch):
    """Every state that ``amolf.experiment.iterate`` is given or returns,
    from now on."""
    states = []

    def keeping_iterate(state):
        states.extend((state, iterate(state)))
        return states[-1]

    monkeypatch.setattr(amolf.experiment, "iterate", keeping_iterate)
    return states


@pytest.mark.parametrize("run", [run_training, run_kfold])
def test_no_state_of_a_run_holds_a_pass_when_it_returns(run, monkeypatch):
    # A pass holds its network, dataset and per-pattern arrays alive, and a
    # caller may keep every trial's final state.
    states = _keeping_states(monkeypatch)
    run(gen_matrix_inversion(90, 4), _config(k_folds=3))
    assert states
    assert all(state._trace is None for state in states)


@pytest.mark.parametrize("run", [run_training, run_kfold])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_trials_last_pass_lives_through_the_next_network_and_no_further(
    algo, run, monkeypatch
):
    # The last pass of a trial or k-fold round is freed after the next one's
    # network is drawn and before its first forward pass. Freed at the end
    # of a round instead, its pages went back to the system and the next
    # round faulted them in again.
    made = []  # a weak reference to every pass made
    newest = [lambda: None]  # a weak reference to the newest state's pass
    events = []  # (where, whether the last trial's pass is alive)
    first_pass_due = []
    init, net, forward, step = (
        amolf.network.ForwardTrace.__init__,
        amolf.experiment.init_net_control,
        amolf.trainers.forward,
        amolf.experiment.iterate,
    )

    def recording_init(trace, *args, **kwargs):
        init(trace, *args, **kwargs)
        made.append(weakref.ref(trace))

    def is_pass_of(ref, state):
        trace = ref()
        return trace is not None and trace.mlp is state.mlp and trace.dataset is state.dataset

    def recording_iterate(state):
        state = step(state)
        (newest[0],) = [ref for ref in made if is_pass_of(ref, state)]
        return state

    def checking_net(*args, **kwargs):
        events.append(("net drawn", newest[0]() is not None))
        mlp = net(*args, **kwargs)
        events.append(("net returned", newest[0]() is not None))
        first_pass_due.append(1)
        return mlp

    def checking_forward(mlp, data):
        if first_pass_due:
            first_pass_due.clear()
            events.append(("first pass", newest[0]() is not None))
        return forward(mlp, data)

    monkeypatch.setattr(amolf.network.ForwardTrace, "__init__", recording_init)
    monkeypatch.setattr(amolf.experiment, "iterate", recording_iterate)
    monkeypatch.setattr(amolf.experiment, "init_net_control", checking_net)
    monkeypatch.setattr(amolf.trainers, "forward", checking_forward)
    period = {"search_period": 2} if algo == "amolf" else {}
    run(gen_matrix_inversion(90, 4), _config(algorithm=algo, n_trials=3, k_folds=3, **period))
    first = [("net drawn", False), ("net returned", False), ("first pass", False)]
    later = [("net drawn", True), ("net returned", True), ("first pass", False)]
    assert events == first + 2 * later
    assert newest[0]() is None


def _scripted_kfold(monkeypatch, script, **config):
    """A 3-fold owo-molf ``run_kfold`` whose validation error at iteration
    i of every round is ``script[i - 1]`` (its last entry after its end).
    Returns the states each round's iterations made, each round's tested
    network and its true test error, and the report."""
    rounds = [[]]
    tested = []
    pending = []  # a validation error is due
    mse = amolf.experiment.mse

    def counting_iterate(state):
        rounds[-1].append(iterate(state))
        pending.append(1)
        return rounds[-1][-1]

    def scripted_mse(mlp, data):
        if pending:
            pending.clear()
            return script[min(len(rounds[-1]), len(script)) - 1]
        tested.append((mlp, mse(mlp, data)))
        rounds.append([])
        return tested[-1][1]

    monkeypatch.setattr(amolf.experiment, "iterate", counting_iterate)
    monkeypatch.setattr(amolf.experiment, "mse", scripted_mse)
    report = run_kfold(gen_matrix_inversion(90, 4), _config(k_folds=3, **config))
    assert rounds.pop() == []
    return rounds, tested, report


def _assert_kfold_reports(rounds, tested, report, stop, best):
    """Every round ran ``stop`` iterations and reported the training and test
    errors of the state after iteration ``best``."""
    assert [len(states) for states in rounds] == [stop] * 3
    for states, (mlp, test_error), train_error, reported_test in zip(
        rounds, tested, report.train_errors, report.test_errors
    ):
        assert mlp is states[best - 1].mlp
        assert train_error == states[best - 1].last_error
        assert reported_test == test_error


def test_kfold_stops_after_patience_and_reports_the_best_validation_state(monkeypatch):
    # Each round's validation errors are scripted: iteration 3 improves on
    # iteration 2 by twice MIN_IMPROVEMENT, iteration 4 on iteration 3 by
    # half of it, which is no improvement, and iterations 4-6 are the three
    # non-improving ones that patience=3 allows.
    best_val = 0.5 * (1.0 - 2 * MIN_IMPROVEMENT)
    script = [1.0, 0.5, best_val, best_val * (1.0 - MIN_IMPROVEMENT / 2), 2.0, best_val]
    rounds, tested, report = _scripted_kfold(monkeypatch, script, iterations=20, patience=3)
    _assert_kfold_reports(rounds, tested, report, stop=6, best=3)
    for states, train_error in zip(rounds, report.train_errors):
        assert train_error != states[-1].last_error


# The threshold 0.5 * (1 - 1e-6), computed as run_kfold computes it from a
# best validation error of 0.5, and the next float above it.
_AT_THRESHOLD = 0.5 * (1.0 - 1e-6)
_OVER_THRESHOLD = float(np.nextafter(_AT_THRESHOLD, 1.0))


@pytest.mark.parametrize(
    "script, patience, stop, best",
    [
        # Relative improvements of 1e-5, ten times the minimum, each count.
        ([1.0, 0.5, 0.5 * (1 - 1e-5), 0.5 * (1 - 1e-5) ** 2], 3, 7, 4),
        # An error exactly at the threshold improves; one ulp above does not.
        ([1.0, 0.5, _AT_THRESHOLD, _AT_THRESHOLD * (1 + 1e-7)], 2, 5, 3),
        ([1.0, 0.5, _OVER_THRESHOLD], 2, 4, 2),
        # An improvement resets the count of non-improving iterations.
        ([1.0, 1.0, 1.0, 0.5, 0.6], 3, 7, 4),
        # Always improving: the iteration cap ends the round.
        ([2.0**-i for i in range(1, 9)], 2, 8, 8),
    ],
    ids=["tenfold-the-minimum", "at-the-threshold", "one-ulp-over", "reset", "capped"],
)
def test_kfold_stopping_point_under_the_minimum_improvement_and_patience(
    script, patience, stop, best, monkeypatch
):
    # The minimum relative improvement is 1e-6 and is written out here, not
    # read from the module, so a change to it moves these stopping points.
    rounds, tested, report = _scripted_kfold(
        monkeypatch, script, iterations=8, patience=patience
    )
    _assert_kfold_reports(rounds, tested, report, stop=stop, best=best)


@pytest.mark.parametrize(
    "bad_call, kind, value, round_index",
    [(1, "validation", np.nan, 1), (4, "test", np.inf, 2), (3, "validation", -np.inf, 2)],
)
def test_kfold_refuses_a_non_finite_error_naming_its_round(
    bad_call, kind, value, round_index, monkeypatch
):
    # One iteration per round makes the validation error mse's odd calls
    # and the test error its even ones. Unchecked, a NaN validation error
    # counted as no improvement and a non-finite test error went into the
    # report.
    mse = amolf.experiment.mse
    calls = []

    def patched_mse(mlp, data):
        calls.append(1)
        return value if len(calls) == bad_call else mse(mlp, data)

    monkeypatch.setattr(amolf.experiment, "mse", patched_mse)
    states = _keeping_states(monkeypatch)
    with pytest.raises(
        ValueError, match=rf"^k-fold round {round_index}: the {kind} error is {value}, not finite$"
    ):
        run_kfold(gen_matrix_inversion(90, 4), _config(k_folds=3, iterations=1))
    assert states
    assert all(state._trace is None for state in states)


def test_kfold_validates_on_the_validation_fold_and_tests_on_the_test_fold(monkeypatch):
    # Every mse call is recorded with the bytes of the data it reads. Each
    # round's validation calls (one per iteration: the patience outlasts the
    # iterations) read the fold ``plan.split`` names for validation, and its
    # one test call the fold it names for testing.
    mse = amolf.experiment.mse
    calls = []

    def recording_mse(mlp, data):
        calls.append((data.inputs.tobytes(), data.targets.tobytes()))
        return mse(mlp, data)

    monkeypatch.setattr(amolf.experiment, "mse", recording_mse)
    dataset = gen_matrix_inversion(90, 4)
    config = _config(k_folds=3, iterations=4)
    run_kfold(dataset, config)
    data = normalize_zero_mean(dataset)
    plan = kfold_split(data, config.k_folds, config.seed)
    expected = []
    for round_index in range(1, config.k_folds + 1):
        _, validation, test = (
            (fold.inputs.tobytes(), fold.targets.tobytes())
            for fold in (take(data, idx) for idx in plan.split(round_index))
        )
        assert validation != test
        expected += [validation] * config.iterations + [test]
    assert calls == expected


def test_readme_library_use_runs_as_written():
    # README's "Library use" block, executed verbatim: it trains the
    # 10-trial amolf curve, steps one run by hand and calls the kernels.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    section = text[text.index("\n## Library use\n") :]
    block = section[section.index("```python\n") + len("```python\n") : section.index("\n```\n")]
    exec(compile(block, "README.md (Library use)", "exec"), {})
