"""Experiment harness: averaged training curves and k-fold evaluation.

Training curves average the per-iteration error over several independent
trials that differ only in the initial network (trial i derives its seed as
``seed XOR i``); the attached multiply counts come from the closed-form
cost model, cumulated per iteration and averaged over trials. The k-fold
protocol trains on k-2 folds, early-stops on a validation fold, and reports
the test-fold error of the best-validation model, averaged over k rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FOLD_ROLES, Dataset, kfold_split, normalize_zero_mean, take
from .linalg import check_count
from .network import ACTIVATIONS, Mlp, init_net_control, mse
from .trainers import (
    DEFAULT_SEARCH_PERIOD,
    TrainerState,
    check_error,
    check_run_settings,
    init_state,
    iterate,
)

MIN_IMPROVEMENT = 1e-6  # relative validation-error improvement


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    n_hidden: int
    iterations: int
    n_trials: int = 10
    k_folds: int = 10
    seed: int = 0
    activation: str = "sigmoid"
    search_period: int = DEFAULT_SEARCH_PERIOD
    patience: int = 20

    def __post_init__(self) -> None:
        check_run_settings(self.algorithm, self.search_period)
        for name in ("iterations", "n_trials", "n_hidden", "patience"):
            check_count(getattr(self, name), name, 1)
        check_count(self.k_folds, "k_folds", 3, FOLD_ROLES)
        check_count(self.seed, "seed", 0)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class TrainingCurve:
    """Per-iteration record of mean error and mean cumulative multiplies,
    with each trial's final network."""

    mean_mse: np.ndarray
    cum_multiplies: np.ndarray
    final_models: tuple[Mlp, ...] = ()

    @property
    def iterations(self) -> np.ndarray:
        """The 1-based iteration numbers, one per entry of ``mean_mse``."""
        return np.arange(1, len(self.mean_mse) + 1)


@dataclass(frozen=True)
class KfoldReport:
    """Training/test errors of the best-validation model, one per round."""

    train_errors: tuple[float, ...]
    test_errors: tuple[float, ...]

    @property
    def mean_train_error(self) -> float:
        return float(np.mean(self.train_errors))

    @property
    def mean_test_error(self) -> float:
        return float(np.mean(self.test_errors))


def trial_seed(seed: int, index: int) -> int:
    """Seed for trial or round ``index`` (0-based), split from the base seed."""
    return seed ^ index


def _drop_pass(state: TrainerState | None) -> None:
    """Free the forward pass ``state`` holds for its next ``iterate``."""
    if state is not None:
        state._trace = None


def _start(
    data: Dataset, config: ExperimentConfig, index: int, last: TrainerState | None
) -> TrainerState:
    """Initial state of trial or round ``index`` (0-based) on ``data``, after
    ``last``, the state the previous one ended in, if any."""
    mlp = init_net_control(
        data, config.n_hidden, trial_seed(config.seed, index), config.activation
    )
    # The last trial's pass is freed here, after this one's data and network
    # are allocated, and no earlier: freed at the end of each k-fold round
    # instead, its pages go back to the system and the next round faults them
    # in again (owo-bp run_kfold, 20,000 patterns, nh=10, k=10, 50 iterations,
    # one BLAS thread: same bits, minor faults 48,018-49,746 -> 124,664-125,848
    # a run, system time 0.05-0.10 -> 0.15-0.27 s).
    _drop_pass(last)
    return init_state(config.algorithm, mlp, data, search_period=config.search_period)


def run_training(dataset: Dataset, config: ExperimentConfig) -> TrainingCurve:
    """Normalize, train ``n_trials`` independent nets, average per iteration."""
    data = normalize_zero_mean(dataset)
    errors = np.empty((config.n_trials, config.iterations))
    multiplies = np.empty((config.n_trials, config.iterations))
    final_models = []
    state = None
    try:
        for trial in range(config.n_trials):
            state = _start(data, config, trial, state)
            for it in range(config.iterations):
                state = iterate(state)
                errors[trial, it] = state.last_error
            multiplies[trial] = state.ledger.cumulative()
            final_models.append(state.mlp)
    finally:
        _drop_pass(state)
    return TrainingCurve(
        mean_mse=errors.mean(axis=0),
        cum_multiplies=multiplies.mean(axis=0),
        final_models=tuple(final_models),
    )


def run_kfold(dataset: Dataset, config: ExperimentConfig) -> KfoldReport:
    """k rounds of train / validation-early-stop / test.

    An iteration improves when the validation error drops by at least
    ``MIN_IMPROVEMENT`` relative to the best seen; after ``patience``
    consecutive non-improving iterations training stops, capped at
    ``config.iterations``. The reported errors are the best-validation
    model's; its training error is the trainer's own ``last_error``. A
    validation or test error that is NaN or infinite stops the run with a
    ``ValueError`` that names the round.
    """
    data = normalize_zero_mean(dataset)
    plan = kfold_split(data, config.k_folds, config.seed)
    train_errors: list[float] = []
    test_errors: list[float] = []
    state = None
    try:
        for round_index in range(1, config.k_folds + 1):
            train_data, val_data, test_data = (
                take(data, idx) for idx in plan.split(round_index)
            )
            state = _start(train_data, config, round_index - 1, state)
            best_val = np.inf
            best = state
            stall = 0
            for _ in range(config.iterations):
                state = iterate(state)
                # A NaN would count as no improvement, so it is refused.
                val_error = check_error(
                    mse(state.mlp, val_data), f"k-fold round {round_index}: the validation error"
                )
                if val_error <= best_val * (1.0 - MIN_IMPROVEMENT):
                    best_val = val_error
                    best = state
                    stall = 0
                else:
                    stall += 1
                    if stall >= config.patience:
                        break
            train_errors.append(best.last_error)
            test_errors.append(
                check_error(mse(best.mlp, test_data), f"k-fold round {round_index}: the test error")
            )
    finally:
        _drop_pass(state)
    return KfoldReport(
        train_errors=tuple(train_errors),
        test_errors=tuple(test_errors),
    )


def emit_curve(curve: TrainingCurve, path: str) -> None:
    """Write a training curve as CSV with full-precision decimals.

    Values are printed with 17 significant digits, so parsing them back
    recovers the exact floats.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,mean_mse,cum_multiplies\n")
        for it, err, mult in zip(curve.iterations, curve.mean_mse, curve.cum_multiplies):
            fh.write(f"{it},{err:.16e},{mult:.16e}\n")


def emit_kfold(report: KfoldReport, path: str) -> None:
    """Write per-round k-fold errors plus the means as CSV."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("round,train_mse,test_mse\n")
        for i, (etrn, etst) in enumerate(zip(report.train_errors, report.test_errors), 1):
            fh.write(f"{i},{etrn:.16e},{etst:.16e}\n")
        fh.write(f"mean,{report.mean_train_error:.16e},{report.mean_test_error:.16e}\n")
