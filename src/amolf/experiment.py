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

from .dataset import Dataset, kfold_split, normalize_zero_mean, take
from .network import Mlp, init_net_control, mse
from .trainers import ALGORITHMS, DEFAULT_SEARCH_PERIOD, init_state, iterate

DEFAULT_PATIENCE = 20
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
    patience: int = DEFAULT_PATIENCE

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if self.search_period < 0:
            raise ValueError("search_period must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class TrainingCurve:
    """Per-iteration record of mean error and mean cumulative multiplies,
    with each trial's final network."""

    iterations: np.ndarray  # (n_iterations,) 1-based
    mean_mse: np.ndarray
    cum_multiplies: np.ndarray
    final_models: tuple[Mlp, ...] = ()


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


def run_training(dataset: Dataset, config: ExperimentConfig) -> TrainingCurve:
    """Normalize, train ``n_trials`` independent nets, average per iteration."""
    data = normalize_zero_mean(dataset)
    errors = np.empty((config.n_trials, config.iterations))
    multiplies = np.empty((config.n_trials, config.iterations))
    final_models = []
    for trial in range(config.n_trials):
        mlp = init_net_control(
            data, config.n_hidden, trial_seed(config.seed, trial), config.activation
        )
        state = init_state(config.algorithm, mlp, data, search_period=config.search_period)
        for it in range(config.iterations):
            state = iterate(state)
            errors[trial, it] = state.last_error
        multiplies[trial] = state.ledger.cumulative()
        final_models.append(state.mlp)
    return TrainingCurve(
        iterations=np.arange(1, config.iterations + 1),
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
    model's; its training error is the trainer's own ``last_error``.
    """
    data = normalize_zero_mean(dataset)
    plan = kfold_split(data, config.k_folds, config.seed)
    train_errors: list[float] = []
    test_errors: list[float] = []
    for round_index in range(1, config.k_folds + 1):
        train_data, val_data, test_data = (
            take(data, idx) for idx in plan.split(round_index)
        )
        mlp = init_net_control(
            train_data,
            config.n_hidden,
            trial_seed(config.seed, round_index - 1),
            config.activation,
        )
        state = init_state(
            config.algorithm, mlp, train_data, search_period=config.search_period
        )
        best_val = np.inf
        best = state
        stall = 0
        for _ in range(config.iterations):
            state = iterate(state)
            val_error = mse(state.mlp, val_data)
            if val_error <= best_val * (1.0 - MIN_IMPROVEMENT):
                best_val = val_error
                best = state
                stall = 0
            else:
                stall += 1
                if stall >= config.patience:
                    break
        train_errors.append(best.last_error)
        test_errors.append(mse(best.mlp, test_data))
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
