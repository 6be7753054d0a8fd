"""Output weight optimization: the linear solve for output and bypass weights.

With linear output units, the optimal output-side weights for fixed hidden
weights solve a least-squares system built from the autocorrelation of the
augmented basis (inputs followed by hidden activations) and its
cross-correlation with the targets. Solving it exactly is equivalent to one
Newton step on the output weights, and never increases the training error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .linalg import solve_sym
from .network import ForwardTrace, Mlp, linear_output


def augmented_basis(dataset: Dataset, trace: ForwardTrace) -> np.ndarray:
    """Per-pattern basis [augmented inputs, hidden activations], fixing the
    column order used everywhere for correlation matrices and weight splits."""
    return np.hstack((dataset.inputs, trace.activ))


@dataclass(frozen=True)
class Correlations:
    """Basis autocorrelation and basis/target cross-correlation.

    Both carry the 1/n_patterns factor. ``n_inputs`` records where the
    augmented-input columns end and the activation columns begin.
    """

    r: np.ndarray  # (n_basis, n_basis), symmetric PSD
    c: np.ndarray  # (n_basis, n_outputs)
    n_inputs: int


def accumulate_correlations(dataset: Dataset, trace: ForwardTrace) -> Correlations:
    basis = augmented_basis(dataset, trace)
    nv = dataset.n_patterns
    return Correlations(
        r=basis.T @ basis / nv,
        c=basis.T @ dataset.targets / nv,
        n_inputs=dataset.n_inputs,
    )


@dataclass(frozen=True)
class OwoSolution:
    """Solved output-side weights, split back into bypass and hidden parts."""

    wo: np.ndarray  # (n_outputs, n_basis)
    woi: np.ndarray  # (n_outputs, n_inputs + 1)
    woh: np.ndarray  # (n_outputs, n_hidden)
    rank_deficient: bool


def solve_output_weights(corr: Correlations) -> OwoSolution:
    """Least-squares output weights from the correlation system.

    Rank deficiency (collinear basis columns) is handled by pivot skipping
    and reported, not fatal: skipped columns get zero weight and the fitted
    outputs are unchanged.
    """
    report = solve_sym(corr.r, corr.c)
    wo = report.solution.T
    split = corr.n_inputs + 1
    return OwoSolution(
        wo=wo,
        woi=wo[:, :split],
        woh=wo[:, split:],
        rank_deficient=report.rank_deficient,
    )


def install_output_weights(mlp: Mlp, solution: OwoSolution) -> Mlp:
    return replace(mlp, woh=solution.woh, woi=solution.woi)


def output_weight_step(
    mlp: Mlp, dataset: Dataset, trace: ForwardTrace
) -> tuple[Mlp, ForwardTrace]:
    """Solve and install the output weights for ``trace``, a forward pass of
    ``mlp``. Only the outputs of the trace change, computed as ``forward``
    computes them, so the returned trace equals a fresh forward pass of the
    returned network bit for bit."""
    mlp = install_output_weights(
        mlp, solve_output_weights(accumulate_correlations(dataset, trace))
    )
    return mlp, replace(trace, output=linear_output(mlp, dataset, trace.activ))
