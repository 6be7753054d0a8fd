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
from .linalg import SolveReport, pattern_sum, solve_sym
from .network import ForwardTrace, Mlp, linear_output


def augmented_basis(dataset: Dataset, trace: ForwardTrace) -> np.ndarray:
    """Per-pattern basis [augmented inputs, hidden activations], fixing the
    column order used everywhere for correlation matrices and weight splits."""
    return np.hstack((dataset.inputs, trace.activ))


@dataclass(frozen=True)
class Correlations:
    """Basis autocorrelation and basis/target cross-correlation, both
    carrying the 1/n_patterns factor, in ``augmented_basis`` column order."""

    r: np.ndarray  # (n_basis, n_basis), symmetric PSD
    c: np.ndarray  # (n_basis, n_outputs)


def accumulate_correlations(dataset: Dataset, trace: ForwardTrace) -> Correlations:
    basis, nv = augmented_basis(dataset, trace), dataset.n_patterns
    r, c = pattern_sum(basis, basis), pattern_sum(basis, dataset.targets)
    return Correlations(r=r / nv, c=c / nv)


def solve_output_weights(corr: Correlations) -> SolveReport:
    """Least-squares output weights from the correlation system: one column
    per output, in basis order.

    Rank deficiency (collinear basis columns) is handled by pivot skipping
    and reported, not fatal: skipped columns get zero weight and the fitted
    outputs are unchanged.
    """
    return solve_sym(corr.r, corr.c)


def output_weight_step(
    mlp: Mlp, dataset: Dataset, trace: ForwardTrace
) -> tuple[Mlp, ForwardTrace]:
    """Solve and install the output weights for ``trace``, a forward pass of
    ``mlp``. Only the outputs of the trace change, computed as ``forward``
    computes them, so the returned trace equals a fresh forward pass of the
    returned network bit for bit."""
    wo = solve_output_weights(accumulate_correlations(dataset, trace)).solution.T
    split = dataset.n_inputs + 1
    mlp = replace(mlp, woi=wo[:, :split], woh=wo[:, split:])
    return mlp, replace(trace, output=linear_output(mlp, dataset, trace.activ))
