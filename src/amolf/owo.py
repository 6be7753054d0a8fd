"""Output weight optimization: the linear solve for output and bypass weights.

With linear output units, the optimal output-side weights for fixed hidden
weights solve a least-squares system built from the autocorrelation of the
augmented basis (inputs followed by hidden activations) and its
cross-correlation with the targets. Solving it exactly is equivalent to one
Newton step on the output weights, and never increases the training error.
The kernels take one forward pass, which carries its network and dataset;
the solve returns a pass of the solved network on the same activations,
which computes its outputs when they are first read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import SolveReport, pattern_sum, solve_sym
from .network import ForwardTrace


def augmented_basis(trace: ForwardTrace) -> np.ndarray:
    """Per-pattern basis [augmented inputs, hidden activations], fixing the
    column order used everywhere for correlation matrices and weight splits."""
    return np.hstack((trace.dataset.inputs, trace.activ))


@dataclass(frozen=True)
class Correlations:
    """Basis autocorrelation and basis/target cross-correlation, both
    carrying the 1/n_patterns factor, in ``augmented_basis`` column order."""

    r: np.ndarray  # (n_basis, n_basis), symmetric PSD
    c: np.ndarray  # (n_basis, n_outputs)


def accumulate_correlations(trace: ForwardTrace) -> Correlations:
    basis, nv = augmented_basis(trace), trace.dataset.n_patterns
    r, c = pattern_sum(basis, basis), pattern_sum(basis, trace.dataset.targets)
    return Correlations(r=r / nv, c=c / nv)


def solve_output_weights(corr: Correlations) -> SolveReport:
    """Least-squares output weights from the correlation system: one column
    per output, in basis order.

    Rank deficiency (collinear basis columns) is handled by pivot skipping
    and reported, not fatal: skipped columns get zero weight and the fitted
    outputs are unchanged.
    """
    return solve_sym(corr.r, corr.c)


def output_weight_step(trace: ForwardTrace) -> ForwardTrace:
    """Solve and install the output weights for the pass ``trace``. Only
    its network's output and bypass weights change; the returned pass
    shares the activations and computes its outputs as ``forward`` does,
    so it equals a fresh forward pass of its network bit for bit."""
    wo = solve_output_weights(accumulate_correlations(trace)).solution.T
    split = trace.dataset.n_inputs + 1
    return replace(trace, mlp=replace(trace.mlp, woi=wo[:, :split], woh=wo[:, split:]))
