"""Backpropagation gradients and Gauss-Newton curvature.

Sign convention: every gradient object here is a NEGATIVE gradient of the
mean squared error, so adding ``step * gradient`` with a small positive step
decreases the error. Hessians are Gauss-Newton (sums of output-Jacobian
outer products scaled by 2/n_patterns), hence symmetric positive
semi-definite by construction.

Input weights flatten row-major: weight (unit k, input n) maps to index
k * (n_inputs + 1) + n, and plain reshape inverts the map. The Hessian
builders return the matrix alone; its gradient comes from ``backprop``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .network import ForwardTrace, Mlp, activation_derivative

# OpenBLAS runs a GEMM of m·n·k at or under 2**18 multiplies on one thread
# (65536 times its default multithread threshold of 4); a larger product
# splits across threads, and how it splits changes its bits. The Gram is
# summed from column tiles over pattern chunks that stay at or under that
# size, in a fixed order, so its bits do not depend on the thread count.
GEMM_SINGLE_THREAD_SIZE = 2**18
GRAM_TILE = 64


@dataclass(frozen=True)
class GradientBundle:
    """Negative error gradients for all three weight matrices."""

    input_weights: np.ndarray  # (n_hidden, n_inputs + 1)
    output_weights: np.ndarray  # (n_outputs, n_hidden)
    bypass_weights: np.ndarray  # (n_outputs, n_inputs + 1)


def output_deltas(dataset: Dataset, trace: ForwardTrace) -> np.ndarray:
    """Per-pattern negative-gradient output deltas, 2 * (target - output)."""
    return 2.0 * (dataset.targets - trace.output)


def backprop(mlp: Mlp, dataset: Dataset, trace: ForwardTrace) -> GradientBundle:
    """Negative gradients of the MSE for all weights, averaged over patterns."""
    nv = dataset.n_patterns
    d_out = output_deltas(dataset, trace)
    d_hid = activation_derivative(mlp, trace) * (d_out @ mlp.woh)
    return GradientBundle(
        input_weights=d_hid.T @ dataset.inputs / nv,
        output_weights=d_out.T @ trace.activ / nv,
        bypass_weights=d_out.T @ dataset.inputs / nv,
    )


def gauss_newton_gram(mlp: Mlp, features: np.ndarray) -> np.ndarray:
    """Gauss-Newton Hessian over q unknowns per hidden unit, unit-major.

    ``features[p, k, c]`` is f'(net_k) times the change of unit k's net
    value along unknown (k, c) for pattern p. Entry ((k, c), (j, d)) is
    2/n_patterns times the pattern sum of features (k, c) and (j, d) times
    sum_i woh(i,k) woh(i,j); the matrix is exactly symmetric, and its bits
    do not depend on the BLAS thread count.
    """
    nv, nh, q = features.shape
    flat = features.reshape(nv, nh * q)
    gram = np.empty((nh * q, nh * q))
    for a in range(0, nh * q, GRAM_TILE):
        fa = flat[:, a : a + GRAM_TILE]
        for b in range(a, nh * q, GRAM_TILE):
            fb = flat[:, b : b + GRAM_TILE]
            chunk = GEMM_SINGLE_THREAD_SIZE // (fa.shape[1] * fb.shape[1])
            tile = fa[:chunk].T @ fb[:chunk]
            for p in range(chunk, nv, chunk):
                tile += fa[p : p + chunk].T @ fb[p : p + chunk]
            # numpy forms a diagonal tile (x.T @ x) with SYRK, already
            # symmetric; the mirror makes each off-diagonal pair match.
            gram[a : a + GRAM_TILE, b : b + GRAM_TILE] = tile
            gram[b : b + GRAM_TILE, a : a + GRAM_TILE] = tile.T
    gram = gram.reshape(nh, q, nh, q)
    s = mlp.woh.T @ mlp.woh
    return ((2.0 / nv) * gram * s[:, None, :, None]).reshape(nh * q, nh * q)


def gauss_newton_input_hessian(
    mlp: Mlp, dataset: Dataset, trace: ForwardTrace
) -> np.ndarray:
    """Gauss-Newton Hessian over the input weights, flattened row-major.

    Entry ((k, n), (j, m)) is 2/n_patterns times the pattern-and-output sum
    of products of output sensitivities woh(i,k) f'(net_k) x(n) and
    woh(i,j) f'(net_j) x(m): ``gauss_newton_gram`` of the features f'·x.
    """
    fprime = activation_derivative(mlp, trace)
    return gauss_newton_gram(mlp, fprime[:, :, None] * dataset.inputs[:, None, :])


def gn_curvature_along_input_direction(
    mlp: Mlp, dataset: Dataset, trace: ForwardTrace, direction: np.ndarray
) -> float:
    """Gauss-Newton second derivative of the error along an input-weight
    direction, i.e. the Hessian quadratic form evaluated without forming the
    Hessian."""
    u = (activation_derivative(mlp, trace) * (dataset.inputs @ direction.T)) @ mlp.woh.T
    return float(2.0 * (u * u).sum() / dataset.n_patterns)


def gn_curvature_along_direction(
    mlp: Mlp,
    dataset: Dataset,
    trace: ForwardTrace,
    d_w: np.ndarray,
    d_woh: np.ndarray,
    d_woi: np.ndarray,
) -> float:
    """Gauss-Newton quadratic form along a direction over all weights."""
    u = (
        dataset.inputs @ d_woi.T
        + trace.activ @ d_woh.T
        + (activation_derivative(mlp, trace) * (dataset.inputs @ d_w.T)) @ mlp.woh.T
    )
    return float(2.0 * (u * u).sum() / dataset.n_patterns)


def curvature_map(mlp: Mlp, dataset: Dataset, trace: ForwardTrace) -> np.ndarray:
    """Per-weight diagonal Gauss-Newton curvature of the input weights.

    Entry (k, n) is 2/n_patterns times the squared-output-weight sum for
    unit k times the pattern sum of f'(net_k)^2 x(n)^2; always >= 0. Equals
    the matching diagonal entry of the full input-weight Hessian.
    """
    nv = dataset.n_patterns
    fprime = activation_derivative(mlp, trace)
    weight_sq = (mlp.woh * mlp.woh).sum(axis=0)
    pattern_sums = (fprime * fprime).T @ (dataset.inputs * dataset.inputs)
    return (2.0 / nv) * weight_sq[:, None] * pattern_sums


def gauss_newton_full_hessian(
    mlp: Mlp, dataset: Dataset, trace: ForwardTrace
) -> np.ndarray:
    """Gauss-Newton Hessian over every weight, in the order of ``pack``.

    Built from the dense per-pattern output Jacobian, so memory is
    n_patterns * n_outputs * n_weights; meant for small networks.
    """
    nv, n1 = dataset.n_patterns, dataset.n_inputs + 1
    nh, m = mlp.n_hidden, mlp.n_outputs
    niw = nh * n1
    nw = niw + m * nh + m * n1
    fprime = activation_derivative(mlp, trace)
    jac = np.zeros((nv, m, nw))
    jac[:, :, :niw] = np.einsum(
        "ik,pk,pn->pikn", mlp.woh, fprime, dataset.inputs
    ).reshape(nv, m, niw)
    for i in range(m):
        jac[:, i, niw + i * nh : niw + (i + 1) * nh] = trace.activ
        off = niw + m * nh
        jac[:, i, off + i * n1 : off + (i + 1) * n1] = dataset.inputs
    flat = jac.reshape(nv * m, nw)
    return (2.0 / nv) * (flat.T @ flat)


def pack(grads: GradientBundle) -> np.ndarray:
    """All three gradient matrices as one vector in the all-weight order:
    flattened input, then output, then bypass weights."""
    return np.concatenate(
        (
            grads.input_weights.ravel(),
            grads.output_weights.ravel(),
            grads.bypass_weights.ravel(),
        )
    )


def unpack(vec: np.ndarray, mlp: Mlp) -> GradientBundle:
    """Inverse of ``pack`` for the weight shapes of ``mlp`` (views, no copy)."""
    n1, nh, m = mlp.n_inputs + 1, mlp.n_hidden, mlp.n_outputs
    niw, nwo = nh * n1, m * nh
    return GradientBundle(
        input_weights=vec[:niw].reshape(nh, n1),
        output_weights=vec[niw : niw + nwo].reshape(m, nh),
        bypass_weights=vec[niw + nwo :].reshape(m, n1),
    )
