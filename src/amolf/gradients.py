"""Backpropagation gradients and Gauss-Newton curvature.

Sign convention: every gradient object here is a NEGATIVE gradient of the
mean squared error, so adding ``step * gradient`` with a small positive step
decreases the error. Hessians are Gauss-Newton (sums of output-Jacobian
outer products scaled by 2/n_patterns), hence symmetric positive
semi-definite by construction; each is one ``linalg.pattern_sum`` Gram of
per-pattern features, never a Jacobian in memory. Gradients sum over
patterns with ``pattern_sum`` too, so no result depends on BLAS threads.
Every kernel here that reads a forward pass takes the pass alone: a
``ForwardTrace`` carries the network and dataset it ran, and computes its
outputs and f'(net) once, when first read.

Input weights flatten row-major: weight (unit k, input n) maps to index
k * (n_inputs + 1) + n, and plain reshape inverts the map. The Hessian
builders return no gradient; it comes from ``backprop``, or from
``input_weight_gradient`` for the trainers that read only the input-weight
one. The input-weight Hessian is the matrix itself; the full-network one is
the feature Gram it factors through, since its output and bypass rows
repeat one basis block per output. ``damped_gauss_newton_step`` solves the
damped full-network system from that Gram, so only this module knows the
Gram's column layout.

Per-pattern intermediates (output and hidden deltas, the directional
output changes, f'²) are each built in one array and updated in place, with
the operations of the plain expressions in the same order, so they keep
their bits and make no second pattern-sized temporary. None writes into the
pass's f'(net): a product with it scales the array the kernel allocates
anyway (f'·(x·d) as (x·d)·f'), and IEEE multiplication commutes bit for bit.
Every product of a pattern-sized array with a transposed weight matrix or
direction is a ``linalg.weight_product``; the ``linalg`` docstring says
which BLAS kernel it takes and why its bits are those of ``a @ w.T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import pattern_sum, solve_sym, weight_product
from .network import ForwardTrace, Mlp


@dataclass(frozen=True)
class GradientBundle:
    """Negative error gradients for all three weight matrices."""

    input_weights: np.ndarray  # (n_hidden, n_inputs + 1)
    output_weights: np.ndarray  # (n_outputs, n_hidden)
    bypass_weights: np.ndarray  # (n_outputs, n_inputs + 1)


def output_deltas(trace: ForwardTrace) -> np.ndarray:
    """Per-pattern negative-gradient output deltas, 2 * (target - output)."""
    out = np.subtract(trace.dataset.targets, trace.output)
    out *= 2.0
    return out


def _input_gradient(trace: ForwardTrace, d_out: np.ndarray) -> np.ndarray:
    """Input-weight negative gradient from the output deltas ``d_out``: the
    hidden deltas f'(net) * (d_out @ woh), summed against the inputs."""
    d_hid = d_out @ trace.mlp.woh
    d_hid *= trace.fprime
    return pattern_sum(d_hid, trace.dataset.inputs) / trace.dataset.n_patterns


def input_weight_gradient(trace: ForwardTrace) -> np.ndarray:
    """Negative gradient of the MSE for the input weights alone, the same
    bits as ``backprop(trace).input_weights``, for the trainers that solve
    the output weights and read no other gradient."""
    return _input_gradient(trace, output_deltas(trace))


def backprop(trace: ForwardTrace) -> GradientBundle:
    """Negative gradients of the MSE for all weights, averaged over patterns."""
    d = trace.dataset
    d_out = output_deltas(trace)
    return GradientBundle(
        input_weights=_input_gradient(trace, d_out),
        output_weights=pattern_sum(d_out, trace.activ) / d.n_patterns,
        bypass_weights=pattern_sum(d_out, d.inputs) / d.n_patterns,
    )


def gauss_newton_gram(mlp: Mlp, features: np.ndarray) -> np.ndarray:
    """Gauss-Newton Hessian over q unknowns per hidden unit, unit-major.

    ``features[p, k, c]`` is f'(net_k) times the change of unit k's net
    value along unknown (k, c) for pattern p. Entry ((k, c), (j, d)) is
    2/n_patterns times the pattern sum of features (k, c) and (j, d) times
    sum_i woh(i,k) woh(i,j): a ``pattern_sum`` Gram, exactly symmetric and
    independent of the BLAS thread count.
    """
    nv, nh, q = features.shape
    flat = features.reshape(nv, nh * q)
    gram = pattern_sum(flat, flat).reshape(nh, q, nh, q)
    s = mlp.woh.T @ mlp.woh
    return ((2.0 / nv) * gram * s[:, None, :, None]).reshape(nh * q, nh * q)


def gauss_newton_input_hessian(trace: ForwardTrace) -> np.ndarray:
    """Gauss-Newton Hessian over the input weights, flattened row-major.

    Entry ((k, n), (j, m)) is 2/n_patterns times the pattern-and-output sum
    of products of output sensitivities woh(i,k) f'(net_k) x(n) and
    woh(i,j) f'(net_j) x(m): ``gauss_newton_gram`` of the features f'·x.
    """
    features = trace.fprime[:, :, None] * trace.dataset.inputs[:, None, :]
    return gauss_newton_gram(trace.mlp, features)


def gn_curvature_along_input_direction(trace: ForwardTrace, direction: np.ndarray) -> float:
    """Gauss-Newton second derivative of the error along an input-weight
    direction, i.e. the Hessian quadratic form evaluated without forming the
    Hessian."""
    activ_change = weight_product(trace.dataset.inputs, direction)
    activ_change *= trace.fprime
    u = weight_product(activ_change, trace.mlp.woh)
    u *= u
    return float(2.0 * u.sum() / trace.dataset.n_patterns)


def gn_curvature_along_direction(
    trace: ForwardTrace, d_w: np.ndarray, d_woh: np.ndarray, d_woi: np.ndarray
) -> float:
    """Gauss-Newton quadratic form along a direction over all weights."""
    inputs = trace.dataset.inputs
    u = weight_product(inputs, d_woi)
    u += weight_product(trace.activ, d_woh)
    activ_change = weight_product(inputs, d_w)
    activ_change *= trace.fprime
    u += weight_product(activ_change, trace.mlp.woh)
    u *= u
    return float(2.0 * u.sum() / trace.dataset.n_patterns)


def curvature_map(trace: ForwardTrace) -> np.ndarray:
    """Per-weight diagonal Gauss-Newton curvature of the input weights.

    Entry (k, n) is 2/n_patterns times the squared-output-weight sum for
    unit k times the pattern sum of f'(net_k)^2 x(n)^2; always >= 0. Equals
    the matching diagonal entry of the full input-weight Hessian.
    """
    inputs, woh = trace.dataset.inputs, trace.mlp.woh
    fprime_sq = np.multiply(trace.fprime, trace.fprime)
    weight_sq = (woh * woh).sum(axis=0)
    pattern_sums = pattern_sum(fprime_sq, inputs * inputs)
    return (2.0 / trace.dataset.n_patterns) * weight_sq[:, None] * pattern_sums


def gauss_newton_full_hessian(trace: ForwardTrace) -> np.ndarray:
    """Gauss-Newton Hessian over every weight, in factored form.

    Output i's Jacobian is the per-pattern features [f'·x, activations,
    inputs] times s_i = [woh(i,k) at weight (k,n), 1, 1], over the input
    weights and output i's own output and bypass weights. Returns G,
    2/n_patterns times the feature Gram (one ``pattern_sum``, exactly
    symmetric), of width nh·(n+1) + nh + n + 1. The Hessian in the order of
    ``pack`` is G ⊙ s_i s_iᵀ added at those rows for each output i; it is
    never formed (``damped_gauss_newton_step`` solves with it).
    """
    inputs = trace.dataset.inputs
    (nv, n1), nh = inputs.shape, trace.mlp.n_hidden
    niw = nh * n1
    features = np.empty((nv, niw + nh + n1))
    np.multiply(
        trace.fprime[:, :, None],
        inputs[:, None, :],
        out=features[:, :niw].reshape(nv, nh, n1),
    )
    features[:, niw : niw + nh] = trace.activ
    features[:, niw + nh :] = inputs
    return (2.0 / nv) * pattern_sum(features, features)


def damped_gauss_newton_step(
    mlp: Mlp, gram: np.ndarray, g: GradientBundle, lam: float
) -> GradientBundle:
    """Solution of (H + lam·I)·step = g, in the shapes of the weights, for
    the full-network Gauss-Newton Hessian H in the factored form G of
    ``gauss_newton_full_hessian``.

    G's blocks are G_ww over the input weights, the cross block C and the
    basis Gram G_b. H holds one damped basis block (G_b + lam·I) per output,
    coupled to the input weights by C scaled by that output's ``woh``.
    Eliminating the output and bypass weights leaves the input-weight Schur
    complement S = (G_ww − C·(G_b + lam·I)⁻¹·Cᵀ) ⊙ kron(wohᵀ·woh, 1) + lam·I
    (Golub & Pereyra's separable structure), so one basis-sized and one
    input-weight-sized solve replace the solve over every weight, and the
    output and bypass steps follow by back-substitution.
    """
    nh, n1 = mlp.n_hidden, mlp.n_inputs + 1
    niw = nh * n1
    cross = gram[:niw, niw:]
    damped_basis = gram[niw:, niw:] + lam * np.eye(nh + n1)
    # [Z | Y] = (G_b + lam·I)⁻¹·[Cᵀ | g_basis]. Column i of g_basis, of Y and
    # of the basis steps is output i's [woh_i, woi_i].
    g_basis = np.hstack((g.output_weights, g.bypass_weights)).T
    zy = solve_sym(damped_basis, np.hstack((cross.T, g_basis))).solution
    # C·Z is above the single-thread GEMM size, so the products over the
    # basis and input-weight axes are pattern sums, like the Gram's.
    czy = pattern_sum(cross.T, zy)
    # Column i: woh(i,k) at input weight (k,n), output i's row scaling of C.
    scale = np.repeat(mlp.woh.T, n1, axis=0)
    schur = (gram[:niw, :niw] - czy[:, :niw]).reshape(nh, n1, nh, n1)
    schur = (schur * (mlp.woh.T @ mlp.woh)[:, None, :, None]).reshape(niw, niw)
    schur[np.diag_indices(niw)] += lam
    rhs = g.input_weights.ravel() - (czy[:, niw:] * scale).sum(axis=1)
    d_w = solve_sym(schur, rhs).solution
    d_basis = zy[:, niw:] - pattern_sum(zy[:, :niw].T, scale * d_w[:, None])
    return GradientBundle(d_w.reshape(nh, n1), d_basis[:nh].T, d_basis[nh:].T)


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
