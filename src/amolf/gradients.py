"""Backpropagation gradients and Gauss-Newton curvature.

Sign convention: every gradient object here is a NEGATIVE gradient of the
mean squared error, so adding ``step * gradient`` with a small positive step
decreases the error. Hessians are Gauss-Newton (sums of output-Jacobian
outer products scaled by 2/n_patterns), hence symmetric positive
semi-definite by construction; each is a ``linalg.pattern_sum`` Gram of
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

The full-network features [f'·x, activations, inputs] are nh·(n+1) + nh +
n + 1 columns per pattern (185 at matinv's nh=30): 2.96 MB at 2000
patterns, 29.6 MB at 20,000, for a Gram of 0.27 MB. So they are built
``GN_BLOCK`` patterns at a time in one buffer, and the Gram is the sum of
the blocks' ``pattern_sum`` Grams, added into one +0.0 accumulator in block
order (patterns 0..GN_BLOCK-1 first). The order is fixed, so the bits do not
depend on the thread count or on anything but the pattern count; they
differ by rounding from one ``pattern_sum`` over every pattern, and equal it
when the patterns fit in one block (but for a -0.0 entry, which becomes
+0.0). The input-weight and grouped Grams take their features whole.

Per-pattern intermediates (output and hidden deltas, the directional
output changes, f'²) are each built in one array and updated in place, with
the operations of the plain expressions in the same order, so they keep
their bits and make no second pattern-sized temporary. None writes into the
pass's f'(net): a product with it scales the array the kernel allocates
anyway (f'·(x·d) as (x·d)·f'), and IEEE multiplication commutes bit for bit.
Every product of a pattern-sized array with a transposed weight matrix or
direction is a ``linalg.weight_product``; the ``linalg`` docstring says
which BLAS kernel it takes and why its bits are those of ``a @ w.T``.
No pattern-sized product has a stride-0 innermost axis: broadcasting f'
(nv, nh) against a few inputs or groups that way runs one tiny numpy inner
loop per (pattern, unit) pair. The outer products f'·x go through
``np.einsum`` into a C-ordered buffer the caller owns
(``_fprime_input_products``), never one whose layout einsum picks: the
layout decides which BLAS kernel ``pattern_sum`` takes, and with it the
bits. Each element is still one IEEE product, but einsum stores 0 + a·b, so
a -0.0 product is stored as +0.0. That keeps the Gram's bits: the features'
only reader is ``pattern_sum``, whose BLAS accumulators start at +0.0, and
+0.0 + (-0.0) is +0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import pattern_sum, solve_sym, weight_product
from .network import ForwardTrace, Mlp

# Patterns per block of the full-network Gauss-Newton features: 0.38 MB of
# features at matinv's nh=30, whatever the pattern count. Timed at 2000
# patterns, one BLAS thread (2-core Xeon, median of 40 calls), the whole
# build reads 3.0-3.1 ms at one block of every pattern, 3.0-3.1 ms at 256,
# 2.8-2.9 ms at 512 and 3.2-3.3 ms at 128, where the per-block calls start
# to cost; 256 holds half of 512's features for no time.
GN_BLOCK = 256


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


def _fprime_input_products(fprime: np.ndarray, inputs: np.ndarray, out: np.ndarray) -> None:
    """Write f'(net_k)·x(n) for every pattern p into ``out[p, k, n]``, the
    caller's (n_patterns, n_hidden, n_inputs + 1) buffer."""
    np.einsum("pk,pn->pkn", fprime, inputs, out=out)


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
    inputs = trace.dataset.inputs
    features = np.empty((inputs.shape[0], trace.mlp.n_hidden, inputs.shape[1]))
    _fprime_input_products(trace.fprime, inputs, features)
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
    2/n_patterns times the feature Gram (exactly symmetric), of width
    nh·(n+1) + nh + n + 1. The features are built ``GN_BLOCK`` patterns at a
    time in one reused buffer, and each block's ``pattern_sum`` Gram is
    added into one accumulator in block order, so no call holds more than
    one block of features (the module docstring gives the sizes and the
    bits). The Hessian in the order of ``pack`` is G ⊙ s_i s_iᵀ added at
    those rows for each output i; it is never formed
    (``damped_gauss_newton_step`` solves with it).
    """
    inputs, fprime, activ = trace.dataset.inputs, trace.fprime, trace.activ
    (nv, n1), nh = inputs.shape, trace.mlp.n_hidden
    niw = nh * n1
    buffer = np.empty((min(nv, GN_BLOCK), niw + nh + n1))
    gram = np.zeros((buffer.shape[1], buffer.shape[1]))
    for p in range(0, nv, GN_BLOCK):
        rows = slice(p, p + GN_BLOCK)
        features = buffer[: nv - p]
        _fprime_input_products(fprime[rows], inputs[rows], features[:, :niw].reshape(-1, nh, n1))
        features[:, niw : niw + nh] = activ[rows]
        features[:, niw + nh :] = inputs[rows]
        gram += pattern_sum(features, features)
    gram *= 2.0 / nv
    return gram


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
