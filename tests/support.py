"""Independent oracles for the test suite.

Everything here is deliberately written the slow, obvious way (scalar
loops, brute-force elimination, finite differences) so that the vectorized
implementations in the package are checked against code that shares none of
their structure.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from amolf.dataset import Dataset, make_dataset
from amolf.experiment import TrainingCurve
from amolf.gradients import output_deltas
from amolf.linalg import PIVOT_RTOL, solve_sym
from amolf.network import ACTIVATIONS, Mlp, activation_derivative, mse
from amolf.owo import augmented_basis
from amolf.trainers import (
    GroupPartition,
    assemble_grouped_from_hessian,
    build_partition,
)


def read_curve(path: str) -> TrainingCurve:
    """Parse a CSV written by ``emit_curve``; the final networks are not in
    the file and come back empty."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "iteration,mean_mse,cum_multiplies":
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return TrainingCurve(
        iterations=np.array([int(r[0]) for r in rows]),
        mean_mse=np.array([float(r[1]) for r in rows]),
        cum_multiplies=np.array([float(r[2]) for r in rows]),
    )


def scalar_forward(mlp: Mlp, dataset: Dataset):
    """Pattern-by-pattern forward pass with explicit index loops."""
    act = ACTIVATIONS[mlp.activation][0]
    nv = dataset.n_patterns
    nh, m, n1 = mlp.n_hidden, mlp.n_outputs, mlp.n_inputs + 1
    net = np.zeros((nv, nh))
    activ = np.zeros((nv, nh))
    output = np.zeros((nv, m))
    for p in range(nv):
        for k in range(nh):
            s = 0.0
            for n in range(n1):
                s += mlp.w[k, n] * dataset.inputs[p, n]
            net[p, k] = s
            activ[p, k] = act(s)
        for i in range(m):
            s = 0.0
            for n in range(n1):
                s += mlp.woi[i, n] * dataset.inputs[p, n]
            for k in range(nh):
                s += mlp.woh[i, k] * activ[p, k]
            output[p, i] = s
    return net, activ, output


def scalar_mse(mlp: Mlp, dataset: Dataset) -> float:
    _, _, output = scalar_forward(mlp, dataset)
    total = 0.0
    for p in range(dataset.n_patterns):
        for i in range(dataset.n_outputs):
            total += (dataset.targets[p, i] - output[p, i]) ** 2
    return total / dataset.n_patterns


def scalar_correlations(mlp: Mlp, dataset: Dataset):
    """Autocorrelation and cross-correlation of [inputs, activations]."""
    _, activ, _ = scalar_forward(mlp, dataset)
    nv = dataset.n_patterns
    basis = np.hstack((dataset.inputs, activ))
    nu = basis.shape[1]
    m = dataset.n_outputs
    r = np.zeros((nu, nu))
    c = np.zeros((nu, m))
    for p in range(nv):
        for a in range(nu):
            for b in range(nu):
                r[a, b] += basis[p, a] * basis[p, b]
            for i in range(m):
                c[a, i] += basis[p, a] * dataset.targets[p, i]
    return r / nv, c / nv


def fd_gradients(mlp: Mlp, dataset: Dataset, step: float = 1e-6):
    """Central finite differences of the MSE, negated to match the package's
    negative-gradient convention."""

    def fd_matrix(get, set_):
        base = get(mlp)
        out = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = base.copy()
            plus[idx] += step
            minus = base.copy()
            minus[idx] -= step
            e_plus = mse(set_(mlp, plus), dataset)
            e_minus = mse(set_(mlp, minus), dataset)
            out[idx] = -(e_plus - e_minus) / (2.0 * step)
        return out

    g_w = fd_matrix(lambda m_: m_.w, lambda m_, a: replace(m_, w=a))
    g_woh = fd_matrix(lambda m_: m_.woh, lambda m_, a: replace(m_, woh=a))
    g_woi = fd_matrix(lambda m_: m_.woi, lambda m_, a: replace(m_, woi=a))
    return g_w, g_woh, g_woi


def gauss_elimination_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain Gaussian elimination with partial (row) pivoting; independent of
    the package's fixed-order symmetric solver."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    n = a.shape[0]
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x[:, 0] if vector else x


def fixed_order_elimination(a: np.ndarray, b: np.ndarray):
    """The elimination ``solve_sym`` ran before its LDLᵀ, as its oracle.

    Gaussian elimination on the augmented [A | B] with diagonal pivots in
    fixed order, one rank-1 update per pivot. A pivot under
    ``PIVOT_RTOL * max(diag)`` is skipped: its row and column are zeroed and
    its unknown is 0. Returns (solution shaped like ``b``, skipped mask,
    pivot values as eliminated).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    ab = np.column_stack((a, b))
    skipped = np.zeros(n, dtype=bool)
    pivots = np.zeros(n)
    diag_max = float(a.diagonal().max()) if n else 0.0
    if diag_max <= 0.0:
        skipped[:] = True
    else:
        thresh = PIVOT_RTOL * diag_max
        for i in range(n):
            piv = pivots[i] = ab[i, i]
            if abs(piv) < thresh:
                skipped[i] = True
                ab[i, i:] = 0.0
                ab[i + 1 :, i] = 0.0
                continue
            ab[i + 1 :, i:] -= np.outer(ab[i + 1 :, i] / piv, ab[i, i:])
    x = np.zeros((n, ab.shape[1] - n))
    for i in range(n - 1, -1, -1):
        if not skipped[i]:
            x[i, :] = (ab[i, n:] - ab[i, i + 1 : n] @ x[i + 1 :, :]) / ab[i, i]
    return (x[:, 0] if b.ndim == 1 else x), skipped, pivots


def untiled_gram(mlp: Mlp, features: np.ndarray) -> np.ndarray:
    """``gauss_newton_gram`` as one untiled product: 2/n_patterns times the
    feature Gram, times sum_i woh(i,k) woh(i,j) on every (unit k, unit j)
    block."""
    nv, nh, q = features.shape
    flat = features.reshape(nv, nh * q)
    return (2.0 / nv) * (flat.T @ flat) * np.kron(mlp.woh.T @ mlp.woh, np.ones((q, q)))


def dense_full_hessian(mlp: Mlp, dataset: Dataset, trace) -> np.ndarray:
    """``gauss_newton_full_hessian`` from the dense per-pattern output
    Jacobian, n_patterns x n_outputs x n_weights, as one untiled product."""
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


def flatten_index(unit: int, input_index: int, n_inputs: int) -> int:
    """Position of input weight (unit, input_index) in the flattened vector."""
    return unit * (n_inputs + 1) + input_index


def unflatten_index(flat: int, n_inputs: int) -> tuple[int, int]:
    return divmod(flat, n_inputs + 1)


def hidden_deltas(mlp: Mlp, dataset: Dataset, trace) -> np.ndarray:
    """Output deltas pushed through the output weights and the activation slope."""
    return activation_derivative(mlp, trace) * (output_deltas(dataset, trace) @ mlp.woh)


def output_hessian_gradient(
    mlp: Mlp, dataset: Dataset, trace
) -> tuple[np.ndarray, np.ndarray]:
    """Newton system for the output-side weights at the current point.

    The Hessian is block diagonal: one copy of twice the basis
    autocorrelation per output. The negative gradient flattens output-major,
    entry (i, j) at position i * n_basis + j.
    """
    nv = dataset.n_patterns
    basis = augmented_basis(dataset, trace)
    r = basis.T @ basis / nv
    m = dataset.n_outputs
    ho = np.kron(np.eye(m), 2.0 * r)
    residual = dataset.targets - trace.output
    go = (2.0 / nv) * (residual.T @ basis)
    return ho, go.ravel()


def molf_solve(hessian: np.ndarray, grads) -> np.ndarray:
    """One optimal step size per hidden unit, by compressing the full
    input-weight Hessian onto the per-unit gradient directions."""
    part = single_group_partition(*grads.input_weights.shape)
    ha, ga = assemble_grouped_from_hessian(hessian, grads, part)
    return solve_sym(ha, ga).solution


def single_group_partition(n_hidden: int, n_augmented: int) -> GroupPartition:
    """One group per hidden unit (one step size per unit): with equal
    curvature everywhere, build_partition keeps every unit's inputs in
    index order."""
    return build_partition(np.zeros((n_hidden, n_augmented)), 1)


def grouped_gradient_from_residuals(
    mlp: Mlp, dataset: Dataset, trace, grads, part: GroupPartition
) -> np.ndarray:
    """The grouped step-size gradient accumulated from the hidden deltas,
    weight by weight: the residual-side derivation of what the package
    computes as group sums of squared weight gradients."""
    deltas = hidden_deltas(mlp, dataset, trace)
    gw = grads.input_weights
    nh, n1 = gw.shape
    out = np.zeros((nh, part.n_groups))
    for k in range(nh):
        for n in range(n1):
            out[k, part.group[k, n]] += gw[k, n] * (deltas[:, k] @ dataset.inputs[:, n])
    return out.ravel() / dataset.n_patterns


def rank_partition(curvature: np.ndarray, n_groups: int) -> np.ndarray:
    """Group of every weight, by brute force: a weight's rank within its
    unit counts the weights ahead of it (higher curvature, or equal
    curvature at a lower index); ranks are then cut into ``n_groups`` runs
    whose sizes differ by at most one, the larger runs first."""
    nh, n1 = curvature.shape
    sizes = [n1 // n_groups + (c < n1 % n_groups) for c in range(n_groups)]
    group = np.zeros((nh, n1), dtype=int)
    for k in range(nh):
        for n in range(n1):
            rank = 0
            for j in range(n1):
                if curvature[k, j] > curvature[k, n] or (
                    curvature[k, j] == curvature[k, n] and j < n
                ):
                    rank += 1
            c, end = 0, sizes[0]
            while rank >= end:
                c += 1
                end += sizes[c]
            group[k, n] = c
    return group


def random_spd(rng: np.random.Generator, n: int, jitter: float = 0.5) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m @ m.T + jitter * np.eye(n)


def grouped_quadratic_drop(h: np.ndarray, g: np.ndarray, groups) -> float:
    """Minimum change of the quadratic model E0 - e.g + e.H.e/2 when the
    move is restricted to per-group multiples of the (negative) gradient.

    ``groups`` is a list of index arrays. Returns the minimized change
    (non-positive when the model is consistent), evaluated directly from
    the quadratic, not through any trainer code path.
    """
    basis = np.zeros((len(g), len(groups)))
    for c, idx in enumerate(groups):
        basis[idx, c] = g[idx]
    a = basis.T @ h @ basis
    a = 0.5 * (a + a.T)
    b = basis.T @ g
    z = solve_sym(a, b).solution
    return float(-(z @ b) + 0.5 * z @ (a @ z))


def nested_split_chain(dim: int, counts) -> list[list[np.ndarray]]:
    """Partition chains where each stage refines the previous by splitting
    contiguous blocks, e.g. counts (1, 2, 4, 8)."""
    chains = []
    for count in counts:
        edges = np.linspace(0, dim, count + 1).astype(int)
        chains.append([np.arange(edges[i], edges[i + 1]) for i in range(count)])
    return chains


def random_network(
    rng: np.random.Generator,
    n_inputs: int,
    n_hidden: int,
    n_outputs: int,
    n_patterns: int,
    activation: str = "sigmoid",
    weight_scale: float = 0.8,
) -> tuple[Mlp, Dataset]:
    """A seeded random net with nonzero output weights over random data."""
    raw = rng.standard_normal((n_patterns, n_inputs))
    targets = rng.standard_normal((n_patterns, n_outputs))
    dataset = make_dataset(raw, targets)
    mlp = Mlp(
        w=weight_scale * rng.standard_normal((n_hidden, n_inputs + 1)),
        woh=weight_scale * rng.standard_normal((n_outputs, n_hidden)),
        woi=weight_scale * rng.standard_normal((n_outputs, n_inputs + 1)),
        activation=activation,
    )
    return mlp, dataset


def near_interpolating_network(
    rng: np.random.Generator,
    n_inputs: int,
    n_hidden: int,
    n_outputs: int,
    n_patterns: int,
    noise: float = 1e-4,
) -> tuple[Mlp, Dataset]:
    """A net whose targets are its own outputs plus tiny noise, so residuals
    are small and Gauss-Newton curvature matches the true curvature."""
    from amolf.network import forward

    mlp, dataset = random_network(rng, n_inputs, n_hidden, n_outputs, n_patterns)
    outputs = forward(mlp, dataset).output
    targets = outputs + noise * rng.standard_normal(outputs.shape)
    return mlp, make_dataset(dataset.inputs[:, :-1], targets)


def relative_max_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max over entries of |actual - expected| / |expected|, with a floor on
    the denominator at one thousandth of the largest expected magnitude."""
    expected = np.asarray(expected, dtype=float)
    actual = np.asarray(actual, dtype=float)
    scale = np.abs(expected).max()
    floor = max(1e-3 * scale, 1e-300)
    return float((np.abs(actual - expected) / np.maximum(np.abs(expected), floor)).max())


def matrix_relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Norm-level relative error, |actual - expected|_max / (1 + |expected|_max)."""
    diff = float(np.abs(np.asarray(actual) - np.asarray(expected)).max())
    return diff / (1.0 + float(np.abs(expected).max()))


def fd_second_derivative(f, h: float) -> float:
    """Central second difference of a scalar function at 0."""
    return (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)


def quadratic_line_minimum(f, h: float = 0.5) -> float:
    """Exact minimizer of a quadratic scalar function from three samples."""
    num = f(-h) - f(h)
    den = 2.0 * (f(h) - 2.0 * f(0.0) + f(-h))
    return h * num / den


def timed(fn):
    import time

    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
