"""Independent oracles for the test suite.

Everything here is deliberately written the slow, obvious way (scalar
loops, brute-force elimination, finite differences) so that the vectorized
implementations in the package are checked against code that shares none of
their structure.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from amolf.cost import amolf_group_counts
from amolf.dataset import Dataset, make_dataset
from amolf.experiment import TrainingCurve
from amolf.gradients import GN_BLOCK, gauss_newton_gram, output_deltas
from amolf.linalg import PIVOT_RTOL, pattern_sum, solve_sym
from amolf.network import ForwardTrace, Mlp, forward, mse
from amolf.owo import augmented_basis
from amolf.trainers import _grouped_gradient, assemble_grouped_from_hessian, build_partition


def read_curve(path: str) -> TrainingCurve:
    """Parse a CSV written by ``emit_curve``; the final networks are not in
    the file and come back empty."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "iteration,mean_mse,cum_multiplies":
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError(f"{path}: the iteration column is not 1..{len(rows)}")
    return TrainingCurve(
        mean_mse=np.array([float(r[1]) for r in rows]),
        cum_multiplies=np.array([float(r[2]) for r in rows]),
    )


def load_mlp(path: str) -> Mlp:
    """Inverse of ``amolf.network.save_mlp``."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"{path}: malformed header")
        n, nh, m = (int(tok) for tok in header[:3])
        activation = header[3]
        rows = [[float(tok) for tok in line.split()] for line in fh if line.split()]
    expected = nh + 2 * m
    if len(rows) != expected:
        raise ValueError(f"{path}: expected {expected} weight rows, found {len(rows)}")
    w = np.asarray(rows[:nh])
    woh = np.asarray(rows[nh : nh + m])
    woi = np.asarray(rows[nh + m :])
    return Mlp(w=w, woh=woh, woi=woi, activation=activation)


# Scalar activations on Python floats, for the loop oracles below.
SCALAR_ACTIVATIONS = {
    "sigmoid": lambda s: 0.5 * (math.tanh(0.5 * s) + 1.0),
    "tanh": math.tanh,
    "linear": lambda s: s,
}


def scalar_forward(mlp: Mlp, dataset: Dataset):
    """Pattern-by-pattern forward pass with explicit index loops."""
    act = SCALAR_ACTIVATIONS[mlp.activation]
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
    fixed order, one rank-1 update per pivot. A pivot at or below
    ``PIVOT_RTOL * max(diag, 0)`` is skipped: its row and column are zeroed
    and its unknown is 0. Returns (solution shaped like ``b``, skipped mask,
    pivot values as eliminated).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    ab = np.column_stack((a, b))
    skipped = np.zeros(n, dtype=bool)
    pivots = np.zeros(n)
    thresh = PIVOT_RTOL * float(a.diagonal().max(initial=0.0))
    for i in range(n):
        piv = pivots[i] = ab[i, i]
        if abs(piv) <= thresh:
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
    """``gauss_newton_full_hessian`` expanded to every weight, from the
    dense per-pattern output Jacobian, n_patterns x n_outputs x n_weights,
    as one untiled product."""
    nv, n1 = dataset.n_patterns, dataset.n_inputs + 1
    nh, m = mlp.n_hidden, mlp.n_outputs
    niw = nh * n1
    nw = niw + m * nh + m * n1
    fprime = trace.fprime
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


def expand_full_hessian(mlp: Mlp, gram: np.ndarray) -> np.ndarray:
    """The dense all-weight Hessian, in the order of ``pack``, from the
    factored form of ``gauss_newton_full_hessian``: for each output i, the
    Gram times outer(s_i, s_i) with s_i = [woh(i,k) at weight (k,n), 1, 1],
    added at the input rows and output i's own output and bypass rows."""
    n1, nh, m = mlp.n_inputs + 1, mlp.n_hidden, mlp.n_outputs
    niw = nh * n1
    hessian = np.zeros((niw + m * (nh + n1),) * 2)
    woh_rows, woi_rows = niw + np.arange(nh), niw + m * nh + np.arange(n1)
    for i in range(m):
        scale = np.concatenate((np.repeat(mlp.woh[i], n1), np.ones(nh + n1)))
        rows = np.r_[:niw, woh_rows + i * nh, woi_rows + i * n1]
        hessian[np.ix_(rows, rows)] += gram * np.outer(scale, scale)
    return hessian


def flatten_index(unit: int, input_index: int, n_inputs: int) -> int:
    """Position of input weight (unit, input_index) in the flattened vector."""
    return unit * (n_inputs + 1) + input_index


def unflatten_index(flat: int, n_inputs: int) -> tuple[int, int]:
    return divmod(flat, n_inputs + 1)


def hidden_deltas(mlp: Mlp, dataset: Dataset, trace) -> np.ndarray:
    """Output deltas pushed through the output weights and the activation slope."""
    return trace.fprime * (output_deltas(trace) @ mlp.woh)


# The plain-expression forms of the per-pattern kernels, which build each
# result in one array updated in place; the kernels must match them bit for
# bit.
EXPRESSION_ACTIVATIONS = {
    "sigmoid": (lambda x: 0.5 * (np.tanh(0.5 * x) + 1.0), lambda o: o * (1.0 - o)),
    "tanh": (np.tanh, lambda o: 1.0 - o * o),
}


def _expression_fprime(mlp: Mlp, trace) -> np.ndarray:
    return EXPRESSION_ACTIVATIONS[mlp.activation][1](trace.activ)


def expression_linear_output(mlp: Mlp, dataset: Dataset, activ: np.ndarray) -> np.ndarray:
    return dataset.inputs @ mlp.woi.T + activ @ mlp.woh.T


def expression_output_mse(dataset: Dataset, output: np.ndarray) -> float:
    residual = dataset.targets - output
    return float((residual * residual).sum() / dataset.n_patterns)


def expression_output_deltas(dataset: Dataset, trace) -> np.ndarray:
    return 2.0 * (dataset.targets - trace.output)


def expression_curvature_along_input_direction(
    mlp: Mlp, dataset: Dataset, trace, direction: np.ndarray
) -> float:
    u = (_expression_fprime(mlp, trace) * (dataset.inputs @ direction.T)) @ mlp.woh.T
    return float(2.0 * (u * u).sum() / dataset.n_patterns)


def expression_curvature_along_direction(
    mlp: Mlp, dataset: Dataset, trace, d_w: np.ndarray, d_woh: np.ndarray, d_woi: np.ndarray
) -> float:
    u = (
        dataset.inputs @ d_woi.T
        + trace.activ @ d_woh.T
        + (_expression_fprime(mlp, trace) * (dataset.inputs @ d_w.T)) @ mlp.woh.T
    )
    return float(2.0 * (u * u).sum() / dataset.n_patterns)


def expression_curvature_map(mlp: Mlp, dataset: Dataset, trace) -> np.ndarray:
    fprime = _expression_fprime(mlp, trace)
    weight_sq = (mlp.woh * mlp.woh).sum(axis=0)
    pattern_sums = pattern_sum(fprime * fprime, dataset.inputs * dataset.inputs)
    return (2.0 / dataset.n_patterns) * weight_sq[:, None] * pattern_sums


# The plain broadcast forms of the Gauss-Newton feature products, whose
# innermost axis has stride 0; the kernels must match them bit for bit.
def expression_fprime_input_features(trace) -> np.ndarray:
    return trace.fprime[:, :, None] * trace.dataset.inputs[:, None, :]


def expression_input_hessian(trace) -> np.ndarray:
    return gauss_newton_gram(trace.mlp, expression_fprime_input_features(trace))


def expression_full_hessian(trace) -> np.ndarray:
    """The broadcast features whole, their ``pattern_sum`` Grams summed over
    blocks of ``GN_BLOCK`` patterns in block order, as the kernel sums them."""
    inputs = trace.dataset.inputs
    nv = inputs.shape[0]
    features = expression_fprime_input_features(trace).reshape(nv, -1)
    features = np.hstack((features, trace.activ, inputs))
    gram = np.zeros((features.shape[1],) * 2)
    for p in range(0, nv, GN_BLOCK):
        block = features[p : p + GN_BLOCK]
        gram += pattern_sum(block, block)
    return (2.0 / nv) * gram


def expression_grouped_hessian(trace, gw: np.ndarray, group: np.ndarray) -> np.ndarray:
    t, _ = _grouped_gradient(gw, group)
    delta_net = np.tensordot(trace.dataset.inputs, t, axes=([1], [1]))
    return gauss_newton_gram(trace.mlp, delta_net * trace.fprime[:, :, None])


def same_bits(actual, expected) -> bool:
    """Equal shape, dtype and bytes: stricter than ``np.array_equal``, which
    takes -0.0 for 0.0."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and actual.tobytes() == expected.tobytes()
    )


def extreme_array(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal draws of scale 4 with ±30, subnormals and signed zeros put at
    random positions, up to four copies of each (at least 8 entries)."""
    flat = 4.0 * rng.standard_normal(int(np.prod(shape)))
    specials = [30.0, -30.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0]
    copies = min(4, flat.size // len(specials))
    flat[rng.choice(flat.size, copies * len(specials), replace=False)] = specials * copies
    return flat.reshape(shape)


def extreme_network(
    rng: np.random.Generator, activation: str
) -> tuple[Mlp, Dataset, ForwardTrace]:
    """A random 4-6-3 network and its forward pass over 300 patterns whose
    inputs and targets come from ``extreme_array``."""
    mlp, _ = random_network(rng, 4, 6, 3, 1, activation)
    dataset = make_dataset(extreme_array(rng, (300, 4)), extreme_array(rng, (300, 3)))
    return mlp, dataset, forward(mlp, dataset)


def output_hessian_gradient(
    mlp: Mlp, dataset: Dataset, trace
) -> tuple[np.ndarray, np.ndarray]:
    """Newton system for the output-side weights at the current point.

    The Hessian is block diagonal: one copy of twice the basis
    autocorrelation per output. The negative gradient flattens output-major,
    entry (i, j) at position i * n_basis + j.
    """
    nv = dataset.n_patterns
    basis = augmented_basis(trace)
    r = basis.T @ basis / nv
    m = dataset.n_outputs
    ho = np.kron(np.eye(m), 2.0 * r)
    residual = dataset.targets - trace.output
    go = (2.0 / nv) * (residual.T @ basis)
    return ho, go.ravel()


def molf_solve(hessian: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """One optimal step size per hidden unit, by compressing the full
    input-weight Hessian onto the per-unit gradient directions ``gw``."""
    group = single_group_partition(*gw.shape)
    ha, ga = assemble_grouped_from_hessian(hessian, gw, group)
    return solve_sym(ha, ga).solution


def single_group_partition(n_hidden: int, n_augmented: int) -> np.ndarray:
    """One group per hidden unit (one step size per unit): with equal
    curvature everywhere, build_partition keeps every unit's inputs in
    index order."""
    return build_partition(np.zeros((n_hidden, n_augmented)), 1)


def grouped_gradient_from_residuals(
    mlp: Mlp, dataset: Dataset, trace, gw: np.ndarray, group: np.ndarray
) -> np.ndarray:
    """The grouped step-size gradient accumulated from the hidden deltas,
    weight by weight: the residual-side derivation of what the package
    computes as group sums of squared weight gradients."""
    deltas = hidden_deltas(mlp, dataset, trace)
    nh, n1 = gw.shape
    out = np.zeros((nh, group.max() + 1))
    for k in range(nh):
        for n in range(n1):
            out[k, group[k, n]] += gw[k, n] * (deltas[:, k] @ dataset.inputs[:, n])
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


# LM's classic accept/reject damping schedule (Marquardt, J. SIAM 11, 1963),
# transcribed with its own constants, so that a change to the trainer's
# schedule or to one of its constants shows against it.
LM_SCHEDULE_START = 1e-2
LM_SCHEDULE_FACTOR = 10.0
LM_SCHEDULE_BOUNDS = (1e-12, 1e12)
LM_SCHEDULE_MAX_SOLVES = 10


def lm_schedule_iteration(lam: float, accepted_at: int | None) -> tuple[float, int, bool]:
    """One LM iteration by the schedule, from damping ``lam``: (the damping
    after it, the damped solves it ran, whether it stalled). Candidate
    ``accepted_at`` (0-based) is the first whose error is below the input
    pass's; ``None`` if none is. The damping is clamped to the bounds
    first; a rejection grows it tenfold (to the upper bound at most) and an
    acceptance shrinks it tenfold (to the lower bound at least); a
    rejection at the upper bound, or the last allowed solve, ends the
    iteration stalled."""
    low, high = LM_SCHEDULE_BOUNDS
    lam = min(max(lam, low), high)
    for solve in range(LM_SCHEDULE_MAX_SOLVES):
        if solve == accepted_at:
            return max(lam / LM_SCHEDULE_FACTOR, low), solve + 1, False
        if lam >= high:
            return lam, solve + 1, True
        lam = min(lam * LM_SCHEDULE_FACTOR, high)
    return lam, LM_SCHEDULE_MAX_SOLVES, True


def fd_second_derivative(f, h: float) -> float:
    """Central second difference of a scalar function at 0."""
    return (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)


def quadratic_line_minimum(f, h: float = 0.5) -> float:
    """Exact minimizer of a quadratic scalar function from three samples."""
    num = f(-h) - f(h)
    den = 2.0 * (f(h) - 2.0 * f(0.0) + f(-h))
    return h * num / den


# The closed-form multiply counts of ``amolf.cost`` in exact rational
# arithmetic, each formula spelled as its docstring states it. ``amolf.cost``
# evaluates the same counts with integer ``//``, which is exact only if every
# value here has denominator 1.


def fraction_ols(nu: int, m: int) -> Fraction:
    return Fraction(nu * (nu + 1)) * (Fraction(m) + Fraction(2 * nu + 1, 6) + Fraction(3, 2))


def fraction_owo(n: int, nh: int, m: int, nv: int) -> Fraction:
    nu = n + nh + 1
    per_pattern = Fraction(nh * (n + 1) + m * (2 * nu + 1)) + Fraction(nu * (nu + 1), 2)
    return Fraction(nv) * per_pattern + fraction_ols(nu, m)


def fraction_owo_bp(n: int, nh: int, m: int, nv: int) -> Fraction:
    return fraction_owo(n, nh, m, nv) + Fraction(nv * nh * (m + n + 2))


def fraction_lm(n: int, nh: int, m: int, nv: int) -> Fraction:
    nu = n + nh + 1
    nw = m * nu + (n + 1) * nh
    return Fraction(nv) * Fraction(
        m * nu
        + 2 * nh * (n + 1)
        + m * (n + 6 * nh + 4)
        + m * nu * (nu + 3 * nh * (n + 1))
        + 4 * nh * nh * (n + 1) * (n + 1)
    ) + Fraction(nw**3 + nw**2)


def fraction_newton(n: int, nh: int, m: int, nv: int) -> Fraction:
    niw = nh * (n + 1)
    inner = Fraction(nv * m, 2) + Fraction(2 * niw + 1, 6) + Fraction(5, 2)
    return Fraction(nv) * (Fraction(niw * (2 * m + 1)) + Fraction(niw * (niw + 1)) * inner)


def fraction_owo_newton(n: int, nh: int, m: int, nv: int) -> Fraction:
    return fraction_owo(n, nh, m, nv) + fraction_newton(n, nh, m, nv)


def fraction_owo_molf(n: int, nh: int, m: int, nv: int) -> Fraction:
    return Fraction(nh * (nh + 1)) * (Fraction(2 * nh + 1, 6) + Fraction(5, 2)) + Fraction(
        nv * nh
    ) * (Fraction(2 * m + n + 2) + Fraction(m * (nh + 1), 2))


def fraction_amolf(n: int, nh: int, m: int, nv: int, ng: int) -> Fraction:
    nl = ng * nh
    return (
        Fraction(nl * (nl + 1))
        * (Fraction(2 * nl + 1, 6) + Fraction(5, 2) + Fraction(m * nv, 2))
        + Fraction(nh * (n + 1))
        + Fraction(nh * ng * m * (nv + 2))
        + Fraction(nl * nv * m)
    )


def fraction_amolf_search(n: int, nh: int, m: int, nv: int) -> Fraction:
    niw = nh * (n + 1)
    nu = n + nh + 1
    total = Fraction(nv * nh * (n + 1)) + Fraction(nv * m) * Fraction(niw * (niw + 1), 2)
    trial_eval = Fraction(nv * (nh * (n + 1) + m * nu) + nv * m)
    for ng in amolf_group_counts(n):
        nl = ng * nh
        solve = Fraction(nl * (nl + 1)) * (Fraction(2 * nl + 1, 6) + Fraction(5, 2))
        total += Fraction(2 * niw * niw) + solve + Fraction(niw) + trial_eval
    return total


def fraction_cg(n: int, nh: int, m: int, nv: int) -> Fraction:
    nu = n + nh + 1
    nw = m * nu + (n + 1) * nh
    forward_pass = nv * (nh * (n + 1) + m * nu)
    deltas = nv * (m + nh * (m + 1))
    grads = nv * ((nh + m) * (n + 1) + m * nh)
    curvature = nv * (nh * (n + 2) + m * (nh + nu) + m)
    return Fraction(forward_pass + deltas + grads + curvature + 4 * nw)


# Keyed by the ``amolf.cost`` function each one is the reference for.
FRACTION_COUNTS = {
    "mult_ols": fraction_ols,
    "mult_owo": fraction_owo,
    "mult_owo_bp": fraction_owo_bp,
    "mult_lm": fraction_lm,
    "mult_newton": fraction_newton,
    "mult_owo_newton": fraction_owo_newton,
    "mult_owo_molf": fraction_owo_molf,
    "mult_amolf": fraction_amolf,
    "mult_amolf_search": fraction_amolf_search,
    "mult_cg": fraction_cg,
}
