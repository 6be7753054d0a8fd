import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from amolf.dataset import gen_matrix_inversion, make_dataset, normalize_zero_mean
from amolf.gradients import (
    backprop,
    curvature_map,
    gauss_newton_full_hessian,
    gauss_newton_gram,
    gauss_newton_input_hessian,
    gn_curvature_along_direction,
    gn_curvature_along_input_direction,
    input_weight_gradient,
    output_deltas,
    pack,
    unpack,
)
from amolf.linalg import GEMM_SINGLE_THREAD_SIZE, GRAM_TILE, pattern_sum, solve_sym
from amolf.network import Mlp, forward, init_net_control, mse
from amolf.owo import accumulate_correlations, output_weight_step
from support import (
    dense_full_hessian,
    expand_full_hessian,
    expression_curvature_along_direction,
    expression_curvature_along_input_direction,
    expression_curvature_map,
    expression_output_deltas,
    extreme_array,
    extreme_network,
    fd_gradients,
    fd_second_derivative,
    flatten_index,
    near_interpolating_network,
    output_hessian_gradient,
    random_network,
    relative_max_error,
    same_bits,
    unflatten_index,
    untiled_gram,
)


def test_backprop_zero_at_interpolation():
    rng = np.random.default_rng(0)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    g = backprop(forward(mlp, exact))
    assert np.abs(g.input_weights).max() == 0.0
    assert np.abs(g.output_weights).max() == 0.0
    assert np.abs(g.bypass_weights).max() == 0.0


def test_backprop_zero_input_gradient_without_output_weights():
    rng = np.random.default_rng(1)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    g = backprop(forward(mlp, d))
    assert np.abs(g.input_weights).max() == 0.0


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("seed", [0, 1])
def test_backprop_matches_finite_differences(seed, activation):
    rng = np.random.default_rng(100 + seed)
    mlp, d = random_network(rng, 4, 3, 2, 20, activation=activation)
    g = backprop(forward(mlp, d))
    fd_w, fd_woh, fd_woi = fd_gradients(mlp, d)
    assert relative_max_error(g.input_weights, fd_w) <= 1e-5
    assert relative_max_error(g.output_weights, fd_woh) <= 1e-5
    assert relative_max_error(g.bypass_weights, fd_woi) <= 1e-5


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "linear"])
def test_input_weight_gradient_is_backprops_bit_for_bit(activation):
    mlp, d, trace = extreme_network(np.random.default_rng(40), activation)
    gw = input_weight_gradient(trace)
    assert same_bits(gw, backprop(trace).input_weights)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_per_pattern_kernels_match_their_expressions_bit_for_bit(activation):
    rng = np.random.default_rng(41)
    mlp, d, trace = extreme_network(rng, activation)
    assert same_bits(output_deltas(trace), expression_output_deltas(d, trace))
    assert same_bits(curvature_map(trace), expression_curvature_map(mlp, d, trace))
    d_w = extreme_array(rng, mlp.w.shape)
    d_woh = extreme_array(rng, mlp.woh.shape)
    d_woi = extreme_array(rng, mlp.woi.shape)
    assert same_bits(
        gn_curvature_along_input_direction(trace, d_w),
        expression_curvature_along_input_direction(mlp, d, trace, d_w),
    )
    assert same_bits(
        gn_curvature_along_direction(trace, d_w, d_woh, d_woi),
        expression_curvature_along_direction(mlp, d, trace, d_w, d_woh, d_woi),
    )


def test_input_hessian_zero_without_output_weights():
    rng = np.random.default_rng(2)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    h = gauss_newton_input_hessian(forward(mlp, d))
    assert np.abs(h).max() == 0.0


def test_input_hessian_hand_expansion_single_weighted_unit():
    # One unit, one input, one pattern: entries are
    # 2 * woh^2 * f'(net)^2 * x(n) * x(m) for each output weight woh.
    d = make_dataset(np.array([[0.7]]), np.array([[1.2]]))
    mlp = Mlp(
        w=np.array([[0.4, -0.3]]),
        woh=np.array([[1.5]]),
        woi=np.zeros((1, 2)),
        activation="sigmoid",
    )
    trace = forward(mlp, d)
    o = trace.activ[0, 0]
    fprime = o * (1.0 - o)
    x = d.inputs[0]
    expected = 2.0 * 1.5**2 * fprime**2 * np.outer(x, x)
    h = gauss_newton_input_hessian(trace)
    assert np.abs(h - expected).max() <= 1e-14


def test_input_hessian_symmetric_psd():
    rng = np.random.default_rng(3)
    mlp, d = random_network(rng, 4, 3, 2, 25)
    h = gauss_newton_input_hessian(forward(mlp, d))
    assert np.array_equal(h, h.T)
    probes = rng.standard_normal((100, h.shape[0]))
    quad = np.einsum("ri,ij,rj->r", probes, h, probes)
    assert quad.min() >= -1e-10


@pytest.mark.parametrize("width", [1, GRAM_TILE - 1, GRAM_TILE, GRAM_TILE + 1, 2 * GRAM_TILE + 1])
def test_gram_tiles_and_chunks_cover_every_column_and_pattern(width):
    # Pattern counts sit at the edges of the first tile's chunk, so its
    # last chunk is full, one short, or holds a single pattern.
    chunk = GEMM_SINGLE_THREAD_SIZE // min(width, GRAM_TILE) ** 2
    rng = np.random.default_rng(width)
    q = next(q for q in (5, 4, 3, 1) if width % q == 0)
    mlp = Mlp(
        w=np.zeros((width // q, 2)),
        woh=rng.standard_normal((3, width // q)),
        woi=np.zeros((3, 2)),
        activation="sigmoid",
    )
    for nv in (1, chunk - 1, chunk, chunk + 1):
        features = rng.standard_normal((nv, width // q, q))
        h = gauss_newton_gram(mlp, features)
        expected = untiled_gram(mlp, features)
        assert np.abs(h - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(h, h.T)
    # A cross product a.T @ b (b not a) tiles both sides; its first tile's
    # chunk depends on both widths.
    for width_b in (1, GRAM_TILE - 1, GRAM_TILE + 1, 2 * GRAM_TILE + 1):
        chunk = GEMM_SINGLE_THREAD_SIZE // (min(width, GRAM_TILE) * min(width_b, GRAM_TILE))
        for nv in (1, chunk - 1, chunk, chunk + 1):
            a = rng.standard_normal((nv, width))
            b = rng.standard_normal((nv, width_b))
            expected = a.T @ b
            got = pattern_sum(a, b)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_flatten_round_trip():
    n_inputs = 6
    for k in range(4):
        for n in range(n_inputs + 1):
            flat = flatten_index(k, n, n_inputs)
            assert unflatten_index(flat, n_inputs) == (k, n)
    g = np.arange(4 * 7, dtype=float).reshape(4, 7)
    assert np.array_equal(g.ravel().reshape(4, 7), g)


def test_pack_unpack_round_trip():
    mlp, d = random_network(np.random.default_rng(8), 3, 4, 2, 20)
    grads = backprop(forward(mlp, d))
    vec = pack(grads)
    assert vec.shape == (4 * 4 + 2 * 4 + 2 * 4,)
    back = unpack(vec, mlp)
    assert np.array_equal(back.input_weights, grads.input_weights)
    assert np.array_equal(back.output_weights, grads.output_weights)
    assert np.array_equal(back.bypass_weights, grads.bypass_weights)


def test_output_hessian_gradient_zero_weights_single_output():
    rng = np.random.default_rng(4)
    mlp, d = random_network(rng, 3, 2, 1, 15)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh), woi=np.zeros_like(mlp.woi))
    trace = forward(mlp, d)
    _, c = accumulate_correlations(trace)
    _, go = output_hessian_gradient(mlp, d, trace)
    assert np.abs(go - 2.0 * c.ravel()).max() <= 1e-12


def test_output_hessian_blocks_match_correlations():
    rng = np.random.default_rng(5)
    mlp, d = random_network(rng, 3, 2, 3, 15)
    trace = forward(mlp, d)
    r, _ = accumulate_correlations(trace)
    ho, _ = output_hessian_gradient(mlp, d, trace)
    nu = r.shape[0]
    for i in range(3):
        block = ho[i * nu : (i + 1) * nu, i * nu : (i + 1) * nu]
        assert np.abs(block - 2.0 * r).max() <= 1e-12
    off = ho[:nu, nu : 2 * nu]
    assert np.abs(off).max() == 0.0


def test_output_newton_step_reaches_closed_form():
    rng = np.random.default_rng(6)
    mlp, d = random_network(rng, 3, 2, 1, 25)
    trace = forward(mlp, d)
    r, c = accumulate_correlations(trace)
    ho, go = output_hessian_gradient(mlp, d, trace)
    step = solve_sym(ho, go).solution
    wo_new = np.hstack((mlp.woi, mlp.woh)).ravel() + step
    closed = solve_sym(r, c).solution.ravel()
    assert np.abs(wo_new - closed).max() <= 1e-8


def test_curvature_zero_without_output_weights():
    rng = np.random.default_rng(7)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    assert np.abs(curvature_map(forward(mlp, d))).max() == 0.0


def test_curvature_equals_hessian_diagonal():
    rng = np.random.default_rng(8)
    mlp, d = random_network(rng, 4, 3, 2, 20)
    trace = forward(mlp, d)
    hw = curvature_map(trace)
    h = gauss_newton_input_hessian(trace)
    assert np.abs(hw.ravel() - np.diag(h)).max() <= 1e-12 * (1.0 + np.abs(h).max())
    assert hw.min() >= 0.0


def test_curvature_matches_finite_difference_at_small_residual():
    rng = np.random.default_rng(9)
    mlp, d = near_interpolating_network(rng, 3, 2, 2, 25, noise=1e-4)
    trace = forward(mlp, d)
    hw = curvature_map(trace)
    for k, n in [(0, 0), (1, 2), (0, 3)]:
        def along(t, k=k, n=n):
            w = mlp.w.copy()
            w[k, n] += t
            return mse(replace(mlp, w=w), d)

        fd = fd_second_derivative(along, 3e-3)
        assert abs(hw[k, n] - fd) / abs(fd) <= 1e-4


def test_directional_curvature_equals_quadratic_form():
    rng = np.random.default_rng(10)
    mlp, d = random_network(rng, 4, 3, 2, 20)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    direct = gn_curvature_along_input_direction(trace, g.input_weights)
    gv = g.input_weights.ravel()
    quad = float(gv @ h @ gv)
    assert abs(direct - quad) <= 1e-10 * (1.0 + abs(quad))


def test_directional_curvature_matches_fd_second_derivative():
    rng = np.random.default_rng(11)
    mlp, d = near_interpolating_network(rng, 4, 3, 2, 30, noise=1e-4)
    trace = forward(mlp, d)
    g = backprop(trace)
    direct = gn_curvature_along_input_direction(trace, g.input_weights)

    def along(z):
        return mse(replace(mlp, w=mlp.w + z * g.input_weights), d)

    fd = fd_second_derivative(along, 3e-3)
    assert abs(direct - fd) / abs(fd) <= 1e-4


def test_full_hessian_layout_and_quadratic_form():
    # One and three outputs; feature widths nh·(n+1) + nh + n + 1 of 14, 69
    # and 131, so an output's own rows straddle a partial last Gram tile,
    # and 150 patterns, so full tiles sum over three pattern chunks.
    rng = np.random.default_rng(12)
    for (n, nh), m in itertools.product(((3, 2), (3, 13), (4, 21)), (1, 3)):
        mlp, d = random_network(rng, n, nh, m, 150)
        trace = forward(mlp, d)
        g = backprop(trace)
        h_full = expand_full_hessian(mlp, gauss_newton_full_hessian(trace))
        expected = dense_full_hessian(mlp, d, trace)
        assert np.abs(h_full - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(h_full, h_full.T)
        g_full = pack(g)
        niw = nh * (n + 1)
        h_in = gauss_newton_input_hessian(trace)
        assert np.abs(h_full[:niw, :niw] - h_in).max() <= 1e-12
        assert np.abs(g_full[:niw] - g.input_weights.ravel()).max() == 0.0
        direction = rng.standard_normal(h_full.shape[0])
        quad = float(direction @ h_full @ direction)
        d_w = direction[:niw].reshape(nh, n + 1)
        d_woh = direction[niw : niw + m * nh].reshape(m, nh)
        d_woi = direction[niw + m * nh :].reshape(m, n + 1)
        direct = gn_curvature_along_direction(trace, d_w, d_woh, d_woi)
        assert abs(direct - quad) <= 1e-10 * (1.0 + abs(quad))


def test_full_hessian_peak_allocation():
    # Matrix inversion at the benchmark's size: 2000 patterns, nh=30, four
    # outputs, 290 weights. A dense per-pattern output Jacobian alone would
    # take 2000·4·290·8 bytes = 18.6 MB; the 2000x185 features take 3.0 MB
    # and are the only pattern-sized array besides f' (0.5 MB), so a second
    # feature-sized temporary fails.
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    mlp = init_net_control(data, 30, 0)
    trace = output_weight_step(forward(mlp, data))
    assert np.all(trace.mlp.woh != 0.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gauss_newton_full_hessian(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_input_hessian_peak_allocation():
    # Matrix inversion at the benchmark's size: 2000 patterns, nh=30, five
    # inputs with the bias. The features f'·x take 2000·30·5·8 bytes = 2.4 MB
    # and the 150-column Gram and its scaled copies about 0.2 MB each, so a
    # second feature-sized array (a product made outside the one feature
    # buffer and copied in) fails.
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    mlp = init_net_control(data, 30, 0)
    trace = output_weight_step(forward(mlp, data))
    trace.fprime  # computed on first read; not this kernel's allocation
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gauss_newton_input_hessian(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6e6
