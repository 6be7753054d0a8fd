from dataclasses import replace

import numpy as np
import pytest

from amolf.dataset import make_dataset
from amolf.gradients import (
    GEMM_SINGLE_THREAD_SIZE,
    GRAM_TILE,
    backprop,
    curvature_map,
    gauss_newton_full_hessian,
    gauss_newton_gram,
    gauss_newton_input_hessian,
    gn_curvature_along_direction,
    gn_curvature_along_input_direction,
    pack,
    unpack,
)
from amolf.linalg import solve_sym
from amolf.network import Mlp, forward, mse
from amolf.owo import accumulate_correlations
from support import (
    fd_gradients,
    fd_second_derivative,
    flatten_index,
    near_interpolating_network,
    output_hessian_gradient,
    random_network,
    relative_max_error,
    unflatten_index,
    untiled_gram,
)


def test_backprop_zero_at_interpolation():
    rng = np.random.default_rng(0)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    g = backprop(mlp, exact, forward(mlp, exact))
    assert np.abs(g.input_weights).max() == 0.0
    assert np.abs(g.output_weights).max() == 0.0
    assert np.abs(g.bypass_weights).max() == 0.0


def test_backprop_zero_input_gradient_without_output_weights():
    rng = np.random.default_rng(1)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    g = backprop(mlp, d, forward(mlp, d))
    assert np.abs(g.input_weights).max() == 0.0


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("seed", [0, 1])
def test_backprop_matches_finite_differences(seed, activation):
    rng = np.random.default_rng(100 + seed)
    mlp, d = random_network(rng, 4, 3, 2, 20, activation=activation)
    g = backprop(mlp, d, forward(mlp, d))
    fd_w, fd_woh, fd_woi = fd_gradients(mlp, d)
    assert relative_max_error(g.input_weights, fd_w) <= 1e-5
    assert relative_max_error(g.output_weights, fd_woh) <= 1e-5
    assert relative_max_error(g.bypass_weights, fd_woi) <= 1e-5


def test_input_hessian_zero_without_output_weights():
    rng = np.random.default_rng(2)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    h = gauss_newton_input_hessian(mlp, d, forward(mlp, d))
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
    h = gauss_newton_input_hessian(mlp, d, trace)
    assert np.abs(h - expected).max() <= 1e-14


def test_input_hessian_symmetric_psd():
    rng = np.random.default_rng(3)
    mlp, d = random_network(rng, 4, 3, 2, 25)
    h = gauss_newton_input_hessian(mlp, d, forward(mlp, d))
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
    grads = backprop(mlp, d, forward(mlp, d))
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
    corr = accumulate_correlations(d, trace)
    _, go = output_hessian_gradient(mlp, d, trace)
    assert np.abs(go - 2.0 * corr.c.ravel()).max() <= 1e-12


def test_output_hessian_blocks_match_correlations():
    rng = np.random.default_rng(5)
    mlp, d = random_network(rng, 3, 2, 3, 15)
    trace = forward(mlp, d)
    corr = accumulate_correlations(d, trace)
    ho, _ = output_hessian_gradient(mlp, d, trace)
    nu = corr.r.shape[0]
    for i in range(3):
        block = ho[i * nu : (i + 1) * nu, i * nu : (i + 1) * nu]
        assert np.abs(block - 2.0 * corr.r).max() <= 1e-12
    off = ho[:nu, nu : 2 * nu]
    assert np.abs(off).max() == 0.0


def test_output_newton_step_reaches_closed_form():
    rng = np.random.default_rng(6)
    mlp, d = random_network(rng, 3, 2, 1, 25)
    trace = forward(mlp, d)
    corr = accumulate_correlations(d, trace)
    ho, go = output_hessian_gradient(mlp, d, trace)
    step = solve_sym(ho, go).solution
    wo_new = np.hstack((mlp.woi, mlp.woh)).ravel() + step
    closed = solve_sym(corr.r, corr.c).solution.ravel()
    assert np.abs(wo_new - closed).max() <= 1e-8


def test_curvature_zero_without_output_weights():
    rng = np.random.default_rng(7)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    assert np.abs(curvature_map(mlp, d, forward(mlp, d))).max() == 0.0


def test_curvature_equals_hessian_diagonal():
    rng = np.random.default_rng(8)
    mlp, d = random_network(rng, 4, 3, 2, 20)
    trace = forward(mlp, d)
    hw = curvature_map(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    assert np.abs(hw.ravel() - np.diag(h)).max() <= 1e-12 * (1.0 + np.abs(h).max())
    assert hw.min() >= 0.0


def test_curvature_matches_finite_difference_at_small_residual():
    rng = np.random.default_rng(9)
    mlp, d = near_interpolating_network(rng, 3, 2, 2, 25, noise=1e-4)
    trace = forward(mlp, d)
    hw = curvature_map(mlp, d, trace)
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
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    direct = gn_curvature_along_input_direction(mlp, d, trace, g.input_weights)
    gv = g.input_weights.ravel()
    quad = float(gv @ h @ gv)
    assert abs(direct - quad) <= 1e-10 * (1.0 + abs(quad))


def test_directional_curvature_matches_fd_second_derivative():
    rng = np.random.default_rng(11)
    mlp, d = near_interpolating_network(rng, 4, 3, 2, 30, noise=1e-4)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    direct = gn_curvature_along_input_direction(mlp, d, trace, g.input_weights)

    def along(z):
        return mse(replace(mlp, w=mlp.w + z * g.input_weights), d)

    fd = fd_second_derivative(along, 3e-3)
    assert abs(direct - fd) / abs(fd) <= 1e-4


def test_full_hessian_layout_and_quadratic_form():
    rng = np.random.default_rng(12)
    mlp, d = random_network(rng, 3, 2, 2, 15)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    h_full = gauss_newton_full_hessian(mlp, d, trace)
    g_full = pack(g)
    niw = mlp.n_hidden * (mlp.n_inputs + 1)
    h_in = gauss_newton_input_hessian(mlp, d, trace)
    assert np.abs(h_full[:niw, :niw] - h_in).max() <= 1e-12
    assert np.abs(g_full[:niw] - g.input_weights.ravel()).max() == 0.0
    direction = rng.standard_normal(h_full.shape[0])
    quad = float(direction @ h_full @ direction)
    nh, m, n1 = mlp.n_hidden, mlp.n_outputs, mlp.n_inputs + 1
    d_w = direction[:niw].reshape(nh, n1)
    d_woh = direction[niw : niw + m * nh].reshape(m, nh)
    d_woi = direction[niw + m * nh :].reshape(m, n1)
    direct = gn_curvature_along_direction(mlp, d, trace, d_w, d_woh, d_woi)
    assert abs(direct - quad) <= 1e-10 * (1.0 + abs(quad))
