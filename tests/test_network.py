import tracemalloc

import numpy as np
import pytest

from amolf.dataset import gen_matrix_inversion, make_dataset, normalize_zero_mean, take
from amolf.network import (
    ACTIVATIONS,
    Mlp,
    _output_error,
    forward,
    init_net_control,
    linear_output,
    mse,
    save_mlp,
)
from support import (
    EXPRESSION_ACTIVATIONS,
    expression_linear_output,
    expression_output_mse,
    extreme_array,
    extreme_network,
    load_mlp,
    random_network,
    same_bits,
    scalar_forward,
    scalar_mse,
)


def _zero_mlp(n, nh, m, activation="sigmoid"):
    return Mlp(
        w=np.zeros((nh, n + 1)),
        woh=np.zeros((m, nh)),
        woi=np.zeros((m, n + 1)),
        activation=activation,
    )


def test_zero_weights_sigmoid():
    d = make_dataset(np.array([[0.3, -0.2], [1.0, 2.0]]), np.zeros((2, 1)))
    mlp = _zero_mlp(2, 3, 1)
    trace = forward(mlp, d)
    assert np.array_equal(d.inputs @ mlp.w.T, np.zeros((2, 3)))
    assert np.array_equal(trace.activ, 0.5 * np.ones((2, 3)))
    assert np.array_equal(trace.output, np.zeros((2, 1)))


def test_bypass_passthrough():
    rng = np.random.default_rng(0)
    d = make_dataset(rng.standard_normal((6, 3)), np.zeros((6, 4)))
    mlp = Mlp(
        w=rng.standard_normal((2, 4)),
        woh=np.zeros((4, 2)),
        woi=np.eye(4),
        activation="sigmoid",
    )
    trace = forward(mlp, d)
    assert np.abs(trace.output - d.inputs).max() == 0.0


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "linear"])
def test_forward_matches_scalar_oracle(activation):
    rng = np.random.default_rng(1)
    mlp, d = random_network(rng, 3, 4, 2, 12, activation=activation)
    trace = forward(mlp, d)
    net, activ, output = scalar_forward(mlp, d)
    assert np.abs(d.inputs @ mlp.w.T - net).max() <= 1e-12
    assert np.abs(trace.activ - activ).max() <= 1e-12
    assert np.abs(trace.output - output).max() <= 1e-12


@pytest.mark.parametrize("activation", ["linear", "sigmoid", "tanh"])
def test_forward_pass_is_write_protected(activation):
    # A pass outlives the iteration that ran it, so nothing may write into it.
    rng = np.random.default_rng(6)
    mlp, d = random_network(rng, 3, 4, 2, 10, activation=activation)
    trace = forward(mlp, d)
    # The pass records the network and dataset it ran, by identity.
    assert trace.mlp is mlp and trace.dataset is d
    # Outputs and f' are computed on first read and kept, write-protected.
    assert trace.output is trace.output and trace.fprime is trace.fprime
    for arr in (trace.activ, trace.output, trace.fprime):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0


def test_mse_zero_when_outputs_equal_targets():
    rng = np.random.default_rng(2)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    assert mse(mlp, exact) == 0.0


def test_mse_zero_net_unit_targets():
    for nv in (1, 7, 40):
        d = make_dataset(np.random.default_rng(nv).standard_normal((nv, 2)), np.ones((nv, 1)))
        assert mse(_zero_mlp(2, 3, 1, activation="tanh"), d) == 1.0


def test_mse_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    mlp, d = random_network(rng, 4, 3, 2, 15)
    assert abs(mse(mlp, d) - scalar_mse(mlp, d)) <= 1e-12 * (1.0 + scalar_mse(mlp, d))


def test_mse_permutation_invariant():
    rng = np.random.default_rng(4)
    mlp, d = random_network(rng, 3, 3, 2, 20)
    perm = rng.permutation(20)
    shuffled = take(d, perm)
    assert abs(mse(mlp, d) - mse(mlp, shuffled)) <= 1e-12


@pytest.mark.parametrize("name", ["sigmoid", "tanh"])
def test_activation_derivative_identity(name):
    act, deriv = ACTIVATIONS[name]
    xs = np.linspace(-4.0, 4.0, 33)
    h = 1e-8
    fd = (act(xs + h) - act(xs - h)) / (2.0 * h)
    analytic = deriv(act(xs))
    assert np.abs(analytic - fd).max() / np.abs(fd).max() <= 1e-6


@pytest.mark.parametrize("name", ["sigmoid", "tanh"])
def test_activations_match_their_expressions_bit_for_bit(name):
    x = extreme_array(np.random.default_rng(20), (257, 7))
    before = x.copy()
    act, deriv = ACTIVATIONS[name]
    expression_act, expression_deriv = EXPRESSION_ACTIVATIONS[name]
    activ = act(x)
    assert same_bits(activ, expression_act(x))
    # The derivatives take any array, not only activations.
    for values in (activ, x):
        assert same_bits(deriv(values), expression_deriv(values))
    assert same_bits(x, before)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_outputs_and_error_match_their_expressions_bit_for_bit(activation):
    rng = np.random.default_rng(21)
    mlp, d, trace = extreme_network(rng, activation)
    activ = extreme_array(rng, trace.activ.shape)
    assert same_bits(linear_output(mlp, d, activ), expression_linear_output(mlp, d, activ))
    assert same_bits(trace.fprime, EXPRESSION_ACTIVATIONS[activation][1](trace.activ))
    assert same_bits(trace.error, expression_output_mse(d, trace.output))
    assert same_bits(mse(mlp, d), trace.error)
    # Any outputs, not only a network's: the kernel behind ``error``.
    output = extreme_array(rng, trace.output.shape)
    assert same_bits(_output_error(d, output), expression_output_mse(d, output))


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_forward_peak_allocation_is_its_outputs_plus_one_buffer(activation):
    # The k-fold benchmark's training folds: 16,000 patterns, nh=10, four
    # outputs. Beyond the activations (1.28 MB) and outputs (0.51 MB) it
    # returns, forward needs one activation-sized array, the net values;
    # the sigmoid as one expression made three more.
    data = normalize_zero_mean(gen_matrix_inversion(16000, 0))
    mlp = init_net_control(data, 10, 0, activation)
    tracemalloc.start()
    try:
        trace = forward(mlp, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * trace.activ.nbytes + trace.output.nbytes


def test_batch_equals_per_pattern():
    rng = np.random.default_rng(5)
    mlp, d = random_network(rng, 3, 4, 2, 9)
    batch = forward(mlp, d)
    for p in range(d.n_patterns):
        single = forward(mlp, take(d, np.array([p])))
        assert np.abs(single.output[0] - batch.output[p]).max() <= 1e-12


def test_init_net_control_statistics():
    data = normalize_zero_mean(gen_matrix_inversion(500, 8))
    mlp = init_net_control(data, 12, seed=21)
    net = data.inputs @ mlp.w.T
    assert np.abs(net.mean(axis=0) - 0.5).max() <= 1e-6
    assert np.abs(net.var(axis=0) - 1.0).max() <= 1e-3
    assert np.array_equal(mlp.woh, np.zeros_like(mlp.woh))
    assert np.array_equal(mlp.woi, np.zeros_like(mlp.woi))


def test_init_net_control_deterministic():
    data = normalize_zero_mean(gen_matrix_inversion(100, 8))
    a = init_net_control(data, 5, seed=3)
    b = init_net_control(data, 5, seed=3)
    assert np.array_equal(a.w, b.w)


def test_init_net_control_rejects_a_negative_seed():
    data = normalize_zero_mean(gen_matrix_inversion(50, 0))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        init_net_control(data, 3, -1)


def test_mse_rejects_a_network_with_the_wrong_output_count():
    # A 1-output net on the 4-output matrix-inversion set; numpy would
    # broadcast its outputs against the four target columns.
    data = normalize_zero_mean(gen_matrix_inversion(50, 0))
    mlp = _zero_mlp(data.n_inputs, 3, 1)
    with pytest.raises(ValueError, match=r"^network has 1 outputs, dataset has 4$"):
        mse(mlp, data)


def test_init_net_control_degenerate_dataset():
    # A single pattern has zero net variance for every unit.
    d = make_dataset(np.array([[0.5, -0.5]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        init_net_control(d, 3, seed=0)


def test_mlp_validation():
    with pytest.raises(ValueError):
        Mlp(w=np.zeros((2, 3)), woh=np.zeros((1, 3)), woi=np.zeros((1, 3)))
    with pytest.raises(ValueError, match="activation"):
        Mlp(w=np.zeros((2, 3)), woh=np.zeros((1, 2)), woi=np.zeros((1, 3)), activation="relu")
    with pytest.raises(ValueError):
        Mlp(w=np.full((2, 3), np.nan), woh=np.zeros((1, 2)), woi=np.zeros((1, 3)))


def test_mlp_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mlp, _ = random_network(rng, 4, 3, 2, 5, activation="tanh")
    path = tmp_path / "model.txt"
    save_mlp(mlp, str(path))
    loaded = load_mlp(str(path))
    assert loaded.activation == "tanh"
    assert np.array_equal(loaded.w, mlp.w)
    assert np.array_equal(loaded.woh, mlp.woh)
    assert np.array_equal(loaded.woi, mlp.woi)
