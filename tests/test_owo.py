import numpy as np

from amolf.dataset import make_dataset, take
from amolf.gradients import backprop
from amolf.network import Mlp, forward, mse
from amolf.owo import (
    Correlations,
    accumulate_correlations,
    augmented_basis,
    output_weight_step,
    solve_output_weights,
)
from support import random_network, scalar_correlations


def test_unit_basis_single_pattern():
    # Zero inputs with tanh activation make the bias entry the only nonzero
    # basis coordinate.
    d = make_dataset(np.zeros((1, 2)), np.array([[5.0]]))
    mlp = Mlp(
        w=np.zeros((2, 3)),
        woh=np.zeros((1, 2)),
        woi=np.zeros((1, 3)),
        activation="tanh",
    )
    corr = accumulate_correlations(d, forward(mlp, d))
    e = np.zeros(5)
    e[2] = 1.0  # bias position in [x1, x2, bias, o1, o2]
    assert np.array_equal(corr.r, np.outer(e, e))
    assert np.array_equal(corr.c, 5.0 * e[:, None])


def test_duplicating_patterns_leaves_correlations():
    rng = np.random.default_rng(0)
    mlp, d = random_network(rng, 3, 2, 2, 12)
    doubled = take(d, np.concatenate((np.arange(12), np.arange(12))))
    a = accumulate_correlations(d, forward(mlp, d))
    b = accumulate_correlations(doubled, forward(mlp, doubled))
    assert np.abs(a.r - b.r).max() <= 1e-12
    assert np.abs(a.c - b.c).max() <= 1e-12


def test_correlations_match_scalar_oracle():
    rng = np.random.default_rng(1)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    corr = accumulate_correlations(d, forward(mlp, d))
    r, c = scalar_correlations(mlp, d)
    assert np.abs(corr.r - r).max() <= 1e-12
    assert np.abs(corr.c - c).max() <= 1e-12


def test_identity_correlation_solve():
    c = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sol = solve_output_weights(Correlations(r=np.eye(3), c=c))
    assert np.array_equal(sol.solution, c)
    assert not sol.rank_deficient


def test_collinear_activations_rank_deficient_but_consistent():
    rng = np.random.default_rng(2)
    d = make_dataset(rng.standard_normal((30, 3)), rng.standard_normal((30, 2)))
    w_row = rng.standard_normal(4)
    mlp = Mlp(
        w=np.vstack((w_row, w_row)),  # two identical hidden units
        woh=np.zeros((2, 2)),
        woi=np.zeros((2, 4)),
        activation="sigmoid",
    )
    trace = forward(mlp, d)
    corr = accumulate_correlations(d, trace)
    sol = solve_output_weights(corr)
    assert sol.rank_deficient
    residual = corr.r @ sol.solution - corr.c
    assert np.abs(residual).max() <= 1e-8 * (1.0 + np.abs(corr.c).max())


def test_owo_is_minimum_under_perturbations():
    rng = np.random.default_rng(3)
    mlp, d = random_network(rng, 3, 3, 2, 40)
    solved, _ = output_weight_step(mlp, d, forward(mlp, d))
    base = mse(solved, d)
    from dataclasses import replace

    for _ in range(50):
        perturbed = replace(
            solved,
            woh=solved.woh + 1e-3 * rng.standard_normal(solved.woh.shape),
            woi=solved.woi + 1e-3 * rng.standard_normal(solved.woi.shape),
        )
        assert mse(perturbed, d) > base


def test_owo_never_increases_error():
    rng = np.random.default_rng(4)
    for seed in range(5):
        mlp, d = random_network(np.random.default_rng(seed), 3, 3, 2, 30)
        before = mse(mlp, d)
        solved, _ = output_weight_step(mlp, d, forward(mlp, d))
        assert mse(solved, d) <= before + 1e-12


def test_output_gradients_vanish_after_owo():
    rng = np.random.default_rng(5)
    mlp, d = random_network(rng, 3, 3, 2, 40)
    trace = forward(mlp, d)
    corr = accumulate_correlations(d, trace)
    solved, _ = output_weight_step(mlp, d, trace)
    g = backprop(solved, d, forward(solved, d))
    bound = 1e-6 * (1.0 + np.abs(corr.c).max())
    assert np.abs(g.output_weights).max() <= bound
    assert np.abs(g.bypass_weights).max() <= bound


def test_basis_ordering_inputs_then_activations():
    rng = np.random.default_rng(6)
    mlp, d = random_network(rng, 3, 2, 1, 8)
    trace = forward(mlp, d)
    basis = augmented_basis(d, trace)
    assert np.array_equal(basis[:, : d.n_inputs + 1], d.inputs)
    assert np.array_equal(basis[:, d.n_inputs + 1 :], trace.activ)


def test_output_weight_step_refreshes_outputs_bit_for_bit():
    for activation in ("sigmoid", "tanh"):
        mlp, d = random_network(np.random.default_rng(7), 4, 3, 2, 30, activation)
        trace = forward(mlp, d)
        solved, refreshed = output_weight_step(mlp, d, trace)
        wo = solve_output_weights(accumulate_correlations(d, trace)).solution.T
        fresh = forward(solved, d)
        assert np.array_equal(solved.w, mlp.w)
        # Bypass weights first, then hidden, as in augmented_basis.
        assert solved.woi.shape == mlp.woi.shape and solved.woh.shape == mlp.woh.shape
        assert np.array_equal(np.hstack((solved.woi, solved.woh)), wo)
        for name in ("activ", "output"):
            assert np.array_equal(getattr(refreshed, name), getattr(fresh, name))
