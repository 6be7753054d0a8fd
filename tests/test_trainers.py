import dataclasses
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amolf.network
import amolf.owo
import amolf.trainers
from amolf.dataset import gen_matrix_inversion, make_dataset, normalize_zero_mean
from amolf.gradients import (
    GN_BLOCK,
    backprop,
    curvature_map,
    damped_gauss_newton_step,
    gauss_newton_full_hessian,
    gauss_newton_input_hessian,
    input_weight_gradient,
    pack,
)
from amolf.linalg import pattern_sum, solve_sym
from amolf.network import ForwardTrace, Mlp, forward, init_net_control, mse
from amolf.trainers import (
    ALGORITHMS,
    DEFAULT_SEARCH_PERIOD,
    LM_LAMBDA_MAX,
    LM_LAMBDA_MIN,
    AmolfState,
    adapt_group_count,
    apply_grouped_step,
    assemble_grouped_direct,
    assemble_grouped_from_hessian,
    build_partition,
    fletcher_reeves_direction,
    init_state,
    initial_group_search,
    iterate,
    lm_step,
    olf,
)
from amolf import cost
from support import (
    LM_SCHEDULE_START,
    dense_full_hessian,
    expand_full_hessian,
    expression_fprime_input_features,
    expression_full_hessian,
    expression_grouped_hessian,
    expression_input_hessian,
    gauss_elimination_solve,
    grouped_gradient_from_residuals,
    grouped_quadratic_drop,
    lm_schedule_iteration,
    matrix_relative_error,
    molf_solve,
    near_interpolating_network,
    nested_split_chain,
    newton_step,
    quadratic_line_minimum,
    random_network,
    random_spd,
    rank_partition,
    relative_max_error,
    same_bits,
    single_group_partition,
)


# ---------------------------------------------------------------------------
# Partitioning


def test_build_partition_forced_example():
    hw = np.array([[5.0, 1.0, 4.0, 2.0, 3.0]])
    group = build_partition(hw, 2)
    assert group.max() + 1 == 2
    assert np.array_equal(group[0], [0, 1, 0, 1, 0])
    assert np.array_equal(np.bincount(group[0]), [3, 2])
    assert set(np.flatnonzero(group[0] == 0)) == {0, 2, 4}
    assert set(np.flatnonzero(group[0] == 1)) == {3, 1}


def test_build_partition_single_group():
    hw = np.random.default_rng(0).random((3, 5))
    group = build_partition(hw, 1)
    assert group.max() + 1 == 1
    assert np.array_equal(group, np.zeros((3, 5), dtype=int))


def test_build_partition_all_singletons():
    hw = np.array([[1.0, 3.0, 2.0]])
    group = build_partition(hw, 3)
    assert np.array_equal(np.bincount(group[0]), [1, 1, 1])
    assert np.array_equal(group[0], [2, 0, 1])


def test_build_partition_ties_break_ascending():
    hw = np.array([[2.0, 2.0, 2.0, 2.0]])
    group = build_partition(hw, 2)
    assert np.array_equal(group[0], [0, 0, 1, 1])


def test_build_partition_range_check():
    hw = np.ones((2, 4))
    with pytest.raises(ValueError):
        build_partition(hw, 0)
    with pytest.raises(ValueError):
        build_partition(hw, 5)


def test_partition_covers_each_index_once():
    rng = np.random.default_rng(1)
    hw = rng.random((4, 7))
    for ng in range(1, 8):
        group = build_partition(hw, ng)
        assert group.shape == (4, 7)
        assert group.min() == 0 and group.max() == ng - 1
        for k in range(4):
            sizes = np.bincount(group[k], minlength=ng)
            assert int(sizes.sum()) == 7
            assert sizes.max() - sizes.min() <= 1
            assert np.all(np.diff(sizes) <= 0)  # larger groups first


@pytest.mark.parametrize("seed", range(20))
def test_build_partition_matches_sorted_rank_oracle(seed):
    # Curvatures drawn from three values, so most rows carry ties.
    rng = np.random.default_rng(seed)
    nh, n1 = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    hw = rng.integers(0, 3, size=(nh, n1)).astype(float)
    for ng in range(1, n1 + 1):
        group = build_partition(hw, ng)
        assert group.max() + 1 == ng
        assert np.array_equal(group, rank_partition(hw, ng))


# ---------------------------------------------------------------------------
# Step-size primitives


def test_olf_bilinear_form_two_ways():
    rng = np.random.default_rng(2)
    mlp, d = random_network(rng, 4, 3, 2, 20)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    numerator = float((g.input_weights**2).sum())
    z = olf(trace, g.input_weights)
    gv = g.input_weights.ravel()
    quad = float(gv @ h @ gv)
    assert abs(z - numerator / quad) <= 1e-10 * (1.0 + abs(z))


def test_olf_exact_on_linear_single_unit():
    rng = np.random.default_rng(42)
    mlp, d = random_network(rng, 3, 1, 1, 25, activation="linear")
    trace = forward(mlp, d)
    g = backprop(trace)
    z = olf(trace, g.input_weights)

    def along(step):
        return mse(replace(mlp, w=mlp.w + step * g.input_weights), d)

    assert abs(z - quadratic_line_minimum(along)) <= 1e-8


def test_olf_brackets_the_minimum_near_quadratic():
    rng = np.random.default_rng(3)
    mlp, d = near_interpolating_network(rng, 4, 3, 2, 30, noise=1e-4)
    trace = forward(mlp, d)
    g = backprop(trace)
    z = olf(trace, g.input_weights)

    def along(step):
        return mse(replace(mlp, w=mlp.w + step * g.input_weights), d)

    assert along(z) <= along(0.5 * z)
    assert along(z) <= along(2.0 * z)


def test_olf_fallback_on_zero_curvature():
    rng = np.random.default_rng(4)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    trace = forward(mlp, d)
    g = backprop(trace)
    assert olf(trace, g.input_weights) == 1e-3


def test_molf_single_unit_equals_olf():
    rng = np.random.default_rng(7)
    mlp, d = random_network(rng, 4, 1, 2, 30)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    z = molf_solve(h, g.input_weights)
    assert z.shape == (1,)
    assert abs(z[0] - olf(trace, g.input_weights)) <= 1e-10


@pytest.mark.parametrize("nv", [1, GN_BLOCK - 1, GN_BLOCK, 3 * GN_BLOCK, 3 * GN_BLOCK + 1])
def test_full_hessian_sums_its_pattern_blocks_in_block_order(nv):
    # Below one block, at one and three whole blocks, and with a one-pattern
    # last block, the Gram is the broadcast features' block Grams added in
    # block order. Within one block that is one pattern_sum over every
    # pattern; past it the sums associate differently, by rounding only.
    mlp, d = random_network(np.random.default_rng(nv), 4, 30, 4, nv)
    trace = forward(mlp, d)
    gram = gauss_newton_full_hessian(trace)
    assert same_bits(gram, expression_full_hessian(trace))
    features = np.hstack(
        (expression_fprime_input_features(trace).reshape(nv, -1), trace.activ, d.inputs)
    )
    whole = (2.0 / nv) * pattern_sum(features, features)
    if nv <= GN_BLOCK:
        assert same_bits(gram, whole)
    else:
        assert matrix_relative_error(gram, whole) <= 1e-14


def test_molf_dual_construction():
    rng = np.random.default_rng(8)
    mlp, d = random_network(rng, 4, 3, 2, 25)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    group = single_group_partition(mlp.n_hidden, d.n_inputs + 1)
    ha_direct, ga_direct = assemble_grouped_direct(trace, g.input_weights, group)
    ha_comp, ga_comp = assemble_grouped_from_hessian(h, g.input_weights, group)
    assert matrix_relative_error(ha_direct, ha_comp) <= 1e-10
    assert matrix_relative_error(ga_direct, ga_comp) <= 1e-10


def _feature_trace(case):
    if case == "saturated":
        # Unit 0's bias weight saturates its sigmoid: its activation is
        # exactly 1.0, so f' is +0.0 and its products with the negative
        # inputs are -0.0.
        mlp, d = random_network(np.random.default_rng(25), 4, 30, 4, 2000)
        w = mlp.w.copy()
        w[0, -1] = 1000.0
        return forward(replace(mlp, w=w), d)
    state = _matinv_setup(algo="amolf", nh=case, nv=2000, seed=0)
    for _ in range(6):
        state = iterate(state)
    return forward(state.mlp, state.dataset)


@pytest.mark.parametrize("case", [29, 30, "saturated"])
def test_gauss_newton_feature_kernels_keep_the_broadcast_bits(case):
    # The kernels build f'·x and f'·(x·t) without the plain expressions'
    # stride-0 broadcast of f'; every Hessian keeps their bytes, and on the
    # saturated trace the oracle's -0.0 features (stored by the kernels as
    # +0.0) give the same Grams.
    trace = _feature_trace(case)
    if case == "saturated":
        assert np.all(trace.activ[:, 0] == 1.0)
        features = expression_fprime_input_features(trace)
        assert np.any(np.signbit(features[features == 0.0]))
    assert same_bits(gauss_newton_input_hessian(trace), expression_input_hessian(trace))
    assert same_bits(gauss_newton_full_hessian(trace), expression_full_hessian(trace))
    gw = input_weight_gradient(trace)
    curvature = curvature_map(trace)
    for ng in range(1, trace.dataset.n_inputs + 2):
        group = build_partition(curvature, ng)
        hessian, _ = assemble_grouped_direct(trace, gw, group)
        assert same_bits(hessian, expression_grouped_hessian(trace, gw, group))


def test_molf_zero_gradient_gives_zero_steps():
    rng = np.random.default_rng(9)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    trace = forward(mlp, exact)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    assert np.array_equal(molf_solve(h, g.input_weights), np.zeros(mlp.n_hidden))


def test_owo_newton_first_iteration_leaves_input_weights():
    # The starting network's output weights are zero, so its input-weight
    # gradient and Hessian are zero and every pivot of the solve is skipped.
    state = _matinv_setup(algo="owo-newton", nh=4, nv=300, seed=10)
    assert same_bits(iterate(state).mlp.w, state.mlp.w)


def test_owo_newton_later_iterations_solve_their_input_hessian():
    state = iterate(_matinv_setup(algo="owo-newton", nh=4, nv=300, seed=10))
    for _ in range(3):
        trace = forward(state.mlp, state.dataset)
        gw = input_weight_gradient(trace)
        expected = gauss_elimination_solve(gauss_newton_input_hessian(trace), gw.ravel())
        stepped = iterate(state)
        dw = stepped.mlp.w - state.mlp.w
        assert relative_max_error(dw, expected.reshape(gw.shape)) <= 1e-6
        state = stepped


def test_newton_step_near_quadratic_captures_gap():
    rng = np.random.default_rng(200)
    mlp, d = near_interpolating_network(rng, 3, 2, 2, 40, noise=1e-4)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    dw = newton_step(h, g.input_weights)
    e0 = mse(mlp, d)
    e1 = mse(replace(mlp, w=mlp.w + dw), d)
    grid = np.linspace(0.0, 2.0, 401)
    best = min(mse(replace(mlp, w=mlp.w + t * dw), d) for t in grid)
    assert e0 - e1 >= 0.9 * (e0 - best)


def test_fletcher_reeves_first_direction_is_gradient():
    g = np.array([1.0, -2.0, 3.0])
    p = fletcher_reeves_direction(g)
    assert np.array_equal(p, g)
    assert p is not g


def test_fletcher_reeves_ratio_arithmetic():
    p = fletcher_reeves_direction(np.array([2.0]), np.array([1.0]), 1.0)
    assert np.array_equal(p, np.array([6.0]))  # ratio 4/1, direction 2 + 4*1


# ---------------------------------------------------------------------------
# Grouped assembly and step


def test_grouped_assembly_matches_hessian_compression():
    rng = np.random.default_rng(11)
    mlp, d = random_network(rng, 4, 3, 2, 25)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    hw = curvature_map(trace)
    gw = g.input_weights
    for ng in (1, 2, 3, 5):
        group = build_partition(hw, ng)
        ha_d, ga_d = assemble_grouped_direct(trace, gw, group)
        ha_i, ga_i = assemble_grouped_from_hessian(h, gw, group)
        assert matrix_relative_error(ha_d, ha_i) <= 1e-10
        assert matrix_relative_error(ga_d, ga_i) <= 1e-10
        ga_res = grouped_gradient_from_residuals(mlp, d, trace, gw, group)
        assert matrix_relative_error(ga_res, ga_d) <= 1e-10


def test_grouped_step_zero_leaves_weights():
    rng = np.random.default_rng(12)
    mlp, d = random_network(rng, 4, 3, 2, 10)
    trace = forward(mlp, d)
    g = backprop(trace)
    group = build_partition(curvature_map(trace), 2)
    stepped = apply_grouped_step(mlp, g.input_weights, group, np.zeros((3, 2)))
    assert np.array_equal(stepped.w, mlp.w)


def test_grouped_step_touches_every_weight_once():
    rng = np.random.default_rng(13)
    mlp, d = random_network(rng, 4, 3, 2, 10)
    trace = forward(mlp, d)
    g = backprop(trace)
    group = build_partition(curvature_map(trace), 3)
    stepped = apply_grouped_step(mlp, g.input_weights, group, np.ones((3, 3)))
    assert np.array_equal(stepped.w, mlp.w + g.input_weights)


def test_grouped_step_all_singletons_is_newton():
    rng = np.random.default_rng(33)
    mlp, d = random_network(rng, 3, 3, 2, 40)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    gw = g.input_weights
    dw_newton = newton_step(h, gw)
    group = build_partition(curvature_map(trace), d.n_inputs + 1)
    ha, ga = assemble_grouped_from_hessian(h, gw, group)
    z = solve_sym(ha, ga).solution
    stepped = apply_grouped_step(mlp, gw, group, z)
    assert matrix_relative_error(stepped.w - mlp.w, dw_newton) <= 1e-6


def _one_group_trace(case, nh, activation):
    """The pass after two owo-molf iterations (the starting network's output
    weights, hence its gradient, are zero) on matinv (2000 patterns) or on
    120 seeded patterns of ``case`` inputs with three sine targets."""
    if case == "matinv":
        data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    else:
        rng = np.random.default_rng(case)
        raw = rng.standard_normal((120, case))
        data = make_dataset(raw, np.sin(raw @ rng.standard_normal((case, 3))))
    state = init_state("owo-molf", init_net_control(data, nh, 0, activation), data)
    state = iterate(iterate(state))
    return forward(state.mlp, data)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("case, nh", [("matinv", 30), ("matinv", 1), (2, 4), (16, 4)])
def test_one_group_step_has_the_bits_of_the_grouped_path(case, nh, activation):
    # At one group the step builds its system without a group map; its
    # network has the bytes of the general path's partition, assembly,
    # solve and update. 16 inputs cross UNTRANSPOSED_MAX_INNER, and their
    # 17 squared gradients per unit sum more than 8 terms. A gradient
    # holding -0.0, in one entry and in a whole row (whose pivot is
    # skipped), is checked too.
    trace = _one_group_trace(case, nh, activation)
    gw = input_weight_gradient(trace)
    assert gw.all()
    signed_zeros = gw.copy()
    signed_zeros[-1, 0] = -0.0
    signed_zeros[0] = -0.0
    for g in (gw, signed_zeros):
        group = single_group_partition(*g.shape)
        ha, ga = assemble_grouped_direct(trace, g, group)
        general = apply_grouped_step(trace.mlp, g, group, solve_sym(ha, ga).solution)
        stepped = amolf.trainers._grouped_step(trace, g, 1).mlp
        for name in ("w", "woh", "woi"):
            assert same_bits(getattr(stepped, name), getattr(general, name)), name


def test_quadratic_surrogate_monotone_under_splitting():
    rng = np.random.default_rng(14)
    for seed in range(5):
        r = np.random.default_rng(seed)
        h = random_spd(r, 16)
        g = r.standard_normal(16)
        drops = [
            grouped_quadratic_drop(h, g, groups)
            for groups in nested_split_chain(16, (1, 2, 4))
        ]
        assert drops[1] <= drops[0] + 1e-12
        assert drops[2] <= drops[1] + 1e-12


def test_refining_per_unit_groups_never_hurts_on_quadratic_model():
    # One group per unit versus two groups per unit, on the quadratic model
    # built from a real network's curvature.
    rng = np.random.default_rng(15)
    mlp, d = random_network(rng, 4, 3, 2, 30)
    trace = forward(mlp, d)
    g = backprop(trace)
    h = gauss_newton_input_hessian(trace)
    gv = g.input_weights.ravel()
    hw = curvature_map(trace)
    n1 = d.n_inputs + 1

    def flat_groups(ng):
        group = build_partition(hw, ng)
        groups = []
        for k in range(mlp.n_hidden):
            for c in range(ng):
                members = np.flatnonzero(group[k] == c)
                groups.append(k * n1 + members)
        return groups

    drop_unit = grouped_quadratic_drop(h, gv, flat_groups(1))
    drop_refined = grouped_quadratic_drop(h, gv, flat_groups(2))
    assert drop_refined <= drop_unit + 1e-12


# ---------------------------------------------------------------------------
# Group-count adaptation and search


def test_adapt_group_count_rules():
    assert adapt_group_count(4, 1.0, 2.0, 16) == 8
    assert adapt_group_count(4, 2.0, 1.0, 16) == 2
    assert adapt_group_count(4, 1.0, 1.0, 16) == 4
    assert adapt_group_count(16, 1.0, 2.0, 16) == 16  # capped
    assert adapt_group_count(1, 2.0, 1.0, 16) == 1
    assert adapt_group_count(3, 2.0, 1.0, 16) == 2  # ceil(3/2)


def test_search_ties_resolve_to_one_group():
    # Orthogonal design with dyadic weights: the input-weight Hessian is
    # exactly 2·I, so every candidate count steps to w + g/2 and the tie
    # resolves to the smallest count, whose network is returned.
    x = np.array([[1, 1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, 1]], dtype=float)
    d = make_dataset(x, np.array([[1.0], [-0.5], [0.25], [2.0]]))
    mlp = Mlp(
        w=np.array([[0.25, 0.5, -0.25, 0.5]]),
        woh=np.array([[1.0]]),
        woi=np.zeros((1, 4)),
        activation="linear",
    )
    trace = forward(mlp, d)
    g = backprop(trace)
    chosen, stepped_trace = initial_group_search(trace, g.input_weights)
    stepped = stepped_trace.mlp
    assert chosen == 1
    assert np.array_equal(stepped.w, mlp.w + 0.5 * g.input_weights)
    assert np.array_equal(stepped.woh, mlp.woh) and np.array_equal(stepped.woi, mlp.woi)


def test_search_returns_argmin_of_candidates():
    rng = np.random.default_rng(16)
    mlp, d = random_network(rng, 4, 3, 2, 40)
    trace = forward(mlp, d)
    gw = backprop(trace).input_weights
    h = gauss_newton_input_hessian(trace)
    hw = h.diagonal().reshape(gw.shape)
    chosen, stepped_trace = initial_group_search(trace, gw)
    stepped = stepped_trace.mlp
    candidates = []
    for ng in range(1, d.n_inputs + 1):
        group = build_partition(hw, ng)
        ha, ga = assemble_grouped_from_hessian(h, gw, group)
        z = solve_sym(ha, ga).solution
        candidates.append(apply_grouped_step(mlp, gw, group, z))
    errors = [mse(candidate, d) for candidate in candidates]
    assert chosen == 1 + int(np.argmin(errors))
    assert errors[chosen - 1] == min(errors)
    assert np.array_equal(stepped.w, candidates[chosen - 1].w)
    # The returned trace is the winner's forward pass, bit for bit.
    fresh = forward(stepped, d)
    assert np.array_equal(stepped_trace.activ, fresh.activ)
    assert np.array_equal(stepped_trace.output, fresh.output)


def test_search_interpolated_matches_direct_assembly_selection():
    rng = np.random.default_rng(17)
    mlp, d = random_network(rng, 4, 3, 2, 40)
    trace = forward(mlp, d)
    gw = backprop(trace).input_weights
    hw = curvature_map(trace)
    chosen, _ = initial_group_search(trace, gw)
    errors = []
    for ng in range(1, d.n_inputs + 1):
        group = build_partition(hw, ng)
        ha, ga = assemble_grouped_direct(trace, gw, group)
        z = solve_sym(ha, ga).solution
        errors.append(mse(apply_grouped_step(mlp, gw, group, z), d))
    assert chosen == 1 + int(np.argmin(errors))


# ---------------------------------------------------------------------------
# Full iterations


def _matinv_setup(nh=10, nv=300, seed=0, algo="owo-molf", **kwargs):
    data = normalize_zero_mean(gen_matrix_inversion(nv, seed))
    mlp = init_net_control(data, nh, seed)
    return init_state(algo, mlp, data, **kwargs)


def _search_every(algo, period):
    """``init_state``'s search-period keyword for ``algo``: only amolf
    searches, and every other trainer rejects a non-default period."""
    return {"search_period": period} if algo == "amolf" else {}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_iterate_rejects_a_network_with_the_wrong_output_count(algo):
    # Unchecked, owo-bp's output solve turned a 1-output net into a 4-output
    # one and the other trainers failed inside numpy's matmul.
    state = _matinv_setup(algo=algo, nh=3, nv=50)
    one_output = replace(state.mlp, woh=state.mlp.woh[:1], woi=state.mlp.woi[:1])
    with pytest.raises(ValueError, match=r"^network has 1 outputs, dataset has 4$"):
        iterate(replace(state, mlp=one_output))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_non_finite_starting_error_is_refused(algo):
    # Output weights of 1e308 overflow every output. Unchecked, the state
    # recorded an infinite error; amolf and lm then failed in their first
    # solve with messages that did not name it, and owo-bp carried on.
    data = normalize_zero_mean(gen_matrix_inversion(200, 0))
    mlp = init_net_control(data, 4, 0)
    overflowing = replace(mlp, woh=np.full_like(mlp.woh, 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(
            ValueError, match=r"^the training error of the starting network is inf, not finite$"
        ):
            init_state(algo, overflowing, data)


@pytest.mark.parametrize("error", [np.inf, np.nan])
def test_iterate_refuses_a_non_finite_error(error, monkeypatch):
    state = _matinv_setup(algo="owo-bp", nh=3, nv=50)
    step = amolf.trainers._STEPS["owo-bp"]

    def non_finite_step(state, trace):
        trace, multiplies, changes = step(state, trace)
        # Every activation ``error`` and every output weight one: each
        # output, and so the pass's error, is ``error`` too.
        mlp = replace(trace.mlp, woh=np.ones_like(trace.mlp.woh))
        activ = np.full_like(trace.activ, error)
        return ForwardTrace(mlp, trace.dataset, activ), multiplies, changes

    monkeypatch.setitem(amolf.trainers._STEPS, "owo-bp", non_finite_step)
    with pytest.raises(
        ValueError,
        match=rf"^the training error after owo-bp iteration 1 is {error}, not finite$",
    ):
        iterate(state)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_last_error_is_a_fresh_error_evaluation(algo):
    # run_kfold reports a round's training error from last_error, so it must
    # equal mse of the state's network bit for bit, search iterations included.
    state = _matinv_setup(algo=algo, **_search_every(algo, 2))
    for _ in range(5):
        state = iterate(state)
        assert state.last_error == mse(state.mlp, state.dataset)


def test_owo_bp_first_iteration_never_increases_error():
    state = _matinv_setup(algo="owo-bp")
    before = state.last_error
    state = iterate(state)
    assert state.last_error <= before + 1e-12


def test_owo_bp_converged_input_weights_unchanged():
    rng = np.random.default_rng(18)
    mlp, d = random_network(rng, 3, 2, 2, 15)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    state = init_state("owo-bp", mlp, exact)
    state = iterate(state)
    # Residuals stay ~0 after the output solve, so the gradient step is ~0.
    assert np.abs(state.mlp.w - mlp.w).max() <= 1e-9


def test_owo_bp_mostly_decreases_on_matrix_inversion():
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    state = init_state("owo-bp", init_net_control(data, 30, 0), data)
    decreases = 0
    prev = state.last_error
    for _ in range(30):
        state = iterate(state)
        decreases += state.last_error < prev
        prev = state.last_error
    assert decreases >= 25


def test_owo_molf_zero_step_when_converged():
    rng = np.random.default_rng(19)
    mlp, d = random_network(rng, 3, 2, 2, 15)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    state = init_state("owo-molf", mlp, exact)
    state = iterate(state)
    assert np.abs(state.mlp.w - mlp.w).max() == 0.0


def test_owo_molf_matrix_inversion_converges():
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    state = init_state("owo-molf", init_net_control(data, 30, 0), data)
    for _ in range(100):
        state = iterate(state)
    assert state.last_error <= 0.02


def test_amolf_pinned_single_group_matches_owo_molf():
    # One amolf iteration at one group that neither searches (iteration 2,
    # after a one-entry ledger whose count no step reads) nor adapts (no
    # EPMs yet) is one owo-molf iteration, bit for bit, from several points
    # of an owo-molf run. The two ledgers still price it differently,
    # each by its own formula (README's cost paragraph).
    data = normalize_zero_mean(gen_matrix_inversion(300, 5))
    dims = (data.n_inputs, 8, data.n_outputs, data.n_patterns)
    state_m = init_state("owo-molf", init_net_control(data, 8, 11), data)
    after_one = cost.CostLedger((1,))
    for _ in range(4):
        state_a = iterate(
            replace(state_m, algorithm="amolf", ledger=after_one, amolf=AmolfState(n_groups=1))
        )
        state_m = iterate(state_m)
        assert state_a.amolf.n_groups == 1
        assert state_a.ledger.per_iteration[-1] == cost.mult_amolf(*dims, 1)
        assert state_m.ledger.per_iteration[-1] == cost.mult_owo_molf(*dims)
        assert state_a.last_error == state_m.last_error
        assert np.array_equal(state_a.mlp.w, state_m.mlp.w)
        assert np.array_equal(state_a.mlp.woh, state_m.mlp.woh)
        assert np.array_equal(state_a.mlp.woi, state_m.mlp.woi)
        for _ in range(2):
            state_m = iterate(state_m)


def test_amolf_epm_records_match_recomputation():
    state = _matinv_setup(algo="amolf", nh=8, nv=400, seed=3)
    d = state.dataset
    expected = []
    for _ in range(6):
        previous_error = state.last_error
        state = iterate(state)
        multiplies = cost.mult_amolf(
            d.n_inputs, 8, d.n_outputs, d.n_patterns, state.amolf.n_groups
        )
        expected.append(cost.epm(previous_error, state.last_error, multiplies))
        assert state.amolf.epm == tuple(expected[-2:])


def test_amolf_search_iterations_carry_surcharge():
    state = _matinv_setup(algo="amolf", nh=6, nv=200, seed=1, search_period=3)
    group_counts = []
    for _ in range(7):
        state = iterate(state)
        group_counts.append(state.amolf.n_groups)
    d = state.dataset
    surcharge = cost.mult_amolf_search(d.n_inputs, 6, d.n_outputs, d.n_patterns)
    for it, (per, ng) in enumerate(zip(state.ledger.per_iteration, group_counts), start=1):
        base = cost.mult_amolf(d.n_inputs, 6, d.n_outputs, d.n_patterns, ng)
        expected = base + (surcharge if (it == 1 or it % 3 == 0) else 0)
        assert per == expected


def test_search_period_zero_searches_only_on_the_first_iteration():
    state = _matinv_setup(algo="amolf", nh=6, nv=200, seed=1, search_period=0)
    group_counts = []
    for _ in range(6):
        state = iterate(state)
        group_counts.append(state.amolf.n_groups)
    d = state.dataset
    surcharge = cost.mult_amolf_search(d.n_inputs, 6, d.n_outputs, d.n_patterns)
    charged = [
        per - cost.mult_amolf(d.n_inputs, 6, d.n_outputs, d.n_patterns, ng)
        for per, ng in zip(state.ledger.per_iteration, group_counts)
    ]
    assert charged == [surcharge] + [0] * 5


def test_owo_newton_identity_cases_and_descent():
    state = _matinv_setup(algo="owo-newton", nh=6, nv=300, seed=2)
    before = state.last_error
    for _ in range(5):
        state = iterate(state)
    assert state.last_error < before


def test_lm_fixture_steps():
    v = np.array([3.0, -1.0, 2.0])
    assert np.allclose(solve_sym(np.eye(3), v).solution, v)
    assert np.allclose(solve_sym(np.eye(3) + 1.0 * np.eye(3), v).solution, v / 2.0)


def test_lm_large_damping_turns_into_steepest_descent():
    rng = np.random.default_rng(55)
    mlp, d = random_network(rng, 3, 2, 2, 20)
    trace = forward(mlp, d)
    h = expand_full_hessian(mlp, gauss_newton_full_hessian(trace))
    g = pack(backprop(trace))
    lam = 100.0 * np.abs(h).max()
    norms = []
    angle = None
    for factor in (1.0, 100.0, 10000.0):
        e = solve_sym(h + lam * factor * np.eye(len(g)), g).solution
        norms.append(float(np.linalg.norm(e)))
        cosine = float(e @ g / (np.linalg.norm(e) * np.linalg.norm(g)))
        angle = float(np.arccos(np.clip(cosine, -1.0, 1.0)))
    assert norms[0] > norms[1] > norms[2]
    assert angle <= 1e-3


@pytest.mark.parametrize("lam", [1e-12, 1e-2, 1e4])
def test_damped_step_matches_the_dense_damped_solve(lam):
    # One and three outputs; feature widths nh·(n+1) + nh + n + 1 of 14, 69
    # and 131, past one and two 64-column Gram tiles. The reduced solve is
    # backward stable like the dense one, and it differs from the dense
    # solution by no more than rounding amplified by the system's condition
    # (up to 7e10 at the smallest damping).
    rng = np.random.default_rng(12)
    for (n, nh), m in itertools.product(((3, 2), (3, 13), (4, 21)), (1, 3)):
        mlp, d = random_network(rng, n, nh, m, 150)
        trace = forward(mlp, d)
        grads = backprop(trace)
        g = pack(grads)
        damped = dense_full_hessian(mlp, d, trace) + lam * np.eye(len(g))
        full = solve_sym(damped, g).solution
        step = pack(
            damped_gauss_newton_step(mlp, gauss_newton_full_hessian(trace), grads, lam)
        )
        scale = np.abs(damped).max() * np.abs(step).max()
        assert np.abs(damped @ step - g).max() <= 1e-14 * scale
        error = np.abs(step - full).max() / np.abs(full).max()
        assert error <= 1e-14 * np.linalg.cond(damped)


def test_damped_step_skips_the_collinear_basis_like_the_dense_solve():
    # Criterion 6's duplicated input column at the smallest damping: the
    # basis block skips a pivot, and the reduced step keeps at zero exactly
    # the weights that the dense damped solve keeps at zero.
    rng = np.random.default_rng(66)
    raw = rng.standard_normal((60, 5))
    raw[:, 4] = raw[:, 0]
    d = make_dataset(raw, rng.standard_normal((60, 2)))
    mlp = Mlp(
        w=0.8 * rng.standard_normal((4, 6)),
        woh=0.8 * rng.standard_normal((2, 4)),
        woi=0.8 * rng.standard_normal((2, 6)),
        activation="sigmoid",
    )
    trace = forward(mlp, d)
    grads = backprop(trace)
    g = pack(grads)
    damped = dense_full_hessian(mlp, d, trace) + LM_LAMBDA_MIN * np.eye(len(g))
    full = solve_sym(damped, g)
    assert full.rank_deficient
    step = pack(
        damped_gauss_newton_step(
            mlp, gauss_newton_full_hessian(trace), grads, LM_LAMBDA_MIN
        )
    )
    assert np.all(np.isfinite(step))
    assert np.any(full.solution[4 * 6 :] == 0.0)  # a bypass weight per output
    assert np.array_equal(step == 0.0, full.solution == 0.0)


def _gram_call_bound(nh: int, n1: int) -> float:
    """Bytes a ``gauss_newton_full_hessian`` call may allocate above what its
    caller holds: one block of features, the accumulated Gram, one block's
    Gram, and 0.15 MB for ``pattern_sum``'s 64x64 tile products (2 x 33 kB)
    and numpy's small objects. No term grows with the pattern count."""
    width = nh * n1 + nh + n1
    return GN_BLOCK * width * 8 + 2 * width * width * 8 + 0.15e6


def test_lm_step_peak_allocation(monkeypatch):
    # Matrix inversion at the benchmark's size: 2000 patterns, nh=30, four
    # outputs, 290 weights, 185 feature columns. The Gram call holds one
    # 256-pattern block of features (0.38 MB) and two 185-column Grams (0.27
    # MB each) above what the step held when it called it (the pass's f',
    # 0.48 MB, and its outputs); the features of every pattern at once, 2.96
    # MB, fail it. After the factored Hessian returns, the candidate's
    # forward pass (1.1 MB) and the 185-column Gram dominate, about 1.24 MB
    # in all; one 290x290 matrix is 0.67 MB, and a dense damped system with
    # solve_sym's working copy of it exceeds 2 MB. A rejected candidate's
    # pass kept through the next solve would add 0.54 MB, and the input
    # pass's f' (0.48 MB) kept through the retries took it to 1.79 MB.
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    mlp = init_net_control(data, 30, 0)
    trace = amolf.owo.output_weight_step(forward(mlp, data))
    mlp = trace.mlp
    # Damping from the floor forces rejected candidates and retries.
    state = replace(init_state("lm", mlp, data), lm_lambda=LM_LAMBDA_MIN)
    hessian = amolf.trainers.gauss_newton_full_hessian
    peaks, held = [], []

    def measured(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        gram = hessian(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return gram

    monkeypatch.setattr(amolf.trainers, "gauss_newton_full_hessian", measured)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        lm_step(state, trace)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    held_by_pass = data.n_patterns * (30 + data.n_outputs) * 8  # f' and outputs
    assert held[0] < held_by_pass + 0.01e6
    assert peaks[0] - held[0] < _gram_call_bound(30, 5)
    assert peaks[1] < 1.5e6


def test_full_hessian_peak_does_not_grow_with_the_pattern_count():
    # The same bound as the LM step's Gram call, at ten times its patterns:
    # the features of all 20,000 would be 29.6 MB.
    data = normalize_zero_mean(gen_matrix_inversion(20_000, 0))
    trace = forward(init_net_control(data, 30, 0), data)
    trace.fprime  # the pass's own arrays, computed before the measurement
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gauss_newton_full_hessian(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _gram_call_bound(30, 5)


def test_grouped_direct_peak_allocation():
    # Matrix inversion at the benchmark's size: 2000 patterns, nh=30, two
    # groups. The features f'·(x·t) take 2000·30·2·8 bytes = 0.96 MB and the
    # 60-column Gram and its scaled copies under 0.03 MB each, so a second
    # feature-sized array, or a product made outside the one feature buffer
    # at f'-size (0.48 MB), fails.
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    mlp = init_net_control(data, 30, 0)
    trace = amolf.owo.output_weight_step(forward(mlp, data))
    gw = input_weight_gradient(trace)
    group = build_partition(curvature_map(trace), 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assemble_grouped_direct(trace, gw, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.44e6


def test_lm_decreases_error_and_adapts_damping():
    state = _matinv_setup(algo="lm", nh=5, nv=200, seed=4)
    before = state.last_error
    lam0 = state.lm_lambda
    state = iterate(state)
    assert state.last_error < before
    assert not state.lm_stalled
    assert state.lm_lambda < lam0


def test_lm_stalls_at_exact_interpolation():
    rng = np.random.default_rng(20)
    mlp, d = random_network(rng, 3, 2, 1, 15)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    state = init_state("lm", mlp, exact)
    trace = forward(mlp, exact)
    stalled_trace, _, changes = lm_step(state, trace)
    assert changes["lm_stalled"]
    # The network did not move, so its own input pass is the one handed on.
    assert stalled_trace is trace and stalled_trace.mlp is mlp
    state = iterate(state)
    assert state.lm_stalled
    assert np.array_equal(state.mlp.w, mlp.w)
    assert state.last_error == 0.0


@pytest.mark.parametrize("lm_lambda", [1e-2, 0.0])
def test_lm_damping_stays_finite_when_every_step_is_rejected(lm_lambda):
    rng = np.random.default_rng(20)
    mlp, d = random_network(rng, 3, 2, 1, 15)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    state = replace(init_state("lm", mlp, exact), lm_lambda=lm_lambda)
    with np.errstate(all="raise"):
        for _ in range(40):
            state = iterate(state)
            assert state.lm_stalled
            assert np.isfinite(state.lm_lambda)
            assert state.lm_lambda <= LM_LAMBDA_MAX
    assert state.lm_lambda == LM_LAMBDA_MAX
    assert np.array_equal(state.mlp.w, mlp.w)


def _lm_iterations(state, count, monkeypatch):
    """The last of ``count`` lm iterations stepped with ``iterate`` from
    ``state``, and per iteration: the damping it started from, the forward
    passes it ran (one per damped solve, since the pass it starts from is
    the one its input state holds), its damping after and its stalled flag."""
    steps = []
    counted = amolf.trainers.forward

    def counting_forward(mlp, dataset):
        steps[-1][1] += 1
        return counted(mlp, dataset)

    with monkeypatch.context() as patched:
        patched.setattr(amolf.trainers, "forward", counting_forward)
        for _ in range(count):
            steps.append([state.lm_lambda, 0])
            state = iterate(state)
            steps[-1] += [state.lm_lambda, state.lm_stalled]
    return state, [tuple(step) for step in steps]


def _assert_lm_schedule(steps):
    """Each iteration's solve count, damping and stalled flag are the
    transcribed schedule's, given which candidate was accepted: the last
    one it ran, unless it stalled."""
    for lam, solves, lam_after, stalled in steps:
        expected = lm_schedule_iteration(lam, None if stalled else solves - 1)
        assert (lam_after, solves, stalled) == expected


@pytest.mark.parametrize("seed", [0, 1])
def test_lm_damping_follows_the_classic_schedule(seed, monkeypatch):
    # Matrix inversion from the control initialisation: damping starts at
    # 1e-2, shrinks tenfold on an accepted candidate and grows tenfold per
    # rejected one. Started again from below the floor (1e-15, clamped to
    # 1e-12), the undamped steps overshoot and are rejected.
    state = _matinv_setup(algo="lm", nh=5, nv=200, seed=seed)
    assert state.lm_lambda == LM_SCHEDULE_START
    state, steps = _lm_iterations(state, 8, monkeypatch)
    state.lm_lambda = 1e-15  # in place: a replace copy holds no pass
    state, more = _lm_iterations(state, 8, monkeypatch)
    steps += more
    _assert_lm_schedule(steps)
    solves = [step[1] for step in steps]
    assert 1 in solves and max(solves) > 1  # accepted at once, and after rejections
    assert not any(step[3] for step in steps)


def test_lm_rejecting_every_candidate_runs_the_retry_cap_then_stalls(monkeypatch):
    # At exact interpolation no candidate's error is below 0, so every one
    # is rejected: ten solves from 1e-2 end the first iteration stalled at
    # 1e8, five the second (1e8 up to the 1e12 cap, rejected there) and one
    # each after, at the cap; the weights never move.
    rng = np.random.default_rng(20)
    mlp, d = random_network(rng, 3, 2, 1, 15)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    state, steps = _lm_iterations(init_state("lm", mlp, exact), 4, monkeypatch)
    _assert_lm_schedule(steps)
    assert [step[1] for step in steps] == [10, 5, 1, 1]
    assert all(step[3] for step in steps)
    assert state.mlp is mlp


def test_cg_first_direction_is_gradient():
    state = _matinv_setup(algo="cg", nh=5, nv=200, seed=6)
    mlp0 = state.mlp
    d = state.dataset
    trace = forward(mlp0, d)
    g = backprop(trace)
    expected = np.concatenate(
        (g.input_weights.ravel(), g.output_weights.ravel(), g.bypass_weights.ravel())
    )
    state = iterate(state)
    assert np.array_equal(state.cg_direction, expected)


def test_cg_decreases_error():
    state = _matinv_setup(algo="cg", nh=5, nv=300, seed=7)
    before = state.last_error
    for _ in range(20):
        state = iterate(state)
    assert state.last_error < 0.5 * before


def test_cg_quadratic_five_step_termination():
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag([1.0, 2.0, 3.5, 5.0, 8.0]) @ q.T
    b = rng.standard_normal(5)
    target = np.linalg.solve(a, b)
    w = np.zeros(5)
    direction = None
    norm_sq = None
    for _ in range(5):
        g = b - a @ w
        direction = fletcher_reeves_direction(g, direction, norm_sq)
        step = float(g @ direction) / float(direction @ a @ direction)
        w = w + step * direction
        norm_sq = float(g @ g)
    assert np.abs(w - target).max() <= 1e-8


# ---------------------------------------------------------------------------
# State contracts


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_one_forward_pass_per_iteration(algo, monkeypatch):
    # An iteration runs one forward pass, of the network it returns; the
    # pass of the network it starts from is the one the previous iteration
    # left on its state. LM runs one pass per candidate and leaves the
    # accepted one's.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8)
    state = iterate(state)  # amolf searches the group count here
    if algo == "lm":
        # Forces rejections; set in place, since a replace copy holds no pass.
        state.lm_lambda = LM_LAMBDA_MIN
    calls, candidates = [], []
    counted = amolf.network.forward
    counted_step = amolf.trainers.damped_gauss_newton_step

    def counting_forward(mlp, dataset):
        calls.append(1)
        return counted(mlp, dataset)

    def counting_step(*args):
        candidates.append(1)
        return counted_step(*args)

    # An mse call would run its forward pass through the network module's
    # binding, so that one is counted too.
    monkeypatch.setattr(amolf.trainers, "forward", counting_forward)
    monkeypatch.setattr(amolf.network, "forward", counting_forward)
    monkeypatch.setattr(amolf.trainers, "damped_gauss_newton_step", counting_step)
    for _ in range(3):
        state = iterate(state)
    if algo == "lm":
        assert len(candidates) > 3  # some candidate was rejected
        assert len(calls) == len(candidates)
    else:
        assert len(calls) == 3


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_each_step_returns_the_forward_pass_of_its_network(algo):
    # The pass a step returns is handed to the next iteration in place of a
    # fresh one, so it must be that network's forward pass bit for bit.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8, **_search_every(algo, 2))
    for _ in range(4):
        step = amolf.trainers._STEPS[algo]
        trace, _, _ = step(state, forward(state.mlp, state.dataset))
        mlp = trace.mlp
        assert trace.dataset is state.dataset
        fresh = forward(mlp, state.dataset)
        assert np.array_equal(trace.activ, fresh.activ)
        assert np.array_equal(trace.output, fresh.output)
        assert trace.error == mse(mlp, state.dataset)
        state = iterate(state)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_held_pass_serves_only_its_own_network_and_dataset(algo):
    # A state whose network or dataset was changed in place must run its
    # own forward pass: the pass it holds is of its dataset with another
    # network, then of its network on another dataset of the same size.
    period = _search_every(algo, 2)
    data, other = (normalize_zero_mean(gen_matrix_inversion(120, s)) for s in (8, 9))
    mlp, another = (init_net_control(data, 4, seed) for seed in (8, 9))
    fresh = iterate(init_state(algo, mlp, other, **period))
    moved_net = init_state(algo, another, other, **period)
    moved_net.mlp = mlp
    moved_data = init_state(algo, mlp, data, **period)
    moved_data.dataset = other
    for state in (iterate(moved_net), iterate(moved_data)):
        assert state.last_error == fresh.last_error
        for a, b in zip(_arrays(state.mlp), _arrays(fresh.mlp)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_run_continued_on_new_data_compares_errors_on_that_data(algo):
    # A step compares against the error of the pass it starts from, never
    # the state's last_error, which a caller may have made stale. When lm
    # and amolf read last_error, swapping in a new dataset left every lm
    # candidate rejected against the old data's lower error, and amolf's
    # first error change per multiply started from the old data's error.
    state = _matinv_setup(algo=algo, nh=4, nv=200, seed=0)
    for _ in range(5):
        state = iterate(state)
    b = normalize_zero_mean(gen_matrix_inversion(200, 5))
    start = replace(state, dataset=b)
    state = iterate(start)
    assert state.last_error == mse(state.mlp, b)
    if algo == "lm":
        assert not state.lm_stalled
    if algo == "amolf":
        multiplies = cost.mult_amolf(
            b.n_inputs, 4, b.n_outputs, b.n_patterns, state.amolf.n_groups
        )
        assert state.amolf.epm[-1] == cost.epm(
            mse(start.mlp, b), state.last_error, multiplies
        )


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_each_pass_evaluates_its_error_once(algo, monkeypatch):
    # A pass computes its error when first asked and keeps it: an iteration
    # evaluates the error of each pass it makes once, and none of the pass
    # it starts from, whose error init_state or the last iteration read.
    # A search iteration evaluates each candidate count's pass and the
    # solved winner's; lm evaluates each candidate's.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8, **_search_every(algo, 3))
    counts_searched = len(cost.amolf_group_counts(state.dataset.n_inputs))
    if algo == "lm":
        # Tiny damping after a first step forces rejections; set in place,
        # since a replace copy holds no pass.
        state = iterate(state)
        state.lm_lambda = LM_LAMBDA_MIN
    evaluations, candidates = [], []
    counted_error = amolf.network._output_error
    counted_step = amolf.trainers.damped_gauss_newton_step

    def counting_error(*args):
        evaluations.append(1)
        return counted_error(*args)

    def counting_step(*args):
        candidates.append(1)
        return counted_step(*args)

    monkeypatch.setattr(amolf.network, "_output_error", counting_error)
    monkeypatch.setattr(amolf.trainers, "damped_gauss_newton_step", counting_step)
    state = iterate(state)
    if algo == "amolf":
        assert len(evaluations) == counts_searched + 1  # iteration 1 searches
        evaluations.clear()
        iterate(state)  # iteration 2 adapts
    if algo == "lm":
        assert len(candidates) > 1  # some candidate was rejected
        assert len(evaluations) == len(candidates)
    else:
        assert len(evaluations) == 1


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_each_iteration_computes_fprime_once(algo, monkeypatch):
    # Every kernel of a step that needs f'(net) reads it off one pass (the
    # solved one for owo-bp, the input one otherwise), which computes it
    # when first read and keeps it; the gradient, curvature_map and the
    # grouped assembly each computed their own before. lm's retries read no
    # f', so its rejected candidates add nothing.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8, **_search_every(algo, 3))
    if algo == "lm":
        state = replace(state, lm_lambda=LM_LAMBDA_MIN)  # forces rejections
    act, derivative = amolf.network.ACTIVATIONS["sigmoid"]
    calls = []

    def counting_derivative(activ):
        calls.append(1)
        return derivative(activ)

    monkeypatch.setitem(amolf.network.ACTIVATIONS, "sigmoid", (act, counting_derivative))
    for _ in range(4):  # amolf searches on iterations 1 and 3
        calls.clear()
        state = iterate(state)
        assert len(calls) == 1
    if algo == "amolf":
        # Iteration 5 takes the grouped step at two groups, which groups
        # by curvature_map, another reader of f'.
        calls.clear()
        iterate(replace(state, amolf=replace(state.amolf, n_groups=2, epm=())))
        assert len(calls) == 1


@pytest.mark.parametrize("algo", ["owo-molf", "owo-newton", "amolf"])
def test_a_pass_that_only_feeds_the_output_solve_never_computes_its_outputs(algo, monkeypatch):
    # The output solve reads activations only, and its pass of the solved
    # network shares them, so an iteration computes the outputs of that
    # pass alone, for its error. A search iteration also computes each
    # candidate's, for the comparison.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8, **_search_every(algo, 3))
    counts_searched = len(cost.amolf_group_counts(state.dataset.n_inputs))
    counted, solve = amolf.network.linear_output, amolf.trainers.output_weight_step
    calls, solved = [], []

    def counting_output(*args):
        calls.append(1)
        return counted(*args)

    def recording_solve(trace):
        solved.append(trace)
        return solve(trace)

    monkeypatch.setattr(amolf.network, "linear_output", counting_output)
    monkeypatch.setattr(amolf.trainers, "output_weight_step", recording_solve)
    for iteration in range(1, 5):
        calls.clear()
        state = iterate(state)
        searched = algo == "amolf" and iteration in (1, 3)
        assert len(calls) == (counts_searched + 1 if searched else 1)
        # A cached_property keeps its value in the instance's __dict__. A
        # search compares the candidates' errors, the winner's included.
        assert ("output" in vars(solved.pop())) == searched


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_each_state_ledger_holds_exactly_its_own_iterations(algo):
    # Two branches from one state must not write into each other's ledger,
    # nor into the ledger of the state they started from.
    root = _matinv_setup(algo=algo, nh=4, nv=120, seed=8, **_search_every(algo, 2))
    first, second = iterate(root), iterate(root)
    states = [root, first, second]
    for _ in range(3):
        states.append(iterate(states[-1]))
    assert [state.iteration for state in states] == [0, 1, 1, 2, 3, 4]
    assert root.ledger.per_iteration == ()
    assert first.ledger.per_iteration == second.ledger.per_iteration
    assert states[-1].ledger.per_iteration[:1] == first.ledger.per_iteration


def test_a_state_iteration_is_its_ledger_length():
    # A state has no iteration count of its own to disagree with its ledger.
    state = _matinv_setup(algo="owo-molf", nh=4, nv=120, seed=8)
    later = replace(state, ledger=cost.CostLedger((5, 7, 9)))
    assert (state.iteration, later.iteration) == (0, 3)
    assert iterate(later).iteration == 4
    assert "iteration" not in {field.name for field in dataclasses.fields(state)}


def _arrays(value):
    """Every numpy array reachable from ``value`` through dataclass fields,
    tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_no_state_keeps_a_pattern_sized_array(algo):
    # Runs keep their final states, so a per-pattern array (a forward pass,
    # a Jacobian) held by a state would stay alive for the whole run. Only
    # the dataset may be pattern-sized, and the newest state's forward pass,
    # which the next iteration takes and the run loops drop.
    nv = 97
    state = _matinv_setup(algo=algo, nh=3, nv=nv, seed=8, **_search_every(algo, 2))
    weight_dims = {dim for a in _arrays(state.mlp) for dim in (*a.shape, a.size)}
    assert nv not in weight_dims
    assert nv != sum(a.size for a in _arrays(state.mlp))
    for _ in range(4):
        older, state = state, iterate(state)
        for kept, pattern_sized in ((older, {"dataset"}), (state, {"dataset", "_trace"})):
            for f in dataclasses.fields(kept):
                if f.name in pattern_sized:
                    continue
                for a in _arrays(getattr(kept, f.name)):
                    assert nv not in a.shape, f"{f.name} holds an array of shape {a.shape}"


@pytest.mark.parametrize("algo", ["owo-bp", "owo-molf", "owo-newton", "amolf", "lm", "cg"])
def test_trainers_deterministic(algo):
    def run():
        state = _matinv_setup(algo=algo, nh=4, nv=120, seed=9)
        errs = []
        for _ in range(4):
            state = iterate(state)
            errs.append(state.last_error)
        return errs, state.mlp.w

    errs1, w1 = run()
    errs2, w2 = run()
    assert errs1 == errs2
    assert np.array_equal(w1, w2)


def test_init_state_rejects_out_of_range_settings():
    data = normalize_zero_mean(gen_matrix_inversion(50, 0))
    mlp = init_net_control(data, 3, 0)
    with pytest.raises(ValueError, match="search_period"):
        init_state("amolf", mlp, data, search_period=-1)


@pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a != "amolf"])
def test_init_state_rejects_a_search_period_outside_amolf(algo):
    # Only amolf searches; a period given to another trainer would be ignored.
    data = normalize_zero_mean(gen_matrix_inversion(50, 0))
    mlp = init_net_control(data, 3, 0)
    with pytest.raises(ValueError, match=rf"^search_period is for amolf only, not {algo}$"):
        init_state(algo, mlp, data, search_period=DEFAULT_SEARCH_PERIOD + 1)
    init_state(algo, mlp, data, search_period=DEFAULT_SEARCH_PERIOD)


@pytest.mark.parametrize("algo, first_calls", [("owo-molf", 0), ("amolf", 1)])
def test_curvature_map_only_where_the_partition_needs_it(algo, first_calls, monkeypatch):
    # A one-group partition does not depend on the curvature; amolf adapting
    # from two groups reads it once in each iteration with more than one group.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8)
    if algo == "amolf":
        # Iteration 2, after a one-entry ledger: no search, so it adapts.
        state = replace(state, ledger=cost.CostLedger((1,)), amolf=AmolfState(n_groups=2))
    calls = []
    counted = amolf.trainers.curvature_map

    def counting_curvature_map(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(amolf.trainers, "curvature_map", counting_curvature_map)
    per_iteration, expected = [], []
    for _ in range(3):
        calls.clear()
        state = iterate(state)
        n_groups = 1 if state.amolf is None else state.amolf.n_groups
        per_iteration.append(len(calls))
        expected.append(int(n_groups > 1))
    assert per_iteration == expected
    assert per_iteration[0] == first_calls


def _amolf_setup_with_inputs(n_inputs, seed):
    """amolf, search period 3, on 120 seeded patterns of ``n_inputs``
    inputs whose three targets are sines of random mixes of them."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((120, n_inputs))
    data = make_dataset(raw, np.sin(raw @ rng.standard_normal((n_inputs, 3))))
    return init_state("amolf", init_net_control(data, 4, seed), data, search_period=3)


def test_a_search_iteration_does_its_work_once(monkeypatch):
    # The winning candidate's step is the iteration's step: a search
    # iteration solves each candidate count's system and the output weights,
    # assembles nothing from per-pattern sums, runs one forward pass per
    # candidate and none of its own network, whose pass the last iteration left
    # on its state, and reuses the winner's for the output solve, and groups
    # by its Hessian's diagonal, not by ``curvature_map``; an adapting
    # iteration solves its one grouped system, runs the stepped network
    # forward once, and, if it has more than one group, reads the curvature
    # once and assembles through the group map once (one group builds its
    # system without one). Checked on matinv's 4 inputs and on 2 and 6.
    solves, assemblies, forwards, curvatures = [], [], [], []
    counted_solve = amolf.trainers.solve_sym
    counted_assemble = amolf.trainers.assemble_grouped_direct
    counted_forward = amolf.network.forward
    counted_curvature = amolf.trainers.curvature_map

    def counting_solve_sym(*args):
        solves.append(1)
        return counted_solve(*args)

    def counting_assemble(*args):
        assemblies.append(1)
        return counted_assemble(*args)

    def counting_forward(*args):
        forwards.append(1)
        return counted_forward(*args)

    def counting_curvature_map(*args):
        curvatures.append(1)
        return counted_curvature(*args)

    monkeypatch.setattr(amolf.trainers, "solve_sym", counting_solve_sym)
    monkeypatch.setattr(amolf.owo, "solve_sym", counting_solve_sym)
    monkeypatch.setattr(amolf.trainers, "assemble_grouped_direct", counting_assemble)
    # ``mse`` calls the network module's ``forward``; the trainers call their own.
    monkeypatch.setattr(amolf.network, "forward", counting_forward)
    monkeypatch.setattr(amolf.trainers, "forward", counting_forward)
    monkeypatch.setattr(amolf.trainers, "curvature_map", counting_curvature_map)
    # Each run starts when the last has ended: an iteration reuses the pass
    # of the state it starts from only while no other pass was made since.
    last_group_counts = []
    for start in (
        lambda: _matinv_setup(algo="amolf", nh=4, nv=120, seed=8, search_period=3),
        lambda: _amolf_setup_with_inputs(2, seed=8),
        lambda: _amolf_setup_with_inputs(6, seed=8),
    ):
        state = start()
        candidates = len(cost.amolf_group_counts(state.dataset.n_inputs))
        for searched in (True, False, True, False):  # iterations 1 to 4
            for counts in (solves, assemblies, forwards, curvatures):
                counts.clear()
            state = iterate(state)
            counted = (len(assemblies), len(solves), len(forwards), len(curvatures))
            if searched:
                assert counted == (0, candidates + 1, candidates, 0)
            else:
                more = int(state.amolf.n_groups > 1)
                assert counted == (more, 2, 1, more)
        last_group_counts.append(state.amolf.n_groups)
    # So iteration 4 read the curvature on matinv and on 6 inputs; on 2
    # inputs it may have halved back to one group.
    assert last_group_counts[0] > 1 and last_group_counts[2] > 1


def test_owo_molf_is_the_grouped_step_pinned_at_one_group(monkeypatch):
    # owo-molf carries no amolf state, so it neither searches (not even on
    # iteration 1, amolf's first search) nor reads the curvature, and every
    # iteration costs owo-molf's formula.
    state = _matinv_setup(algo="owo-molf", nh=4, nv=120, seed=8)
    assert state.amolf is None
    calls = []

    def counting(name):
        counted = getattr(amolf.trainers, name)

        def count(*args):
            calls.append(name)
            return counted(*args)

        return count

    for name in ("initial_group_search", "curvature_map"):
        monkeypatch.setattr(amolf.trainers, name, counting(name))
    for _ in range(4):
        state = iterate(state)
    assert calls == []
    assert state.amolf is None
    d = state.dataset
    assert state.ledger.per_iteration == (
        cost.mult_owo_molf(d.n_inputs, 4, d.n_outputs, d.n_patterns),
    ) * 4


def test_init_state_rejects_unknown_algorithm():
    data = normalize_zero_mean(gen_matrix_inversion(50, 0))
    mlp = init_net_control(data, 3, 0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        init_state("adam", mlp, data)


def test_amolf_state_defaults():
    state = _matinv_setup(algo="amolf", nh=3, nv=100, seed=10)
    assert isinstance(state.amolf, AmolfState)
    assert state.amolf.n_groups == 1
    assert state.amolf.search_period == 50


@pytest.mark.parametrize("algo", ALGORITHMS)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 2),
    nv=st.integers(20, 40),
    input_exponent=st.integers(-6, 6),
    target_exponent=st.integers(-6, 6),
)
@settings(max_examples=30, deadline=None)
def test_trainers_stay_finite_on_badly_scaled_data(
    algo, seed, n, m, nv, input_exponent, target_exponent
):
    rng = np.random.default_rng(seed)
    raw = make_dataset(
        10.0**input_exponent * rng.standard_normal((nv, n)),
        10.0**target_exponent * rng.standard_normal((nv, m)),
    )
    data = normalize_zero_mean(raw)
    state = init_state(algo, init_net_control(data, 3, seed), data, **_search_every(algo, 3))
    for _ in range(6):
        state = iterate(state)
        assert np.isfinite(state.last_error)
