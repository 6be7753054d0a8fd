import dataclasses
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
    GradientBundle,
    backprop,
    curvature_map,
    gauss_newton_full_hessian,
    gauss_newton_input_hessian,
    pack,
)
from amolf.linalg import solve_sym
from amolf.network import Mlp, forward, init_net_control, mse
from amolf.trainers import (
    ALGORITHMS,
    LM_LAMBDA_MAX,
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
    newton_input_step,
    olf,
)
from amolf import cost
from support import (
    grouped_gradient_from_residuals,
    grouped_quadratic_drop,
    matrix_relative_error,
    molf_solve,
    near_interpolating_network,
    nested_split_chain,
    quadratic_line_minimum,
    random_network,
    random_spd,
    rank_partition,
    single_group_partition,
)


# ---------------------------------------------------------------------------
# Partitioning


def test_build_partition_forced_example():
    hw = np.array([[5.0, 1.0, 4.0, 2.0, 3.0]])
    part = build_partition(hw, 2)
    assert part.n_groups == 2
    assert np.array_equal(part.group[0], [0, 1, 0, 1, 0])
    assert np.array_equal(np.bincount(part.group[0]), [3, 2])
    assert set(np.flatnonzero(part.group[0] == 0)) == {0, 2, 4}
    assert set(np.flatnonzero(part.group[0] == 1)) == {3, 1}


def test_build_partition_single_group():
    hw = np.random.default_rng(0).random((3, 5))
    part = build_partition(hw, 1)
    assert part.n_groups == 1
    assert np.array_equal(part.group, np.zeros((3, 5), dtype=int))


def test_build_partition_all_singletons():
    hw = np.array([[1.0, 3.0, 2.0]])
    part = build_partition(hw, 3)
    assert np.array_equal(np.bincount(part.group[0]), [1, 1, 1])
    assert np.array_equal(part.group[0], [2, 0, 1])


def test_build_partition_ties_break_ascending():
    hw = np.array([[2.0, 2.0, 2.0, 2.0]])
    part = build_partition(hw, 2)
    assert np.array_equal(part.group[0], [0, 0, 1, 1])


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
        part = build_partition(hw, ng)
        assert part.group.shape == (4, 7)
        assert part.group.min() == 0 and part.group.max() == ng - 1
        for k in range(4):
            sizes = np.bincount(part.group[k], minlength=ng)
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
        part = build_partition(hw, ng)
        assert part.n_groups == ng
        assert np.array_equal(part.group, rank_partition(hw, ng))


# ---------------------------------------------------------------------------
# Step-size primitives


def test_olf_bilinear_form_two_ways():
    rng = np.random.default_rng(2)
    mlp, d = random_network(rng, 4, 3, 2, 20)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    numerator = float((g.input_weights**2).sum())
    z = olf(mlp, d, trace, g)
    gv = g.input_weights.ravel()
    quad = float(gv @ h @ gv)
    assert abs(z - numerator / quad) <= 1e-10 * (1.0 + abs(z))


def test_olf_exact_on_linear_single_unit():
    rng = np.random.default_rng(42)
    mlp, d = random_network(rng, 3, 1, 1, 25, activation="linear")
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    z = olf(mlp, d, trace, g)

    def along(step):
        return mse(replace(mlp, w=mlp.w + step * g.input_weights), d)

    assert abs(z - quadratic_line_minimum(along)) <= 1e-8


def test_olf_brackets_the_minimum_near_quadratic():
    rng = np.random.default_rng(3)
    mlp, d = near_interpolating_network(rng, 4, 3, 2, 30, noise=1e-4)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    z = olf(mlp, d, trace, g)

    def along(step):
        return mse(replace(mlp, w=mlp.w + step * g.input_weights), d)

    assert along(z) <= along(0.5 * z)
    assert along(z) <= along(2.0 * z)


def test_olf_fallback_on_zero_curvature():
    rng = np.random.default_rng(4)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    mlp = replace(mlp, woh=np.zeros_like(mlp.woh))
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    assert olf(mlp, d, trace, g) == 1e-3


def test_molf_single_unit_equals_olf():
    rng = np.random.default_rng(7)
    mlp, d = random_network(rng, 4, 1, 2, 30)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    z = molf_solve(h, g)
    assert z.shape == (1,)
    assert abs(z[0] - olf(mlp, d, trace, g)) <= 1e-10


def test_molf_dual_construction():
    rng = np.random.default_rng(8)
    mlp, d = random_network(rng, 4, 3, 2, 25)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    part = single_group_partition(mlp.n_hidden, d.n_inputs + 1)
    ha_direct, ga_direct = assemble_grouped_direct(mlp, d, trace, g, part)
    ha_comp, ga_comp = assemble_grouped_from_hessian(h, g, part)
    assert matrix_relative_error(ha_direct, ha_comp) <= 1e-10
    assert matrix_relative_error(ga_direct, ga_comp) <= 1e-10


def test_molf_zero_gradient_gives_zero_steps():
    rng = np.random.default_rng(9)
    mlp, d = random_network(rng, 3, 2, 2, 10)
    exact = make_dataset(d.inputs[:, :-1], forward(mlp, d).output)
    trace = forward(mlp, exact)
    g = backprop(mlp, exact, trace)
    h = gauss_newton_input_hessian(mlp, exact, trace)
    assert np.array_equal(molf_solve(h, g), np.zeros(mlp.n_hidden))


def _input_gradients(input_weights: np.ndarray) -> GradientBundle:
    """Gradients of a one-output net whose input weights are given."""
    nh, n1 = input_weights.shape
    return GradientBundle(input_weights, np.zeros((1, nh)), np.zeros((1, n1)))


def test_newton_step_identity_hessian():
    rng = np.random.default_rng(10)
    g = rng.standard_normal(6)
    grads = _input_gradients(g.reshape(2, 3))
    assert np.allclose(newton_input_step(np.eye(6), grads), g.reshape(2, 3))


def test_newton_step_zero_gradient():
    grads = _input_gradients(np.zeros((2, 3)))
    assert np.array_equal(newton_input_step(np.eye(6), grads), np.zeros((2, 3)))


def test_newton_step_near_quadratic_captures_gap():
    rng = np.random.default_rng(200)
    mlp, d = near_interpolating_network(rng, 3, 2, 2, 40, noise=1e-4)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    dw = newton_input_step(h, g)
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
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    hw = curvature_map(mlp, d, trace)
    for ng in (1, 2, 3, 5):
        part = build_partition(hw, ng)
        ha_d, ga_d = assemble_grouped_direct(mlp, d, trace, g, part)
        ha_i, ga_i = assemble_grouped_from_hessian(h, g, part)
        assert matrix_relative_error(ha_d, ha_i) <= 1e-10
        assert matrix_relative_error(ga_d, ga_i) <= 1e-10
        ga_res = grouped_gradient_from_residuals(mlp, d, trace, g, part)
        assert matrix_relative_error(ga_res, ga_d) <= 1e-10


def test_grouped_step_zero_leaves_weights():
    rng = np.random.default_rng(12)
    mlp, d = random_network(rng, 4, 3, 2, 10)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    part = build_partition(curvature_map(mlp, d, trace), 2)
    stepped = apply_grouped_step(mlp, g, part, np.zeros((3, 2)))
    assert np.array_equal(stepped.w, mlp.w)


def test_grouped_step_touches_every_weight_once():
    rng = np.random.default_rng(13)
    mlp, d = random_network(rng, 4, 3, 2, 10)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    part = build_partition(curvature_map(mlp, d, trace), 3)
    stepped = apply_grouped_step(mlp, g, part, np.ones((3, 3)))
    assert np.array_equal(stepped.w, mlp.w + g.input_weights)


def test_grouped_step_all_singletons_is_newton():
    rng = np.random.default_rng(33)
    mlp, d = random_network(rng, 3, 3, 2, 40)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    dw_newton = newton_input_step(h, g)
    part = build_partition(curvature_map(mlp, d, trace), d.n_inputs + 1)
    ha, ga = assemble_grouped_from_hessian(h, g, part)
    z = solve_sym(ha, ga).solution
    stepped = apply_grouped_step(mlp, g, part, z)
    assert matrix_relative_error(stepped.w - mlp.w, dw_newton) <= 1e-6


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
    g = backprop(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    gv = g.input_weights.ravel()
    hw = curvature_map(mlp, d, trace)
    n1 = d.n_inputs + 1

    def flat_groups(ng):
        part = build_partition(hw, ng)
        groups = []
        for k in range(mlp.n_hidden):
            for c in range(ng):
                members = np.flatnonzero(part.group[k] == c)
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
    g = backprop(mlp, d, trace)
    chosen, stepped, _ = initial_group_search(mlp, d, trace, g, curvature_map(mlp, d, trace))
    assert chosen == 1
    assert np.array_equal(stepped.w, mlp.w + 0.5 * g.input_weights)
    assert np.array_equal(stepped.woh, mlp.woh) and np.array_equal(stepped.woi, mlp.woi)


def test_search_returns_argmin_of_candidates():
    rng = np.random.default_rng(16)
    mlp, d = random_network(rng, 4, 3, 2, 40)
    trace = forward(mlp, d)
    g = backprop(mlp, d, trace)
    hw = curvature_map(mlp, d, trace)
    h = gauss_newton_input_hessian(mlp, d, trace)
    chosen, stepped, stepped_trace = initial_group_search(mlp, d, trace, g, hw)
    candidates = []
    for ng in range(1, d.n_inputs + 1):
        part = build_partition(hw, ng)
        ha, ga = assemble_grouped_from_hessian(h, g, part)
        z = solve_sym(ha, ga).solution
        candidates.append(apply_grouped_step(mlp, g, part, z))
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
    g = backprop(mlp, d, trace)
    hw = curvature_map(mlp, d, trace)
    chosen, _, _ = initial_group_search(mlp, d, trace, g, hw)
    errors = []
    for ng in range(1, d.n_inputs + 1):
        part = build_partition(hw, ng)
        ha, ga = assemble_grouped_direct(mlp, d, trace, g, part)
        z = solve_sym(ha, ga).solution
        errors.append(mse(apply_grouped_step(mlp, g, part, z), d))
    assert chosen == 1 + int(np.argmin(errors))


# ---------------------------------------------------------------------------
# Full iterations


def _matinv_setup(nh=10, nv=300, seed=0, algo="owo-molf", **kwargs):
    data = normalize_zero_mean(gen_matrix_inversion(nv, seed))
    mlp = init_net_control(data, nh, seed)
    return init_state(algo, mlp, data, **kwargs)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_last_error_is_a_fresh_error_evaluation(algo):
    # run_kfold reports a round's training error from last_error, so it must
    # equal mse of the state's network bit for bit, search iterations included.
    state = _matinv_setup(algo=algo, search_period=2)
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
    data = normalize_zero_mean(gen_matrix_inversion(300, 5))
    mlp = init_net_control(data, 8, 11)
    state_a = replace(init_state("amolf", mlp, data), amolf=AmolfState(fixed_n_groups=1))
    state_m = init_state("owo-molf", mlp, data)
    for _ in range(10):
        state_a = iterate(state_a)
        state_m = iterate(state_m)
        assert abs(state_a.last_error - state_m.last_error) <= 1e-12
        assert np.array_equal(state_a.mlp.w, state_m.mlp.w)
        assert np.array_equal(state_a.mlp.woh, state_m.mlp.woh)
        assert np.array_equal(state_a.mlp.woi, state_m.mlp.woi)


def test_amolf_epm_records_match_recomputation():
    state = _matinv_setup(algo="amolf", nh=8, nv=400, seed=3)
    errors = [state.last_error]
    group_counts = []
    for _ in range(6):
        state = iterate(state)
        errors.append(state.last_error)
        group_counts.append(state.amolf.n_groups)
    d = state.dataset
    for i, (it, recorded) in enumerate(state.amolf.epm_history):
        assert it == i + 1
        expected = cost.epm(
            errors[i],
            errors[i + 1],
            cost.mult_amolf(d.n_inputs, 8, d.n_outputs, d.n_patterns, group_counts[i]),
        )
        assert recorded == expected


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
    h = gauss_newton_full_hessian(mlp, d, trace)
    g = pack(backprop(mlp, d, trace))
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


def test_cg_first_direction_is_gradient():
    state = _matinv_setup(algo="cg", nh=5, nv=200, seed=6)
    mlp0 = state.mlp
    d = state.dataset
    trace = forward(mlp0, d)
    g = backprop(mlp0, d, trace)
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


@pytest.mark.parametrize("algo", ["owo-bp", "owo-molf", "owo-newton", "amolf", "lm", "cg"])
def test_last_error_is_fresh_mse(algo):
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8)
    for _ in range(3):
        state = iterate(state)
        assert state.last_error == mse(state.mlp, state.dataset)


@pytest.mark.parametrize("algo", ["owo-bp", "owo-molf", "owo-newton", "amolf", "cg"])
def test_two_forward_passes_per_iteration(algo, monkeypatch):
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8)
    state = iterate(state)  # amolf searches the group count here
    calls = []
    counted = amolf.network.forward

    def counting_forward(mlp, dataset):
        calls.append(1)
        return counted(mlp, dataset)

    # mse runs its forward pass through the network module's binding.
    monkeypatch.setattr(amolf.trainers, "forward", counting_forward)
    monkeypatch.setattr(amolf.network, "forward", counting_forward)
    for _ in range(3):
        state = iterate(state)
    assert len(calls) == 2 * 3


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_each_state_ledger_holds_exactly_its_own_iterations(algo):
    # Two branches from one state must not write into each other's ledger,
    # nor into the ledger of the state they started from.
    root = _matinv_setup(algo=algo, nh=4, nv=120, seed=8, search_period=2)
    first, second = iterate(root), iterate(root)
    states = [root, first, second]
    for _ in range(3):
        states.append(iterate(states[-1]))
    for state in states:
        assert len(state.ledger.per_iteration) == state.iteration
    assert first.ledger.per_iteration == second.ledger.per_iteration


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
    # the dataset may be pattern-sized.
    nv = 97
    state = _matinv_setup(algo=algo, nh=3, nv=nv, seed=8, search_period=2)
    weight_dims = {dim for a in _arrays(state.mlp) for dim in (*a.shape, a.size)}
    assert nv not in weight_dims
    assert nv != sum(a.size for a in _arrays(state.mlp))
    for _ in range(4):
        state = iterate(state)
        for f in dataclasses.fields(state):
            if f.name == "dataset":
                continue
            for a in _arrays(getattr(state, f.name)):
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


@pytest.mark.parametrize("fixed", [0, 5, 6])
def test_out_of_range_pinned_group_count_is_rejected(fixed, monkeypatch):
    # matinv has 4 inputs, so a pin must lie in 1..4; 5, the all-singleton
    # count, is one build_partition would accept. The pin is checked before
    # any system is assembled or solved.
    state = _matinv_setup(algo="amolf", nh=3, nv=50, seed=0)
    state = replace(state, amolf=AmolfState(fixed_n_groups=fixed))
    calls = []
    counted = amolf.trainers.solve_sym

    def counting_solve_sym(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(amolf.trainers, "solve_sym", counting_solve_sym)
    with pytest.raises(ValueError, match=r"fixed_n_groups must be in 1\.\.4"):
        iterate(state)
    assert calls == []


@pytest.mark.parametrize("algo, calls_per_iteration", [("owo-molf", 0), ("amolf", 1)])
def test_curvature_map_only_where_the_partition_needs_it(
    algo, calls_per_iteration, monkeypatch
):
    # A one-group partition does not depend on the curvature; amolf pinned
    # at two groups does, once per iteration.
    state = _matinv_setup(algo=algo, nh=4, nv=120, seed=8)
    if algo == "amolf":
        state = replace(state, amolf=AmolfState(fixed_n_groups=2))
    calls = []
    counted = amolf.trainers.curvature_map

    def counting_curvature_map(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(amolf.trainers, "curvature_map", counting_curvature_map)
    for _ in range(3):
        state = iterate(state)
    assert len(calls) == calls_per_iteration * 3


def test_a_search_iteration_does_its_work_once(monkeypatch):
    # The winning candidate's step is the iteration's step: a search
    # iteration solves each candidate count's system and the output weights,
    # assembles nothing from per-pattern sums, and runs one forward pass per
    # candidate besides its first, the winner's reused by the output solve;
    # an adapting iteration assembles and solves its one grouped system.
    state = _matinv_setup(algo="amolf", nh=4, nv=120, seed=8, search_period=3)
    n = state.dataset.n_inputs
    solves, assemblies, forwards = [], [], []
    counted_solve = amolf.trainers.solve_sym
    counted_assemble = amolf.trainers.assemble_grouped_direct
    counted_forward = amolf.network.forward

    def counting_solve_sym(*args):
        solves.append(1)
        return counted_solve(*args)

    def counting_assemble(*args):
        assemblies.append(1)
        return counted_assemble(*args)

    def counting_forward(*args):
        forwards.append(1)
        return counted_forward(*args)

    monkeypatch.setattr(amolf.trainers, "solve_sym", counting_solve_sym)
    monkeypatch.setattr(amolf.owo, "solve_sym", counting_solve_sym)
    monkeypatch.setattr(amolf.trainers, "assemble_grouped_direct", counting_assemble)
    # ``mse`` calls the network module's ``forward``; the trainers call their own.
    monkeypatch.setattr(amolf.network, "forward", counting_forward)
    monkeypatch.setattr(amolf.trainers, "forward", counting_forward)
    for searched in (True, False, True, False):  # iterations 1 to 4
        solves.clear()
        assemblies.clear()
        forwards.clear()
        state = iterate(state)
        if searched:
            assert (len(assemblies), len(solves), len(forwards)) == (0, n + 1, n + 1)
        else:
            assert (len(assemblies), len(solves), len(forwards)) == (1, 2, 2)


def test_owo_molf_is_the_grouped_step_pinned_at_one_group():
    state = _matinv_setup(algo="owo-molf", nh=4, nv=120, seed=8)
    assert state.amolf == AmolfState(fixed_n_groups=1)
    state = iterate(iterate(state))
    assert state.amolf.n_groups == 1
    d = state.dataset
    assert state.ledger.per_iteration == [
        cost.mult_owo_molf(d.n_inputs, 4, d.n_outputs, d.n_patterns)
    ] * 2


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
    state = init_state(algo, init_net_control(data, 3, seed), data, search_period=3)
    for _ in range(6):
        state = iterate(state)
        assert np.isfinite(state.last_error)
