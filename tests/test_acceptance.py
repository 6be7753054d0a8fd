"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with the measured margins. Criterion 7 trains 10 networks for 150
iterations twice and takes a few tens of seconds; everything else is fast.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest

from amolf import cost
from amolf.dataset import gen_matrix_inversion, make_dataset, normalize_zero_mean
from amolf.experiment import ExperimentConfig, run_training
from amolf.gradients import (
    backprop,
    curvature_map,
    gauss_newton_input_hessian,
    input_weight_gradient,
)
from amolf.linalg import solve_sym
from amolf.network import Mlp, forward, init_net_control, mse
from amolf.owo import accumulate_correlations, output_weight_step, solve_output_weights
from amolf.trainers import (
    apply_grouped_step,
    assemble_grouped_direct,
    assemble_grouped_from_hessian,
    build_partition,
    fletcher_reeves_direction,
    init_state,
    iterate,
)
from support import (
    fd_gradients,
    grouped_quadratic_drop,
    matrix_relative_error,
    molf_solve,
    nested_split_chain,
    newton_step,
    output_hessian_gradient,
    random_network,
    random_spd,
    relative_max_error,
    single_group_partition,
)


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        mlp, d = random_network(rng, 4, 3, 2, 20)
        grads = backprop(forward(mlp, d))
        fd_w, fd_woh, fd_woi = fd_gradients(mlp, d, step=1e-6)
        worst = max(
            worst,
            relative_max_error(grads.input_weights, fd_w),
            relative_max_error(grads.output_weights, fd_woh),
            relative_max_error(grads.bypass_weights, fd_woi),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 5.0
    _report("criterion-1 gradient oracle", f"max rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_hessian_compression_identities():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        mlp, d = random_network(rng, 4, 3, 2, 25)
        trace = forward(mlp, d)
        gw = backprop(trace).input_weights
        hessian = gauss_newton_input_hessian(trace)
        hw = curvature_map(trace)

        # one group per unit: compressed system vs direct accumulation
        group = single_group_partition(mlp.n_hidden, d.n_inputs + 1)
        ha_direct, ga_direct = assemble_grouped_direct(trace, gw, group)
        ha_comp, ga_comp = assemble_grouped_from_hessian(hessian, gw, group)
        worst = max(
            worst,
            matrix_relative_error(ha_direct, ha_comp),
            matrix_relative_error(ga_direct, ga_comp),
        )

        # grouped systems: interpolation from the full Hessian vs direct
        for ng in (1, 2, d.n_inputs + 1):
            group = build_partition(hw, ng)
            ha_d, ga_d = assemble_grouped_direct(trace, gw, group)
            ha_i, ga_i = assemble_grouped_from_hessian(hessian, gw, group)
            worst = max(
                worst,
                matrix_relative_error(ha_d, ha_i),
                matrix_relative_error(ga_d, ga_i),
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(
        "criterion-2 compression identities", f"max rel err {worst:.2e} in {elapsed:.2f}s"
    )


def test_criterion_03_limiting_cases():
    # (a) the single-group trainer reproduces one factor per unit, solved
    # by compressing the full input-weight Hessian
    data = normalize_zero_mean(gen_matrix_inversion(300, 5))
    mlp = init_net_control(data, 8, 11)
    state = init_state("owo-molf", mlp, data)
    worst_gap = 0.0
    for _ in range(20):
        trace = forward(mlp, data)
        gw = input_weight_gradient(trace)
        z = molf_solve(gauss_newton_input_hessian(trace), gw)
        stepped = apply_grouped_step(mlp, gw, single_group_partition(*gw.shape), z)
        solved = output_weight_step(forward(stepped, data))
        mlp = solved.mlp
        state = iterate(state)
        worst_gap = max(worst_gap, abs(state.last_error - solved.error))
    assert worst_gap <= 1e-12

    # (b) all-singleton groups reproduce the full second-order step
    rng = np.random.default_rng(33)
    net, d = random_network(rng, 3, 3, 2, 40)
    trace = forward(net, d)
    grads = backprop(trace)
    hessian = gauss_newton_input_hessian(trace)
    assert np.abs(grads.input_weights).min() > 0.0
    gw = grads.input_weights
    dw_newton = newton_step(hessian, gw)
    group = build_partition(curvature_map(trace), d.n_inputs + 1)
    ha, ga = assemble_grouped_from_hessian(hessian, gw, group)
    z = solve_sym(ha, ga).solution
    stepped = apply_grouped_step(net, gw, group, z)
    newton_gap = matrix_relative_error(stepped.w - net.w, dw_newton)
    assert newton_gap <= 1e-6
    _report(
        "criterion-3 limiting cases",
        f"trajectory gap {worst_gap:.2e}, singleton-vs-newton {newton_gap:.2e}",
    )


def test_criterion_04_quadratic_split_monotonicity():
    worst_violation = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        h = random_spd(rng, 16)
        g = rng.standard_normal(16)
        drops = [
            grouped_quadratic_drop(h, g, groups)
            for groups in nested_split_chain(16, (1, 2, 4, 8))
        ]
        for coarse, fine in zip(drops, drops[1:]):
            worst_violation = max(worst_violation, fine - coarse)
    assert worst_violation <= 1e-12
    _report(
        "criterion-4 split monotonicity", f"worst violation {worst_violation:.2e}"
    )


def test_criterion_05_output_solve_equals_newton_step():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        mlp, d = random_network(rng, 4, 3, 1, 30)
        trace = forward(mlp, d)
        solution = solve_output_weights(*accumulate_correlations(trace))
        ho, go = output_hessian_gradient(mlp, d, trace)
        step = solve_sym(ho, go).solution
        newton_wo = np.hstack((mlp.woi, mlp.woh)).ravel() + step
        worst = max(worst, float(np.abs(newton_wo - solution.solution.T.ravel()).max()))
    assert worst <= 1e-8
    _report("criterion-5 output solve vs newton", f"max gap {worst:.2e}")


def test_criterion_06_linear_dependence_guard():
    rng = np.random.default_rng(66)
    raw = rng.standard_normal((60, 5))
    raw[:, 4] = raw[:, 0]  # duplicated input column
    d = make_dataset(raw, rng.standard_normal((60, 2)))
    mlp = Mlp(
        w=0.8 * rng.standard_normal((4, 6)),
        woh=0.8 * rng.standard_normal((2, 4)),
        woi=0.8 * rng.standard_normal((2, 6)),
        activation="sigmoid",
    )
    trace = forward(mlp, d)
    grads = backprop(trace)
    hessian = gauss_newton_input_hessian(trace)
    full_report = solve_sym(hessian, grads.input_weights.ravel())
    assert full_report.rank_deficient

    hw = curvature_map(trace)
    cap = -(-(d.n_inputs + 1) // 2)  # ceil((n+1)/2)
    grouped_flags = []
    for ng in range(1, cap + 1):
        group = build_partition(hw, ng)
        ha, ga = assemble_grouped_direct(trace, grads.input_weights, group)
        grouped_flags.append(solve_sym(ha, ga).rank_deficient)
    assert not any(grouped_flags)
    _report(
        "criterion-6 linear-dependence guard",
        f"full system singular, grouped systems regular for 1..{cap} groups",
    )


def test_criterion_07_matrix_inversion_reproduction():
    start = time.perf_counter()
    dataset = gen_matrix_inversion(2000, 0)
    mats = dataset.inputs[:, :4].reshape(-1, 2, 2)
    det = np.linalg.det(mats)
    assert det.min() >= 0.3 and det.max() <= 2.0
    products = np.einsum("pij,pjk->pik", mats, dataset.targets.reshape(-1, 2, 2))
    assert np.abs(products - np.eye(2)).max() <= 1e-10

    amolf_curve = run_training(
        dataset,
        ExperimentConfig(algorithm="amolf", n_hidden=30, iterations=150, n_trials=10, seed=0),
    )
    molf_curve = run_training(
        dataset,
        ExperimentConfig(algorithm="owo-molf", n_hidden=30, iterations=150, n_trials=10, seed=0),
    )
    elapsed = time.perf_counter() - start
    amolf_final = float(amolf_curve.mean_mse[-1])
    molf_final = float(molf_curve.mean_mse[-1])
    assert amolf_final <= 0.005
    assert molf_final <= 0.02
    assert amolf_final <= molf_final
    assert elapsed < 600.0
    _report(
        "criterion-7 matrix-inversion reproduction",
        f"amolf {amolf_final:.4f} <= 0.005, owo-molf {molf_final:.4f} <= 0.02, "
        f"amolf <= owo-molf, {elapsed:.0f}s",
    )


def test_criterion_08_cost_formulas_and_ledger():
    from test_cost import BENCHMARK_CONFIGS, EXPECTED_COUNTS

    for name, (n, m, nv, nh) in BENCHMARK_CONFIGS.items():
        nu = n + nh + 1
        actual = (
            cost.mult_ols(nu, m),
            cost.mult_owo_bp(n, nh, m, nv),
            cost.mult_lm(n, nh, m, nv),
            cost.mult_newton(n, nh, m, nv),
            cost.mult_owo_newton(n, nh, m, nv),
            cost.mult_owo_molf(n, nh, m, nv),
            cost.mult_amolf(n, nh, m, nv, 1),
            cost.mult_amolf(n, nh, m, nv, 2),
            cost.mult_amolf(n, nh, m, nv, n),
        )
        assert actual == EXPECTED_COUNTS[name], name

    ledger = cost.CostLedger()
    rng = np.random.default_rng(8)
    entries = [int(v) for v in rng.integers(1, 10**9, size=50)]
    for value in entries:
        ledger = ledger.record(value)
    cumulative = ledger.cumulative()
    recovered = [cumulative[0]] + [b - a for a, b in zip(cumulative, cumulative[1:])]
    assert recovered == entries
    _report(
        "criterion-8 cost formulas",
        f"{len(BENCHMARK_CONFIGS)} configurations x 9 formulas exact, ledger reconstructs",
    )


def test_criterion_09_cg_quadratic_termination():
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag([1.0, 2.0, 3.5, 5.0, 8.0]) @ q.T
    b = rng.standard_normal(5)
    target = np.linalg.solve(a, b)
    w = np.zeros(5)
    direction = None
    norm_sq = None
    gap = None
    for _ in range(5):
        g = b - a @ w
        direction = fletcher_reeves_direction(g, direction, norm_sq)
        step = float(g @ direction) / float(direction @ a @ direction)
        w = w + step * direction
        norm_sq = float(g @ g)
    gap = float(np.abs(w - target).max())
    assert gap <= 1e-8
    _report("criterion-9 cg quadratic termination", f"5-step gap {gap:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    def invoke(out_name, extra):
        out = tmp_path / out_name
        result = subprocess.run(
            [sys.executable, "-m", "amolf", *extra, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return out.read_bytes()

    train_flags = [
        "train", "--synthetic", "matinv", "--patterns", "200", "--nh", "5",
        "--algo", "amolf", "--iters", "6", "--trials", "2", "--seed", "7",
    ]
    assert invoke("a.csv", train_flags) == invoke("b.csv", train_flags)

    kfold_flags = [
        "kfold", "--synthetic", "matinv", "--patterns", "120", "--nh", "3",
        "--algo", "owo-molf", "--iters", "4", "--k", "4", "--seed", "7",
    ]
    assert invoke("ka.csv", kfold_flags) == invoke("kb.csv", kfold_flags)

    gen_flags = ["gen-data", "--patterns", "40", "--seed", "3"]
    assert invoke("ga.tra", gen_flags) == invoke("gb.tra", gen_flags)
    _report("criterion-10 cli determinism", "train, kfold, gen-data byte-identical")


def _jacobi_condition(matrix):
    """Condition number of ``matrix`` scaled to a unit diagonal."""
    scale = 1.0 / np.sqrt(matrix.diagonal())
    eigenvalues = np.linalg.eigvalsh(matrix * np.outer(scale, scale))
    return eigenvalues[-1] / eigenvalues[0]


def test_compression_gives_better_conditioned_systems():
    # The paper compresses the ill-conditioned input-weight Hessian into
    # smaller well-conditioned grouped systems. Raw condition numbers order
    # the other way, since a grouped unknown's scale is its group's squared
    # gradient, so both sides are compared after Jacobi scaling. The points
    # were fixed before the margins were looked at: matinv, 2000 patterns,
    # nh=30, seeds 0 and 1, after 10, 50 and 150 amolf iterations, every
    # group count the trainer can pick.
    data = {seed: normalize_zero_mean(gen_matrix_inversion(2000, seed)) for seed in (0, 1)}
    margins = []
    for seed, d in data.items():
        state = init_state("amolf", init_net_control(d, 30, seed), d)
        for stop in (10, 50, 150):
            while state.iteration < stop:
                state = iterate(state)
            trace = forward(state.mlp, d)
            gw = input_weight_gradient(trace)
            hessian = gauss_newton_input_hessian(trace)
            full = _jacobi_condition(hessian)
            curvature = hessian.diagonal().reshape(gw.shape)
            for ng in cost.amolf_group_counts(d.n_inputs):
                group = build_partition(curvature, ng)
                grouped = _jacobi_condition(assemble_grouped_from_hessian(hessian, gw, group)[0])
                assert 0.0 < grouped < full, (seed, stop, ng, grouped, full)
                margins.append(full / grouped)
    _report(
        "compression conditioning",
        f"full/grouped scaled condition {min(margins):.1f}x to {max(margins):.0f}x "
        f"over {len(margins)} systems",
    )


# The paper's headline: amolf's error at a fixed multiply budget is at or
# below owo-molf's and lm's. The data, sizes, seeds and budgets were fixed
# before the margins were looked at: matinv, 2000 patterns, data seed 0,
# nh=30, sigmoid, init seeds 0 and 1, budgets 5e8, 1e9 and 2e9.
HEADLINE_BUDGETS = (5e8, 1e9, 2e9)
# Where amolf trails owo-molf, with its group count capped at n per unit.
# They are strict expected failures, so a change that lifts them must
# unmark them.
HEADLINE_TRAILS = {(1, 1e9, "owo-molf"), (1, 2e9, "owo-molf")}


@functools.cache
def _errors_by_multiplies(algorithm, seed):
    """(ledger total, error, wall seconds since the run started) of each
    state of one run, from the start until the ledger passes the largest
    budget. The seconds depend on the host; nothing asserts on them."""
    data = normalize_zero_mean(gen_matrix_inversion(2000, 0))
    start = time.perf_counter()
    state = init_state(algorithm, init_net_control(data, 30, seed), data)
    points = [(state.ledger.total(), state.last_error, time.perf_counter() - start)]
    while points[-1][0] <= max(HEADLINE_BUDGETS):
        state = iterate(state)
        points.append((state.ledger.total(), state.last_error, time.perf_counter() - start))
    return tuple(points)


def _error_at_budget(algorithm, seed, budget):
    """(error, wall seconds) after the run's last iteration whose ledger
    total is at or under ``budget``."""
    points = _errors_by_multiplies(algorithm, seed)
    return [(error, seconds) for total, error, seconds in points if total <= budget][-1]


@pytest.mark.parametrize(
    "seed, budget, rival",
    [
        pytest.param(
            seed,
            budget,
            rival,
            id=f"seed{seed}-{budget:.0e}-{rival}",
            marks=[pytest.mark.xfail(strict=True, reason="amolf trails owo-molf here")]
            if (seed, budget, rival) in HEADLINE_TRAILS
            else [],
        )
        for seed in (0, 1)
        for budget in HEADLINE_BUDGETS
        for rival in ("owo-molf", "lm")
    ],
)
def test_amolf_error_at_equal_multiplies(seed, budget, rival):
    ours, our_seconds = _error_at_budget("amolf", seed, budget)
    theirs, their_seconds = _error_at_budget(rival, seed, budget)
    print(
        f"seed {seed} at {budget:.0e} multiplies: amolf {ours:.4e} in {our_seconds:.2f} s, "
        f"{rival} {theirs:.4e} in {their_seconds:.2f} s, margin {theirs - ours:+.3e}"
    )
    assert ours <= theirs
