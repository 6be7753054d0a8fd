import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amolf import cost
from amolf.dataset import gen_matrix_inversion, kfold_split, load_tra, normalize_zero_mean
from amolf.experiment import ExperimentConfig
from amolf.linalg import PIVOT_RTOL, SolveReport, solve_sym, weight_product
from amolf.network import init_net_control
from amolf.trainers import build_partition, init_state
from support import fixed_order_elimination, gauss_elimination_solve, random_spd


def test_identity_system():
    b = np.array([[1.0], [2.0], [3.0]])
    report = solve_sym(np.eye(3), b)
    assert np.array_equal(report.solution, b)
    assert not report.rank_deficient


def test_zero_pivot_skipped_minimum_norm():
    a = np.diag([1.0, 1.0, 0.0])
    b = np.array([[1.0], [1.0], [0.0]])
    report = solve_sym(a, b)
    assert np.array_equal(report.solution, b)
    assert report.rank_deficient


def test_matches_elimination_oracle():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 6)
    b = rng.standard_normal((6, 2))
    x = solve_sym(a, b).solution
    x_oracle = gauss_elimination_solve(a, b)
    assert np.abs(x - x_oracle).max() <= 1e-9 * (1.0 + np.abs(x_oracle).max())


def _random_psd(rng, n, forced):
    """Gram of a well-conditioned random basis (2n + 10 patterns) in which
    each column j > 0 is, with probability ``forced``, replaced by a
    combination of up to three earlier columns: a zero column, a collinear
    copy, or a mix of two or three. One matrix in ten is the zero matrix."""
    if rng.random() < 0.1:
        return np.zeros((n, n))
    basis = rng.standard_normal((2 * n + 10, n))
    for j in range(1, n):
        if rng.random() < forced:
            sources = rng.choice(j, size=min(j, int(rng.integers(0, 4))), replace=False)
            basis[:, j] = basis[:, sources] @ rng.uniform(-2.0, 2.0, sources.size)
    return basis.T @ basis


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    n_rhs=st.integers(1, 4),
    forced=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    scale_exponent=st.integers(-3, 3),
)
@settings(max_examples=120, deadline=None)
def test_matches_fixed_order_elimination_on_random_psd(
    seed, n, n_rhs, forced, scale_exponent
):
    rng = np.random.default_rng(seed)
    a = 10.0**scale_exponent * _random_psd(rng, n, forced)
    b = rng.standard_normal(n) if n_rhs == 1 else rng.standard_normal((n, n_rhs))
    x_oracle, skipped, pivots = fixed_order_elimination(a, b)
    # A pivot this close to the threshold may fall on either side of it
    # when the arithmetic is reordered.
    thresh = PIVOT_RTOL * float(a.diagonal().max())
    near = (np.abs(pivots) >= 0.1 * thresh) & (np.abs(pivots) <= 10.0 * thresh)
    assume(thresh == 0.0 or not near.any())

    report = solve_sym(a, b)
    assert report.rank_deficient == bool(skipped.any())
    assert report.solution.shape == b.shape
    zeroed = np.all(report.solution.reshape(n, -1) == 0.0, axis=1)
    assert np.array_equal(zeroed, skipped)
    assert np.abs(report.solution - x_oracle).max() <= 1e-9 * (1.0 + np.abs(x_oracle).max())
    # A vector right-hand side back-substitutes by dot products, with the
    # bits of the one-column solve; a skipped unknown is +0.0 in each.
    v = b if b.ndim == 1 else b[:, 0]
    vector = solve_sym(a, v).solution
    column = solve_sym(a, v[:, None]).solution
    assert vector.tobytes() == column[:, 0].tobytes()
    for x in (report.solution, vector, column):
        assert x[skipped].tobytes() == np.zeros_like(x[skipped]).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_residual_bound_spd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    a = random_spd(rng, n)
    b = rng.standard_normal((n, int(rng.integers(1, 4))))
    x = solve_sym(a, b).solution
    assert np.abs(a @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())


def test_vector_rhs_shape():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 5)
    b = rng.standard_normal(5)
    x = solve_sym(a, b).solution
    assert x.shape == (5,)
    assert np.abs(a @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())


def test_deterministic_bit_identical():
    rng = np.random.default_rng(11)
    a = random_spd(rng, 7)
    b = rng.standard_normal((7, 3))
    x1 = solve_sym(a, b).solution
    x2 = solve_sym(a, b).solution
    assert np.array_equal(x1, x2)


def test_duplicated_column_skips_second_occurrence():
    # Second copy of a column hits a zero pivot after the first eliminates it.
    # Back substitution subtracts a ±0.0 from the skipped unknown, whose sign
    # follows the later unknowns; with b and -b each sign shows up.
    for columns, copy in (([0, 1, 2, 3, 1], 4), ([0, 1, 2, 1, 3], 3)):
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((20, 4))[:, columns]
        a = basis.T @ basis
        y = rng.standard_normal(5)
        b = a @ y  # consistent rhs
        for rhs in (b, -b, np.column_stack((b, -b))):
            report = solve_sym(a, rhs)
            assert report.rank_deficient
            assert report.solution[copy].tobytes() == np.zeros_like(rhs[copy]).tobytes()
            residual = np.abs(a @ report.solution - rhs).max()
            assert residual <= 1e-8 * (1.0 + np.abs(rhs).max())


def test_pivot_threshold_is_relative_to_the_largest_diagonal():
    # Threshold 1e-10 * 4: the 2e-10 pivot is skipped, the 8e-10 one kept,
    # and a pivot exactly at the threshold is skipped too.
    for diagonal, solution in (
        ([4.0, 2e-10, 8e-10], [0.25, 0.0, 1.0 / 8e-10]),
        ([4.0, 4e-10, 1.0], [0.25, 0.0, 1.0]),
    ):
        report = solve_sym(np.diag(diagonal), np.ones(3))
        assert report.rank_deficient
        assert np.array_equal(report.solution, solution)


def test_zero_matrix_gives_zero_solution():
    # Every pivot is skipped, so every unknown is +0.0 in the right-hand
    # side's shape, whatever the signs of its entries and of the zeros.
    for shape in ((4,), (4, 1), (4, 3)):
        b = -np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        for a in (np.zeros((4, 4)), np.full((4, 4), -0.0)):
            report = solve_sym(a, b)
            assert report.solution.shape == shape
            assert report.solution.tobytes() == np.zeros(shape).tobytes()
            assert report.rank_deficient


def test_empty_system_skips_no_pivot():
    for b in (np.zeros(0), np.zeros((0, 2))):
        report = solve_sym(np.zeros((0, 0)), b)
        assert report.solution.shape == b.shape
        assert not report.rank_deficient


def test_damped_system_is_a_full_rank_solve():
    # LM adds its damping to the diagonal itself, so the solver sees a plain
    # positive definite system and skips no pivot.
    v = np.array([3.0, -1.0, 2.0])
    report = solve_sym(np.eye(3) + 1.0 * np.eye(3), v)
    assert np.allclose(report.solution, v / 2.0)
    assert not report.rank_deficient


def test_rank_deficient_exactly_when_a_pivot_is_skipped():
    for seed in range(8):
        a = random_spd(np.random.default_rng(seed), 4)
        assert not solve_sym(a, np.ones(4)).rank_deficient
        a[2, :] = 0.0
        a[:, 2] = 0.0
        report = solve_sym(a, np.ones(4))
        assert report.rank_deficient
        assert report.solution[2] == 0.0


def test_rejects_non_symmetric():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve_sym(a, np.ones(2))


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_sym(np.eye(3), np.ones((4, 1)))
    with pytest.raises(ValueError):
        solve_sym(np.ones((3, 2)), np.ones(3))
    # A vector right-hand side of the wrong length is rejected, not
    # reshaped into several columns.
    for b in (np.ones(4), np.ones(3), np.ones((2, 1, 1))):
        with pytest.raises(ValueError, match="incompatible"):
            solve_sym(np.eye(2), b)


def test_rejects_non_finite():
    a = np.eye(2)
    a[0, 0] = np.nan
    # Finiteness is checked first, the matrix's and then the right-hand
    # side's, so a non-square or non-symmetric matrix, or a right-hand side
    # of the wrong length, that holds a NaN or inf fails as non-finite.
    for matrix, rhs, name in (
        (a, np.ones(2), "matrix"),
        (np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.ones(2), "matrix"),
        (np.array([[1.0, 0.5], [0.0, np.inf]]), np.ones(2), "matrix"),
        (np.eye(2), np.array([np.nan, 1.0, 1.0]), "right-hand side"),
    ):
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            solve_sym(matrix, rhs)


def test_report_is_frozen():
    report = solve_sym(np.eye(2), np.ones(2))
    assert isinstance(report, SolveReport)
    with pytest.raises(AttributeError):
        report.rank_deficient = True


WEIGHT_PRODUCT_ROWS = (1, 2, 3, 64, 2000, 18000)
WEIGHT_PRODUCT_INNER = range(1, 33)
WEIGHT_PRODUCT_WIDTHS = (1, 2, 4, 10, 30)


def test_weight_product_has_the_bits_of_the_transposed_product():
    # The contract behind every pattern-sized product with a weight matrix:
    # whichever kernel the helper picks, its bits are those of ``a @ w.T``.
    # This also checks the size rule on the installed OpenBLAS: where its
    # untransposed kernel rounds apart at a shape the rule lets through
    # (more than one row, inner dimension <= UNTRANSPOSED_MAX_INNER), the
    # shape is listed.
    rng = np.random.default_rng(0)
    differ = []
    for rows in WEIGHT_PRODUCT_ROWS:
        for inner in WEIGHT_PRODUCT_INNER:
            a = rng.standard_normal((rows, inner))
            for width in WEIGHT_PRODUCT_WIDTHS:
                w = rng.standard_normal((width, inner))
                if weight_product(a, w).tobytes() != (a @ w.T).tobytes():
                    differ.append((rows, inner, width))
    assert differ == []


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_weight_product_of_infinite_patterns_warns_of_nothing(value):
    # OpenBLAS's untransposed kernel raises the invalid-operation flag on
    # infinite operands; the result is the transposed kernel's, so no
    # warning may escape (pytest turns one into an error).
    rng = np.random.default_rng(2)
    for rows in WEIGHT_PRODUCT_ROWS[:4]:
        for inner in WEIGHT_PRODUCT_INNER:
            a = np.full((rows, inner), value)
            for width in WEIGHT_PRODUCT_WIDTHS:
                w = rng.uniform(0.5, 2.0, (width, inner))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = weight_product(a, w)
                np.testing.assert_array_equal(out, a @ w.T)
                assert np.all(out == value)


# Every count, size and seed that linalg.check_count refuses for the
# package, as (name in the message, call with the value in that place); the
# ledger's counts are in test_cost.py. load_tra reads ``d.tra`` in the
# working directory.
_DATA = normalize_zero_mean(gen_matrix_inversion(40, 0))
_COUNT_ARGUMENTS = {
    **{
        f"ExperimentConfig.{name}": (
            name,
            lambda v, name=name: ExperimentConfig(
                **{"algorithm": "amolf", "n_hidden": 2, "iterations": 3, name: v}
            ),
        )
        for name in (
            "iterations", "n_trials", "n_hidden", "k_folds", "seed", "patience", "search_period"
        )
    },
    "init_state.search_period": (
        "search_period",
        lambda v: init_state("amolf", init_net_control(_DATA, 2, 0), _DATA, search_period=v),
    ),
    "init_net_control.n_hidden": ("n_hidden", lambda v: init_net_control(_DATA, v, 0)),
    "init_net_control.seed": ("seed", lambda v: init_net_control(_DATA, 2, v)),
    "load_tra.n_inputs": ("n_inputs", lambda v: load_tra("d.tra", v, 1)),
    "load_tra.n_outputs": ("n_outputs", lambda v: load_tra("d.tra", 1, v)),
    "gen_matrix_inversion.n_patterns": ("n_patterns", lambda v: gen_matrix_inversion(v, 0)),
    "gen_matrix_inversion.seed": ("seed", lambda v: gen_matrix_inversion(10, v)),
    "kfold_split.k": ("k", lambda v: kfold_split(_DATA, v, 0)),
    "kfold_split.seed": ("seed", lambda v: kfold_split(_DATA, 3, v)),
    **{
        f"mult_lm.{name}": (name, lambda v, i=i: cost.mult_lm(*[3] * i, v, *[3] * (3 - i)))
        for i, name in enumerate(("n", "nh", "m", "nv"))
    },
    "mult_amolf.ng": ("ng", lambda v: cost.mult_amolf(4, 3, 4, 100, v)),
    "build_partition.n_groups": ("n_groups", lambda v: build_partition(np.ones((2, 5)), v)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True)], ids=repr)
@pytest.mark.parametrize("argument", sorted(_COUNT_ARGUMENTS))
def test_every_count_refuses_a_value_that_is_not_a_whole_number(
    argument, value, tmp_path, monkeypatch
):
    # A float or a bool passes a plain range check, then fails inside a run
    # or runs.
    (tmp_path / "d.tra").write_text("1 2\n3 4\n")
    monkeypatch.chdir(tmp_path)
    name, call = _COUNT_ARGUMENTS[argument]
    message = f"^{re.escape(name)} must be a whole number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize(
    "formula",
    [
        cost.mult_owo_bp, cost.mult_lm, cost.mult_newton, cost.mult_owo,
        cost.mult_owo_newton, cost.mult_owo_molf, cost.mult_amolf_search, cost.mult_cg,
    ],
    ids=lambda f: f.__name__,
)
def test_counts_of_numpy_sizes_are_exact_python_ints(formula):
    # In int64 arithmetic these sizes overflow mult_newton, to
    # -6,766,229,150,391,698,944.
    sizes = (100, 1000, 10, 10**6)
    count = formula(*map(np.int64, sizes))
    assert type(count) is int and count == formula(*sizes)
    if formula is cost.mult_newton:
        assert count == 51_348_969_272_057_000_000_000
