import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amolf import cost
from support import FRACTION_COUNTS

# Per-iteration multiply counts for the benchmark configurations, evaluated
# independently with exact rational arithmetic through symbolically expanded
# polynomial forms of the same formulas.
# name: (n, m, nv, nh) ->
#   (ols, owo_bp, lm, newton, owo_newton, owo_molf, amolf_ng1, amolf_ng2, amolf_ngN)
BENCHMARK_CONFIGS = {
    "twod": (8, 7, 1768, 27),
    "single2": (16, 3, 10000, 23),
    "oh7": (20, 3, 15000, 23),
    "concrete": (8, 1, 730, 23),
    "matinv": (4, 4, 2000, 30),
}
EXPECTED_COUNTS = {
    "twod": (27528, 3349600, 883420176, 657454323240, 657456861328, 5832612, 5355873, 19777347, 298893411),
    "single2": (29520, 19399520, 7718293952, 23194679130000, 23194693699520, 13805704, 9666233, 35229583, 2075981863),
    "oh7": (38280, 34763280, 17210226600, 79472010975000, 79472037113280, 22085704, 14496325, 52824675, 4845834603),
    "concrete": (14080, 782770, 154517280, 13725270930, 13725869010, 408664, 241017, 895505, 14872375),
    "matinv": (21840, 2749840, 342657100, 183588500000, 183590649840, 4571780, 4212170, 15683590, 60620630),
}


def test_ols_small_values():
    assert cost.mult_ols(1, 1) == 6
    assert cost.mult_ols(0, 5) == 0
    assert cost.mult_ols(37, 3) == 23902  # n=20, nh=16 style fixture


@pytest.mark.parametrize("name", sorted(BENCHMARK_CONFIGS))
def test_benchmark_configurations_match_independent_evaluation(name):
    n, m, nv, nh = BENCHMARK_CONFIGS[name]
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
    assert actual == EXPECTED_COUNTS[name]


def test_owo_newton_is_sum_of_parts():
    for n, m, nv, nh in BENCHMARK_CONFIGS.values():
        assert cost.mult_owo_newton(n, nh, m, nv) == cost.mult_owo(
            n, nh, m, nv
        ) + cost.mult_newton(n, nh, m, nv)


def test_single_group_amolf_within_factor_two_of_owo_molf():
    for n, m, nv, nh in BENCHMARK_CONFIGS.values():
        a = cost.mult_amolf(n, nh, m, nv, 1)
        b = cost.mult_owo_molf(n, nh, m, nv)
        assert 0.5 <= a / b <= 2.0


def test_lm_dominates_owo_molf_on_twod():
    n, m, nv, nh = BENCHMARK_CONFIGS["twod"]
    assert cost.mult_lm(n, nh, m, nv) > cost.mult_owo_molf(n, nh, m, nv)


@pytest.mark.parametrize(
    "fn",
    [cost.mult_owo_bp, cost.mult_lm, cost.mult_newton, cost.mult_owo_newton, cost.mult_owo_molf],
)
def test_monotone_in_patterns_and_hidden_units(fn):
    prev = None
    for nv in range(1, 65):
        value = fn(5, 8, 3, nv)
        assert prev is None or value >= prev
        prev = value
    prev = None
    for nh in range(1, 65):
        value = fn(5, nh, 3, 200)
        assert prev is None or value >= prev
        prev = value


def test_amolf_monotone_in_group_count():
    prev = None
    for ng in range(1, 9):
        value = cost.mult_amolf(8, 12, 3, 500, ng)
        assert prev is None or value >= prev
        prev = value


def test_amolf_monotone_in_patterns_and_hidden_units():
    values = [cost.mult_amolf(5, 8, 3, nv, 2) for nv in range(1, 65)]
    assert values == sorted(values)
    values = [cost.mult_amolf(5, nh, 3, 200, 2) for nh in range(1, 65)]
    assert values == sorted(values)


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 20),
    st.integers(1, 5000),
)
@settings(max_examples=60, deadline=None)
def test_counts_are_positive_integers(n, nh, m, nv):
    for value in (
        cost.mult_owo_bp(n, nh, m, nv),
        cost.mult_lm(n, nh, m, nv),
        cost.mult_owo_molf(n, nh, m, nv),
        cost.mult_amolf(n, nh, m, nv, min(n, 3)),
        cost.mult_cg(n, nh, m, nv),
        cost.mult_amolf_search(n, nh, m, nv),
    ):
        assert isinstance(value, int)
        assert value > 0


@given(
    st.integers(1, 12),
    st.integers(1, 60),
    st.integers(1, 12),
    st.integers(1, 20000),
)
@settings(max_examples=100, deadline=None)
def test_counts_equal_their_exact_rational_forms(n, nh, m, nv):
    names = sorted(name for name in vars(cost) if name.startswith("mult_"))
    assert names == sorted(FRACTION_COUNTS)
    for name in names:
        if name == "mult_ols":
            cases = [(n + nh + 1, m)]
        elif name == "mult_amolf":
            cases = [(n, nh, m, nv, ng) for ng in range(1, n + 1)]
        else:
            cases = [(n, nh, m, nv)]
        for args in cases:
            reference = FRACTION_COUNTS[name](*args)
            assert reference.denominator == 1, (name, args)
            value = getattr(cost, name)(*args)
            assert type(value) is int and value == reference, (name, args)


def test_epm_arithmetic():
    assert cost.epm(1.0, 0.5, 1_000_000) == 5e-7
    assert cost.epm(0.75, 0.75, 123) == 0.0
    assert cost.epm(0.5, 1.0, 10) == -0.05
    assert cost.epm(1.0, 0.5, np.int64(4)) == 0.125


def test_epm_rejects_non_positive_multiplies():
    with pytest.raises(ValueError):
        cost.epm(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        cost.epm(1.0, 0.5, -3)


@pytest.mark.parametrize(
    "count", [True, False, np.bool_(True), 2.5, 1.0, np.float64(4.0)], ids=repr
)
def test_counts_refuse_bools_and_non_integral_values(count):
    # A bool is a numbers.Integral, and a float divides; neither is a count.
    with pytest.raises(ValueError, match="whole number") as excinfo:
        cost.epm(1.0, 0.5, count)
    assert "\n" not in str(excinfo.value)
    ledger = cost.CostLedger()
    with pytest.raises(ValueError, match="whole number"):
        ledger.record(count)
    assert ledger.per_iteration == ()


def test_ledger_cumulative_reconstruction():
    ledger = cost.CostLedger()
    for value in (10, 20, 5, 7):
        ledger = ledger.record(value)
    assert ledger.per_iteration == (10, 20, 5, 7)
    assert ledger.cumulative() == [10, 30, 35, 42]
    assert ledger.total() == 42
    rebuilt = [ledger.cumulative()[0]]
    for a, b in zip(ledger.cumulative(), ledger.cumulative()[1:]):
        rebuilt.append(b)
        assert b - a == ledger.per_iteration[len(rebuilt) - 1]


def test_ledger_rejects_non_positive_counts():
    ledger = cost.CostLedger()
    for value in (0, -1, 0.5, 2.9):
        with pytest.raises(ValueError):
            ledger.record(value)
    assert ledger.per_iteration == ()
    ledger = ledger.record(np.int64(3))
    assert ledger.per_iteration == (3,) and type(ledger.per_iteration[0]) is int


def test_ledger_record_returns_a_new_ledger():
    # A ledger is a value: recording leaves the one recorded on unchanged,
    # so states that share a ledger cannot write into each other's.
    start = cost.CostLedger((10, 20))
    longer = start.record(5)
    assert longer is not start
    assert start.per_iteration == (10, 20) and start.total() == 30
    assert longer.per_iteration == (10, 20, 5) and longer.total() == 35
    with pytest.raises(dataclasses.FrozenInstanceError):
        start.per_iteration = ()
