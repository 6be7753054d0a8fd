import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amolf.dataset import (
    Dataset,
    gen_matrix_inversion,
    kfold_split,
    load_tra,
    make_dataset,
    normalize_zero_mean,
    save_tra,
    take,
)


def test_load_tra_direct_parse(tmp_path):
    path = tmp_path / "two.tra"
    path.write_text("1 2 3\n4 5 6\n")
    d = load_tra(str(path), n_inputs=2, n_outputs=1)
    assert d.n_patterns == 2
    assert np.array_equal(d.inputs[0], [1.0, 2.0, 1.0])
    assert np.array_equal(d.targets[0], [3.0])


def test_load_tra_empty_file(tmp_path):
    path = tmp_path / "empty.tra"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no patterns"):
        load_tra(str(path), 2, 1)


def test_load_tra_column_mismatch_names_line(tmp_path):
    path = tmp_path / "bad.tra"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_tra(str(path), 2, 1)


@pytest.mark.parametrize("n_inputs, n_outputs", [(-1, 3), (0, 2), (2, 0), (3, -1)])
def test_load_tra_rejects_non_positive_counts(tmp_path, n_inputs, n_outputs):
    # Each pair sums to 2, the column count, so only the range check fails.
    path = tmp_path / "two.tra"
    path.write_text("1 2\n3 4\n")
    with pytest.raises(ValueError, match=">= 1"):
        load_tra(str(path), n_inputs, n_outputs)


@pytest.mark.parametrize(
    "content, line, byte, column",
    [(b"\xef\xbb\xbf0.1 0.2 0.3\n", 1, "0xef", 1), (b"1 2 3\r\n\r\n4 5 \xb56\n", 3, "0xb5", 5)],
    ids=["utf8-bom", "latin1-micro"],
)
def test_load_tra_names_the_line_of_a_byte_that_is_not_ascii(tmp_path, content, line, byte, column):
    # Like any other malformed line, a byte that is not ASCII is an error
    # naming the file and the line.
    path = tmp_path / "bad.tra"
    path.write_bytes(content)
    message = f"^{re.escape(str(path))}: line {line}: byte {byte} at column {column} is not ASCII$"
    with pytest.raises(ValueError, match=message):
        load_tra(str(path), 2, 1)


def test_load_tra_bad_token_names_line(tmp_path):
    path = tmp_path / "bad.tra"
    path.write_text("1 2 3\n4 x 6\n")
    with pytest.raises(ValueError, match="line 2"):
        load_tra(str(path), 2, 1)


@pytest.mark.parametrize(
    "line, token", [("nan 1 2", "nan"), ("1 1e400 2", "1e400"), ("1 2 -inf", "-inf")]
)
def test_load_tra_non_finite_value_names_line(tmp_path, line, token):
    # A non-finite input or target used to pass the parse and fail later as
    # "inputs contains non-finite entries", with no line number.
    path = tmp_path / "bad.tra"
    path.write_text(f"1 2 3\n\n{line}\n")
    message = f"{path}: line 3: '{token}' is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_tra(str(path), 2, 1)


def test_save_load_round_trip(tmp_path):
    d = gen_matrix_inversion(50, 3)
    path = tmp_path / "out.tra"
    save_tra(d, str(path))
    d2 = load_tra(str(path), 4, 4)
    assert np.array_equal(d.inputs, d2.inputs)
    assert np.array_equal(d.targets, d2.targets)


def test_normalize_two_values():
    d = make_dataset(np.array([[1.0], [3.0]]), np.zeros((2, 1)))
    normed = normalize_zero_mean(d)
    assert np.array_equal(normed.inputs[:, 0], [-1.0, 1.0])


def test_normalize_zero_mean_column_unchanged():
    d = make_dataset(np.array([[-1.0], [1.0]]), np.zeros((2, 1)))
    normed = normalize_zero_mean(d)
    assert np.array_equal(normed.inputs, d.inputs)


def test_normalize_leaves_bias_and_targets():
    rng = np.random.default_rng(0)
    d = make_dataset(rng.standard_normal((40, 3)) + 5.0, rng.standard_normal((40, 2)))
    normed = normalize_zero_mean(d)
    assert np.array_equal(normed.inputs[:, -1], np.ones(40))
    assert np.array_equal(normed.targets, d.targets)
    assert np.abs(normed.inputs[:, :3].mean(axis=0)).max() <= 1e-12


def test_gen_matrix_inversion_constraints_and_inverse():
    d = gen_matrix_inversion(2000, 42)
    assert d.n_inputs == 4 and d.n_outputs == 4
    mats = d.inputs[:, :4].reshape(-1, 2, 2)
    det = np.linalg.det(mats)
    assert det.min() >= 0.3 and det.max() <= 2.0
    assert mats.min() >= 0.0 and mats.max() <= 1.0
    products = np.einsum("pij,pjk->pik", mats, d.targets.reshape(-1, 2, 2))
    assert np.abs(products - np.eye(2)).max() <= 1e-10


def test_matrix_inverse_oracle_row_major():
    # [[2,1],[1,1]] has determinant 1 and inverse [[1,-1],[-1,2]]; its entry 2
    # is outside [0,1] so it can never be sampled, but it pins the row-major
    # target layout the generator must follow.
    mat = np.array([[2.0, 1.0], [1.0, 1.0]])
    inv = np.linalg.inv(mat)
    assert np.array_equal(inv, np.array([[1.0, -1.0], [-1.0, 2.0]]))
    d = gen_matrix_inversion(5, 1)
    first = d.inputs[0, :4].reshape(2, 2)
    assert np.abs(d.targets[0] - np.linalg.inv(first).ravel()).max() <= 1e-12


def test_gen_matrix_inversion_deterministic():
    a = gen_matrix_inversion(100, 9)
    b = gen_matrix_inversion(100, 9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


def test_kfold_2000_by_10():
    d = gen_matrix_inversion(2000, 0)
    plan = kfold_split(d, 10, 0)
    for r in range(1, 11):
        train, validation, test = plan.split(r)
        assert (len(train), len(validation), len(test)) == (1600, 200, 200)


@pytest.mark.parametrize("round_index", [0, 11])
def test_kfold_round_must_be_in_1_to_k(round_index):
    plan = kfold_split(gen_matrix_inversion(100, 0), 10, 0)
    with pytest.raises(ValueError, match=r"round must be in 1\.\.10"):
        plan.split(round_index)


def test_kfold_singleton_folds():
    d = make_dataset(np.arange(10.0)[:, None], np.zeros((10, 1)))
    plan = kfold_split(d, 10, 1)
    counts = np.bincount(plan.assignments)[1:]
    assert np.array_equal(counts, np.ones(10, dtype=int))


def test_kfold_deterministic():
    d = gen_matrix_inversion(97, 2)
    a = kfold_split(d, 5, 123)
    b = kfold_split(d, 5, 123)
    assert np.array_equal(a.assignments, b.assignments)


def test_kfold_requires_three_folds():
    d = gen_matrix_inversion(10, 0)
    with pytest.raises(ValueError, match="k must be >= 3"):
        kfold_split(d, 2, 0)


def test_kfold_rejects_a_negative_seed():
    d = gen_matrix_inversion(10, 0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -2$"):
        kfold_split(d, 5, -2)


@given(st.integers(3, 25), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_kfold_partition_properties(k, seed):
    nv = k + seed % 150
    d = make_dataset(np.arange(float(nv))[:, None], np.zeros((nv, 1)))
    plan = kfold_split(d, k, seed)
    sizes = np.bincount(plan.assignments, minlength=k + 1)[1:]
    assert sizes.sum() == nv
    assert sizes.max() - sizes.min() <= 1
    for r in (1, k):
        train_idx, val_idx, test_idx = plan.split(r)
        train, val, test = set(train_idx), set(val_idx), set(test_idx)
        assert not (train & val) and not (train & test) and not (val & test)
        assert len(train | val | test) == nv
        assert set(plan.assignments[test_idx]) == {r}
        assert set(plan.assignments[val_idx]) == {r % k + 1}


def test_dataset_rejects_missing_bias():
    with pytest.raises(ValueError, match="bias"):
        Dataset(np.array([[1.0, 2.0]]), np.array([[1.0]]))


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError):
        make_dataset(np.array([[np.inf]]), np.array([[1.0]]))


@pytest.mark.parametrize(
    "raw, targets, name, shape",
    [
        (np.arange(5.0), np.arange(5.0), "raw_inputs", (5,)),
        (np.zeros((5, 2)), np.arange(5.0), "targets", (5,)),
        (np.zeros((5, 2, 1)), np.zeros((5, 1)), "raw_inputs", (5, 2, 1)),
    ],
)
def test_make_dataset_refuses_arrays_that_are_not_2d(raw, targets, name, shape):
    # A 1-D array is neither one pattern nor one column: it is refused by
    # name and shape, not read as a single pattern.
    message = rf"^{name} must be 2-D \(patterns x columns\), got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        make_dataset(raw, targets)


def test_dataset_arrays_immutable():
    d = gen_matrix_inversion(5, 0)
    with pytest.raises(ValueError):
        d.inputs[0, 0] = 7.0


def test_take_subset():
    d = gen_matrix_inversion(20, 0)
    sub = take(d, np.array([3, 5, 7]))
    assert sub.n_patterns == 3
    assert np.array_equal(sub.inputs[1], d.inputs[5])


def test_caller_arrays_stay_writeable_and_unshared():
    x, t, raw = np.ones((3, 2)), np.zeros((3, 1)), np.zeros((3, 1))
    datasets = (Dataset(x, t), make_dataset(raw, t))
    for arr in (x, t, raw):
        assert arr.flags.writeable
        for d in datasets:
            assert not np.shares_memory(d.inputs, arr)
            assert not np.shares_memory(d.targets, arr)
    t[:] = 9.0
    assert not any(d.targets.any() for d in datasets)
