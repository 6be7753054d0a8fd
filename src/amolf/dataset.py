"""Training data: loading, synthesis, normalization, and k-fold partitioning.

A dataset holds an augmented input matrix whose last column is the constant
bias input 1, plus a target matrix. File format is plain ASCII, one pattern
per line, inputs then targets, whitespace separated (the classic ``.tra``
layout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_count, check_finite

FOLD_ROLES = "train, validation, and test roles"


@dataclass(frozen=True)
class Dataset:
    """Immutable pattern/target store.

    ``inputs`` has shape (n_patterns, n_inputs + 1) with the bias column of
    ones last; ``targets`` has shape (n_patterns, n_outputs). Arrays are
    copied and write-protected on construction, so a Dataset is safe to
    share across concurrent training runs.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.array(check_finite(self.inputs, "inputs"), order="C")
        targets = np.array(check_finite(self.targets, "targets"), order="C")
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets disagree on pattern count")
        if inputs.shape[0] < 1 or inputs.shape[1] < 2 or targets.shape[1] < 1:
            raise ValueError("need at least 1 pattern, 1 input, and 1 output")
        if not np.all(inputs[:, -1] == 1.0):
            raise ValueError("last input column must be the constant bias 1")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n_patterns(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        """Input count before bias augmentation."""
        return self.inputs.shape[1] - 1

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]


def make_dataset(raw_inputs: np.ndarray, targets: np.ndarray) -> Dataset:
    """Build a Dataset from un-augmented inputs, appending the bias column.
    Both arrays must be 2-D, one row per pattern."""
    raw = np.asarray(raw_inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    for name, array in (("raw_inputs", raw), ("targets", targets)):
        if array.ndim != 2:
            raise ValueError(f"{name} must be 2-D (patterns x columns), got shape {array.shape}")
    bias = np.ones((raw.shape[0], 1))
    return Dataset(np.hstack((raw, bias)), targets)


def take(dataset: Dataset, indices: np.ndarray) -> Dataset:
    """Row subset of a dataset (bias column preserved)."""
    idx = np.asarray(indices, dtype=np.intp)
    return Dataset(dataset.inputs[idx], dataset.targets[idx])


def load_tra(path: str, n_inputs: int, n_outputs: int) -> Dataset:
    """Load a whitespace-separated text file of patterns.

    Each non-empty line must carry exactly ``n_inputs + n_outputs`` finite
    decimal numbers; the final ``n_outputs`` columns are the targets. Malformed
    lines raise ValueError naming the offending line number, and so do input
    or output counts under 1.
    """
    n_inputs = check_count(n_inputs, "n_inputs", 1)
    n_outputs = check_count(n_outputs, "n_outputs", 1)
    expected = n_inputs + n_outputs
    rows: list[list[float]] = []
    with open(path, "rb") as fh:
        # Decoded line by line, so a byte that is not ASCII names its line.
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                tokens = raw.decode("ascii").split()
            except UnicodeDecodeError as exc:
                bad = f"byte {raw[exc.start]:#04x} at column {exc.start + 1} is not ASCII"
                raise ValueError(f"{path}: line {lineno}: {bad}") from None
            if not tokens:
                continue
            if len(tokens) != expected:
                raise ValueError(
                    f"{path}: line {lineno}: expected {expected} columns, found {len(tokens)}"
                )
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            bad = [tok for tok, finite in zip(tokens, np.isfinite(rows[-1])) if not finite]
            if bad:
                raise ValueError(f"{path}: line {lineno}: {bad[0]!r} is not finite")
    if not rows:
        raise ValueError(f"{path}: no patterns")
    data = np.asarray(rows, dtype=np.float64)
    return make_dataset(data[:, :n_inputs], data[:, n_inputs:])


def save_tra(dataset: Dataset, path: str) -> None:
    """Write a dataset in the text format read by load_tra (bias dropped)."""
    raw = dataset.inputs[:, :-1]
    with open(path, "w", encoding="ascii") as fh:
        for x, t in zip(raw, dataset.targets):
            fh.write(" ".join(f"{v:.17g}" for v in x))
            fh.write(" ")
            fh.write(" ".join(f"{v:.17g}" for v in t))
            fh.write("\n")


def normalize_zero_mean(dataset: Dataset) -> Dataset:
    """Subtract each input column's sample mean; bias and targets untouched."""
    raw = dataset.inputs[:, :-1]
    return make_dataset(raw - raw.mean(axis=0), dataset.targets)


def gen_matrix_inversion(n_patterns: int, seed: int) -> Dataset:
    """Synthesize the 2x2 matrix-inversion regression task.

    Each pattern's four inputs are the row-major entries of a 2x2 matrix
    drawn uniformly on [0, 1], rejection-sampled until its determinant lies
    in [0.3, 2]; the four targets are the row-major entries of the exact
    inverse. Deterministic for a given seed.
    """
    n_patterns = check_count(n_patterns, "n_patterns", 1)
    seed = check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    accepted = 0
    while accepted < n_patterns:
        raw = rng.random((4096, 4))
        det = raw[:, 0] * raw[:, 3] - raw[:, 1] * raw[:, 2]
        keep = raw[(det >= 0.3) & (det <= 2.0)]
        chunks.append(keep)
        accepted += keep.shape[0]
    mats = np.vstack(chunks)[:n_patterns]
    det = mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]
    inverses = np.column_stack((mats[:, 3], -mats[:, 1], -mats[:, 2], mats[:, 0])) / det[:, None]
    return make_dataset(mats, inverses)


@dataclass(frozen=True)
class FoldPlan:
    """Shuffled k-fold assignment with fixed validation/test roles.

    ``assignments[p]`` is the 1-based fold of pattern p. Round r (1-based)
    tests on fold r and validates on its cyclic successor; the remaining
    k - 2 folds train.
    """

    k: int
    assignments: np.ndarray

    def split(self, round_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pattern indices (train, validation, test) of round ``round_index``."""
        if not 1 <= round_index <= self.k:
            raise ValueError(f"round must be in 1..{self.k}")
        test = self.assignments == round_index
        validation = self.assignments == round_index % self.k + 1
        return (
            np.flatnonzero(~(test | validation)),
            np.flatnonzero(validation),
            np.flatnonzero(test),
        )


def kfold_split(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic shuffled split into k folds of near-equal size."""
    k = check_count(k, "k", 3, FOLD_ROLES)
    nv = dataset.n_patterns
    if nv < k:
        raise ValueError(f"cannot split {nv} patterns into {k} folds")
    seed = check_count(seed, "seed", 0)
    perm = np.random.default_rng(seed).permutation(nv)
    # Fold f takes the next ``base`` patterns of perm, one more if f <= extra.
    base, extra = divmod(nv, k)
    folds = np.arange(1, k + 1)
    assignments = np.empty(nv, dtype=np.int64)
    assignments[perm] = np.repeat(folds, base + (folds <= extra))
    return FoldPlan(k=k, assignments=assignments)
