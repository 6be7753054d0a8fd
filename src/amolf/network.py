"""Single-hidden-layer MLP with linear outputs and input-to-output bypass.

The model is three weight matrices: hidden-layer input weights (rows are
hidden units, columns the augmented inputs), output weights from hidden
activations, and bypass weights straight from the augmented inputs. Hidden
net values feed a sigmoid or tanh; a linear identity activation also exists
for diagnostics, where the error surface along a step is exactly quadratic.

The per-pattern kernels (the activations and their derivatives, the linear
outputs, the error) build each result in one array they allocate and then
update in place, so a forward pass makes no pattern-sized temporary beyond
the net values; the operations and their order are those of the plain
expressions, so the bits are too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .linalg import check_finite


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """0.5 * (tanh(0.5 * x) + 1), the same four operations on one array."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _sigmoid_derivative(o: np.ndarray) -> np.ndarray:
    """o * (1 - o) for sigmoid activations o."""
    out = np.subtract(1.0, o)
    out *= o
    return out


def _tanh_derivative(o: np.ndarray) -> np.ndarray:
    """1 - o * o for tanh activations o."""
    out = np.multiply(o, o)
    np.subtract(1.0, out, out=out)
    return out


# name -> (activation, derivative expressed through the activation value);
# none makes a pattern-sized temporary beyond its result.
ACTIVATIONS = {
    "sigmoid": (_sigmoid, _sigmoid_derivative),
    "tanh": (np.tanh, _tanh_derivative),
    "linear": (lambda x: x, np.ones_like),
}


@dataclass(frozen=True)
class Mlp:
    """Immutable weight snapshot; trainers build updated copies."""

    w: np.ndarray  # (n_hidden, n_inputs + 1) input weights
    woh: np.ndarray  # (n_outputs, n_hidden) output weights
    woi: np.ndarray  # (n_outputs, n_inputs + 1) bypass weights
    activation: str = "sigmoid"

    def __post_init__(self) -> None:
        w = check_finite(self.w, "input weights")
        woh = check_finite(self.woh, "output weights")
        woi = check_finite(self.woi, "bypass weights")
        if w.ndim != 2 or woh.ndim != 2 or woi.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if woh.shape[0] != woi.shape[0]:
            raise ValueError("output and bypass weights disagree on output count")
        if woh.shape[1] != w.shape[0]:
            raise ValueError("output weights disagree with hidden unit count")
        if woi.shape[1] != w.shape[1]:
            raise ValueError("bypass weights disagree with augmented input count")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for name, arr in (("w", w.copy()), ("woh", woh.copy()), ("woi", woi.copy())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_inputs(self) -> int:
        return self.w.shape[1] - 1

    @property
    def n_hidden(self) -> int:
        return self.w.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.woh.shape[0]


@dataclass(frozen=True)
class ForwardTrace:
    """Per-pattern intermediates of one forward pass, with the network and
    dataset it ran: a kernel that reads a pass takes the pass alone. The
    arrays are write-protected in place (not copied), so neither iteration
    can change a pass that one hands to the next."""

    mlp: Mlp
    dataset: Dataset
    activ: np.ndarray  # (n_patterns, n_hidden)
    output: np.ndarray  # (n_patterns, n_outputs)

    def __post_init__(self) -> None:
        self.activ.setflags(write=False)
        self.output.setflags(write=False)


def activation_derivative(trace: ForwardTrace) -> np.ndarray:
    """f'(net) for every pattern and hidden unit, from the activations."""
    return ACTIVATIONS[trace.mlp.activation][1](trace.activ)


def forward(mlp: Mlp, dataset: Dataset) -> ForwardTrace:
    """Batch forward pass: hidden activations and linear outputs."""
    if dataset.n_inputs != mlp.n_inputs:
        raise ValueError(f"network has {mlp.n_inputs} inputs, dataset has {dataset.n_inputs}")
    if dataset.n_outputs != mlp.n_outputs:
        raise ValueError(f"network has {mlp.n_outputs} outputs, dataset has {dataset.n_outputs}")
    activ = ACTIVATIONS[mlp.activation][0](dataset.inputs @ mlp.w.T)
    return ForwardTrace(mlp, dataset, activ, linear_output(mlp, dataset, activ))


def linear_output(mlp: Mlp, dataset: Dataset, activ: np.ndarray) -> np.ndarray:
    """The forward pass's last stage: linear outputs for given activations,
    the bypass product with the hidden-unit product added in place."""
    out = dataset.inputs @ mlp.woi.T
    out += activ @ mlp.woh.T
    return out


def _output_error(dataset: Dataset, output: np.ndarray) -> float:
    """Squared error summed over outputs, averaged over patterns."""
    residual = np.subtract(dataset.targets, output)
    residual *= residual
    return float(residual.sum() / dataset.n_patterns)


def output_mse(trace: ForwardTrace) -> float:
    """The error of a forward pass: squared error summed over outputs,
    averaged over patterns."""
    return _output_error(trace.dataset, trace.output)


def mse(mlp: Mlp, dataset: Dataset) -> float:
    # Only the outputs are kept, so the activations are freed before the
    # residual is allocated. k-fold runs this on every iteration; keeping
    # the whole pass alive read 4% slower on the k-fold benchmark.
    return _output_error(dataset, forward(mlp, dataset).output)


def init_net_control(
    dataset: Dataset, n_hidden: int, seed: int, activation: str = "sigmoid"
) -> Mlp:
    """Seeded initialization with per-unit net-value statistics pinned.

    Input-weight rows are drawn from a zero-mean normal source, the non-bias
    part of each row is rescaled so the unit's net values have sample
    variance 1 over the dataset, and the bias weight is then set so their
    sample mean is 0.5. Expects a zero-mean-normalized dataset. Output and
    bypass weights start at zero; every trainer here solves them in its
    first iteration, so all trainers share one initial point.

    Raises if any hidden unit's pre-scale net variance is zero (degenerate
    dataset, e.g. a single pattern or constant inputs).
    """
    if n_hidden < 1:
        raise ValueError("n_hidden must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = dataset.n_inputs
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_hidden, n + 1))
    raw_net = dataset.inputs[:, :n] @ w[:, :n].T
    variances = raw_net.var(axis=0)
    if np.any(variances <= 0.0):
        raise ValueError("degenerate dataset: a hidden unit's net variance is zero")
    scales = 1.0 / np.sqrt(variances)
    w[:, :n] *= scales[:, None]
    w[:, n] = 0.5 - raw_net.mean(axis=0) * scales
    m = dataset.n_outputs
    return Mlp(
        w=w,
        woh=np.zeros((m, n_hidden)),
        woi=np.zeros((m, n + 1)),
        activation=activation,
    )


def save_mlp(mlp: Mlp, path: str) -> None:
    """Plain-text model dump: header line, then W, Woh, Woi row by row."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mlp.n_inputs} {mlp.n_hidden} {mlp.n_outputs} {mlp.activation}\n")
        for block in (mlp.w, mlp.woh, mlp.woi):
            for row in block:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
