"""Print one SHA-256 per training run, to check that a change keeps results
byte-identical.

Run it in two checkouts (say, a change and its parent) and diff the output:

    OPENBLAS_NUM_THREADS=1 python3 scripts/result_hashes.py > hashes.txt

It imports ``amolf`` from the ``src`` directory beside it, and it refuses to
run unless ``OPENBLAS_NUM_THREADS=1``, since results are compared bit for
bit. Its first line names the numpy version and the BLAS build numpy reports
(``np.show_config(mode="dicts")``), since the bits depend on both: two
outputs are comparable only where that line is equal. Then come the runs,
all on zero-mean matrix-inversion data:

* ``run_training`` for every trainer with sigmoid and tanh hidden units
  (2000 patterns, nh=30, 20 iterations or 8 for lm, 2 trials, amolf search
  period 4), hashing ``mean_mse``, ``cum_multiplies`` and the final weights;
* ``run_kfold`` for every trainer (600 patterns, nh=8, k=5, 15 iterations),
  hashing the per-round training and test errors;
* runs stepped with ``iterate`` (600 patterns, nh=8, amolf search period 4),
  hashing every state's ledger, training error and weights, so that the
  hand-off of one iteration's forward pass to the next is checked where it
  is taken and where it is missed. A state's pass is taken by the first
  ``iterate`` from it, and ``replace`` does not copy it, so these miss: for
  every trainer, a run of 4 iterations and a branch of 3 taken from the
  older state after its first; for every trainer, a run of 3 iterations
  continued for 3 more on other data with ``replace(state, dataset=other)``.
  An amolf and an owo-bp run stepped alternately for 6 iterations each
  take their own passes.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    sys.exit("result_hashes.py: set OPENBLAS_NUM_THREADS=1, results depend on bits")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from amolf.dataset import gen_matrix_inversion, normalize_zero_mean  # noqa: E402
from amolf.experiment import ExperimentConfig, run_kfold, run_training  # noqa: E402
from amolf.network import init_net_control  # noqa: E402
from amolf.trainers import ALGORITHMS, init_state, iterate  # noqa: E402


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _state_digest(states) -> str:
    return _digest(
        a
        for s in states
        for a in (s.ledger.per_iteration, [s.last_error], s.mlp.w, s.mlp.woh, s.mlp.woi)
    )


def _build() -> str:
    """The numpy version and its BLAS build, from numpy's own build record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} blas {blas.get('name')} {blas.get('version')}"


def _steps(state, count: int) -> list:
    """``state`` and the ``count`` states that ``iterate`` steps from it."""
    states = [state]
    for _ in range(count):
        states.append(iterate(states[-1]))
    return states


def _start(algo: str, data, seed: int = 0):
    mlp = init_net_control(data, 8, seed)
    return init_state(algo, mlp, data, **({"search_period": 4} if algo == "amolf" else {}))


def main() -> None:
    print(_build(), flush=True)
    data = gen_matrix_inversion(2000, 0)
    for algo in ALGORITHMS:
        for activation in ("sigmoid", "tanh"):
            config = ExperimentConfig(
                algorithm=algo,
                n_hidden=30,
                iterations=8 if algo == "lm" else 20,
                n_trials=2,
                activation=activation,
                **({"search_period": 4} if algo == "amolf" else {}),
            )
            curve = run_training(data, config)
            weights = [a for m in curve.final_models for a in (m.w, m.woh, m.woi)]
            digest = _digest([curve.mean_mse, curve.cum_multiplies, *weights])
            print(f"train {algo} {activation} {digest}", flush=True)
    data = gen_matrix_inversion(600, 0)
    for algo in ALGORITHMS:
        config = ExperimentConfig(algorithm=algo, n_hidden=8, iterations=15, k_folds=5)
        report = run_kfold(data, config)
        print(f"kfold {algo} {_digest([report.train_errors, report.test_errors])}", flush=True)
    data = normalize_zero_mean(data)
    other = normalize_zero_mean(gen_matrix_inversion(600, 1))
    for algo in ALGORITHMS:
        run = _steps(_start(algo, data), 4)
        branch = _steps(run[1], 3)  # run[2] took run[1]'s pass: a miss
        print(f"branch {algo} {_state_digest(run + branch)}", flush=True)
    for algo in ALGORITHMS:
        run = _steps(_start(algo, data), 3)
        continued = _steps(replace(run[-1], dataset=other), 3)  # the copy has no pass
        print(f"continue {algo} {_state_digest(run + continued)}", flush=True)
    runs = [[_start("amolf", data)], [_start("owo-bp", data, seed=1)]]
    for _ in range(6):
        for states in runs:
            states.append(iterate(states[-1]))  # each run takes its own pass
    print(f"alternate amolf owo-bp {_state_digest(runs[0] + runs[1])}", flush=True)


if __name__ == "__main__":
    main()
