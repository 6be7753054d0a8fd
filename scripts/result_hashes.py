"""Print one SHA-256 per training run, to check that a change keeps results
byte-identical.

Run it in two checkouts (say, a change and its parent) and diff the output:

    OPENBLAS_NUM_THREADS=1 python3 scripts/result_hashes.py > hashes.txt

It imports ``amolf`` from the ``src`` directory beside it, and it refuses to
run unless ``OPENBLAS_NUM_THREADS=1``, since results are compared bit for
bit. The runs, all on zero-mean matrix-inversion data:

* ``run_training`` for every trainer with sigmoid and tanh hidden units
  (2000 patterns, nh=30, 20 iterations or 8 for lm, 2 trials, amolf search
  period 4), hashing ``mean_mse``, ``cum_multiplies`` and the final weights;
* ``run_kfold`` for every trainer (600 patterns, nh=8, k=5, 15 iterations),
  hashing the per-round training and test errors.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    sys.exit("result_hashes.py: set OPENBLAS_NUM_THREADS=1, results depend on bits")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from amolf.dataset import gen_matrix_inversion  # noqa: E402
from amolf.experiment import ExperimentConfig, run_kfold, run_training  # noqa: E402
from amolf.trainers import ALGORITHMS  # noqa: E402


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def main() -> None:
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


if __name__ == "__main__":
    main()
