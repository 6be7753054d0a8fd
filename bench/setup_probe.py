"""Set-up time of one workload, measured in a fresh interpreter.

Times importing amolf (numpy included) and generating the first
instance's dataset and configuration: everything a user pays before the
training call. Prints the seconds taken on one line. ``run.py`` starts this
script several times and reports the median as ``setup_s``.

    python3 bench/setup_probe.py --workload amolf-matinv --seed 0
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from workloads import WORKLOADS, instance_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    seed = instance_seed(args.seed, 0)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import amolf

    dataset = amolf.gen_matrix_inversion(workload.n_patterns, seed)
    amolf.ExperimentConfig(**workload.config_kwargs(seed))
    elapsed = time.perf_counter() - start

    if dataset.n_patterns != workload.n_patterns:
        sys.exit(f"generated {dataset.n_patterns} patterns, expected {workload.n_patterns}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
