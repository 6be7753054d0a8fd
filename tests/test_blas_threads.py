"""Training curves must not depend on the BLAS thread count.

Each case trains once in a subprocess with ``OPENBLAS_NUM_THREADS=1`` and
once with ``2`` (the library reads the variable only at start-up) and
compares the curve CSVs byte for byte. Matrix inversion, 2000 patterns,
seed 0. Any change to the BLAS or LAPACK calls of a trainer must keep
every case identical.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _curve_bytes(
    tmp_path, threads: int, algo: str, n_hidden: int, iterations: int, *extra: str
) -> bytes:
    out = tmp_path / f"curve_{threads}.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "amolf", "train", "--synthetic", "matinv",
         "--patterns", "2000", "--nh", str(n_hidden), "--algo", algo,
         "--iters", str(iterations), "--trials", "1", "--seed", "0", "--out", str(out),
         *extra],
        env=env,
        check=True,
        capture_output=True,
    )
    return out.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ("owo-bp", 30, 20),
        ("owo-molf", 30, 20),
        ("owo-newton", 30, 5),  # a 150-column input-weight Hessian
        ("amolf", 30, 20),
        ("amolf", 29, 20),  # 29 units x 4 groups: a 116-column grouped system
        # Iterations 1, 4, 8, 12, 16 and 20 search the group count and take
        # the winning candidate's step, read off the 145-column Hessian.
        ("amolf", 29, 20, "--search-period", "4"),
        ("lm", 30, 8),
        ("cg", 30, 20),
    ],
    ids=lambda args: "-".join(str(arg).lstrip("-") for arg in args),
)
def test_curve_bytes_independent_of_blas_threads(tmp_path, args):
    assert _curve_bytes(tmp_path, 1, *args) == _curve_bytes(tmp_path, 2, *args)
