"""Training curves must not depend on the BLAS thread count.

Each case trains once in a subprocess with ``OPENBLAS_NUM_THREADS=1`` and
once with ``2`` (the library reads the variable only at start-up) and
compares the curve CSVs byte for byte. Matrix inversion, 2000 patterns,
seed 0. Two cases are known to differ and are kept as expected failures
that name their cause; any change to the BLAS or LAPACK calls of a trainer
must keep the other cases identical.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _curve_bytes(tmp_path, algo: str, n_hidden: int, iterations: int, threads: int) -> bytes:
    out = tmp_path / f"curve_{threads}.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "amolf", "train", "--synthetic", "matinv",
         "--patterns", "2000", "--nh", str(n_hidden), "--algo", algo,
         "--iters", str(iterations), "--trials", "1", "--seed", "0", "--out", str(out)],
        env=env,
        check=True,
        capture_output=True,
    )
    return out.read_bytes()


def _differs(reason: str):
    return pytest.mark.xfail(reason=reason, strict=False)


@pytest.mark.parametrize(
    "algo, n_hidden, iterations",
    [
        ("owo-bp", 30, 20),
        ("owo-molf", 30, 20),
        ("amolf", 30, 20),
        ("lm", 30, 8),
        ("cg", 30, 20),
        pytest.param(
            "owo-newton", 30, 5,
            marks=_differs(
                "the Gram in gradients.gauss_newton_gram, called by "
                "gauss_newton_input_hessian, sums in a thread-dependent "
                "order; curves differ from iteration 2"
            ),
        ),
        pytest.param(
            "amolf", 29, 20,
            marks=_differs(
                "the Gram in gradients.gauss_newton_gram, called by "
                "assemble_grouped_direct, sums in a thread-dependent order at "
                "116 columns (29 units x 4 groups); curves differ from "
                "iteration 19"
            ),
        ),
    ],
)
def test_curve_bytes_independent_of_blas_threads(tmp_path, algo, n_hidden, iterations):
    one = _curve_bytes(tmp_path, algo, n_hidden, iterations, 1)
    two = _curve_bytes(tmp_path, algo, n_hidden, iterations, 2)
    assert one == two
