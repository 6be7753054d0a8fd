"""Training curves must not depend on the BLAS thread count.

Each case trains once in a subprocess with ``OPENBLAS_NUM_THREADS=1`` and
once with ``2`` (the library reads the variable only at start-up) and
compares the curve CSVs byte for byte; the cases in ``THREE_THREADS``
compare a run with ``3`` as well. Matrix inversion, 2000 patterns, seed 0;
one k-fold case runs the benchmark's k-fold shape (20,000 patterns).
Any change to the BLAS or LAPACK calls of a trainer must keep every case
identical. The solver is also pinned on its own, at 1, 2 and 3 threads.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Cases also run at three threads: lm's full Hessian (a 185-column Gram;
# 365 columns at nh=60, where C·(G_b + λI)⁻¹·Cᵀ is about 5.9 M multiplies
# and the Schur complement has 300 rows) and the group search's
# input-weight Hessian (145 columns).
THREE_THREADS = {
    ("lm", 30, 8),
    ("lm", 60, 4),
    ("amolf", 29, 20, "--search-period", "4"),
}


def _run(threads: int, args: list[str]) -> bytes:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True
    ).stdout


def _csv_bytes(tmp_path, threads: int, command: str, *args: str) -> bytes:
    out = tmp_path / f"{command}_{threads}.csv"
    _run(threads, ["-m", "amolf", command, "--synthetic", "matinv", "--seed", "0",
                   "--out", str(out), *args])
    return out.read_bytes()


def _curve_bytes(
    tmp_path, threads: int, algo: str, n_hidden: int, iterations: int, *extra: str
) -> bytes:
    return _csv_bytes(
        tmp_path, threads, "train", "--patterns", "2000", "--nh", str(n_hidden),
        "--algo", algo, "--iters", str(iterations), "--trials", "1", *extra,
    )


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
        ("lm", 60, 4),
        ("cg", 30, 20),
        # Wider nets put the correlations, backprop's gradients and the
        # curvature map above the single-thread GEMM size.
        ("owo-bp", 100, 5),
        ("amolf", 100, 5),
        ("cg", 150, 5),
        ("owo-molf", 150, 5),
    ],
    ids=lambda args: "-".join(str(arg).lstrip("-") for arg in args),
)
def test_curve_bytes_independent_of_blas_threads(tmp_path, args):
    one = _curve_bytes(tmp_path, 1, *args)
    for threads in (2, 3) if args in THREE_THREADS else (2,):
        assert _curve_bytes(tmp_path, threads, *args) == one


def test_kfold_bytes_independent_of_blas_threads(tmp_path):
    # The benchmark's k-fold shape: the input-side products of 18,000
    # training patterns (18,000x5 by 5x10, about 0.9 M multiplies) are above
    # the single-thread GEMM size.
    args = ("--patterns", "20000", "--nh", "10", "--algo", "owo-bp", "--k", "10",
            "--iters", "5")
    assert _csv_bytes(tmp_path, 2, "kfold", *args) == _csv_bytes(tmp_path, 1, "kfold", *args)


# Systems built with np.einsum, which calls no BLAS, so any difference in
# bits comes from solve_sym. (n, right-hand sides, rank): the output solve's
# 35 x 35 with 4 right-hand sides, the grouped and input-weight systems (116,
# 150; LM's Schur complement at nh=30 has 150 rows), a 290-row system, whose
# in-loop matrix-vector products are above OpenBLAS's threaded size, the 900
# rows owo-newton reaches at 180 hidden units, and a rank-deficient 120-row
# system. A single right-hand side is solved as an (n, 1) column and as a
# vector, whose back substitution takes dot products instead (amolf's grouped
# solves, owo-newton's Newton solve and LM's Schur solve pass vectors).
_SOLVE_SYSTEMS = """
import sys
import numpy as np
from amolf.linalg import solve_sym
rng = np.random.default_rng(0)
for n, n_rhs, rank in ((35, 4, 35), (116, 1, 116), (150, 1, 150), (290, 1, 290), (900, 1, 900),
                     (120, 1, 90)):
    basis = np.einsum("pr,rn->pn", rng.standard_normal((2 * n, rank)), rng.standard_normal((rank, n)))
    a = np.einsum("pi,pj->ij", basis, basis)
    b = rng.standard_normal((n, n_rhs))
    for rhs in (b, b[:, 0]) if n_rhs == 1 else (b,):
        report = solve_sym(a, rhs)
        assert report.rank_deficient == (rank < n)
        sys.stdout.buffer.write(report.solution.tobytes())
"""


def test_solve_sym_bytes_independent_of_blas_threads():
    one = _run(1, ["-c", _SOLVE_SYSTEMS])
    assert len(one) == 8 * (35 * 4 + 2 * (116 + 150 + 290 + 900 + 120))
    for threads in (2, 3):
        assert _run(threads, ["-c", _SOLVE_SYSTEMS]) == one
