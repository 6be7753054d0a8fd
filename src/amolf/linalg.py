"""Dense linear algebra for small symmetric positive semi-definite systems.

Storage is plain float64 numpy throughout: a matrix is a 2-D C-contiguous
array, a vector is 1-D. Every system solved in this package is at most a
few hundred rows, so dense row-major storage and a fixed-order elimination
win on simplicity and cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for the symmetry check in solve_sym.
SYMMETRY_RTOL = 1e-9
# A pivot counts as zero when its magnitude is below PIVOT_RTOL times the
# largest diagonal entry of the matrix.
PIVOT_RTOL = 1e-10


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``arr`` as float64, raising if any entry is NaN or infinite."""
    out = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a symmetric solve.

    ``rank_deficient`` is set exactly when zero pivots were skipped, so the
    returned solution leaves some unknowns at zero.
    """

    solution: np.ndarray
    rank_deficient: bool


def solve_sym(a: np.ndarray, b: np.ndarray) -> SolveReport:
    """Solve A·X = B for symmetric positive semi-definite A.

    Gaussian elimination with diagonal pivots taken in fixed order. Pivots
    whose magnitude falls below ``PIVOT_RTOL * max(diag)`` are skipped and
    the corresponding solution rows are zero, mirroring the column-dropping
    behaviour of an orthogonal least-squares solve on a rank-deficient
    system.

    B may be a vector or a matrix of right-hand sides; the solution matches
    its shape. Deterministic: identical inputs give bit-identical output.
    """
    a = check_finite(a, "matrix")
    b = check_finite(b, "right-hand side")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    vector_rhs = b.ndim == 1
    y = b.reshape(n, -1).copy() if vector_rhs else b.copy()
    if y.ndim != 2 or y.shape[0] != n:
        raise ValueError(
            f"right-hand side shape {b.shape} incompatible with {n}x{n} matrix"
        )

    scale = float(np.abs(a).max()) if a.size else 0.0
    if a.size and float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * (1.0 + scale):
        raise ValueError("matrix is not symmetric within tolerance")

    u = a.copy()
    skipped = np.zeros(n, dtype=bool)
    diag_max = float(u.diagonal().max()) if n else 0.0
    if diag_max <= 0.0:
        # PSD with a non-positive diagonal is the zero matrix: skip everything.
        skipped[:] = True
    else:
        thresh = PIVOT_RTOL * diag_max
        for i in range(n):
            piv = u[i, i]
            if abs(piv) < thresh:
                skipped[i] = True
                u[i, i:] = 0.0
                u[i + 1 :, i] = 0.0
                y[i, :] = 0.0
                continue
            factors = u[i + 1 :, i] / piv
            u[i + 1 :, i:] -= np.outer(factors, u[i, i:])
            y[i + 1 :, :] -= np.outer(factors, y[i, :])

    x = np.zeros_like(y)
    for i in range(n - 1, -1, -1):
        if skipped[i]:
            continue
        x[i, :] = (y[i, :] - u[i, i + 1 :] @ x[i + 1 :, :]) / u[i, i]

    check_finite(x, "solution")
    return SolveReport(
        solution=x[:, 0] if vector_rhs else x,
        rank_deficient=bool(skipped.any()),
    )
