"""Dense linear algebra: pattern sums, weight products and small symmetric
PSD solves, and the two input checks the package shares: ``check_finite``
for arrays and ``check_count`` for counts, sizes and seeds.

Storage is plain float64 numpy throughout: a matrix is a 2-D C-contiguous
array, a vector is 1-D. Every system solved in this package is at most a
few hundred rows, so dense row-major storage and a left-looking LDLᵀ with
pivots in fixed order win on simplicity and cache behaviour; a pivot at or
below ``PIVOT_RTOL`` times the largest diagonal entry is skipped, and its
unknown is +0.0. This module owns the rule that keeps BLAS threads out of
the bits: every product in the package that sums over patterns is a
``pattern_sum``, and no solve calls LAPACK. ``solve_sym``'s only BLAS calls
are matrix-vector products and, for a vector right-hand side, the dot
products of its back substitution, which give the one-column product's
bits. None of them changes its bits with the thread count at the sizes
solved here (a test pins this up to 900 rows).

It also owns the rule that keeps the kernel choice out of the bits: every
product of a pattern-sized array with a transposed weight matrix is a
``weight_product``. OpenBLAS multiplies by the transposed view ``w.T`` with
one kernel and by a C-contiguous copy of it with a faster one (18,000×10 by
10×4 at one BLAS thread on a Xeon: 74 µs against 155 µs). On OpenBLAS
0.3.31 the two give the same bits whenever the inner dimension is at most
``UNTRANSPOSED_MAX_INNER`` (15) and the pattern-sized operand has more than
one row. A single row (numpy's matrix-vector path) or an inner dimension of
16 or more (30 hidden units, or 15 inputs and the bias) can round
differently, so those products keep the transposed view.
``tests/test_linalg.py`` pins the rule on the installed OpenBLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

# Relative tolerance for the symmetry check in solve_sym.
SYMMETRY_RTOL = 1e-9
# A pivot counts as zero when its magnitude is at or below PIVOT_RTOL times
# the largest diagonal entry of the matrix.
PIVOT_RTOL = 1e-10
# OpenBLAS runs a GEMM of m·n·k at or under 2**18 multiplies on one thread
# (65536 times its default multithread threshold of 4); a larger product
# splits across threads, and how it splits changes its bits. A pattern sum
# is summed from column tiles over pattern chunks that stay at or under
# that size, in a fixed order, so its bits do not depend on the thread count.
GEMM_SINGLE_THREAD_SIZE = 2**18
GRAM_TILE = 64
# Largest inner dimension at which OpenBLAS's untransposed and transposed
# kernels round alike (see the module docstring).
UNTRANSPOSED_MAX_INNER = 15


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``arr`` as float64, raising if any entry is NaN or infinite."""
    out = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def check_count(value: int, name: str, minimum: int, reason: str = "") -> int:
    """``value`` as a Python int, or a one-line ``ValueError`` naming ``name``
    (and ``reason``, if given) unless it is a whole number of at least
    ``minimum``. numpy integers pass; a ``bool`` is not a count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        why = f" ({reason})" if reason else ""
        raise ValueError(f"{name} must be >= {minimum}{why}, got {value}")
    return int(value)


def weight_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w.T`` for a pattern-sized ``a`` and a weight matrix ``w`` (one
    row per unit), bit for bit, on the faster kernel where the module's
    rule allows it."""
    if w.shape[1] <= UNTRANSPOSED_MAX_INNER and a.shape[0] > 1:
        return _untransposed_product(a, w)
    return a @ w.T


@np.errstate(invalid="ignore")
def _untransposed_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w.T`` with a C-contiguous copy of ``w.T``. OpenBLAS's kernel
    for it sets the invalid-operation flag on ±inf operands although its
    result equals the transposed kernel's, which sets none, so the flag is
    ignored here (the decorator costs about 1 µs a call)."""
    return a @ np.ascontiguousarray(w.T)


def pattern_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b``, the sum over patterns (axis 0), from column tiles summed
    over pattern chunks in a fixed order. When ``b is a`` one triangle of
    tiles is formed and mirrored, so the Gram is exactly symmetric."""
    out = np.empty((a.shape[1], b.shape[1]))
    for i in range(0, a.shape[1], GRAM_TILE):
        ta = a[:, i : i + GRAM_TILE]
        for j in range(i if b is a else 0, b.shape[1], GRAM_TILE):
            tb = b[:, j : j + GRAM_TILE]
            chunk = GEMM_SINGLE_THREAD_SIZE // (ta.shape[1] * tb.shape[1])
            tile = ta[:chunk].T @ tb[:chunk]
            for p in range(chunk, a.shape[0], chunk):
                tile += ta[p : p + chunk].T @ tb[p : p + chunk]
            out[i : i + GRAM_TILE, j : j + GRAM_TILE] = tile
            if b is a:
                # numpy forms a diagonal tile (x.T @ x) with SYRK, already
                # symmetric; the mirror makes each off-diagonal pair match.
                out[j : j + GRAM_TILE, i : i + GRAM_TILE] = tile.T
    return out


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a symmetric solve.

    ``rank_deficient`` is set exactly when pivots were skipped, so the
    returned solution leaves their unknowns at +0.0.
    """

    solution: np.ndarray
    rank_deficient: bool


def solve_sym(a: np.ndarray, b: np.ndarray) -> SolveReport:
    """Solve A·X = B for symmetric positive semi-definite A.

    Left-looking LDLᵀ factorization with diagonal pivots taken in fixed
    order (Golub & Van Loan, *Matrix Computations*, 4th ed., §4.1–4.2):
    column j of L is one matrix-vector product with the columns before it.
    Pivots whose magnitude is at or below ``PIVOT_RTOL * max(diag, 0)`` are
    skipped and the corresponding solution rows are +0.0, mirroring the
    column-dropping behaviour of an orthogonal least-squares solve on a
    rank-deficient system. A zero matrix skips every pivot.

    B may be a vector or a matrix of right-hand sides; the solution matches
    its shape. A vector back-substitutes by dot products, which give the
    bits of B as one column. Deterministic: identical inputs give
    bit-identical output.
    """
    # The largest |entry| is NaN or inf exactly when an entry is, so the
    # symmetry check's scale is also the finiteness check. It runs first,
    # so a matrix holding a NaN or inf fails as non-finite whatever its
    # shape. Its buffer then holds |A - Aᵀ|.
    a = np.asarray(a, dtype=np.float64)
    buf = np.abs(a)
    scale = float(buf.max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    b = check_finite(b, "right-hand side")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(
            f"right-hand side shape {b.shape} incompatible with {n}x{n} matrix"
        )

    np.abs(np.subtract(a, a.T, out=buf), out=buf)
    if float(buf.max(initial=0.0)) > SYMMETRY_RTOL * (1.0 + scale):
        raise ValueError("matrix is not symmetric within tolerance")

    # Left-looking LDLᵀ on A stacked over Bᵀ. Column j of the stack becomes
    # L's column j over the rows of A and row j of D⁻¹·L⁻¹·B over the rows
    # of Bᵀ, so the factor loop also runs the forward substitution. A
    # skipped pivot leaves its column of L, its entry of D and its unknown
    # at zero, which drops the unknown from every later column, as
    # eliminating it would. A kept pivot exceeds the threshold, which is at
    # least 0, so the zeros of D are the skips.
    work = np.vstack((a, b.T))
    d = np.zeros(n)
    thresh = PIVOT_RTOL * float(a.diagonal().max(initial=0.0))
    for j in range(n):
        col = work[j:, j]
        col -= work[j:, :j] @ (d[:j] * work[j, :j])
        pivot = col.item(0)
        if abs(pivot) <= thresh:
            col[:] = 0.0
            continue
        d[j] = pivot
        col[1:] /= pivot

    # Back substitution with Lᵀ, into an unknown of B's shape: a vector B
    # takes one dot product a row, with the bits of the one-column product.
    # A skipped unknown stays +0.0: its column of L is zero, so it subtracts
    # a ±0.0 from +0.0.
    x = work[n:].T.copy() if b.ndim == 2 else work[n].copy()
    for j in range(n - 1, -1, -1):
        x[j] -= work[j + 1 : n, j] @ x[j + 1 :]

    check_finite(x, "solution")
    return SolveReport(solution=x, rank_deficient=not d.all())
