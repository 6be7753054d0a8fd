"""Closed-form multiply counts per training iteration, and the cost ledger.

Counts are formula-evaluated, never instrumented from the actual arithmetic:
the point is a fixed cost model that implementation choices cannot perturb.
Throughout, nu = n + nh + 1 is the augmented-basis size, niw = nh * (n + 1)
the input-weight count, and nw = m * nu + (n + 1) * nh the total weight
count.

Every count is an exact integer, evaluated in Python integers, so numpy
sizes cannot overflow: the formulas' fractions all come from k (k+1) / 2,
an integer because k (k+1) is even, and from k (k+1) (2k + 1) / 6, an
integer because k (k+1) (2k + 1) is divisible by 6 (it is six times the
sum of the first k squares).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .linalg import check_count


def _check_sizes(n: int, nh: int, m: int, nv: int) -> tuple[int, ...]:
    """The sizes as Python ints. Sizes no network or dataset has are
    refused; the formulas would count them."""
    sizes = (("n", n), ("nh", nh), ("m", m), ("nv", nv))
    return tuple(check_count(value, name, 1) for name, value in sizes)


def _pairs(k: int) -> int:
    """k (k+1) / 2: the entries on and above the diagonal of a k-by-k matrix."""
    return k * (k + 1) // 2


def _solve(k: int) -> int:
    """k (k+1) [(2k + 1)/6 + 5/2]: solving a symmetric k-by-k system."""
    return k * (k + 1) * (2 * k + 1) // 6 + 5 * _pairs(k)


def mult_ols(nu: int, m: int) -> int:
    """Solving the output-weight system by orthogonal least squares:
    nu (nu+1) [m + (2 nu + 1)/6 + 3/2]."""
    return nu * (nu + 1) * m + nu * (nu + 1) * (2 * nu + 1) // 6 + 3 * _pairs(nu)


def mult_owo_bp(n: int, nh: int, m: int, nv: int) -> int:
    """One iteration of output-weight solving plus gradient descent on the
    input weights with a second-order step size: the output-weight stage
    plus nv nh (m + n + 2) for the gradient step."""
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    return mult_owo(n, nh, m, nv) + nv * nh * (m + n + 2)


def mult_lm(n: int, nh: int, m: int, nv: int) -> int:
    """One damped full-Hessian iteration over every weight in the network."""
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    nu = n + nh + 1
    nw = m * nu + (n + 1) * nh
    return nv * (
        m * nu
        + 2 * nh * (n + 1)
        + m * (n + 6 * nh + 4)
        + m * nu * (nu + 3 * nh * (n + 1))
        + 4 * nh * nh * (n + 1) * (n + 1)
    ) + nw**3 + nw**2


def mult_newton(n: int, nh: int, m: int, nv: int) -> int:
    """One full second-order step on the input weights alone:
    nv [niw (2m + 1) + niw (niw + 1) (nv m / 2 + (2 niw + 1)/6 + 5/2)].

    The nv m / 2 term sits inside a bracket that is itself scaled by nv,
    which makes the count quadratic in nv; evaluated exactly as defined.
    owo-newton's curves use this count; README's cost paragraph compares it
    with the Hessian build and solve priced as ``mult_amolf_search`` and
    ``mult_amolf`` price them, about 1,900x less at matinv sizes.
    """
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    niw = nh * (n + 1)
    return nv * (niw * (2 * m + 1) + nv * m * _pairs(niw) + _solve(niw))


def mult_owo(n: int, nh: int, m: int, nv: int) -> int:
    """The output-weight stage on its own (forward pass plus solve):
    nv [nh (n+1) + m (2 nu + 1) + nu (nu+1) / 2] + mult_ols(nu, m)."""
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    nu = n + nh + 1
    per_pattern = nh * (n + 1) + m * (2 * nu + 1) + _pairs(nu)
    return nv * per_pattern + mult_ols(nu, m)


def mult_owo_newton(n: int, nh: int, m: int, nv: int) -> int:
    """Output-weight stage plus the full input-weight second-order step."""
    return mult_owo(n, nh, m, nv) + mult_newton(n, nh, m, nv)


def mult_owo_molf(n: int, nh: int, m: int, nv: int) -> int:
    """One iteration with a compressed nh-by-nh step-size system:
    nh (nh+1) [(2 nh + 1)/6 + 5/2] + nv nh [2m + n + 2 + m (nh + 1)/2]."""
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    return _solve(nh) + nv * nh * (2 * m + n + 2) + nv * m * _pairs(nh)


def amolf_group_counts(n: int) -> range:
    """amolf's group counts per hidden unit with n inputs, 1..n: the counts
    its search tries, its adaptation stays within, and ``mult_amolf`` and
    ``mult_amolf_search`` price.

    amolf adapts between owo-molf (one group) and an n-group step, not
    owo-newton's n + 1 singleton groups (one per input weight, bias
    included). The cap stays below the augmented input count because
    all-singleton groups would make collinear inputs resurface as singular
    systems."""
    return range(1, n + 1)


def mult_amolf(n: int, nh: int, m: int, nv: int, ng: int) -> int:
    """One grouped-step iteration with ng groups per hidden unit and
    nl = ng * nh learning factors:
    nl (nl+1) [(2 nl + 1)/6 + 5/2 + m nv / 2] + nh (n+1) + nh ng m (nv + 2)
    + nl nv m."""
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    ng = check_count(ng, "ng", 1)
    counts = amolf_group_counts(n)
    if ng not in counts:
        raise ValueError(f"ng must be in {counts[0]}..{counts[-1]}, got {ng}")
    nl = ng * nh
    return (
        _solve(nl)
        + m * nv * _pairs(nl)
        + nh * (n + 1)
        + nh * ng * m * (nv + 2)
        + nl * nv * m
    )


def mult_amolf_search(n: int, nh: int, m: int, nv: int) -> int:
    """Surcharge for one exhaustive group-count search.

    Counts building the full input-weight Hessian once (Jacobian factors
    plus its pattern-and-output accumulation over the upper triangle), then
    per candidate group count in ``amolf_group_counts(n)``: compressing the
    Hessian onto the grouped unknowns, solving, applying a trial step, and
    one forward error evaluation.
    """
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    niw = nh * (n + 1)
    nu = n + nh + 1
    total = nv * nh * (n + 1) + nv * m * _pairs(niw)
    trial_eval = nv * (nh * (n + 1) + m * nu) + nv * m
    for ng in amolf_group_counts(n):
        total += 2 * niw * niw + _solve(ng * nh) + niw + trial_eval
    return total


def mult_cg(n: int, nh: int, m: int, nv: int) -> int:
    """Per-iteration count for conjugate-gradient training of all weights.

    No published closed form exists for this trainer, so the count is a
    direct decomposition: forward pass, deltas and gradient accumulation,
    direction bookkeeping, the directional curvature pass for the step
    size, and the weight update.
    """
    n, nh, m, nv = _check_sizes(n, nh, m, nv)
    nu = n + nh + 1
    nw = m * nu + (n + 1) * nh
    forward = nv * (nh * (n + 1) + m * nu)
    deltas = nv * (m + nh * (m + 1))
    grads = nv * ((nh + m) * (n + 1) + m * nh)
    curvature = nv * (nh * (n + 2) + m * (nh + nu) + m)
    direction_and_step = 4 * nw
    return forward + deltas + grads + curvature + direction_and_step


def epm(e_prev: float, e_now: float, m_it: int) -> float:
    """Error change per multiply for one iteration; negative when error rose."""
    return (e_prev - e_now) / check_count(m_it, "a multiply count", 1)


@dataclass(frozen=True)
class CostLedger:
    """Per-iteration multiply counts for one training run: a value, so that
    states can share one without copying it."""

    per_iteration: tuple[int, ...] = ()

    def record(self, multiplies: int) -> CostLedger:
        """This ledger with one more iteration's count."""
        count = check_count(multiplies, "a multiply count", 1)
        return CostLedger((*self.per_iteration, count))

    def cumulative(self) -> list[int]:
        return list(accumulate(self.per_iteration))

    def total(self) -> int:
        return sum(self.per_iteration)
