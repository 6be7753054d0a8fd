"""Training algorithms with one uniform ``iterate(state) -> state`` step.

Six trainers share the same machinery:

* ``owo-bp``      solve output weights, then one gradient step on the input
                  weights with a second-order optimal step size.
* ``owo-molf``    one optimal step size per hidden unit: the amolf grouped
                  step pinned at one group, charged its own cost formula.
* ``owo-newton``  a full second-order step on the input weights.
* ``amolf``       the input weights of each hidden unit are split into
                  curvature-ordered groups, one step size per group; the
                  group count adapts to the error change per multiply and is
                  re-searched exhaustively at a fixed period.
* ``lm``          damped full-network second-order steps with the classic
                  accept/reject damping schedule.
* ``cg``          Fletcher-Reeves conjugate gradient over all weights.

``iterate`` owns the iteration boundary: it runs one forward pass of the
state's network, hands it to the algorithm's step (``_STEPS``), and records
the step's error and multiplies in the next state, whose ledger is a copy
of the last one plus this entry. A step returns its network, a fresh error
evaluation of it, its multiplies and the state fields it changes, never a
forward pass, so no pattern-sized array outlives it. owo-molf, owo-newton
and amolf take an input-weight step, then solve the output weights; owo-bp
solves them first. The solve refreshes only the outputs of its forward
pass, so each of the four runs two forward passes per iteration; a search
iteration runs one per candidate count instead of the second, and solves
for the winner's.

A grouping is one group id per input weight (``GroupPartition.group``).
The grouped step interpolates between one step size per unit (one group)
and the full input-weight second-order step (all-singleton groups), so its
system can be read off the full input-weight Hessian. A search iteration
does so for every candidate count, and the winning candidate's step is the
iteration's step; other iterations read their one system directly off
per-pattern sums. Both are ``gradients.gauss_newton_gram``, a
``linalg.pattern_sum`` Gram whose bits do not depend on BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cost
from .cost import CostLedger
from .dataset import Dataset
from .gradients import (
    GradientBundle,
    backprop,
    curvature_map,
    gauss_newton_gram,
    gauss_newton_input_hessian,
    gn_curvature_along_direction,
    gn_curvature_along_input_direction,
    gauss_newton_full_hessian,
    pack,
    unpack,
)
from .linalg import solve_sym
from .network import ForwardTrace, Mlp, activation_derivative, forward, mse, output_mse
from .owo import output_weight_step

ALGORITHMS = ("owo-bp", "owo-molf", "owo-newton", "amolf", "lm", "cg")

# Step-size fallback when the directional curvature is numerically zero.
OLF_FALLBACK = 1e-3
CURVATURE_FLOOR = 1e-12
LM_MAX_RETRIES = 10
# LM damping bounds, far outside the 1e-5..1e-2 that training visits on the
# matrix-inversion benchmarks; unbounded, a stalled run overflows to inf.
LM_LAMBDA_MIN = 1e-12
LM_LAMBDA_MAX = 1e12
DEFAULT_SEARCH_PERIOD = 50
LM_LAMBDA_START = 1e-2


# ---------------------------------------------------------------------------
# Grouping of input weights


@dataclass(frozen=True)
class GroupPartition:
    """Per-unit grouping of input weights by descending curvature.

    ``group[k, n]`` is the group of input weight (k, n). Group 0 holds each
    unit's highest-curvature weights (ties by ascending index). All units
    share the same group sizes; groups never span units.
    """

    group: np.ndarray  # (n_hidden, n_inputs + 1) int, values in 0..n_groups-1
    n_groups: int


def build_partition(curvature: np.ndarray, n_groups: int) -> GroupPartition:
    """Split each unit's inputs into ``n_groups`` curvature-ordered groups.

    Sizes are an equal split of n_inputs + 1 with the remainder going to the
    earliest (highest-curvature) groups.
    """
    n1 = curvature.shape[1]
    if not 1 <= n_groups <= n1:
        raise ValueError(f"n_groups must be in 1..{n1}, got {n_groups}")
    order = np.argsort(-curvature, axis=1, kind="stable")
    base, extra = divmod(n1, n_groups)
    sizes = [base + 1] * extra + [base] * (n_groups - extra)
    group_of_rank = np.repeat(np.arange(n_groups), sizes)
    group = np.empty_like(order)
    np.put_along_axis(group, order, group_of_rank[None, :], axis=1)
    return GroupPartition(group=group, n_groups=n_groups)


def _grouped_gradient(
    grads_w: np.ndarray, part: GroupPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor t with t[k, n, c] = gradient(k, n) if input n is in group c of
    unit k, else 0 (sums over n against per-pattern inputs give the grouped
    net changes), and the group sums of squared gradients: the negative
    gradient wrt each group's step size at step 0, flattened unit-major."""
    in_group = part.group[..., None] == np.arange(part.n_groups)
    t = np.where(in_group, grads_w[..., None], 0.0)
    return t, (t * grads_w[:, :, None]).sum(axis=1).ravel()


def apply_grouped_step(
    mlp: Mlp, grads: GradientBundle, part: GroupPartition, z: np.ndarray
) -> Mlp:
    """Update every input weight once: weight (k, n) moves by the group's
    step size times its own negative gradient."""
    gw = grads.input_weights
    z = np.asarray(z, dtype=np.float64).reshape(gw.shape[0], part.n_groups)
    return replace(mlp, w=mlp.w + np.take_along_axis(z, part.group, axis=1) * gw)


def assemble_grouped_direct(
    mlp: Mlp,
    dataset: Dataset,
    trace: ForwardTrace,
    grads: GradientBundle,
    part: GroupPartition,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped step-size system accumulated from per-pattern sums.

    Returns the Gauss-Newton Hessian over the n_hidden * n_groups step
    sizes (flattened unit-major), ``gauss_newton_gram`` of the features
    f'·(x·t), and the matching negative gradient.
    """
    t, ga = _grouped_gradient(grads.input_weights, part)
    delta_net = np.tensordot(dataset.inputs, t, axes=([1], [1]))  # (nv, nh, ng)
    fprime = activation_derivative(mlp, trace)[:, :, None]
    return gauss_newton_gram(mlp, fprime * delta_net), ga


def assemble_grouped_from_hessian(
    hessian: np.ndarray, grads: GradientBundle, part: GroupPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped step-size system compressed out of the full input-weight
    Hessian (``gauss_newton_input_hessian``), so candidate group counts can
    be evaluated without recomputing any per-pattern sums. Entry
    ((k, c), (j, d)) is t[k, :, c] · H_kj · t[j, :, d] for the unit-pair
    block H_kj, one tiny product per unit pair."""
    t, ga = _grouped_gradient(grads.input_weights, part)
    nh, n1, ng = t.shape
    blocks = hessian.reshape(nh, n1, nh, n1).transpose(0, 2, 1, 3)
    ha = t.transpose(0, 2, 1)[:, None] @ blocks @ t[None]  # (nh, nh, ng, ng)
    return ha.transpose(0, 2, 1, 3).reshape(nh * ng, nh * ng), ga


# ---------------------------------------------------------------------------
# Step-size and direction primitives


def _optimal_step(slope: float, curvature: float) -> float:
    """Minimizer of the quadratic model along a direction: the negative
    slope over the curvature, both at step 0, or ``OLF_FALLBACK`` when the
    curvature is at or under ``CURVATURE_FLOOR``."""
    if curvature <= CURVATURE_FLOOR:
        return OLF_FALLBACK
    return slope / curvature


def olf(
    mlp: Mlp, dataset: Dataset, trace: ForwardTrace, grads: GradientBundle
) -> float:
    """Optimal scalar step size along the input-weight gradient: the
    squared gradient norm over the Gauss-Newton curvature along it."""
    gw = grads.input_weights
    curvature = gn_curvature_along_input_direction(mlp, dataset, trace, gw)
    return _optimal_step(float((gw * gw).sum()), curvature)


def newton_input_step(hessian: np.ndarray, grads: GradientBundle) -> np.ndarray:
    """Full second-order input-weight change from the input-weight Hessian
    and the gradients, in the shape of the input weights.

    Singular Hessians fall back to pivot skipping: excluded weights simply
    do not move.
    """
    gw = grads.input_weights
    return solve_sym(hessian, gw.ravel()).solution.reshape(gw.shape)


def fletcher_reeves_direction(
    gradient: np.ndarray,
    previous_direction: np.ndarray | None = None,
    previous_norm_sq: float | None = None,
) -> np.ndarray:
    """Conjugate direction update: the fresh negative gradient plus the ratio
    of successive squared gradient norms times the previous direction. The
    first call (no history) returns the gradient itself."""
    if (
        previous_direction is None
        or previous_norm_sq is None
        or previous_norm_sq <= CURVATURE_FLOOR
    ):
        return gradient.copy()
    beta = float(gradient @ gradient) / previous_norm_sq
    return gradient + beta * previous_direction


# ---------------------------------------------------------------------------
# Group-count adaptation


def adapt_group_count(
    n_groups: int, previous_epm: float, current_epm: float, max_groups: int
) -> int:
    """Double the group count when the error change per multiply rose,
    halve it when it fell, hold on a tie. Clamped to [1, max_groups]; the
    cap stays below the augmented input count, where all-singleton groups
    would make collinear inputs resurface as singular systems."""
    if current_epm > previous_epm:
        return min(2 * n_groups, max_groups)
    if current_epm < previous_epm:
        return max(-(-n_groups // 2), 1)
    return n_groups


def initial_group_search(
    mlp: Mlp,
    dataset: Dataset,
    trace: ForwardTrace,
    grads: GradientBundle,
    curvature: np.ndarray,
) -> tuple[int, Mlp, ForwardTrace]:
    """Exhaustive group-count selection over 1..n_inputs groups.

    Builds the full input-weight Hessian once, then for every candidate
    count compresses it onto the grouped unknowns, solves, applies the
    trial step to a scratch copy, and runs it forward for its error. The
    lowest error wins; ties go to the smaller count. Returns the winning
    count, stepped network and forward pass.
    """
    hessian = gauss_newton_input_hessian(mlp, dataset, trace)
    best, best_error = None, np.inf
    for ng in range(1, dataset.n_inputs + 1):
        part = build_partition(curvature, ng)
        ha, ga = assemble_grouped_from_hessian(hessian, grads, part)
        z = solve_sym(ha, ga).solution
        candidate = apply_grouped_step(mlp, grads, part, z)
        candidate_trace = forward(candidate, dataset)
        err = output_mse(dataset, candidate_trace.output)
        if ng == 1 or err < best_error:
            best, best_error = (ng, candidate, candidate_trace), err
    return best


# ---------------------------------------------------------------------------
# Trainer state and iterations


@dataclass(frozen=True)
class AmolfState:
    """Grouped-step bookkeeping carried across iterations.

    ``epm_history`` holds (iteration, error change per multiply) pairs.
    The group count is searched on iteration 1 and on every multiple of
    ``search_period`` (only on iteration 1 when it is 0).
    ``fixed_n_groups`` pins the group count and disables both the searches
    and the adaptation. owo-molf is the grouped step pinned at one group
    (one step size per hidden unit), so its state carries
    ``fixed_n_groups=1``.
    """

    n_groups: int = 1
    epm_history: tuple[tuple[int, float], ...] = ()
    search_period: int = DEFAULT_SEARCH_PERIOD
    fixed_n_groups: int | None = None


@dataclass
class TrainerState:
    """Snapshot of one training run after ``iteration`` completed steps.

    ``last_error`` always equals a fresh error evaluation of ``mlp``, and
    ``ledger`` holds exactly this state's ``iteration`` entries.
    """

    mlp: Mlp
    dataset: Dataset
    algorithm: str
    ledger: CostLedger
    last_error: float
    iteration: int = 0
    lm_lambda: float = LM_LAMBDA_START
    lm_stalled: bool = False
    cg_direction: np.ndarray | None = None
    cg_gradient_norm_sq: float | None = None
    amolf: AmolfState | None = None


def init_state(
    algorithm: str,
    mlp: Mlp,
    dataset: Dataset,
    *,
    search_period: int = DEFAULT_SEARCH_PERIOD,
) -> TrainerState:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if search_period < 0:
        raise ValueError(f"search_period must be >= 0, got {search_period}")
    grouped = {
        "amolf": AmolfState(search_period=search_period),
        "owo-molf": AmolfState(fixed_n_groups=1),
    }
    return TrainerState(
        mlp=mlp,
        dataset=dataset,
        algorithm=algorithm,
        ledger=CostLedger(),
        last_error=mse(mlp, dataset),
        amolf=grouped.get(algorithm),
    )


def _dims(state: TrainerState) -> tuple[int, int, int, int]:
    d = state.dataset
    return d.n_inputs, state.mlp.n_hidden, d.n_outputs, d.n_patterns


# (new network, its fresh error, modelled multiplies, other changed fields)
StepResult = tuple[Mlp, float, int, dict]


def owo_bp_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Output-weight solve, then a gradient step with the optimal step size."""
    d = state.dataset
    mlp, trace = output_weight_step(state.mlp, d, trace)
    grads = backprop(mlp, d, trace)
    z = olf(mlp, d, trace, grads)
    mlp = replace(mlp, w=mlp.w + z * grads.input_weights)
    return mlp, mse(mlp, d), cost.mult_owo_bp(*_dims(state)), {}


def owo_newton_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Full second-order input-weight step, then the output-weight solve."""
    d = state.dataset
    mlp = state.mlp
    grads = backprop(mlp, d, trace)
    hessian = gauss_newton_input_hessian(mlp, d, trace)
    stepped = replace(mlp, w=mlp.w + newton_input_step(hessian, grads))
    mlp, solved = output_weight_step(stepped, d, forward(stepped, d))
    return mlp, output_mse(d, solved.output), cost.mult_owo_newton(*_dims(state)), {}


def amolf_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Grouped step of amolf and owo-molf: pick the group count (pinned, or
    an exhaustive search on the first iteration and periodically after, or
    error-per-multiply adaptation otherwise), take the grouped step, solve
    output weights, record the iteration's error change per multiply.
    owo-molf is pinned at one group and charged its own cost formula."""
    d = state.dataset
    mlp = state.mlp
    ast = state.amolf
    n, nh, m, nv = _dims(state)
    iteration = state.iteration + 1
    if ast.fixed_n_groups is not None and not 1 <= ast.fixed_n_groups <= n:
        raise ValueError(f"fixed_n_groups must be in 1..{n}, got {ast.fixed_n_groups}")

    grads = backprop(mlp, d, trace)

    searched = ast.fixed_n_groups is None and (
        iteration == 1 or (ast.search_period > 0 and iteration % ast.search_period == 0)
    )
    if searched:
        curvature = curvature_map(mlp, d, trace)
        n_groups, stepped, stepped_trace = initial_group_search(mlp, d, trace, grads, curvature)
    else:
        if ast.fixed_n_groups is not None:
            n_groups = ast.fixed_n_groups
        elif len(ast.epm_history) >= 2:
            n_groups = adapt_group_count(
                ast.n_groups, ast.epm_history[-2][1], ast.epm_history[-1][1], n
            )
        else:
            n_groups = ast.n_groups
        # One group holds all of a unit's inputs in any order, so its
        # partition does not depend on the curvature.
        curvature = (
            np.zeros_like(mlp.w) if n_groups == 1 else curvature_map(mlp, d, trace)
        )
        part = build_partition(curvature, n_groups)
        ha, ga = assemble_grouped_direct(mlp, d, trace, grads, part)
        stepped = apply_grouped_step(mlp, grads, part, solve_sym(ha, ga).solution)
        stepped_trace = forward(stepped, d)
    mlp, stepped_trace = output_weight_step(stepped, d, stepped_trace)
    err = output_mse(d, stepped_trace.output)

    if state.algorithm == "owo-molf":
        multiplies = cost.mult_owo_molf(n, nh, m, nv)
    else:
        multiplies = cost.mult_amolf(n, nh, m, nv, n_groups)
    surcharge = cost.mult_amolf_search(n, nh, m, nv) if searched else 0
    epm_now = cost.epm(state.last_error, err, multiplies)
    history = ast.epm_history + ((iteration, epm_now),)
    new_amolf = replace(ast, n_groups=n_groups, epm_history=history)
    return mlp, err, multiplies + surcharge, {"amolf": new_amolf}


def _moved(mlp: Mlp, packed_direction: np.ndarray, step: float) -> Mlp:
    """``mlp`` with every weight moved by ``step`` times its entry of a
    direction in the all-weight order of ``gradients.pack``."""
    d = unpack(packed_direction, mlp)
    return Mlp(
        w=mlp.w + step * d.input_weights,
        woh=mlp.woh + step * d.output_weights,
        woi=mlp.woi + step * d.bypass_weights,
        activation=mlp.activation,
    )


def lm_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Damped full-network second-order step.

    Solves the Gauss-Newton system with the current damping added to a copy
    of its diagonal; on error decrease the step is accepted and the damping
    shrinks tenfold, otherwise it grows tenfold and the solve is retried.
    The damping stays within [LM_LAMBDA_MIN, LM_LAMBDA_MAX]; a rejection at
    the cap ends the retries, since another solve at the same damping would
    repeat the same step. After LM_MAX_RETRIES consecutive rejections, or
    one at the cap, the iteration ends with the weights unchanged, flagged
    stalled. The damping lives here, not in the solver, so a solve reports
    rank deficiency only when it skipped pivots.
    """
    d = state.dataset
    mlp = state.mlp
    gradient = pack(backprop(mlp, d, trace))
    hessian = gauss_newton_full_hessian(mlp, d, trace)
    diagonal = np.diag_indices_from(hessian)

    lam = min(max(state.lm_lambda, LM_LAMBDA_MIN), LM_LAMBDA_MAX)
    accepted = False
    new_mlp, err = mlp, state.last_error
    for _ in range(LM_MAX_RETRIES):
        damped = hessian.copy()
        damped[diagonal] += lam
        step = solve_sym(damped, gradient).solution
        candidate = _moved(mlp, step, 1.0)
        candidate_error = mse(candidate, d)
        if candidate_error < state.last_error:
            new_mlp, err, accepted = candidate, candidate_error, True
            lam = max(lam / 10.0, LM_LAMBDA_MIN)
            break
        if lam >= LM_LAMBDA_MAX:
            break
        lam = min(lam * 10.0, LM_LAMBDA_MAX)

    changes = {"lm_lambda": lam, "lm_stalled": not accepted}
    return new_mlp, err, cost.mult_lm(*_dims(state)), changes


def cg_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Conjugate-gradient step over all weights, with the step size from the
    Gauss-Newton curvature along the direction."""
    d = state.dataset
    mlp = state.mlp
    gradient = pack(backprop(mlp, d, trace))
    direction = fletcher_reeves_direction(
        gradient, state.cg_direction, state.cg_gradient_norm_sq
    )
    along = unpack(direction, mlp)
    curvature = gn_curvature_along_direction(
        mlp, d, trace, along.input_weights, along.output_weights, along.bypass_weights
    )
    step = _optimal_step(float(gradient @ direction), curvature)
    mlp = _moved(mlp, direction, step)
    changes = {"cg_direction": direction, "cg_gradient_norm_sq": float(gradient @ gradient)}
    return mlp, mse(mlp, d), cost.mult_cg(*_dims(state)), changes


_STEPS = {
    "owo-bp": owo_bp_step,
    "owo-molf": amolf_step,
    "owo-newton": owo_newton_step,
    "amolf": amolf_step,
    "lm": lm_step,
    "cg": cg_step,
}


def iterate(state: TrainerState) -> TrainerState:
    """Run one training iteration of the state's algorithm: one forward pass
    of ``state.mlp`` handed to the algorithm's step, whose error and
    multiplies go into the new state, the ledger into a copy of this one."""
    step = _STEPS[state.algorithm]
    mlp, error, multiplies, changes = step(state, forward(state.mlp, state.dataset))
    ledger = CostLedger(list(state.ledger.per_iteration))
    ledger.record(multiplies)
    return replace(
        state,
        mlp=mlp,
        ledger=ledger,
        last_error=error,
        iteration=state.iteration + 1,
        **changes,
    )
