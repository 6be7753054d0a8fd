"""Training algorithms with one uniform ``iterate(state) -> state`` step.

Six trainers share the same machinery:

* ``owo-bp``      solve output weights, then one gradient step on the input
                  weights with a second-order optimal step size.
* ``owo-molf``    one optimal step size per hidden unit: the grouped step
                  at one group (amolf's one-group limit), then the
                  output-weight solve.
* ``owo-newton``  a full second-order step on the input weights.
* ``amolf``       the input weights of each hidden unit are split into
                  curvature-ordered groups, one step size per group; the
                  group count adapts to the error change per multiply and is
                  re-searched exhaustively at a fixed period.
* ``lm``          damped full-network second-order steps with the classic
                  accept/reject damping schedule.
* ``cg``          Fletcher-Reeves conjugate gradient over all weights.

``iterate`` owns the iteration boundary: it hands the forward pass of the
state's network to the algorithm's step (``_STEPS``), and records the
error of the pass the step returns, and the step's multiplies, in the next
state, whose ledger is the last one's ``record`` of this entry. A pass
carries its network and dataset, so a kernel that reads one takes the pass
alone and a step compares errors of passes, never ``last_error``. A pass
computes its outputs, f'(net) and error (``ForwardTrace.output``,
``fprime``, ``error``) the first time each is read and keeps them, so the
kernels of a step compute f' once between them, and a pass whose outputs
no one reads never computes them. A step returns its new network's pass,
its multiplies and the state fields it changes. A run's newest state holds
its network's pass: ``init_state`` and ``iterate`` put it there, and
``iterate`` takes it out of the state it is given, using it when the pass's
network and dataset are that state's very objects (both immutable) and
running ``forward`` otherwise. So older states hold no pass, runs stepped
alternately or in threads keep their own, and an iteration runs one
forward pass, of the network it returns, and none of the network it starts
from. ``run_training`` and ``run_kfold`` drop the pass of each trial's
last state, so no state they leave behind holds one.
owo-molf, owo-newton and amolf take an input-weight step, then solve the
output weights, a solve that returns a pass of the solved network on the
same activations, so the pre-solve pass never computes its outputs; owo-bp
solves them first. A search iteration runs one pass per candidate count
and solves for the winner's; LM runs one per candidate and returns the
accepted one's. An error that is NaN or infinite stops the run with a
``ValueError``, in ``init_state`` or ``iterate``.

A grouping is its group-id map (``build_partition``): one int group id
per input weight, in the input weights' shape. The grouped kernels take
it with ``gw``, the input-weight gradient. The grouped step interpolates
between one step size per unit (one group) and the full input-weight
second-order step (all-singleton groups), so its system can be read off
the input-weight Hessian. A search iteration does so for every candidate
count, grouping by that Hessian's diagonal (the per-weight curvature), and
the winning candidate's step is the iteration's step. amolf's other
iterations and every owo-molf iteration take ``_grouped_step``, which
reads its one system directly off per-pattern sums, the
``gradients.gauss_newton_gram`` of f'·(x·t), a ``linalg.pattern_sum`` Gram
whose bits do not depend on BLAS threads. Its grouping is by
``curvature_map`` at two or more groups; one group (one step size per
unit) is the all-zero map, which reads no curvature.

LM keeps only its accept/reject damping schedule here. The factored
Hessian over every weight (``gradients.gauss_newton_full_hessian``) and
its damped solve through the Schur complement onto the input weights
(``gradients.damped_gauss_newton_step``) live with the other Gauss-Newton
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cost
from .cost import CostLedger
from .dataset import Dataset
from .gradients import (
    GradientBundle,
    backprop,
    curvature_map,
    damped_gauss_newton_step,
    gauss_newton_gram,
    gauss_newton_input_hessian,
    gn_curvature_along_direction,
    gn_curvature_along_input_direction,
    gauss_newton_full_hessian,
    input_weight_gradient,
    pack,
    unpack,
)
from .linalg import check_count, solve_sym, weight_product
from .network import ForwardTrace, Mlp, forward
from .owo import output_weight_step

# Step size when the directional curvature is at or under CURVATURE_FLOOR;
# cg restarts from the gradient when its last squared norm is at or under it.
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


def build_partition(curvature: np.ndarray, n_groups: int) -> np.ndarray:
    """Split each unit's inputs into ``n_groups`` curvature-ordered groups.

    Returns the group-id map: entry (k, n) is the group of input weight
    (k, n), in 0..n_groups-1. Group 0 holds each unit's highest-curvature
    weights (ties by ascending index). Sizes are an equal split of
    n_inputs + 1 with the remainder going to the earliest groups, the same
    for every unit; groups never span units.
    """
    n1 = curvature.shape[1]
    n_groups = check_count(n_groups, "n_groups", 1)
    if n_groups > n1:
        raise ValueError(f"n_groups must be in 1..{n1}, got {n_groups}")
    order = np.argsort(-curvature, axis=1, kind="stable")
    base, extra = divmod(n1, n_groups)
    sizes = [base + 1] * extra + [base] * (n_groups - extra)
    group_of_rank = np.repeat(np.arange(n_groups), sizes)
    group = np.empty_like(order)
    np.put_along_axis(group, order, group_of_rank[None, :], axis=1)
    return group


def _grouped_gradient(gw: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor t with t[k, n, c] = gw(k, n) if input n is in group c of unit
    k, else 0 (sums over n against per-pattern inputs give the grouped net
    changes), and the group sums of squared gradients: the negative
    gradient wrt each group's step size at step 0, flattened unit-major."""
    t = np.where(group[..., None] == np.arange(group.max() + 1), gw[..., None], 0.0)
    return t, (t * gw[:, :, None]).sum(axis=1).ravel()


def apply_grouped_step(mlp: Mlp, gw: np.ndarray, group: np.ndarray, z: np.ndarray) -> Mlp:
    """Update every input weight once: weight (k, n) moves by its group's
    step size times its own negative gradient ``gw(k, n)``."""
    z = z.reshape(gw.shape[0], -1)
    return replace(mlp, w=mlp.w + z[np.arange(len(z))[:, None], group] * gw)


def assemble_grouped_direct(
    trace: ForwardTrace, gw: np.ndarray, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped step-size system accumulated from per-pattern sums.

    Returns the Gauss-Newton Hessian over the n_hidden * n_groups step
    sizes (flattened unit-major), ``gauss_newton_gram`` of the features
    f'·(x·t), and the matching negative gradient.
    """
    t, ga = _grouped_gradient(gw, group)
    nh, n1, ng = t.shape
    # Column k * ng + c is unit k's group c. The (n1, nh * ng) operand is a
    # C-order copy of t at two or more groups and the view gwᵀ at one; its
    # layout picks weight_product's kernel, and with it the bits.
    delta_net = weight_product(
        trace.dataset.inputs, t.transpose(1, 0, 2).reshape(n1, -1).T
    ).reshape(-1, nh, ng)
    # One product per group, no stride-0 broadcast: see the gradients docstring.
    for c in range(ng):
        np.multiply(delta_net[:, :, c], trace.fprime, out=delta_net[:, :, c])
    return gauss_newton_gram(trace.mlp, delta_net), ga


def assemble_grouped_from_hessian(
    hessian: np.ndarray, gw: np.ndarray, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped step-size system compressed out of the full input-weight
    Hessian (``gauss_newton_input_hessian``), so candidate group counts can
    be evaluated without recomputing any per-pattern sums. Entry
    ((k, c), (j, d)) is t[k, :, c] · H_kj · t[j, :, d] for the unit-pair
    block H_kj, one tiny product per unit pair."""
    t, ga = _grouped_gradient(gw, group)
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


def olf(trace: ForwardTrace, gw: np.ndarray) -> float:
    """Optimal scalar step size along the input-weight gradient ``gw``: the
    squared gradient norm over the Gauss-Newton curvature along it."""
    curvature = gn_curvature_along_input_direction(trace, gw)
    return _optimal_step(float((gw * gw).sum()), curvature)


def fletcher_reeves_direction(
    gradient: np.ndarray,
    previous_direction: np.ndarray | None = None,
    previous_norm_sq: float | None = None,
) -> np.ndarray:
    """Conjugate direction update: the fresh negative gradient plus the ratio of
    successive squared gradient norms times the previous direction. It restarts
    from the gradient with no history or a previous squared norm <= CURVATURE_FLOOR."""
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
    halve it when it fell, hold on a tie. Clamped to [1, max_groups];
    amolf passes the largest of ``cost.amolf_group_counts``."""
    if current_epm > previous_epm:
        return min(2 * n_groups, max_groups)
    if current_epm < previous_epm:
        return max(-(-n_groups // 2), 1)
    return n_groups


def initial_group_search(trace: ForwardTrace, gw: np.ndarray) -> tuple[int, ForwardTrace]:
    """Exhaustive group-count selection over ``cost.amolf_group_counts``.

    Builds the full input-weight Hessian once and groups by its diagonal,
    the per-weight curvature. For every candidate count it compresses the
    Hessian onto the grouped unknowns, solves, applies the trial step to a
    scratch copy, and runs it forward. The pass with the lowest error wins;
    ties go to the smaller count. Returns the winning count and the
    forward pass of its stepped network.
    """
    hessian = gauss_newton_input_hessian(trace)
    curvature = hessian.diagonal().reshape(gw.shape)
    best = None
    for ng in cost.amolf_group_counts(trace.dataset.n_inputs):
        group = build_partition(curvature, ng)
        ha, ga = assemble_grouped_from_hessian(hessian, gw, group)
        z = solve_sym(ha, ga).solution
        candidate = forward(apply_grouped_step(trace.mlp, gw, group, z), trace.dataset)
        if best is None or candidate.error < best[1].error:
            best = (ng, candidate)
    return best


# ---------------------------------------------------------------------------
# Trainer state and iterations


@dataclass(frozen=True)
class AmolfState:
    """Grouped-step bookkeeping carried across iterations.

    ``epm`` holds the error changes per multiply of the last two
    iterations, oldest first, which is all the adaptation compares.
    The group count is searched on iteration 1 and on every multiple of
    ``search_period`` (only on iteration 1 when it is 0). Only amolf
    carries one; owo-molf, its one-group limit, has nothing to adapt.
    """

    n_groups: int = 1
    epm: tuple[float, ...] = ()
    search_period: int = DEFAULT_SEARCH_PERIOD


@dataclass
class TrainerState:
    """Snapshot of one training run after ``iteration`` completed steps.

    ``last_error`` is the error of ``mlp``'s forward pass on ``dataset``, a
    record for the caller that no step reads; ``ledger`` holds one entry per
    completed step, and its length is the state's ``iteration``. The newest
    state of a run holds that pass for the next ``iterate``, which takes it;
    ``replace`` leaves it behind, so a copy runs ``forward`` afresh.
    """

    mlp: Mlp
    dataset: Dataset
    algorithm: str
    ledger: CostLedger
    last_error: float
    lm_lambda: float = LM_LAMBDA_START
    lm_stalled: bool = False
    cg_direction: np.ndarray | None = None
    cg_gradient_norm_sq: float | None = None
    amolf: AmolfState | None = None
    _trace: ForwardTrace | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def iteration(self) -> int:
        return len(self.ledger.per_iteration)


def check_error(error: float, what: str) -> float:
    """``error``, or a one-line ``ValueError`` naming ``what`` if it is NaN
    or infinite."""
    if not math.isfinite(error):
        raise ValueError(f"{what} is {error}, not finite")
    return error


def check_run_settings(algorithm: str, search_period: int) -> None:
    """Refuse an unknown ``algorithm``, a ``search_period`` that is not a
    whole number >= 0, and one other than the default outside amolf."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    check_count(search_period, "search_period", 0)
    if search_period != DEFAULT_SEARCH_PERIOD and algorithm != "amolf":
        raise ValueError(f"search_period is for amolf only, not {algorithm}")


def init_state(
    algorithm: str,
    mlp: Mlp,
    dataset: Dataset,
    *,
    search_period: int = DEFAULT_SEARCH_PERIOD,
) -> TrainerState:
    """State before the first iteration of ``algorithm`` from ``mlp`` on
    ``dataset``, holding the forward pass whose error is ``last_error`` for
    the first ``iterate``. Only amolf takes a ``search_period`` other than
    the default."""
    check_run_settings(algorithm, search_period)
    trace = forward(mlp, dataset)
    state = TrainerState(
        mlp=mlp,
        dataset=dataset,
        algorithm=algorithm,
        ledger=CostLedger(),
        last_error=check_error(trace.error, "the training error of the starting network"),
        amolf=AmolfState(search_period=search_period) if algorithm == "amolf" else None,
    )
    state._trace = trace
    return state


def _dims(state: TrainerState) -> tuple[int, int, int, int]:
    d = state.dataset
    return d.n_inputs, state.mlp.n_hidden, d.n_outputs, d.n_patterns


# (the new network's forward pass, which carries its error; modelled
# multiplies; other changed fields)
StepResult = tuple[ForwardTrace, int, dict]


def owo_bp_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Output-weight solve, then a gradient step with the optimal step size."""
    solved = output_weight_step(trace)
    gw = input_weight_gradient(solved)
    mlp = replace(solved.mlp, w=solved.mlp.w + olf(solved, gw) * gw)
    del solved  # its outputs and f' are not kept through the new pass
    return forward(mlp, state.dataset), cost.mult_owo_bp(*_dims(state)), {}


def owo_newton_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Full second-order input-weight step, then the output-weight solve; a
    pivot the solve skips (a singular Hessian) leaves its weight where it is."""
    mlp = trace.mlp
    gw = input_weight_gradient(trace)
    dw = solve_sym(gauss_newton_input_hessian(trace), gw.ravel()).solution.reshape(gw.shape)
    stepped = replace(mlp, w=mlp.w + dw)
    solved = output_weight_step(forward(stepped, state.dataset))
    return solved, cost.mult_owo_newton(*_dims(state)), {}


def _grouped_step(trace: ForwardTrace, gw: np.ndarray, n_groups: int) -> ForwardTrace:
    """The forward pass of the grouped input-weight step at ``n_groups``
    groups, its system read off per-pattern sums. One group is the all-zero
    group map, which needs no curvature."""
    if n_groups == 1:
        group = np.zeros(gw.shape, dtype=np.intp)
    else:
        group = build_partition(curvature_map(trace), n_groups)
    ha, ga = assemble_grouped_direct(trace, gw, group)
    stepped = apply_grouped_step(trace.mlp, gw, group, solve_sym(ha, ga).solution)
    return forward(stepped, trace.dataset)


def owo_molf_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """One optimal step size per hidden unit (the grouped step at one
    group), then the output-weight solve."""
    gw = input_weight_gradient(trace)
    solved = output_weight_step(_grouped_step(trace, gw, 1))
    return solved, cost.mult_owo_molf(*_dims(state)), {}


def amolf_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Pick the group count (an exhaustive search on the first iteration and
    periodically after, error-per-multiply adaptation otherwise), take the
    grouped step, solve output weights, record the iteration's error change
    per multiply."""
    ast = state.amolf
    n, nh, m, nv = _dims(state)
    iteration = state.iteration + 1

    gw = input_weight_gradient(trace)

    searched = iteration == 1 or (ast.search_period > 0 and iteration % ast.search_period == 0)
    if searched:
        n_groups, stepped = initial_group_search(trace, gw)
    else:
        n_groups = ast.n_groups
        if len(ast.epm) == 2:
            n_groups = adapt_group_count(n_groups, *ast.epm, max(cost.amolf_group_counts(n)))
        stepped = _grouped_step(trace, gw, n_groups)
    stepped = output_weight_step(stepped)

    multiplies = cost.mult_amolf(n, nh, m, nv, n_groups)
    surcharge = cost.mult_amolf_search(n, nh, m, nv) if searched else 0
    epm = (*ast.epm, cost.epm(trace.error, stepped.error, multiplies))[-2:]
    new_amolf = replace(ast, n_groups=n_groups, epm=epm)
    return stepped, multiplies + surcharge, {"amolf": new_amolf}


def _moved(mlp: Mlp, d: GradientBundle, step: float) -> Mlp:
    """``mlp`` with every weight moved by ``step`` times its entry of the
    direction ``d``."""
    return Mlp(
        w=mlp.w + step * d.input_weights,
        woh=mlp.woh + step * d.output_weights,
        woi=mlp.woi + step * d.bypass_weights,
        activation=mlp.activation,
    )


def lm_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Damped full-network second-order step.

    Solves the Gauss-Newton system with the current damping added to its
    diagonal, through ``damped_gauss_newton_step`` on the factored Hessian,
    which is built once per iteration; each retry changes only the damping.
    On an error below the input pass's the step is accepted and the damping
    shrinks tenfold, otherwise it grows tenfold and the solve is retried.
    The damping stays within [LM_LAMBDA_MIN, LM_LAMBDA_MAX]; a rejection at
    the cap ends the retries, since another solve at the same damping would
    repeat the same step. After LM_MAX_RETRIES consecutive rejections, or
    one at the cap, the iteration ends with the weights unchanged, flagged
    stalled, and returns its own input pass, which carries its error. The
    damping lives here, not in the solver, so a solve reports rank
    deficiency only when it skipped pivots.
    """
    mlp = trace.mlp
    gradient = backprop(trace)
    gram = gauss_newton_full_hessian(trace)
    vars(trace).pop("fprime", None)  # not kept through the retries; read no more

    lam = min(max(state.lm_lambda, LM_LAMBDA_MIN), LM_LAMBDA_MAX)
    new_trace = trace
    for _ in range(LM_MAX_RETRIES):
        candidate = _moved(mlp, damped_gauss_newton_step(mlp, gram, gradient, lam), 1.0)
        candidate_trace = forward(candidate, state.dataset)
        if candidate_trace.error < trace.error:
            new_trace = candidate_trace
            lam = max(lam / 10.0, LM_LAMBDA_MIN)
            break
        del candidate_trace  # not kept alive through the next solve
        if lam >= LM_LAMBDA_MAX:
            break
        lam = min(lam * 10.0, LM_LAMBDA_MAX)

    changes = {"lm_lambda": lam, "lm_stalled": new_trace is trace}
    return new_trace, cost.mult_lm(*_dims(state)), changes


def cg_step(state: TrainerState, trace: ForwardTrace) -> StepResult:
    """Conjugate-gradient step over all weights, with the step size from the
    Gauss-Newton curvature along the direction."""
    gradient = pack(backprop(trace))
    direction = fletcher_reeves_direction(
        gradient, state.cg_direction, state.cg_gradient_norm_sq
    )
    along = unpack(direction, trace.mlp)
    curvature = gn_curvature_along_direction(
        trace, along.input_weights, along.output_weights, along.bypass_weights
    )
    step = _optimal_step(float(gradient @ direction), curvature)
    trace = forward(_moved(trace.mlp, along, step), state.dataset)
    changes = {"cg_direction": direction, "cg_gradient_norm_sq": float(gradient @ gradient)}
    return trace, cost.mult_cg(*_dims(state)), changes


_STEPS = {
    "owo-bp": owo_bp_step,
    "owo-molf": owo_molf_step,
    "owo-newton": owo_newton_step,
    "amolf": amolf_step,
    "lm": lm_step,
    "cg": cg_step,
}
ALGORITHMS = tuple(_STEPS)


def iterate(state: TrainerState) -> TrainerState:
    """Run one training iteration of the state's algorithm: the forward pass
    of ``state.mlp`` (taken out of ``state``, or run afresh) goes to the
    algorithm's step, whose pass's error goes into the new state, its
    multiplies into this state's ``ledger.record``, and whose pass the new
    state holds for the next iteration."""
    trace, state._trace = state._trace, None
    if trace is None or trace.mlp is not state.mlp or trace.dataset is not state.dataset:
        trace = forward(state.mlp, state.dataset)
    trace, multiplies, changes = _STEPS[state.algorithm](state, trace)
    error = check_error(
        trace.error, f"the training error after {state.algorithm} iteration {state.iteration + 1}"
    )
    new = replace(
        state,
        mlp=trace.mlp,
        ledger=state.ledger.record(multiplies),
        last_error=error,
        **changes,
    )
    new._trace = trace
    return new
