"""Measurement hooks installed into amolf from outside the package.

Two pieces, both of which leave amolf's arithmetic untouched:

* ``IterationRecorder`` replaces ``amolf.experiment.iterate``, the one
  point where the experiment harness calls into the trainers. It times
  every iteration and keeps what the returned state says about it (error,
  group count, LM damping, the ledger). It runs in every benchmark run;
  in untraced runs it also times a reference slice between iterations
  (see ``reference.py``).
* ``Tracer`` wraps the public functions of every amolf layer in each
  module namespace that binds them, and records one span per call plus a
  few counts read off the arguments and results. It runs only in traced
  runs, which give the per-layer figures.

amolf's modules import their collaborators by name (``from .linalg import
solve_sym``), so wrapping only the defining module would miss most calls.
The tracer therefore rebinds every ``amolf.*`` attribute that holds a
traced function and then checks that no original is left anywhere.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# module -> public functions traced as spans named "<module>.<function>".
TRACED = {
    "linalg": ("solve_sym",),
    "network": ("forward", "mse"),
    "gradients": (
        "backprop",
        "curvature_map",
        "gauss_newton_input_hessian",
        "gn_curvature_along_input_direction",
        "gauss_newton_full_hessian",
    ),
    "owo": ("accumulate_correlations", "solve_output_weights"),
    "trainers": (
        "iterate",
        "initial_group_search",
        "assemble_grouped_direct",
        "assemble_grouped_from_hessian",
        "apply_grouped_step",
        "build_partition",
    ),
    "dataset": ("gen_matrix_inversion", "normalize_zero_mean", "kfold_split", "take"),
    "experiment": ("run_training", "run_kfold"),
}

# Spans whose peak allocation is measured with tracemalloc while they run.
ALLOCATION_SPANS = ("gradients.gauss_newton_full_hessian",)


def _amolf_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "amolf" or name.startswith("amolf."))
    ]


# ---------------------------------------------------------------------------
# Iteration recorder


@dataclass
class TrialLog:
    """What one training trial or k-fold round did, iteration by iteration."""

    durations_ns: list[int] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    n_groups: list[int] = field(default_factory=list)
    lm_retries: list[int] = field(default_factory=list)
    lm_stalled: int = 0
    final_state: object = None
    slices_ns: list[int] = field(default_factory=list)  # reference slices
    slice_after: list[int] = field(default_factory=list)  # iteration before each


def lm_retries(lambda_before: float, lambda_after: float, stalled: bool) -> int:
    """Rejected LM solves in one iteration, read off the damping change.

    Each rejection multiplies the damping by 10 and an acceptance divides
    it by 10, so k rejections then an acceptance leave it 10**(k-1) times
    larger; a stalled iteration rejected every one of its solves.
    """
    if not (lambda_before > 0.0 and math.isfinite(lambda_after) and lambda_after > 0.0):
        return 0
    exponent = round(math.log10(lambda_after / lambda_before))
    return exponent if stalled else exponent + 1


class IterationRecorder:
    """Stands in for ``amolf.experiment.iterate``.

    It calls ``amolf.trainers.iterate`` through the module attribute at
    every call, so a tracer installed later still sees each iteration. A
    state at iteration 0 opens a new trial log. ``attempted`` counts
    iterations started, ``failed`` those that raised or returned a
    non-finite error. With a ``reference`` (a function returning the
    nanoseconds of one reference slice), a slice runs after an iteration,
    outside its timing, whenever ``slice_every_ns`` of iteration time has
    passed since the last one.
    """

    def __init__(self, trainers_module, reference=None, slice_every_ns: int = 0) -> None:
        self._trainers = trainers_module
        self._reference = reference
        self._slice_every_ns = slice_every_ns
        self._since_slice_ns = 0
        self.trials: list[TrialLog] = []
        self.attempted = 0
        self.failed = 0

    def reset(self) -> list[TrialLog]:
        trials, self.trials = self.trials, []
        return trials

    def __call__(self, state):
        if state.iteration == 0 or not self.trials:
            self.trials.append(TrialLog())
        log = self.trials[-1]
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = self._trainers.iterate(state)
        except Exception:
            self.failed += 1
            raise
        duration = time.perf_counter_ns() - start
        log.durations_ns.append(duration)
        if self._reference is not None:
            self._since_slice_ns += duration
            if self._since_slice_ns >= self._slice_every_ns:
                log.slices_ns.append(self._reference())
                log.slice_after.append(len(log.durations_ns) - 1)
                self._since_slice_ns = 0
        log.errors.append(out.last_error)
        if not math.isfinite(out.last_error):
            self.failed += 1
        if out.amolf is not None:
            log.n_groups.append(out.amolf.n_groups)
        if out.algorithm == "lm":
            log.lm_retries.append(
                lm_retries(state.lm_lambda, out.lm_lambda, out.lm_stalled)
            )
            log.lm_stalled += int(out.lm_stalled)
        log.final_state = out
        return out


# ---------------------------------------------------------------------------
# Tracer


def _solve_sym_counts(stats, args, kwargs, report) -> None:
    a, b = args[0], args[1]
    n = a.shape[0]
    rhs = 1 if b.ndim == 1 else b.shape[1]
    # Nominal flops of the dense elimination plus back-substitution for this
    # shape: a multiply and a subtract per update, skipped pivots ignored.
    s1 = n * (n - 1) // 2
    s2 = (n - 1) * n * (2 * n - 1) // 6
    stats["flops_computed"] += 2 * s2 + (2 + 4 * rhs) * s1
    stats["max_n"] = max(stats["max_n"], n)
    stats["rank_deficient"] += int(report.rank_deficient)
    ridge = args[2] if len(args) > 2 else kwargs.get("ridge", 0.0)
    stats["ridged"] += int(ridge > 0.0)


def _forward_counts(stats, args, kwargs, result) -> None:
    stats["rows"] += args[1].n_patterns


def _owo_solve_counts(stats, args, kwargs, solution) -> None:
    stats["rank_deficient"] += int(solution.rank_deficient)


COUNT_HOOKS = {
    "linalg.solve_sym": _solve_sym_counts,
    "network.forward": _forward_counts,
    "owo.solve_output_weights": _owo_solve_counts,
}


class Tracer:
    """Span recorder for the functions in ``TRACED``.

    Spans are kept in memory as ``(name, start_ns, end_ns, parent)`` with
    ``parent`` the index of the enclosing span (-1 at the top). Self time
    is a span's duration minus the durations of its direct children; calls
    are sequential, so the children never overlap.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.stats: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"amolf.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (
                    original,
                    self._wrap(f"{module_name}.{fn_name}", original),
                )
        for module in _amolf_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        self._check_no_original_left([w[0] for w in wrappers.values()])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @staticmethod
    def _check_no_original_left(originals) -> None:
        ids = {id(fn) for fn in originals}
        for module in _amolf_modules():
            for attr, value in vars(module).items():
                nested = (
                    value.values()
                    if isinstance(value, dict)
                    else value
                    if isinstance(value, (list, tuple))
                    else ()
                )
                for held in (value, *nested):
                    if id(held) in ids:
                        raise RuntimeError(
                            f"{module.__name__}.{attr} still holds an unwrapped "
                            f"{held.__module__}.{held.__name__}"
                        )

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        measure_allocation = name in ALLOCATION_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append((name, 0, 0, parent))
            self._open.append(index)
            self._child_ns.append(0)
            if measure_allocation:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if measure_allocation:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.stats[name]["bytes_computed"] += peak
                self._open.pop()
                children = self._child_ns.pop()
                duration = end - start
                if self._child_ns:
                    self._child_ns[-1] += duration
                self.spans[index] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_ns[name] += duration - children
            if hook is not None:
                hook(self.stats[name], args, kwargs, result)
            return result

        return traced

    # -- reading -----------------------------------------------------------

    def durations_ns(self, name: str) -> list[tuple[int, int]]:
        """(span index, duration) of every span called ``name``."""
        return [
            (i, end - start)
            for i, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name
        ]

    def child_time_ns(self, parents: set[int], name: str) -> int:
        """Total duration of ``name`` spans whose parent is in ``parents``."""
        return sum(
            end - start
            for span_name, start, end, parent in self.spans
            if span_name == name and parent in parents
        )

    def write(self, fh, call_index: int) -> None:
        """Write this tracer's spans to ``fh``, one CSV row per span."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{call_index},{i},{parent},{name},{start},{end}\n")
