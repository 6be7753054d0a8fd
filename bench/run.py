"""Wall-time benchmark of amolf's training entry points.

    python3 bench/run.py --workload amolf-matinv --seed 0 --seconds 30 --trace 0

Measures from outside the package: one process, one closed-loop caller
that runs ``amolf.run_training`` or ``amolf.run_kfold`` back to back, with
BLAS pinned to one thread. A run calls every instance of the workload
once per round (see ``workloads.py``). An untraced run times the
workload's number of rounds, then goes on while a whole round still fits
in ``--seconds``. Between iterations it times a reference slice of fixed
work (``reference.py``) and rescales each call's timings to reference
speed; its timings come from each instance's fastest rescaled repetition
of a call and of each iteration in the timed rounds. Set-up time is probed
in fresh interpreters before and between rounds; it is wall time, not
rescaled. Correctness gates run on every call. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures. With
``--trace 1`` every call is followed by the same call traced; the run
reports per-layer figures from the traced calls, checks that they give
bit-identical results to the untraced ones, and writes the spans to
``bench/out/spans-<workload>-seed<seed>.csv``. README.md in this directory
defines every metric.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

from instrument import ALLOCATION_SPANS, TRACED, IterationRecorder, Tracer, TrialLog
from workloads import TARGET_MSE, WORKLOADS, Workload, instance_seed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES_PER_ROUND = 3
LOCAL_SLICES = 16
PROBE_TIMEOUT_S = 60


class Refused(Exception):
    """The run cannot be measured as specified; nothing is printed."""


# ---------------------------------------------------------------------------
# Environment


def pin_blas_threads() -> None:
    """Force single-threaded BLAS before numpy loads, refusing any other
    explicit setting rather than measuring under it."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value != "1":
            raise Refused(f"{var}={value}: the benchmark runs with one BLAS thread")
        os.environ[var] = "1"


def openblas_info() -> tuple[str, int] | None:
    """(configuration string, thread count) of the OpenBLAS numpy loaded,
    or None when no OpenBLAS library is mapped into this process."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode("ascii", "replace"), threads()
    return None


def environment(np) -> dict:
    info = openblas_info()
    if info is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, threads = f"{blas.get('name')} {blas.get('version')}", None
    else:
        vendor, threads = info
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


class SetupProbe:
    """Runs ``setup_probe.py`` in fresh interpreters and keeps the seconds
    each one reports. The first probe, which may write the bytecode cache,
    is not kept."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.cmd = [
            sys.executable,
            os.path.join(BENCH_DIR, "setup_probe.py"),
            "--workload",
            workload.name,
            "--seed",
            str(seed),
        ]
        self.samples: list[float] = []
        self._probe()
        self.samples.clear()

    def _probe(self) -> None:
        done = subprocess.run(
            self.cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False
        )
        if done.returncode != 0:
            raise Refused(f"set-up probe failed: {done.stderr.strip()}")
        self.samples.append(float(done.stdout.strip()))

    def probe(self, count: int) -> None:
        for _ in range(count):
            self._probe()


# ---------------------------------------------------------------------------
# Calls


@dataclass
class Call:
    """One timed ``run_training`` / ``run_kfold`` call."""

    instance: int
    seconds: float  # wall time, the reference slices run inside it included
    result: object  # TrainingCurve or KfoldReport; None when the call raised
    trials: list[TrialLog]
    tracer: Tracer | None = None

    @property
    def slices_ns(self) -> list[int]:
        return [ns for trial in self.trials for ns in trial.slices_ns]

    @property
    def program_seconds(self) -> float:
        """Wall time of the call less the reference slices run inside it."""
        return self.seconds - sum(self.slices_ns) / 1e9

    def speed(self, reference) -> float:
        """The call's speed factor (``reference.speed_factor``); 1.0 when
        no slice was taken, as in traced runs."""
        slices = self.slices_ns
        return reference.speed_factor(slices) if slices and reference else 1.0

    def iteration_speeds(self, reference) -> list[list[float]]:
        """Each iteration's speed factor, trial by trial: that of the
        ``LOCAL_SLICES`` slices of the call nearest to it. The host changes
        speed within a call (from one k-fold round to the next by up to a
        third), so an iteration is rescaled by the slices around it."""
        slices = self.slices_ns
        if not (slices and reference):
            return [[1.0] * len(t.durations_ns) for t in self.trials]
        # Positions on one axis over the call: iteration i of a trial that
        # starts at offset o sits at o + i; a slice after it at o + i + 0.5.
        positions, offset = [], 0
        for trial in self.trials:
            positions += [offset + i + 0.5 for i in trial.slice_after]
            offset += len(trial.durations_ns)
        width = min(LOCAL_SLICES, len(slices))
        speeds, offset = [], 0
        for trial in self.trials:
            row = []
            for i in range(len(trial.durations_ns)):
                start = bisect.bisect_left(positions, offset + i) - width // 2
                start = min(max(start, 0), len(slices) - width)
                row.append(reference.speed_factor(slices[start : start + width]))
            speeds.append(row)
            offset += len(trial.durations_ns)
        return speeds


class Bench:
    """The closed-loop caller: one workload's instances, called back to
    back through amolf's public entry points, every iteration recorded."""

    def __init__(self, np, amolf, workload: Workload, seed: int, reference=None) -> None:
        self.np = np
        self.amolf = amolf
        self.workload = workload
        self.seed = seed
        self.entry_name = "run_kfold" if workload.kind == "kfold" else "run_training"
        self.reference = reference
        self.recorder = IterationRecorder(
            amolf.trainers,
            None if reference is None else reference.slice_ns,
            0 if reference is None else reference.SLICE_EVERY_NS,
        )
        amolf.experiment.iterate = self.recorder
        self.configs = [
            amolf.ExperimentConfig(**workload.config_kwargs(instance_seed(seed, j)))
            for j in range(workload.instances)
        ]
        self._datasets = {}
        self.peak_rss_mb = 0.0

    def dataset(self, instance: int):
        if instance not in self._datasets:
            self._datasets[instance] = self.amolf.gen_matrix_inversion(
                self.workload.n_patterns, instance_seed(self.seed, instance)
            )
        return self._datasets[instance]

    def warm_up(self) -> None:
        """Two iterations of one trial or every fold, so that BLAS, the
        allocator, every code path of the workload and the reference slice
        have run once."""
        config = replace(self.configs[0], iterations=2, n_trials=1)
        getattr(self.amolf, self.entry_name)(self.dataset(0), config)
        if self.reference is not None:
            for _ in range(10):
                self.reference.slice_ns()
        self.recorder.reset()

    def call(self, instance: int, tracer: Tracer | None = None) -> Call:
        amolf = self.amolf
        if tracer is not None:
            tracer.install()
        try:
            if tracer is not None:
                # Regenerated under the tracer so the dataset layer shows.
                dataset = amolf.gen_matrix_inversion(
                    self.workload.n_patterns, instance_seed(self.seed, instance)
                )
            else:
                dataset = self.dataset(instance)
            entry = getattr(amolf, self.entry_name)
            start = time.perf_counter()
            try:
                result = entry(dataset, self.configs[instance])
            except Exception as exc:  # counted as a failed operation below
                print(f"call on instance {instance} raised {exc!r}", file=sys.stderr)
                result = None
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Call(instance, seconds, result, self.recorder.reset(), tracer)

    def measure(
        self, seconds: float, traced: bool, setup: SetupProbe | None = None
    ) -> list[list[Call]]:
        """Rounds of calls over all instances.

        Untraced runs make the workload's ``rounds``, which give every
        figure, so both sides of a comparison are timed from the same
        number of repetitions. ``setup`` is probed before the first of them
        and after each, and the peak resident memory is read after the last.
        Traced runs call each instance untraced, then traced, and make at
        least one round. Further rounds start while a whole round still fits
        in ``seconds``; the gates check them too.
        """
        measured = 1 if traced else self.workload.rounds
        rounds: list[list[Call]] = []
        start = time.perf_counter()
        if setup is not None:
            setup.probe(SETUP_PROBES_PER_ROUND)
        while True:
            round_start = time.perf_counter()
            calls = []
            for j in range(self.workload.instances):
                calls.append(self.call(j))
                if traced:
                    calls.append(self.call(j, Tracer()))
            rounds.append(calls)
            if len(rounds) <= measured and setup is not None:
                setup.probe(SETUP_PROBES_PER_ROUND)
            if len(rounds) == measured:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            if len(rounds) >= measured and now - start + (now - round_start) > seconds:
                return rounds


# ---------------------------------------------------------------------------
# Correctness gates


class Gates:
    """Counts correctness checks; each failed one is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def expected_ledger_total(bench: Bench, trial: TrialLog, instance: int) -> int:
    """The trial's multiply count recomputed from the cost formulas: the
    iteration count, and for amolf each iteration's group count plus one
    search surcharge per search iteration."""
    cost = bench.amolf.cost
    data = trial.final_state.dataset
    dims = (data.n_inputs, bench.workload.n_hidden, data.n_outputs, data.n_patterns)
    iterations = len(trial.durations_ns)
    algorithm = bench.workload.algorithm
    if algorithm == "amolf":
        period = bench.configs[instance].search_period
        searches = sum(
            1 for i in range(1, iterations + 1) if i == 1 or (period > 0 and i % period == 0)
        )
        return sum(cost.mult_amolf(*dims, g) for g in trial.n_groups) + searches * (
            cost.mult_amolf_search(*dims)
        )
    per_iteration = {"lm": cost.mult_lm, "owo-bp": cost.mult_owo_bp}[algorithm]
    return iterations * per_iteration(*dims)


def result_fingerprint(call: Call) -> tuple:
    """Everything a call returns or records that must repeat bit for bit."""
    result = call.result
    if result is None:
        return (None,)
    if hasattr(result, "mean_mse"):
        arrays = (result.mean_mse.tobytes(), result.cum_multiplies.tobytes())
    else:
        arrays = (repr(result.train_errors), repr(result.test_errors))
    ledgers = tuple(t.final_state.ledger.total() for t in call.trials)
    return arrays + (ledgers,)


def check_call(bench: Bench, call: Call, gates: Gates) -> None:
    np = bench.np
    workload = bench.workload
    gates.check(call.result is not None, f"instance {call.instance}: call raised")
    if call.result is None:
        return
    result = call.result
    if workload.kind == "kfold":
        errors = np.array(result.train_errors + result.test_errors)
    else:
        errors = result.mean_mse
    gates.check(bool(np.all(np.isfinite(errors))), f"instance {call.instance}: non-finite MSE")
    totals = []
    for trial in call.trials:
        total = trial.final_state.ledger.total()
        totals.append(total)
        gates.check(
            total == expected_ledger_total(bench, trial, call.instance),
            f"instance {call.instance}: ledger total {total} differs from the formulas",
        )
    if workload.kind == "training":
        gates.check(
            len(call.trials) == workload.n_trials
            and math.isclose(result.cum_multiplies[-1], float(np.mean(totals)), rel_tol=1e-12),
            f"instance {call.instance}: curve multiplies disagree with the ledgers",
        )


def check_repeats(calls: list[Call], gates: Gates) -> None:
    """Every later call on an instance must reproduce its first call."""
    first: dict[int, tuple] = {}
    for call in calls:
        fingerprint = result_fingerprint(call)
        if call.instance in first:
            gates.check(
                fingerprint == first[call.instance],
                f"instance {call.instance}: repeated call gave different results",
            )
        else:
            first[call.instance] = fingerprint


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)]


def best_iterations(call: Call) -> list[int]:
    """1-based iteration of each k-fold round's best-validation model: the
    first iteration whose training error equals the reported one."""
    return [
        next(i for i, e in enumerate(trial.errors, 1) if e == reported)
        for trial, reported in zip(call.trials, call.result.train_errors)
    ]


@dataclass
class Timing:
    """The timings of one instance, from its untraced calls.

    Each call's time without its reference slices is divided by the
    call's speed factor, and each iteration time by its own, which gives
    them at reference speed. Calls on one instance repeat the same work, so
    each figure is the fastest repetition: ``seconds`` of the fastest call,
    and in ``iterations_ns`` each iteration's fastest time, trial by trial.
    """

    call: Call  # the instance's first call, for its results
    seconds: float
    iterations_ns: list[list[float]]
    wall_seconds: float  # the fastest call's wall time, not rescaled
    speed: float  # the median speed factor of the calls


def instance_timings(calls: list[Call], reference=None) -> list[Timing]:
    by_instance: dict[int, list[Call]] = {}
    for call in calls:
        if call.tracer is None:
            by_instance.setdefault(call.instance, []).append(call)
    timings = []
    for j in sorted(by_instance):
        reps = by_instance[j]
        speeds = [c.speed(reference) for c in reps]
        rescaled = [
            [[ns / f for ns, f in zip(t.durations_ns, fs)] for t, fs in zip(c.trials, c_speeds)]
            for c, c_speeds in zip(reps, (c.iteration_speeds(reference) for c in reps))
        ]
        timings.append(
            Timing(
                call=reps[0],
                seconds=min(c.program_seconds / f for c, f in zip(reps, speeds)),
                iterations_ns=[
                    [min(per_rep) for per_rep in zip(*trial)] for trial in zip(*rescaled)
                ],
                wall_seconds=min(c.program_seconds for c in reps),
                speed=statistics.median(speeds),
            )
        )
    return timings


def time_to_target(bench: Bench, timings: list[Timing]):
    """(seconds, iterations) to reach the workload's target, or None.

    Training: the trial-mean curve over all instances picks the first
    iteration at or below ``TARGET_MSE``; the seconds are the trial-mean
    iteration times summed up to it. k-fold: the target is each round's
    best-validation model, and both figures are means over rounds.
    """
    np = bench.np
    if bench.workload.kind == "kfold":
        seconds, iterations = [], []
        for timing in timings:
            for ns, best in zip(timing.iterations_ns, best_iterations(timing.call)):
                seconds.append(sum(ns[:best]) / 1e9)
                iterations.append(best)
        return statistics.fmean(seconds), statistics.fmean(iterations)
    curve = np.mean([t.call.result.mean_mse for t in timings], axis=0)
    hits = np.flatnonzero(curve <= TARGET_MSE)
    if hits.size == 0:
        return None
    reached = int(hits[0]) + 1
    per_iteration = np.mean([ns for t in timings for ns in t.iterations_ns], axis=0)
    return float(per_iteration[:reached].sum()) / 1e9, float(reached)


def final_mse(bench: Bench, timings: list[Timing]) -> float:
    """Training: the trial-mean final training MSE over the instances.
    k-fold: the mean test MSE over all rounds."""
    results = [t.call.result for t in timings]
    if bench.workload.kind == "kfold":
        return statistics.fmean(r.mean_test_error for r in results)
    return statistics.fmean(float(r.mean_mse[-1]) for r in results)


def end_to_end_metrics(bench: Bench, timings: list[Timing], setup: list[float]) -> dict:
    """The bounded figures. Training times are at reference speed; set-up
    time is wall time."""
    durations = [d for t in timings for ns in t.iterations_ns for d in ns]
    return {
        "train_s": (statistics.median(t.seconds for t in timings), "s"),
        "iter_ms_p50": (statistics.median(durations) / 1e6, "ms"),
        "iter_ms_tail": (nearest_rank(durations, bench.workload.tail_percentile) / 1e6, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (bench.peak_rss_mb, "MB"),
    }


def per_layer_metrics(
    bench: Bench, rounds: list[list[Call]], timings: list[Timing], target
) -> dict:
    """Per-layer figures for one round of traced calls. Counts come from
    the first round (they repeat exactly); times are medians over rounds."""
    traced = [[c for c in r if c.tracer is not None] for r in rounds]
    untraced = [[c for c in r if c.tracer is None] for r in rounds]
    tracers = [c.tracer for c in traced[0]]

    def total(read, tracer_list=tracers):
        return sum(read(t) for t in tracer_list)

    metrics = {}
    for name in (f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns):
        metrics[f"{name}.calls"] = (total(lambda t: t.calls[name]), "count")
        metrics[f"{name}.self_ms"] = (
            statistics.median(
                total(lambda t: t.self_ns[name], [c.tracer for c in r]) for r in traced
            )
            / 1e6,
            "ms",
        )
    for stat, unit in (("flops_computed", "flop"), ("rank_deficient", "count"), ("ridged", "count")):
        metrics[f"linalg.solve_sym.{stat}"] = (
            total(lambda t: t.stats["linalg.solve_sym"][stat]),
            unit,
        )
    metrics["linalg.solve_sym.max_n"] = (
        max(t.stats["linalg.solve_sym"]["max_n"] for t in tracers),
        "rows",
    )
    iterations = total(lambda t: t.calls["trainers.iterate"])
    metrics["network.forward.rows"] = (total(lambda t: t.stats["network.forward"]["rows"]), "rows")
    metrics["network.forward.calls_per_iter"] = (
        total(lambda t: t.calls["network.forward"]) / iterations,
        "calls/iter",
    )
    for name in ALLOCATION_SPANS:
        metrics[f"{name}.bytes_computed"] = (total(lambda t: t.stats[name]["bytes_computed"]), "B")
    metrics["owo.solve_output_weights.rank_deficient"] = (
        total(lambda t: t.stats["owo.solve_output_weights"]["rank_deficient"]),
        "count",
    )

    trials = [t for c in untraced[0] for t in c.trials]
    groups = [g for t in trials for g in t.n_groups]
    metrics["trainers.amolf.n_groups_mean"] = (
        statistics.fmean(groups) if groups else 0.0,
        "groups",
    )
    metrics["trainers.lm.retries"] = (sum(r for t in trials for r in t.lm_retries), "count")
    metrics["trainers.lm.stalled"] = (sum(t.lm_stalled for t in trials), "count")
    metrics["experiment.final_mse"] = (final_mse(bench, timings), "mse")
    metrics["experiment.time_to_target_s"] = (target[0], "s")
    metrics["trainers.iters_to_target"] = (target[1], "iters")

    # Share of the slowest iterations' time spent in the group search.
    spans = [(t, i, d) for t in tracers for i, d in t.durations_ns("trainers.iterate")]
    cutoff = nearest_rank([d for _, _, d in spans], bench.workload.tail_percentile)
    tail_ns = search_ns = 0
    for tracer in tracers:
        tail = {i: d for t, i, d in spans if t is tracer and d >= cutoff}
        tail_ns += sum(tail.values())
        search_ns += tracer.child_time_ns(set(tail), "trainers.initial_group_search")
    metrics["trainers.iterate.tail_search_share"] = (search_ns / tail_ns, "fraction")

    mults = sum(t.final_state.ledger.total() for t in trials)
    metrics["cost.modelled_mults"] = (mults, "mult")
    metrics["cost.modelled_gmult_per_s"] = (
        mults / sum(c.seconds for c in untraced[0]) / 1e9,
        "Gmult/s",
    )
    metrics["tracing.overhead_s"] = (
        statistics.median(c.seconds for r in traced for c in r)
        - statistics.median(c.seconds for r in untraced for c in r),
        "s",
    )
    metrics["tracing.spans"] = (sum(len(t.spans) for t in tracers), "count")
    return metrics


# ---------------------------------------------------------------------------
# Main


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Wall-time benchmark of amolf's training entry points."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC_DIR, "amolf", "__init__.py")):
        raise Refused(f"amolf sources not found under {SRC_DIR}")
    pin_blas_threads()

    sys.path.insert(0, SRC_DIR)
    import numpy as np

    import amolf
    import amolf.cost
    import amolf.experiment
    import amolf.trainers

    env = environment(np)
    if env["blas_threads"] is not None and env["blas_threads"] > 1:
        raise Refused(f"{env['blas_threads']} BLAS threads are active; expected 1")
    print("environment " + json.dumps(env), flush=True)

    reference = None
    if not args.trace:
        import reference
    bench = Bench(np, amolf, workload, args.seed, reference)
    bench.warm_up()
    setup = None if args.trace else SetupProbe(workload, args.seed)
    rounds = bench.measure(args.seconds, bool(args.trace), setup)
    calls = [c for r in rounds for c in r]
    timings = instance_timings([c for r in rounds[: workload.rounds] for c in r], reference)

    gates = Gates()
    check_repeats(calls, gates)
    for call in calls:
        check_call(bench, call, gates)
    target = None
    if all(c.result is not None for c in calls):
        if workload.final_mse_bound is not None:
            mean_final = final_mse(bench, timings)
            gates.check(
                mean_final <= workload.final_mse_bound,
                f"mean final MSE {mean_final:.4g} above {workload.final_mse_bound}",
            )
        target = time_to_target(bench, timings)
        if workload.kind == "training":
            gates.check(target is not None, f"mean curve never reached MSE {TARGET_MSE}")

    metrics = {}
    if target is not None and args.trace:
        metrics = per_layer_metrics(bench, rounds, timings, target)
        write_spans(workload, args.seed, calls)
    elif target is not None:
        metrics = end_to_end_metrics(bench, timings, setup.samples)
        iterations = sum(len(ns) for t in timings for ns in t.iterations_ns)
        detail = {
            "rounds": len(rounds),
            "calls": len(calls),
            "timed_iterations": iterations,
            "tail_percentile": workload.tail_percentile,
            "tail_samples_beyond": iterations
            - math.ceil(workload.tail_percentile / 100.0 * iterations),
            "final_mse": final_mse(bench, timings),
            "time_to_target_s": target[0],
            "iters_to_target": target[1],
            "setup_samples_s": setup.samples,
            "wall_train_s": statistics.median(t.wall_seconds for t in timings),
            "speed_factor": statistics.median(t.speed for t in timings),
            "slices": sum(len(c.slices_ns) for c in calls),
            "slice_share": sum(sum(c.slices_ns) for c in calls) / 1e9
            / sum(c.seconds for c in calls),
        }
        print("detail " + json.dumps(detail), flush=True)

    for failure in gates.failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    failed = bench.recorder.failed + len(gates.failures)
    return {
        "correct": failed == 0,
        "attempted": bench.recorder.attempted + gates.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def write_spans(workload: Workload, seed: int, calls: list[Call]) -> None:
    """Write every traced call's spans to bench/out, once the run is over."""
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("call,span,parent,name,start_ns,end_ns\n")
        for index, call in enumerate(calls):
            if call.tracer is not None:
                call.tracer.write(fh, index)


def main() -> int:
    args = parse_args()
    try:
        result = run(args)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
