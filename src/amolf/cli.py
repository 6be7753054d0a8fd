"""Command-line interface.

Verbs:
    train        emit a training curve (CSV) for one algorithm
    kfold        run the k-fold validation/test protocol (CSV report)
    gen-data     write a synthetic dataset in .tra text format
    count-mults  print the closed-form per-iteration multiply counts

All randomness derives from --seed; repeated invocations with identical
flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import cost
from .dataset import Dataset, gen_matrix_inversion, load_tra, save_tra
from .experiment import ExperimentConfig, emit_curve, emit_kfold, run_kfold, run_training
from .network import save_mlp
from .trainers import ALGORITHMS

SYNTHETIC_GENERATORS = ("matinv",)
SYNTHETIC_PATTERNS = 2000


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", metavar="PATH", help="pattern file (.tra text)")
    source.add_argument(
        "--synthetic", choices=SYNTHETIC_GENERATORS, help="generate data instead"
    )
    parser.add_argument("--n", type=int, help="input count (--data only, required)")
    parser.add_argument("--m", type=int, help="output count (--data only, required)")
    parser.add_argument(
        "--patterns",
        type=int,
        help=f"pattern count (--synthetic only, default {SYNTHETIC_PATTERNS})",
    )


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nh", type=int, required=True, help="hidden unit count")
    parser.add_argument("--algo", choices=ALGORITHMS, required=True)
    parser.add_argument("--iters", type=int, default=100)
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    parser.add_argument(
        "--activation", choices=("sigmoid", "tanh"), default=ExperimentConfig.activation
    )
    parser.add_argument(
        "--search-period",
        type=int,
        help="iterations between exhaustive group-count searches "
        f"(amolf only, default {ExperimentConfig.search_period})",
    )


def _load_data(args: argparse.Namespace) -> Dataset:
    if args.data is not None:
        if args.n is None or args.m is None:
            raise ValueError("--data requires --n and --m")
        if args.patterns is not None:
            raise ValueError("--patterns is for --synthetic")
        return load_tra(args.data, args.n, args.m)
    if args.n is not None or args.m is not None:
        raise ValueError("--n and --m are for --data; --synthetic sets its own counts")
    patterns = SYNTHETIC_PATTERNS if args.patterns is None else args.patterns
    return gen_matrix_inversion(patterns, args.seed)


def _config(args: argparse.Namespace, **verb_fields) -> ExperimentConfig:
    """The experiment settings shared by ``train`` and ``kfold``, plus the
    verb's own fields; an absent ``--search-period`` leaves the config's
    default."""
    if args.search_period is not None:
        if args.algo != "amolf":
            raise ValueError("--search-period is for --algo amolf")
        verb_fields["search_period"] = args.search_period
    return ExperimentConfig(
        algorithm=args.algo,
        n_hidden=args.nh,
        iterations=args.iters,
        seed=args.seed,
        activation=args.activation,
        **verb_fields,
    )


def _cmd_train(args: argparse.Namespace) -> None:
    curve = run_training(_load_data(args), _config(args, n_trials=args.trials))
    emit_curve(curve, args.out)
    if args.save_model:
        save_mlp(curve.final_models[0], args.save_model)
    print(f"wrote {args.out}: final mean mse {curve.mean_mse[-1]:.6e}")


def _cmd_kfold(args: argparse.Namespace) -> None:
    dataset = _load_data(args)
    report = run_kfold(dataset, _config(args, k_folds=args.k, patience=args.patience))
    emit_kfold(report, args.out)
    print(
        f"wrote {args.out}: mean train mse {report.mean_train_error:.6e}, "
        f"mean test mse {report.mean_test_error:.6e}"
    )


def _cmd_gen_data(args: argparse.Namespace) -> None:
    dataset = gen_matrix_inversion(args.patterns, args.seed)
    save_tra(dataset, args.out)
    print(f"wrote {args.out}: {dataset.n_patterns} patterns")


def _cmd_count_mults(args: argparse.Namespace) -> None:
    n, nh, m, nv = args.n, args.nh, args.m, args.nv
    rows = [
        ("owo-bp", cost.mult_owo_bp(n, nh, m, nv)),
        ("owo-molf", cost.mult_owo_molf(n, nh, m, nv)),
        ("owo-newton", cost.mult_owo_newton(n, nh, m, nv)),
        (f"amolf(ng={args.ng})", cost.mult_amolf(n, nh, m, nv, args.ng)),
        ("lm", cost.mult_lm(n, nh, m, nv)),
        ("cg", cost.mult_cg(n, nh, m, nv)),
    ]
    lines = ["algorithm,multiplies_per_iteration"]
    lines += [f"{name},{count}" for name, count in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amolf",
        description="Train single-hidden-layer MLPs with grouped optimal learning factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="emit an averaged training curve")
    _add_data_args(p_train)
    _add_train_args(p_train)
    p_train.add_argument("--trials", type=int, default=ExperimentConfig.n_trials)
    p_train.add_argument("--out", required=True, help="output CSV path")
    p_train.add_argument("--save-model", help="also save the first trial's final model")
    p_train.set_defaults(func=_cmd_train)

    p_kfold = sub.add_parser("kfold", help="k-fold validation/test protocol")
    _add_data_args(p_kfold)
    _add_train_args(p_kfold)
    p_kfold.add_argument("--k", type=int, default=ExperimentConfig.k_folds)
    p_kfold.add_argument("--patience", type=int, default=ExperimentConfig.patience)
    p_kfold.add_argument("--out", required=True, help="output CSV path")
    p_kfold.set_defaults(func=_cmd_kfold)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset")
    p_gen.add_argument("--patterns", type=int, default=SYNTHETIC_PATTERNS)
    p_gen.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_count = sub.add_parser("count-mults", help="closed-form multiply counts")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--m", type=int, required=True)
    p_count.add_argument("--nh", type=int, required=True)
    p_count.add_argument("--nv", type=int, required=True)
    p_count.add_argument("--ng", type=int, default=1)
    p_count.add_argument("--out")
    p_count.set_defaults(func=_cmd_count_mults)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
