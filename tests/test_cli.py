import subprocess
import sys

import numpy as np
import pytest

import amolf.trainers
from amolf import cost
from amolf.cli import _config, build_parser, main
from amolf.dataset import gen_matrix_inversion, normalize_zero_mean
from amolf.experiment import ExperimentConfig, trial_seed
from amolf.network import init_net_control
from amolf.trainers import init_state, iterate
from support import load_mlp


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "amolf", *args],
        capture_output=True,
        text=True,
    )


def test_gen_data_writes_patterns(tmp_path):
    out = tmp_path / "mat.tra"
    assert main(["gen-data", "--patterns", "25", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 25
    assert len(lines[0].split()) == 8


def test_train_synthetic_writes_curve(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        [
            "train",
            "--synthetic",
            "matinv",
            "--patterns",
            "80",
            "--nh",
            "4",
            "--algo",
            "owo-molf",
            "--iters",
            "3",
            "--trials",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,mean_mse,cum_multiplies"
    assert len(lines) == 4


def test_train_from_file(tmp_path):
    data = tmp_path / "data.tra"
    main(["gen-data", "--patterns", "60", "--seed", "2", "--out", str(data)])
    out = tmp_path / "curve.csv"
    code = main(
        [
            "train",
            "--data",
            str(data),
            "--n",
            "4",
            "--m",
            "4",
            "--nh",
            "3",
            "--algo",
            "cg",
            "--iters",
            "2",
            "--trials",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()


def test_kfold_writes_report(tmp_path):
    out = tmp_path / "kfold.csv"
    code = main(
        [
            "kfold",
            "--synthetic",
            "matinv",
            "--patterns",
            "100",
            "--nh",
            "3",
            "--algo",
            "owo-molf",
            "--iters",
            "3",
            "--k",
            "4",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,train_mse,test_mse"
    assert len(lines) == 6


def test_count_mults_stdout(capsys):
    assert main(["count-mults", "--n", "4", "--m", "4", "--nh", "30", "--nv", "2000"]) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0] == "algorithm,multiplies_per_iteration"
    counts = dict(line.split(",") for line in captured[1:])
    assert counts["owo-molf"] == "4571780"
    assert counts["lm"] == "342657100"


@pytest.mark.parametrize(
    "change",
    [
        ("--ng", "0"),
        ("--ng", str(max(cost.amolf_group_counts(4)) + 1)),
        ("--n", "0"),
        ("--m", "0"),
        ("--nh", "0"),
        ("--nv", "0"),
        ("--nh", "-3"),
    ],
)
def test_count_mults_rejects_impossible_configurations(change, capsys):
    args = {"--n": "4", "--m": "4", "--nh": "30", "--nv": "2000", "--ng": "2"}
    args[change[0]] = change[1]
    argv = ["count-mults"] + [tok for pair in args.items() for tok in pair]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "verb, verb_flags",
    [("train", {"trials": "n_trials"}), ("kfold", {"k": "k_folds", "patience": "patience"})],
)
def test_absent_run_flags_take_the_config_defaults(verb, verb_flags):
    argv = [verb, "--synthetic", "matinv", "--nh", "3", "--algo", "amolf", "--out", "x.csv"]
    args = build_parser().parse_args(argv)
    for flag, field in {"seed": "seed", "activation": "activation", **verb_flags}.items():
        assert getattr(args, flag) == getattr(ExperimentConfig, field), flag
    assert args.search_period is None
    assert _config(args).search_period == ExperimentConfig.search_period


def test_missing_file_is_one_line_error(tmp_path):
    result = run_cli(
        ["train", "--data", str(tmp_path / "absent.tra"), "--n", "4", "--m", "4",
         "--nh", "3", "--algo", "cg", "--iters", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert result.returncode == 1
    assert result.stderr.strip().startswith("error:")
    assert len(result.stderr.strip().splitlines()) == 1


def test_negative_search_period_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["train", "--synthetic", "matinv", "--patterns", "40", "--nh", "3",
            "--algo", "amolf", "--iters", "1", "--search-period", "-1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "search_period" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "kfold"])
@pytest.mark.parametrize("algo", ["lm", "owo-molf"])
def test_search_period_is_for_amolf_only(tmp_path, capsys, verb, algo):
    # Only amolf searches for its group count; other trainers used to accept
    # the flag and ignore it.
    out = tmp_path / "x.csv"
    folds = ["--k", "3"] if verb == "kfold" else []
    argv = [verb, "--synthetic", "matinv", "--patterns", "40", "--nh", "2",
            "--algo", algo, "--iters", "2", *folds, "--search-period", "7",
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --search-period is for --algo amolf\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-data", "--patterns", "20", "--seed", "-1"],
        ["train", "--synthetic", "matinv", "--patterns", "40", "--nh", "2",
         "--algo", "owo-bp", "--iters", "1", "--seed", "-1"],
        ["train", "--data", "DATA", "--n", "1", "--m", "1", "--nh", "2",
         "--algo", "owo-bp", "--iters", "1", "--seed", "-3"],
        ["kfold", "--data", "DATA", "--n", "1", "--m", "1", "--nh", "2",
         "--algo", "owo-bp", "--iters", "1", "--k", "3", "--seed", "-3"],
    ],
    ids=["gen-data", "train-synthetic", "train-data", "kfold-data"],
)
def test_negative_seed_is_one_line_error(tmp_path, capsys, argv):
    data = tmp_path / "d.tra"
    data.write_text("".join(f"{p} {2 * p}\n" for p in range(12)))
    out = tmp_path / "x.out"
    argv = [str(data) if arg == "DATA" else arg for arg in argv] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "seed" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


def test_non_finite_data_value_names_its_line(tmp_path, capsys):
    data = tmp_path / "f.tra"
    data.write_text("1 2 3\nnan 1 2\n")
    out = tmp_path / "o.csv"
    argv = ["train", "--data", str(data), "--n", "2", "--m", "1", "--nh", "2",
            "--algo", "lm", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {data}: line 2: 'nan' is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "kfold"])
def test_non_positive_data_dimensions_are_one_line_error(tmp_path, capsys, verb):
    data = tmp_path / "d.tra"
    data.write_text("".join(f"{p} {2 * p}\n" for p in range(12)))
    out = tmp_path / "x.csv"
    argv = [verb, "--data", str(data), "--n", "-1", "--m", "3", "--nh", "2",
            "--algo", "owo-bp", "--iters", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "kfold"])
@pytest.mark.parametrize("dims", [["--n", "7", "--m", "9"], ["--m", "4"]], ids=["n-m", "m"])
def test_synthetic_rejects_data_dimensions(tmp_path, capsys, verb, dims):
    out = tmp_path / "x.csv"
    folds = ["--k", "3"] if verb == "kfold" else []
    argv = [verb, "--synthetic", "matinv", *dims, "--patterns", "40", "--nh", "2",
            "--algo", "owo-bp", "--iters", "1", *folds, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--n and --m" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("verb", ["train", "kfold"])
def test_data_rejects_a_pattern_count(tmp_path, capsys, verb):
    data = tmp_path / "d.tra"
    main(["gen-data", "--patterns", "30", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "x.csv"
    folds = ["--k", "3"] if verb == "kfold" else []
    argv = [verb, "--data", str(data), "--n", "4", "--m", "4", "--patterns", "5",
            "--nh", "2", "--algo", "owo-bp", "--iters", "1", *folds, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --patterns is for --synthetic\n"
    assert not out.exists()


def test_data_requires_dimensions(tmp_path):
    data = tmp_path / "d.tra"
    data.write_text("1 2 3 4 5 6 7 8\n")
    result = run_cli(
        ["train", "--data", str(data), "--nh", "3", "--algo", "cg", "--iters", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert result.returncode == 1
    assert "--n and --m" in result.stderr


def test_save_model_round_trips(tmp_path):
    out = tmp_path / "curve.csv"
    model = tmp_path / "model.txt"
    code = main(
        [
            "train",
            "--synthetic",
            "matinv",
            "--patterns",
            "60",
            "--nh",
            "3",
            "--algo",
            "owo-molf",
            "--iters",
            "2",
            "--trials",
            "1",
            "--out",
            str(out),
            "--save-model",
            str(model),
        ]
    )
    assert code == 0
    mlp = load_mlp(str(model))
    assert mlp.n_hidden == 3
    assert mlp.n_inputs == 4


def test_save_model_is_trial_zero_without_retraining(tmp_path, monkeypatch):
    calls = []
    step = amolf.trainers.amolf_step

    def counting_step(state, trace):
        calls.append(1)
        return step(state, trace)

    # Counted below every caller of iterate, wherever it was imported.
    monkeypatch.setitem(amolf.trainers._STEPS, "amolf", counting_step)
    model = tmp_path / "model.txt"
    argv = [
        "train", "--synthetic", "matinv", "--patterns", "60", "--nh", "3",
        "--algo", "amolf", "--iters", "4", "--trials", "2", "--seed", "3",
        "--search-period", "2", "--out", str(tmp_path / "curve.csv"),
        "--save-model", str(model),
    ]
    assert main(argv) == 0
    assert len(calls) == 2 * 4

    data = normalize_zero_mean(gen_matrix_inversion(60, 3))
    state = init_state(
        "amolf", init_net_control(data, 3, trial_seed(3, 0)), data, search_period=2
    )
    for _ in range(4):
        state = iterate(state)
    saved = load_mlp(str(model))
    assert np.array_equal(saved.w, state.mlp.w)
    assert np.array_equal(saved.woh, state.mlp.woh)
    assert np.array_equal(saved.woi, state.mlp.woi)
