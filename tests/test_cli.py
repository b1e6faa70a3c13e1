"""End-to-end checks for the command-line entry point.

Every test drives main(argv) directly and asserts on exit codes and on
the files left behind, exactly the way a shell user would observe the
tool.
"""

import argparse
import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from records import record
from vslct import cli
from vslct.analysis import SweepRun, load_rows, run_sweep, sweep_report, sweep_summary
from vslct.cli import build_parser, main
from vslct.config import grid_runs, load_json, summary_rows_from_json, train_config_from_json
from vslct.data import load_csv
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams, loss_difference_grid
from vslct.metrics import roc_curve
from vslct.network import load_checkpoint
from vslct.training import LctConfig, TrainConfig, evaluate


def run_cli(*argv):
    return main([str(a) for a in argv])


def gen_csv(path, n0, n1, seed, dim=4, sep=2.0):
    code = run_cli("gen-data", "--out", path, "--n0", n0, "--n1", n1, "--dim", dim, "--sep", sep, "--seed", seed)
    assert code == 0
    return str(path)


class TestGenData:
    """Dataset generation and the shared output-handling options."""

    def test_writes_loadable_csv(self, tmp_path):
        path = gen_csv(tmp_path / "d.csv", n0=30, n1=10, seed=3)
        data = load_csv(path)
        assert data.counts.n0 == 30
        assert data.counts.n1 == 10
        assert data.dim == 4

    def test_optional_subsampling(self, tmp_path):
        path = tmp_path / "d.csv"
        code = run_cli("gen-data", "--out", path, "--n0", 200, "--n1", 100, "--seed", 0, "--beta", 10)
        assert code == 0
        assert load_csv(path).counts.n1 == 20

    def test_existing_output_is_an_error_by_default(self, tmp_path, capsys):
        path = gen_csv(tmp_path / "d.csv", n0=10, n1=5, seed=0)
        code = run_cli("gen-data", "--out", path, "--n0", 10, "--n1", 5, "--seed", 0)
        assert code == 1
        assert "already exists" in capsys.readouterr().err

    def test_if_exists_skip_leaves_file_untouched(self, tmp_path):
        path = gen_csv(tmp_path / "d.csv", n0=10, n1=5, seed=0)
        before = os.stat(path).st_mtime_ns
        code = run_cli("gen-data", "--out", path, "--n0", 99, "--n1", 99, "--seed", 1, "--if-exists", "skip")
        assert code == 0
        assert os.stat(path).st_mtime_ns == before

    def test_minority_larger_than_majority_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        code = run_cli("gen-data", "--out", path, "--n0", 10, "--n1", 20, "--seed", 0)
        assert code == 1
        assert "need n0 >= n1" in capsys.readouterr().err
        assert not path.exists()

    def test_if_exists_overwrite_replaces(self, tmp_path):
        path = gen_csv(tmp_path / "d.csv", n0=10, n1=5, seed=0)
        code = run_cli("gen-data", "--out", path, "--n0", 12, "--n1", 6, "--seed", 1, "--if-exists", "overwrite")
        assert code == 0
        assert load_csv(path).counts.n0 == 12


class TestTrain:
    """Single-run training from JSON configs."""

    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def baseline_config(self, tmp_path):
        return self.write_config(
            tmp_path,
            {
                "mode": "baseline",
                "hyper": {"omega": 0.5, "gamma": 0.0, "tau": 1.0},
                "train": {"epochs": 2, "batch_size": 32, "seed": 0},
                "model": {"trunk_widths": [8, 8], "film_hidden": 8},
            },
        )

    def test_baseline_checkpoint_roundtrips(self, tmp_path, capsys):
        data = gen_csv(tmp_path / "train.csv", n0=60, n1=20, seed=0)
        out = tmp_path / "model.json"
        code = run_cli("train", "--config", self.baseline_config(tmp_path), "--data", data, "--out", out)
        assert code == 0
        model, meta = load_checkpoint(out)
        assert model.config.input_dim == 4
        assert meta["mode"] == "baseline"
        assert "final epoch loss" in capsys.readouterr().out

    def test_lct_mode_with_test_auc(self, tmp_path, capsys):
        data = gen_csv(tmp_path / "train.csv", n0=60, n1=20, seed=0)
        test = gen_csv(tmp_path / "test.csv", n0=40, n1=40, seed=1)
        config = self.write_config(
            tmp_path,
            {
                "mode": "lct",
                "lct": {
                    "base": {"omega": 0.5, "gamma": 0.0, "tau": 0.0},
                    "conditioned": {"tau": {"a": 0.0, "b": 3.0, "h_b": 0.0}},
                },
                "train": {"epochs": 2, "batch_size": 32, "seed": 0},
                "model": {"trunk_widths": [8, 8], "film_hidden": 8},
                "eval_lambda": 1.5,
            },
        )
        out = tmp_path / "model.json"
        code = run_cli("train", "--config", config, "--data", data, "--test-data", test, "--out", out)
        assert code == 0
        model, meta = load_checkpoint(out)
        assert model.config.cond_dim == 1
        assert meta["mode"] == "lct"
        assert "test AUC" in capsys.readouterr().out

    def test_point_mass_conditioned_value_accepted(self, tmp_path):
        data = gen_csv(tmp_path / "train.csv", n0=60, n1=20, seed=0)
        config = self.write_config(
            tmp_path,
            {
                "mode": "lct",
                "lct": {
                    "base": {"omega": 0.5, "gamma": 0.0, "tau": 0.0},
                    "conditioned": {"tau": 2.0},
                },
                "train": {"epochs": 2, "batch_size": 32, "seed": 0},
                "model": {"trunk_widths": [8, 8], "film_hidden": 8},
            },
        )
        assert run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "m.json") == 0

    def test_eval_lambda_outside_the_support_exits_1(self, tmp_path, capsys):
        data = gen_csv(tmp_path / "train.csv", n0=60, n1=20, seed=0)
        config = self.write_config(
            tmp_path,
            {
                "mode": "lct",
                "lct": {
                    "base": {"omega": 0.5, "gamma": 0.0, "tau": 0.0},
                    "conditioned": {"omega": {"a": 0.0, "b": 1.0, "h_b": 1.0}, "tau": {"a": 0.0, "b": 3.0, "h_b": 0.0}},
                },
                "train": {"epochs": 2, "batch_size": 32, "seed": 0},
                "eval_lambda": 3.0,
            },
        )
        out = tmp_path / "m.json"
        assert run_cli("train", "--config", config, "--data", data, "--out", out) == 1
        assert "eval_cond omega = 3.0 lies outside its training support [0.0, 1.0]" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = gen_csv(tmp_path / "train.csv", n0=30, n1=10, seed=0)
        config = self.write_config(
            tmp_path,
            {
                "mode": "baseline",
                "hyper": {"omega": 0.5, "gamma": 0.0, "tau": 0.0},
                "train": {"epochs": 2, "learning_rate": 0.1},
            },
        )
        code = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "m.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown keys" in err
        assert "learning_rate" in err

    @pytest.mark.parametrize("section", ["lct", "eval_lambda"])
    def test_baseline_mode_rejects_lct_section(self, tmp_path, capsys, section):
        data = gen_csv(tmp_path / "train.csv", n0=30, n1=10, seed=0)
        config = self.write_config(
            tmp_path,
            {
                "mode": "baseline",
                "hyper": {"omega": 0.5, "gamma": 0.0, "tau": 0.0},
                section: {"lct": {"base": {}, "conditioned": {"tau": 1.0}}, "eval_lambda": "three"}[section],
                "train": {"epochs": 2},
            },
        )
        code = run_cli("train", "--config", config, "--data", data, "--out", tmp_path / "m.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "config: baseline mode does not take" in err and f"'{section}'" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("mode", ["baseline", "lct"])
    def test_train_matches_a_one_run_sweep(self, tmp_path, capsys, mode):
        data = gen_csv(tmp_path / "train.csv", n0=60, n1=20, seed=0)
        test = gen_csv(tmp_path / "test.csv", n0=40, n1=40, seed=1)
        train = {"epochs": 2, "batch_size": 32, "seed": 5}
        if mode == "baseline":
            config = {"mode": mode, "hyper": {"omega": 0.9, "gamma": 0.2, "tau": 1.0}, "train": train}
            run = SweepRun(run_id="b", kind=mode, seed=5, eval_cond=(0.0,), hyper=VsHyperParams(omega=0.9, gamma=0.2, tau=1.0))
        else:
            config = {"mode": mode, "lct": {"base": {"omega": 0.9}, "conditioned": {"tau": {"a": 0.0, "b": 3.0, "h_b": 0.15}}}, "train": train, "eval_lambda": 1.5}
            lct = LctConfig(base=VsHyperParams(omega=0.9), conditioned={"tau": make_linear(0.0, 3.0, 0.15)})
            run = SweepRun(run_id="l", kind=mode, seed=5, eval_cond=(1.5,), lct=lct)
        out = tmp_path / "model.json"
        assert run_cli("train", "--config", self.write_config(tmp_path, config), "--data", data, "--test-data", test, "--out", out) == 0
        # the sweep's train block has another seed: the run's own seed must win
        (row,) = run_sweep([run], load_csv(data), load_csv(test), TrainConfig(epochs=2, batch_size=32, seed=0))
        scored = evaluate(load_checkpoint(out)[0], load_csv(test), run.eval_cond)
        assert scored.scores.tobytes() == row.scores.tobytes()
        assert roc_curve(scored).auc.hex() == row.auc.hex()
        assert f"test AUC at conditioning {list(run.eval_cond)}: {row.auc:.6f}" in capsys.readouterr().out

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        code = run_cli("train", "--config", self.baseline_config(tmp_path), "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.json")
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"mode": "baseline", "train": {"epochs": 0}}, "config.train: epochs must be an integer >= 1, got 0"),
            ({"mode": "baseline", "hyper": {"omega": 1.5}}, "config.hyper: omega must be in [0, 1], got 1.5"),
            ({"mode": "lct", "lct": {"base": {"omega": 1.5}, "conditioned": {"tau": 1.0}}}, "config.lct.base: omega must be in [0, 1], got 1.5"),
            ({"mode": "lct", "lct": {"conditioned": {"foo": 1.0}}}, "config.lct.conditioned: unknown hyperparameters: ['foo']"),
            ({"mode": "lct", "lct": {"conditioned": {"tau": {"a": 0, "b": 3, "h_b": "x"}}}}, "config.lct.conditioned.tau: h_b must be a real number, got 'x'"),
            ({"mode": "baseline", "model": {"trunk_widths": [64]}}, "config.model: trunk_widths must be two sizes >= 1, got (64,)"),
            ({"mode": "baseline", "model": {"film_hidden": 0}}, "config.model: film_hidden must be an integer >= 1, got 0"),
            (
                {"mode": "lct", "lct": {"conditioned": {"tau": {"a": 0, "b": 3, "h_b": 0}}}, "eval_lambda": 5.0},
                "config.eval_lambda: lct: eval_cond tau = 5.0 lies outside its training support [0.0, 3.0]",
            ),
        ],
        ids=["train.epochs", "hyper.omega", "lct.base.omega", "lct.conditioned", "lct.conditioned.tau.h_b", "model.trunk_widths", "model.film_hidden", "eval_lambda"],
    )
    def test_bad_value_exits_1_naming_its_key_before_any_data_loads(self, tmp_path, capsys, config, named):
        # the data files are missing, so an error naming them would mean they were read first
        out = tmp_path / "sub" / "m.json"
        argv = ["--config", self.write_config(tmp_path, config), "--data", tmp_path / "nope.csv", "--test-data", tmp_path / "nope-test.csv"]
        assert run_cli("train", *argv, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("test_data", ["missing", "directory"])
    def test_unreadable_test_data_exits_1_before_training(self, tmp_path, capsys, test_data):
        data = gen_csv(tmp_path / "train.csv", n0=60, n1=20, seed=0)
        test = tmp_path / "test.csv"
        if test_data == "directory":
            test.mkdir()
        out = tmp_path / "sub" / "m.json"
        assert run_cli("train", "--config", self.baseline_config(tmp_path), "--data", data, "--test-data", test, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(test) in captured.err
        assert "trained" not in captured.out
        assert not (tmp_path / "sub").exists()

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        data = gen_csv(tmp_path / "train.csv", n0=30, n1=10, seed=0)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("train", "--config", bad, "--data", data, "--out", tmp_path / "m.json")
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One tiny sweep shared by the sweep/roc/analyze tests."""
    root = tmp_path_factory.mktemp("sweep")
    train = gen_csv(root / "train.csv", n0=120, n1=40, seed=0)
    test = gen_csv(root / "test.csv", n0=60, n1=60, seed=1)
    config = root / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "train": {"epochs": 2, "batch_size": 32, "lr": 0.05, "seed": 0},
                "seeds": [0, 1],
                "eval_lambda": 1.5,
                "baseline_grid": {"omega": [0.5], "gamma": [0.0], "tau": [0.0]},
                "lct_grid": {
                    "h_b": [0.0],
                    "omega": [0.5],
                    "gamma": 0.0,
                    "conditioned": "tau",
                    "lambda_range": [0.0, 3.0],
                },
            }
        )
    )
    out_dir = root / "runs"
    code = run_cli("sweep", "--config", config, "--train-data", train, "--test-data", test, "--out-dir", out_dir)
    assert code == 0
    return {"root": root, "train": train, "test": test, "config": str(config), "out_dir": str(out_dir)}


class TestSweep:
    """Grid expansion, per-run persistence, and the summary file."""

    def test_summary_covers_every_run(self, sweep_dir):
        with open(os.path.join(sweep_dir["out_dir"], "summary.json")) as fh:
            summary = json.load(fh)
        assert len(summary["rows"]) == 4
        ids = {row["run_id"] for row in summary["rows"]}
        assert ids == {"base-w0.5-g0.0-t0.0-s0", "base-w0.5-g0.0-t0.0-s1", "lct-hb0.0-w0.5-s0", "lct-hb0.0-w0.5-s1"}
        for row in summary["rows"]:
            assert 0.0 <= row["auc"] <= 1.0
            assert isinstance(row["auc"], float)
        assert summary["stats"]["baseline"]["n"] == 2
        assert summary["stats"]["lct"]["n"] == 2

    def test_rerun_resumes_from_row_files(self, sweep_dir):
        row_file = os.path.join(sweep_dir["out_dir"], "base-w0.5-g0.0-t0.0-s0.json")
        before = os.stat(row_file).st_mtime_ns
        code = run_cli(
            "sweep",
            "--config", sweep_dir["config"],
            "--train-data", sweep_dir["train"],
            "--test-data", sweep_dir["test"],
            "--out-dir", sweep_dir["out_dir"],
        )
        assert code == 0
        assert os.stat(row_file).st_mtime_ns == before

    def test_stored_rows_equal_the_library_sweep(self, sweep_dir):
        config = load_json(sweep_dir["config"])
        runs = grid_runs(config)
        train_config = train_config_from_json(config["train"], "config.train")
        expected = run_sweep(runs, load_csv(sweep_dir["train"]), load_csv(sweep_dir["test"]), train_config)
        with open(os.path.join(sweep_dir["out_dir"], "summary.json")) as fh:
            text = fh.read()
        assert text == json.dumps(sweep_summary(runs, expected), indent=2) + "\n"
        stored = load_rows(sweep_dir["out_dir"], [row["run_id"] for row in json.loads(text)["rows"]])
        assert [row.run_id for row in stored] == [row.run_id for row in expected]
        for row, got in zip(expected, stored):
            assert (got.kind, got.seed) == (row.kind, row.seed)
            assert got.auc.hex() == row.auc.hex()
            assert got.scores.tobytes() == row.scores.tobytes()
            assert got.labels.tobytes() == row.labels.tobytes()

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"train": {"epochs": 3, "batch_size": 32, "lr": 0.05, "seed": 0}}, "train.epochs: stored 2, requested 3"),
            ({"lct_grid": {"h_b": [0.0], "omega": [0.5], "gamma": 0.0, "conditioned": "tau", "lambda_range": [0.0, 2.0]}}, "run.conditioned.tau.b: stored 3.0, requested 2.0"),
            ({}, "data.train: stored"),
        ],
    )
    def test_resume_with_a_changed_definition_exits_1_naming_the_field(self, sweep_dir, tmp_path, capsys, change, named):
        out_dir = tmp_path / "runs"
        shutil.copytree(sweep_dir["out_dir"], out_dir)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**load_json(sweep_dir["config"]), **change}))
        train = sweep_dir["train"] if change else gen_csv(tmp_path / "other.csv", n0=120, n1=40, seed=5)
        code = run_cli("sweep", "--config", config, "--train-data", train, "--test-data", sweep_dir["test"], "--out-dir", out_dir)
        err = capsys.readouterr().err
        assert code == 1
        assert "stale or corrupt sweep row" in err and named in err and "delete it to recompute" in err

    def test_summary_params_are_the_row_fingerprint_run(self, sweep_dir):
        with open(os.path.join(sweep_dir["out_dir"], "summary.json")) as fh:
            summary_rows = json.load(fh)["rows"]
        assert len(summary_rows) == 4
        for row in summary_rows:
            assert row["params"] == record(os.path.join(sweep_dir["out_dir"], f"{row['run_id']}.json"))["fingerprint"]["run"]

    def test_unchanged_summary_is_left_as_it_is(self, sweep_dir, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        shutil.copytree(sweep_dir["out_dir"], out_dir)
        path = out_dir / "summary.json"
        before = (path.read_bytes(), os.stat(path).st_mtime_ns, os.stat(path).st_ino)
        capsys.readouterr()
        code = run_cli("sweep", "--config", sweep_dir["config"], "--train-data", sweep_dir["train"], "--test-data", sweep_dir["test"], "--out-dir", out_dir)
        assert code == 0
        assert (path.read_bytes(), os.stat(path).st_mtime_ns, os.stat(path).st_ino) == before
        assert capsys.readouterr().out.splitlines()[-1] == f"manifest: {path}"

    @pytest.mark.parametrize("damage", ["auc edited", "truncated", "not json", "missing", "fewer seeds"])
    def test_stale_or_damaged_summary_is_rewritten(self, sweep_dir, tmp_path, capsys, damage):
        out_dir = tmp_path / "runs"
        shutil.copytree(sweep_dir["out_dir"], out_dir)
        path = out_dir / "summary.json"
        text = path.read_text()
        config = load_json(sweep_dir["config"])
        if damage == "auc edited":
            summary = json.loads(text)
            summary["rows"][0]["auc"] = 0.5
            path.write_text(json.dumps(summary, indent=2) + "\n")
        elif damage == "truncated":
            path.write_text(text[: len(text) // 2])
        elif damage == "not json":
            path.write_text("not json\n")
        elif damage == "missing":
            path.unlink()
        else:
            config["seeds"] = [0]
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        code = run_cli("sweep", "--config", config_path, "--train-data", sweep_dir["train"], "--test-data", sweep_dir["test"], "--out-dir", out_dir)
        assert code == 0
        runs = grid_runs(config)
        rows = run_sweep(runs, load_csv(sweep_dir["train"]), load_csv(sweep_dir["test"]), train_config_from_json(config["train"], "config.train"), out_dir=str(out_dir))
        assert path.read_text() == json.dumps(sweep_summary(runs, rows), indent=2) + "\n"
        assert (path.read_text() == text) == (damage != "fewer seeds")
        assert capsys.readouterr().out.splitlines()[-1] == f"manifest: {path}"

    def test_config_without_any_grid_exits_1(self, sweep_dir, tmp_path, capsys):
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({"train": {"epochs": 2}, "seeds": [0]}))
        code = run_cli(
            "sweep",
            "--config", config,
            "--train-data", sweep_dir["train"],
            "--test-data", sweep_dir["test"],
            "--out-dir", tmp_path / "runs",
        )
        assert code == 1
        assert "any runs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, named",
    [
        ("sweep", {"seeds": [0], "baseline_grid": {"omega": 0.5}}, "config.baseline_grid.omega"),
        ("sweep", {"seeds": [0], "train": {"epochs": "2"}, "baseline_grid": {}}, "config.train: epochs must be an integer >= 1, got '2'"),
        ("sweep", {"seeds": [0], "baseline_grid": {"omega": [None]}}, "config.baseline_grid: omega must be a real number, got None"),
        ("sweep", {"seeds": [0], "lct_grid": {"lambda_range": [0, 3, 4]}}, "config.lct_grid.lambda_range"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "lct", "seed": 0, "params": {}}]}, "rows[0]: missing keys ['auc']"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "lct", "seed": [0], "auc": 0.5, "params": {}}]}, "rows[0].seed: expected an integer"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "baseline", "seed": 0, "auc": 0.5, "params": []}]}, "rows[0].params: expected a JSON object"),
        ("analyze", {"rows": [{"run_id": "r", "kind": ["lct"], "seed": 0, "auc": 0.5, "params": {}}]}, "rows[0].kind: expected a string"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "baseline", "seed": 0, "auc": 0.5, "params": {"omega": 0.5}}]}, "rows[0].params.gamma: expected a number"),
        ("sweep", {"seeds": [0], "train": {"lr": float("nan")}, "baseline_grid": {}}, "config.train: lr must be a finite number > 0, got nan"),
        (
            "sweep",
            {"seeds": [0], "train": {"momentum": 0.5}, "baseline_grid": {}},
            "config.train: unknown keys ['momentum']; allowed keys are ['batch_size', 'epochs', 'lr', 'seed']",
        ),
        ("sweep", {"seeds": [0], "eval_lambda": 7.0, "lct_grid": {}}, "eval_cond tau = 7.0 lies outside its training support [0.0, 3.0]"),
        ("sweep", {"seeds": [0], "baseline_grid": {"omega": [0.5, 0.5]}}, "repeated: ['base-w0.5-g0.0-t0.0-s0']"),
        (
            "sweep",
            {"seeds": [0], "lct_grid": {"conditioned": "omega", "omega": [0.5, 0.9], "lambda_range": [0, 1]}},
            "config.lct_grid.omega: has no effect when conditioned is 'omega'",
        ),
        (
            "sweep",
            {"seeds": [0], "lct_grid": {"conditioned": "gamma", "gamma": 0.2, "lambda_range": [0, 1]}},
            "config.lct_grid.gamma: has no effect when conditioned is 'gamma'",
        ),
        # grid values out of range; the first comes from the lambda_range default
        ("sweep", {"seeds": [0], "lct_grid": {"conditioned": "omega"}}, "error: config.lct_grid.lambda_range [0.0, 3.0] (the default): omega must be in [0, 1], got 3.0\n"),
        (
            "sweep",
            {"seeds": [0], "lct_grid": {"h_b": [1.0], "lambda_range": [0, 3]}},
            "error: config.lct_grid.lambda_range [0.0, 3.0]: h_b must lie in [0, 0.6666666666666666] for [0.0, 3.0], got 1.0\n",
        ),
        ("sweep", {"seeds": [0], "lct_grid": {"lambda_range": [3, 0]}}, "error: config.lct_grid.lambda_range [3.0, 0.0]: need a < b, got [3.0, 0.0]\n"),
        ("sweep", {"seeds": [0], "baseline_grid": {"omega": [0.5, 1.5]}}, "error: config.baseline_grid: omega must be in [0, 1], got 1.5\n"),
        # a non-number is wrong whatever the range, so its error names h_b
        ("sweep", {"seeds": [0], "lct_grid": {"h_b": [0.0, "x"]}}, "error: config.lct_grid.h_b: h_b must be a real number, got 'x'\n"),
    ],
)
def test_malformed_input_exits_1_naming_the_key(sweep_dir, tmp_path, capsys, command, payload, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "sweep":
        argv = ["--config", path, "--train-data", sweep_dir["train"], "--test-data", sweep_dir["test"], "--out-dir", tmp_path / "runs"]
    else:
        argv = ["--summary", path, "--out", tmp_path / "report.json"]
    code = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert named in err


@pytest.fixture
def umask_027():
    """The process umask set to 027 for one test; a file written under it has mode 0640."""
    previous = os.umask(0o027)
    yield 0o640
    os.umask(previous)


def file_modes(directory) -> dict[str, int]:
    """The permission bits of each file under directory, by its path relative to directory."""
    return {
        os.path.relpath(os.path.join(root, name), directory): os.stat(os.path.join(root, name)).st_mode & 0o777
        for root, _, names in os.walk(directory)
        for name in names
    }


@pytest.fixture(scope="module")
def library_dir(sweep_dir):
    """The runs of sweep_dir's config swept through run_sweep alone, into a directory of their own."""
    config = load_json(sweep_dir["config"])
    out_dir = sweep_dir["root"] / "library-runs"
    run_sweep(grid_runs(config), load_csv(sweep_dir["train"]), load_csv(sweep_dir["test"]), train_config_from_json(config["train"], "config.train"), out_dir=out_dir)
    return out_dir


class TestLibrarySweepDirectory:
    """A directory that run_sweep wrote without the CLI is a whole sweep directory."""

    def test_summary_is_byte_identical_to_the_cli_sweep(self, sweep_dir, library_dir):
        assert (library_dir / "summary.json").read_bytes() == (pathlib.Path(sweep_dir["out_dir"]) / "summary.json").read_bytes()

    def test_files_take_the_mode_the_umask_allows(self, sweep_dir, tmp_path, umask_027):
        config = load_json(sweep_dir["config"])
        runs = grid_runs(config)[::2]  # one baseline and one lct run
        run_sweep(runs, load_csv(sweep_dir["train"]), load_csv(sweep_dir["test"]), train_config_from_json(config["train"], "config.train"), out_dir=tmp_path / "runs")
        modes = file_modes(tmp_path / "runs")
        assert len(modes) == len(runs) + 2  # the rows, summary.json and labels/<test data digest>.json
        assert set(modes.values()) == {umask_027}

    @pytest.mark.parametrize("command", ["roc", "analyze"])
    def test_roc_and_analyze_read_it_as_they_read_the_cli_sweep(self, sweep_dir, library_dir, tmp_path, command):
        outputs = {}
        for name, rows_dir in (("cli", sweep_dir["out_dir"]), ("library", library_dir)):
            argv = ["--rows-dir", rows_dir] if command == "roc" else ["--summary", os.path.join(rows_dir, "summary.json")]
            outputs[name] = tmp_path / f"{name}.out"
            assert run_cli(command, *argv, "--out", outputs[name]) == 0
        assert outputs["library"].read_bytes() == outputs["cli"].read_bytes()


class TestRoc:
    """ROC aggregation over stored sweep rows."""

    def read_rows(self, path):
        with open(path) as fh:
            header = fh.readline().strip()
            body = np.array([[float(tok) for tok in line.split(",")] for line in fh])
        return header, body

    def test_aggregate_csv_shape(self, sweep_dir, tmp_path):
        out = tmp_path / "roc.csv"
        code = run_cli("roc", "--rows-dir", sweep_dir["out_dir"], "--points", 11, "--out", out)
        assert code == 0
        header, body = self.read_rows(out)
        assert header == "fpr,mean_tpr,std_tpr"
        assert body.shape == (11, 3)
        assert body[0, 0] == 0.0
        assert body[-1, 0] == 1.0
        assert np.all(np.diff(body[:, 1]) >= -1e-12)
        assert np.all(body[:, 2] >= 0.0)

    def test_select_filters_by_kind(self, sweep_dir, tmp_path, capsys):
        out = tmp_path / "roc.csv"
        code = run_cli("roc", "--rows-dir", sweep_dir["out_dir"], "--select", "lct", "--points", 5, "--out", out)
        assert code == 0
        assert "aggregated 2 curves" in capsys.readouterr().out

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_points_exits_1_naming_the_flag(self, sweep_dir, tmp_path, capsys, points):
        out = tmp_path / "roc.csv"
        assert run_cli("roc", "--rows-dir", sweep_dir["out_dir"], "--points", points, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"error: --points must be >= 2, got {points}")
        assert not out.exists()

    def copy_rows(self, sweep_dir, tmp_path, edit_summary=None):
        """A copy of the shared sweep's rows directory, its summary rows passed through edit_summary if given."""
        rows = tmp_path / "runs"
        shutil.copytree(sweep_dir["out_dir"], rows)
        if edit_summary is not None:
            summary = json.loads((rows / "summary.json").read_text())
            summary["rows"] = edit_summary(summary["rows"])
            (rows / "summary.json").write_text(json.dumps(summary))
        return rows

    def test_empty_selection_exits_1(self, sweep_dir, tmp_path, capsys):
        rows = self.copy_rows(sweep_dir, tmp_path, lambda listed: [row for row in listed if row["kind"] == "baseline"])
        code = run_cli("roc", "--rows-dir", rows, "--select", "lct", "--out", tmp_path / "roc.csv")
        assert code == 1
        assert capsys.readouterr().err == f"error: {rows}: no sweep rows matching --select lct\n"

    def test_missing_summary_exits_1_naming_it(self, sweep_dir, tmp_path, capsys):
        rows = self.copy_rows(sweep_dir, tmp_path)
        (rows / "summary.json").unlink()
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "roc.csv") == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{rows / 'summary.json'}'\n"
        assert not (tmp_path / "roc.csv").exists()

    def test_aggregates_the_rows_of_the_latest_sweep_only(self, sweep_dir, tmp_path, capsys):
        rows = self.copy_rows(sweep_dir, tmp_path)
        config = load_json(sweep_dir["config"])
        wider = tmp_path / "wider.json"
        wider.write_text(json.dumps({**config, "baseline_grid": {**config["baseline_grid"], "omega": [0.5, 0.9]}}))
        for path in (wider, sweep_dir["config"]):  # 6 runs, then the 4 of the shared sweep
            assert run_cli("sweep", "--config", path, "--train-data", sweep_dir["train"], "--test-data", sweep_dir["test"], "--out-dir", rows) == 0
        assert (rows / "base-w0.9-g0.0-t0.0-s0.json").exists()
        assert run_cli("analyze", "--summary", rows / "summary.json", "--out", tmp_path / "report.json") == 0
        assert sum(group["n"] for group in json.loads((tmp_path / "report.json").read_text())["groups"].values()) == 4
        capsys.readouterr()
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "roc.csv") == 0
        assert "aggregated 4 curves" in capsys.readouterr().out

    def test_listed_row_that_is_missing_exits_1_naming_it(self, sweep_dir, tmp_path, capsys):
        rows = self.copy_rows(sweep_dir, tmp_path)
        missing = rows / "lct-hb0.0-w0.5-s1.json"
        missing.unlink()
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "roc.csv") == 1
        assert capsys.readouterr().err.startswith(f"error: {missing}: not a sweep row: [Errno 2] No such file or directory")
        assert not (tmp_path / "roc.csv").exists()

    def test_row_stored_under_another_run_id_exits_1_naming_it(self, sweep_dir, tmp_path, capsys):
        rows = self.copy_rows(sweep_dir, tmp_path)
        other = rows / "lct-hb0.0-w0.5-s1.json"
        other.write_bytes((rows / "lct-hb0.0-w0.5-s0.json").read_bytes())
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "roc.csv") == 1
        expected = f"error: {other}: not a sweep row: stored as run_id 'lct-hb0.0-w0.5-s0', listed as 'lct-hb0.0-w0.5-s1'\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        "run_id, message",
        [
            ("lct-hb0.0-w0.5-s0", "run_ids must be unique within a sweep; repeated: ['lct-hb0.0-w0.5-s0']"),
            ("../runs/lct-hb0.0-w0.5-s0", "run_id must be non-empty, filesystem-safe and not start with '.', got '../runs/lct-hb0.0-w0.5-s0'"),
            (".lct-hb0.0-w0.5-s0", "got '.lct-hb0.0-w0.5-s0'"),
        ],
    )
    def test_bad_summary_run_id_exits_1_naming_it(self, sweep_dir, tmp_path, capsys, run_id, message):
        # each listed name would load a stored row: the repeated one, the same file through '..', and a dot-named copy
        rows = self.copy_rows(sweep_dir, tmp_path, lambda listed: listed[:-1] + [{**listed[-1], "run_id": run_id}])
        shutil.copy(rows / "lct-hb0.0-w0.5-s0.json", rows / ".lct-hb0.0-w0.5-s0.json")
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "roc.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "roc.csv").exists()

    def test_unlisted_files_leave_the_output_unchanged(self, sweep_dir, tmp_path, capsys):
        rows = self.copy_rows(sweep_dir, tmp_path)
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "before.csv") == 0
        assert run_cli("analyze", "--summary", rows / "summary.json", "--out", rows / "report.json") == 0
        (rows / "stray.json").write_text(json.dumps({"run_id": 3}))
        (rows / ".tmp-x1y2r0.json").write_text('{"format":4,"run_id":"r0","kind":"lct","seed":0,"auc":"0x1.8p-1","fingerprint":{"run"')
        capsys.readouterr()
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "after.csv") == 0
        assert "aggregated 4 curves" in capsys.readouterr().out
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()

    def test_missing_labels_file_exits_1_naming_it(self, sweep_dir, tmp_path, capsys):
        rows = tmp_path / "runs"
        shutil.copytree(sweep_dir["out_dir"], rows)
        [labels] = (rows / "labels").iterdir()
        labels.unlink()
        assert run_cli("roc", "--rows-dir", rows, "--out", tmp_path / "roc.csv") == 1
        assert capsys.readouterr().err.startswith(f"error: {labels}: missing or corrupt test labels (")
        assert not (tmp_path / "roc.csv").exists()


class TestAnalyze:
    """Statistical report over a sweep summary."""

    def test_report_contents(self, sweep_dir, tmp_path):
        summary = os.path.join(sweep_dir["out_dir"], "summary.json")
        out = tmp_path / "report.json"
        code = run_cli("analyze", "--summary", summary, "--out", out)
        assert code == 0
        with open(out) as fh:
            report = json.load(fh)
        assert report == sweep_report(summary_rows_from_json(load_json(summary), summary))
        assert set(report["groups"]) == {"baseline", "lct"}
        for stats in report["groups"].values():
            assert stats["n"] == 2
            assert stats["min"] <= stats["mean"] <= stats["max"]
        paired = report["paired_by_seed"]
        assert paired["seeds"] == [0, 1]
        assert paired["df"] == 1
        assert 0.0 <= paired["p_value"] <= 1.0
        assert report["baseline_surface_fit"] is None

    def test_constant_paired_shift_writes_standard_json(self, tmp_path, capsys):
        params = {"omega": 0.5, "gamma": 0.0, "tau": 0.0}
        aucs = {("baseline", 0): 0.5, ("baseline", 1): 0.25, ("lct", 0): 0.75, ("lct", 1): 0.5}
        rows = [{"run_id": f"{k}-s{s}", "kind": k, "seed": s, "auc": auc, "params": params} for (k, s), auc in aucs.items()]
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"rows": rows}))
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--summary", summary, "--out", out) == 0
        assert "t=inf, p=0.0000" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        paired = json.loads(out.read_text(), parse_constant=reject)["paired_by_seed"]
        assert paired["t_statistic"] is None
        assert (paired["lct_minus_baseline_mean"], paired["p_value"]) == (0.25, 0.0)

    def test_empty_summary_exits_1(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"rows": []}))
        code = run_cli("analyze", "--summary", summary, "--out", tmp_path / "report.json")
        assert code == 1
        assert "no rows" in capsys.readouterr().err


class TestLossGeometry:
    """Loss-difference grid export and break-even reporting."""

    def test_grid_csv_and_line(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run_cli("loss-geometry", "--beta", 100, "--tau", 1.0, "--steps", 5, "--out", out)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "z0,z1,diff"
        assert len(lines) == 1 + 25
        printed = capsys.readouterr().out
        assert "break-even line" in printed
        assert "break-even softmax score" in printed

    def test_grid_csv_rows_hold_the_exact_grid_values(self, tmp_path):
        out = tmp_path / "grid.csv"
        argv = ["--omega", 0.55, "--gamma", 0.1, "--tau", 0.3, "--beta", 8, "--lo", -1, "--hi", 1, "--steps", 4]
        assert run_cli("loss-geometry", *argv, "--out", out) == 0
        grid = loss_difference_grid(VsHyperParams(omega=0.55, gamma=0.1, tau=0.3), beta=8.0, lo=-1.0, hi=1.0, steps=4)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "z0,z1,diff"
        assert len(lines) == 1 + 16
        rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
        assert rows == [(z0, z1, grid.diff[i, j]) for i, z0 in enumerate(grid.z0_values) for j, z1 in enumerate(grid.z1_values)]

    def test_beta_below_one_exits_1_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("loss-geometry", "--beta", 0.5, "--out", out) == 1
        assert "beta must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--beta", "nan"], "beta must be >= 1 and finite, got nan"),
            (["--beta", "inf"], "beta must be >= 1 and finite, got inf"),
            (["--beta", 10, "--tau", "inf"], "tau must be >= 0 and finite, got inf"),
            (["--beta", 10, "--gamma", "inf"], "gamma must be >= 0 and finite, got inf"),
            (["--beta", 10, "--hi", "inf"], "need finite lo < hi, got [-5.0, inf]"),
        ],
        ids=["beta-nan", "beta-inf", "tau-inf", "gamma-inf", "hi-inf"],
    )
    def test_non_finite_values_exit_1_writing_nothing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "grid.csv"
        assert run_cli("loss-geometry", *argv, "--steps", 3, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_off_center_hypers_skip_softmax_score(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run_cli("loss-geometry", "--beta", 10, "--omega", 0.9, "--steps", 3, "--out", out)
        assert code == 0
        assert "softmax score" not in capsys.readouterr().out


class TestDistCheck:
    """Sampler diagnostics for the linear interval distribution."""

    def test_reports_small_ks(self, capsys):
        code = run_cli("dist-check", "--a", 0, "--b", 3, "--h-b", 0, "--samples", 20000, "--seed", 1)
        assert code == 0
        out = capsys.readouterr().out
        assert "KS distance" in out
        ks = float(out.split("= ")[-1])
        assert ks < 0.02

    def test_max_ks_gate_fails_loudly(self, capsys):
        code = run_cli("dist-check", "--a", 0, "--b", 3, "--h-b", 0, "--samples", 2000, "--seed", 1, "--max-ks", 1e-9)
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("max_ks", ["nan", -0.5])
    def test_unusable_max_ks_refused_before_sampling(self, monkeypatch, tmp_path, capsys, max_ks):
        # a NaN bound is never exceeded, so the gate could not fail
        def no_sampling(*args):
            raise AssertionError("sampled before checking --max-ks")

        monkeypatch.setattr(cli, "make_linear", no_sampling)
        out = tmp_path / "ks.json"
        assert run_cli("dist-check", "--a", 0, "--b", 3, "--h-b", 0, "--max-ks", max_ks, "--out", out) == 1
        assert f"error: --max-ks must be a number >= 0, got {float(max_ks)}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samples_exits_1_naming_the_flag(self, capsys):
        code = run_cli("dist-check", "--a", 0, "--b", 3, "--h-b", 0, "--samples", 0)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--samples" in err

    def test_optional_json_report(self, tmp_path):
        out = tmp_path / "ks.json"
        code = run_cli("dist-check", "--a", 0, "--b", 1, "--h-b", 2, "--samples", 5000, "--out", out)
        assert code == 0
        with open(out) as fh:
            report = json.load(fh)
        assert report["samples"] == 5000
        assert report["ks"] < 0.05


def subcommand_options() -> dict[str, set[str]]:
    """command -> every option string its parser takes, found by walking build_parser()."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for a in p._actions for opt in a.option_strings} for name, p in sub.choices.items()}


@pytest.fixture
def gated_argv(sweep_dir, tmp_path):
    """command -> a working argv without --out; a new command with --out needs an entry here."""
    config = tmp_path / "baseline.json"
    config.write_text(json.dumps({"mode": "baseline", "train": {"epochs": 1, "batch_size": 32}}))
    return {
        "gen-data": ["--n0", 10, "--n1", 5],
        "train": ["--config", config, "--data", sweep_dir["train"]],
        "roc": ["--rows-dir", sweep_dir["out_dir"], "--points", 3],
        "analyze": ["--summary", os.path.join(sweep_dir["out_dir"], "summary.json")],
        "loss-geometry": ["--beta", 10, "--steps", 3],
        "dist-check": ["--a", 0, "--b", 3, "--h-b", 0, "--samples", 1000],
    }


@pytest.fixture
def failing_argv(sweep_dir, tmp_path):
    """command -> an argv without --out on which the command fails after the output gate."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"mode": "other"}))
    return {
        "gen-data": ["--n0", 5, "--n1", 10],
        "train": ["--config", config, "--data", sweep_dir["train"]],
        "roc": ["--rows-dir", sweep_dir["out_dir"], "--points", 1],
        "analyze": ["--summary", tmp_path / "missing.json"],
        "loss-geometry": ["--beta", 0.5, "--steps", 3],
        "dist-check": ["--a", 0, "--b", 3, "--h-b", 0, "--samples", 0],
    }


@pytest.mark.parametrize("command", sorted(name for name, options in subcommand_options().items() if "--out" in options))
class TestOutputGate:
    """main checks every --out before its command does any work."""

    def existing_output(self, tmp_path):
        path = tmp_path / "existing.out"
        path.write_text("sentinel\n")
        return path, os.stat(path).st_mtime_ns

    def test_parser_takes_if_exists(self, command):
        assert "--if-exists" in subcommand_options()[command]

    def test_existing_output_exits_1_before_any_work(self, command, gated_argv, tmp_path, capsys):
        path, mtime = self.existing_output(tmp_path)
        assert run_cli(command, *gated_argv[command], "--out", path) == 1
        captured = capsys.readouterr()
        assert "already exists" in captured.err
        assert captured.out == ""  # dist-check drew no samples: no KS line
        assert path.read_text() == "sentinel\n"
        assert os.stat(path).st_mtime_ns == mtime

    def test_skip_skips_the_whole_command(self, command, gated_argv, tmp_path, capsys):
        path, mtime = self.existing_output(tmp_path)
        assert run_cli(command, *gated_argv[command], "--out", path, "--if-exists", "skip") == 0
        assert capsys.readouterr().out == f"skipping {path}: already exists\n"
        assert path.read_text() == "sentinel\n"
        assert os.stat(path).st_mtime_ns == mtime

    def test_failing_command_leaves_no_output_directory(self, command, failing_argv, tmp_path, capsys):
        assert run_cli(command, *failing_argv[command], "--out", tmp_path / "sub" / "result.out") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "sub").exists()

    def test_output_takes_the_mode_the_umask_allows(self, command, gated_argv, tmp_path, umask_027):
        assert run_cli(command, *gated_argv[command], "--out", tmp_path / "sub" / "result.out") == 0
        assert file_modes(tmp_path / "sub") == {"result.out": umask_027}

    def test_relative_out_is_written_as_given(self, command, gated_argv, tmp_path, monkeypatch):
        os.makedirs(tmp_path / "cwd")
        monkeypatch.chdir(tmp_path / "cwd")
        assert run_cli(command, *gated_argv[command], "--out", os.path.join("nested", "result.out")) == 0
        assert os.listdir(tmp_path / "cwd") == ["nested"]
        assert os.listdir(tmp_path / "cwd" / "nested") == ["result.out"]


class TestUsageErrors:
    """argparse-level failures exit with status 2."""

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--n0", "10", "--n1", "5"])
        assert exc.value.code == 2


class TestParserBuiltOnce:
    """`main` parses every argv with one parser per process."""

    def test_calls_parse_afresh_with_one_parser(self, tmp_path, monkeypatch, capsys):
        built = []

        def counted_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted_build_parser)
        cli._parser.cache_clear()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("gen-data", "--out", first, "--n0", 30, "--n1", 10, "--dim", 3, "--seed", 4, "--if-exists", "overwrite") == 0
        assert run_cli("gen-data", "--out", second, "--n0", 20, "--n1", 10) == 0
        # neither the first call's options nor its --if-exists carry over
        assert run_cli("gen-data", "--out", first, "--n0", 30, "--n1", 10) == 1
        assert "already exists" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["gen-data", "--n0", "10"])
        assert run_cli("dist-check", "--a", 0, "--b", 3, "--h-b", 0, "--samples", 1000, "--seed", 1) == 0
        assert len(built) == 1
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for name, argv in [("a.csv", ["--n0", "30", "--n1", "10", "--dim", "3", "--seed", "4"]), ("b.csv", ["--n0", "20", "--n1", "10"])]:
            args = build_parser().parse_args(["gen-data", "--out", str(fresh / name), *argv])
            assert args.func(args) == 0
            assert (fresh / name).read_bytes() == (tmp_path / name).read_bytes()
        for argv in (["gen-data", "--out", "x", "--n0", "3", "--n1", "1", "--if-exists", "skip"], ["gen-data", "--out", "x", "--n0", "3", "--n1", "1"]):
            assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
