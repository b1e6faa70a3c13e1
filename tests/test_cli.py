"""End-to-end checks for the command-line entry point.

Every test drives main(argv) directly and asserts on exit codes and on
the files left behind, exactly the way a shell user would observe the
tool.
"""

import json
import os

import numpy as np
import pytest

from vslct.analysis import SweepRun, load_rows, run_sweep, sweep_report
from vslct.cli import main
from vslct.config import grid_runs, load_json, summary_rows_from_json, sweep_summary, train_config_from_json
from vslct.data import load_csv
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams
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

    def test_out_root_env_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VSLCT_OUT_ROOT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code = run_cli("gen-data", "--out", os.path.join("nested", "d.csv"), "--n0", 10, "--n1", 5, "--seed", 0)
        assert code == 0
        assert (tmp_path / "nested" / "d.csv").exists()

    def test_out_root_env_leaves_absolute_paths_alone(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VSLCT_OUT_ROOT", str(tmp_path / "elsewhere"))
        path = tmp_path / "d.csv"
        assert run_cli("gen-data", "--out", path, "--n0", 10, "--n1", 5, "--seed", 0) == 0
        assert path.exists()
        assert not (tmp_path / "elsewhere").exists()


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
        runs, params = grid_runs(config)
        train_config = train_config_from_json(config["train"], "config.train")
        expected = run_sweep(runs, load_csv(sweep_dir["train"]), load_csv(sweep_dir["test"]), train_config)
        with open(os.path.join(sweep_dir["out_dir"], "summary.json")) as fh:
            assert fh.read() == json.dumps(sweep_summary(expected, params), indent=2) + "\n"
        stored = {row.run_id: row for row in load_rows(sweep_dir["out_dir"])}
        assert sorted(stored) == sorted(row.run_id for row in expected)
        for row in expected:
            got = stored[row.run_id]
            assert (got.kind, got.seed) == (row.kind, row.seed)
            assert got.auc.hex() == row.auc.hex()
            assert got.scores.tobytes() == row.scores.tobytes()
            assert got.labels.tobytes() == row.labels.tobytes()

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
        ("sweep", {"seeds": [0], "train": {"epochs": "2"}, "baseline_grid": {}}, "config.train.epochs"),
        ("sweep", {"seeds": [0], "baseline_grid": {"omega": [None]}}, "config.baseline_grid.omega"),
        ("sweep", {"seeds": [0], "lct_grid": {"lambda_range": [0, 3, 4]}}, "config.lct_grid.lambda_range"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "lct", "seed": 0, "params": {}}]}, "rows[0]: missing keys ['auc']"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "lct", "seed": [0], "auc": 0.5, "params": {}}]}, "rows[0].seed: expected an integer"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "baseline", "seed": 0, "auc": 0.5, "params": []}]}, "rows[0].params: expected a JSON object"),
        ("analyze", {"rows": [{"run_id": "r", "kind": ["lct"], "seed": 0, "auc": 0.5, "params": {}}]}, "rows[0].kind: expected a string"),
        ("analyze", {"rows": [{"run_id": "r", "kind": "baseline", "seed": 0, "auc": 0.5, "params": {"omega": 0.5}}]}, "rows[0].params.gamma: expected a number"),
        ("sweep", {"seeds": [0], "train": {"lr": float("nan")}, "baseline_grid": {}}, "config.train.lr: expected a number, got nan"),
        (
            "sweep",
            {"seeds": [0], "train": {"momentum": 0.5}, "baseline_grid": {}},
            "config.train: unknown keys ['momentum']; allowed keys are ['batch_size', 'epochs', 'lr', 'seed']",
        ),
        ("sweep", {"seeds": [0], "eval_lambda": 7.0, "lct_grid": {}}, "eval_cond tau = 7.0 lies outside its training support [0.0, 3.0]"),
        ("sweep", {"seeds": [0], "baseline_grid": {"omega": [0.5, 0.5]}}, "repeated: ['base-w0.5-g0.0-t0.0-s0']"),
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

    def test_empty_selection_exits_1(self, tmp_path, capsys):
        os.makedirs(tmp_path / "rows")
        code = run_cli("roc", "--rows-dir", tmp_path / "rows", "--out", tmp_path / "roc.csv")
        assert code == 1
        assert "no sweep rows" in capsys.readouterr().err


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

    def test_beta_below_one_exits_1_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("loss-geometry", "--beta", 0.5, "--out", out) == 1
        assert "beta must be >= 1" in capsys.readouterr().err
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
