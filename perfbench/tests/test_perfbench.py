"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bench
import checks
import spans
import workloads
from vslct import analysis, metrics, network, training
from vslct.metrics import LabeledScores

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = workloads.Sizes(epochs=10, sweep_epochs=5, resume_epochs=1, scan_rows=20000, n_lambdas=4, fpr_points=11, subsample=200, setup_reps=1)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- span arithmetic ----------------------------------------------------------


def synthetic_recorder():
    """run_sweep [0, 10] > train_lct [1, 4] and evaluate [5, 9] > forward.eval [6, 7]."""
    rec = spans.Recorder()
    rec.name = ["analysis.run_sweep", "training.train_lct", "training.evaluate", "network.forward.eval", "metrics.roc_curve"]
    rec.start = [0.0, 1.0, 5.0, 6.0, 20.0]
    rec.end = [10.0, 4.0, 9.0, 7.0, 22.5]
    rec.parent = [-1, 0, 0, 2, -1]
    rec.op = [0, 0, 0, 0, 1]
    return rec


def test_self_times_subtract_direct_children_only():
    rec = synthetic_recorder()
    assert rec.self_times().tolist() == [3.0, 3.0, 3.0, 1.0, 2.5]
    assert rec.self_time_by_op() == {0: 10.0, 1: 2.5}
    assert rec.has_ancestor(3, "analysis.run_sweep") and not rec.has_ancestor(0, "analysis.run_sweep")


def test_span_metrics_report_every_listed_span():
    out = synthetic_recorder().span_metrics()
    assert out["training.evaluate.calls"] == 1
    assert out["training.evaluate.self_s"] == 3.0
    assert out["training.evaluate.p50_us"] == 4.0e6
    assert out["cli.roc.calls"] == 0 and out["cli.roc.self_s"] == 0.0 and out["cli.roc.p50_us"] == 0.0
    assert set(out) == {f"{s}.{suffix}" for s in spans.SPAN_NAMES for suffix, _ in spans.SPAN_STATS}


def test_installed_wraps_callers_names_and_restores_originals():
    seeds = workloads.derive_seeds(0)
    train = workloads.synth(workloads.TRAIN_DATA, seeds.train)
    originals = {
        "training.sgd_step": training.sgd_step,
        "analysis.train_lct": analysis.train_lct,
        "forward": network.MlpFilmModel.__dict__["forward"],
        "init": network.MlpFilmModel.__dict__["init"],
    }
    rec = spans.Recorder()
    lct = workloads.lct_run(0.0, 0.5, 0).lct
    with rec.installed("op"):
        assert training.sgd_step is not originals["training.sgd_step"]
        model = training.train_lct(train, lct, training.TrainConfig(epochs=1)).model
        training.evaluate(model, train, np.zeros(1))
    assert training.sgd_step is originals["training.sgd_step"]
    assert analysis.train_lct is originals["analysis.train_lct"]
    assert network.MlpFilmModel.__dict__["forward"] is originals["forward"]
    assert network.MlpFilmModel.__dict__["init"] is originals["init"]
    counts = rec.span_metrics()
    assert counts["network.sgd_step.calls"] == 16
    assert counts["lindist.sample.calls"] == 16
    assert counts["network.forward.step.calls"] == 16
    assert counts["network.forward.eval.calls"] == 1
    assert counts["network.init.calls"] == 1
    assert set(rec.op) == {"op"}


def test_untraced_recorder_runs_hooks_without_spans():
    seeds = workloads.derive_seeds(0)
    train = workloads.synth(workloads.TRAIN_DATA, seeds.train)
    original = analysis.train_lct
    seen = []
    rec = spans.Recorder(trace=False, hooks={"training.train_lct": lambda args, kwargs, out: seen.append(out)})
    lct = workloads.lct_run(0.0, 0.5, 0).lct
    with rec.installed("op"):
        assert training.sgd_step is network.sgd_step  # only hooked names are wrapped
        result = analysis.train_lct(train, lct, training.TrainConfig(epochs=1))
    assert analysis.train_lct is original
    assert seen == [result] and rec.name == []


def test_op_cost_is_mean_over_kinds_of_median_ratio():
    samples = [("baseline", 0.3, 0.1), ("lct", 0.5, 0.1), ("baseline", 0.2, 0.1), ("lct", 0.8, 0.2), ("baseline", 0.9, 0.1)]
    # baseline ratios 3, 2, 9 -> median 3; lct ratios 5, 4 -> median 4.5
    assert bench.cost_in_loops(samples) == pytest.approx(3.75)
    assert bench.cost_in_loops([]) == 0.0


# -- names --------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = load_benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64


def test_reference_aucs_cover_every_workload():
    for name in workloads.WORKLOADS:
        assert 0.5 < workloads.reference_auc(name, 0) < 1.0
        assert 0.5 < workloads.reference_auc(name, 49) < 1.0
        assert workloads.reference_auc(name, 50) is None


def test_default_seed_reproduces_directional_config():
    with open(os.path.join(ROOT, "configs", "directional.json"), "r", encoding="utf-8") as fh:
        config = json.load(fh)
    seeds = workloads.derive_seeds(0)
    assert workloads.sweep_config(seeds, workloads.FULL.epochs) == config["sweep"]
    assert {**workloads.TRAIN_DATA, "seed": seeds.train} == config["train_data"]
    assert {**workloads.TEST_DATA, "seed": seeds.test} == config["test_data"]
    assert workloads.derive_seeds(workloads.HELD_OUT_SEED) != seeds


# -- checks fed a wrong answer ------------------------------------------------


@pytest.fixture(scope="module")
def scored():
    rng = np.random.default_rng(5)
    labels = np.repeat([0, 1], 50)
    return LabeledScores(scores=rng.random(100) * 0.5 + 0.3 * labels, labels=labels)


def test_row_auc_check(scored):
    auc = metrics.roc_curve(scored).auc
    assert checks.row_auc("r", auc, scored) == []
    assert checks.row_auc("r", auc + 1e-9, scored)


def test_reference_auc_check():
    assert checks.reference_auc("r", 0.95, 0.951) == []
    assert checks.reference_auc("r", 0.95, 0.95 + 2 * checks.REFERENCE_AUC_TOL)


def test_same_row_checks(scored):
    row = analysis.SweepRow("r", "lct", 0, 0.9, scored.scores, scored.labels)
    assert checks.same_row(row, row) == [] and checks.same_rows([row], [row]) == []
    assert checks.same_row(row, replace(row, auc=0.91))
    assert checks.same_row(row, replace(row, scores=scored.scores + 1e-16))
    assert checks.same_rows([row], [])


def test_checkpoint_round_trip_check():
    model = network.MlpFilmModel.init(network.ModelConfig(input_dim=2), np.random.default_rng(0))
    assert checks.checkpoint_round_trip(model, model.copy()) == []
    other = model.copy()
    other.params["head_b"][0] = 1e-300
    assert checks.checkpoint_round_trip(model, other)


def test_confusion_matches_roc_check(scored):
    curve = metrics.roc_curve(scored)
    conf = metrics.confusion_at_threshold(scored, 0.5)
    assert checks.confusion_matches_roc(scored, curve, conf, 0.5) == []
    assert checks.confusion_matches_roc(scored, curve, metrics.confusion_at_threshold(scored, 0.6), 0.5)


def test_envelope_and_lambda_scan_checks():
    assert checks.roc_envelope(np.array([0.0, 0.5, 1.0])) == []
    assert checks.roc_envelope(np.array([0.0, 0.6, 0.5, 1.0]))
    assert checks.roc_envelope(np.array([0.0, 0.5, 0.9]))
    assert checks.lambda_scan([0.0, 1.0], [0.9, 0.905], [0.2, 0.3]) == []
    assert checks.lambda_scan([0.0, 1.0], [0.9, 0.92], [0.2, 0.3])
    assert checks.lambda_scan([0.0, 1.0], [0.9, 0.9], [0.3, 0.2])


def test_resume_checks():
    assert checks.no_training(0) == [] and checks.no_training(1)
    assert checks.exit_codes({"roc": 0}) == [] and checks.exit_codes({"roc": 1})
    report = {"groups": {"lct": {"mean": 0.9}}}
    assert checks.group_means(report, {"lct": 0.9}) == []
    assert checks.group_means(report, {"lct": 0.9 + 1e-16})
    assert checks.expected_counts({"a": 3}, {"a": 3}) == [] and checks.expected_counts({"a": 3}, {"a": 4})
    assert checks.coverage(0, 1.0, 0.9995, 1e-3) == [] and checks.coverage(0, 1.0, 0.99, 1e-3)


# -- smoke runs at tiny sizes -------------------------------------------------


def smoke(capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)], sizes=TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_untraced(capsys, workload):
    result = smoke(capsys, workload, 0)
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(capsys, workload):
    first, second = smoke(capsys, workload, 1), smoke(capsys, workload, 1)
    assert list(first["metrics"]) == [name for name, _ in spans.per_layer_metric_names()]
    exact = [n for n in first["metrics"] if n.endswith((".calls", "clip_frac", "reuse_frac"))]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    reuse = first["metrics"]["analysis.run_sweep.reuse_frac"]["value"]
    assert reuse == {"sweep-directional": 0.0, "lambda-scan": 0.0, "sweep-resume-report": 1.0}[workload]


# -- refusals -----------------------------------------------------------------


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lambda-scan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout


def test_refuses_when_numpy_loaded_first():
    code = "import numpy, runpy, sys; sys.argv = ['run.py', '--workload', 'lambda-scan']; runpy.run_path('perfbench/run.py', run_name='__main__')"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and "refusing" in proc.stderr
