"""The three benchmark workloads.

All are closed loops with one client: the next op starts when the previous
one ends.  Each workload has a setup, a fixed cycle of ops that the
measuring loop repeats, per-op output checks that run outside the timed
part, and final checks over everything the run produced.  The library
only ever receives inputs generated here from the workload seed.

* sweep-directional: one op trains and scores one run of the directional
  grid through `analysis.run_sweep`; the training step dominates.
* lambda-scan: one op scores a saved conditioned model at one lambda on
  10^5 test rows; forward at a large batch plus ROC work, no training.
* sweep-resume-report: one op resumes a finished 72-run sweep and reports
  on it through the CLI; the read path, no training.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
from vslct import analysis, cli, data, metrics, network, training
from vslct.analysis import SweepRun
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams

# -- the directional protocol (configs/directional.json) --------------------

TRAIN_DATA = {"n0": 2000, "n1": 20, "dim": 2, "sep": 2.5}
TEST_DATA = {"n0": 500, "n1": 500, "dim": 2, "sep": 2.5}
BATCH_SIZE = 128
LR = 0.1
EVAL_LAMBDA = 3.0
LAMBDA_RANGE = (0.0, 3.0)
BASELINE_GRID = {"omega": [0.5, 0.9], "gamma": [0.0, 0.2], "tau": [0.0, 1.0, 3.0]}
LCT_GRID = {"h_b": [0.0, 0.15, 0.33, 0.66], "omega": [0.5, 0.9, 0.99], "gamma": 0.0, "conditioned": "tau"}

# A later claim is checked on this seed, which no tuning of the benchmark used.
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Seeds:
    train: int
    test: int
    runs: tuple[int, int, int]
    scan_test: int
    subsample: int


def derive_seeds(seed: int) -> Seeds:
    """Every dataset, run and subsample seed of a workload seed.

    Seed 0 gives the seeds of configs/directional.json: datasets 101/202,
    runs 0, 1, 2.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = 1000 * seed
    return Seeds(
        train=101 + base,
        test=202 + base,
        runs=(3 * seed, 3 * seed + 1, 3 * seed + 2),
        scan_test=303 + base,
        subsample=404 + base,
    )


def sweep_config(seeds: Seeds, epochs: int) -> dict:
    """The `sweep` block of configs/directional.json for these seeds and epochs."""
    return {
        "train": {"epochs": epochs, "batch_size": BATCH_SIZE, "lr": LR, "seed": seeds.runs[0]},
        "seeds": list(seeds.runs),
        "eval_lambda": EVAL_LAMBDA,
        "baseline_grid": BASELINE_GRID,
        "lct_grid": {**LCT_GRID, "lambda_range": list(LAMBDA_RANGE)},
    }


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones are for self-tests."""

    # The directional protocol trains for 150 epochs; lambda-scan's model does.
    epochs: int = 150
    # A sweep-directional op trains a tenth of that, so that a run times ~100
    # ops and their low percentiles find the host's fast periods (README.md).
    sweep_epochs: int = 15
    resume_epochs: int = 3
    scan_rows: int = 100_000
    n_lambdas: int = 13
    fpr_points: int = 101
    subsample: int = 1000
    setup_reps: int = 5


FULL = Sizes()


def synth(block: dict, seed: int):
    rng = np.random.default_rng(seed)
    return data.synth_gaussian(n0=block["n0"], n1=block["n1"], dim=block["dim"], separation=block["sep"], rng=rng)


def steps_per_run(epochs: int) -> int:
    return epochs * math.ceil((TRAIN_DATA["n0"] + TRAIN_DATA["n1"]) / BATCH_SIZE)


def baseline_run(omega: float, gamma: float, tau: float, seed: int) -> SweepRun:
    hyper = VsHyperParams(omega=omega, gamma=gamma, tau=tau)
    return SweepRun(run_id=f"base-w{omega}-g{gamma}-t{tau}-s{seed}", kind="baseline", seed=seed, eval_cond=(0.0,), hyper=hyper)


def lct_run(h_b: float, omega: float, seed: int) -> SweepRun:
    lct = training.LctConfig(
        base=VsHyperParams(omega=omega, gamma=LCT_GRID["gamma"], tau=0.0),
        conditioned={LCT_GRID["conditioned"]: make_linear(*LAMBDA_RANGE, h_b)},
    )
    return SweepRun(run_id=f"lct-hb{h_b}-w{omega}-s{seed}", kind="lct", seed=seed, eval_cond=(EVAL_LAMBDA,), lct=lct)


def directional_slice(seeds: Seeds) -> list[SweepRun]:
    """Three baseline/LCT pairs of the 72-run grid, one per run seed."""
    s0, s1, s2 = seeds.runs
    return [
        baseline_run(0.5, 0.0, 0.0, s0),
        lct_run(0.0, 0.5, s0),
        baseline_run(0.9, 0.2, 1.0, s1),
        lct_run(0.33, 0.9, s1),
        baseline_run(0.5, 0.2, 3.0, s2),
        lct_run(0.66, 0.99, s2),
    ]


def reference_auc(name: str, seed: int) -> float | None:
    """auc_mean recorded for this workload and seed at full size (record_aucs.py), or None."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_aucs.json"), "r", encoding="utf-8") as fh:
        value = json.load(fh)[name].get(str(seed))
    return None if value is None else float.fromhex(value)


class Workload:
    name = ""
    # Ops come in groups of this size; the loop stops only between groups.
    granularity = 1
    # The reference loop (reference.LOOPS) whose slowdowns track this workload's.
    reference = "step"

    def setup(self, work_dir: str, seeds: Seeds, sizes: Sizes) -> list[str]:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def run_op(self, op):
        """Run one op; returns (latency_s, wall_s, output)."""
        raise NotImplementedError

    def check_op(self, op, out) -> list[str]:
        raise NotImplementedError

    def hooks(self) -> dict:
        """Span name -> after(args, kwargs, result) callbacks the runs install (spans.Recorder)."""
        return {}

    def kind(self, op) -> str:
        """Ops of one kind do the same work; op_cost_ref averages over the kinds."""
        return ""

    def finish(self) -> list[str]:
        return []

    def auc_mean(self) -> float:
        raise NotImplementedError

    def expected_calls(self, traced_ops: int) -> dict:
        """Span call counts of a traced run with one traced setup and `traced_ops` traced ops."""
        raise NotImplementedError


class SweepDirectional(Workload):
    """run_sweep over a balanced slice of the directional grid, one short run per op."""

    name = "sweep-directional"
    granularity = 2

    def setup(self, work_dir, seeds, sizes):
        self.work_dir = work_dir
        self.seeds, self.sizes = seeds, sizes
        self.train = synth(TRAIN_DATA, seeds.train)
        self.test = synth(TEST_DATA, seeds.test)
        self.config = training.TrainConfig(epochs=sizes.sweep_epochs, batch_size=BATCH_SIZE, lr=LR)
        self.first: dict[str, object] = {}
        self.executions = 0
        return []

    def ops(self):
        return directional_slice(self.seeds)

    def run_op(self, run):
        out_dir = os.path.join(self.work_dir, "rows", str(self.executions))
        self.executions += 1
        done: list[float] = []
        started = time.perf_counter()
        rows = analysis.run_sweep([run], self.train, self.test, self.config, out_dir=out_dir, progress=lambda *_: done.append(time.perf_counter()))
        wall = time.perf_counter() - started
        return done[0] - started, wall, rows[0]

    def check_op(self, run, row):
        errors = checks.row_auc(run.run_id, row.auc, row.labeled_scores)
        if run.run_id in self.first:
            errors += checks.same_row(self.first[run.run_id], row)
        else:
            self.first[run.run_id] = row
        return errors

    def finish(self):
        missing = [r.run_id for r in self.ops() if r.run_id not in self.first]
        return [f"slice runs never completed: {missing}"] if missing else []

    def kind(self, run):
        return run.kind

    def auc_mean(self):
        return float(np.mean([row.auc for row in self.first.values()]))

    def expected_calls(self, traced_ops):
        # ops alternate baseline and LCT runs and cover whole cycles
        steps = steps_per_run(self.sizes.sweep_epochs)
        return {
            "analysis.run_sweep": traced_ops,
            "training.train_baseline": traced_ops // 2,
            "training.train_lct": traced_ops // 2,
            "network.sgd_step": traced_ops * steps,
            "lindist.sample": traced_ops // 2 * steps,
        }


class LambdaScan(Workload):
    """One saved conditioned model scored at 13 lambdas on 10^5 rows."""

    name = "lambda-scan"
    reference = "matmul"

    def setup(self, work_dir, seeds, sizes):
        os.makedirs(work_dir, exist_ok=True)
        self.sizes = sizes
        train = synth(TRAIN_DATA, seeds.train)
        lct = lct_run(0.0, 0.5, seeds.runs[0]).lct
        config = training.TrainConfig(epochs=sizes.epochs, batch_size=BATCH_SIZE, lr=LR, seed=seeds.runs[0])
        trained = training.train_lct(train, lct, config).model
        path = os.path.join(work_dir, "model.json")
        network.save_checkpoint(path, trained)
        self.model, _ = network.load_checkpoint(path)
        half = sizes.scan_rows // 2
        self.test = synth({**TEST_DATA, "n0": half, "n1": half}, seeds.scan_test)
        rng = np.random.default_rng(seeds.subsample)
        per_class = sizes.subsample // 2
        self.subsample = np.concatenate(
            [rng.choice(np.flatnonzero(self.test.y == c), size=per_class, replace=False) for c in (0, 1)]
        )
        self.fpr_grid = np.linspace(0.0, 1.0, sizes.fpr_points)
        self.results: dict[float, tuple[float, float]] = {}
        return checks.checkpoint_round_trip(trained, self.model)

    def ops(self):
        return [float(v) for v in np.linspace(*LAMBDA_RANGE, self.sizes.n_lambdas)]

    def run_op(self, lam):
        started = time.perf_counter()
        scored = training.evaluate(self.model, self.test, np.full(1, lam))
        curve = metrics.roc_curve(scored)
        conf = metrics.confusion_at_threshold(scored, 0.5)
        envelope = metrics.roc_at_fpr_grid(curve, self.fpr_grid)
        wall = time.perf_counter() - started
        return wall, wall, (scored, curve, conf, envelope)

    def check_op(self, lam, out):
        scored, curve, conf, envelope = out
        if lam in self.results:
            if self.results[lam] != (curve.auc, conf.tpr):
                return [f"lambda {lam}: AUC or TPR differs on repetition"]
            return []
        self.results[lam] = (curve.auc, conf.tpr)
        sub = metrics.LabeledScores(scores=scored.scores[self.subsample], labels=scored.labels[self.subsample])
        errors = checks.row_auc(f"lambda {lam} subsample", metrics.roc_curve(sub).auc, sub)
        errors += checks.confusion_matches_roc(scored, curve, conf, 0.5)
        errors += checks.roc_envelope(envelope)
        return errors

    def finish(self):
        missing = [lam for lam in self.ops() if lam not in self.results]
        if missing:
            return [f"lambdas never scored: {missing}"]
        lams = sorted(self.results)
        return checks.lambda_scan(lams, [self.results[v][0] for v in lams], [self.results[v][1] for v in lams])

    def auc_mean(self):
        return float(np.mean([auc for auc, _ in self.results.values()]))

    def expected_calls(self, traced_ops):
        steps = steps_per_run(self.sizes.epochs)
        return {
            "training.train_lct": 1,
            "network.sgd_step": steps,
            "lindist.sample": steps,
            "training.evaluate": traced_ops,
            "metrics.roc_curve": traced_ops,
        }


class SweepResumeReport(Workload):
    """`vslct sweep` (pure resume), `vslct roc` and `vslct analyze` on a finished sweep."""

    name = "sweep-resume-report"

    def setup(self, work_dir, seeds, sizes):
        self.sizes = sizes
        os.makedirs(work_dir, exist_ok=True)
        self.paths = {name: os.path.join(work_dir, name) for name in ("train.csv", "test.csv", "sweep.json", "rows", "roc.csv", "report.json")}
        data.save_csv(synth(TRAIN_DATA, seeds.train), self.paths["train.csv"])
        data.save_csv(synth(TEST_DATA, seeds.test), self.paths["test.csv"])
        with open(self.paths["sweep.json"], "w", encoding="utf-8") as fh:
            json.dump(sweep_config(seeds, sizes.resume_epochs), fh)
        self.returned, self.trainings = [], 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._sweep_argv())
        self.rows = self.returned[0] if self.returned else []
        self.expected_means = {kind: analysis.auc_stats([r for r in self.rows if r.kind == kind]).mean for kind in ("baseline", "lct")}
        return checks.exit_codes({"sweep": code})

    def hooks(self):
        """Collect what `run_sweep` returns to the CLI and count training calls."""
        return {"analysis.run_sweep": self._returned, "training.train_baseline": self._trained, "training.train_lct": self._trained}

    def _returned(self, _args, _kwargs, rows):
        self.returned.append(rows)

    def _trained(self, _args, _kwargs, _result):
        self.trainings += 1

    def _sweep_argv(self):
        p = self.paths
        return ["sweep", "--config", p["sweep.json"], "--train-data", p["train.csv"], "--test-data", p["test.csv"], "--out-dir", p["rows"]]

    def ops(self):
        return ["resume-report"]

    def run_op(self, op):
        p = self.paths
        self.returned, self.trainings = [], 0
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            codes = {
                "sweep": cli.main(self._sweep_argv()),
                "roc": cli.main(["roc", "--rows-dir", p["rows"], "--out", p["roc.csv"], "--if-exists", "overwrite"]),
                "analyze": cli.main(["analyze", "--summary", os.path.join(p["rows"], "summary.json"), "--out", p["report.json"], "--if-exists", "overwrite"]),
            }
            wall = time.perf_counter() - started
        return wall, wall, (codes, self.returned[0] if self.returned else [], self.trainings)

    def check_op(self, op, out):
        codes, rows, trainings = out
        errors = checks.exit_codes(codes) + checks.no_training(trainings) + checks.same_rows(self.rows, rows)
        if codes["analyze"] == 0:
            with open(self.paths["report.json"], "r", encoding="utf-8") as fh:
                errors += checks.group_means(json.load(fh), self.expected_means)
        return errors

    def auc_mean(self):
        return float(np.mean([row.auc for row in self.rows]))

    def expected_calls(self, traced_ops):
        runs = len(self.rows)
        steps = steps_per_run(self.sizes.resume_epochs)
        return {
            "cli.sweep": traced_ops + 1,
            "cli.roc": traced_ops,
            "cli.analyze": traced_ops,
            "training.train_baseline": runs // 2,
            "training.train_lct": runs // 2,
            "network.sgd_step": runs * steps,
            "lindist.sample": runs // 2 * steps,
        }


WORKLOADS = {w.name: w for w in (SweepDirectional, LambdaScan, SweepResumeReport)}
