"""Command-line interface.

Subcommands cover the full experiment loop: generate synthetic data,
train a single model, sweep configuration grids with resume, aggregate
ROC curves, compare groups statistically, and inspect the loss geometry
and the hyperparameter sampling distribution.

Conventions:

* Exit codes: 0 success, 1 failure (bad config, bad data, IO problems),
  2 command-line usage errors.
* All outputs are written atomically; an interrupted command never
  leaves a truncated file behind.
* Every path is read and written as given.  main checks every --out
  before the command does any work (--if-exists {error,skip,overwrite};
  skip skips the whole command).  A sweep resumes per run instead: the
  library's run_sweep writes its rows, labels and manifest summary.json.
* JSON configs are parsed by vslct.config, which validates them
  strictly before any data loads: unknown keys are errors, so a typo
  cannot silently fall back to a default, and every bad value names its
  key path.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from vslct._util import atomic_write_bytes, write_json
from vslct.analysis import aggregate_roc, load_rows, run_sweep, summary_path, sweep_report, sweep_summary, train_run
from vslct.config import grid_runs, load_json, summary_rows_from_json, train_config_from_json, train_spec_from_json
from vslct.data import load_csv, save_csv, subsample_minority, synth_gaussian
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams, break_even_line, break_even_softmax_score, loss_difference_grid
from vslct.metrics import roc_curve
from vslct.network import save_checkpoint
from vslct.training import evaluate

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Output handling
# ---------------------------------------------------------------------------


def _should_write(path: str, if_exists: str) -> bool:
    """False means: skip quietly (the file is already there)."""
    if os.path.exists(path):
        if if_exists == "error":
            raise ValueError(f"{path} already exists; pass --if-exists overwrite to replace it or skip to keep it")
        if if_exists == "skip":
            print(f"skipping {path}: already exists")
            return False
    return True


def _write_table(path: str, header: str, rows) -> None:
    """CSV of float cells as repr(float(v)), which also prints a numpy scalar as a plain number."""
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    rng = np.random.default_rng(args.seed)
    data = synth_gaussian(n0=args.n0, n1=args.n1, dim=args.dim, separation=args.sep, rng=rng)
    if args.beta is not None:
        data = subsample_minority(data, beta=args.beta, rng=rng)
    counts = data.counts  # raises before anything is written if n1 > n0
    save_csv(data, args.out)
    print(f"wrote {args.out}: {counts.n0} majority + {counts.n1} minority samples, dim {data.dim}")
    return 0


def cmd_train(args) -> int:
    spec = train_spec_from_json(load_json(args.config))
    run = spec.run
    # both data sets load before training, so a bad --test-data fails before --out is written
    train_data = load_csv(args.data)
    test_data = load_csv(args.test_data) if args.test_data else None
    result = train_run(run, train_data, spec.train, **spec.model_kwargs)
    save_checkpoint(args.out, result.model, meta={"mode": run.kind, "final_loss": result.epoch_losses[-1]})
    print(f"trained {run.kind} model for {spec.train.epochs} epochs; final epoch loss {result.epoch_losses[-1]:.6f}")
    if test_data is not None:
        scored = evaluate(result.model, test_data, run.eval_cond)
        print(f"test AUC at conditioning {list(run.eval_cond)}: {roc_curve(scored).auc:.6f}")
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    config = load_json(args.config)
    runs = grid_runs(config)
    train_config = train_config_from_json(config.get("train", {}), "config.train")
    train_data, test_data = load_csv(args.train_data), load_csv(args.test_data)
    started = time.monotonic()

    def progress(i, total, row):
        print(f"[{i + 1}/{total}] {row.run_id}: auc={row.auc:.6f}")

    rows = run_sweep(runs, train_data, test_data, train_config, out_dir=args.out_dir, progress=progress)
    print(f"swept {len(rows)} runs in {time.monotonic() - started:.1f}s")
    for kind, stats in sweep_summary(runs, rows)["stats"].items():
        print(f"  {kind}: mean auc {stats['mean']:.6f}, std {stats['std']:.6f} over {stats['n']} runs")
    print(f"manifest: {summary_path(args.out_dir)}")
    return 0


def cmd_roc(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    summary = summary_path(args.rows_dir)
    run_ids = [row["run_id"] for row in summary_rows_from_json(load_json(summary), summary)]
    rows = [row for row in load_rows(args.rows_dir, run_ids) if args.select in ("all", row.kind)]
    if not rows:
        raise ValueError(f"{args.rows_dir}: no sweep rows matching --select {args.select}")
    grid = np.linspace(0.0, 1.0, args.points)
    agg = aggregate_roc([row.labeled_scores for row in rows], grid)
    _write_table(args.out, "fpr,mean_tpr,std_tpr", zip(agg.fpr_grid, agg.mean_tpr, agg.std_tpr))
    print(f"aggregated {agg.n} curves onto {args.points} grid points; wrote {args.out}")
    return 0


def cmd_analyze(args) -> int:
    report = sweep_report(summary_rows_from_json(load_json(args.summary), str(args.summary)))
    write_json(args.out, report)
    for kind, stats in report["groups"].items():
        print(f"{kind}: n={stats['n']} mean={stats['mean']:.6f} std={stats['std']:.6f}")
    if report["paired_by_seed"]:
        p = report["paired_by_seed"]
        t = p["t_statistic"] if p["t_statistic"] is not None else np.copysign(np.inf, p["lct_minus_baseline_mean"])
        print(f"paired by seed: lct - baseline = {p['lct_minus_baseline_mean']:+.6f} (t={t:.3f}, p={p['p_value']:.4f})")
    if report["baseline_surface_fit"] and "r2" in report["baseline_surface_fit"]:
        print(f"baseline auc surface fit over {report['baseline_surface_fit']['features']}: R^2 = {report['baseline_surface_fit']['r2']:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_loss_geometry(args) -> int:
    hyper = VsHyperParams(omega=args.omega, gamma=args.gamma, tau=args.tau)
    line = break_even_line(hyper, args.beta)  # raises for beta < 1 before anything is written
    grid = loss_difference_grid(hyper, beta=args.beta, lo=args.lo, hi=args.hi, steps=args.steps)
    cells = ((z0, z1, grid.diff[i, j]) for i, z0 in enumerate(grid.z0_values) for j, z1 in enumerate(grid.z1_values))
    _write_table(args.out, "z0,z1,diff", cells)
    print(f"break-even line: z1 = {line.slope!r} * z0 + {line.intercept!r} (offset alpha = {line.alpha_omega!r})")
    if args.omega == 0.5 and args.gamma == 0.0:
        print(f"break-even softmax score: {break_even_softmax_score(args.beta, args.tau)!r}")
    print(f"wrote {args.out}")
    return 0


def cmd_dist_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    # a NaN bound would never be exceeded
    if args.max_ks is not None and not args.max_ks >= 0.0:
        raise ValueError(f"--max-ks must be a number >= 0, got {args.max_ks}")
    dist = make_linear(args.a, args.b, args.h_b)
    rng = np.random.default_rng(args.seed)
    started = time.monotonic()
    sample = dist.sample(args.samples, rng)
    elapsed = time.monotonic() - started
    x = np.sort(sample)
    n = x.size
    cdf = dist.cdf(x)
    ks = max(float(np.max(np.arange(1, n + 1) / n - cdf)), float(np.max(cdf - np.arange(0, n) / n)))
    print(f"drew {n} samples in {elapsed:.3f}s; KS distance to exact CDF = {ks:.6f}")
    if args.out:
        write_json(args.out, {"a": args.a, "b": args.b, "h_b": args.h_b, "samples": n, "seed": args.seed, "ks": ks, "seconds": elapsed})
        print(f"wrote {args.out}")
    if args.max_ks is not None and ks > args.max_ks:
        print(f"KS {ks:.6f} exceeds --max-ks {args.max_ks}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vslct",
        description="Loss-conditional training over the vector-scaling loss family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_if_exists(p):
        p.add_argument("--if-exists", choices=("error", "skip", "overwrite"), default="error", help="what to do when the output already exists (default: error)")

    p = sub.add_parser("gen-data", help="generate a synthetic two-Gaussian dataset CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n0", type=int, required=True, help="majority class size")
    p.add_argument("--n1", type=int, required=True, help="minority class size (before any subsampling)")
    p.add_argument("--dim", type=int, default=10, help="feature dimension (default 10)")
    p.add_argument("--sep", type=float, default=2.5, help="distance between class means (default 2.5)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--beta", type=float, default=None, help="optionally subsample the minority down to this imbalance ratio")
    add_if_exists(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model from a JSON config")
    p.add_argument("--config", required=True, help="JSON config: mode, hyper/lct, train, model")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--test-data", default=None, help="optional CSV to report a test AUC")
    p.add_argument("--out", required=True, help="output checkpoint path (a record: one JSON line, then the parameter bytes)")
    add_if_exists(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train a grid of baseline/LCT runs with resume")
    p.add_argument("--config", required=True, help="JSON config: train, seeds, eval_lambda, baseline_grid, lct_grid")
    p.add_argument("--train-data", required=True, help="training CSV")
    p.add_argument("--test-data", required=True, help="evaluation CSV")
    p.add_argument("--out-dir", required=True, help="directory where the sweep writes its per-run rows, their test labels and its manifest summary.json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roc", help="aggregate ROC envelopes across sweep rows")
    p.add_argument("--rows-dir", required=True, help="sweep output directory; the rows its summary.json lists are aggregated")
    p.add_argument("--select", choices=("all", "baseline", "lct"), default="all", help="which rows to include (default all)")
    p.add_argument("--points", type=int, default=101, help="FPR grid resolution (default 101)")
    p.add_argument("--out", required=True, help="output CSV path")
    add_if_exists(p)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("analyze", help="group statistics, paired test, and AUC surface fit from a sweep summary")
    p.add_argument("--summary", required=True, help="summary.json produced by sweep")
    p.add_argument("--out", required=True, help="output JSON path")
    add_if_exists(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("loss-geometry", help="tabulate the per-label loss difference over a logit grid")
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--beta", type=float, required=True, help="imbalance ratio")
    p.add_argument("--lo", type=float, default=-5.0, help="grid lower bound (default -5)")
    p.add_argument("--hi", type=float, default=5.0, help="grid upper bound (default 5)")
    p.add_argument("--steps", type=int, default=101, help="grid resolution per axis (default 101)")
    p.add_argument("--out", required=True, help="output CSV path")
    add_if_exists(p)
    p.set_defaults(func=cmd_loss_geometry)

    p = sub.add_parser("dist-check", help="sample a linear distribution and report its KS distance")
    p.add_argument("--a", type=float, required=True, help="interval lower end")
    p.add_argument("--b", type=float, required=True, help="interval upper end")
    p.add_argument("--h-b", type=float, required=True, dest="h_b", help="density at the upper end")
    p.add_argument("--samples", type=int, default=1_000_000, help="number of draws (default 1e6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-ks", type=float, default=None, help="exit 1 if the KS distance exceeds this")
    p.add_argument("--out", default=None, help="optional JSON report path")
    add_if_exists(p)
    p.set_defaults(func=cmd_dist_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process; `parse_args` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the one output gate: every --out is checked before its command runs
        if getattr(args, "out", None) and not _should_write(args.out, args.if_exists):
            return 0
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
