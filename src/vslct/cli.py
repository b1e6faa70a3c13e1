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
* Relative output paths are placed under $VSLCT_OUT_ROOT when that
  variable is set.
* Single-file outputs honor --if-exists {error,skip,overwrite}; sweeps
  instead resume per run from their output directory.
* JSON configs are parsed by vslct.config, which validates them
  strictly: unknown keys are errors, so a typo cannot silently fall back
  to a default, and a value of the wrong type names its key path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from vslct._util import atomic_write_text
from vslct.analysis import aggregate_roc, auc_stats, load_rows, paired_t_test, polyfit_r2, run_sweep, train_run
from vslct.config import grid_runs, load_json, summary_rows_from_json, train_config_from_json, train_spec_from_json
from vslct.data import load_csv, save_csv, subsample_minority, synth_gaussian
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams, break_even_line, break_even_softmax_score, loss_difference_grid
from vslct.metrics import roc_curve
from vslct.network import save_checkpoint
from vslct.training import evaluate

__all__ = ["main"]

OUT_ROOT_ENV = "VSLCT_OUT_ROOT"


# ---------------------------------------------------------------------------
# Output handling
# ---------------------------------------------------------------------------


def _resolve_out(path: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _should_write(path: str, if_exists: str) -> bool:
    """False means: skip quietly (the file is already there)."""
    if os.path.exists(path):
        if if_exists == "error":
            raise ValueError(f"{path} already exists; pass --if-exists overwrite to replace it or skip to keep it")
        if if_exists == "skip":
            print(f"skipping {path}: already exists")
            return False
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return True


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    out = _resolve_out(args.out)
    if not _should_write(out, args.if_exists):
        return 0
    rng = np.random.default_rng(args.seed)
    data = synth_gaussian(n0=args.n0, n1=args.n1, dim=args.dim, separation=args.sep, rng=rng)
    if args.beta is not None:
        data = subsample_minority(data, beta=args.beta, rng=rng)
    counts = data.counts  # raises before anything is written if n1 > n0
    save_csv(data, out)
    print(f"wrote {out}: {counts.n0} majority + {counts.n1} minority samples, dim {data.dim}")
    return 0


def cmd_train(args) -> int:
    out = _resolve_out(args.out)
    if not _should_write(out, args.if_exists):
        return 0
    spec = train_spec_from_json(load_json(args.config))
    run = spec.run
    result = train_run(run, load_csv(args.data), spec.train, **spec.model_kwargs)
    save_checkpoint(out, result.model, meta={"mode": run.kind, "final_loss": result.epoch_losses[-1]})
    print(f"trained {run.kind} model for {spec.train.epochs} epochs; final epoch loss {result.epoch_losses[-1]:.6f}")
    if args.test_data:
        scored = evaluate(result.model, load_csv(args.test_data), run.eval_cond)
        print(f"test AUC at conditioning {list(run.eval_cond)}: {roc_curve(scored).auc:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    config = load_json(args.config)
    runs, params = grid_runs(config)
    train_config = train_config_from_json(config.get("train", {}), "config.train")
    train_data = load_csv(args.train_data)
    test_data = load_csv(args.test_data)
    out_dir = _resolve_out(args.out_dir)
    started = time.monotonic()

    def progress(i, total, row):
        print(f"[{i + 1}/{total}] {row.run_id}: auc={row.auc:.6f}")

    rows = run_sweep(runs, train_data, test_data, train_config, out_dir=out_dir, progress=progress)
    summary = {
        "rows": [
            {"run_id": r.run_id, "kind": r.kind, "seed": r.seed, "auc": r.auc, "params": params[r.run_id]}
            for r in rows
        ],
        "stats": {},
    }
    for kind in ("baseline", "lct"):
        group = [r for r in rows if r.kind == kind]
        if len(group) >= 2:
            stats = auc_stats(group)
            summary["stats"][kind] = {"mean": stats.mean, "std": stats.std, "n": stats.n}
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"swept {len(rows)} runs in {time.monotonic() - started:.1f}s; summary at {os.path.join(out_dir, 'summary.json')}")
    for kind, stats in summary["stats"].items():
        print(f"  {kind}: mean auc {stats['mean']:.6f}, std {stats['std']:.6f} over {stats['n']} runs")
    return 0


def cmd_roc(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    out = _resolve_out(args.out)
    if not _should_write(out, args.if_exists):
        return 0
    rows = [row for row in load_rows(args.rows_dir) if args.select in ("all", row.kind)]
    if not rows:
        raise ValueError(f"{args.rows_dir}: no sweep rows matching --select {args.select}")
    grid = np.linspace(0.0, 1.0, args.points)
    agg = aggregate_roc([row.labeled_scores for row in rows], grid)
    lines = ["fpr,mean_tpr,std_tpr"]
    for f, m, s in zip(agg.fpr_grid, agg.mean_tpr, agg.std_tpr):
        lines.append(f"{float(f)!r},{float(m)!r},{float(s)!r}")
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"aggregated {agg.n} curves onto {args.points} grid points; wrote {out}")
    return 0


def cmd_analyze(args) -> int:
    out = _resolve_out(args.out)
    if not _should_write(out, args.if_exists):
        return 0
    by_kind: dict[str, list[dict]] = {}
    for row in summary_rows_from_json(load_json(args.summary), str(args.summary)):
        by_kind.setdefault(row["kind"], []).append(row)
    report: dict = {"groups": {}, "paired_by_seed": None, "baseline_surface_fit": None}
    for kind, group in by_kind.items():
        aucs = np.array([r["auc"] for r in group])
        report["groups"][kind] = {
            "n": int(aucs.size),
            "mean": float(np.mean(aucs)),
            "std": float(np.std(aucs, ddof=1)) if aucs.size > 1 else 0.0,
            "min": float(np.min(aucs)),
            "max": float(np.max(aucs)),
        }
    if "baseline" in by_kind and "lct" in by_kind:
        seeds = sorted(
            {r["seed"] for r in by_kind["baseline"]} & {r["seed"] for r in by_kind["lct"]}
        )
        if len(seeds) >= 2:
            base_means = [float(np.mean([r["auc"] for r in by_kind["baseline"] if r["seed"] == s])) for s in seeds]
            lct_means = [float(np.mean([r["auc"] for r in by_kind["lct"] if r["seed"] == s])) for s in seeds]
            t = paired_t_test(np.array(lct_means), np.array(base_means))
            report["paired_by_seed"] = {
                "seeds": seeds,
                "lct_minus_baseline_mean": float(np.mean(lct_means) - np.mean(base_means)),
                "t_statistic": t.statistic,
                "df": t.df,
                "p_value": t.p_value,
            }
    if "baseline" in by_kind:
        group = by_kind["baseline"]
        names = [n for n in ("omega", "gamma", "tau") if len({r["params"][n] for r in group}) > 1]
        if names and len(group) > 2 * (1 + 2 * len(names) + len(names) * (len(names) - 1) // 2):
            x = np.array([[r["params"][n] for n in names] for r in group])
            y = np.array([r["auc"] for r in group])
            try:
                fit = polyfit_r2(x, y, degree=2)
                report["baseline_surface_fit"] = {
                    "features": names,
                    "columns": list(fit.column_names),
                    "coefficients": [float(c) for c in fit.coefficients],
                    "r2": fit.r2,
                }
            except ValueError as exc:
                report["baseline_surface_fit"] = {"skipped": str(exc)}
    _write_json(out, report)
    for kind, stats in report["groups"].items():
        print(f"{kind}: n={stats['n']} mean={stats['mean']:.6f} std={stats['std']:.6f}")
    if report["paired_by_seed"]:
        p = report["paired_by_seed"]
        print(f"paired by seed: lct - baseline = {p['lct_minus_baseline_mean']:+.6f} (t={p['t_statistic']:.3f}, p={p['p_value']:.4f})")
    if report["baseline_surface_fit"] and "r2" in report["baseline_surface_fit"]:
        print(f"baseline auc surface fit over {report['baseline_surface_fit']['features']}: R^2 = {report['baseline_surface_fit']['r2']:.4f}")
    print(f"wrote {out}")
    return 0


def cmd_loss_geometry(args) -> int:
    out = _resolve_out(args.out)
    if not _should_write(out, args.if_exists):
        return 0
    hyper = VsHyperParams(omega=args.omega, gamma=args.gamma, tau=args.tau)
    line = break_even_line(hyper, args.beta)  # raises for beta < 1 before anything is written
    grid = loss_difference_grid(hyper, beta=args.beta, lo=args.lo, hi=args.hi, steps=args.steps)
    grid.to_csv(out)
    print(f"break-even line: z1 = {line.slope!r} * z0 + {line.intercept!r} (offset alpha = {line.alpha_omega!r})")
    if args.omega == 0.5 and args.gamma == 0.0:
        print(f"break-even softmax score: {break_even_softmax_score(args.beta, args.tau)!r}")
    print(f"wrote {out}")
    return 0


def cmd_dist_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
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
        out = _resolve_out(args.out)
        if _should_write(out, args.if_exists):
            _write_json(out, {"a": args.a, "b": args.b, "h_b": args.h_b, "samples": n, "seed": args.seed, "ks": ks, "seconds": elapsed})
            print(f"wrote {out}")
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
        epilog=f"Relative output paths are placed under ${OUT_ROOT_ENV} when it is set.",
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
    p.add_argument("--out", required=True, help="output checkpoint path (JSON)")
    add_if_exists(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train a grid of baseline/LCT runs with resume")
    p.add_argument("--config", required=True, help="JSON config: train, seeds, eval_lambda, baseline_grid, lct_grid")
    p.add_argument("--train-data", required=True, help="training CSV")
    p.add_argument("--test-data", required=True, help="evaluation CSV")
    p.add_argument("--out-dir", required=True, help="directory for per-run rows and summary.json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roc", help="aggregate ROC envelopes across sweep rows")
    p.add_argument("--rows-dir", required=True, help="sweep output directory")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
