"""Experiment sweeps and the statistics used to compare them.

run_sweep trains a list of configured runs through train_run (the executor
`vslct train` uses too), scores each trained model on a held-out test set,
and returns one row per run.  Given an output directory it persists each
row as JSON (floats hex-encoded, written atomically) and transparently
reloads completed rows on a rerun, so an interrupted sweep resumes where
it stopped; load_rows reads every row of such a directory back.

The statistics layer is self-contained numpy/stdlib:

* paired_t_test: two-sided paired t-test; the p-value comes from this
  module's regularized incomplete beta (continued-fraction evaluation),
  via p = I_x(df/2, 1/2) with x = df / (df + t^2).
* polyfit_r2: least-squares polynomial surface fit (degree 1 or 2, with
  pairwise interaction terms) reporting R^2.
* aggregate_roc / auc_stats / sweep_report: per-group ROC envelopes, AUC
  dispersion across runs, and the `vslct analyze` report.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from vslct._util import atomic_write_text, floats_from_hex, floats_to_hex
from vslct.data import Dataset
from vslct.lindist import LinearDistribution
from vslct.losses import VsHyperParams
from vslct.metrics import LabeledScores, roc_at_fpr_grid, roc_curve
from vslct.network import ModelConfig
from vslct.training import LctConfig, TrainConfig, TrainResult, evaluate, train_baseline, train_lct

__all__ = [
    "TTestResult",
    "paired_t_test",
    "regularized_incomplete_beta",
    "PolyfitResult",
    "polyfit_r2",
    "SweepRun",
    "SweepRow",
    "train_run",
    "run_sweep",
    "load_rows",
    "AucStats",
    "auc_stats",
    "sweep_report",
    "RocAggregate",
    "aggregate_roc",
]


# ---------------------------------------------------------------------------
# Paired t-test
# ---------------------------------------------------------------------------

_BETA_MAX_ITER = 300
_BETA_EPS = 3e-16
_BETA_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by Lentz's method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_TINY:
        d = _BETA_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_TINY:
            d = _BETA_TINY
        c = 1.0 + aa / c
        if abs(c) < _BETA_TINY:
            c = _BETA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    df: int
    p_value: float


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on matched samples a and b.

    t = mean(d) / (std(d, ddof=1) / sqrt(n)) with d = a - b, and the
    two-sided p-value is I_x(df/2, 1/2) at x = df / (df + t^2).  With a
    zero-variance difference the p-value degenerates to 1 (all equal) or
    0 (constant nonzero shift).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"need matched 1-D samples, got shapes {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = a - b
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(statistic=0.0, df=df, p_value=1.0)
        return TTestResult(statistic=math.copysign(math.inf, mean), df=df, p_value=0.0)
    t = mean / (sd / math.sqrt(n))
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(statistic=t, df=df, p_value=p)


# ---------------------------------------------------------------------------
# Polynomial surface fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyfitResult:
    coefficients: np.ndarray
    column_names: tuple[str, ...]
    r2: float


def _poly_design(x: np.ndarray, degree: int) -> tuple[np.ndarray, tuple[str, ...]]:
    n, d = x.shape
    cols: list[np.ndarray] = [np.ones(n)]
    names: list[str] = ["1"]
    for j in range(d):
        cols.append(x[:, j])
        names.append(f"x{j}")
    if degree == 2:
        for j in range(d):
            if len(set(x[:, j].tolist())) > 2:  # a two-valued column's square is affine in it
                cols.append(x[:, j] ** 2)
                names.append(f"x{j}^2")
        for j in range(d):
            for k in range(j + 1, d):
                cols.append(x[:, j] * x[:, k])
                names.append(f"x{j}*x{k}")
    return np.column_stack(cols), tuple(names)


def polyfit_r2(x, y, degree: int = 2) -> PolyfitResult:
    """Least-squares fit of y by a polynomial surface in the columns of x.

    The design matrix holds an intercept, the features, and for degree 2
    their pairwise products and the squares of features with more than two
    distinct values (any other square is affine in its feature).  R^2 =
    1 - SS_res / SS_tot; a constant target is reported as a perfect fit.
    A rank-deficient design (collinear features or too few samples) raises.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError(f"incompatible shapes: x {x.shape}, y {y.shape}")
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    design, names = _poly_design(x, degree)
    if design.shape[0] < design.shape[1]:
        raise ValueError(f"need at least {design.shape[1]} samples for {len(names)} terms, got {design.shape[0]}")
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError(f"rank-deficient design matrix (rank {rank} < {design.shape[1]} columns)")
    residuals = y - design @ coeffs
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PolyfitResult(coefficients=coeffs, column_names=names, r2=r2)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRun:
    """One training run inside a sweep.

    kind "baseline" trains at `hyper` with the conditioning input held at
    eval_cond; kind "lct" trains with per-batch draws from `lct` and is
    evaluated at eval_cond, inside each conditioned distribution's support.
    run_id must be unique, filesystem-safe and not start with '.'
    (load_rows skips dot files).
    """

    run_id: str
    kind: str
    seed: int
    eval_cond: tuple[float, ...]
    hyper: VsHyperParams | None = None
    lct: LctConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "eval_cond", tuple(float(v) for v in self.eval_cond))
        if not self.run_id or self.run_id[0] == "." or not all(c.isalnum() or c in "._-" for c in self.run_id):
            raise ValueError(f"run_id must be non-empty, filesystem-safe and not start with '.', got {self.run_id!r}")
        if not self.eval_cond:
            raise ValueError(f"{self.run_id}: eval_cond must not be empty")
        if self.kind == "baseline":
            if self.hyper is None or self.lct is not None:
                raise ValueError(f"{self.run_id}: baseline runs take hyper, not lct")
        elif self.kind == "lct":
            if self.lct is None or self.hyper is not None:
                raise ValueError(f"{self.run_id}: lct runs take lct, not hyper")
            if len(self.eval_cond) != self.lct.cond_dim:
                raise ValueError(f"{self.run_id}: eval_cond has {len(self.eval_cond)} entries, conditioning needs {self.lct.cond_dim}")
            for name, value in zip(self.lct.names, self.eval_cond):
                dist = self.lct.conditioned[name]
                if isinstance(dist, LinearDistribution) and not dist.a <= value <= dist.b:
                    raise ValueError(f"{self.run_id}: eval_cond {name} = {value} lies outside its training support [{dist.a}, {dist.b}]")
        else:
            raise ValueError(f"{self.run_id}: kind must be 'baseline' or 'lct', got {self.kind!r}")


@dataclass(frozen=True)
class SweepRow:
    """Result of one run: test-set scores and the derived AUC; the arrays are checked as LabeledScores when built."""

    run_id: str
    kind: str
    seed: int
    auc: float
    scores: np.ndarray
    labels: np.ndarray
    labeled_scores: LabeledScores = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labeled_scores", LabeledScores(scores=self.scores, labels=self.labels))


def _row_path(out_dir, run_id: str) -> str:
    return os.path.join(os.fspath(out_dir), f"{run_id}.json")


def _save_row(out_dir, row: SweepRow) -> None:
    payload = {
        "run_id": row.run_id,
        "kind": row.kind,
        "seed": row.seed,
        "auc": float(row.auc).hex(),
        "scores": floats_to_hex(row.scores),
        "labels": [int(v) for v in row.labels],
    }
    atomic_write_text(_row_path(out_dir, row.run_id), json.dumps(payload))


def _row_from_payload(payload: dict) -> SweepRow:
    """Decode a stored row; a malformed payload raises KeyError, TypeError or ValueError."""
    return SweepRow(
        run_id=payload["run_id"],
        kind=payload["kind"],
        seed=int(payload["seed"]),
        auc=float.fromhex(payload["auc"]),
        scores=floats_from_hex(payload["scores"]),
        labels=np.array(payload["labels"], dtype=np.int64),
    )


def _load_row(out_dir, run: SweepRun) -> SweepRow:
    path = _row_path(out_dir, run.run_id)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload["run_id"] != run.run_id or payload["kind"] != run.kind or payload["seed"] != run.seed:
            raise ValueError("identity fields do not match the requested run")
        return _row_from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: stale or corrupt sweep row ({exc}); delete it to recompute") from exc


def load_rows(rows_dir) -> list[SweepRow]:
    """Every sweep row stored in rows_dir, in file-name order; invalid JSON and partial rows raise.

    Dot files (a killed atomic write's temp file) and JSON objects holding
    no SweepRow field (summary.json, an analyze report) are skipped.
    """
    rows = []
    for name in sorted(os.listdir(rows_dir)):
        if not name.endswith(".json") or name.startswith("."):
            continue
        path = os.path.join(os.fspath(rows_dir), name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if isinstance(payload, dict) and payload.keys().isdisjoint(f.name for f in fields(SweepRow) if f.init):
                continue
            rows.append(_row_from_payload(payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a sweep row: {exc}") from exc
    return rows


def train_run(run: SweepRun, train_data: Dataset, train_config: TrainConfig, **model_fields) -> TrainResult:
    """Train `run` at its own seed; model_fields are the ModelConfig fields besides the two dimensions."""
    config = replace(train_config, seed=run.seed)
    model_config = ModelConfig(input_dim=train_data.dim, cond_dim=len(run.eval_cond), **model_fields)
    if run.kind == "baseline":
        return train_baseline(train_data, run.hyper, config, model_config=model_config, const_cond=np.array(run.eval_cond))
    return train_lct(train_data, run.lct, config, model_config=model_config)


def run_sweep(
    runs: list[SweepRun],
    train_data: Dataset,
    test_data: Dataset,
    train_config: TrainConfig,
    out_dir=None,
    progress=None,
) -> list[SweepRow]:
    """Execute (or reload) every run and return rows in input order.

    With out_dir set, each finished run is written to out_dir/run_id.json
    and found again on the next invocation; delete a file to force that
    run to recompute.  `progress`, if given, is called as
    progress(index, total, row) after each run.
    """
    ids = [r.run_id for r in runs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"run_ids must be unique within a sweep; repeated: {sorted({i for i in ids if ids.count(i) > 1})}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    rows: list[SweepRow] = []
    for i, run in enumerate(runs):
        if out_dir is not None and os.path.exists(_row_path(out_dir, run.run_id)):
            row = _load_row(out_dir, run)
        else:
            scored = evaluate(train_run(run, train_data, train_config).model, test_data, run.eval_cond)
            row = SweepRow(run.run_id, run.kind, run.seed, roc_curve(scored).auc, scored.scores, scored.labels)
            if out_dir is not None:
                _save_row(out_dir, row)
        rows.append(row)
        if progress is not None:
            progress(i, len(runs), row)
    return rows


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AucStats:
    mean: float
    std: float
    n: int


def auc_stats(rows: list[SweepRow]) -> AucStats:
    """Mean and sample standard deviation (ddof=1) of AUC across rows."""
    if len(rows) < 2:
        raise ValueError(f"need at least 2 rows for dispersion, got {len(rows)}")
    aucs = np.array([row.auc for row in rows])
    return AucStats(mean=float(np.mean(aucs)), std=float(np.std(aucs, ddof=1)), n=aucs.size)


def sweep_report(rows: list[dict]) -> dict:
    """The `vslct analyze` report on the checked rows of a sweep summary.

    AUC statistics per kind, LCT against baseline paired by seed (a
    non-finite t is null), and a degree-2 fit of baseline AUC.
    """
    by_kind: dict[str, list[dict]] = {}
    for row in rows:
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
        seeds = sorted({r["seed"] for r in by_kind["baseline"]} & {r["seed"] for r in by_kind["lct"]})
        if len(seeds) >= 2:
            base_means = [float(np.mean([r["auc"] for r in by_kind["baseline"] if r["seed"] == s])) for s in seeds]
            lct_means = [float(np.mean([r["auc"] for r in by_kind["lct"] if r["seed"] == s])) for s in seeds]
            t = paired_t_test(np.array(lct_means), np.array(base_means))
            report["paired_by_seed"] = {
                "seeds": seeds,
                "lct_minus_baseline_mean": float(np.mean(lct_means) - np.mean(base_means)),
                "t_statistic": t.statistic if math.isfinite(t.statistic) else None,
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
    return report


@dataclass(frozen=True)
class RocAggregate:
    fpr_grid: np.ndarray
    mean_tpr: np.ndarray
    std_tpr: np.ndarray
    n: int


def aggregate_roc(score_sets: list[LabeledScores], fpr_grid) -> RocAggregate:
    """Pointwise mean/std of the ROC envelopes of several score sets."""
    if not score_sets:
        raise ValueError("need at least one score set")
    fpr_grid = np.asarray(fpr_grid, dtype=np.float64)
    tprs = np.stack([roc_at_fpr_grid(roc_curve(s), fpr_grid) for s in score_sets])
    ddof = 1 if len(score_sets) > 1 else 0
    return RocAggregate(
        fpr_grid=fpr_grid,
        mean_tpr=tprs.mean(axis=0),
        std_tpr=tprs.std(axis=0, ddof=ddof),
        n=len(score_sets),
    )
