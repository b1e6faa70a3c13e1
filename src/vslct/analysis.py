"""Experiment sweeps and the statistics used to compare them.

run_sweep trains a list of configured runs through train_run (the executor
`vslct train` uses too), scores each trained model on a held-out test set,
and returns one row per run.  Given an output directory it persists each
row to a file and transparently reloads completed rows on a rerun, so an
interrupted sweep resumes where it stopped, and after the last row it
writes the directory's manifest, summary.json (sweep_summary); load_rows
reads back the rows of given run_ids, which `vslct roc` takes from it.

A stored row is file format 4 (`vslct._util.RECORD_FORMAT`), a record
written atomically: one line of compact JSON holding the AUC as
`float.hex()`, the scores' dtype and shape, and a fingerprint of what
produced the row (SweepRun.params, the run's one JSON description, which
the sweep summary also writes; the ModelConfig fields the run trains
with; the TrainConfig epochs, batch_size and lr; SHA-256 digests of the
train and test data; and the sampler and numerics versions); then a
newline and the scores' little-endian `<f8` bytes.  The test labels,
the same for every row, are written once per directory, as a record of
their `<i8` bytes, to labels/<test data digest>.json, whenever that file
is missing, or a run trains and the file does not load; a subdirectory,
so no run_id's row file can take its name.

Resume reuses a row only when its identity and fingerprint equal the
requested run's, and then takes its labels from the test data it was
given, whose digest the fingerprint has just matched.  It checks every
stored row before training anything and otherwise fails once, counting
the stale, corrupt or unreadable rows and naming every field that
differs in the first.
load_rows reads one labels file for each test digest its rows name; a
missing labels file, or one recorded for other test data, fails naming
its path.

The statistics layer is self-contained numpy/stdlib:

* paired_t_test: two-sided paired t-test; the p-value comes from this
  module's regularized incomplete beta (continued-fraction evaluation),
  via p = I_x(df/2, 1/2) with x = df / (df + t^2).
* polyfit_r2: least-squares polynomial surface fit (degree 1 or 2, with
  pairwise interaction terms) reporting R^2.
* aggregate_roc / auc_stats / sweep_summary / sweep_report: ROC envelopes,
  AUC dispersion, a sweep's manifest and the `vslct analyze` report.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from vslct._util import checked_int, checked_real, read_record, record_array, write_json, write_record
from vslct.data import Dataset
from vslct.lindist import LinearDistribution
from vslct.losses import VsHyperParams
from vslct.metrics import LabeledScores, roc_at_fpr_grid, roc_curve
from vslct.network import ModelConfig
from vslct.training import COND_ORDER, LctConfig, TrainConfig, TrainResult, evaluate, train_baseline, train_lct

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
    "summary_path",
    "load_rows",
    "AucStats",
    "auc_stats",
    "sweep_summary",
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
        # one Lentz step for the even coefficient, then one for the odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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


# the characters of a filesystem-safe run_id: those str.isalnum accepts, "_", "." and "-"
_RUN_ID = re.compile(r"[\w.-]+")


def _check_run_ids(run_ids: list[str]) -> None:
    """Raise unless each run_id, which names its row file, is non-empty, filesystem-safe, not dot-leading and not "summary", and none repeats."""
    for run_id in run_ids:
        if not isinstance(run_id, str) or run_id[:1] == "." or not _RUN_ID.fullmatch(run_id):
            raise ValueError(f"run_id must be non-empty, filesystem-safe and not start with '.', got {run_id!r}")
        if run_id == "summary":
            raise ValueError("run_id 'summary' is reserved: its row file would be the sweep's manifest, summary.json")
    if len(set(run_ids)) != len(run_ids):
        raise ValueError(f"run_ids must be unique within a sweep; repeated: {sorted({i for i in run_ids if run_ids.count(i) > 1})}")


@dataclass(frozen=True)
class SweepRun:
    """One training run inside a sweep.

    kind "baseline" trains at `hyper` with the conditioning input held at
    eval_cond; kind "lct" trains with per-batch draws from `lct` and is
    evaluated at eval_cond, inside each conditioned distribution's support.
    run_id names the run's row file, so it must be a non-empty, safe file
    name not starting with '.', not "summary" (the manifest) and unique in
    a sweep; seed is stored as a plain int >= 0 and eval_cond as plain
    floats, each checked as a real number.
    """

    run_id: str
    kind: str
    seed: int
    eval_cond: tuple[float, ...]
    hyper: VsHyperParams | None = None
    lct: LctConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "eval_cond", tuple(checked_real(f"{self.run_id}: eval_cond entry", v) for v in self.eval_cond))
        _check_run_ids([self.run_id])
        object.__setattr__(self, "seed", checked_int(f"{self.run_id}: seed", self.seed, least=0))
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

    @property
    def params(self) -> dict:
        """The run as a fresh JSON object, both its resume fingerprint and its sweep-summary params.

        eval_cond, then each trained-at hyperparameter value (for an lct run,
        the base of each unconditioned name), then an lct run's "conditioned"
        names: a, b and h_b of a linear density, or a point mass's value.
        """
        hyper, dists = (self.hyper, {}) if self.lct is None else (self.lct.base, self.lct.conditioned)
        params: dict = {"eval_cond": list(self.eval_cond)}
        conditioned = {}
        for name in COND_ORDER:
            dist = dists.get(name)
            if dist is None:
                params[name] = float(getattr(hyper, name))
            elif isinstance(dist, LinearDistribution):
                conditioned[name] = {"a": float(dist.a), "b": float(dist.b), "h_b": float(dist.h_b)}
            else:
                conditioned[name] = float(dist)
        if conditioned:
            params["conditioned"] = conditioned
        return params


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


# Versions of what makes a row's numbers besides its inputs, stored in its
# fingerprint: bump "sampler" when LinearDistribution's draws change and
# "numerics" when trained bits do, and older rows fail to resume naming it.
# Numerics 2: the trunk biases are added inside the trunk matmuls, which
# keeps the bits of numerics 1 on the default model shape but not on every
# input_dim and trunk_widths.  Numerics 3: a shared conditioning row's FiLM
# and head are scored as one folded affine map, which moves scores by ulps.
# Numerics 4: FiLM is a stage of its own, so training computes the head as
# h1 @ W + (mu @ W + b), and sgd_step's norm is a numpy pairwise sum, so
# trained bits no longer depend on the BLAS thread count.
_VERSIONS = {"sampler": 1, "numerics": 4}


def _row_path(out_dir, run_id: str) -> str:
    return os.path.join(os.fspath(out_dir), f"{run_id}.json")


def summary_path(rows_dir) -> str:
    """Where a rows directory keeps its manifest, the summary.json that run_sweep writes."""
    return os.path.join(os.fspath(rows_dir), "summary.json")


def _labels_path(out_dir, test_digest: str) -> str:
    """Where a rows directory keeps the labels of the test data with this digest."""
    if not isinstance(test_digest, str) or not re.fullmatch("[0-9a-f]{64}", test_digest):
        raise ValueError(f"test data digest must be 64 lowercase hex digits, got {test_digest!r}")
    return os.path.join(os.fspath(out_dir), "labels", f"{test_digest}.json")


def _data_digest(data: Dataset) -> str:
    """SHA-256 over the dtype, shape and bytes of the features and the labels."""
    digest = hashlib.sha256()
    for a in (data.x, data.y):
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _key_paths(tree, prefix: str = "") -> dict:
    """Leaf values of nested dicts by dotted key path; an empty dict is a leaf."""
    if not isinstance(tree, dict) or not tree:
        return {prefix: tree}
    leaves = {}
    for key, value in tree.items():
        leaves.update(_key_paths(value, f"{prefix}.{key}" if prefix else key))
    return leaves


def _differences(stored: dict, requested: dict) -> list[str]:
    """One 'path: stored X, requested Y' entry per key path whose values differ."""
    stored, requested = _key_paths(stored), _key_paths(requested)

    def shown(leaves, path):
        return json.dumps(leaves[path]) if path in leaves else "nothing"

    paths = list(requested) + [p for p in stored if p not in requested]
    return [
        f"{p}: stored {shown(stored, p)}, requested {shown(requested, p)}"
        for p in paths
        if p not in stored or p not in requested or stored[p] != requested[p]
    ]


def _save_row(out_dir, row: SweepRow, fingerprint: dict) -> None:
    """Write row without its labels, which the directory's labels file holds for every row."""
    header = {"run_id": row.run_id, "kind": row.kind, "seed": row.seed, "auc": float(row.auc).hex(), "fingerprint": fingerprint}
    write_record(_row_path(out_dir, row.run_id), header, "scores", row.scores)


def _save_labels(path, test_digest: str, labels) -> None:
    write_record(path, {"test": test_digest}, "labels", labels)


def _load_labels(path, test_digest: str) -> np.ndarray:
    """The labels stored at path for the test data with this digest; a missing, corrupt or mismatched file raises naming it."""
    try:
        header, body = read_record(path)
        if header["test"] != test_digest:
            raise ValueError(f"recorded for test data {header['test']}, the rows name test data {test_digest}")
        return record_array(header["labels"], body)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: missing or corrupt test labels ({exc}); delete it if present and resume the sweep to rewrite it") from exc


def _labels_stored(path, test_digest: str) -> bool:
    """Whether path holds the labels of the test data with this digest in the current format."""
    try:
        _load_labels(path, test_digest)
    except ValueError:
        return False
    return True


def _row_from_record(header: dict, body: bytes, labels: np.ndarray) -> SweepRow:
    """Decode a stored row whose format is checked; a malformed record raises KeyError, TypeError or ValueError."""
    scores = record_array(header["scores"], body)
    return SweepRow(header["run_id"], header["kind"], int(header["seed"]), float.fromhex(header["auc"]), scores, labels)


def _load_row(out_dir, run: SweepRun, fingerprint: dict, labels: np.ndarray) -> SweepRow:
    """The stored row of `run`, compared with the requested fingerprint before its scores are decoded."""
    path = _row_path(out_dir, run.run_id)
    try:
        header, body = read_record(path)
        stored = {"run_id": header["run_id"], "kind": header["kind"], "seed": header["seed"], **header["fingerprint"]}
        requested = {"run_id": run.run_id, "kind": run.kind, "seed": run.seed, **fingerprint}
        if stored != requested:
            raise ValueError("; ".join(_differences(stored, requested)))
        return _row_from_record(header, body, labels)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: stale or corrupt sweep row ({exc}); delete it to recompute") from exc


def load_rows(rows_dir, run_ids: list[str]) -> list[SweepRow]:
    """The rows of run_ids stored in rows_dir, in that order.

    The ids must follow SweepRun's run_id rule, checked before any file is
    opened.  A listed row that is missing, invalid or stored under another
    run_id raises naming its file.
    """
    _check_run_ids(run_ids)
    rows = []
    labels: dict[str, np.ndarray] = {}
    for run_id in run_ids:
        path = _row_path(rows_dir, run_id)
        try:
            header, body = read_record(path)
            if header["run_id"] != run_id:
                raise ValueError(f"stored as run_id {header['run_id']!r}, listed as {run_id!r}")
            digest = header["fingerprint"]["data"]["test"]
            labels_path = _labels_path(rows_dir, digest)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a sweep row: {exc}") from exc
        if digest not in labels:
            labels[digest] = _load_labels(labels_path, digest)
        try:
            rows.append(_row_from_record(header, body, labels[digest]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a sweep row: {exc}") from exc
    return rows


def _model_config(run: SweepRun, train_data: Dataset, **model_fields) -> ModelConfig:
    """The ModelConfig `run` trains with on train_data; model_fields are its fields besides the two dimensions."""
    return ModelConfig(input_dim=train_data.dim, cond_dim=len(run.eval_cond), **model_fields)


def train_run(run: SweepRun, train_data: Dataset, train_config: TrainConfig, **model_fields) -> TrainResult:
    """Train `run` at its own seed; model_fields are the ModelConfig fields besides the two dimensions."""
    config = replace(train_config, seed=run.seed)
    model_config = _model_config(run, train_data, **model_fields)
    if run.kind == "baseline":
        return train_baseline(train_data, run.hyper, config, model_config=model_config, const_cond=np.array(run.eval_cond))
    return train_lct(train_data, run.lct, config, model_config=model_config)


def _fingerprints(runs: list[SweepRun], train_data: Dataset, test_digest: str, train_config: TrainConfig) -> dict[str, dict]:
    """Each run's fingerprint by run_id: what its stored row must hold to be reused."""
    # the seed is part of a row's identity, so train holds the other TrainConfig fields
    train = {"epochs": train_config.epochs, "batch_size": train_config.batch_size, "lr": train_config.lr}
    data = {"train": _data_digest(train_data), "test": test_digest}
    models = {}
    for run in {len(r.eval_cond): r for r in runs}.values():  # a ModelConfig differs between runs only in cond_dim
        config = _model_config(run, train_data)
        models[config.cond_dim] = {**asdict(config), "trunk_widths": list(config.trunk_widths)}
    return {
        run.run_id: {"run": run.params, "model": models[len(run.eval_cond)], "train": train, "data": data, "versions": _VERSIONS}
        for run in runs
    }


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
    run to recompute.  The test labels are written to
    out_dir/labels/<test data digest>.json whenever that file is missing,
    or any run trains and the file does not load, so recomputing rows also
    replaces a labels file of an older format.  After the last progress call
    it writes sweep_summary(runs, rows) to summary_path(out_dir), leaving a
    file that already parses to that summary untouched.
    Every found row is checked before any run trains; if any is stale or
    corrupt (its fingerprint differs from the requested run's, or it does
    not decode), one error counts them and gives the first one's message,
    naming each differing field.
    `progress`, if given, is called as progress(index, total, row) after
    each run.
    """
    _check_run_ids([r.run_id for r in runs])
    found: dict[str, SweepRow] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        test_digest = _data_digest(test_data)
        fingerprints = _fingerprints(runs, train_data, test_digest, train_config)
        stored = [run for run in runs if os.path.exists(_row_path(out_dir, run.run_id))]
        errors = []
        for run in stored:
            try:
                found[run.run_id] = _load_row(out_dir, run, fingerprints[run.run_id], test_data.y)
            except ValueError as exc:
                errors.append(exc)
        if errors:
            raise ValueError(f"{out_dir}: {len(errors)} of {len(stored)} stored rows are stale or corrupt; the first: {errors[0]}") from errors[0]
        labels_path = _labels_path(out_dir, test_digest)
        # a pure resume leaves an existing labels file alone; one that trains replaces a file that does not load
        if not os.path.exists(labels_path) or (len(found) < len(runs) and not _labels_stored(labels_path, test_digest)):
            _save_labels(labels_path, test_digest, test_data.y)
    rows: list[SweepRow] = []
    for i, run in enumerate(runs):
        row = found.get(run.run_id)
        if row is None:
            scored = evaluate(train_run(run, train_data, train_config).model, test_data, run.eval_cond)
            row = SweepRow(run.run_id, run.kind, run.seed, roc_curve(scored).auc, scored.scores, scored.labels)
            if out_dir is not None:
                _save_row(out_dir, row, fingerprints[run.run_id])
        rows.append(row)
        if progress is not None:
            progress(i, len(runs), row)
    if out_dir is not None:
        _save_summary(summary_path(out_dir), sweep_summary(runs, rows))
    return rows


def _save_summary(path: str, summary: dict) -> None:
    """Write summary as indented JSON, unless the file at path already parses to it (a pure resume)."""
    with contextlib.suppress(OSError, ValueError), open(path, "r", encoding="utf-8") as fh:  # missing, unreadable or not JSON: written again
        if json.load(fh) == summary:
            return
    write_json(path, summary)


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


def sweep_summary(runs: list[SweepRun], rows: list[SweepRow]) -> dict:
    """The manifest `summary.json` of a sweep: each row with its run's params; stats cover kinds with 2+ rows."""
    groups = {kind: [r for r in rows if r.kind == kind] for kind in ("baseline", "lct")}
    return {
        "rows": [{"run_id": r.run_id, "kind": r.kind, "seed": r.seed, "auc": r.auc, "params": run.params} for run, r in zip(runs, rows, strict=True)],
        "stats": {kind: asdict(auc_stats(group)) for kind, group in groups.items() if len(group) >= 2},
    }


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
        names = [n for n in COND_ORDER if len({r["params"][n] for r in group}) > 1]
        x = np.array([[r["params"][n] for n in names] for r in group])
        if names and len(group) > 2 * _poly_design(x, 2)[0].shape[1]:  # at least two rows per column
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
