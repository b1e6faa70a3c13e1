"""Experiment definitions: JSON config parsing and sweep-grid expansion.

Both `vslct train` and `vslct sweep` read their configs through this
module, and so does any library caller that wants the same runs as the
shell (the acceptance suite expands configs/directional.json here):
grid_runs expands a sweep config into a list of SweepRuns, and
summary_rows_from_json checks a sweep's manifest, the summary.json that
vslct.analysis.run_sweep writes, for `vslct analyze` and `vslct roc`.

This module checks the JSON structure: objects and their allowed keys
(unknown keys are errors, so a typo cannot silently fall back to a
default), non-empty lists, lambda_range, the conditioned name, seeds,
eval_lambda and the summary rows.  Every other value is checked by the
library type that owns it (TrainConfig, ModelConfig, VsHyperParams,
make_linear, LctConfig, SweepRun), built under the key path it comes
from, so a bad value fails before any data loads with a ValueError that
names its key, e.g. ``config.baseline_grid.omega: expected a non-empty
list, got 0.5`` or ``config.train: epochs must be an integer >= 1, got 0``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import product

from vslct.analysis import SweepRun
from vslct.lindist import LinearDistribution, make_linear
from vslct.losses import VsHyperParams
from vslct.network import ModelConfig
from vslct.training import COND_ORDER, LctConfig, TrainConfig

__all__ = ["TrainSpec", "load_json", "train_spec_from_json", "train_config_from_json", "grid_runs", "summary_rows_from_json"]


def _is_number(value) -> bool:
    """A finite JSON number; json.load also accepts NaN and Infinity."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (accepts, what is expected) for the values checked here
_NUMBER = (_is_number, "a number")
_INTEGER = (_is_integer, "an integer")
_SEEDS = (lambda v: isinstance(v, list) and len(v) > 0 and all(_is_integer(s) for s in v), "a non-empty list of integers")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_NON_EMPTY_LIST = (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list")
_LAMBDA_RANGE = (lambda v: isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v), "two numbers [lo, hi]")
_CONDITIONED = (lambda v: v in COND_ORDER, f"one of {list(COND_ORDER)}")
_SUMMARY_ROW_FIELDS = {"run_id": _STRING, "kind": _STRING, "seed": _INTEGER, "auc": _NUMBER, "params": _OBJECT}
_LINEAR_KEYS = {"a", "b", "h_b"}  # make_linear's arguments


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{context}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")


def _check(value, field: tuple, context: str):
    """value, if field accepts it; otherwise a ValueError naming context."""
    accepts, expected = field
    if not accepts(value):
        raise ValueError(f"{context}: expected {expected}, got {value!r}")
    return value


@contextmanager
def _naming(context: str):
    """Prefix a ValueError raised in the block with the config key path it comes from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from exc


def _built(cls, obj, context: str, **fixed):
    """cls(**fixed, **obj) built under context; obj may set cls's other init fields."""
    _require_keys(obj, {f.name for f in fields(cls) if f.init} - set(fixed), context)
    with _naming(context):
        return cls(**fixed, **obj)


def load_json(path) -> dict:
    """Parsed JSON file; a syntax error becomes a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _dist_from_json(obj, context: str) -> float | LinearDistribution:
    """A conditioned entry: {a, b, h_b} of a linear density, or a point mass, which LctConfig checks."""
    if not isinstance(obj, dict):
        return obj
    _require_keys(obj, _LINEAR_KEYS, context)
    missing = _LINEAR_KEYS - set(obj)
    if missing:
        raise ValueError(f"{context}: missing keys {sorted(missing)}")
    with _naming(context):
        return make_linear(**obj)


def _lct_from_json(obj: dict, context: str) -> LctConfig:
    _require_keys(obj, {"base", "conditioned"}, context)
    base = _built(VsHyperParams, obj.get("base", {}), f"{context}.base")
    entries = _check(obj.get("conditioned"), _OBJECT, f"{context}.conditioned")
    conditioned = {name: _dist_from_json(entry, f"{context}.conditioned.{name}") for name, entry in entries.items()}
    with _naming(f"{context}.conditioned"):
        return LctConfig(base=base, conditioned=conditioned)


def train_config_from_json(obj: dict, context: str) -> TrainConfig:
    """The `train` block of a train or sweep config."""
    return _built(TrainConfig, obj, context)


@dataclass(frozen=True)
class TrainSpec:
    """One `vslct train` run, named after its mode and seeded by its train block.

    model_kwargs are the ModelConfig fields other than the two dimensions.
    """

    run: SweepRun
    train: TrainConfig
    model_kwargs: dict


def _eval_lambda(config: dict) -> float:
    """The conditioning value a config's conditioned runs are scored at (default 0)."""
    return float(_check(config.get("eval_lambda", 0.0), _NUMBER, "config.eval_lambda"))


def train_spec_from_json(config: dict) -> TrainSpec:
    """Parse a `vslct train` config: mode, hyper or lct, train, model, eval_lambda."""
    _require_keys(config, {"mode", "hyper", "lct", "train", "model", "eval_lambda"}, "config")
    mode = config.get("mode")
    if mode not in ("baseline", "lct"):
        raise ValueError(f"config.mode must be 'baseline' or 'lct', got {mode!r}")
    train = train_config_from_json(config.get("train", {}), "config.train")
    model_kwargs = config.get("model", {})
    _built(ModelConfig, model_kwargs, "config.model", input_dim=1, cond_dim=1)  # so a bad block fails before any data loads
    if mode == "baseline":
        if "lct" in config:
            raise ValueError("config: baseline mode does not take an 'lct' section")
        if "eval_lambda" in config:
            raise ValueError("config: baseline mode does not take 'eval_lambda'")
        hyper = _built(VsHyperParams, config.get("hyper", {}), "config.hyper")
        run = SweepRun(run_id=mode, kind=mode, seed=train.seed, eval_cond=(0.0,), hyper=hyper)
    else:
        if "hyper" in config:
            raise ValueError("config: lct mode takes an 'lct' section, not 'hyper'")
        lct = _lct_from_json(config.get("lct", {}), "config.lct")
        eval_cond = (_eval_lambda(config),) * lct.cond_dim
        with _naming("config.eval_lambda"):  # the run fails only if eval_cond is off a training support
            run = SweepRun(run_id=mode, kind=mode, seed=train.seed, eval_cond=eval_cond, lct=lct)
    return TrainSpec(run=run, train=train, model_kwargs=model_kwargs)


def grid_runs(config: dict) -> list[SweepRun]:
    """Expand a sweep config into runs.

    The baseline grid is the product omega x gamma x tau x seeds; the
    conditioned grid is h_b x omega x seeds, each run drawing the
    `conditioned` hyperparameter from a linear density on lambda_range,
    so lct_grid may not also set that hyperparameter.  A train.seed is
    accepted and ignored: each run trains at its entry of `seeds`.
    """
    _require_keys(config, {"train", "seeds", "eval_lambda", "baseline_grid", "lct_grid"}, "config")
    seeds = _check(config.get("seeds"), _SEEDS, "config.seeds")
    eval_cond = (_eval_lambda(config),)
    runs: list[SweepRun] = []
    if "baseline_grid" in config:
        grid = config["baseline_grid"]
        _require_keys(grid, set(COND_ORDER), "config.baseline_grid")
        axes = [_check(grid.get(name, [default]), _NON_EMPTY_LIST, f"config.baseline_grid.{name}") for name, default in zip(COND_ORDER, (0.5, 0.0, 0.0))]
        for omega, gamma, tau, seed in product(*axes, seeds):
            with _naming("config.baseline_grid"):
                hyper = VsHyperParams(omega=omega, gamma=gamma, tau=tau)
            runs.append(SweepRun(run_id=f"base-w{omega}-g{gamma}-t{tau}-s{seed}", kind="baseline", seed=seed, eval_cond=(0.0,), hyper=hyper))
    if "lct_grid" in config:
        grid = config["lct_grid"]
        _require_keys(grid, {"h_b", "omega", "gamma", "conditioned", "lambda_range"}, "config.lct_grid")
        conditioned_name = _check(grid.get("conditioned", "tau"), _CONDITIONED, "config.lct_grid.conditioned")
        if conditioned_name in grid:
            raise ValueError(f"config.lct_grid.{conditioned_name}: has no effect when conditioned is {conditioned_name!r}, since every draw replaces it")
        lo, hi = (float(v) for v in _check(grid.get("lambda_range", [0.0, 3.0]), _LAMBDA_RANGE, "config.lct_grid.lambda_range"))
        # an h_b or a drawn value out of range depends on lambda_range, so its error names it
        range_context = f"config.lct_grid.lambda_range {[lo, hi]}" + ("" if "lambda_range" in grid else " (the default)")
        axes = [_check(grid.get(name, [default]), _NON_EMPTY_LIST, f"config.lct_grid.{name}") for name, default in (("h_b", 0.0), ("omega", 0.5))]
        for h_b, omega in product(*axes):
            with _naming("config.lct_grid"):
                base = VsHyperParams(omega=omega, gamma=grid.get("gamma", 0.0), tau=0.0)
            with _naming(range_context):
                lct = LctConfig(base=base, conditioned={conditioned_name: make_linear(lo, hi, h_b)})
            for seed in seeds:
                runs.append(SweepRun(run_id=f"lct-hb{h_b}-w{omega}-s{seed}", kind="lct", seed=seed, eval_cond=eval_cond, lct=lct))
    if not runs:
        raise ValueError("config: neither baseline_grid nor lct_grid produced any runs")
    return runs


def summary_rows_from_json(summary, context: str) -> list[dict]:
    """The rows of a sweep's summary.json, each checked for what `vslct analyze` and `vslct roc` read.

    Every row needs a string run_id and kind, an integer seed, a numeric
    auc and a params object; a baseline row's params also need numeric
    omega, gamma and tau, the features of the AUC surface fit.
    """
    rows = summary.get("rows") if isinstance(summary, dict) else None
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{context}: no rows; run the sweep first")
    for i, row in enumerate(rows):
        where = f"{context}: rows[{i}]"
        missing = set(_SUMMARY_ROW_FIELDS) - set(row if isinstance(row, dict) else ())
        if missing:
            raise ValueError(f"{where}: missing keys {sorted(missing)}")
        for key, field in _SUMMARY_ROW_FIELDS.items():
            _check(row[key], field, f"{where}.{key}")
        if row["kind"] == "baseline":
            for name in COND_ORDER:
                _check(row["params"].get(name), _NUMBER, f"{where}.params.{name}")
    return rows
