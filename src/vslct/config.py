"""Experiment definitions: JSON config parsing and sweep-grid expansion.

Both `vslct train` and `vslct sweep` read their configs through this
module, and so does any library caller that wants the same runs as the
shell (the acceptance suite expands configs/directional.json here):
grid_runs expands a sweep config into a list of SweepRuns, and
summary_rows_from_json checks a sweep's manifest, the summary.json that
vslct.analysis.run_sweep writes, for `vslct analyze` and `vslct roc`.

Parsing is strict: unknown keys are errors, so a typo cannot silently
fall back to a default, and a value of the wrong type raises a
ValueError that names its key path, e.g. ``config.baseline_grid.omega:
expected a non-empty list of numbers``.  So does a grid value out of its
legal range, e.g. ``config.baseline_grid: omega must be in [0, 1], got 1.5``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product

from vslct.analysis import SweepRun
from vslct.lindist import LinearDistribution, make_linear
from vslct.losses import VsHyperParams
from vslct.training import COND_ORDER, LctConfig, TrainConfig

__all__ = ["TrainSpec", "load_json", "train_spec_from_json", "train_config_from_json", "grid_runs", "summary_rows_from_json"]


def _is_number(value) -> bool:
    """A finite JSON number; json.load also accepts NaN and Infinity."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(_is_number(v) for v in value)


# key -> (accepts, what is expected); shared by the field tables below
_NUMBER = (_is_number, "a number")
_INTEGER = (_is_integer, "an integer")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_NUMBER_LIST = (_is_number_list, "a non-empty list of numbers")
_SEEDS = (lambda v: isinstance(v, list) and len(v) > 0 and all(_is_integer(s) for s in v), "a non-empty list of integers")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")

_TRAIN_FIELDS = {
    "epochs": _INTEGER,
    "batch_size": _INTEGER,
    "lr": _NUMBER,
    "seed": _INTEGER,
}
_MODEL_FIELDS = {
    "trunk_widths": (lambda v: isinstance(v, list) and all(_is_integer(w) for w in v), "a list of integers"),
    "film_hidden": _INTEGER,
    "film_affine": _FLAG,
    "film_zero_init": _FLAG,
}
_HYPER_FIELDS = dict.fromkeys(COND_ORDER, _NUMBER)
_DIST_FIELDS = dict.fromkeys(("a", "b", "h_b"), _NUMBER)
_BASELINE_GRID_FIELDS = dict.fromkeys(COND_ORDER, _NUMBER_LIST)
_SUMMARY_ROW_FIELDS = {"run_id": _STRING, "kind": _STRING, "seed": _INTEGER, "auc": _NUMBER, "params": _OBJECT}
_LCT_GRID_FIELDS = {
    "h_b": _NUMBER_LIST,
    "omega": _NUMBER_LIST,
    "gamma": _NUMBER,
    "conditioned": (lambda v: v in COND_ORDER, f"one of {list(COND_ORDER)}"),
    "lambda_range": (lambda v: _is_number_list(v) and len(v) == 2, "two numbers [lo, hi]"),
}


def _require_keys(obj: dict, allowed: set[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{context}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")


def _check(value, field: tuple, context: str) -> None:
    accepts, expected = field
    if not accepts(value):
        raise ValueError(f"{context}: expected {expected}, got {value!r}")


def _fields_from_json(obj: dict, fields: dict[str, tuple], context: str) -> dict:
    """obj checked key by key against its field table; lists become tuples."""
    _require_keys(obj, set(fields), context)
    for key, value in obj.items():
        _check(value, fields[key], f"{context}.{key}")
    return {key: tuple(value) if isinstance(value, list) else value for key, value in obj.items()}


@contextmanager
def _naming(context: str):
    """Prefix a ValueError raised in the block with the config key path it comes from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from exc


def load_json(path) -> dict:
    """Parsed JSON file; a syntax error becomes a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _hyper_from_json(obj: dict, context: str) -> VsHyperParams:
    return VsHyperParams(**{k: float(v) for k, v in _fields_from_json(obj, _HYPER_FIELDS, context).items()})


def _dist_from_json(obj, context: str) -> float | LinearDistribution:
    if _is_number(obj):
        return float(obj)
    fields = _fields_from_json(obj, _DIST_FIELDS, context)
    missing = set(_DIST_FIELDS) - set(fields)
    if missing:
        raise ValueError(f"{context}: missing keys {sorted(missing)}")
    return make_linear(float(fields["a"]), float(fields["b"]), float(fields["h_b"]))


def _lct_from_json(obj: dict, context: str) -> LctConfig:
    _require_keys(obj, {"base", "conditioned"}, context)
    base = _hyper_from_json(obj.get("base", {}), f"{context}.base")
    conditioned_raw = obj.get("conditioned")
    if not isinstance(conditioned_raw, dict) or not conditioned_raw:
        raise ValueError(f"{context}.conditioned: expected a non-empty object")
    conditioned = {name: _dist_from_json(entry, f"{context}.conditioned.{name}") for name, entry in conditioned_raw.items()}
    return LctConfig(base=base, conditioned=conditioned)


def train_config_from_json(obj: dict, context: str) -> TrainConfig:
    """The `train` block of a train or sweep config."""
    return TrainConfig(**_fields_from_json(obj, _TRAIN_FIELDS, context))


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
    eval_lambda = config.get("eval_lambda", 0.0)
    _check(eval_lambda, _NUMBER, "config.eval_lambda")
    return float(eval_lambda)


def train_spec_from_json(config: dict) -> TrainSpec:
    """Parse a `vslct train` config: mode, hyper or lct, train, model, eval_lambda."""
    _require_keys(config, {"mode", "hyper", "lct", "train", "model", "eval_lambda"}, "config")
    mode = config.get("mode")
    if mode not in ("baseline", "lct"):
        raise ValueError(f"config.mode must be 'baseline' or 'lct', got {mode!r}")
    train = train_config_from_json(config.get("train", {}), "config.train")
    model_kwargs = _fields_from_json(config.get("model", {}), _MODEL_FIELDS, "config.model")
    if mode == "baseline":
        if "lct" in config:
            raise ValueError("config: baseline mode does not take an 'lct' section")
        if "eval_lambda" in config:
            raise ValueError("config: baseline mode does not take 'eval_lambda'")
        hyper = _hyper_from_json(config.get("hyper", {}), "config.hyper")
        run = SweepRun(run_id=mode, kind=mode, seed=train.seed, eval_cond=(0.0,), hyper=hyper)
    else:
        if "hyper" in config:
            raise ValueError("config: lct mode takes an 'lct' section, not 'hyper'")
        lct = _lct_from_json(config.get("lct", {}), "config.lct")
        run = SweepRun(run_id=mode, kind=mode, seed=train.seed, eval_cond=(_eval_lambda(config),) * lct.cond_dim, lct=lct)
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
    seeds = config.get("seeds")
    _check(seeds, _SEEDS, "config.seeds")
    eval_cond = (_eval_lambda(config),)
    runs: list[SweepRun] = []
    if "baseline_grid" in config:
        grid = _fields_from_json(config["baseline_grid"], _BASELINE_GRID_FIELDS, "config.baseline_grid")
        for omega, gamma, tau, seed in product(grid.get("omega", [0.5]), grid.get("gamma", [0.0]), grid.get("tau", [0.0]), seeds):
            with _naming("config.baseline_grid"):
                hyper = VsHyperParams(omega=float(omega), gamma=float(gamma), tau=float(tau))
            runs.append(SweepRun(run_id=f"base-w{omega}-g{gamma}-t{tau}-s{seed}", kind="baseline", seed=seed, eval_cond=(0.0,), hyper=hyper))
    if "lct_grid" in config:
        grid = _fields_from_json(config["lct_grid"], _LCT_GRID_FIELDS, "config.lct_grid")
        conditioned_name = grid.get("conditioned", "tau")
        if conditioned_name in grid:
            raise ValueError(f"config.lct_grid.{conditioned_name}: has no effect when conditioned is {conditioned_name!r}, since every draw replaces it")
        lo, hi = (float(v) for v in grid.get("lambda_range", [0.0, 3.0]))
        gamma = float(grid.get("gamma", 0.0))
        # an h_b or a drawn value out of range depends on lambda_range, so its error names it
        range_context = f"config.lct_grid.lambda_range {[lo, hi]}" + ("" if "lambda_range" in grid else " (the default)")
        for h_b, omega in product(grid.get("h_b", [0.0]), grid.get("omega", [0.5])):
            with _naming("config.lct_grid"):
                base = VsHyperParams(omega=float(omega), gamma=gamma, tau=0.0)
            with _naming(range_context):
                lct = LctConfig(base=base, conditioned={conditioned_name: make_linear(lo, hi, float(h_b))})
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
