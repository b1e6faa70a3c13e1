"""Two-layer ReLU MLP with FiLM conditioning, in plain numpy.

Architecture: input -> dense -> ReLU -> dense -> ReLU -> FiLM -> dense
-> 2 logits.  The FiLM block maps the conditioning vector through its own
small network (dense -> ReLU -> dense) to a per-feature shift mu (and,
in affine mode, a scale sigma = 1 + raw) applied to the penultimate
activation f as sigma * f + mu.

The default is additive-only conditioning with the FiLM output layer
zero-initialized, so a freshly initialized model ignores its conditioning
input entirely and training starts from an unconditioned network.

Conditioning comes either per row, `cond` of shape (n, cond_dim), or as
one row of shape (1, cond_dim) shared by the whole batch; the shape alone
selects the path.  A shared row runs the FiLM network once and its mu
(and sigma) broadcast over the batch; `backward` then sums the FiLM
output gradient over the batch before the FiLM backward.  Training and
evaluation use the shared row, since one batch has one loss setting.

All parameters live in one flat float64 buffer, `MlpFilmModel.flat`;
`MlpFilmModel.params` maps each name of PARAM_KEYS to a reshaped view of
its slice, in that order.  Writing through a view writes the buffer, and
`sgd_step` updates the whole buffer with a few vector operations.

Each trunk layer adds its bias and applies the ReLU in place on the
fresh matmul output, so a batch allocates one (n, width) array per
layer; `x` and the parameters are never written.  `forward` keeps
those arrays for `backward`, which scoring never runs, so `scores`
calls `forward` on consecutive blocks of SCORE_BLOCK_ROWS rows: a
block's activations (1 MB each at width 64) stay in cache and the next
block reuses their pages, where one call on 10^5 rows faults in three
51 MB arrays and streams them through memory.  Blocked scores can differ
from one unblocked `forward` in the last few bits (see `scores`).

Forward/backward are written by hand so the package has no autodiff
dependency; gradients are verified against finite differences in tests.

Checkpoints are JSON with every float stored via `float.hex()`, making
save/load round trips bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from vslct._util import atomic_write_text, floats_from_hex, floats_to_hex
from vslct.losses import sigmoid

# Rows per `forward` call in `MlpFilmModel.scores`.  A set of at most this
# many rows, such as every sweep's test set, is scored by one call.
SCORE_BLOCK_ROWS = 2048

__all__ = [
    "ModelConfig",
    "MlpFilmModel",
    "count_film_weights",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
    "minority_score",
]


@dataclass(frozen=True)
class ModelConfig:
    """Static shape/behavior description of an MLP-with-FiLM model."""

    input_dim: int
    cond_dim: int = 1
    trunk_widths: tuple[int, int] = (64, 64)
    film_hidden: int = 128
    film_affine: bool = False
    film_zero_init: bool = True

    def __post_init__(self):
        object.__setattr__(self, "trunk_widths", tuple(int(w) for w in self.trunk_widths))
        if self.input_dim < 1 or self.cond_dim < 1 or self.film_hidden < 1:
            raise ValueError(f"dimensions must be >= 1: {self}")
        if len(self.trunk_widths) != 2 or any(w < 1 for w in self.trunk_widths):
            raise ValueError(f"trunk_widths must be two sizes >= 1, got {self.trunk_widths}")

    @property
    def film_out_dim(self) -> int:
        mult = 2 if self.film_affine else 1
        return mult * self.trunk_widths[1]


def count_film_weights(config: ModelConfig) -> int:
    """Number of weight entries (biases excluded) in the FiLM block."""
    return config.cond_dim * config.film_hidden + config.film_hidden * config.film_out_dim


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter array; this order is PARAM_KEYS and the flat buffer's layout."""
    w1, w2 = config.trunk_widths
    return {
        "trunk0_w": (config.input_dim, w1),
        "trunk0_b": (w1,),
        "trunk1_w": (w1, w2),
        "trunk1_b": (w2,),
        "film0_w": (config.cond_dim, config.film_hidden),
        "film0_b": (config.film_hidden,),
        "film1_w": (config.film_hidden, config.film_out_dim),
        "film1_b": (config.film_out_dim,),
        "head_w": (w2, 2),
        "head_b": (2,),
    }


class MlpFilmModel:
    """Bundles a ModelConfig with its parameters.

    The parameters are one flat float64 buffer, `flat`; `params` maps each
    name of PARAM_KEYS to a view of its slice.  The fixed key order defines
    the buffer layout and every iteration order (initialization draws,
    checkpoints), which keeps runs reproducible.
    """

    PARAM_KEYS = tuple(_param_shapes(ModelConfig(input_dim=1)))

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        missing = set(self.PARAM_KEYS) - set(params)
        if missing:
            raise ValueError(f"missing parameter arrays: {sorted(missing)}")
        shapes = _param_shapes(config)
        self.config = config
        self.flat = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        self.params: dict[str, np.ndarray] = {}
        start = 0
        for key, shape in shapes.items():
            value = np.asarray(params[key], dtype=np.float64)
            if value.shape != shape:
                raise ValueError(f"{key}: expected shape {shape}, got {value.shape}")
            view = self.flat[start : start + value.size].reshape(shape)
            view[...] = value
            self.params[key] = view
            start += value.size

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "MlpFilmModel":
        """He-initialized weights, zero biases.

        With config.film_zero_init the FiLM output weights start at zero,
        so mu = 0 (and sigma = 1 in affine mode): the conditioning input
        has no effect until training moves those weights.
        """

        def draw(key: str, shape: tuple[int, ...]) -> np.ndarray:
            if key.endswith("_b") or (key == "film1_w" and config.film_zero_init):
                return np.zeros(shape)
            return rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])

        return cls(config, {key: draw(key, shape) for key, shape in _param_shapes(config).items()})

    def copy(self) -> "MlpFilmModel":
        return MlpFilmModel(self.config, self.params)

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, dict]:
        """Logits of shape (n, 2) plus the cache consumed by backward.

        x: (n, input_dim); cond: (n, cond_dim) per row, or (1, cond_dim)
        for one conditioning row shared by every row of x.
        """
        p = self.params
        x, cond = self._checked_inputs(x, cond)
        h0 = x @ p["trunk0_w"]
        h0 += p["trunk0_b"]
        np.maximum(h0, 0.0, out=h0)
        h1 = h0 @ p["trunk1_w"]
        h1 += p["trunk1_b"]
        np.maximum(h1, 0.0, out=h1)
        g = np.maximum(cond @ p["film0_w"] + p["film0_b"], 0.0)
        film_out = g @ p["film1_w"] + p["film1_b"]
        c = self.config.trunk_widths[1]
        mu = film_out[:, :c]
        sigma = 1.0 + film_out[:, c:] if self.config.film_affine else None
        hmod = (sigma * h1 if sigma is not None else h1) + mu
        logits = hmod @ p["head_w"] + p["head_b"]
        cache = {"x": x, "cond": cond, "h0": h0, "h1": h1, "g": g, "sigma": sigma, "hmod": hmod}
        return logits, cache

    def _checked_inputs(self, x: np.ndarray, cond: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and cond as float64 arrays, after checking the shapes `forward` accepts."""
        x = np.asarray(x, dtype=np.float64)
        cond = np.asarray(cond, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(f"x must have shape (n, {self.config.input_dim}), got {x.shape}")
        if cond.ndim != 2 or cond.shape[0] not in (1, x.shape[0]) or cond.shape[1] != self.config.cond_dim:
            raise ValueError(f"cond must have shape ({x.shape[0]}, {self.config.cond_dim}) or (1, {self.config.cond_dim}), got {cond.shape}")
        return x, cond

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients of an objective whose logit gradient is dlogits.

        dlogits must already carry any batch averaging; backward is linear.
        With a shared conditioning row, the FiLM output gradient is summed
        over the batch first, so the FiLM backward runs on one row.
        """
        p = self.params
        x, cond = cache["x"], cache["cond"]
        h0, h1, g, sigma, hmod = cache["h0"], cache["h1"], cache["g"], cache["sigma"], cache["hmod"]
        grads: dict[str, np.ndarray] = {}
        grads["head_w"] = hmod.T @ dlogits
        grads["head_b"] = dlogits.sum(axis=0)
        dhmod = dlogits @ p["head_w"].T
        dmu = dhmod
        if sigma is not None:
            dsigma = dhmod * h1
            dfilm_out = np.concatenate([dmu, dsigma], axis=1)
            dh1 = dhmod * sigma
        else:
            dfilm_out = dmu
            dh1 = dhmod
        if cond.shape[0] == 1:
            dfilm_out = dfilm_out.sum(axis=0, keepdims=True)
        grads["film1_w"] = g.T @ dfilm_out
        grads["film1_b"] = dfilm_out.sum(axis=0)
        dg = (dfilm_out @ p["film1_w"].T) * (g > 0.0)
        grads["film0_w"] = cond.T @ dg
        grads["film0_b"] = dg.sum(axis=0)
        dpre1 = dh1 * (h1 > 0.0)
        grads["trunk1_w"] = h0.T @ dpre1
        grads["trunk1_b"] = dpre1.sum(axis=0)
        dpre0 = (dpre1 @ p["trunk1_w"].T) * (h0 > 0.0)
        grads["trunk0_w"] = x.T @ dpre0
        grads["trunk0_b"] = dpre0.sum(axis=0)
        return grads

    def scores(self, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """Minority-class softmax probability of each row.

        Takes the inputs of `forward` and runs it on consecutive blocks of
        SCORE_BLOCK_ROWS rows, slicing per-row conditioning along with x,
        so memory stays bounded by one block's activations.  Up to one
        block, that is a single `forward` on the whole input, so the
        scores are bit for bit those of `forward`.  Above it, a score can
        differ from an unblocked `forward`'s by a few ulps (at most
        1.7e-15 measured on 10^5 rows): the trunk products come out the
        same for any row count, but OpenBLAS picks its kernel for the
        (rows, width) @ (width, 2) head product by row count.
        """
        x, cond = self._checked_inputs(x, cond)
        n = x.shape[0]
        per_row = cond.shape[0] == n
        if n > SCORE_BLOCK_ROWS:
            # glibc maps requests above its mmap threshold afresh and hands
            # freed heap above its trim threshold back to the OS; both
            # thresholds rise to fit the largest mapped block freed so far
            # (mallopt(3)).  Freeing one array of four blocks' activations
            # lifts them above a block's working set, so each block reuses
            # the pages of the block before instead of faulting in new ones.
            # One block has nothing to reuse, and the heap kept back would
            # only raise the resident memory of callers scoring small sets.
            np.empty(4 * SCORE_BLOCK_ROWS * max(self.config.trunk_widths))
        out = np.empty(n)
        for start in range(0, n, SCORE_BLOCK_ROWS):
            stop = start + SCORE_BLOCK_ROWS
            # [0] drops the block's cache before the next block allocates its own
            logits = self.forward(x[start:stop], cond[start:stop] if per_row else cond)[0]
            out[start:stop] = minority_score(logits)
        return out


def minority_score(logits: np.ndarray) -> np.ndarray:
    """Softmax probability of class 1 from (n, 2) logits: sigmoid(z1 - z0)."""
    logits = np.asarray(logits, dtype=np.float64)
    return sigmoid(logits[:, 1] - logits[:, 0])


# -- optimization -----------------------------------------------------------


def sgd_step(
    params: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    clip_norm: float,
) -> float:
    """One SGD-with-momentum update of flat 1-D arrays, in place; returns the pre-clip gradient norm.

    Order of operations: clip to the global-norm budget first (gradients
    under it are used unscaled, so clipping is exactly inactive; inf never clips), then
    fold into the velocity v <- momentum * v + g and move p <- p - lr * v.
    A non-finite norm leaves params and velocity untouched; the caller
    decides how to report it.
    """
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
    if not clip_norm > 0.0:
        raise ValueError(f"clip_norm must be > 0, got {clip_norm}")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(float(np.dot(grads, grads)))
    if not math.isfinite(norm):
        return norm
    if norm > clip_norm:
        grads = grads * (clip_norm / norm)
    velocity *= momentum
    velocity += grads
    params -= lr * velocity
    return norm


# -- checkpoints ------------------------------------------------------------


def _array_to_hex(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": floats_to_hex(a)}


def _array_from_hex(obj: dict) -> np.ndarray:
    return floats_from_hex(obj["data"]).reshape(obj["shape"])


def save_checkpoint(path, model: MlpFilmModel, meta: dict | None = None) -> None:
    """Serialize config + parameters as JSON, atomically; floats as hex."""
    payload = {
        "config": asdict(model.config),
        "params": {k: _array_to_hex(v) for k, v in model.params.items()},
        "meta": meta or {},
    }
    atomic_write_text(path, json.dumps(payload))


def load_checkpoint(path) -> tuple[MlpFilmModel, dict]:
    """Inverse of :func:`save_checkpoint`; returns (model, meta)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        cfg_dict = dict(payload["config"])
        cfg_dict["trunk_widths"] = tuple(cfg_dict["trunk_widths"])
        config = ModelConfig(**cfg_dict)
        params = {k: _array_from_hex(v) for k, v in payload["params"].items()}
        meta = payload.get("meta", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from exc
    return MlpFilmModel(config, params), meta
