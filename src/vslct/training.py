"""Training loops: fixed-loss baselines and loss-conditional training (LCT).

A baseline run optimizes the VS loss at one fixed hyperparameter point;
the conditioning input of the network is held at a constant vector
(zeros by default) so the same architecture serves both regimes.

An LCT run draws one hyperparameter vector per mini-batch from the
configured distributions and uses it twice: as the conditioning input of
the network and inside the loss applied to that batch.  After training,
one model can be evaluated at any conditioning value on the support.

Every batch conditions on one row: training and evaluation pass the
network a (1, cond_dim) conditioning row, so its FiLM block runs once
per batch instead of once per sample.

A step whose loss or gradient norm is not finite stops the run with a
ValueError naming the epoch, the batch and the conditioning row, so a
diverged run fails where it diverges instead of "finishing" on inf/NaN.

Randomness is split into three independent streams derived from the run
seed (initialization, epoch shuffling, hyperparameter draws), so a
baseline and an LCT run with degenerate point-mass distributions consume
identical shuffle streams and produce bit-identical trajectories.

The optimizer is fixed, not configured: SGD with momentum `MOMENTUM`,
global-norm clipping at `CLIP_NORM`, and the rate times `LR_DROP_FACTOR`
at each of `LR_MILESTONES`, epoch-budget fractions floored to epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from vslct.data import Dataset
from vslct.lindist import LinearDistribution
from vslct.losses import VsHyperParams, vs_loss_and_grad_batch
from vslct.metrics import LabeledScores
from vslct.network import MlpFilmModel, ModelConfig, sgd_step

__all__ = [
    "TrainConfig",
    "LctConfig",
    "TrainResult",
    "COND_ORDER",
    "lr_at_epoch",
    "batch_loss_and_grads",
    "train_baseline",
    "train_lct",
    "evaluate",
]

# Conditioned hyperparameters always appear in this order in the
# network's conditioning vector.
COND_ORDER = ("omega", "gamma", "tau")

# The optimizer every run uses (see the module docstring).
MOMENTUM = 0.9
CLIP_NORM = 0.5
LR_DROP_FACTOR = 0.1
LR_MILESTONES = (0.8, 0.9)


@dataclass(frozen=True)
class TrainConfig:
    """What experiments set; the optimizer is fixed (MOMENTUM, CLIP_NORM, LR_DROP_FACTOR, LR_MILESTONES)."""

    epochs: int = 500
    batch_size: int = 128
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # written so that NaN fails it
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass(frozen=True)
class LctConfig:
    """Which hyperparameters are drawn per batch, and from what.

    conditioned maps a subset of {omega, gamma, tau} to either a
    LinearDistribution or a plain float (a point mass); point masses
    consume no randomness, so such a run collapses exactly onto the
    baseline with that constant.  Values of unconditioned hyperparameters
    come from `base`.
    """

    base: VsHyperParams
    conditioned: dict[str, float | LinearDistribution]

    def __post_init__(self):
        if not self.conditioned:
            raise ValueError("at least one hyperparameter must be conditioned")
        unknown = set(self.conditioned) - set(COND_ORDER)
        if unknown:
            raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
        for name, dist in self.conditioned.items():
            if isinstance(dist, LinearDistribution):
                lo, hi = dist.a, dist.b
            elif isinstance(dist, (int, float)):
                lo = hi = float(dist)
            else:
                raise ValueError(f"{name}: expected a float or LinearDistribution, got {type(dist).__name__}")
            # raises if any support endpoint is out of the legal range
            replace(self.base, **{name: lo})
            replace(self.base, **{name: hi})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n in COND_ORDER if n in self.conditioned)

    @property
    def cond_dim(self) -> int:
        return len(self.conditioned)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One hyperparameter vector, in COND_ORDER, for one mini-batch."""
        out = []
        for name in self.names:
            dist = self.conditioned[name]
            if isinstance(dist, LinearDistribution):
                out.append(float(dist.sample(1, rng)[0]))
            else:
                out.append(float(dist))
        return np.array(out)

    def hyper_at(self, values: np.ndarray) -> VsHyperParams:
        """Base hyperparameters with the conditioned ones set to `values`."""
        return replace(self.base, **dict(zip(self.names, (float(v) for v in values))))


@dataclass
class TrainResult:
    """Trained model plus per-epoch diagnostics."""

    model: MlpFilmModel
    epoch_losses: np.ndarray


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Step-decay learning rate for a 0-based epoch index."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    drops = sum(1 for f in LR_MILESTONES if epoch >= math.floor(f * config.epochs))
    return config.lr * LR_DROP_FACTOR**drops


def batch_loss_and_grads(
    model: MlpFilmModel,
    x: np.ndarray,
    y: np.ndarray,
    cond: np.ndarray,
    hyper: VsHyperParams,
    beta: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean VS loss over the batch and its parameter gradients."""
    logits, cache = model.forward(x, cond)
    losses, g0, g1 = vs_loss_and_grad_batch(y, logits[:, 0], logits[:, 1], hyper, beta)
    dlogits = np.stack([g0, g1], axis=1) / y.shape[0]
    return float(np.mean(losses)), model.backward(cache, dlogits)


def _spawn_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Independent (init, shuffle, hyperparameter-draw) generators."""
    return tuple(np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(3))


def _run_training(data: Dataset, model_config: ModelConfig, config: TrainConfig, batch_settings) -> TrainResult:
    """Shared loop; batch_settings yields (cond_row, hyper) per mini-batch."""
    counts = data.counts
    beta = counts.beta
    init_rng, shuffle_rng, lam_rng = _spawn_streams(config.seed)
    model = MlpFilmModel.init(model_config, init_rng)
    velocity = np.zeros_like(model.flat)
    epoch_losses = np.zeros(config.epochs)
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        perm = shuffle_rng.permutation(data.n)
        total = 0.0
        for batch, start in enumerate(range(0, data.n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            cond_row, hyper = batch_settings(lam_rng)
            loss, grads = batch_loss_and_grads(model, data.x[idx], data.y[idx], cond_row.reshape(1, -1), hyper, beta)
            flat_grads = np.concatenate([grads[k] for k in MlpFilmModel.PARAM_KEYS], axis=None)
            norm = sgd_step(model.flat, flat_grads, velocity, lr=lr, momentum=MOMENTUM, clip_norm=CLIP_NORM)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise ValueError(
                    f"training diverged at epoch {epoch}, batch {batch}, conditioning {cond_row.tolist()}: "
                    f"loss {loss}, gradient norm {norm}"
                )
            total += loss * idx.size
        epoch_losses[epoch] = total / data.n
    return TrainResult(model=model, epoch_losses=epoch_losses)


def train_baseline(
    data: Dataset,
    hyper: VsHyperParams,
    config: TrainConfig,
    model_config: ModelConfig | None = None,
    const_cond: np.ndarray | None = None,
) -> TrainResult:
    """Train at one fixed loss; the conditioning input stays constant.

    const_cond defaults to zeros of the model's conditioning width.
    """
    if model_config is None:
        model_config = ModelConfig(input_dim=data.dim)
    if const_cond is None:
        const_cond = np.zeros(model_config.cond_dim)
    const_cond = np.asarray(const_cond, dtype=np.float64).reshape(-1)
    if const_cond.size != model_config.cond_dim:
        raise ValueError(f"const_cond has {const_cond.size} entries, model expects {model_config.cond_dim}")

    def batch_settings(_rng):
        return const_cond, hyper

    return _run_training(data, model_config, config, batch_settings)


def train_lct(
    data: Dataset,
    lct: LctConfig,
    config: TrainConfig,
    model_config: ModelConfig | None = None,
) -> TrainResult:
    """Loss-conditional training: per batch, one draw feeds input and loss."""
    if model_config is None:
        model_config = ModelConfig(input_dim=data.dim, cond_dim=lct.cond_dim)
    if model_config.cond_dim != lct.cond_dim:
        raise ValueError(f"model cond_dim {model_config.cond_dim} != conditioned hyperparameters {lct.cond_dim}")

    def batch_settings(rng):
        values = lct.draw(rng)
        return values, lct.hyper_at(values)

    return _run_training(data, model_config, config, batch_settings)


def evaluate(model: MlpFilmModel, data: Dataset, eval_cond) -> LabeledScores:
    """Minority-class scores of every sample at a fixed conditioning value."""
    cond_row = np.asarray(eval_cond, dtype=np.float64).reshape(-1)
    if cond_row.size != model.config.cond_dim:
        raise ValueError(f"eval_cond has {cond_row.size} entries, model expects {model.config.cond_dim}")
    return LabeledScores(scores=model.scores(data.x, cond_row.reshape(1, -1)), labels=data.y)
