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

Learning-rate schedule: step decay, multiplying by `lr_drop_factor` at
each milestone, where milestones are fractions of the epoch budget
(floored to whole epochs).
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


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol shared by baseline and LCT runs."""

    epochs: int = 500
    batch_size: int = 128
    lr: float = 0.1
    lr_drop_factor: float = 0.1
    lr_milestones: tuple[float, ...] = (0.8, 0.9)
    momentum: float = 0.9
    clip_norm: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lr_milestones", tuple(float(f) for f in self.lr_milestones))
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # bounds are written so that NaN fails them
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.lr_drop_factor <= 1.0:
            raise ValueError(f"lr_drop_factor must lie in (0, 1], got {self.lr_drop_factor}")
        if any(not 0.0 < f < 1.0 for f in self.lr_milestones):
            raise ValueError(f"milestone fractions must lie in (0, 1), got {self.lr_milestones}")
        if list(self.lr_milestones) != sorted(self.lr_milestones):
            raise ValueError(f"milestone fractions must be sorted, got {self.lr_milestones}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")


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
    drops = sum(1 for f in config.lr_milestones if epoch >= math.floor(f * config.epochs))
    return config.lr * config.lr_drop_factor**drops


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
    init_ss, shuffle_ss, lam_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(init_ss),
        np.random.default_rng(shuffle_ss),
        np.random.default_rng(lam_ss),
    )


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
            norm = sgd_step(model.flat, flat_grads, velocity, lr=lr, momentum=config.momentum, clip_norm=config.clip_norm)
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
