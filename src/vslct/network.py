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

A model is built from one flat float64 buffer and keeps it, uncopied,
as `MlpFilmModel.flat`; `MlpFilmModel.params` maps each name of
PARAM_KEYS to a reshaped view of its slice, in that order.  Writing
through a view writes the buffer, and `sgd_step` updates the whole
buffer with a few vector operations.

Each trunk layer adds its bias and applies the ReLU in place on its
matmul output; `x` and the parameters are never written.  `forward`
writes into the caller's `Workspace` and records it in its cache, and
`backward` continues in it: every (n, width) product, the logits, the
logit gradient and the masked gradients go through `out=` into its row
buffers (a short batch uses the leading rows), and each parameter
gradient into its view of one flat buffer in `flat`'s layout, which
`sgd_step` takes as it is.  The arrays returned are views, valid until
the workspace's next use.

`scores` runs `forward` on blocks of rows, and each of its threads keeps
one workspace for all its blocks, so each block's activations stay in
cache and reuse the pages of the block before.  A set of at most
SCORE_BLOCK_ROWS rows is one `forward` on the calling thread.  A larger
set is cut into fixed blocks of SCORE_BLOCK_ROWS // 2 rows (the last
one shorter), which up to W threads (the caller among them) take in turn
from one shared iterator.  numpy releases the GIL inside matmul and
large ufunc loops, so the threads run in parallel.  W is the usable core
count divided by OPENBLAS_NUM_THREADS when that variable is a positive
integer, and 1 otherwise, since OpenBLAS then already uses every core;
at W = 1 the blocks run one after another on the calling thread.  With
a shared conditioning row, the call tiles its row constants (trunk
biases, FiLM terms, head bias) to SCORE_TILE_ROWS rows once, and
`forward` adds each tile to a block's row groups in one numpy loop
rather than one loop per row.  The blocks do not depend on W, and a
tile holds the numbers of its row, so the scores depend on neither; but
blocked scores can differ from one unblocked `forward` in the last few
bits (see `scores`).

Forward/backward are written by hand so the package has no autodiff
dependency; gradients are verified against finite differences in tests.

A checkpoint is a record (`vslct._util.write_record`), like a sweep row:
one line of JSON holding the ModelConfig fields, the caller's meta and
the dtype and shape of `flat`, then a newline and `flat`'s little-endian
float64 bytes, so save/load round trips are bit-exact; a load builds the
model on the array it decodes.  A checkpoint of an older format (1 and 2
were JSON throughout) fails to load with a message to recompute it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from vslct._util import checked_int, read_record, record_array, write_record
from vslct.losses import sigmoid

# `MlpFilmModel.scores` runs one `forward` on a set of at most this many
# rows, such as every sweep's test set, and blocks of half as many above.
SCORE_BLOCK_ROWS = 2048
# With a shared conditioning row, `scores` adds each row constant to a
# block as (n // k, k, width) groups of this many rows (see `_groups`).
SCORE_TILE_ROWS = 128

__all__ = [
    "ModelConfig",
    "MlpFilmModel",
    "Workspace",
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
        for name in ("input_dim", "cond_dim", "film_hidden"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        object.__setattr__(self, "trunk_widths", tuple(checked_int("trunk_widths entry", w) for w in self.trunk_widths))
        if len(self.trunk_widths) != 2:
            raise ValueError(f"trunk_widths must be two sizes >= 1, got {self.trunk_widths}")
        for name in ("film_affine", "film_zero_init"):
            if not isinstance(getattr(self, name), bool | np.bool_):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bool(getattr(self, name)))

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


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Each name of `shapes` mapped to a reshaped view of its slice of `flat`, in order."""
    views = {}
    start = 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[start : start + size].reshape(shape)
        start += size
    return views


def _param_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in _param_shapes(config).values())


def _row_widths(config: ModelConfig) -> dict[str, int]:
    """Width of every (n, width) array a `Workspace` holds."""
    w1, w2 = config.trunk_widths
    return {"h0": w1, "h1": w2, "hmod": w2, "logits": 2, "dlogits": 2, "dh": w2, "dpre1": w2, "dpre0": w1}


class Workspace:
    """The arrays `forward` and `backward` write, for one model shape and batches of up to `rows` rows.

    The row buffers are (rows, width) views of one allocation.  Training
    makes one workspace per run and `scores` one per thread per call, and
    each reuses it for every batch or block (see the module docstring).
    `flat_grads` has the layout of `MlpFilmModel.flat`, and `grads` maps
    each name of PARAM_KEYS to a view of its slice.  Only `scores` sets
    `_constants`, on the workspaces it makes (see `forward`).  A workspace
    belongs to the caller that made it and is never stored on a model, so
    `MlpFilmModel.copy` and checkpoints cannot see it.
    """

    def __init__(self, config: ModelConfig, rows: int):
        self.rows = rows
        self._constants = None
        widths = _row_widths(config)
        self._full = _views(np.empty(rows * sum(widths.values())), {name: (rows, w) for name, w in widths.items()})
        self.flat_grads = np.zeros(_param_count(config))
        self.grads = _views(self.flat_grads, _param_shapes(config))

    def take(self, n: int) -> dict[str, np.ndarray]:
        """The leading n rows of every row buffer, by name."""
        if n == self.rows:
            return self._full
        if n > self.rows:
            raise ValueError(f"a batch of {n} rows does not fit a workspace of {self.rows} rows")
        return {name: a[:n] for name, a in self._full.items()}


class MlpFilmModel:
    """Bundles a ModelConfig with the flat buffer it is built from.

    `flat`, a C-contiguous, writeable float64 vector of the config's
    parameter count, is kept without a copy; `params` maps each name of
    PARAM_KEYS to a view of its slice.  The fixed key order defines the
    buffer layout and every iteration order (initialization draws,
    checkpoints), which keeps runs reproducible.
    """

    PARAM_KEYS = tuple(_param_shapes(ModelConfig(input_dim=1)))

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        shape = (_param_count(config),)
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == shape and flat.flags.c_contiguous and flat.flags.writeable):
            got = f"{getattr(flat, 'dtype', type(flat).__name__)} of shape {np.shape(flat)}"
            raise ValueError(f"flat must be a C-contiguous, writeable float64 array of shape {shape}, got {got}")
        self.config = config
        self.flat = flat
        self.params = _views(flat, _param_shapes(config))

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

        return cls(config, np.concatenate([draw(key, shape) for key, shape in _param_shapes(config).items()], axis=None))

    def copy(self) -> "MlpFilmModel":
        return MlpFilmModel(self.config, self.flat.copy())

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cond: np.ndarray, workspace: Workspace) -> tuple[np.ndarray, dict | None]:
        """Logits of shape (n, 2) plus the cache consumed by backward.

        x: (n, input_dim); cond: (n, cond_dim) per row, or (1, cond_dim)
        for one conditioning row shared by every row of x.  The logits and
        the cached activations are views of the workspace's leading n rows,
        and the cache records the workspace for `backward`.  The trunk
        biases, the FiLM terms and the head bias are `_row_constants(cond)`,
        broadcast over the rows.

        A workspace that `scores` makes for a shared conditioning row
        carries `_constants`, those of this model and cond tiled to
        SCORE_TILE_ROWS rows, and is for scoring: where that row count
        divides n, each tile is added or multiplied into every group of as
        many rows at once, and the FiLM network does not run; the FiLM
        output overwrites h1 in place, and the cache is None.  Each entry
        gets the same operation on the same numbers either way.
        """
        x, cond = self._checked_inputs(x, cond)
        n = x.shape[0]
        out = workspace.take(n)
        scoring = workspace._constants is not None
        t, k = workspace._constants, SCORE_TILE_ROWS
        if not scoring or n % k:
            t, k = self._row_constants(cond), 1
        p = self.params
        h0 = np.matmul(x, p["trunk0_w"], out=out["h0"])
        np.add(_groups(h0, k), t["trunk0_b"], out=_groups(h0, k))
        np.maximum(h0, 0.0, out=h0)
        h1 = np.matmul(h0, p["trunk1_w"], out=out["h1"])
        np.add(_groups(h1, k), t["trunk1_b"], out=_groups(h1, k))
        np.maximum(h1, 0.0, out=h1)
        hmod = h1 if scoring else out["hmod"]
        if t["sigma"] is not None:
            np.multiply(t["sigma"], _groups(h1, k), out=_groups(hmod, k))
            np.add(_groups(hmod, k), t["mu"], out=_groups(hmod, k))
        else:
            np.add(_groups(h1, k), t["mu"], out=_groups(hmod, k))
        logits = np.matmul(hmod, p["head_w"], out=out["logits"])
        np.add(_groups(logits, k), t["head_b"], out=_groups(logits, k))
        if scoring:
            return logits, None
        cache = {"x": x, "cond": cond, "h0": h0, "h1": h1, "g": t["g"], "sigma": t["sigma"], "hmod": hmod, "workspace": workspace}
        return logits, cache

    def _row_constants(self, cond: np.ndarray) -> dict:
        """What `forward` adds to or multiplies into each row, by name, for a checked cond.

        trunk0_b, trunk1_b and head_b are the parameters; g is the FiLM
        hidden activation of cond's rows, mu their FiLM shift, and sigma
        their FiLM scale in affine mode (None otherwise).
        """
        p = self.params
        g = np.maximum(cond @ p["film0_w"] + p["film0_b"], 0.0)
        film_out = g @ p["film1_w"] + p["film1_b"]
        c = self.config.trunk_widths[1]
        sigma = 1.0 + film_out[:, c:] if self.config.film_affine else None
        return {"trunk0_b": p["trunk0_b"], "trunk1_b": p["trunk1_b"], "g": g, "mu": film_out[:, :c], "sigma": sigma, "head_b": p["head_b"]}

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
        over the batch first, so the FiLM backward runs on one row.  Each
        gradient is written into its view of the forward's
        `workspace.flat_grads`, and the returned mapping is its `grads`.
        """
        p = self.params
        x, cond, workspace = cache["x"], cache["cond"], cache["workspace"]
        h0, h1, g, sigma, hmod = cache["h0"], cache["h1"], cache["g"], cache["sigma"], cache["hmod"]
        out, grads = workspace.take(dlogits.shape[0]), workspace.grads
        # np.add.reduce is the kernel behind ndarray.sum, without its Python wrapper
        grads["head_w"] = np.matmul(hmod.T, dlogits, out=grads["head_w"])
        grads["head_b"] = np.add.reduce(dlogits, axis=0, out=grads["head_b"])
        dhmod = np.matmul(dlogits, p["head_w"].T, out=out["dh"])
        if sigma is not None:
            dsigma = dhmod * h1
            dfilm_out = np.concatenate([dhmod, dsigma], axis=1)
            # dhmod is read for the last time above, so dh1 may take its buffer
            dh1 = np.multiply(dhmod, sigma, out=out["dh"])
        else:
            dfilm_out = dhmod
            dh1 = dhmod
        if cond.shape[0] == 1:
            dfilm_out = np.add.reduce(dfilm_out, axis=0, keepdims=True)
        grads["film1_w"] = np.matmul(g.T, dfilm_out, out=grads["film1_w"])
        grads["film1_b"] = np.add.reduce(dfilm_out, axis=0, out=grads["film1_b"])
        dg = (dfilm_out @ p["film1_w"].T) * (g > 0.0)
        grads["film0_w"] = np.matmul(cond.T, dg, out=grads["film0_w"])
        grads["film0_b"] = np.add.reduce(dg, axis=0, out=grads["film0_b"])
        dpre1 = np.multiply(dh1, h1 > 0.0, out=out["dpre1"])
        grads["trunk1_w"] = np.matmul(h0.T, dpre1, out=grads["trunk1_w"])
        grads["trunk1_b"] = np.add.reduce(dpre1, axis=0, out=grads["trunk1_b"])
        dpre0 = np.matmul(dpre1, p["trunk1_w"].T, out=out["dpre0"])
        np.multiply(dpre0, h0 > 0.0, out=dpre0)
        grads["trunk0_w"] = np.matmul(x.T, dpre0, out=grads["trunk0_w"])
        grads["trunk0_b"] = np.add.reduce(dpre0, axis=0, out=grads["trunk0_b"])
        return grads

    def scores(self, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """Minority-class softmax probability of each row.

        Takes the inputs of `forward`.  Up to SCORE_BLOCK_ROWS rows, that
        is a single `forward` on the whole input on the calling thread, so
        the scores are bit for bit those of `forward`.  Above it, the rows
        are cut into blocks of SCORE_BLOCK_ROWS // 2, and min(W, blocks)
        threads, W = `_score_workers()` and the caller among them, take
        blocks from one shared iterator and run `forward` on them in a
        workspace of their own, slicing per-row conditioning along with x;
        each block's scores go into its own slice of the output.  With a
        shared conditioning row the caller first tiles the call's row
        constants to SCORE_TILE_ROWS rows, once, and every workspace
        carries them.  A block is the same rows whichever thread runs it,
        and a tile adds or multiplies the same numbers as its broadcast
        row, so the scores depend on neither W nor the tiles.

        Blocked scores can differ from an unblocked `forward`'s by a few
        ulps, since OpenBLAS picks its kernel for the (rows, width) @
        (width, 2) head product by row count, and numpy computes a one-row
        block, the last block of a set of 1 more than a multiple of
        SCORE_BLOCK_ROWS // 2, as a matrix-vector product.  An exception
        in any thread is raised here once every thread has been joined.
        """
        x, cond = self._checked_inputs(x, cond)
        n = x.shape[0]
        if n <= SCORE_BLOCK_ROWS:
            return minority_score(self.forward(x, cond, Workspace(self.config, n))[0])
        rows = SCORE_BLOCK_ROWS // 2
        starts = range(0, n, rows)
        workers = min(_score_workers(), len(starts))
        blocks = iter(starts)
        per_row = cond.shape[0] == n
        constants = None if per_row else self._tiled_constants(cond)
        out = np.empty(n)
        errors = []

        def score_blocks() -> None:
            try:
                # made on the thread that uses it, so its pages stay in that thread's
                # malloc arena between calls instead of being returned and faulted in again
                workspace = Workspace(self.config, rows)
                workspace._constants = constants
                for start in blocks:
                    stop = start + rows
                    logits = self.forward(x[start:stop], cond[start:stop] if per_row else cond, workspace)[0]
                    out[start:stop] = minority_score(logits)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=score_blocks) for _ in range(workers - 1)]
        for thread in threads:
            thread.start()
        score_blocks()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return out

    def _tiled_constants(self, cond: np.ndarray) -> dict:
        """`_row_constants(cond)` of a shared row, with each one-row term tiled to SCORE_TILE_ROWS rows."""
        constants = self._row_constants(cond)
        for key in ("trunk0_b", "trunk1_b", "mu", "sigma", "head_b"):
            if constants[key] is not None:
                constants[key] = np.tile(constants[key], (SCORE_TILE_ROWS, 1))
        return constants


def _groups(a: np.ndarray, k: int) -> np.ndarray:
    """The (n, width) array a as a view of shape (n // k, k, width), or a itself for k = 1.

    numpy adds a (k, width) tile to every group in one loop over k * width
    entries, where it adds a broadcast row in one loop per row.
    """
    if k == 1:
        return a
    groups = a.reshape(-1, k, a.shape[1])
    # the workspace's leading rows are C-contiguous, so reshape makes a view
    assert np.may_share_memory(groups, a)
    return groups


def _score_workers() -> int:
    """Threads `scores` splits a large set over: usable cores // OPENBLAS_NUM_THREADS if that is a positive integer, else 1."""
    try:
        blas_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        return 1
    if blas_threads < 1:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cores // blas_threads)


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
    if not 0.0 < lr < math.inf:
        raise ValueError(f"lr must be a finite number > 0, got {lr}")
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


def save_checkpoint(path, model: MlpFilmModel, meta: dict | None = None) -> None:
    """Store config, meta ({} for None) and the flat parameter buffer as a record, atomically; a meta that is not a dict or holds a non-finite float raises ValueError, and nothing is written."""
    if not isinstance(meta, dict | None):
        raise ValueError(f"meta must be a dict or None, got {type(meta).__name__}")
    write_record(path, {"config": asdict(model.config), "meta": {} if meta is None else meta}, "flat", model.flat)


def load_checkpoint(path) -> tuple[MlpFilmModel, dict]:
    """Inverse of :func:`save_checkpoint`; returns (model, meta)."""
    try:
        header, body = read_record(path)
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError(f"meta must be a JSON object, got {type(meta).__name__}")
        model = MlpFilmModel(ModelConfig(**header["config"]), record_array(header["flat"], body))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from exc
    return model, meta
