"""Fixed numpy loops that time how fast the host runs at the moment.

The shared host runs about 1.5x slower for seconds to minutes at a time,
sometimes for a whole run.  An untraced run times one of these loops
right after every op; the op's time divided by the loop's cancels most of
that, because both slow down together (README.md, "Noise").  The loops
are benchmark code, so no change to vslct moves them.

* `step`: 40 passes of a two-layer forward and backward on 128 rows,
  bound by per-call overhead like the training step and the read path.
* `matmul`: one 10^4 x 64 by 64 x 128 product and a ReLU, bound by FLOPs
  and memory like scoring 10^5 rows.
"""

from __future__ import annotations

import functools
import time

import numpy as np


@functools.cache
def _arrays(kind: str) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0)
    if kind == "step":
        return rng.standard_normal((128, 34)), rng.standard_normal((34, 128)) * 0.1, rng.standard_normal((128, 1)) * 0.1
    return rng.standard_normal((10_000, 64)), rng.standard_normal((64, 128))


def step() -> float:
    """Seconds for 40 small forward/backward passes."""
    x, w1_init, w2_init = _arrays("step")
    started = time.perf_counter()
    w1, w2 = w1_init.copy(), w2_init.copy()
    for _ in range(40):
        h = np.tanh(x @ w1)
        g = h @ w2 - 0.5
        gh = (g @ w2.T) * (1.0 - h * h)
        w2 -= 0.001 * (h.T @ g)
        w1 -= 0.001 * (x.T @ gh)
    return time.perf_counter() - started


def matmul() -> float:
    """Seconds for one large product and ReLU."""
    a, b = _arrays("matmul")
    started = time.perf_counter()
    np.maximum(a @ b, 0.0).sum()
    return time.perf_counter() - started


LOOPS = {"step": step, "matmul": matmul}
