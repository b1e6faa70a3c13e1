"""Vector-scaling (VS) loss family for binary classification under imbalance.

The family modifies cross-entropy with a per-class affine transform of the
logits: a multiplicative factor (n_c/n0)^gamma and an additive factor
tau*log(n_c/n), plus a minority-class weight omega.  At omega=0.5, gamma=0,
tau=0 the loss is plain cross-entropy with both classes weighted 0.5.

Besides the loss and its derivatives, this module exposes the break-even
geometry of the loss landscape: the line of logit pairs where the two
per-label losses coincide, and the softmax score attached to such points.

All functions are pure; everything is float64.  Logarithms are natural
throughout (the additive factor must match the exponential forms used in
the binary simplification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vslct._util import checked_real

__all__ = [
    "VsHyperParams",
    "ClassCounts",
    "LogitPair",
    "BreakEvenLine",
    "LossDifferenceGrid",
    "vs_loss_general",
    "vs_loss_binary",
    "vs_loss_binary_batch",
    "vs_loss_grad_logits",
    "vs_loss_grad_batch",
    "vs_loss_and_grad_batch",
    "vs_loss_partials_hyper",
    "break_even_alpha",
    "break_even_line",
    "break_even_softmax_score",
    "loss_difference_grid",
    "softplus",
    "sigmoid",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VsHyperParams:
    """The loss-family point (omega, gamma, tau).

    omega: weight on the minority class (class 1); the majority class gets
        1 - omega.  Must lie in [0, 1].
    gamma: exponent of the multiplicative logit factor, finite and >= 0.
    tau:   scale of the additive logit factor, finite and >= 0.
    Each is checked as a real number, naming it, and stored as a plain float.
    """

    omega: float = 0.5
    gamma: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("omega", "gamma", "tau"):
            object.__setattr__(self, name, checked_real(name, getattr(self, name)))
        # written so that NaN fails every check
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"tau must be >= 0 and finite, got {self.tau}")


@dataclass(frozen=True)
class ClassCounts:
    """Training-set class sizes; class 0 is the majority by convention."""

    n0: int
    n1: int

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError(f"n1 must be >= 1, got {self.n1}")
        if self.n0 < self.n1:
            raise ValueError(f"need n0 >= n1, got n0={self.n0}, n1={self.n1}")

    @property
    def beta(self) -> float:
        """Imbalance ratio n0/n1 >= 1, as a real number."""
        return self.n0 / self.n1

    @property
    def total(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True)
class LogitPair:
    """Unnormalized model outputs (z0 majority, z1 minority)."""

    z0: float
    z1: float

    def __post_init__(self):
        if not (math.isfinite(self.z0) and math.isfinite(self.z1)):
            raise ValueError(f"logits must be finite, got ({self.z0}, {self.z1})")


@dataclass(frozen=True)
class BreakEvenLine:
    """The locus z1 = slope*z0 + intercept where both label losses agree."""

    slope: float
    intercept: float
    alpha_omega: float


@dataclass(frozen=True)
class LossDifferenceGrid:
    """loss(y=1) - loss(y=0) tabulated over a square logit grid.

    diff[i, j] is the difference at z0 = z0_values[i], z1 = z1_values[j].
    """

    z0_values: np.ndarray
    z1_values: np.ndarray
    diff: np.ndarray


# ---------------------------------------------------------------------------
# Stable elementary pieces
# ---------------------------------------------------------------------------


def softplus(x):
    """log(1 + e^x) without overflow, as max(x, 0) + log1p(e^-|x|); ufunc-compatible."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


def sigmoid(x):
    """1 / (1 + e^-x) without overflow; ufunc-compatible.

    From one e = exp(-|x|): 1 / (1 + e) for x >= 0 and e / (1 + e) below.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def _margin(z0, z1, gamma: float, tau: float, beta: float):
    """The scalar argument m = z0 + tau*log(beta) - z1/beta^gamma.

    loss(1, z) = omega * softplus(m) and loss(0, z) = (1-omega) * softplus(-m).
    """
    return z0 + tau * math.log(beta) - z1 / beta**gamma


# ---------------------------------------------------------------------------
# Loss forms
# ---------------------------------------------------------------------------


def vs_loss_general(y: int, z: LogitPair, p: VsHyperParams, counts: ClassCounts) -> float:
    """VS loss in its general two-class form.

    Applies the per-class affine transform u_c = (n_c/n0)^gamma * z_c
    + tau*log(n_c/n) and returns -omega_y * log softmax(u)_y.  The
    log-sum-exp minus u_y is evaluated as softplus(u_other - u_y): forming
    the log-sum-exp as its own float first would round at ulp(u_y) and
    destroy the relative accuracy of small losses.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    n = counts.total
    u0 = z.z0 + p.tau * math.log(counts.n0 / n)
    u1 = (counts.n1 / counts.n0) ** p.gamma * z.z1 + p.tau * math.log(counts.n1 / n)
    weight = p.omega if y == 1 else 1.0 - p.omega
    loss = weight * softplus(u0 - u1 if y == 1 else u1 - u0)
    if not math.isfinite(loss):
        raise ValueError(f"loss overflowed for z=({z.z0}, {z.z1}), params={p}")
    return loss


def _check_beta(beta: float) -> None:
    """Raise unless beta is an imbalance ratio: a finite number >= 1 (NaN fails too)."""
    if not 1.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 1 and finite, got {beta}")


def _check_label_and_beta(y: int, beta: float) -> None:
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    _check_beta(beta)


def vs_loss_binary(y: int, z: LogitPair, p: VsHyperParams, beta: float) -> float:
    """Simplified binary form of the VS loss.

    loss(0, z) = (1-omega) * log(1 + e^{z1/beta^gamma - z0 - tau*log(beta)})
    loss(1, z) = omega * log(1 + e^{z0 + tau*log(beta) - z1/beta^gamma})

    Equals :func:`vs_loss_general` when beta = n0/n1.  Evaluated as a
    softplus of the margin so beta^tau never appears as a raw factor.
    """
    _check_label_and_beta(y, beta)
    return float(vs_loss_binary_batch(y, z.z0, z.z1, p, beta))


def vs_loss_binary_batch(y: np.ndarray, z0: np.ndarray, z1: np.ndarray, p: VsHyperParams, beta: float) -> np.ndarray:
    """Vectorized :func:`vs_loss_binary` over parallel arrays."""
    return vs_loss_and_grad_batch(y, z0, z1, p, beta)[0]


def vs_loss_grad_logits(y: int, z: LogitPair, p: VsHyperParams, beta: float) -> tuple[float, float]:
    """Analytic (d loss/d z0, d loss/d z1) of the simplified binary loss.

    For y=1 with s = sigmoid(m): (omega*s, -omega*s/beta^gamma); the y=0
    form is the mirror image with weight 1-omega and sigmoid(-m).
    """
    _check_label_and_beta(y, beta)
    g0, g1 = vs_loss_grad_batch(y, z.z0, z.z1, p, beta)
    return float(g0), float(g1)


def vs_loss_grad_batch(y: np.ndarray, z0: np.ndarray, z1: np.ndarray, p: VsHyperParams, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`vs_loss_grad_logits` over parallel arrays."""
    _, g0, g1 = vs_loss_and_grad_batch(y, z0, z1, p, beta)
    return g0, g1


def vs_loss_and_grad_batch(
    y: np.ndarray, z0: np.ndarray, z1: np.ndarray, p: VsHyperParams, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row loss and its logit gradients (d/d z0, d/d z1), in one pass.

    With the signed margin r = m for y=1 and r = -m for y=0, and w the
    weight of the label (omega or 1-omega), the loss is w * softplus(r)
    and d loss/d z0 = +-w * sigmoid(r).  Both come from one e = exp(-|r|):
    softplus(r) = max(r, 0) + log1p(e), and sigmoid(r) is 1/(1+e) for
    r >= 0 and e/(1+e) below, so the values equal :func:`softplus` and
    :func:`sigmoid` of the margin bit for bit.
    """
    m = _margin(np.asarray(z0, dtype=np.float64), np.asarray(z1, dtype=np.float64), p.gamma, p.tau, beta)
    pos = np.asarray(y) == 1
    r = np.where(pos, m, -m)
    e = np.exp(-np.abs(r))
    w = np.where(pos, p.omega, 1.0 - p.omega)
    loss = w * (np.maximum(r, 0.0) + np.log1p(e))
    s = w * (np.where(r >= 0.0, 1.0, e) / (1.0 + e))
    g0 = np.where(pos, s, -s)
    return loss, g0, -g0 / beta**p.gamma


def vs_loss_partials_hyper(z: LogitPair, p: VsHyperParams, beta: float) -> tuple[float, float, float]:
    """Partial derivatives of the y=1 loss w.r.t. (omega, gamma, tau).

    d/d omega = softplus(m), independent of omega.
    d/d tau   = omega * sigmoid(m) * log(beta).
    d/d gamma = (z1/beta^gamma) * d/d tau.
    """
    _check_beta(beta)
    if beta == 1.0:
        raise ValueError(f"beta must be > 1 for hyperparameter partials, got {beta}")
    m = _margin(z.z0, z.z1, p.gamma, p.tau, beta)
    logb = math.log(beta)
    d_omega = softplus(m)
    d_tau = p.omega * sigmoid(m) * logb
    d_gamma = (z.z1 / beta**p.gamma) * d_tau
    return d_omega, d_gamma, d_tau


# ---------------------------------------------------------------------------
# Break-even geometry
# ---------------------------------------------------------------------------

_BRACKET = 50.0


def _bisect_decreasing(f, lo: float, hi: float) -> float:
    """Root of a continuous strictly decreasing f, expanding [lo, hi] as needed."""
    flo, fhi = f(lo), f(hi)
    while flo <= 0.0:
        lo *= 2.0
        flo = f(lo)
    while fhi >= 0.0:
        hi *= 2.0
        fhi = f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def break_even_alpha(omega: float) -> float:
    """Offset alpha solving (1+e^-a)^omega = (1+e^a)^(1-omega).

    The equation's log form omega*softplus(-a) - (1-omega)*softplus(a) is
    strictly decreasing in a, so bisection converges unconditionally; the
    residual of the original equation at the returned root is below 1e-12.
    Zero at omega=0.5, positive above, negative below.  sigmoid(alpha) is
    the softmax score p1 where the weighted cross-entropy curves cross,
    p1^omega = (1-p1)^(1-omega).
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be strictly inside (0, 1), got {omega}")

    def g(a: float) -> float:
        return omega * softplus(-a) - (1.0 - omega) * softplus(a)

    return _bisect_decreasing(g, -_BRACKET, _BRACKET)


def break_even_line(p: VsHyperParams, beta: float) -> BreakEvenLine:
    """Line of logit pairs where the y=1 and y=0 losses are equal.

    From the break-even condition z1/beta^gamma = z0 + tau*log(beta) +
    alpha_omega: slope beta^gamma, intercept beta^gamma*(tau*log(beta) +
    alpha_omega).
    """
    _check_beta(beta)
    alpha = break_even_alpha(p.omega)
    slope = beta**p.gamma
    intercept = slope * (p.tau * math.log(beta) + alpha)
    return BreakEvenLine(slope=slope, intercept=intercept, alpha_omega=alpha)


def break_even_softmax_score(beta: float, tau: float) -> float:
    """Minority softmax score at a break-even sample for omega=0.5, gamma=0.

    A model calibrated to the shifted margin outputs z = (x, x + tau*log(beta))
    at such a sample, whose softmax is beta^tau/(1 + beta^tau) = sigmoid(tau*log(beta)).
    """
    _check_beta(beta)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")
    return sigmoid(tau * math.log(beta))


def loss_difference_grid(p: VsHyperParams, beta: float, lo: float, hi: float, steps: int) -> LossDifferenceGrid:
    """Tabulate loss(1, z) - loss(0, z) on a steps x steps logit grid.

    Cells where the value changes sign straddle the break-even line; the
    sign is negative wherever z1 lies above it.
    """
    _check_beta(beta)
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ValueError(f"need steps >= 2, got {steps}")
    zs = np.linspace(lo, hi, steps)
    z0g, z1g = np.meshgrid(zs, zs, indexing="ij")
    m = _margin(z0g, z1g, p.gamma, p.tau, beta)
    diff = p.omega * softplus(m) - (1.0 - p.omega) * softplus(-m)
    return LossDifferenceGrid(z0_values=zs, z1_values=zs.copy(), diff=diff)

