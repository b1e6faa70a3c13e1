"""Linear probability distributions on an interval.

A linear distribution on [a, b] has a density that interpolates linearly
between h_a at a and h_b at b.  Normalization fixes h_a = 2/(b-a) - h_b,
so the family is parameterized by the interval and the density at the
right endpoint alone.  h_b = 1/(b-a) recovers the uniform distribution;
h_b = 0 gives a triangular density falling to zero at b, which favors
small values; h_b = 2/(b-a) favors large ones.

Sampling uses the closed-form inverse CDF, written in the rationalized
form t = 2u / (h_a + sqrt(h_a^2 + 2 s u)) with s the density slope, which
stays accurate as the quadratic term degenerates and maps u=1 to exactly
t = b - a when the arithmetic allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LinearDistribution", "make_linear"]

# Below this slope the density is treated as flat; the quadratic inverse
# would divide near-cancelling quantities for nothing.
_FLAT_EPS = 1e-12


@dataclass(frozen=True)
class LinearDistribution:
    """Distribution on [a, b] with density h_a at a, h_b at b, linear between.

    Instances are created with :func:`make_linear`, which derives h_a from
    normalization and validates the result is a proper density.
    """

    a: float
    b: float
    h_a: float
    h_b: float

    @property
    def slope(self) -> float:
        return (self.h_b - self.h_a) / (self.b - self.a)

    def pdf(self, x):
        """Density at x; zero outside [a, b]."""
        x = np.asarray(x, dtype=np.float64)
        t = x - self.a
        inside = (x >= self.a) & (x <= self.b)
        out = np.where(inside, self.h_a + self.slope * t, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """P(X <= x); clamps to 0 below a and 1 above b."""
        x = np.asarray(x, dtype=np.float64)
        t = np.clip(x - self.a, 0.0, self.b - self.a)
        out = np.minimum(self.h_a * t + 0.5 * self.slope * t * t, 1.0)
        return out if out.ndim else float(out)

    def ppf(self, u):
        """Inverse CDF; u must lie in [0, 1]."""
        u = np.asarray(u, dtype=np.float64)
        if np.any((u < 0.0) | (u > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        s = self.slope
        if abs(self.h_b - self.h_a) < _FLAT_EPS:
            t = u * (self.b - self.a)
        else:
            # Root of (s/2) t^2 + h_a t - u = 0; the product form avoids
            # cancellation when h_a and the discriminant nearly coincide.
            # The radicand equals h_b^2 at u=1 but can round fractionally
            # below zero when h_b = 0, hence the clamp.
            rad = np.maximum(self.h_a * self.h_a + 2.0 * s * u, 0.0)
            denom = self.h_a + np.sqrt(rad)
            t = np.divide(2.0 * u, denom, out=np.zeros_like(u), where=denom > 0.0)
        out = np.where(u >= 1.0, self.b, np.minimum(self.a + t, self.b))
        return out if out.ndim else float(out)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n values by inverse-transform sampling from rng."""
        if n < 0:
            raise ValueError(f"sample size must be >= 0, got {n}")
        return self.ppf(rng.random(n))

    def median(self) -> float:
        return self.ppf(0.5)


def make_linear(a: float, b: float, h_b: float) -> LinearDistribution:
    """Build the linear distribution on [a, b] with density h_b at b.

    Normalization forces h_a = 2/(b-a) - h_b; both endpoint densities must
    be non-negative, which bounds h_b to [0, 2/(b-a)].
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not math.isfinite(h_b):
        raise ValueError(f"h_b must be finite, got {h_b}")
    limit = 2.0 / (b - a)
    if not 0.0 <= h_b <= limit:
        raise ValueError(f"h_b must lie in [0, {limit}] for [{a}, {b}], got {h_b}")
    return LinearDistribution(a=a, b=b, h_a=limit - h_b, h_b=h_b)
