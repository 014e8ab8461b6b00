"""Pseudoproxy noise generators and the AR(1) covariance matrix.

Column j of a generated matrix draws from the substream derived from
(seed, j) via numpy's SeedSequence spawn keys, so matrices are bit-reproducible
for a given spec and columns are independent regardless of how or where they
are filled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ProxyMatrix, TimeSeries

KINDS = ("white", "ar1", "brownian")


@dataclass(frozen=True)
class NoiseSpec:
    """Recipe for one pseudoproxy matrix."""

    kind: str
    n: int
    p: int
    seed: int
    phi: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {KINDS}")
        for name, minimum in (("n", 2), ("p", 1), ("seed", 0)):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {x!r}")
        if self.kind == "ar1":
            if self.phi is None or not 0.0 <= self.phi < 1.0:
                raise ValueError("ar1 noise requires 0 <= phi < 1")
        elif self.phi is not None:
            raise ValueError(f"phi is only meaningful for ar1 noise, not {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "ar1":
            return f"ar1_{self.phi:g}"
        return self.kind


def column_normals(seed: int, n: int, p: int) -> np.ndarray:
    """n x p standard-normal draws, column j from substream (seed, j)."""
    out = np.empty((n, p))
    for j in range(p):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        out[:, j] = rng.standard_normal(n)
    return out


def generate(spec: NoiseSpec) -> ProxyMatrix:
    """Draw one pseudoproxy matrix.

    white:    i.i.d. standard normal entries.
    ar1:      stationary start x_0 ~ N(0,1), then
              x_t = phi x_{t-1} + sqrt(1 - phi^2) eps_t, so every entry has
              unit marginal variance and Cov(x_i, x_j) = phi^|i-j| exactly.
    brownian: cumulative sums of standard normal increments.
    """
    z = column_normals(spec.seed, spec.n, spec.p)
    if spec.kind == "white":
        data = z
    elif spec.kind == "ar1":
        z[1:] *= math.sqrt(1.0 - spec.phi**2)
        for t in range(1, spec.n):
            z[t] += spec.phi * z[t - 1]
        data = z
    else:
        data = np.cumsum(z, axis=0)
    ids = tuple(f"{spec.label}_{j:05d}" for j in range(spec.p))
    return ProxyMatrix(data=data, column_ids=ids)


def ar1_covariance(n: int, phi: float) -> np.ndarray:
    """Stationary AR(1) covariance: entry (i, j) = phi^|i-j|.

    Exactly Toeplitz with unit diagonal; positive definite for 0 <= phi < 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must be in [0, 1)")
    lags = np.arange(n)
    return (phi ** lags.astype(np.float64))[np.abs(lags[:, None] - lags[None, :])]


def smooth_target(n: int, seed: int, *, phi: float = 0.95, window: int = 11,
                  scale: float = 0.25, first_year: int = 1850) -> TimeSeries:
    """Smooth synthetic target series for experiments and demos.

    A single AR(1) draw is low-pass filtered with a moving average of the
    given window, centered, and rescaled to the requested standard deviation
    (degC-anomaly-like amplitudes by default).
    """
    raw = generate(NoiseSpec(kind="ar1", n=n + window - 1, p=1, seed=seed, phi=phi))
    kernel = np.full(window, 1.0 / window)
    x = np.convolve(raw.data[:, 0], kernel, mode="valid")
    x = (x - x.mean()) / x.std() * scale
    return TimeSeries(years=first_year + np.arange(n), values=x)
