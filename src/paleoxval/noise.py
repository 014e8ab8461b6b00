"""Pseudoproxy noise generators and the AR(1) covariance matrix.

Column j of a generated matrix draws from the substream derived from
(seed, j) via numpy's SeedSequence spawn keys, so matrices are bit-reproducible
for a given spec and columns are independent regardless of how or where they
are filled. Seeds are hashed 256 columns at a time into one reused PCG64.
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
            if (isinstance(self.phi, bool) or not isinstance(self.phi, numbers.Real)
                    or not 0.0 <= self.phi < 1.0):
                raise ValueError(f"ar1 noise requires a number 0 <= phi < 1, got {self.phi!r}")
        elif self.phi is not None:
            raise ValueError(f"phi is only meaningful for ar1 noise, not {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "ar1":
            return f"ar1_{self.phi:g}"
        return self.kind


# numpy's SeedSequence hash (pool size 4) and PCG64 seeding constants
_M32, _MIX_L, _MIX_R = 0xFFFFFFFF, 0xCA01F9DD, 0x4973F715
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
CHUNK_COLUMNS = 256


def _hashmix(v, h, mult=_MULT_A):
    # one hash step on a Python int (masked) or a uint32 array (wrapping);
    # returns the value and the next multiplier
    m = h * mult & _M32
    v = (v ^ h) * m & _M32
    return v ^ v >> 16, m


def _spawn_seed_words(seed: int, j: np.ndarray) -> list[list[int]]:
    """SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(4, np.uint64)
    for every column index in the uint32 array j, as four lists of words."""
    # SeedSequence(seed) has mixed the seed's words, zero-padded to 4, at 4 hash
    # steps a word; the spawn key j is mixed in as one more word
    steps = 4 * max((int(seed).bit_length() + 31) // 32, 4)
    h = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _M32
    pool = np.random.SeedSequence(seed).pool.tolist()
    for d in range(4):
        v, h = _hashmix(j, h)
        r = ((_MIX_L * pool[d] & _M32) - (_MIX_R * v & _M32)) & _M32
        pool[d] = r ^ r >> 16
    out, h = [], _INIT_B
    for k in range(8):
        v, h = _hashmix(pool[k % 4], h, _MULT_B)
        out.append(v.astype(np.uint64))
    return [(out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2)]


def column_normals(seed: int, n: int, p: int) -> np.ndarray:
    """n x p standard-normal draws, column j from substream (seed, j)."""
    out = np.empty((n, p))
    bitgen = np.random.PCG64()
    gen, pcg = np.random.Generator(bitgen), {}
    full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": pcg}
    buf = np.empty((min(p, CHUNK_COLUMNS), n))
    for lo in range(0, p, CHUNK_COLUMNS):
        hi = min(lo + CHUNK_COLUMNS, p)
        words = _spawn_seed_words(seed, np.arange(lo, hi, dtype=np.uint32))
        for row, s_hi, s_lo, i_hi, i_lo in zip(buf, *words):
            # pcg64_set_seed: inc = 2 initseq + 1, two LCG steps around + initstate
            pcg["inc"] = inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
            pcg["state"] = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _M128
            bitgen.state = full
            gen.standard_normal(out=row)
        out[:, lo:hi] = buf[:hi - lo].T
    return out


def generate(spec: NoiseSpec) -> ProxyMatrix:
    """Draw one pseudoproxy matrix.

    white:    i.i.d. standard normal entries.
    ar1:      stationary start x_0 ~ N(0,1), then
              x_t = phi x_{t-1} + sqrt(1 - phi^2) eps_t, so every entry has
              unit marginal variance and Cov(x_i, x_j) = phi^|i-j| exactly.
    brownian: cumulative sums of standard normal increments.

    All steps run in place on the one n x p array, which the result keeps.
    """
    z = column_normals(spec.seed, spec.n, spec.p)
    if spec.kind == "ar1":
        z[1:] *= math.sqrt(1.0 - spec.phi**2)
    if spec.kind != "white":
        # brownian is phi = 1: 1.0 * x is exact, so these are np.cumsum's sums
        phi = 1.0 if spec.kind == "brownian" else spec.phi
        for t in range(1, spec.n):
            z[t] += phi * z[t - 1]
    z.flags.writeable = False
    ids = tuple(f"{spec.label}_{j:05d}" for j in range(spec.p))
    return ProxyMatrix(data=z, column_ids=ids)


def ar1_covariance(n: int, phi: float) -> np.ndarray:
    """Stationary AR(1) covariance: entry (i, j) = phi^|i-j|.

    Exactly Toeplitz with unit diagonal; positive definite for 0 <= phi < 1.
    Read-only, so one matrix can feed every block of the curves that share it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must be in [0, 1)")
    lags = np.arange(n)
    Phi = (phi ** lags.astype(np.float64))[np.abs(lags[:, None] - lags[None, :])]
    Phi.flags.writeable = False
    return Phi


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
