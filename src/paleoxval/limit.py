"""Large-p limit of the noise reconstructions, and its kriging analogue.

As the number of noise columns grows, the Gram matrix of standardized AR(1)
pseudoproxies concentrates on its expectation Psi, so the whole reconstruction
pipeline converges to the one driven by Psi. Psi is estimated here by plain
Monte Carlo over independent standardized columns (with a recorded half-sample
convergence diagnostic) rather than by analytic moment formulas.

The intercept-free, unstandardized analogue replaces Psi with the exact AR(1)
covariance and reduces to simple kriging of the target series with an
exponential semivariogram whose nugget is the GCV-selected ridge parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (HoldoutSplit, ReconstructionResult, ShiftedSystem, TimeSeries,
                   WeightVector, _frozen_array, _standardize_calib, reconstruct, rmse)
from .crossval import ExperimentReport, reconstruct_with_gcv, run_curve
from .errors import BlockMismatch
from .noise import NoiseSpec, ar1_covariance, generate

PSI_BATCH_COLUMNS = 8192


@dataclass(frozen=True, eq=False)
class PsiEstimate:
    """Monte Carlo estimate of E[x x^T] for one standardization split.

    half_split_rms_diff is the entrywise RMS difference between the two
    half-sample estimates; it shrinks like 1/sqrt(P) and calibrates how far
    the full estimate sits from the true expectation.
    """

    psi: np.ndarray
    n_columns: int
    phi: float
    split: HoldoutSplit
    half_split_rms_diff: float

    def __post_init__(self):
        object.__setattr__(self, "psi", _frozen_array(self.psi, ndim=2))
        if self.psi.shape != (self.split.n, self.split.n):
            raise ValueError("psi must be n x n for the split's n")


@dataclass(frozen=True)
class KrigingSpec:
    """Nugget policy for simple kriging: GCV-selected or fixed.

    A fixed nugget must be positive: it is the shift lam of the shifted
    system, whose domain is lam > 0. ``nugget`` is ignored for source="gcv".
    """

    phi: float
    nugget: float = 0.0
    source: str = "gcv"     # "gcv" | "fixed"

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must be in (0, 1)")
        if self.nugget < 0.0:
            raise ValueError("nugget must be nonnegative")
        if self.source not in ("gcv", "fixed"):
            raise ValueError(f"unknown nugget source {self.source!r}")
        if self.source == "fixed" and not self.nugget > 0.0:
            raise ValueError("a fixed nugget must be positive")


class PsiEstimator:
    """Shares one pool of raw AR(1) columns across many splits.

    The raw columns depend only on (phi, n, P, seed); per-split work is just
    standardization and accumulation, so estimating Psi for all sliding
    blocks costs one generation plus one pass per split. Accumulation runs
    over fixed-size column batches in a fixed order, so results are bit-for-bit
    reproducible; other batch sizes agree to rounding.
    """

    def __init__(self, phi: float, n: int, P: int, seed: int):
        if P < 2:
            raise ValueError("need at least 2 Monte Carlo columns")
        self.phi = float(phi)
        self.n = int(n)
        self.P = int(P)
        self.seed = int(seed)
        self._raw = generate(NoiseSpec(kind="ar1", n=n, p=P, seed=seed, phi=phi)).data

    def _accumulate(self, cols: np.ndarray, split: HoldoutSplit) -> np.ndarray:
        # one reused batch buffer: memory stays bounded and the pool is never copied
        total = np.zeros((self.n, self.n))
        buf = np.empty(self.n * min(PSI_BATCH_COLUMNS, cols.shape[1]))
        for start in range(0, cols.shape[1], PSI_BATCH_COLUMNS):
            batch = cols[:, start:start + PSI_BATCH_COLUMNS]
            z, _, _ = _standardize_calib(batch, split, out=buf[:batch.size].reshape(batch.shape))
            total += z @ z.T
        return total

    def estimate(self, split: HoldoutSplit) -> PsiEstimate:
        half = self.P // 2
        first = self._accumulate(self._raw[:, :half], split)
        second = self._accumulate(self._raw[:, half:], split)
        psi = (first + second) / self.P
        psi = (psi + psi.T) / 2.0
        diff = first / half - second / (self.P - half)
        return PsiEstimate(
            psi=psi,
            n_columns=self.P,
            phi=self.phi,
            split=split,
            half_split_rms_diff=float(np.sqrt(np.mean(diff**2))),
        )


def estimate_psi(phi: float, split: HoldoutSplit, P: int, seed: int) -> PsiEstimate:
    """Monte Carlo Psi for one split: P standardized AR(1) column outer products."""
    if P < 1000:
        raise ValueError("P below 1000 gives a uselessly noisy Psi; raise it")
    return PsiEstimator(phi, split.n, P, seed).estimate(split)


def limit_curve(phi: float, y: TimeSeries, splits: Sequence[HoldoutSplit],
                P: int, seed: int, *, mode: str = "strict",
                ) -> tuple[ExperimentReport, list[ReconstructionResult]]:
    """Limit reconstruction over every split, sharing one raw column pool."""
    if P < 1000:
        raise ValueError("P below 1000 gives a uselessly noisy Psi; raise it")
    estimator = PsiEstimator(phi, y.n, P, seed)

    def block(split: HoldoutSplit) -> ReconstructionResult:
        return reconstruct_with_gcv(estimator.estimate(split).psi, y, split)[0]
    return run_curve(f"limit_ar1_{phi:g}", block, splits, mode=mode)


def simple_kriging(phi: float, y: TimeSeries, split: HoldoutSplit,
                   spec: KrigingSpec | None = None) -> ReconstructionResult:
    """Predict the holdout block by simple kriging under AR(1) covariance.

    y_hat_v = Phi_vc (Phi_cc + nugget I)^-1 y_c with Phi = (phi^|i-j|): no
    standardization, no intercept, zero prior mean. This is the
    reconstruction operator with S = Phi and the all-zero weight vector, so
    with source="gcv" it runs ``reconstruct_with_gcv`` and the nugget is the
    GCV minimizer for the hat operator Phi_cc (Phi_cc + lam I)^-1.
    """
    if spec is None:
        spec = KrigingSpec(phi=phi)
    if spec.phi != phi:
        raise ValueError(f"spec.phi {spec.phi} disagrees with phi {phi}")
    if split.n != y.n:
        raise ValueError(f"split covers {split.n} rows, series has {y.n}")
    Phi = ar1_covariance(y.n, phi)
    w = WeightVector.zero(split.n_c)
    if spec.source == "gcv":
        result, _ = reconstruct_with_gcv(Phi, y, split, w)
        return result
    system = ShiftedSystem(Phi[np.ix_(split.calib_rows, split.calib_rows)], w,
                           y.values[split.calib_rows])
    y_hat = reconstruct(system, Phi[np.ix_(split.valid_rows, split.calib_rows)], spec.nugget)
    return ReconstructionResult(
        y_hat_v=y_hat, lam=float(spec.nugget), split=split,
        rmse=rmse(y_hat, y.values[split.valid_rows]),
    )


def kriging_curve(phi: float, y: TimeSeries, splits: Sequence[HoldoutSplit],
                  spec: KrigingSpec | None = None, *, mode: str = "strict",
                  ) -> tuple[ExperimentReport, list[ReconstructionResult]]:
    """simple_kriging over every split (nugget re-selected per split)."""
    return run_curve(f"kriging_ar1_{phi:g}", lambda split: simple_kriging(phi, y, split, spec),
                     splits, mode=mode)


def semivariogram(tau, phi: float, nugget: float):
    """Exponential semivariogram nugget + 1 - phi^tau (tau in years)."""
    if not 0.0 < phi < 1.0:
        raise ValueError("phi must be in (0, 1)")
    if nugget < 0.0:
        raise ValueError("nugget must be nonnegative")
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    out = nugget + 1.0 - phi**tau
    return float(out) if out.ndim == 0 else out


def rms_difference(a: ExperimentReport, b: ExperimentReport) -> float:
    """RMS gap between two per-block RMSE curves."""
    if a.n_blocks != b.n_blocks or not np.array_equal(a.block_starts, b.block_starts):
        raise BlockMismatch(f"{a.label!r} and {b.label!r} have different block structure")
    return float(np.sqrt(np.mean((a.block_rmse - b.block_rmse) ** 2)))


def rms_difference_values(a: Sequence[ReconstructionResult],
                          b: Sequence[ReconstructionResult]) -> float:
    """RMS gap between two reconstructions' concatenated predicted values.

    Companion to ``rms_difference``: the same comparison on raw predictions
    rather than on RMSE curves.
    """
    if len(a) != len(b):
        raise BlockMismatch(f"{len(a)} vs {len(b)} blocks")
    for ra, rb in zip(a, b):
        if ra.split.block_start != rb.split.block_start or ra.split.n_v != rb.split.n_v:
            raise BlockMismatch("blocks are not aligned")
    da = np.concatenate([r.y_hat_v for r in a])
    db = np.concatenate([r.y_hat_v for r in b])
    return float(np.sqrt(np.mean((da - db) ** 2)))
