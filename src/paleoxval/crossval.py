"""Sliding-block cross-validation experiments and ensembles.

A run over all holdout blocks is deliberately serial per task: results are
bit-identical however the caller schedules the (embarrassingly parallel)
blocks and ensemble members, because every task is a pure function of its
inputs and aggregation order is fixed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .core import (HoldoutSplit, ProxyMatrix, ReconstructionResult, ShiftedSystem, TimeSeries,
                   WeightVector, _frozen_array, gram_matrix, reconstruct, rmse, standardize)
from .errors import BlockFailure, InvalidBlockLength, LengthMismatch, PaleoXvalError
from .gcv import GcvResult, minimize_gcv
from .noise import NoiseSpec, generate

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-block RMSE curve for one experiment.

    In permissive runs failed blocks appear as NaN and ``mean_rmse`` is the
    mean of the finite entries.
    """

    label: str
    block_starts: np.ndarray
    block_rmse: np.ndarray
    per_block_lambda: np.ndarray
    mean_rmse: float

    def __post_init__(self):
        object.__setattr__(self, "block_starts", _frozen_array(self.block_starts, dtype=np.int64))
        for name in ("block_rmse", "per_block_lambda"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if not (len(self.block_starts) == len(self.block_rmse) == len(self.per_block_lambda)):
            raise LengthMismatch("per-block arrays must be equally long")

    @property
    def n_blocks(self) -> int:
        return len(self.block_rmse)


@dataclass(frozen=True, eq=False)
class EnsembleReport:
    """Member RMSE curves plus their per-block mean and scatter."""

    label: str
    member_reports: tuple[ExperimentReport, ...]
    mean_curve: np.ndarray
    member_scatter: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "member_reports", tuple(self.member_reports))
        for name in ("mean_curve", "member_scatter"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @property
    def m(self) -> int:
        return len(self.member_reports)

    @property
    def block_starts(self) -> np.ndarray:
        return self.member_reports[0].block_starts


def make_blocks(n: int, n_v: int) -> list[HoldoutSplit]:
    """All n - n_v + 1 contiguous holdout blocks of length n_v."""
    if not 2 <= n_v < n:
        raise InvalidBlockLength(f"need 2 <= n_v < n, got n_v={n_v}, n={n}")
    return [HoldoutSplit.make(n, start, n_v) for start in range(n - n_v + 1)]


def report_from_results(label: str, results: list[ReconstructionResult]) -> ExperimentReport:
    if not results:
        raise ValueError("cannot build a report from zero blocks")
    block_rmse = np.array([r.rmse for r in results])
    finite = block_rmse[np.isfinite(block_rmse)]
    return ExperimentReport(
        label=label,
        block_starts=np.array([r.split.block_start for r in results]),
        block_rmse=block_rmse,
        per_block_lambda=np.array([r.lam for r in results]),
        mean_rmse=float(finite.mean()) if len(finite) else float("nan"),
    )


def reconstruct_with_gcv(S: np.ndarray, y: TimeSeries, split: HoldoutSplit,
                         w: WeightVector | None = None) -> tuple[ReconstructionResult, GcvResult]:
    """GCV-select lambda on the calibration restriction of S, then predict.

    Shared tail of the proxy, probability-limit and kriging pipelines: they
    differ only in where S comes from and in w. S_cc is factored once; the
    GCV search and the prediction share that factorization.
    """
    if split.n != y.n:
        raise LengthMismatch(f"split covers {split.n} rows, series has {y.n}")
    if w is None:
        w = WeightVector.uniform(split.n_c)
    system = ShiftedSystem(S[np.ix_(split.calib_rows, split.calib_rows)], w,
                           y.values[split.calib_rows])
    sel = minimize_gcv(system)
    if sel.flat:
        log.warning("flat GCV objective at block %d; using lambda = %.3e",
                    split.block_start, sel.lambda_min)
    y_hat = reconstruct(system, S[np.ix_(split.valid_rows, split.calib_rows)], sel.lambda_min)
    score = rmse(y_hat, y.values[split.valid_rows])
    result = ReconstructionResult(y_hat_v=y_hat, lam=sel.lambda_min, split=split, rmse=score)
    return result, sel


def run_block(X: ProxyMatrix, y: TimeSeries, split: HoldoutSplit, *,
              drop_degenerate: bool = False) -> ReconstructionResult:
    """Full single-block pipeline: standardize, Gram, GCV, reconstruct, score."""
    if X.n != y.n:
        raise LengthMismatch(f"proxy matrix has {X.n} rows, series has {y.n}")
    Xs = standardize(X, split, drop_degenerate=drop_degenerate)
    S = gram_matrix(Xs)
    result, _ = reconstruct_with_gcv(S, y, split)
    return result


def run_experiment(X: ProxyMatrix, y: TimeSeries, splits: list[HoldoutSplit], *,
                   label: str = "experiment", mode: str = "strict",
                   drop_degenerate: bool = False) -> ExperimentReport:
    """run_block over every split, aggregated into an ExperimentReport.

    mode="strict" aborts on the first failing block; mode="permissive" logs
    the failure and records the block as NaN.
    """
    if not splits:
        raise ValueError("need at least one split")
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown mode {mode!r}")
    results: list[ReconstructionResult] = []
    for split in splits:
        try:
            results.append(run_block(X, y, split, drop_degenerate=drop_degenerate))
        except PaleoXvalError as exc:
            if mode == "strict":
                raise BlockFailure(split.block_start, exc) from exc
            log.warning("dropping block %d (%s): %s", split.block_start, label, exc)
            results.append(ReconstructionResult(
                y_hat_v=np.full(split.n_v, np.nan), lam=float("nan"),
                split=split, rmse=float("nan")))
    return report_from_results(label, results)


def run_ensemble(spec: NoiseSpec, y: TimeSeries, splits: list[HoldoutSplit], m: int, *,
                 label: str | None = None, mode: str = "strict") -> EnsembleReport:
    """m independent noise realizations, seeds spec.seed + 0 ... + m - 1.

    member_scatter is the per-block sample standard deviation over members
    (ddof=1); it is zero for m = 1.
    """
    if m < 1:
        raise ValueError("ensemble size must be at least 1")
    label = label if label is not None else spec.label
    members = []
    for i in range(m):
        X = generate(replace(spec, seed=spec.seed + i))
        members.append(run_experiment(X, y, splits, label=f"{label}_member{i:03d}", mode=mode))
    curves = np.array([r.block_rmse for r in members])
    scatter = curves.std(axis=0, ddof=1) if m > 1 else np.zeros(curves.shape[1])
    return EnsembleReport(
        label=label,
        member_reports=tuple(members),
        mean_curve=curves.mean(axis=0),
        member_scatter=scatter,
    )
