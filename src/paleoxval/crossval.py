"""Sliding-block cross-validation experiments and ensembles.

``run_curve`` is the one block loop for every curve (proxies, noise, Psi,
kriging). It spreads contiguous ranges of blocks over a ``fork`` process pool
with one process per usable CPU, and the parent replays log lines and raises
in block order, so results, log lines and errors are identical for any
number of CPUs.
"""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (HoldoutSplit, ProxyMatrix, ReconstructionResult, ShiftedSystem, TimeSeries,
                   WeightVector, _frozen_array, gram_matrix, reconstruct, rmse, standardize)
from .errors import BlockFailure, InvalidBlockLength, LengthMismatch, PaleoXvalError
from .gcv import GcvResult, minimize_gcv
from .noise import NoiseSpec, generate

log = logging.getLogger(__name__)

# Starting and joining a pool costs ~8 ms per process (2-vCPU host, parent
# holding 119 MB of arrays), against ~0.2-0.5 s of block work per curve.
MAX_WORKERS = 8


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


def reconstruct_with_gcv(S_c: np.ndarray, y: TimeSeries, split: HoldoutSplit,
                         w: WeightVector | None = None, *,
                         eig: tuple[np.ndarray, np.ndarray] | None = None,
                         ) -> tuple[ReconstructionResult, GcvResult]:
    """GCV-select lambda on S_cc, then predict.

    S_c = S[:, split.calib_rows], the only part of S the operator reads.
    Shared tail of the proxy, probability-limit and kriging pipelines: they
    differ only in where S comes from and in w. S_cc is factored once (or
    ``eig`` is its known eigendecomposition); the GCV search and the
    prediction share it.
    """
    if split.n != y.n:
        raise LengthMismatch(f"split covers {split.n} rows, series has {y.n}")
    if w is None:
        w = WeightVector.uniform(split.n_c)
    system = ShiftedSystem(S_c[split.calib_rows], w, y.values[split.calib_rows], eig)
    sel = minimize_gcv(system)
    if sel.flat:
        log.warning("flat GCV objective at block %d; using lambda = %.3e",
                    split.block_start, sel.lambda_min)
    y_hat = reconstruct(system, S_c[split.valid_rows], sel.lambda_min)
    score = rmse(y_hat, y.values[split.valid_rows])
    result = ReconstructionResult(y_hat_v=y_hat, lam=sel.lambda_min, split=split, rmse=score)
    return result, sel


def run_block(X: ProxyMatrix, y: TimeSeries, split: HoldoutSplit, *,
              drop_degenerate: bool = False) -> ReconstructionResult:
    """Full single-block pipeline: standardize, Gram, GCV, reconstruct, score."""
    if X.n != y.n:
        raise LengthMismatch(f"proxy matrix has {X.n} rows, series has {y.n}")
    S = gram_matrix(standardize(X, split, drop_degenerate=drop_degenerate))
    result, _ = reconstruct_with_gcv(S[:, split.calib_rows], y, split)
    return result


# A pool worker's task (block, splits, mode), set by the pool initializer from
# its fork-inherited argument, so no matrix is pickled: only block ranges go
# out and per-block outcomes come back. _HELD collects the worker's log
# records of the current block for the parent to replay in block order.
_TASK = None
_HELD: list[logging.LogRecord] = []


class _HoldRecords(logging.Handler):
    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        _HELD.append(record)


def _adopt(task: tuple) -> None:
    global _TASK
    _TASK = task
    package = logging.getLogger(__package__)
    package.handlers, package.propagate = [_HoldRecords()], False
    _one_blas_thread()


def _one_blas_thread() -> None:
    """Pin each OpenBLAS loaded in this worker to one thread, as the workers
    already use the cores; other BLAS libraries are left as they are."""
    try:
        with open("/proc/self/maps") as maps:
            libs = [ctypes.CDLL(path)
                    for path in {line.split()[-1] for line in maps if "openblas" in line}]
    except OSError:
        return
    for lib in libs:
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                getattr(lib, name)(1)


def _run_range(lo: int, hi: int, task: tuple | None = None) -> list[tuple]:
    """(result, error or None, held log records) for blocks lo..hi-1."""
    block, splits, mode = task if task is not None else _TASK
    out = []
    for split in splits[lo:hi]:
        try:
            result, error = block(split), None
        except Exception as exc:
            result, error = None, exc
            try:    # in a pool worker, an error the parent cannot rebuild breaks the pool
                if task is None:
                    pickle.loads(pickle.dumps(exc))
            except Exception:
                error = RuntimeError(f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}\n"
                                     "worker traceback:\n" + "".join(traceback.format_exception(exc)))
        out.append((result, error, _HELD[:]))
        _HELD.clear()
        # the parent raises here, so later outcomes would never be read
        if error is not None and (mode == "strict" or not isinstance(error, PaleoXvalError)):
            break
    return out


def run_curve(label: str, block: Callable[[HoldoutSplit], ReconstructionResult],
              splits: Sequence[HoldoutSplit], *, mode: str = "strict",
              ) -> tuple[ExperimentReport, list[ReconstructionResult]]:
    """``block`` over every split: the one block loop of every curve.

    Strict mode raises BlockFailure for the first failing block in block
    order; permissive mode logs it and records NaN. Contiguous block ranges
    run on a fork pool of one process per usable CPU (``os.sched_getaffinity``,
    capped at the block count and MAX_WORKERS) that is shut down before this
    returns; with one usable CPU, or without fork, they run in this process.
    """
    if not splits:
        raise ValueError("need at least one split")
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown mode {mode!r}")
    n = 1
    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        n = min(len(os.sched_getaffinity(0)), len(splits), MAX_WORKERS)
    task = (block, splits, mode)
    if n == 1:
        outcomes = _run_range(0, len(splits), task)
    else:
        cuts = [len(splits) * k // n for k in range(n + 1)]
        with ProcessPoolExecutor(n, multiprocessing.get_context("fork"), _adopt, (task,)) as pool:
            outcomes = [o for part in pool.map(_run_range, cuts[:-1], cuts[1:]) for o in part]
    results: list[ReconstructionResult] = []
    for split, (result, error, records) in zip(splits, outcomes):
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            if not isinstance(error, PaleoXvalError):
                raise error
            if mode == "strict":
                raise BlockFailure(split.block_start, error) from error
            log.warning("dropping block %d (%s): %s", split.block_start, label, error)
            result = ReconstructionResult(y_hat_v=np.full(split.n_v, np.nan), lam=float("nan"),
                                          split=split, rmse=float("nan"))
        # re-freezes arrays that came back through pickle; shares the caller's split
        results.append(replace(result, split=split))
    return report_from_results(label, results), results


def run_experiment(X: ProxyMatrix, y: TimeSeries, splits: list[HoldoutSplit], *,
                   label: str = "experiment", mode: str = "strict",
                   drop_degenerate: bool = False) -> ExperimentReport:
    """run_block over every split via ``run_curve``."""
    return run_curve(label, lambda split: run_block(X, y, split, drop_degenerate=drop_degenerate),
                     splits, mode=mode)[0]


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
