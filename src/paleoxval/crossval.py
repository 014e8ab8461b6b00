"""Sliding-block cross-validation experiments and ensembles.

``run_curves`` is the one block loop for every curve (proxies, noise members,
Psi, kriging). A command describes each curve by an entry, a (label, columns)
pair whose function maps a holdout split to the ``Columns`` S[:, calib] the
operator reads; ``reconstruct_with_gcv``, the one block tail, turns them into
the block's lambda, predictions and RMSE. All curves run in one call: whole
curves, and contiguous ranges of the last curves' blocks, go to one ``fork``
process pool with one process per usable CPU, a noise member is generated by
the process that uses it, and blocks only return facts: the parent logs and
raises in (curve, block) order, so results, log lines and errors are
identical for any number of CPUs."""

from __future__ import annotations

import ctypes
import logging
import multiprocessing
import os
import pickle
import signal
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (HoldoutSplit, ProxyMatrix, ShiftedSystem, TimeSeries, _frozen_array,
                   gram_matrix, reconstruct, rmse, standardize)
from .errors import BlockFailure, InvalidBlockLength, LengthMismatch, PaleoXvalError
from .gcv import GcvResult, minimize_gcv
from .noise import NoiseSpec, generate

log = logging.getLogger(__name__)

# One pool serves a whole command, so its start and join (~8 ms a process on
# 2 vCPUs) are paid once per run; the best cap for many CPUs is not measured.
MAX_WORKERS = 8
RANGES_PER_WORKER = 4       # ranges per worker of each last curve: workers finish together
QUAD_RTOL = 1e-4            # the largest Columns.quad_error not logged as a warning


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-block RMSE curve for one experiment, with each block's lambda and
    its n_v predicted values (one row of ``predictions`` per block).

    In permissive runs failed blocks appear as NaN and ``mean_rmse`` is the
    mean of the finite entries.
    """

    label: str
    block_starts: np.ndarray
    block_rmse: np.ndarray
    per_block_lambda: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "block_starts", _frozen_array(self.block_starts, dtype=np.int64))
        for name in ("block_rmse", "per_block_lambda"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        object.__setattr__(self, "predictions", _frozen_array(self.predictions, ndim=2))
        if not (len(self.block_starts) == len(self.block_rmse) == len(self.per_block_lambda)
                == len(self.predictions)):
            raise LengthMismatch("per-block arrays must be equally long")

    @property
    def mean_rmse(self) -> float:
        finite = self.block_rmse[np.isfinite(self.block_rmse)]
        return float(finite.mean()) if len(finite) else float("nan")


def make_blocks(n: int, n_v: int) -> list[HoldoutSplit]:
    """All n - n_v + 1 contiguous holdout blocks of length n_v."""
    if not 2 <= n_v < n:
        raise InvalidBlockLength(f"need 2 <= n_v < n, got n_v={n_v}, n={n}")
    return [HoldoutSplit(n, start, n_v) for start in range(n - n_v + 1)]


class Columns(NamedTuple):
    """What one block feeds the operator: S_c = S[:, calib] (n x n_c), S_cc's
    eigendecomposition (sig, Q) where it is known, whether the intercept
    (w = 1/n_c) is fitted, and the quadrature's error estimate where S is
    exact Psi (NaN elsewhere; run_curves logs one above QUAD_RTOL)."""

    S_c: np.ndarray
    eig: tuple[np.ndarray, np.ndarray] | None = None
    intercept: bool = True
    quad_error: float = float("nan")


def proxy_columns(X: ProxyMatrix, split: HoldoutSplit) -> Columns:
    """The Gram columns of X standardized over the split's calibration rows."""
    S = gram_matrix(standardize(X, split))
    return Columns(S[:, split.calib_rows])


def reconstruct_with_gcv(columns: Columns, y: TimeSeries, split: HoldoutSplit,
                         ) -> tuple[np.ndarray, float, GcvResult]:
    """The one block tail: GCV-select lambda on S_cc, then predict and score.

    Returns the n_v predicted validation values, their RMSE against the
    target, and the GCV search, whose ``lambda_min`` is the block's lambda;
    it logs nothing. Every curve ends here, differing only in its columns.
    S_cc is factored once (or ``columns.eig`` is its known
    eigendecomposition); the GCV search and the prediction share it.
    """
    S_c = columns.S_c
    system = ShiftedSystem(S_c[split.calib_rows], y.values[split.calib_rows], columns.eig,
                           intercept=columns.intercept)
    sel = minimize_gcv(system)
    y_hat = reconstruct(system, S_c[split.valid_rows], sel.lambda_min)
    return y_hat, rmse(y_hat, y.values[split.valid_rows]), sel


# A curve is a (label, columns) pair; its function maps a holdout split to the
# block's Columns.
Curve = tuple[str, Callable[[HoldoutSplit], Columns]]

# Pool workers read the command's (curves, y, splits, mode) from _TASK, set by the
# pool initializer from its fork-inherited argument, so no matrix is pickled:
# (curve, block range) tasks go out, per-block outcomes come back. _MEMBER
# holds the one noise member in use.
_TASK = None
_MEMBER: dict[NoiseSpec, ProxyMatrix] = {}


def _adopt(task: tuple, parent: int) -> None:
    """Start a pool worker. It dies with ``parent``: the kernel kills it when
    the parent dies (Linux), and it exits now if the parent is already gone,
    as a worker of a killed command would run on, then block on the queue."""
    global _TASK
    _TASK = task
    if sys.platform == "linux":
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)    # PR_SET_PDEATHSIG; fails only for a bad signal
    if os.getppid() != parent:
        os._exit(1)
    _one_blas_thread()


def _one_blas_thread() -> None:
    """Pin each OpenBLAS loaded in this worker to one thread, as the workers
    already use the cores; other BLAS libraries are left as they are."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            libs = [ctypes.CDLL(path)
                    for path in {line.split()[-1] for line in maps if "openblas" in line}]
    except OSError:
        return
    for lib in libs:
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                getattr(lib, name)(1)


def _droppable(error: Exception) -> bool:
    # a LengthMismatch is the source's, not the block's: every block fails alike
    return isinstance(error, PaleoXvalError) and not isinstance(error, LengthMismatch)


def _run_range(c: int, lo: int, hi: int, task: tuple | None = None) -> list[tuple]:
    """((y_hat_v, rmse, GcvResult) or None, quad_error, error or None) for blocks
    lo..hi-1 of curve c: the curve's columns, then the one tail. quad_error is
    NaN without columns; the columns are never sent (S_c is n x n_c floats)."""
    curves, y, splits, mode = task if task is not None else _TASK
    out = []
    for split in splits[lo:hi]:
        quad_error = float("nan")
        try:
            columns = curves[c][1](split)
            quad_error = columns.quad_error
            result, error = reconstruct_with_gcv(columns, y, split), None
        except Exception as exc:
            result = None
            try:    # the parent gets the error as the pool sends it, one pickle round trip
                    # away, at any CPU count; one it cannot rebuild would break the pool
                rebuilt = pickle.loads(pickle.dumps(exc)).with_traceback(exc.__traceback__)
                error = rebuilt if task is not None else exc   # the pool pickles exc itself
            except Exception:
                error = RuntimeError(f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}\n"
                                     "worker traceback:\n" + "".join(traceback.format_exception(exc)))
        out.append((result, quad_error, error))
        # the parent raises here, so later outcomes would never be read
        if error is not None and (mode == "strict" or not _droppable(error)):
            break
    return out


def run_curves(curves: Sequence[Curve], y: TimeSeries, splits: Sequence[HoldoutSplit], *,
               mode: str = "strict") -> list[ExperimentReport]:
    """Every curve's columns through the one tail over every split, one report
    per curve: the one block loop. The splits must share one n_v (ValueError
    otherwise) and cover the target's n rows (LengthMismatch otherwise), both
    checked before any block runs.

    With n workers, each of the first len(curves) - n curves is one task and
    each of the last n is cut into RANGES_PER_WORKER x n block ranges, run in
    curve order on one fork pool of n = one process per usable CPU (at most
    the block count and MAX_WORKERS) or, with one CPU or no fork, here.
    Outcomes are taken in (curve, block) order: strict mode raises
    BlockFailure for the first failing block and cancels the tasks not yet
    started; permissive mode logs it and records NaN. A LengthMismatch, a
    source whose rows do not fit the target, is raised as it is in both.
    A block's quadrature warning comes before its drop or flat GCV line."""
    if not curves or not splits:
        raise ValueError("need at least one curve and one split")
    n_v = splits[0].n_v
    if any(split.n_v != n_v for split in splits):
        raise ValueError("every split must have the same n_v")
    n_rows = {split.n for split in splits}
    if n_rows != {y.n}:
        raise LengthMismatch(f"the splits cover {sorted(n_rows)} rows, the target has {y.n}")
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown mode {mode!r}")
    n = 1
    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        n = min(len(os.sched_getaffinity(0)), len(curves) * len(splits), MAX_WORKERS)
    parts = min(RANGES_PER_WORKER * n, len(splits))
    cuts = [len(splits) * k // parts for k in range(parts + 1)]
    whole = max(len(curves) - n, 0)
    ranges = [(c, 0, len(splits)) for c in range(whole)]
    ranges += [(c, lo, hi) for c in range(whole, len(curves)) for lo, hi in zip(cuts, cuts[1:])]
    task, pool, done = (curves, y, splits, mode), None, []
    starts = [split.block_start for split in splits]
    try:
        if n == 1:
            outcomes = (o for r in ranges for o in _run_range(*r, task))
        else:
            pool = ProcessPoolExecutor(n, multiprocessing.get_context("fork"), _adopt,
                                       (task, os.getpid()))
            futures = [pool.submit(_run_range, *r) for r in ranges]
            outcomes = (o for f in futures for o in f.result())
        for label, _ in curves:
            # dropped blocks keep their NaN row
            rmses, lams = np.full(len(splits), np.nan), np.full(len(splits), np.nan)
            predictions = np.full((len(splits), n_v), np.nan)
            for k, (split, (result, quad_error, error)) in enumerate(zip(splits, outcomes)):
                if quad_error > QUAD_RTOL:
                    log.warning("Psi quadrature error estimate %.1e at block %d exceeds %.0e",
                                quad_error, split.block_start, QUAD_RTOL)
                if error is not None:
                    if not _droppable(error):
                        raise error
                    if mode == "strict":
                        raise BlockFailure(split.block_start, error) from error
                    log.warning("dropping block %d (%s): %s", split.block_start, label, error)
                    continue
                predictions[k], rmses[k], sel = result
                lams[k] = sel.lambda_min
                if sel.flat:
                    log.warning("flat GCV objective at block %d; using lambda = %.3e",
                                split.block_start, sel.lambda_min)
            done.append(ExperimentReport(label, starts, rmses, lams, predictions))
    finally:
        _MEMBER.clear()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return done


def experiment_entry(label: str, source: ProxyMatrix | NoiseSpec) -> Curve:
    """proxy_columns of a proxy matrix, or of a NoiseSpec's member, drawn where it runs."""
    def columns(split: HoldoutSplit) -> Columns:
        X = source
        if isinstance(source, NoiseSpec):
            if source not in _MEMBER:
                _MEMBER.clear()     # drop the previous member before drawing the next
                _MEMBER[source] = generate(source)
            X = _MEMBER[source]
        return proxy_columns(X, split)
    return label, columns


def ensemble_entries(spec: NoiseSpec, m: int) -> list[Curve]:
    """The m member curves of an ensemble, seeds spec.seed + 0 ... + m - 1."""
    if m < 1:
        raise ValueError("ensemble size must be at least 1")
    return [experiment_entry(f"{spec.label}_member{i:03d}", replace(spec, seed=spec.seed + i))
            for i in range(m)]


def ensemble_stats(members: Sequence[ExperimentReport]) -> tuple[np.ndarray, np.ndarray]:
    """The members' per-block mean RMSE and its sample standard deviation
    (ddof=1; zero for one member), as read-only arrays."""
    curves = np.array([r.block_rmse for r in members])
    scatter = curves.std(axis=0, ddof=1) if len(members) > 1 else np.zeros(curves.shape[1])
    return _frozen_array(curves.mean(axis=0)), _frozen_array(scatter)
