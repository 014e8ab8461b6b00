"""Shared value types, per-calibration standardization, and the ridge
reconstruction operator on one factored calibration system.

Everything here is a pure function of immutable inputs. Arrays stored on the
value types are float64 (or int64 for indices), read-only and row-major,
copied unless already owned, read-only and row-major, so instances are safe
to share across threads and results do not depend on the caller's memory order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateColumn, LengthMismatch, SingularSystem

# Calibration standard deviations at or below this are treated as zero.
DEGENERATE_STD = 1e-12


def _frozen_array(x, dtype=np.float64, ndim=1):
    # nothing can write to an owned read-only array, so sharing it is safe
    owned_frozen = (isinstance(x, np.ndarray) and x.base is None and not x.flags.writeable
                    and x.flags.c_contiguous)
    a = x if owned_frozen and x.dtype == dtype else np.array(x, dtype=dtype, order="C")
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Annual target series: calendar years plus values (degC anomaly)."""

    years: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "years", _frozen_array(self.years, dtype=np.int64))
        object.__setattr__(self, "values", _frozen_array(self.values))
        if len(self.years) != len(self.values):
            raise LengthMismatch(
                f"{len(self.years)} years vs {len(self.values)} values"
            )
        if len(self.years) < 2:
            raise ValueError("a series needs at least 2 years")
        if not np.all(np.diff(self.years) == 1):
            raise ValueError("years must be strictly increasing with unit step")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class ProxyMatrix:
    """n x p predictor matrix (real proxies or generated noise)."""

    data: np.ndarray
    column_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data, ndim=2))
        ids = self.column_ids
        if not (isinstance(ids, tuple) and all(isinstance(c, str) for c in ids)):
            object.__setattr__(self, "column_ids", tuple(str(c) for c in ids))
        n, p = self.data.shape
        if p < 1:
            raise ValueError("need at least one proxy column")
        if len(self.column_ids) != p:
            raise LengthMismatch(f"{len(self.column_ids)} ids for {p} columns")
        # min and max propagate NaN, so this needs no n x p temporary
        if not (np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
            raise ValueError("proxy matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class HoldoutSplit:
    """The contiguous validation block [block_start, block_start + n_v) of
    n rows and its calibration complement.

    The complement is a row *set*, not a range: interior blocks leave two
    calibration segments, one on each side.
    """

    n: int
    block_start: int
    n_v: int
    calib_rows: np.ndarray = field(init=False)
    valid_rows: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (self.n_v >= 1 and 0 <= self.block_start <= self.n - self.n_v):
            raise ValueError(f"block_start {self.block_start}, n_v {self.n_v} "
                             f"out of range for n={self.n}")
        end = self.block_start + self.n_v
        for name, rows in (("calib_rows", np.r_[:self.block_start, end:self.n]),
                           ("valid_rows", np.arange(self.block_start, end))):
            object.__setattr__(self, name, _frozen_array(rows, dtype=np.int64))

    @property
    def n_c(self) -> int:
        return self.n - self.n_v


def standardize(X: ProxyMatrix, split: HoldoutSplit, *,
                drop_degenerate: bool = False) -> np.ndarray:
    """Standardize every column using calibration-period statistics only.

    Each column's mean and sample standard deviation (denominator n_c - 1)
    are computed over ``split.calib_rows``; the whole column, validation rows
    included, is then transformed by (x - mean) / std. The two calibration
    segments around the block are read as views, and a new array is centred
    before the squares are summed, so large offsets cancel first. Returns a
    read-only n x p float64 array, narrower when degenerate columns are
    dropped.

    Parameters
    ----------
    X : ProxyMatrix
    split : HoldoutSplit
    drop_degenerate : bool
        When False (strict, the default) a calibration std <= 1e-12 raises
        DegenerateColumn naming those columns. When True they are silently
        removed from the centred array; raises, naming every column, only if
        nothing is left.
    """
    data = X.data
    if data.shape[0] != split.n:
        raise LengthMismatch(f"array has {data.shape[0]} rows, split covers {split.n}")
    segments = slice(0, split.block_start), slice(split.block_start + split.n_v, None)
    means = sum(data[rows].sum(axis=0) for rows in segments) / split.n_c
    out = data - means
    sum_sq = sum(np.einsum("ij,ij->j", out[rows], out[rows]) for rows in segments)
    # one calibration row (n_c = 1) leaves sum_sq = 0: every column is degenerate
    stds = np.sqrt(sum_sq / max(split.n_c - 1, 1))
    bad = stds <= DEGENERATE_STD
    if bad.any():
        if not drop_degenerate or bad.all():
            raise DegenerateColumn([X.column_ids[j] for j in np.flatnonzero(bad)])
        out, stds = out[:, ~bad], stds[~bad]
    out /= stds
    out.flags.writeable = False
    return out


def gram_matrix(Xs: np.ndarray) -> np.ndarray:
    """Column-averaged Gram matrix of an n x p standardized array.

    Returns the n x n matrix (Xs Xs^T) / p, exactly symmetric and positive
    semidefinite up to rounding.
    """
    S = Xs @ Xs.T / Xs.shape[1]
    return (S + S.T) / 2.0


class ShiftedSystem:
    """One calibration problem (S_cc, y_c), factored once.

    One eigendecomposition, S_cc = Q diag(sig) Q^T, serves every shift: the
    GCV search scores V(lam) from it, and ``reconstruct`` applies
    (S_cc + lam I)^-1 through it; ``eig = (sig, Q)`` passes a known one, as
    exact Psi has. The intercept weights are w = 1/n_c, or w = 0 with
    ``intercept=False`` (kriging). Stored are the spectral coordinates
    c = w^T y_c, u = Q^T (y_c - c 1) and wq_1q = (Q^T w) * (Q^T 1).
    Roundoff-negative eigenvalues of a PSD input are clipped to zero; a
    clearly negative one raises SingularSystem, since S_cc + lam I may then
    be singular for some lam > 0.
    """

    def __init__(self, S_cc: np.ndarray, y_c: np.ndarray,
                 eig: tuple[np.ndarray, np.ndarray] | None = None, *, intercept: bool = True):
        y_c = np.asarray(y_c, dtype=np.float64)
        S_cc = np.asarray(S_cc, dtype=np.float64)
        self.n_c = len(y_c)
        if S_cc.shape != (self.n_c, self.n_c):
            raise LengthMismatch(f"S_cc {S_cc.shape}, {self.n_c} values")
        try:
            sig, self.Q = np.linalg.eigh(S_cc) if eig is None else eig
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"S_cc could not be diagonalized: {exc}") from exc
        floor = -1e-8 * max(1.0, float(np.abs(sig).max()))
        if sig[0] < floor:
            raise SingularSystem(f"S_cc is not PSD (eigenvalue {sig[0]:.3e})")
        self.sig = np.maximum(sig, 0.0)
        w = np.full(self.n_c, 1.0 / self.n_c) if intercept else np.zeros(self.n_c)
        self.c = float(w @ y_c)
        self.u = self.Q.T @ (y_c - self.c)
        self.wq_1q = (self.Q.T @ w) * (self.Q.T @ np.ones(self.n_c))
        self.w_sum = float(w.sum())


def reconstruct(system: ShiftedSystem, S_vc: np.ndarray, lam: float) -> np.ndarray:
    """Apply S_vc (S_cc + lam I)^-1 (I - 1 w^T) + 1 w^T to the system's y_c.

    S_vc holds the rows to predict against the calibration columns; with
    S_vc = S_cc this is the calibration-period hat operator H(lam). Linear in
    y_c; without an intercept (w = 0) the intercept term drops out.
    """
    if lam <= 0:
        raise ValueError("ridge parameter must be positive")
    if S_vc.shape[-1] != system.n_c:
        raise LengthMismatch(f"S_vc has {S_vc.shape[-1]} columns, system has {system.n_c}")
    return S_vc @ (system.Q @ (system.u / (system.sig + lam))) + system.c


def rmse(y_hat: np.ndarray, y_true: np.ndarray) -> float:
    """Root mean square difference of two equally long vectors."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_hat.shape != y_true.shape or y_hat.ndim != 1 or len(y_hat) < 1:
        raise LengthMismatch(f"shapes {y_hat.shape} vs {y_true.shape}")
    return float(np.sqrt(np.mean((y_hat - y_true) ** 2)))
