"""Generalized cross-validation for the ridge hat operator.

The score minimized here is

    V(lam) = n_c * ||(I - H(lam)) y_c||^2 / tr(I - H(lam))^2,

with H(lam) = S_cc (S_cc + lam I)^-1 (I - 1 w^T) + 1 w^T, the calibration-row
restriction of the reconstruction operator including its intercept term,
w = 1/n_c. Without the intercept (w = 0) H reduces to S_cc (S_cc + lam I)^-1,
which is the form used for kriging nugget selection.

V is scored only through a ``core.ShiftedSystem``: the eigendecomposition of
S_cc it holds is the one the prediction later reuses, and it turns every
candidate lam into O(n_c) sums. ``gcv_scores`` evaluates a whole vector of
candidates at once, and ``minimize_gcv`` makes one such call per log grid:
the coarse grid, then finer grids between the best point's neighbours.
Every block runs it once, in the one block tail,
``crossval.reconstruct_with_gcv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ShiftedSystem
from .errors import DegenerateTrace, NonFiniteValue

SEARCH_DOMAIN = (1e-8, 1e8)
COARSE_GRID_POINTS = 25
COARSE_GRID = np.geomspace(*SEARCH_DOMAIN, COARSE_GRID_POINTS)
COARSE_GRID.flags.writeable = False
LOG_LAMBDA_TOL = 1e-4        # relative precision of the refined lambda
REFINE_POINTS = 17           # each refining grid is (17 - 1) / 2 = 8x narrower
TIE_REL = 1e-14              # coarse grid scores closer than this are ties
TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class GcvResult:
    """Outcome of a GCV search.

    ``flat`` marks an objective with no usable structure over the coarse grid
    (the largest grid lambda is returned); ``at_boundary`` marks a minimizer
    at an edge of the search domain.
    """

    lambda_min: float
    score: float
    n_evals: int
    flat: bool = False
    at_boundary: bool = False


def gcv_scores(system: ShiftedSystem, lams) -> np.ndarray:
    """V(lam) for every lam in ``lams``, from the system's eigendecomposition.

    With shrinkage factors f_i = sig_i / (sig_i + lam), the residual norm is
    sum (1 - f_i)^2 u_i^2 and tr(I - H) = n_c - sum f_i + sum f_i (Q^T w)_i
    (Q^T 1)_i - sum w: O(n_c) per candidate.
    """
    lams = np.asarray(lams, dtype=np.float64)[:, None]
    sig = system.sig
    shrink = sig / (sig + lams)                 # f_i
    damp = lams / (sig + lams)                  # 1 - f_i, formed directly
    trace_ih = system.n_c - shrink.sum(axis=1) + shrink @ system.wq_1q - system.w_sum
    low = np.flatnonzero(trace_ih < TRACE_FLOOR)
    if len(low):
        i = low[0]
        raise DegenerateTrace(f"tr(I - H) = {trace_ih[i]:.3e} at lam = {lams[i, 0]:.3e}")
    with np.errstate(over="ignore"):    # a huge target: minimize_gcv raises NonFiniteValue
        return system.n_c * (damp**2 @ system.u**2) / trace_ih**2


def minimize_gcv(system: ShiftedSystem) -> GcvResult:
    """Find the GCV-minimizing ridge parameter.

    Stage 0 scores the coarse logarithmic grid over SEARCH_DOMAIN,
    COARSE_GRID; coarse scores tying within TIE_REL resolve to the largest lam
    (strongest regularization). A flat objective returns the largest grid lam,
    and a minimum at a grid end returns that end. Otherwise each later stage
    scores REFINE_POINTS log-spaced lams between the previous best point's two
    neighbours, until those neighbours are within LOG_LAMBDA_TOL in log(lam).
    The result is the lowest score over every evaluated point, ties going to
    the largest lam. Deterministic for fixed inputs.
    """
    lams = COARSE_GRID
    scores = gcv_scores(system, lams)
    if not np.isfinite(scores).all():   # else every refined score is finite too
        raise NonFiniteValue("GCV score not finite on the coarse grid: target values too large")
    vmax, vmin = float(scores.max()), float(scores.min())
    if vmax - vmin < TIE_REL * vmax or vmax == 0.0:
        return GcvResult(float(lams[-1]), float(scores[-1]), len(lams), flat=True)
    i = int(np.flatnonzero(scores <= vmin + TIE_REL * abs(vmin)).max())
    if i == 0 or i == len(lams) - 1:
        return GcvResult(float(lams[i]), float(scores[i]), len(lams), at_boundary=True)

    j = int(np.flatnonzero(scores == vmin).max())
    n_evals, best = len(lams), (vmin, -float(lams[j]))  # (score, -lam): ties go to the largest lam
    while np.log(lams[i + 1] / lams[i - 1]) > LOG_LAMBDA_TOL:
        lams = np.geomspace(lams[i - 1], lams[i + 1], REFINE_POINTS)
        scores = gcv_scores(system, lams)
        n_evals += len(lams)
        j = int(np.flatnonzero(scores == scores.min()).max())
        best = min(best, (float(scores[j]), -float(lams[j])))
        i = min(max(j, 1), len(lams) - 2)     # a refining grid's best may sit at its end
    return GcvResult(lambda_min=-best[1], score=best[0], n_evals=n_evals)
