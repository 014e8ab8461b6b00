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
candidates at once; ``minimize_gcv`` scores its coarse grid in one such call
and refines the grid minimum by golden section. Every block runs it once,
in the one block tail, ``crossval.reconstruct_with_gcv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ShiftedSystem
from .errors import DegenerateTrace, NonFiniteValue

SEARCH_DOMAIN = (1e-8, 1e8)
COARSE_GRID_POINTS = 25
COARSE_GRID = np.geomspace(*SEARCH_DOMAIN, COARSE_GRID_POINTS)
COARSE_GRID.flags.writeable = False
LOG_LAMBDA_TOL = 1e-4        # relative precision of the refined lambda
TIE_REL = 1e-14              # grid scores closer than this are ties
TRACE_FLOOR = 1e-12

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    resid_sq = damp**2 @ system.u**2
    trace_ih = system.n_c - shrink.sum(axis=1) + shrink @ system.wq_1q - system.w_sum
    low = np.flatnonzero(trace_ih < TRACE_FLOOR)
    if len(low):
        i = low[0]
        raise DegenerateTrace(f"tr(I - H) = {trace_ih[i]:.3e} at lam = {lams[i, 0]:.3e}")
    return system.n_c * resid_sq / trace_ih**2


def minimize_gcv(system: ShiftedSystem) -> GcvResult:
    """Find the GCV-minimizing ridge parameter.

    The coarse logarithmic grid over SEARCH_DOMAIN, COARSE_GRID, encloses the
    minimizer, then golden-section refinement on log(lam) narrows it to
    relative precision LOG_LAMBDA_TOL. Grid scores tying within TIE_REL resolve to the largest
    lam (strongest regularization). Deterministic for fixed inputs.
    """
    grid = COARSE_GRID
    scores = gcv_scores(system, grid)
    if not np.isfinite(scores).all():   # else the refined minimum is finite too
        raise NonFiniteValue("GCV score not finite on the coarse grid: target values too large")
    evaluated = [(float(lam), float(v)) for lam, v in zip(grid, scores)]

    def f(lam: float) -> float:
        v = float(gcv_scores(system, [lam])[0])
        evaluated.append((lam, v))
        return v

    def finish(lam, score, *, flat=False, at_boundary=False):
        return GcvResult(lambda_min=float(lam), score=float(score),
                         n_evals=len(evaluated), flat=flat, at_boundary=at_boundary)

    vmax = float(scores.max())
    vmin = float(scores.min())
    if vmax - vmin < TIE_REL * vmax or vmax == 0.0:
        return finish(grid[-1], scores[-1], flat=True)

    ties = np.flatnonzero(scores <= vmin + TIE_REL * abs(vmin))
    best = int(ties.max())
    if best == 0 or best == len(grid) - 1:
        return finish(grid[best], scores[best], at_boundary=True)

    # Golden-section refinement on t = log(lam) between the grid neighbours.
    a, b = math.log(grid[best - 1]), math.log(grid[best + 1])
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(math.exp(x1)), f(math.exp(x2))
    while b - a > LOG_LAMBDA_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(math.exp(x2))

    best_lam, best_score = min(evaluated, key=lambda e: (e[1], -e[0]))
    return finish(best_lam, best_score)
