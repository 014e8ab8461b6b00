"""Large-p limit of the noise reconstructions, and its kriging analogue.

As the number of noise columns grows, the Gram matrix of standardized
pseudoproxies with covariance Phi concentrates on its expectation Psi, so the
whole reconstruction pipeline converges to the one driven by Psi.
``psi_columns`` computes exactly the part the operator reads, Psi[:, calib]:
with 1/q = int_0^inf e^{-tq} dt the expected ratio of quadratic forms is one
eigenproblem of size n_c plus scalar integrals (Magnus 1986, Annales
d'Economie et de Statistique 4), done by the exponentially convergent
trapezoid rule in log t (Trefethen & Weideman 2014).

The intercept-free, unstandardized analogue, ``kriging_columns``, replaces
Psi with Phi itself and reduces to simple kriging of the target series whose
nugget is the GCV-selected ridge parameter; for AR(1) noise its semivariogram
is exponential. Both are only column sources: each block of their curves
runs through the same tail as the proxy blocks,
``crossval.reconstruct_with_gcv``.
"""

from __future__ import annotations

import numpy as np

from .core import HoldoutSplit
from .crossval import Columns, Curve
from .errors import DegenerateColumn, LengthMismatch, SingularSystem

# Trapezoid nodes in u = log t; the even ones form the half rule. For n = 149
# and 400, phi in [0, 0.999] and n_v in [2, n - 4], the half rule moved h by at
# most 2e-6, and the full rule was within 4e-13 of one with 4x the nodes.
_U = np.linspace(-60.0, 200.0, 801)
_T = np.exp(_U)
_STEP = float(_U[1] - _U[0])


def _quadrature(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h_k for ascending rho > 0 by the full and the half trapezoid rule.

    The log of the largest integrand (rho[0]'s) is concave in u, so the nodes
    within e^-50 of its peak form one run, found on every 16th node; only it
    is summed (a quarter of the nodes at n = 149, sums unchanged to 1e-15).
    """
    x = 2.0 * np.multiply.outer(_T[::16], rho)
    coarse = _U[::16] - 0.5 * np.log1p(x).sum(axis=1) - np.log1p(x[:, 0])
    k = np.flatnonzero(coarse > coarse.max() - 50.0)
    lo, hi = 16 * max(k[0] - 1, 0), 16 * min(k[-1] + 1, len(coarse) - 1) + 1
    A = 1.0 + 2.0 * np.multiply.outer(_T[lo:hi], rho)
    W = np.exp(_U[lo:hi] - 0.5 * np.log(A).sum(axis=1))[:, None] / A
    return _STEP * W.sum(axis=0), 2.0 * _STEP * W[::2].sum(axis=0)


def psi_columns(Phi: np.ndarray, split: HoldoutSplit) -> Columns:
    """Exact Psi[:, calib] for covariance Phi and one split, with Psi_cc's
    eigendecomposition (sig, Q) and the quadrature's relative error estimate.

    Psi = E[z z^T] for x ~ N(0, Phi) standardized over the calibration rows.
    With C = P Phi_cc P = U diag(rho) U^T, P = I - 11^T / n_c, and
    B = U diag(h) U^T over the n_c - 1 rho_k > 0,

        Psi_cc = (n_c - 1) C B,    Psi_vc = (n_c - 1) (Phi_vc - 1 1^T Phi_cc / n_c) B,
        h_k = int_0^inf prod_l (1 + 2t rho_l)^-1/2 (1 + 2t rho_k)^-1 dt,

    so U also diagonalizes Psi_cc. The error estimate is the largest relative
    change of h from the half rule to the full one; ``run_curves`` logs one
    above ``crossval.QUAD_RTOL``. Psi_vv, which diverges for n_c <= 3, is not
    formed. At n_c = 2, Psi_vc has no expectation and this is its symmetric
    principal value.
    """
    if Phi.shape != (split.n, split.n):
        raise LengthMismatch(f"covariance is {Phi.shape}, split covers {split.n} rows")
    if split.n_c < 2:
        raise DegenerateColumn(["every column (one calibration row)"])
    c, v = split.calib_rows, split.valid_rows
    Phi_cc = Phi[np.ix_(c, c)]
    mean = Phi_cc.mean(axis=0)
    rho, Q = np.linalg.eigh(Phi_cc - mean - mean[:, None] + mean.mean())
    rho, U = rho[1:], Q[:, 1:]      # C's null direction is 1, which P removes
    if rho[0] <= 0.0:
        raise SingularSystem(f"centred Phi_cc has rank below n_c - 1 (eigenvalue {rho[0]:.3e})")
    h, h_half = _quadrature(rho)
    h_scaled = (split.n_c - 1) * h
    sig = np.concatenate(([0.0], rho * h_scaled))
    cc = (Q * sig) @ Q.T
    out = np.empty((split.n, split.n_c))
    out[c] = (cc + cc.T) / 2.0
    out[v] = (Phi[np.ix_(v, c)] - mean) @ ((U * h_scaled) @ U.T)
    quad_error = float(np.max(np.abs(h - h_half) / h))
    return Columns(out, (sig, Q), quad_error=quad_error)


def kriging_columns(Phi: np.ndarray, split: HoldoutSplit) -> Columns:
    """Simple kriging's columns Phi[:, calib] under the covariance Phi.

    Through the block tail they predict y_hat_v = Phi_vc (Phi_cc + nugget I)^-1
    y_c: no standardization, no intercept, zero prior mean, and the nugget is
    the GCV minimizer for the hat operator Phi_cc (Phi_cc + lam I)^-1.
    """
    if Phi.shape != (split.n, split.n):     # before Phi is indexed with the split's rows
        raise LengthMismatch(f"covariance is {Phi.shape}, split covers {split.n} rows")
    return Columns(Phi[:, split.calib_rows], intercept=False)


def limit_entry(label: str, Phi: np.ndarray) -> Curve:
    """The limit curve's entry: each block is driven by the exact Psi columns
    of noise with the n x n covariance Phi."""
    return label, lambda split: psi_columns(Phi, split)


def kriging_entry(label: str, Phi: np.ndarray) -> Curve:
    """The kriging curve's entry: Phi's columns per split (nugget re-selected)."""
    return label, lambda split: kriging_columns(Phi, split)

