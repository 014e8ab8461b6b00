"""Brute-force reference implementations used only by tests.

Everything here builds operators as explicit dense matrices with
numpy.linalg.inv and plain Python loops, independently of the library's
factorize-and-solve / eigendecomposition code paths.
"""

import numpy as np


def weights(n_c: int, intercept: bool = True) -> np.ndarray:
    """The calibration weights w: 1/n_c with the intercept, 0 without it."""
    return np.full(n_c, 1.0 / n_c) if intercept else np.zeros(n_c)


def centering_matrix(w: np.ndarray) -> np.ndarray:
    n = len(w)
    return np.eye(n) - np.outer(np.ones(n), w)


def reconstruction_matrix(S: np.ndarray, lam: float, w: np.ndarray,
                          calib: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Explicit S_vc (S_cc + lam I)^-1 (I - 1 w^T) + 1 w^T."""
    S_cc = S[np.ix_(calib, calib)]
    S_vc = S[np.ix_(valid, calib)]
    inv = np.linalg.inv(S_cc + lam * np.eye(len(calib)))
    return S_vc @ inv @ centering_matrix(w) + np.outer(np.ones(len(valid)), w)


def lift_calibration_null(S: np.ndarray, calib: np.ndarray) -> np.ndarray:
    """Copy of S with alpha 11^T / n_c added to S_cc, alpha = tr(S_cc) / n_c.

    Calibration-period standardization makes S_cc 1 = 0, so near lam = 1e-8
    the explicit inverse sees a condition number near 1e9. The lift moves
    that null eigenvalue to alpha, leaving the oracle at condition ~1e3, and
    changes neither the reconstruction operator nor the hat matrix when w is
    uniform: both see y_c only through (I - 1 w^T) y_c, which is orthogonal
    to 1.
    """
    S = np.array(S, dtype=float)
    cc = np.ix_(calib, calib)
    S[cc] += np.trace(S[cc]) / len(calib) ** 2
    return S


def hat_matrix(S_cc: np.ndarray, lam: float, w: np.ndarray) -> np.ndarray:
    n = S_cc.shape[0]
    inv = np.linalg.inv(S_cc + lam * np.eye(n))
    return S_cc @ inv @ centering_matrix(w) + np.outer(np.ones(n), w)


def gcv_value(S_cc: np.ndarray, lam: float, w: np.ndarray, y_c: np.ndarray) -> float:
    n = len(y_c)
    H = hat_matrix(S_cc, lam, w)
    r = (np.eye(n) - H) @ y_c
    return n * float(r @ r) / np.trace(np.eye(n) - H) ** 2


def dense_grid_gcv_min(S_cc: np.ndarray, w: np.ndarray, y_c: np.ndarray,
                       lo: float = 1e-8, hi: float = 1e8,
                       points: int = 2000) -> tuple[float, float]:
    grid = np.geomspace(lo, hi, points)
    scores = [gcv_value(S_cc, lam, w, y_c) for lam in grid]
    i = int(np.argmin(scores))
    return float(grid[i]), float(scores[i])


def dense_grid_gcv_ties(S_cc: np.ndarray, w: np.ndarray, y_c: np.ndarray,
                        tie_rel: float = 1e-6, lo: float = 1e-8, hi: float = 1e8,
                        points: int = 2000) -> tuple[np.ndarray, float]:
    """Dense-grid minimum plus every grid lambda tying it within tie_rel.

    Where the objective is flat at the grid's resolution, the grid argmin is
    an arbitrary tie-break; any tied point is an equally valid brute-force
    answer.
    """
    grid = np.geomspace(lo, hi, points)
    scores = np.array([gcv_value(S_cc, lam, w, y_c) for lam in grid])
    v_min = float(scores.min())
    return grid[scores <= v_min * (1 + tie_rel)], v_min


def gram_by_accumulation(Xs: np.ndarray) -> np.ndarray:
    """Sum of column outer products divided by the column count."""
    n, p = Xs.shape
    S = np.zeros((n, n))
    for j in range(p):
        S += np.outer(Xs[:, j], Xs[:, j])
    return S / p


def rmse_by_loop(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return (total / len(a)) ** 0.5


def standardize_by_loop(data: np.ndarray, calib: np.ndarray) -> np.ndarray:
    """Per-column standardization over calibration rows, one entry at a time."""
    n, p = data.shape
    out = np.empty_like(data, dtype=float)
    for j in range(p):
        vals = [data[i, j] for i in calib]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        sd = var ** 0.5
        for i in range(n):
            out[i, j] = (data[i, j] - mean) / sd
    return out


def kriging_by_inverse(Phi: np.ndarray, nugget: float, y_c: np.ndarray,
                       calib: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Phi_vc [Phi_cc + nugget I]^-1 y_c with an explicit inverse."""
    Phi_cc = Phi[np.ix_(calib, calib)]
    Phi_vc = Phi[np.ix_(valid, calib)]
    return Phi_vc @ np.linalg.inv(Phi_cc + nugget * np.eye(len(calib))) @ y_c


def constant_baseline_rmse(y_values: np.ndarray, split) -> float:
    """RMSE of predicting the calibration mean on every validation year."""
    pred = np.full(split.n_v, y_values[split.calib_rows].mean())
    return rmse_by_loop(pred, y_values[split.valid_rows])


def column_normals_by_seedsequence(seed: int, n: int, p: int) -> np.ndarray:
    """n x p standard normals with a fresh SeedSequence(seed, spawn_key=(j,))
    and Generator for every column j: the construction the batched
    production seeding must reproduce bit for bit."""
    out = np.empty((n, p))
    for j in range(p):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        out[:, j] = rng.standard_normal(n)
    return out


def lag1_autocorr(data: np.ndarray) -> float:
    """Pooled lag-1 autocorrelation of a zero-mean unit-variance ensemble.

    Ratio of the mean lagged product to the mean square, pooled over all
    columns; bias is O(1/(n p)) for the processes generated here.
    """
    num = np.sum(data[:-1] * data[1:]) / (data.shape[1] * (data.shape[0] - 1))
    den = np.sum(data * data) / data.size
    return float(num / den)


def psi_monte_carlo(x: np.ndarray, split) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo Psi from a pool x of P noise columns: the mean of z z^T
    over the columns standardized over the calibration rows, and the
    difference of its two half-sample means, whose RMS shrinks like
    1/sqrt(P) and calibrates the mean's error."""
    calib = x[split.calib_rows]
    z = (x - calib.mean(axis=0)) / calib.std(axis=0, ddof=1)
    P, half = x.shape[1], x.shape[1] // 2
    first, second = z[:, :half] @ z[:, :half].T, z[:, half:] @ z[:, half:].T
    return (first + second) / P, first / half - second / (P - half)


def psi_by_quad_vec(Phi: np.ndarray, calib: np.ndarray) -> np.ndarray:
    """Full n x n Psi = (n_c - 1) M L E[g g^T / g^T R g] L^T M^T, with
    M = I - 1 e_c^T / n_c, R = L^T M^T D_c M L and L = chol(Phi), by scipy's
    adaptive quadrature of int_0^inf det(I + 2tR)^-1/2 (I + 2tR)^-1 dt, in
    u = log t up to t = e^30, where the explicit inverse is still accurate.
    Finite only for n_c >= 4; the cut tail is below 1e-13 there."""
    from scipy.integrate import quad_vec

    n, n_c = len(Phi), len(calib)
    M = np.eye(n)
    M[:, calib] -= 1.0 / n_c
    D = np.zeros((n, n))
    D[calib, calib] = 1.0
    L = np.linalg.cholesky(Phi)
    R = L.T @ M.T @ D @ M @ L

    def integrand(u):
        A = np.eye(n) + 2.0 * np.exp(u) * R
        return np.exp(u - 0.5 * np.linalg.slogdet(A)[1]) * np.linalg.inv(A)

    E, _ = quad_vec(integrand, -50.0, 30.0, epsabs=1e-15, epsrel=1e-13, limit=4000)
    return (n_c - 1) * M @ L @ E @ L.T @ M.T
