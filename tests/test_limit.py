from functools import lru_cache

import numpy as np
import pytest

import oracles
import paleoxval as px
from paleoxval.errors import DegenerateColumn, LengthMismatch, SingularSystem


def exact_psi(phi, split):
    return px.psi_columns(px.ar1_covariance(split.n, phi), split)


def limit_reconstruction(phi, y, split):
    """Reconstruction driven by the exact Psi instead of a finite-p Gram
    matrix: the block tail's (y_hat_v, rmse, GcvResult)."""
    return px.reconstruct_with_gcv(exact_psi(phi, split), y, split)


def kriging(Phi, y, split):
    """One simple-kriging block: Phi's columns through the block tail."""
    return px.reconstruct_with_gcv(px.kriging_columns(Phi, split), y, split)


@lru_cache(maxsize=None)
def ar1_pool(phi, n, P, seed):
    return px.generate(px.NoiseSpec(kind="ar1", n=n, p=P, seed=seed, phi=phi)).data


def rms(a):
    return float(np.sqrt(np.mean(np.square(a))))


@pytest.fixture(scope="module")
def psi_white_20():
    split = px.HoldoutSplit(20, 8, 5)
    return split, exact_psi(0.0, split)


class TestEstimatePsi:
    def test_requires_enough_columns(self):
        # one calibration row leaves Psi[:, calib] one column and s undefined
        with pytest.raises(DegenerateColumn):
            exact_psi(0.5, px.HoldoutSplit(10, 0, 9))

    def test_white_noise_expectations(self, psi_white_20):
        # exact small-sample moments of standardized white noise:
        #   calib-calib off-diagonal: -1/n_c        (forced by sum constraints)
        #   valid-calib:              0
        split, psi = psi_white_20
        n_c = split.n_c
        cc = psi.S_c[split.calib_rows]
        off_cc = cc[~np.eye(n_c, dtype=bool)]
        assert np.max(np.abs(off_cc - (-1.0 / n_c))) < 1e-12
        assert np.max(np.abs(psi.S_c[split.valid_rows])) < 1e-12

    def test_psd_and_symmetric(self, psi_white_20):
        split, _ = psi_white_20
        for phi in (0.0, 0.9):
            psi = exact_psi(phi, split)
            cc = psi.S_c[split.calib_rows]
            assert np.array_equal(cc, cc.T)
            sig, Q = psi.eig
            assert sig.min() >= 0.0
            np.testing.assert_allclose(Q @ np.diag(sig) @ Q.T, cc, rtol=0, atol=1e-13)

    def test_calibration_diagonal_is_exact(self, psi_white_20):
        # every standardized column has sum of squares n_c - 1 over calib rows
        split, psi = psi_white_20
        diag = np.diag(psi.S_c[split.calib_rows])
        assert np.max(np.abs(diag - (split.n_c - 1) / split.n_c)) < 1e-12
        ar1 = exact_psi(0.9, split)
        assert abs(np.trace(ar1.S_c[split.calib_rows]) - (split.n_c - 1)) < 1e-12

    def test_half_split_diff_shrinks_like_sqrt_p(self):
        # the Monte Carlo oracle's diagnostic, which the agreement tests rely on
        split = px.HoldoutSplit(15, 5, 4)
        r_p, r_2p = (np.mean([rms(oracles.psi_monte_carlo(ar1_pool(0.9, 15, P, s), split)[1])
                              for s in range(10)]) for P in (2000, 4000))
        ratio = r_p / r_2p
        assert np.sqrt(2) * 0.7 < ratio < np.sqrt(2) * 1.3

    def test_two_seeds_agree_within_diagnostic(self):
        split = px.HoldoutSplit(20, 8, 5)
        a, diff = oracles.psi_monte_carlo(ar1_pool(0.9, 20, 20_000, 1), split)
        b, _ = oracles.psi_monte_carlo(ar1_pool(0.9, 20, 20_000, 2), split)
        assert rms(a - b) < 3 * rms(diff)

    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("n_c", [2, 3, 4])
    @pytest.mark.parametrize("start", [0, 1], ids=["edge", "interior"])
    def test_matches_monte_carlo(self, phi, n_c, start):
        # n = 10 throughout, so one pool per phi serves every split
        split = px.HoldoutSplit(10, start, 10 - n_c)
        c = split.calib_rows
        got = exact_psi(phi, split).S_c
        mc, diff = oracles.psi_monte_carlo(ar1_pool(phi, 10, 40_000, 61), split)
        assert rms(got - mc[:, c]) < 3 * rms(diff[:, c])
        if n_c == 2:
            # z_c is +-(1, -1) / sqrt(2), so Psi_cc is exact in every sample;
            # Psi_vc has no mean (a Cauchy-like ratio): its check above holds
            # only because the heavy tail inflates the diagnostic as well
            np.testing.assert_allclose(got[c], mc[np.ix_(c, c)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("start", [0, 5, 9])
    def test_matches_dense_oracle(self, start):
        pytest.importorskip("scipy")
        split = px.HoldoutSplit(12, start, 3)
        Phi = px.ar1_covariance(12, 0.8)
        want = oracles.psi_by_quad_vec(Phi, split.calib_rows)[:, split.calib_rows]
        np.testing.assert_allclose(px.psi_columns(Phi, split).S_c, want,
                                   rtol=0, atol=1e-12)

    def test_quad_error_estimate_at_reference_design(self):
        Phi = px.ar1_covariance(149, 0.99)
        worst = max(px.psi_columns(Phi, split).quad_error
                    for split in px.make_blocks(149, 30))
        assert worst < 1e-9

    def test_constant_series_covariance_raises(self):
        # x = c 1 has zero calibration variance, so s and Psi are undefined
        with pytest.raises(SingularSystem):
            px.psi_columns(np.ones((12, 12)), px.HoldoutSplit(12, 4, 3))

    def test_split_must_match_pool_rows(self):
        # the covariance Phi is the per-curve input shared by every block
        with pytest.raises(LengthMismatch):
            px.psi_columns(px.ar1_covariance(12, 0.5), px.HoldoutSplit(13, 4, 3))


class TestLimitReconstruction:
    def test_decoupled_identity_psi_gives_calibration_mean(self, y60):
        split = px.HoldoutSplit(60, 30, 12)
        y_hat, _, _ = px.reconstruct_with_gcv(px.Columns(np.eye(60)[:, split.calib_rows]),
                                              y60, split)
        c = y60.values[split.calib_rows].mean()
        np.testing.assert_allclose(y_hat, np.full(12, c), atol=1e-12)

    def test_repeatable(self, y60):
        split = px.HoldoutSplit(60, 10, 12)
        a_hat, a_rmse, a_gcv = limit_reconstruction(0.9, y60, split)
        b_hat, b_rmse, b_gcv = limit_reconstruction(0.9, y60, split)
        assert np.array_equal(a_hat, b_hat)
        assert a_gcv.lambda_min == b_gcv.lambda_min and a_rmse == b_rmse

    def test_known_eig_matches_eigh(self, y60, splits60):
        # Psi's own eigendecomposition stands in for eigh of Psi_cc
        for split in splits60[::8]:
            psi = exact_psi(0.99, split)
            given_hat, _, given = px.reconstruct_with_gcv(psi, y60, split)
            fresh_hat, _, fresh = px.reconstruct_with_gcv(psi._replace(eig=None), y60, split)
            assert given.lambda_min == pytest.approx(fresh.lambda_min, rel=1e-6)
            np.testing.assert_allclose(given_hat, fresh_hat, rtol=0, atol=1e-9)

    def test_close_to_large_p_run(self, y60, splits60):
        # a p = 1e5 noise reconstruction should sit within 5% of the limit
        # on each sampled block
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=100_000, seed=250, phi=0.99))
        for split in splits60[::12]:
            _, direct, _ = px.reconstruct_with_gcv(px.proxy_columns(X, split), y60, split)
            _, lim, _ = limit_reconstruction(0.99, y60, split)
            assert abs(direct - lim) < 0.05 * lim


def kriging_with_nugget(phi, y, split, nugget):
    """The production operator at a fixed nugget: S = Phi, no intercept."""
    Phi = px.ar1_covariance(y.n, phi)
    c, v = split.calib_rows, split.valid_rows
    system = px.ShiftedSystem(Phi[np.ix_(c, c)], y.values[c], intercept=False)
    return px.reconstruct(system, Phi[np.ix_(v, c)], nugget)


class TestSimpleKriging:
    def test_huge_nugget_shrinks_to_zero(self, y60):
        split = px.HoldoutSplit(60, 20, 12)
        y_hat = kriging_with_nugget(0.9, y60, split, 1e12)
        assert np.max(np.abs(y_hat)) < 1e-9

    def test_tiny_phi_decorrelates(self, y60):
        split = px.HoldoutSplit(60, 20, 12)
        y_hat = kriging_with_nugget(1e-12, y60, split, 0.1)
        assert np.max(np.abs(y_hat)) < 1e-9

    def test_small_system_matches_inverse_oracle(self):
        y = px.TimeSeries(years=np.arange(2000, 2004), values=[0.3, -0.1, 0.4, 0.2])
        split = px.HoldoutSplit(4, 3, 1)
        want = oracles.kriging_by_inverse(px.ar1_covariance(4, 0.5), 0.1,
                                          y.values[split.calib_rows],
                                          split.calib_rows, split.valid_rows)
        np.testing.assert_allclose(kriging_with_nugget(0.5, y, split, 0.1), want, rtol=1e-12)

    def test_gcv_nugget_deterministic(self, y60):
        split = px.HoldoutSplit(60, 5, 12)
        Phi = px.ar1_covariance(60, 0.99)
        a_hat, _, a_gcv = kriging(Phi, y60, split)
        b_hat, _, b_gcv = kriging(Phi, y60, split)
        assert a_gcv.lambda_min == b_gcv.lambda_min
        assert np.array_equal(a_hat, b_hat)

    def test_operator_route_reproduces_kriging(self, y60, splits60):
        # the intercept-free, unstandardized operator route with exact Phi
        # equals the direct kriging formula on every block
        Phi = px.ar1_covariance(60, 0.99)
        for split in splits60[::6]:
            y_hat, _, gcv = kriging(Phi, y60, split)
            direct = oracles.kriging_by_inverse(Phi, gcv.lambda_min, y60.values[split.calib_rows],
                                                split.calib_rows, split.valid_rows)
            np.testing.assert_allclose(y_hat, direct, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [59, 61])
    def test_split_must_match_series(self, y60, n):
        # a longer split must not reach Phi's rows: it fails like a shorter one
        with pytest.raises(LengthMismatch):
            px.kriging_columns(px.ar1_covariance(60, 0.9), px.HoldoutSplit(n, 0, 12))
        # a covariance that fits the splits but not the target fails in run_curves
        with pytest.raises(LengthMismatch):
            px.run_curves([px.kriging_entry("kriging", px.ar1_covariance(n, 0.9))], y60,
                          px.make_blocks(n, 12))


class TestRmsDifference:
    def _report(self, values):
        values = np.asarray(values, dtype=float)
        return px.ExperimentReport(label="r", block_starts=np.arange(len(values)),
                                   block_rmse=values,
                                   per_block_lambda=np.ones(len(values)),
                                   predictions=np.zeros((len(values), 2)))

    def test_identical_reports(self):
        a, b = self._report([0.1, 0.2, 0.3]), self._report([0.1, 0.2, 0.3])
        assert px.rmse(a.block_rmse, b.block_rmse) == 0.0

    def test_constant_offset(self):
        a = self._report([0.1, 0.2, 0.3])
        b = self._report([0.35, 0.45, 0.55])
        assert px.rmse(a.block_rmse, b.block_rmse) == pytest.approx(0.25, rel=1e-12)

    def test_matches_loop(self):
        rng = np.random.default_rng(15)
        x, z = rng.uniform(0, 1, 9), rng.uniform(0, 1, 9)
        want = oracles.rmse_by_loop(x, z)
        a, b = self._report(x), self._report(z)
        assert px.rmse(a.block_rmse, b.block_rmse) == pytest.approx(want)

    def test_values_variant(self, y60, splits60):
        entry = px.kriging_entry("kriging_ar1_0.9", px.ar1_covariance(60, 0.9))
        krig, krig2 = px.run_curves([entry, entry], y60, splits60[:5])
        assert px.rmse(krig.predictions.ravel(), krig2.predictions.ravel()) == 0.0
        (shorter,) = px.run_curves([entry], y60, splits60[1:5])
        with pytest.raises(LengthMismatch):
            px.rmse(krig.predictions.ravel(), shorter.predictions.ravel())

    def test_values_pool_the_per_split_predictions(self, y60, splits60):
        # the pooled RMS gap is bit for bit the one over the predictions of
        # the kriging and the limit blocks, split by split, concatenated
        Phi = px.ar1_covariance(60, 0.9)
        some = splits60[::8]
        lim, krig = px.run_curves([px.limit_entry("limit", Phi),
                                   px.kriging_entry("kriging", Phi)], y60, some)
        da = np.concatenate([limit_reconstruction(0.9, y60, s)[0] for s in some])
        db = np.concatenate([kriging(Phi, y60, s)[0] for s in some])
        pooled = px.rmse(lim.predictions.ravel(), krig.predictions.ravel())
        assert pooled == px.rmse(da, db)
        assert pooled > 0.0


class TestCurves:
    def test_limit_curve_matches_per_split_estimates(self, y60, splits60):
        some = splits60[:4]
        entry = px.limit_entry("limit_ar1_0.9", px.ar1_covariance(60, 0.9))
        (report,) = px.run_curves([entry], y60, some)
        assert report.label == "limit_ar1_0.9"
        assert len(report.block_rmse) == 4
        y_hat, score, gcv = limit_reconstruction(0.9, y60, some[2])
        assert report.block_rmse[2] == score
        assert report.per_block_lambda[2] == gcv.lambda_min
        assert np.array_equal(report.predictions[2], y_hat)

    def test_kriging_curve_shape(self, y60, splits60):
        entry = px.kriging_entry("kriging_ar1_0.95", px.ar1_covariance(60, 0.95))
        (report,) = px.run_curves([entry], y60, splits60[:3])
        assert report.label == "kriging_ar1_0.95"
        assert len(report.block_rmse) == 3 and report.predictions.shape == (3, 12)
        assert np.all(report.per_block_lambda > 0)

    def test_convergence_toward_limit_in_p(self, y60, splits60):
        # medians over 5 seeds of the curve-level RMS distance to the limit
        # shrink as p grows
        curves = [px.limit_entry("limit_ar1_0.99", px.ar1_covariance(60, 0.99))]
        for p, base in ((30, 700), (300, 800)):
            curves += px.ensemble_entries(
                px.NoiseSpec(kind="ar1", n=60, p=p, seed=base, phi=0.99), 5)
        limit_rep, *members = px.run_curves(curves, y60, splits60)
        diffs = [px.rmse(rep.block_rmse, limit_rep.block_rmse) for rep in members]
        assert np.median(diffs[5:]) < np.median(diffs[:5])

    def test_white_limit_is_the_calibration_mean(self, y60, splits60):
        # for white noise Psi_vc is a multiple of 1 1^T and Psi_cc 1 = 0, so
        # the limit predicts the calibration mean at every lambda
        entry = px.limit_entry("limit_white", np.eye(60))
        (report,) = px.run_curves([entry], y60, splits60)
        baseline = [oracles.constant_baseline_rmse(y60.values, s) for s in splits60]
        np.testing.assert_allclose(report.block_rmse, baseline, rtol=0, atol=1e-12)


def linear_interpolation(y, split):
    """Brownian motion pinned at 0 at row -1, conditioned on the calibration
    rows: the straight line across the block from the row before it to the
    row after it, flat after the last row."""
    s, e = split.block_start, split.block_start + split.n_v
    left = y[s - 1] if s > 0 else 0.0
    if e == len(y):
        return np.full(split.n_v, left)
    return left + (y[e] - left) * (np.arange(s, e) - s + 1) / (e - s + 1)


@pytest.mark.parametrize("seed", [77, 78])
def test_noise_nulls_are_the_calibration_mean_and_linear_interpolation(seed):
    # the white limit's Psi_vc is 0, so it predicts the calibration mean at
    # every lambda; simple kriging on the Brownian covariance min(i, j) + 1 is
    # linear interpolation, up to the GCV search's floor nugget
    y = px.smooth_target(149, seed)
    rows = np.arange(149)
    brownian = np.minimum.outer(rows, rows) + 1.0
    for split in px.make_blocks(149, 30):
        white = px.reconstruct_with_gcv(px.psi_columns(np.eye(149), split), y, split)[0]
        assert np.abs(white - y.values[split.calib_rows].mean()).max() <= 1e-13
        kriged = kriging(brownian, y, split)[0]
        np.testing.assert_allclose(kriged, linear_interpolation(y.values, split),
                                   rtol=0, atol=1e-8)
