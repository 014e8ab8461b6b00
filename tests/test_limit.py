import numpy as np
import pytest

import oracles
import paleoxval as px
from paleoxval.errors import BlockMismatch, LengthMismatch
from paleoxval import limit
from paleoxval.crossval import reconstruct_with_gcv
from paleoxval.limit import PsiEstimator


def limit_reconstruction(psi, y):
    """Reconstruction driven by Psi instead of a finite-p Gram matrix."""
    return reconstruct_with_gcv(psi.psi, y, psi.split)[0]


@pytest.fixture(scope="module")
def psi_white_20():
    split = px.HoldoutSplit.make(20, 8, 5)
    return split, px.estimate_psi(0.0, split, P=100_000, seed=3)


class TestEstimatePsi:
    def test_requires_enough_columns(self):
        split = px.HoldoutSplit.make(10, 4, 3)
        with pytest.raises(ValueError):
            px.estimate_psi(0.5, split, P=999, seed=0)

    def test_white_noise_expectations(self, psi_white_20):
        # exact small-sample moments of standardized white noise:
        #   calib-calib off-diagonal: -1/n_c        (forced by sum constraints)
        #   valid-calib:              0
        #   valid-valid off-diagonal: (1/n_c)(n_c - 1)/(n_c - 3)
        split, est = psi_white_20
        n_c = split.n_c
        psi = est.psi
        cc = psi[np.ix_(split.calib_rows, split.calib_rows)]
        off_cc = cc[~np.eye(n_c, dtype=bool)]
        assert np.max(np.abs(off_cc - (-1.0 / n_c))) < 0.02
        vc = psi[np.ix_(split.valid_rows, split.calib_rows)]
        assert np.max(np.abs(vc)) < 0.02
        vv = psi[np.ix_(split.valid_rows, split.valid_rows)]
        off_vv = vv[~np.eye(split.n_v, dtype=bool)]
        expected_vv = (1.0 / n_c) * (n_c - 1) / (n_c - 3)
        assert abs(off_vv.mean() - expected_vv) < 0.01

    def test_psd_and_symmetric(self, psi_white_20):
        _, est = psi_white_20
        assert np.array_equal(est.psi, est.psi.T)
        eigs = np.linalg.eigvalsh(est.psi)
        assert eigs.min() > -1e-8

    def test_calibration_diagonal_is_exact(self, psi_white_20):
        # every standardized column contributes exactly n_c - 1 over calib rows
        split, est = psi_white_20
        got = np.diag(est.psi)[split.calib_rows].sum() / split.n_c
        assert abs(got - (split.n_c - 1) / split.n_c) < 1e-10

    def test_half_split_diff_shrinks_like_sqrt_p(self):
        split = px.HoldoutSplit.make(15, 5, 4)
        r_p = np.mean([px.estimate_psi(0.9, split, 2000, seed=s).half_split_rms_diff
                       for s in range(10)])
        r_2p = np.mean([px.estimate_psi(0.9, split, 4000, seed=s).half_split_rms_diff
                        for s in range(10)])
        ratio = r_p / r_2p
        assert np.sqrt(2) * 0.7 < ratio < np.sqrt(2) * 1.3

    def test_two_seeds_agree_within_diagnostic(self):
        split = px.HoldoutSplit.make(20, 8, 5)
        a = px.estimate_psi(0.9, split, 20_000, seed=1)
        b = px.estimate_psi(0.9, split, 20_000, seed=2)
        rms = np.sqrt(np.mean((a.psi - b.psi) ** 2))
        assert rms < 3 * a.half_split_rms_diff

    @pytest.mark.parametrize("start", [0, 5, 9])
    def test_batches_match_loop_oracle(self, monkeypatch, start):
        # P = 40 in batches of 7 crosses batch boundaries in both halves
        n, P, phi, seed = 12, 40, 0.8, 5
        split = px.HoldoutSplit.make(n, start, 3)
        default = PsiEstimator(phi, n, P, seed).estimate(split)
        monkeypatch.setattr(limit, "PSI_BATCH_COLUMNS", 7)
        batched = PsiEstimator(phi, n, P, seed).estimate(split)
        pool = oracles.standardize_by_loop(
            px.generate(px.NoiseSpec(kind="ar1", n=n, p=P, seed=seed, phi=phi)).data,
            split.calib_rows)
        halves = [sum(np.outer(c, c) for c in pool[:, cols].T)
                  for cols in (slice(0, P // 2), slice(P // 2, P))]
        psi = (halves[0] + halves[1]) / P
        rms = np.sqrt(np.mean((halves[0] / (P // 2) - halves[1] / (P - P // 2)) ** 2))
        np.testing.assert_allclose(batched.psi, (psi + psi.T) / 2, rtol=1e-12, atol=1e-12)
        assert batched.half_split_rms_diff == pytest.approx(rms, rel=1e-12)
        np.testing.assert_allclose(batched.psi, default.psi, rtol=1e-13, atol=1e-13)
        assert batched.half_split_rms_diff == pytest.approx(default.half_split_rms_diff,
                                                            rel=1e-13)

    def test_split_must_match_pool_rows(self):
        with pytest.raises(LengthMismatch):
            PsiEstimator(0.5, 12, 40, seed=1).estimate(px.HoldoutSplit.make(13, 4, 3))

    def test_estimator_matches_one_shot(self):
        split = px.HoldoutSplit.make(12, 4, 3)
        shared = PsiEstimator(0.8, 12, 2000, seed=9).estimate(split)
        one_shot = px.estimate_psi(0.8, split, 2000, seed=9)
        assert np.array_equal(shared.psi, one_shot.psi)
        assert shared.half_split_rms_diff == one_shot.half_split_rms_diff


class TestLimitReconstruction:
    def test_decoupled_identity_psi_gives_calibration_mean(self, y60):
        split = px.HoldoutSplit.make(60, 30, 12)
        est = px.PsiEstimate(psi=np.eye(60), n_columns=10_000, phi=0.0, split=split,
                             half_split_rms_diff=0.0)
        out = limit_reconstruction(est, y60)
        c = y60.values[split.calib_rows].mean()
        np.testing.assert_allclose(out.y_hat_v, np.full(12, c), atol=1e-12)

    def test_repeatable(self, y60):
        split = px.HoldoutSplit.make(60, 10, 12)
        est = px.estimate_psi(0.9, split, 5000, seed=12)
        a = limit_reconstruction(est, y60)
        b = limit_reconstruction(est, y60)
        assert np.array_equal(a.y_hat_v, b.y_hat_v)
        assert a.lam == b.lam and a.rmse == b.rmse

    def test_close_to_large_p_run(self, y60, splits60):
        # a p = 1e5 noise reconstruction should sit within 5% of the limit
        # on each sampled block
        estimator = PsiEstimator(0.99, 60, 100_000, seed=51)
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=100_000, seed=250, phi=0.99))
        for split in splits60[::12]:
            direct = px.run_block(X, y60, split)
            lim = limit_reconstruction(estimator.estimate(split), y60)
            assert abs(direct.rmse - lim.rmse) < 0.05 * lim.rmse


class TestSimpleKriging:
    def test_huge_nugget_shrinks_to_zero(self, y60):
        split = px.HoldoutSplit.make(60, 20, 12)
        out = px.simple_kriging(0.9, y60, split,
                                px.KrigingSpec(phi=0.9, nugget=1e12, source="fixed"))
        assert np.max(np.abs(out.y_hat_v)) < 1e-9

    def test_tiny_phi_decorrelates(self, y60):
        split = px.HoldoutSplit.make(60, 20, 12)
        out = px.simple_kriging(1e-12, y60, split,
                                px.KrigingSpec(phi=1e-12, nugget=0.1, source="fixed"))
        assert np.max(np.abs(out.y_hat_v)) < 1e-9

    def test_small_system_matches_inverse_oracle(self):
        y = px.TimeSeries(years=np.arange(2000, 2004), values=[0.3, -0.1, 0.4, 0.2])
        split = px.HoldoutSplit.make(4, 3, 1)
        out = px.simple_kriging(0.5, y, split,
                                px.KrigingSpec(phi=0.5, nugget=0.1, source="fixed"))
        want = oracles.kriging_by_inverse(px.ar1_covariance(4, 0.5), 0.1,
                                          y.values[split.calib_rows],
                                          split.calib_rows, split.valid_rows)
        np.testing.assert_allclose(out.y_hat_v, want, rtol=1e-12)
        assert out.lam == 0.1

    def test_gcv_nugget_deterministic(self, y60):
        split = px.HoldoutSplit.make(60, 5, 12)
        a = px.simple_kriging(0.99, y60, split)
        b = px.simple_kriging(0.99, y60, split)
        assert a.lam == b.lam
        assert np.array_equal(a.y_hat_v, b.y_hat_v)

    def test_operator_route_reproduces_kriging(self, y60, splits60):
        # the intercept-free, unstandardized operator route with exact Phi
        # equals the direct kriging formula on every block
        Phi = px.ar1_covariance(60, 0.99)
        for split in splits60[::6]:
            krig = px.simple_kriging(0.99, y60, split)
            direct = oracles.kriging_by_inverse(Phi, krig.lam, y60.values[split.calib_rows],
                                                split.calib_rows, split.valid_rows)
            np.testing.assert_allclose(krig.y_hat_v, direct, rtol=0, atol=1e-8)

    def test_fixed_zero_nugget_rejected(self):
        with pytest.raises(ValueError):
            px.KrigingSpec(phi=0.9, nugget=0.0, source="fixed")

    def test_phi_mismatch_rejected(self, y60):
        split = px.HoldoutSplit.make(60, 0, 12)
        with pytest.raises(ValueError):
            px.simple_kriging(0.9, y60, split, px.KrigingSpec(phi=0.8))


class TestSemivariogram:
    def test_nugget_at_origin(self):
        assert px.semivariogram(0.0, 0.9, 0.3) == pytest.approx(0.3)

    def test_sill_at_infinity(self):
        assert px.semivariogram(1e6, 0.9, 0.3) == pytest.approx(1.3)

    def test_decorrelation_scale(self):
        # phi = exp(-1/99.5) has e-folding lag 99.5 years
        phi = np.exp(-1.0 / 99.5)
        got = px.semivariogram(99.5, phi, 0.2)
        assert got == pytest.approx(0.2 + 1.0 - np.exp(-1.0), rel=1e-12)

    def test_consistent_with_ar1_covariance(self):
        phi, nugget = 0.97, 0.05
        C = px.ar1_covariance(8, phi)
        for tau in range(8):
            # partial sill is 1: 1 - gamma(tau) + nugget recovers phi^tau
            recovered = 1.0 - px.semivariogram(float(tau), phi, nugget) + nugget
            assert recovered == C[0, tau]

    def test_vectorized(self):
        taus = np.array([0.0, 1.0, 2.0])
        out = px.semivariogram(taus, 0.5, 0.1)
        np.testing.assert_allclose(out, 0.1 + 1.0 - 0.5**taus)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            px.semivariogram(-1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            px.semivariogram(1.0, 0.5, -0.1)


class TestRmsDifference:
    def _report(self, values, starts=None, label="r"):
        values = np.asarray(values, dtype=float)
        starts = np.arange(len(values)) if starts is None else np.asarray(starts)
        return px.ExperimentReport(label=label, block_starts=starts,
                                   block_rmse=values,
                                   per_block_lambda=np.ones(len(values)),
                                   mean_rmse=float(values.mean()))

    def test_identical_reports(self):
        a = self._report([0.1, 0.2, 0.3])
        assert px.rms_difference(a, self._report([0.1, 0.2, 0.3])) == 0.0

    def test_constant_offset(self):
        a = self._report([0.1, 0.2, 0.3])
        b = self._report([0.35, 0.45, 0.55])
        assert px.rms_difference(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_matches_loop(self):
        rng = np.random.default_rng(15)
        x, z = rng.uniform(0, 1, 9), rng.uniform(0, 1, 9)
        want = oracles.rmse_by_loop(x, z)
        assert px.rms_difference(self._report(x), self._report(z)) == pytest.approx(want)

    def test_block_mismatch(self):
        with pytest.raises(BlockMismatch):
            px.rms_difference(self._report([0.1, 0.2]), self._report([0.1, 0.2, 0.3]))
        with pytest.raises(BlockMismatch):
            px.rms_difference(self._report([0.1, 0.2], starts=[0, 1]),
                              self._report([0.1, 0.2], starts=[0, 2]))

    def test_values_variant(self, y60, splits60):
        _, krig = px.kriging_curve(0.9, y60, splits60[:5])
        _, krig2 = px.kriging_curve(0.9, y60, splits60[:5])
        assert px.rms_difference_values(krig, krig2) == 0.0
        with pytest.raises(BlockMismatch):
            px.rms_difference_values(krig, krig2[1:])


class TestCurves:
    def test_limit_curve_matches_per_split_estimates(self, y60, splits60):
        some = splits60[:4]
        report, results = px.limit_curve(0.9, y60, some, P=2000, seed=5)
        assert report.n_blocks == 4
        est = PsiEstimator(0.9, 60, 2000, seed=5)
        direct = limit_reconstruction(est.estimate(some[2]), y60)
        assert report.block_rmse[2] == direct.rmse
        assert np.array_equal(results[2].y_hat_v, direct.y_hat_v)

    def test_kriging_curve_shape(self, y60, splits60):
        report, results = px.kriging_curve(0.95, y60, splits60[:3])
        assert report.n_blocks == 3 and len(results) == 3
        assert np.all(report.per_block_lambda > 0)

    def test_convergence_toward_limit_in_p(self, y60, splits60):
        # medians over 5 seeds of the curve-level RMS distance to the limit
        # shrink as p grows
        limit_rep, _ = px.limit_curve(0.99, y60, splits60, P=50_000, seed=500)
        medians = []
        for p, base in ((30, 700), (300, 800)):
            diffs = []
            for s in range(5):
                X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=p, seed=base + s, phi=0.99))
                rep = px.run_experiment(X, y60, splits60, label=f"p{p}")
                diffs.append(px.rms_difference(rep, limit_rep))
            medians.append(np.median(diffs))
        assert medians[1] < medians[0]
