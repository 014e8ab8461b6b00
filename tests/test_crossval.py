import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import paleoxval as px
from paleoxval.errors import (BlockFailure, DegenerateColumn, InvalidBlockLength,
                              LengthMismatch, NonFiniteValue)
from paleoxval.gcv import COARSE_GRID, SEARCH_DOMAIN, minimize_gcv


def run_block(X, y, split):
    """One proxy block: its Gram columns through the block tail, which
    returns (y_hat_v, rmse, GcvResult)."""
    return px.reconstruct_with_gcv(px.proxy_columns(X, split), y, split)


class TestMakeBlocks:
    def test_reference_design(self):
        splits = px.make_blocks(149, 30)
        assert len(splits) == 120
        assert all(s.n_c == 119 for s in splits)
        assert [s.block_start for s in splits] == list(range(120))

    def test_rejects_degenerate_lengths(self):
        with pytest.raises(InvalidBlockLength):
            px.make_blocks(5, 5)
        with pytest.raises(InvalidBlockLength):
            px.make_blocks(5, 1)

    def test_small_enumeration(self):
        splits = px.make_blocks(5, 2)
        assert len(splits) == 4
        assert list(splits[1].calib_rows) == [0, 3, 4]

    @given(st.integers(4, 30), st.integers(2, 10))
    def test_each_interior_year_in_n_v_blocks(self, n, n_v):
        if n_v >= n:
            n_v = n - 1
        splits = px.make_blocks(n, n_v)
        counts = np.zeros(n, dtype=int)
        for s in splits:
            counts[s.valid_rows] += 1
        interior = counts[n_v - 1:n - n_v + 1]
        assert np.all(interior == n_v)
        assert counts[0] == 1 and counts[-1] == 1


class TestRunBlock:
    def test_exact_signal_beats_baseline_everywhere(self, y60, splits60):
        # the target itself as the single proxy column is recovered on every block
        X = px.ProxyMatrix(y60.values[:, None], ("target_copy",))
        rep = px.run_curves([px.experiment_entry("self", X)], y60, splits60)[0]
        baselines = np.array([oracles.constant_baseline_rmse(y60.values, s)
                              for s in splits60])
        assert np.all(rep.block_rmse <= baselines)

    def test_single_white_column_tracks_baseline(self, y60, splits60):
        # a useless predictor should collapse onto the calibration mean
        ratios = []
        for seed in range(50):
            X = px.generate(px.NoiseSpec(kind="white", n=60, p=1, seed=1000 + seed))
            rep = px.run_curves([px.experiment_entry("w1", X)], y60, splits60)[0]
            base = np.mean([oracles.constant_baseline_rmse(y60.values, s) for s in splits60])
            ratios.append(rep.mean_rmse / base)
        assert abs(np.mean(ratios) - 1.0) < 0.2

    def test_column_permutation_invariance(self, y60, splits60):
        rng = np.random.default_rng(31)
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=40, seed=8, phi=0.9))
        perm = rng.permutation(40)
        Xp = px.ProxyMatrix(X.data[:, perm], tuple(X.column_ids[j] for j in perm))
        split = splits60[7]
        S = px.gram_matrix(px.standardize(X, split))
        Sp = px.gram_matrix(px.standardize(Xp, split))
        assert np.max(np.abs(S - Sp)) < 1e-12
        a_hat, a_rmse, _ = run_block(X, y60, split)
        b_hat, b_rmse, _ = run_block(Xp, y60, split)
        np.testing.assert_allclose(a_hat, b_hat, rtol=0, atol=1e-12)
        assert abs(a_rmse - b_rmse) < 1e-12

    def test_matches_end_to_end_oracle(self, y60):
        # brute-force recomputation of one block: loop standardization, loop
        # Gram accumulation, explicit operator assembly at the library's lam;
        # AR(1) at p = 80 > n_c on block 8 selects the lower edge of the domain
        w = oracles.weights(48)
        lams = []
        kinds = (("white", None), ("ar1", 0.8), ("brownian", None))
        for (kind, phi), p, start in itertools.product(kinds, (6, 80), (8, 20)):
            split = px.HoldoutSplit(60, start, 12)
            X = px.generate(px.NoiseSpec(kind=kind, n=60, p=p, seed=77, phi=phi))
            y_hat, score, gcv = run_block(X, y60, split)
            lams.append(gcv.lambda_min)

            Xs = oracles.standardize_by_loop(X.data, split.calib_rows)
            S = oracles.lift_calibration_null(oracles.gram_by_accumulation(Xs), split.calib_rows)
            R = oracles.reconstruction_matrix(S, gcv.lambda_min, w, split.calib_rows,
                                              split.valid_rows)
            want = R @ y60.values[split.calib_rows]
            np.testing.assert_allclose(y_hat, want, rtol=1e-8, atol=1e-10)
            assert abs(score - oracles.rmse_by_loop(y_hat, y60.values[split.valid_rows])) < 1e-14
        assert SEARCH_DOMAIN[0] in lams

    def test_lambda_comes_from_gcv_on_calibration_gram(self, y60):
        split = px.HoldoutSplit(60, 0, 12)
        X = px.generate(px.NoiseSpec(kind="white", n=60, p=10, seed=3))
        _, _, gcv = run_block(X, y60, split)
        S = px.gram_matrix(px.standardize(X, split))
        sel = minimize_gcv(px.ShiftedSystem(S[np.ix_(split.calib_rows, split.calib_rows)],
                                            y60.values[split.calib_rows]))
        assert gcv.lambda_min == sel.lambda_min


class TestRunExperiment:
    def test_single_split(self, y60, splits60):
        X = px.generate(px.NoiseSpec(kind="white", n=60, p=5, seed=1))
        rep = px.run_curves([px.experiment_entry("one", X)], y60, splits60[:1])[0]
        assert len(rep.block_rmse) == 1
        assert rep.mean_rmse == rep.block_rmse[0]

    def test_deterministic(self, y60, splits60):
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=8, seed=4, phi=0.9))
        a = px.run_curves([px.experiment_entry("det", X)], y60, splits60)[0]
        b = px.run_curves([px.experiment_entry("det", X)], y60, splits60)[0]
        assert np.array_equal(a.block_rmse, b.block_rmse)
        assert np.array_equal(a.per_block_lambda, b.per_block_lambda)
        assert a.mean_rmse == b.mean_rmse

    def test_memory_order_does_not_change_results(self, y60, splits60):
        X = px.generate(px.NoiseSpec(kind="ar1", n=60, p=300, seed=9, phi=0.9))
        F = px.ProxyMatrix(np.asfortranarray(X.data), X.column_ids)
        c, f = px.run_curves([px.experiment_entry("c", X), px.experiment_entry("f", F)],
                             y60, splits60)
        assert c.predictions.tobytes() == f.predictions.tobytes()
        assert c.per_block_lambda.tobytes() == f.per_block_lambda.tobytes()

    def test_full_curve_shape(self, y60, splits60):
        X = px.generate(px.NoiseSpec(kind="white", n=60, p=5, seed=2))
        rep = px.run_curves([px.experiment_entry("shape", X)], y60, splits60)[0]
        assert len(rep.block_rmse) == 60 - 12 + 1
        assert rep.mean_rmse == pytest.approx(rep.block_rmse.mean())
        assert np.array_equal(rep.block_starts, np.arange(49))

    def test_strict_aborts_permissive_records_nan(self, y60, splits60):
        data = np.column_stack([np.arange(60.0), np.full(60, 1.0)])
        X = px.ProxyMatrix(data, ("trend", "flat"))
        with pytest.raises(BlockFailure):
            px.run_curves([px.experiment_entry("bad", X)], y60, splits60)
        rep = px.run_curves([px.experiment_entry("bad", X)], y60, splits60,
                            mode="permissive")[0]
        assert np.all(np.isnan(rep.block_rmse))
        assert np.isnan(rep.mean_rmse)
        rep2 = px.run_curves([px.experiment_entry("ok", X, drop_degenerate=True)],
                             y60, splits60)[0]
        assert np.all(np.isfinite(rep2.block_rmse))


class TestRunEnsemble:
    def test_single_member(self, y60, splits60):
        spec = px.NoiseSpec(kind="white", n=60, p=6, seed=40)
        done = px.run_curves(px.ensemble_entries(spec, 1), y60, splits60)
        mean, scatter = px.ensemble_stats(done)
        assert np.array_equal(mean, done[0].block_rmse)
        assert np.all(scatter == 0.0)

    def test_stats_are_read_only_arrays(self):
        members = [px.ExperimentReport(f"m{i}", [0, 1], [0.1 * (i + 1), 0.2], [1.0, 1.0],
                                       [[0.0], [0.0]]) for i in range(2)]
        mean, scatter = px.ensemble_stats(members)
        assert not mean.flags.writeable and not scatter.flags.writeable
        np.testing.assert_allclose(mean, [0.15, 0.2], rtol=1e-15)
        np.testing.assert_allclose(scatter, [np.sqrt(0.005), 0.0], rtol=1e-15)

    def test_member_seeds_are_consecutive(self, y60, splits60):
        spec = px.NoiseSpec(kind="white", n=60, p=6, seed=40)
        X2 = px.generate(px.NoiseSpec(kind="white", n=60, p=6, seed=42))
        *members, direct = px.run_curves(
            [*px.ensemble_entries(spec, 3), px.experiment_entry("m2", X2)], y60, splits60)
        assert [rep.label for rep in members] == [
            "white_member000", "white_member001", "white_member002"]
        assert np.array_equal(members[2].block_rmse, direct.block_rmse)

    def test_scatter_positive_and_mean_consistent(self, y60, splits60):
        spec = px.NoiseSpec(kind="white", n=60, p=6, seed=50)
        done = px.run_curves(px.ensemble_entries(spec, 20), y60, splits60)
        mean, scatter = px.ensemble_stats(done)
        assert np.all(scatter > 0)
        curves = np.array([r.block_rmse for r in done])
        np.testing.assert_allclose(mean, curves.mean(axis=0), rtol=1e-15)

    def test_mean_curve_stable_across_base_seeds(self, y60, splits60):
        spec_a = px.NoiseSpec(kind="white", n=60, p=30, seed=600)
        spec_b = px.NoiseSpec(kind="white", n=60, p=30, seed=9600)
        m = 30
        done = px.run_curves([*px.ensemble_entries(spec_a, m),
                              *px.ensemble_entries(spec_b, m)], y60, splits60)
        means_a = np.array([rep.mean_rmse for rep in done[:m]])
        means_b = np.array([rep.mean_rmse for rep in done[m:]])
        gap = abs(means_a.mean() - means_b.mean())
        se = np.sqrt(means_a.var(ddof=1) / m + means_b.var(ddof=1) / m)
        assert gap < 2 * se + 1e-12

    def test_scatter_shrinks_with_p(self, y60, splits60):
        small = px.NoiseSpec(kind="ar1", n=60, p=30, seed=60, phi=0.99)
        big = px.NoiseSpec(kind="ar1", n=60, p=300, seed=70, phi=0.99)
        done = px.run_curves([*px.ensemble_entries(small, 8),
                              *px.ensemble_entries(big, 8)], y60, splits60)
        scatter_small = px.ensemble_stats(done[:8])[1]
        scatter_big = px.ensemble_stats(done[8:])[1]
        frac = np.mean(scatter_big < scatter_small)
        assert frac >= 0.9


def test_run_curves_requires_splits_of_one_n_v(y60, splits60):
    entry = px.experiment_entry("x", px.ProxyMatrix(y60.values[:, None], ("y",)))
    with pytest.raises(ValueError):
        px.run_curves([entry], y60, [])
    with pytest.raises(ValueError):
        px.run_curves([], y60, splits60)
    with pytest.raises(ValueError, match="same n_v"):
        px.run_curves([entry], y60, [splits60[0], px.HoldoutSplit(60, 0, 11)])


def test_target_of_another_length_fails_once_before_any_block(y60, splits60, caplog):
    # a 50-year target on 60-row splits: one LengthMismatch in either mode,
    # with no block run and no "dropping block" line
    y50 = px.TimeSeries(years=y60.years[:50], values=y60.values[:50])
    X = px.ProxyMatrix(y60.values[:, None], ("y",))
    ran = []

    def columns(split):
        ran.append(split.block_start)
        return px.proxy_columns(X, split)
    for mode in ("strict", "permissive"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="paleoxval"):
            with pytest.raises(LengthMismatch, match="target has 50"):
                px.run_curves([("short", columns)], y50, splits60, mode=mode)
        assert caplog.records == []
    assert ran == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_target_near_1e300_is_a_typed_block_error(caplog):
    # the GCV score overflows: permissive mode drops and logs every block,
    # strict mode stops at the first
    years = np.arange(1, 41)
    y = px.TimeSeries(years, np.sin(years) * 1e300)
    entry = px.experiment_entry("w", px.NoiseSpec(kind="white", n=40, p=50, seed=1))
    splits = px.make_blocks(40, 10)
    with caplog.at_level(logging.WARNING, logger="paleoxval"):
        (rep,) = px.run_curves([entry], y, splits, mode="permissive")
    assert np.all(np.isnan(rep.block_rmse))
    assert len(caplog.records) == len(splits)
    assert "GCV score not finite" in caplog.records[0].getMessage()
    with pytest.raises(BlockFailure) as exc:
        px.run_curves([entry], y, splits)
    assert exc.value.block_start == 0 and isinstance(exc.value.cause, NonFiniteValue)


NOISE_KINDS = [("white", None), ("ar1", 0.9), ("brownian", None)]


@settings(max_examples=30)
@given(kind=st.sampled_from(NOISE_KINDS), n=st.integers(8, 20), narrow=st.booleans(),
       longest=st.booleans(), seed=st.integers(0, 2**20))
def test_run_curves_matches_oracles_over_noise_and_block_lengths(kind, n, narrow, longest, seed):
    # the production block loop against the dense oracles, block by block,
    # with S_cc lifted off its null direction as in perfbench's gate; p below
    # n_c or above it; n_v = 2 or n - 1, whose one calibration row leaves every
    # column degenerate. 30 examples run in about 2 s on 2 CPUs.
    n_v = n - 1 if longest else 2
    p = 3 if narrow else 2 * n
    spec = px.NoiseSpec(kind=kind[0], n=n, p=p, seed=seed, phi=kind[1])
    y = px.smooth_target(n, seed=seed)
    splits = px.make_blocks(n, n_v)
    entry = px.experiment_entry("sweep", spec)
    if longest:
        with pytest.raises(BlockFailure) as exc:
            px.run_curves([entry], y, splits)
        assert exc.value.block_start == 0 and isinstance(exc.value.cause, DegenerateColumn)
        (rep,) = px.run_curves([entry], y, splits, mode="permissive")
        assert rep.predictions.shape == (2, n_v) and np.all(np.isnan(rep.predictions))
        assert np.all(np.isnan(rep.block_rmse)) and np.isnan(rep.mean_rmse)
        return
    (rep,) = px.run_curves([entry], y, splits)
    X = px.generate(spec).data
    for k, split in enumerate(splits):
        calib, valid = split.calib_rows, split.valid_rows
        S = oracles.lift_calibration_null(
            oracles.gram_by_accumulation(oracles.standardize_by_loop(X, calib)), calib)
        w, lam, y_c = oracles.weights(split.n_c), rep.per_block_lambda[k], y.values[calib]
        want = oracles.reconstruction_matrix(S, lam, w, calib, valid) @ y_c
        np.testing.assert_allclose(rep.predictions[k], want, rtol=1e-8, atol=1e-10)
        assert rep.block_rmse[k] == pytest.approx(
            oracles.rmse_by_loop(rep.predictions[k], y.values[valid]), rel=1e-14)
        S_cc = S[np.ix_(calib, calib)]
        v_grid = min(oracles.gcv_value(S_cc, g, w, y_c) for g in COARSE_GRID)
        assert oracles.gcv_value(S_cc, lam, w, y_c) <= v_grid * (1 + 1e-6)


def shift_entries(y: px.TimeSeries) -> dict[str, px.crossval.Curve]:
    """Every kind of curve: proxies that carry the target, three noise members,
    and the exact AR(1) limit and kriging."""
    Phi = px.ar1_covariance(y.n, 0.9)
    noise = px.generate(px.NoiseSpec(kind="white", n=y.n, p=50, seed=4))
    X = px.ProxyMatrix(y.values[:, None] + noise.data, noise.column_ids)
    members = [px.NoiseSpec(kind="white", n=y.n, p=300, seed=5),
               px.NoiseSpec(kind="ar1", n=y.n, p=300, seed=6, phi=0.9),
               px.NoiseSpec(kind="brownian", n=y.n, p=300, seed=7)]
    return dict([px.experiment_entry("proxies", X),
                 *(px.experiment_entry(spec.kind, spec) for spec in members),
                 px.limit_entry("limit", Phi), px.kriging_entry("kriging", Phi)])


@pytest.mark.parametrize("shift", [0.5, 5.0])
@pytest.mark.parametrize("curve", [
    "proxies", "white", "ar1", "brownian", "limit",
    pytest.param("kriging", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 6: simple kriging predicts about a zero mean, "
               "not about the calibration mean")),
])
def test_predictions_follow_a_shift_of_the_target(y60, splits60, curve, shift):
    # ridge with an intercept is shift-equivariant: a constant added to the
    # target moves every prediction by that constant and leaves lambda alone
    shifted = px.TimeSeries(years=y60.years, values=y60.values + shift)
    entry = (curve, shift_entries(y60)[curve])
    (base,) = px.run_curves([entry], y60, splits60)
    (moved,) = px.run_curves([entry], shifted, splits60)
    assert np.abs(moved.predictions - base.predictions - shift).max() <= 1e-12
    np.testing.assert_allclose(moved.per_block_lambda, base.per_block_lambda, rtol=1e-12, atol=0)
