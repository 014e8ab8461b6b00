import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
import paleoxval as px
from paleoxval.errors import (DegenerateColumn, LengthMismatch, SingularSystem)


def reconstruct_block(S, lam, y_c, split, intercept=True):
    """The production route: factor S_cc once, then predict the block rows."""
    system = px.ShiftedSystem(S[np.ix_(split.calib_rows, split.calib_rows)], y_c,
                              intercept=intercept)
    return px.reconstruct(system, S[np.ix_(split.valid_rows, split.calib_rows)], lam)


class TestTypes:
    def test_timeseries_validates(self):
        with pytest.raises(LengthMismatch):
            px.TimeSeries(years=[2000, 2001, 2002], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            px.TimeSeries(years=[2000, 2002], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            px.TimeSeries(years=[2000], values=[1.0])
        with pytest.raises(ValueError):
            px.TimeSeries(years=[2000, 2001], values=[1.0, np.nan])

    def test_timeseries_is_immutable(self):
        ts = px.TimeSeries(years=[2000, 2001], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    def test_proxy_matrix_validates(self):
        with pytest.raises(ValueError):
            px.ProxyMatrix(data=np.array([[1.0, np.inf]]), column_ids=("a", "b"))
        with pytest.raises(LengthMismatch):
            px.ProxyMatrix(data=np.ones((3, 2)), column_ids=("a",))

    def test_holdout_split_two_segments(self):
        split = px.HoldoutSplit(5, 1, 2)
        assert list(split.valid_rows) == [1, 2]
        assert list(split.calib_rows) == [0, 3, 4]
        assert split.n_c + split.n_v == split.n == 5

    def test_holdout_split_rejects_bad_rows(self):
        # a block that does not fit in the n rows has no row sets
        with pytest.raises(ValueError):
            px.HoldoutSplit(5, 4, 2)
        with pytest.raises(ValueError):
            px.HoldoutSplit(5, -1, 2)
        with pytest.raises(ValueError):     # an empty or negative block
            px.HoldoutSplit(5, 2, 0)
        with pytest.raises(ValueError):
            px.HoldoutSplit(5, 2, -1)
        split = px.HoldoutSplit(5, 3, 2)
        assert list(split.calib_rows) == [0, 1, 2] and list(split.valid_rows) == [3, 4]
        assert not split.calib_rows.flags.writeable and not split.valid_rows.flags.writeable


class TestStandardize:
    def test_arithmetic_column_all_calib(self):
        # calibration rows {0,1,2} hold 1, 2, 3: mean 2, sample std 1
        X = px.ProxyMatrix(np.array([[1.0], [2.0], [3.0], [9.0], [4.0]]), ("x",))
        out = px.standardize(X, px.HoldoutSplit(5, 3, 2))
        # mean 2 and std 1 exactly: every standardized value is exact
        assert np.array_equal(out[:, 0], [-1.0, 0.0, 1.0, 7.0, 2.0])
        assert not out.flags.writeable

    def test_constant_column_raises(self):
        X = px.ProxyMatrix(np.array([[5.0], [5.0], [5.0], [5.0]]), ("const",))
        with pytest.raises(DegenerateColumn) as err:
            px.standardize(X, px.HoldoutSplit(4, 2, 1))
        assert "const" in str(err.value)

    def test_four_rows_two_segment_calib(self):
        # calib rows {0,1,3} hold values {1,2,3}: mean 2, std 1; all four
        # rows are transformed with those statistics
        X = px.ProxyMatrix(np.array([[1.0], [2.0], [4.0], [3.0]]), ("x",))
        out = px.standardize(X, px.HoldoutSplit(4, 2, 1))
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 2.0, 1.0], atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        X = px.ProxyMatrix(rng.standard_normal((7, 4)), tuple("abcd"))
        split = px.HoldoutSplit(7, 2, 3)
        out = px.standardize(X, split)
        np.testing.assert_allclose(out, oracles.standardize_by_loop(X.data, split.calib_rows),
                                   rtol=1e-12)

    def test_calibration_moments(self):
        rng = np.random.default_rng(11)
        X = px.ProxyMatrix(rng.standard_normal((20, 6)), tuple(f"c{i}" for i in range(6)))
        split = px.HoldoutSplit(20, 5, 6)
        out = px.standardize(X, split)
        calib = out[split.calib_rows]
        assert np.all(np.abs(calib.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(calib.std(axis=0, ddof=1) - 1.0) < 1e-10)

    @pytest.mark.parametrize("kind", ["brownian", "offset"])
    @pytest.mark.parametrize("start,n_v", [(0, 10), (15, 10), (30, 10),
                                           (0, 2), (19, 2), (38, 2)])
    def test_standardize_and_gram_match_loop_oracles(self, kind, start, n_v):
        rng = np.random.default_rng(17)
        n, p = 40, 6
        if kind == "brownian":
            data = np.cumsum(rng.standard_normal((n, p)), axis=0)
        else:
            # mean 1e6, std 1, on a 2^-10 grid: every calibration sum is exact
            # in any order, so the comparison sees the variance formula (a
            # one-pass sum x^2 - n mean^2 fails it), not the summation order
            data = 1e6 + np.round(rng.standard_normal((n, p)) * 2**10) / 2**10
        X = px.ProxyMatrix(data, tuple(f"c{j}" for j in range(p)))
        split = px.HoldoutSplit(n, start, n_v)
        Xs = px.standardize(X, split)
        ref = oracles.standardize_by_loop(data, split.calib_rows)
        # both matrices have unit scale; atol covers entries near zero
        np.testing.assert_allclose(Xs, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(px.gram_matrix(Xs), oracles.gram_by_accumulation(ref),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("start", [0, 1])
    def test_single_calibration_row_is_degenerate(self, start):
        # n_v = n - 1 leaves n_c = 1, where the sample std is undefined
        X = px.ProxyMatrix(np.arange(12.0).reshape(6, 2), ("a", "b"))
        with pytest.raises(DegenerateColumn) as err:
            px.standardize(X, px.HoldoutSplit(6, start, 5))
        assert err.value.column_ids == ("a", "b")

    def test_all_columns_degenerate_message_is_short(self):
        # p = 1138 columns with one calibration row: every id is kept on the
        # exception, but the message names only the first ten
        ids = tuple(f"proxy_{j:04d}" for j in range(1138))
        X = px.ProxyMatrix(np.random.default_rng(3).standard_normal((40, 1138)), ids)
        with pytest.raises(DegenerateColumn) as err:
            px.standardize(X, px.HoldoutSplit(40, 0, 39))
        assert err.value.column_ids == ids
        assert str(err.value) == ("zero-variance column(s) over calibration rows: "
                                  + ", ".join(ids[:10]) + " ... and 1128 more")

    @pytest.mark.parametrize("start", [0, 4, 8])
    def test_column_flat_only_over_calibration_rows(self, start):
        # "step" is constant outside the holdout block and varies inside it,
        # so only a reduction over exactly the calibration rows finds it
        # degenerate; the other two columns then check both segments' statistics
        n, n_v = 12, 4
        rng = np.random.default_rng(2)
        step = np.full(n, 3.0)
        step[start:start + n_v] = rng.standard_normal(n_v)
        data = np.column_stack([rng.standard_normal(n), step, rng.standard_normal(n)])
        X = px.ProxyMatrix(data, ("a", "step", "b"))
        split = px.HoldoutSplit(n, start, n_v)
        with pytest.raises(DegenerateColumn) as err:
            px.standardize(X, split)
        assert err.value.column_ids == ("step",)
        out = px.standardize(px.ProxyMatrix(data[:, [0, 2]], ("a", "b")), split)
        np.testing.assert_allclose(out, oracles.standardize_by_loop(data[:, [0, 2]],
                                                                    split.calib_rows),
                                   rtol=1e-12, atol=1e-12)

    def test_row_count_must_match_split(self):
        X = px.ProxyMatrix(np.arange(10.0).reshape(5, 2), ("a", "b"))
        with pytest.raises(LengthMismatch):
            px.standardize(X, px.HoldoutSplit(6, 2, 2))

    def test_flat_outside_a_few_rows_fails_exactly_the_blocks_holding_them(self):
        # reference design, 120 blocks; column 0 is flat outside rows 40-45,
        # so it is degenerate exactly on the blocks that hold all six rows
        X = px.generate(px.NoiseSpec(kind="ar1", n=149, p=1138, seed=8, phi=0.9))
        data = X.data.copy()
        data[:40, 0] = data[46:, 0] = 1.5
        X = px.ProxyMatrix(data, X.column_ids)
        failed = 0
        for split in px.make_blocks(149, 30):
            if split.block_start <= 40 and split.block_start + 30 >= 46:
                failed += 1
                with pytest.raises(DegenerateColumn) as err:
                    px.standardize(X, split)
                assert err.value.column_ids == (X.column_ids[0],)
            else:
                assert px.standardize(X, split).shape == (149, 1138)
        assert failed == 25


class TestGramMatrix:
    def test_single_column(self):
        np.testing.assert_allclose(px.gram_matrix(np.array([[1.0], [-1.0]])),
                                   [[1.0, -1.0], [-1.0, 1.0]])

    def test_orthogonal_scaled_columns(self):
        np.testing.assert_allclose(px.gram_matrix(2.0 * np.eye(2)), 2.0 * np.eye(2))

    def test_matches_outer_product_accumulation(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((5, 3))
        np.testing.assert_allclose(px.gram_matrix(data), oracles.gram_by_accumulation(data),
                                   rtol=1e-13, atol=1e-15)

    @given(st.integers(0, 2**32), st.integers(3, 9), st.integers(1, 6))
    # production blocks: the reference design and the widest limit rung
    @example(seed=8, n=149, p=1138)
    @example(seed=8, n=149, p=10000)
    def test_psd_and_symmetric(self, seed, n, p):
        # gram_matrix relies on numpy's Xs @ Xs.T being exactly symmetric
        X = px.generate(px.NoiseSpec(kind="ar1", n=n, p=p, seed=seed, phi=0.9))
        Xs = px.standardize(X, px.HoldoutSplit(n, 0, min(30, n - 2)))
        assert Xs.shape == (n, p)
        S = px.gram_matrix(Xs)
        assert np.array_equal(S, S.T)
        eigs = np.linalg.eigvalsh(S)
        assert eigs.min() >= -1e-10 * max(1.0, np.abs(eigs).max())

    def test_calibration_trace_identity(self):
        # mean of the calibration diagonal of S_p is (n_c - 1) / n_c exactly
        rng = np.random.default_rng(0)
        X = px.ProxyMatrix(rng.standard_normal((10, 6)), tuple(f"c{i}" for i in range(6)))
        split = px.HoldoutSplit(10, 3, 4)
        S = px.gram_matrix(px.standardize(X, split))
        got = np.diag(S)[split.calib_rows].sum() / split.n_c
        assert abs(got - (split.n_c - 1) / split.n_c) < 1e-12


class TestReconstruct:
    def test_decoupled_validation_returns_weighted_mean(self):
        split = px.HoldoutSplit(5, 3, 2)
        S = np.zeros((5, 5))
        S[:3, :3] = oracles.gram_by_accumulation(np.random.default_rng(1).standard_normal((3, 4)))
        S[3:, 3:] = np.eye(2)
        y_c = np.array([0.4, -1.0, 2.2])
        out = reconstruct_block(S, 0.7, y_c, split)
        np.testing.assert_allclose(out, np.full(2, y_c.mean()), atol=1e-14)

    def test_huge_lambda_shrinks_to_intercept(self):
        rng = np.random.default_rng(2)
        S = oracles.gram_by_accumulation(rng.standard_normal((6, 5)))
        split = px.HoldoutSplit(6, 0, 2)
        y_c = rng.standard_normal(4)
        out = reconstruct_block(S, 1e12, y_c, split)
        np.testing.assert_allclose(out, np.full(2, y_c.mean()), atol=1e-6)

    def test_small_system_hand_value(self):
        # (S_cc + 0.1 I) z = y_c solves to z = (5/3, -5/3); S_vc z = -5/12
        S = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        out = reconstruct_block(S, 0.1, np.array([1.0, -1.0]), px.HoldoutSplit(3, 2, 1))
        np.testing.assert_allclose(out, [-5.0 / 12.0], rtol=1e-14)

    def test_matches_assembly_oracle(self):
        rng = np.random.default_rng(9)
        for case in range(40):
            intercept = case % 2 == 0
            n = int(rng.integers(3, 9))
            n_v = int(rng.integers(1, n - 1))
            start = int(rng.integers(0, n - n_v + 1))
            split = px.HoldoutSplit(n, start, n_v)
            S = oracles.gram_by_accumulation(rng.standard_normal((n, int(rng.integers(1, 6)))))
            lam = float(10 ** rng.uniform(-4, 3))
            w = oracles.weights(split.n_c, intercept)
            y_c = rng.standard_normal(split.n_c)
            R = oracles.reconstruction_matrix(S, lam, w, split.calib_rows, split.valid_rows)
            got = reconstruct_block(S, lam, y_c, split, intercept)
            np.testing.assert_allclose(got, R @ y_c, rtol=1e-10, atol=1e-12)

    @given(st.floats(-3, 3), st.floats(-5, 5), st.integers(0, 2**32))
    def test_affine_equivariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        split = px.HoldoutSplit(7, 2, 3)
        S = oracles.gram_by_accumulation(rng.standard_normal((7, 4)))
        y_c = rng.standard_normal(4)
        base = reconstruct_block(S, 0.3, y_c, split)
        shifted = reconstruct_block(S, 0.3, a * y_c + b, split)
        np.testing.assert_allclose(shifted, a * base + b, rtol=1e-9, atol=1e-9)

    def test_linear_in_y(self):
        rng = np.random.default_rng(4)
        split = px.HoldoutSplit(6, 1, 2)
        S = oracles.gram_by_accumulation(rng.standard_normal((6, 3)))
        coeffs = rng.standard_normal(4)
        combined = reconstruct_block(S, 0.5, coeffs, split)
        by_basis = sum(coeffs[i] * reconstruct_block(S, 0.5, np.eye(4)[i], split)
                       for i in range(4))
        np.testing.assert_allclose(combined, by_basis, atol=1e-10)

    def test_zero_weight_drops_intercept(self):
        rng = np.random.default_rng(6)
        split = px.HoldoutSplit(5, 3, 2)
        S = oracles.gram_by_accumulation(rng.standard_normal((5, 3)))
        y_c = rng.standard_normal(3)
        got = reconstruct_block(S, 0.2, y_c, split, intercept=False)
        want = oracles.reconstruction_matrix(S, 0.2, oracles.weights(3, intercept=False),
                                             split.calib_rows, split.valid_rows) @ y_c
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_guards(self):
        split = px.HoldoutSplit(4, 2, 1)
        S_bad = np.diag([1.0, -5.0, 1.0, 1.0])   # negative entry on a calib row
        with pytest.raises(SingularSystem):
            reconstruct_block(S_bad, 0.1, np.ones(3), split)
        with pytest.raises(ValueError):
            reconstruct_block(np.eye(4), 0.0, np.ones(3), split)

    def test_length_mismatch(self):
        for intercept in (True, False):
            with pytest.raises(LengthMismatch):
                px.ShiftedSystem(np.eye(3), np.ones(4), intercept=intercept)
            with pytest.raises(LengthMismatch):
                px.ShiftedSystem(np.ones((3, 4)), np.ones(3), intercept=intercept)
            with pytest.raises(LengthMismatch):
                px.reconstruct(px.ShiftedSystem(np.eye(3), np.ones(3), intercept=intercept),
                               np.ones((2, 4)), 0.1)

    def test_ridge_predict_onto_calibration_matches_hat(self):
        # predicting back onto the calibration rows of a non-contiguous row
        # set is the hat operator
        rng = np.random.default_rng(8)
        S = oracles.gram_by_accumulation(rng.standard_normal((6, 4)))
        calib = np.array([0, 1, 3, 5])
        y_c = rng.standard_normal(4)
        S_cc = S[np.ix_(calib, calib)]
        back = px.reconstruct(px.ShiftedSystem(S_cc, y_c), S_cc, 0.4)
        np.testing.assert_allclose(back, oracles.hat_matrix(S_cc, 0.4, oracles.weights(4)) @ y_c,
                                   atol=1e-10)


class TestRmse:
    def test_identical_is_zero(self):
        assert px.rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_errors(self):
        assert px.rmse(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == 1.0

    def test_matches_loop(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        assert abs(px.rmse(a, b) - oracles.rmse_by_loop(a, b)) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            px.rmse(np.ones(3), np.ones(4))
        with pytest.raises(LengthMismatch):
            px.rmse(np.ones(0), np.ones(0))


def test_solve_shifted_raises_singular():
    # an indefinite S_cc: S_cc + lam I is singular at lam = 9
    with pytest.raises(SingularSystem):
        px.ShiftedSystem(np.array([[1.0, 0.0], [0.0, -9.0]]), np.ones(2))
