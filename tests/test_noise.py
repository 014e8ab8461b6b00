import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import paleoxval as px


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="pink", n=10, p=2, seed=0)
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="ar1", n=10, p=2, seed=0)            # phi missing
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="ar1", n=10, p=2, seed=0, phi=1.0)
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="white", n=10, p=2, seed=0, phi=0.5)
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="white", n=1, p=2, seed=0)
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="ar1", n=10, p=2, seed=0, phi=False)
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="ar1", n=10, p=2, seed=0, phi="0.9")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_must_be_non_negative_int(self, seed):
        with pytest.raises(ValueError):
            px.NoiseSpec(kind="white", n=10, p=2, seed=seed)

    def test_labels(self):
        assert px.NoiseSpec(kind="ar1", n=5, p=1, seed=0, phi=0.99).label == "ar1_0.99"
        assert px.NoiseSpec(kind="white", n=5, p=1, seed=0).label == "white"


class TestGenerate:
    def test_reproducible(self):
        spec = px.NoiseSpec(kind="brownian", n=40, p=7, seed=123)
        assert np.array_equal(px.generate(spec).data, px.generate(spec).data)

    def test_seed_and_shape(self):
        X = px.generate(px.NoiseSpec(kind="white", n=12, p=3, seed=1))
        Y = px.generate(px.NoiseSpec(kind="white", n=12, p=3, seed=2))
        assert X.data.shape == (12, 3)
        assert not np.array_equal(X.data, Y.data)

    def test_columns_are_substreams(self):
        # column j depends only on (seed, j): a wider matrix starts with the
        # narrower one
        narrow = px.generate(px.NoiseSpec(kind="white", n=20, p=3, seed=5))
        wide = px.generate(px.NoiseSpec(kind="white", n=20, p=6, seed=5))
        assert np.array_equal(wide.data[:, :3], narrow.data)

    def test_ar1_zero_phi_equals_white(self):
        w = px.generate(px.NoiseSpec(kind="white", n=200, p=50, seed=9))
        a = px.generate(px.NoiseSpec(kind="ar1", n=200, p=50, seed=9, phi=0.0))
        assert np.array_equal(w.data, a.data)

    @pytest.mark.parametrize("phi", [0.0, 0.9, 0.99])
    def test_ar1_lag1_autocorrelation(self, phi):
        # 2e5 pooled samples put the estimator well inside +-0.01
        X = px.generate(px.NoiseSpec(kind="ar1", n=500, p=400, seed=42, phi=phi))
        assert abs(oracles.lag1_autocorr(X.data) - phi) < 0.01

    def test_ar1_matches_scalar_recursion(self):
        spec = px.NoiseSpec(kind="ar1", n=30, p=2, seed=11, phi=0.8)
        X = px.generate(spec).data
        z = px.noise.column_normals(11, 30, 2)
        s = np.sqrt(1 - 0.8**2)
        for j in range(2):
            x = np.empty(30)
            x[0] = z[0, j]
            for t in range(1, 30):
                x[t] = 0.8 * x[t - 1] + s * z[t, j]
            np.testing.assert_allclose(X[:, j], x, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.99])
    def test_ar1_bit_identical_to_lfilter(self, phi):
        # the row recursion replaced scipy.signal.lfilter; same arithmetic, same bits
        signal = pytest.importorskip("scipy.signal")
        z = px.noise.column_normals(3, 149, 50)
        z[1:] *= np.sqrt(1 - phi**2)
        want = signal.lfilter([1.0], [1.0, -phi], z, axis=0)
        got = px.generate(px.NoiseSpec(kind="ar1", n=149, p=50, seed=3, phi=phi)).data
        assert np.array_equal(got, want)

    def test_brownian_variance_grows_linearly(self):
        X = px.generate(px.NoiseSpec(kind="brownian", n=100, p=5000, seed=5))
        var_t = X.data.var(axis=1)
        slope = np.polyfit(np.arange(100), var_t, 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_brownian_is_cumsum(self):
        spec = px.NoiseSpec(kind="brownian", n=15, p=3, seed=6)
        z = px.noise.column_normals(6, 15, 3)
        assert np.array_equal(px.generate(spec).data, np.cumsum(z, axis=0))

    def test_column_pair_correlations_average_to_zero(self):
        X = px.generate(px.NoiseSpec(kind="white", n=149, p=2000, seed=11))
        corrs = [np.corrcoef(X.data[:, 2 * i], X.data[:, 2 * i + 1])[0, 1]
                 for i in range(1000)]
        assert abs(np.mean(corrs)) < 3 / np.sqrt(149 * 1000)

    def test_standardization_preserves_ar1_shape(self):
        spec = px.NoiseSpec(kind="ar1", n=300, p=300, seed=13, phi=0.9)
        X = px.generate(spec)
        split = px.HoldoutSplit(300, 270, 30)
        Xs = px.standardize(X, split)
        raw = oracles.lag1_autocorr(X.data[split.calib_rows])
        scaled = oracles.lag1_autocorr(Xs[split.calib_rows])
        assert abs(scaled - raw) < 0.02


class TestBatchedSeeding:
    # column_normals seeds chunks of CHUNK_COLUMNS (256) columns at once; the
    # widths straddle one chunk and the seeds cover 1, 2, 3 and 5 entropy words
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 9])
    def test_bit_identical_to_per_column_seedsequence(self, seed):
        for p in (1, 255, 256, 257, 1138):
            for n in (2, 7, 149):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = px.noise.column_normals(seed, n, p)
                want = oracles.column_normals_by_seedsequence(seed, n, p)
                assert np.array_equal(got, want), (seed, n, p)

    @pytest.mark.parametrize("kind, phi", [("white", None), ("ar1", 0.9), ("brownian", None)])
    def test_generate_matches_oracle(self, kind, phi):
        z = oracles.column_normals_by_seedsequence(31, 149, 300)
        if kind == "ar1":
            z[1:] *= np.sqrt(1 - phi**2)
            for t in range(1, 149):
                z[t] += phi * z[t - 1]
        elif kind == "brownian":
            z = np.cumsum(z, axis=0)
        X = px.generate(px.NoiseSpec(kind=kind, n=149, p=300, seed=31, phi=phi))
        assert np.array_equal(X.data, z)

    def test_generated_data_is_owned_and_read_only(self):
        for kind, phi in (("white", None), ("ar1", 0.5), ("brownian", None)):
            data = px.generate(px.NoiseSpec(kind=kind, n=20, p=300, seed=2, phi=phi)).data
            assert data.base is None and data.flags.owndata
            assert not data.flags.writeable

    def test_peak_memory_is_one_array(self):
        # n = 2 makes the p-long parts dominate: a second n x p copy or a
        # Python list of p seeds would each exceed the bound. The column ids,
        # part of the result, are kept out of the bound.
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            X = px.generate(px.NoiseSpec(kind="ar1", n=2, p=200_000, seed=4, phi=0.5))
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ids_bytes = (end - start) - X.data.nbytes
        assert ids_bytes >= 0
        assert peak - start - ids_bytes <= 1.1 * X.data.nbytes + 2 * 2**20


class TestAr1Covariance:
    def test_half_decay(self):
        want = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        np.testing.assert_allclose(px.ar1_covariance(3, 0.5), want, rtol=0, atol=0)

    def test_zero_phi_identity(self):
        assert np.array_equal(px.ar1_covariance(4, 0.0), np.eye(4))

    @given(st.integers(2, 12), st.floats(0.0, 0.99))
    def test_toeplitz_unit_diagonal(self, n, phi):
        C = px.ar1_covariance(n, phi)
        assert np.array_equal(np.diag(C), np.ones(n))
        for k in range(1, n):
            band = np.diagonal(C, offset=k)
            assert np.all(band == band[0])
        assert np.array_equal(C, C.T)

    @pytest.mark.parametrize("n, phi", [(1, 0.5), (7, 0.0), (149, 0.99)])
    def test_bit_identical_to_scipy_toeplitz(self, n, phi):
        linalg = pytest.importorskip("scipy.linalg")
        want = linalg.toeplitz(phi ** np.arange(n, dtype=np.float64))
        assert np.array_equal(px.ar1_covariance(n, phi), want)

    def test_positive_definite_at_high_phi(self):
        eigs = np.linalg.eigvalsh(px.ar1_covariance(50, 0.99))
        assert eigs.min() > 0

    def test_matches_sample_covariance(self):
        X = px.generate(px.NoiseSpec(kind="ar1", n=50, p=100_000, seed=100, phi=0.99))
        sample = X.data @ X.data.T / X.p
        assert np.max(np.abs(sample - px.ar1_covariance(50, 0.99))) < 0.02

    def test_read_only(self):
        # one matrix feeds every block of the limit and kriging curves
        Phi = px.ar1_covariance(4, 0.5)
        with pytest.raises(ValueError):
            Phi[0, 1] = 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            px.ar1_covariance(5, 1.0)
        with pytest.raises(ValueError):
            px.ar1_covariance(0, 0.5)


class TestSmoothTarget:
    def test_deterministic_and_annual(self):
        a = px.smooth_target(80, seed=3)
        b = px.smooth_target(80, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.n == 80
        assert np.all(np.diff(a.years) == 1)

    def test_scale_and_centering(self):
        y = px.smooth_target(149, seed=7, scale=0.25)
        assert abs(y.values.mean()) < 1e-12
        assert abs(y.values.std() - 0.25) < 1e-12
