import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import paleoxval as px
from paleoxval import gcv
from paleoxval.errors import DegenerateTrace
from paleoxval.gcv import SEARCH_DOMAIN, minimize_gcv

def random_instance(seed, n_max=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    S_cc = oracles.gram_by_accumulation(rng.standard_normal((n, int(rng.integers(2, 6)))))
    # mix of smooth structure and noise so minima land both inside and at edges
    y_c = rng.standard_normal(n) + rng.uniform(0, 2) * np.sin(np.linspace(0, 3, n))
    return S_cc, y_c


def hat_apply(S_cc, lam, y_c, intercept=True):
    """H(lam) y_c through the production route: reconstruct with S_vc = S_cc."""
    return px.reconstruct(px.ShiftedSystem(S_cc, y_c, intercept=intercept), S_cc, lam)


def gcv_score(S_cc, lam, y_c, intercept=True):
    return float(px.gcv_scores(px.ShiftedSystem(S_cc, y_c, intercept=intercept), [lam])[0])


def search(S_cc, y_c):
    return minimize_gcv(px.ShiftedSystem(S_cc, y_c))


class TestHatApply:
    def test_huge_lambda_shrinks_to_intercept(self):
        rng = np.random.default_rng(0)
        S = oracles.gram_by_accumulation(rng.standard_normal((5, 3)))
        y = rng.standard_normal(5)
        np.testing.assert_allclose(hat_apply(S, 1e12, y),
                                   np.full(5, y.mean()), atol=1e-6)

    def test_identity_gram_closed_form(self):
        # H = (1/(1+lam))(I - 1 e^T) + 1 e^T on a centered y
        lam = 0.5
        y = np.array([1.0, -1.0])
        out = hat_apply(np.eye(2), lam, y)
        np.testing.assert_allclose(out, [1 / (1 + lam), -1 / (1 + lam)], rtol=1e-14)

    def test_matches_assembly_oracle(self):
        rng = np.random.default_rng(1)
        S = oracles.gram_by_accumulation(rng.standard_normal((3, 3)))
        y = rng.standard_normal(3)
        for intercept in (True, False):
            H = oracles.hat_matrix(S, 0.7, oracles.weights(3, intercept))
            np.testing.assert_allclose(hat_apply(S, 0.7, y, intercept), H @ y, rtol=1e-12)


class TestGcvScore:
    def test_identity_gram_is_flat(self):
        # V = n_c ||y||^2 / (n_c - 1)^2 for centered y, independent of lam
        y = np.array([1.0, -1.0, 2.0, -2.0])
        expected = 4 * 10.0 / 9.0
        for lam in (1e-3, 1.0, 1e5):
            assert abs(gcv_score(np.eye(4), lam, y) - expected) < 1e-9 * expected

    def test_constant_target_scores_zero(self):
        y = np.full(5, 3.3)
        for lam in (1e-6, 1.0, 1e6):
            v = gcv_score(np.eye(5) * 0.7, lam, y)
            assert v < 1e-28

    def test_matches_assembly_oracle(self):
        rng = np.random.default_rng(2)
        S = oracles.gram_by_accumulation(rng.standard_normal((6, 4)))
        y = rng.standard_normal(6)
        for lam in (1e-3, 0.3, 50.0):
            want = oracles.gcv_value(S, lam, oracles.weights(6), y)
            assert abs(gcv_score(S, lam, y) - want) <= 1e-10 * want

    def test_zero_weight_matches_oracle(self):
        rng = np.random.default_rng(3)
        S = oracles.gram_by_accumulation(rng.standard_normal((5, 5))) + 0.2 * np.eye(5)
        y = rng.standard_normal(5)
        for lam in (1e-2, 1.0):
            want = oracles.gcv_value(S, lam, oracles.weights(5, intercept=False), y)
            assert abs(gcv_score(S, lam, y, intercept=False) - want) <= 1e-10 * want

    def test_degenerate_trace_raises(self):
        # enormous eigenvalues push tr(I - H) to zero at tiny lam
        with pytest.raises(DegenerateTrace):
            gcv_score(1e12 * np.eye(4), 1e-8, np.array([1.0, -1.0, 2.0, 0.0]))

    @given(st.integers(0, 2**32))
    def test_nonnegative_and_finite_across_domain(self, seed):
        S_cc, y_c = random_instance(seed)
        v = px.gcv_scores(px.ShiftedSystem(S_cc, y_c), np.geomspace(*SEARCH_DOMAIN, 40))
        assert np.all(np.isfinite(v)) and np.all(v >= 0.0)

    def test_vector_and_single_scores_agree(self):
        # minimize_gcv scores its grid in one call and refines one lam at a time
        S_cc, y_c = random_instance(7)
        system = px.ShiftedSystem(S_cc, y_c)
        lams = np.geomspace(*SEARCH_DOMAIN, 25)
        one_by_one = [px.gcv_scores(system, [lam])[0] for lam in lams]
        np.testing.assert_allclose(px.gcv_scores(system, lams), one_by_one, rtol=1e-14)

    def test_evaluator_agrees_with_score(self):
        # the vectorised scores against the dense-assembly oracle, one lam at a time
        S_cc, y_c = random_instance(123)
        lams = np.geomspace(1e-6, 1e6, 13)
        scores = px.gcv_scores(px.ShiftedSystem(S_cc, y_c), lams)
        for lam, v in zip(lams, scores):
            direct = oracles.gcv_value(S_cc, lam, oracles.weights(len(y_c)), y_c)
            assert abs(v - direct) <= 1e-9 * direct


class TestMinimizeGcv:
    def test_matches_dense_grid(self):
        hits = 0
        for seed in range(8):
            S_cc, y_c = random_instance(seed)
            res = search(S_cc, y_c)
            lam_star, v_star = oracles.dense_grid_gcv_min(S_cc, oracles.weights(len(y_c)), y_c)
            assert abs(res.lambda_min - lam_star) <= 0.01 * lam_star
            assert res.score <= v_star * (1 + 1e-3)
            hits += not res.at_boundary
        assert hits >= 1    # at least one interior minimum among the seeds

    def test_boundary_flag_when_decreasing(self):
        # a pure-noise target keeps V falling toward max shrinkage
        rng = np.random.default_rng(2)
        S_cc = oracles.gram_by_accumulation(rng.standard_normal((6, 4)))
        y_c = rng.standard_normal(6)
        res = search(S_cc, y_c)
        assert res.at_boundary
        assert res.lambda_min == SEARCH_DOMAIN[1]

    def test_flat_objective_flag(self):
        res = search(np.eye(4) * 0.3, np.full(4, 2.0))
        assert res.flat
        assert res.lambda_min == SEARCH_DOMAIN[1]

    def test_deterministic(self):
        S_cc, y_c = random_instance(77)
        assert search(S_cc, y_c) == search(S_cc, y_c)

    def test_result_is_min_over_own_evaluations(self, monkeypatch):
        tr, real = [], gcv.gcv_scores

        def recorded(system, lams):
            scores = real(system, lams)
            tr.extend(zip(lams, scores))
            return scores
        monkeypatch.setattr(gcv, "gcv_scores", recorded)
        for seed in (5, 21, 100):
            S_cc, y_c = random_instance(seed)
            tr.clear()
            res = search(S_cc, y_c)
            assert len(tr) == res.n_evals
            assert all(res.score <= v for _, v in tr)

    def test_scaling_target_by_power_of_two(self):
        # V scales exactly by a^2 for a = 4, so the search path is identical
        S_cc, y_c = random_instance(8)
        res1 = search(S_cc, y_c)
        res4 = search(S_cc, 4.0 * y_c)
        assert res4.lambda_min == res1.lambda_min
        assert res4.score == 16.0 * res1.score

    def test_agrees_with_run_through_gcv_score(self):
        S_cc, y_c = random_instance(42)
        res = search(S_cc, y_c)
        want = oracles.gcv_value(S_cc, res.lambda_min, oracles.weights(len(y_c)), y_c)
        assert abs(want - res.score) <= 1e-8 * res.score
