import numpy as np
import pytest

from tvnet.elastic_net import kkt_residuals
from tvnet.errors import InvalidInputError
from tvnet.keller import (_CHUNK, EdgeSet, NetworkEstimate,
                          estimate_structure_at,
                          fit_sequence, precision_to_partial_corr,
                          regression_to_partial_corr,
                          self_regression_coefficients, symmetrize_edges)
from tvnet.kernels import KernelSpec
from tvnet.synth import random_orthogonal

SPEC = KernelSpec(bandwidth=5.0)


def random_pd_precision(rng, n):
    Q = random_orthogonal(n, int(rng.integers(1 << 30)))
    vals = rng.uniform(0.5, 3.0, n)
    P = Q @ np.diag(vals) @ Q.T
    return 0.5 * (P + P.T)


class TestEstimateStructureAt:
    def test_high_lambda_gives_null_structure(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 5))
        X -= X.mean(axis=0)
        # per-row lasso null threshold: lam >= max_j |2 sum w x_j x_i|
        est = estimate_structure_at(X, 30, SPEC, lam=1e3)
        assert np.all(est.coefficients == 0.0)

    def test_duplicated_dimension_found(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(80)
        X = np.column_stack([x, x])
        X -= X.mean(axis=0)
        est = estimate_structure_at(X, 40, SPEC, lam=1e-4)
        assert est.coefficients[0, 1] > 0.5
        assert est.coefficients[1, 0] > 0.5

    def test_diagonal_always_zero(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 6))
        X -= X.mean(axis=0)
        est = estimate_structure_at(X, 10, SPEC, lam=0.01)
        assert np.all(np.diag(est.coefficients) == 0.0)

    def test_nonstandardized_flagged(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 3)) + 5.0
        est = estimate_structure_at(X, 25, SPEC, lam=0.1)
        assert est.nonstandardized
        est2 = estimate_structure_at(X - X.mean(axis=0), 25, SPEC, lam=0.1)
        assert not est2.nonstandardized

    def test_time_out_of_range(self):
        X = np.zeros((10, 3))
        with pytest.raises(InvalidInputError):
            estimate_structure_at(X, 10, SPEC, lam=0.1)

    def test_row_decomposition_matches_direct_lasso(self):
        # the joint matrix problem decomposes into n independent row lassos
        from reference import solve_weighted_lasso
        from tvnet.kernels import weight_profile
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 4))
        X -= X.mean(axis=0)
        t, lam = 20, 0.05
        est = estimate_structure_at(X, t, SPEC, lam)
        w = weight_profile(t, np.arange(40), SPEC)
        for i in range(4):
            keep = [j for j in range(4) if j != i]
            res = solve_weighted_lasso(X[:, keep], X[:, i], w, lam)
            assert np.abs(est.coefficients[i, keep] - res.coef).max() < 1e-6


class TestFitSequence:
    def test_batch_of_one(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        X -= X.mean(axis=0)
        seq = fit_sequence(X, SPEC, 0.1, [7])
        single = estimate_structure_at(X, 7, SPEC, 0.1)
        assert np.array_equal(seq[0].coefficients, single.coefficients)

    def test_empty_times(self):
        assert fit_sequence(np.zeros((5, 2)), SPEC, 0.1, []) == []

    def test_matches_per_call(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 3))
        X -= X.mean(axis=0)
        seq = fit_sequence(X, SPEC, 0.05, range(20))
        for t in range(0, 20, 5):
            single = estimate_structure_at(X, t, SPEC, 0.05)
            assert np.array_equal(seq[t].coefficients, single.coefficients)

    def test_estimates_do_not_depend_on_the_other_times(self):
        # more times than one stacked solve takes, in no particular order
        rng = np.random.default_rng(10)
        X = rng.standard_normal((300, 4))
        X -= X.mean(axis=0)
        times = [int(t) for t in rng.permutation(300)[:2 * _CHUNK + 7]]
        seq = fit_sequence(X, SPEC, 0.05, times)
        for i in (0, _CHUNK - 1, _CHUNK, len(times) - 1):
            single = estimate_structure_at(X, times[i], SPEC, 0.05)
            assert seq[i].time == times[i]
            assert np.array_equal(seq[i].coefficients, single.coefficients)
            assert np.array_equal(seq[i].row_sweeps, single.row_sweeps)

    def test_rows_match_scalar_oracle(self):
        # each row against the one-problem loop, warm-started from the
        # previous time as the sequence fit once did
        from reference import scalar_elastic_net
        from tvnet.elastic_net import ElasticNetConfig, QuadraticProblem
        from tvnet.moments import local_moments
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 5))
        X -= X.mean(axis=0)
        lam = 0.05
        config = ElasticNetConfig(lam=lam)
        seq = fit_sequence(X, SPEC, lam, range(40))
        warm = np.zeros((5, 5))
        for est, S_t in zip(seq, local_moments(X, SPEC)):
            assert est.row_converged.dtype == bool
            assert est.row_converged.shape == est.row_sweeps.shape == (5,)
            assert np.all(est.row_converged)
            for i in range(5):
                keep = [j for j in range(5) if j != i]
                problem = QuadraticProblem(gram=S_t[np.ix_(keep, keep)],
                                           linear=S_t[keep, i])
                coef, _, _ = scalar_elastic_net(problem, config,
                                                warm[i, keep])
                assert np.abs(est.coefficients[i, keep] - coef).max() < 1e-7
                assert kkt_residuals(problem, config,
                                     est.coefficients[i, keep]).max() <= 1e-7
            warm = est.coefficients


class TestSymmetrizeEdges:
    def test_null_structure(self):
        est = NetworkEstimate(coefficients=np.zeros((4, 4)), time=0, lam=0.1)
        assert len(symmetrize_edges(est)) == 0

    def test_or_rule(self):
        A = np.zeros((3, 3))
        A[0, 1] = 0.5
        est = NetworkEstimate(coefficients=A, time=0, lam=0.1)
        edges = symmetrize_edges(est, threshold=0.0)
        assert (0, 1) in edges and (1, 0) in edges
        assert (0, 2) not in edges

    def test_threshold_dominates(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4))
        np.fill_diagonal(A, 0.0)
        est = NetworkEstimate(coefficients=A, time=0, lam=0.1)
        assert len(symmetrize_edges(est, threshold=np.abs(A).max() + 1)) == 0

    def test_bad_edge_order_rejected(self):
        with pytest.raises(InvalidInputError):
            EdgeSet(edges=frozenset({(2, 1)}))


class TestPartialCorrelations:
    def test_identity_precision(self):
        R = precision_to_partial_corr(np.eye(4))
        assert np.all(R[~np.eye(4, dtype=bool)] == 0.0)
        assert np.all(np.diag(R) == 1.0)

    def test_two_by_two(self):
        R = precision_to_partial_corr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert R[0, 1] == pytest.approx(0.5)

    def test_symmetric_output(self):
        rng = np.random.default_rng(8)
        P = random_pd_precision(rng, 6)
        R = precision_to_partial_corr(P)
        assert np.abs(R - R.T).max() < 1e-12
        assert np.abs(R).max() <= 1.0 + 1e-12

    def test_non_pd_rejected(self):
        with pytest.raises(InvalidInputError):
            precision_to_partial_corr(np.diag([1.0, -1.0]))

    def test_regression_to_partial_corr_values(self):
        assert regression_to_partial_corr(0.25, 0.25) == (0.25, False)
        assert regression_to_partial_corr(0.0, 0.7) == (0.0, False)
        value, mismatch = regression_to_partial_corr(0.3, -0.3)
        assert value == 0.0 and mismatch

    def test_population_round_trip(self):
        # self-regression coefficients passed through the sign/sqrt identity
        # must reproduce the precision-based partial correlations exactly
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            P = random_pd_precision(rng, n)
            R_direct = precision_to_partial_corr(P)
            R_tilde = self_regression_coefficients(P)
            for i in range(n):
                for j in range(i + 1, n):
                    val, mismatch = regression_to_partial_corr(
                        R_tilde[i, j], R_tilde[j, i])
                    assert not mismatch
                    assert val == pytest.approx(R_direct[i, j], abs=1e-10)
