import numpy as np
import pytest
from hypothesis import given, strategies as st

from tvnet.elastic_net import (ElasticNetConfig, QuadraticProblem,
                               kkt_residuals, objective_value,
                               solve_elastic_net, solve_elastic_net_stack)
from tvnet.errors import DegenerateProblemError, InvalidInputError

# the window-sum oracles of tests/reference.py, checked here on known cases
from reference import (build_weighted_problem, scalar_elastic_net,
                       solve_weighted_lasso)

KKT_TOL = 1e-7


def random_psd_problem(rng, k):
    """Random PSD problem whose unregularized solution stays inside the
    [-3, 3] grid-search box (min eigenvalue 0.5, modest linear term)."""
    M = rng.standard_normal((k + 2, k))
    G = M.T @ M / (k + 2) + 0.5 * np.eye(k)
    b = rng.uniform(-0.8, 0.8, k)
    return QuadraticProblem(gram=G, linear=b, offset=float(rng.uniform(0, 2)))


def grid_search_2d(problem, config, lo=-3.0, hi=3.0, coarse=1e-2, fine=1e-3):
    """Independent dense grid-search oracle for k=2 problems, refined to
    `fine` resolution around the coarse minimizer."""

    def best_on(b1s, b2s):
        G, b = problem.gram, problem.linear
        l1 = (1 - config.alpha) * config.lam
        l2 = config.alpha * config.lam
        best = (np.inf, None)
        for b1 in b1s:
            vals = (G[0, 0] * b1 * b1 + 2 * G[0, 1] * b1 * b2s + G[1, 1] * b2s ** 2
                    - 2 * (b[0] * b1 + b[1] * b2s)
                    + 0.5 * l2 * (b1 * b1 + b2s ** 2)
                    + l1 * (abs(b1) + np.abs(b2s)))
            j = int(np.argmin(vals))
            if vals[j] < best[0]:
                best = (vals[j], np.array([b1, b2s[j]]))
        return best[1]

    axis = np.arange(lo, hi + coarse / 2, coarse)
    c = best_on(axis, axis)
    span = 2 * coarse
    a1 = np.arange(c[0] - span, c[0] + span + fine / 2, fine)
    a2 = np.arange(c[1] - span, c[1] + span + fine / 2, fine)
    return best_on(a1, a2)


class TestSolveElasticNet:
    def test_unregularized_1d(self):
        p = QuadraticProblem(gram=[[1.0]], linear=[1.0])
        res = solve_elastic_net(p, ElasticNetConfig(lam=0.0))
        assert res.converged
        assert res.coef == pytest.approx([1.0], abs=1e-10)

    def test_1d_soft_threshold_oracle(self):
        # closed form for G=[[1]], b=[1.5], lam=1, alpha=0: (2*1.5 - 1)/2
        p = QuadraticProblem(gram=[[1.0]], linear=[1.5])
        res = solve_elastic_net(p, ElasticNetConfig(lam=1.0, alpha=0.0))
        assert res.coef == pytest.approx([1.0], abs=1e-10)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(42)
        config = ElasticNetConfig(lam=0.3, alpha=0.5)
        for _ in range(20):
            p = random_psd_problem(rng, 2)
            res = solve_elastic_net(p, config)
            oracle = grid_search_2d(p, config)
            assert np.abs(res.coef - oracle).max() < 2e-3

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            p = random_psd_problem(rng, k)
            config = ElasticNetConfig(lam=float(rng.uniform(0, 1)),
                                      alpha=float(rng.uniform(0, 1)))
            res = solve_elastic_net(p, config)
            assert res.converged
            assert kkt_residuals(p, config, res.coef).max() <= 10 * config.tol

    def test_objective_nonincreasing_per_sweep(self):
        rng = np.random.default_rng(3)
        p = random_psd_problem(rng, 5)
        config = ElasticNetConfig(lam=0.2, alpha=0.3)
        res = solve_elastic_net(p, config)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_lam_zero_equals_linear_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            M = rng.standard_normal((k + 3, k))
            G = M.T @ M / (k + 3) + 0.1 * np.eye(k)
            b = rng.standard_normal(k)
            p = QuadraticProblem(gram=G, linear=b)
            res = solve_elastic_net(p, ElasticNetConfig(lam=0.0, tol=1e-12))
            expected = np.linalg.solve(G, b)
            assert np.abs(res.coef - expected).max() <= 1e-8 * max(1, np.abs(expected).max())

    def test_warm_start_agrees_with_cold_start(self):
        rng = np.random.default_rng(5)
        p = random_psd_problem(rng, 6)
        config = ElasticNetConfig(lam=0.4, alpha=0.2)
        cold = solve_elastic_net(p, config)
        warm = solve_elastic_net(p, config, warm_start=rng.standard_normal(6))
        assert np.abs(cold.coef - warm.coef).max() <= 10 * config.tol

    def test_nonfinite_input_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadraticProblem(gram=[[np.nan]], linear=[1.0])
        p = QuadraticProblem(gram=[[1.0]], linear=[1.0])
        with pytest.raises(InvalidInputError):
            solve_elastic_net(p, ElasticNetConfig(), warm_start=[np.inf])

    def test_zero_curvature_active_coordinate_raises(self):
        p = QuadraticProblem(gram=[[0.0]], linear=[1.0])
        with pytest.raises(DegenerateProblemError):
            solve_elastic_net(p, ElasticNetConfig(lam=0.0))

    def test_nonconvergence_flagged_not_raised(self):
        rng = np.random.default_rng(9)
        p = random_psd_problem(rng, 4)
        config = ElasticNetConfig(lam=0.1, tol=1e-14, max_sweeps=2)
        res = solve_elastic_net(p, config)
        assert not res.converged
        assert np.all(np.isfinite(res.coef))


@st.composite
def stacks(draw, max_p=6, max_k=6, rank_deficit=0):
    """(gram, linear, config, warm) for a stack of P random problems of
    size k. With rank_deficit > 0 every Gram has that many zero
    eigenvalues, and the linear term lies in its range, as in a
    regression, so that the objective is bounded below. warm is None (cold
    start) or a (P, k) array."""
    P = draw(st.integers(0, max_p))
    k = draw(st.integers(1 + rank_deficit, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = k - rank_deficit if rank_deficit else k + 2
    M = rng.standard_normal((P, rows, k))
    gram = M.transpose(0, 2, 1) @ M / rows
    if rank_deficit:
        y = rng.standard_normal((P, rows, 1))
        linear = (M.transpose(0, 2, 1) @ y)[:, :, 0] / rows
    else:
        gram += 0.5 * np.eye(k)
        linear = rng.uniform(-0.8, 0.8, (P, k))
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    config = ElasticNetConfig(
        lam=draw(st.floats(0.05 if rank_deficit else 0.0, 1.0)),
        alpha=0.0 if rank_deficit else draw(st.floats(0.0, 1.0)))
    warm = (rng.standard_normal((P, k)) if draw(st.booleans()) else None)
    return gram, linear, config, warm


def problems(gram, linear):
    return [QuadraticProblem(gram=G, linear=b) for G, b in zip(gram, linear)]


class TestSolveElasticNetStack:
    """The stacked solver against the one-problem loop of
    tests/reference.py."""

    @given(stacks())
    def test_matches_scalar_oracle(self, stack):
        gram, linear, config, warm = stack
        res = solve_elastic_net_stack(gram, linear, config, warm_start=warm)
        P, k = linear.shape
        assert res.coef.shape == (P, k)
        assert res.converged.shape == res.n_sweeps.shape == (P,)
        for p, problem in enumerate(problems(gram, linear)):
            coef, converged, _ = scalar_elastic_net(
                problem, config, None if warm is None else warm[p])
            assert res.converged[p] and converged
            assert np.abs(res.coef[p] - coef).max() <= 10 * config.tol
            assert kkt_residuals(problem, config, res.coef[p]).max() <= KKT_TOL

    @given(stacks(rank_deficit=1))
    def test_singular_lasso_is_optimal(self, stack):
        # the minimizer need not be unique, so compare objective values
        gram, linear, config, warm = stack
        res = solve_elastic_net_stack(gram, linear, config, warm_start=warm)
        for p, problem in enumerate(problems(gram, linear)):
            coef, _, _ = scalar_elastic_net(
                problem, config, None if warm is None else warm[p])
            assert res.converged[p]
            assert (objective_value(problem, config, res.coef[p])
                    == pytest.approx(objective_value(problem, config, coef),
                                     abs=1e-9))
            assert kkt_residuals(problem, config, res.coef[p]).max() <= KKT_TOL

    @given(stacks(), st.integers(1, 3))
    def test_sweep_cap_flags_each_member(self, stack, cap):
        gram, linear, config, warm = stack
        capped = ElasticNetConfig(lam=config.lam, alpha=config.alpha,
                                  tol=1e-13, max_sweeps=cap)
        res = solve_elastic_net_stack(gram, linear, capped, warm_start=warm)
        for p, problem in enumerate(problems(gram, linear)):
            coef, converged, sweeps = scalar_elastic_net(
                problem, capped, None if warm is None else warm[p])
            assert res.n_sweeps[p] == sweeps <= cap
            assert res.converged[p] == converged
            assert np.abs(res.coef[p] - coef).max() <= 1e-12

    @given(stacks(), st.data())
    def test_members_do_not_depend_on_the_stack(self, stack, data):
        gram, linear, config, warm = stack
        res = solve_elastic_net_stack(gram, linear, config, warm_start=warm)
        P = len(linear)
        order = data.draw(st.permutations(range(P)))
        shuffled = solve_elastic_net_stack(
            gram[order], linear[order], config,
            warm_start=None if warm is None else warm[order])
        singles = problems(gram, linear)
        for i, p in enumerate(order):
            alone = solve_elastic_net_stack(
                gram[p:p + 1], linear[p:p + 1], config,
                warm_start=None if warm is None else warm[p:p + 1])
            for other in (alone.coef[0], shuffled.coef[i]):
                assert np.array_equal(other, res.coef[p])
            assert alone.n_sweeps[0] == shuffled.n_sweeps[i] == res.n_sweeps[p]
            single = solve_elastic_net(singles[p], config,
                                       None if warm is None else warm[p])
            assert np.array_equal(single.coef, res.coef[p])
            assert single.n_sweeps == res.n_sweeps[p]

    def test_empty_stack(self):
        res = solve_elastic_net_stack(np.zeros((0, 3, 3)), np.zeros((0, 3)),
                                      ElasticNetConfig(lam=0.1))
        assert res.coef.shape == (0, 3)
        assert res.converged.shape == res.n_sweeps.shape == (0,)

    def test_zero_curvature_member(self):
        gram = np.array([[[0.0]], [[2.0]]])
        config = ElasticNetConfig(lam=0.0)
        res = solve_elastic_net_stack(gram, np.array([[0.0], [1.0]]), config)
        assert res.coef[0, 0] == 0.0 and res.coef[1, 0] == pytest.approx(0.5)
        with pytest.raises(DegenerateProblemError):
            solve_elastic_net_stack(gram, np.array([[1.0], [1.0]]), config)

    def test_zeroed_coordinates_are_positive_zero(self):
        # lam above the null threshold from a warm start: every code is 0
        res = solve_elastic_net_stack(np.array([[[1.0]], [[1.0]]]),
                                      np.array([[-0.5], [0.5]]),
                                      ElasticNetConfig(lam=5.0),
                                      warm_start=[[-1.0], [1.0]])
        assert not np.any(np.signbit(res.coef))

    @pytest.mark.parametrize("gram, linear, warm", [
        ([[[1.0, 0.5], [0.4, 1.0]]], [[0.0, 0.0]], None),
        ([[[1.0, 0.0], [0.0, -1.0]]], [[0.0, 0.0]], None),
        ([[[np.nan]]], [[1.0]], None),
        ([[[1.0]]], [[1.0, 2.0]], None),
        ([[1.0]], [1.0], None),
        ([[[1.0]]], [[1.0]], [[np.inf]]),
        ([[[1.0]]], [[1.0]], [[1.0], [1.0]]),
    ])
    def test_bad_stack_rejected(self, gram, linear, warm):
        with pytest.raises(InvalidInputError):
            solve_elastic_net_stack(gram, linear, ElasticNetConfig(),
                                    warm_start=warm)


class TestBuildWeightedProblem:
    def test_identity_dictionary(self):
        v = np.array([1.0, -2.0, 3.0])
        p = build_weighted_problem([np.eye(3)], [v], [1.0])
        assert np.allclose(p.gram, np.eye(3))
        assert np.allclose(p.linear, v)
        assert p.offset == pytest.approx(v @ v)

    def test_all_zero_weights(self):
        rng = np.random.default_rng(0)
        p = build_weighted_problem([rng.standard_normal((4, 2)) for _ in range(3)],
                                   [rng.standard_normal(4) for _ in range(3)],
                                   [0.0, 0.0, 0.0])
        assert np.all(p.gram == 0) and np.all(p.linear == 0) and p.offset == 0

    def test_residual_sum_identity(self):
        rng = np.random.default_rng(1)
        Ds = [rng.standard_normal((5, 3)) for _ in range(3)]
        xs = [rng.standard_normal(5) for _ in range(3)]
        ws = rng.uniform(0, 2, 3)
        p = build_weighted_problem(Ds, xs, ws)
        for _ in range(5):
            beta = rng.standard_normal(3)
            direct = sum(w * np.sum((x - D @ beta) ** 2)
                         for D, x, w in zip(Ds, xs, ws))
            quad = beta @ p.gram @ beta - 2 * p.linear @ beta + p.offset
            assert quad == pytest.approx(direct, rel=1e-10)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            build_weighted_problem([np.eye(2)], [np.ones(2)], [-1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            build_weighted_problem([np.eye(2), np.eye(3)],
                                   [np.ones(2), np.ones(3)], [1.0, 1.0])


class TestSolveWeightedLasso:
    def test_exact_fit(self):
        x = np.linspace(-1, 1, 20)[:, None]
        res = solve_weighted_lasso(x, 2 * x.ravel(), np.ones(20), 0.0)
        assert res.coef == pytest.approx([2.0], abs=1e-8)

    def test_null_threshold(self):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        w = rng.uniform(0.1, 1.0, 30)
        lam_max = np.abs(2 * C.T @ (w * y)).max()
        res = solve_weighted_lasso(C, y, w, lam_max * 1.0001)
        assert np.all(res.coef == 0.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        w = rng.uniform(0.1, 1.0, 50)
        lam = 0.5
        res = solve_weighted_lasso(C, y, w, lam)
        Cw = C * w[:, None]
        p = QuadraticProblem(gram=C.T @ Cw, linear=Cw.T @ y, offset=float(w @ (y * y)))
        oracle = grid_search_2d(p, ElasticNetConfig(lam=lam, alpha=0.0))
        assert np.abs(res.coef - oracle).max() < 2e-3
