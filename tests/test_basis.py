import numpy as np
import pytest

from tvnet.basis import (BasisSet, FitConfig, LineSearchConfig, StructureCode,
                         fit, infer_codes, init_bases_pca, line_search,
                         objective, objective_components,
                         project_symmetric_hollow, proximal_l1_step,
                         pseudo_dictionary, random_hollow_bases,
                         unsupervised_basis_gradient)
from tvnet.elastic_net import ElasticNetConfig, kkt_residuals
from tvnet.errors import DegenerateInitializationError, InvalidInputError
from tvnet.keller import NetworkEstimate
from tvnet.kernels import KernelSpec

KERNEL = KernelSpec(bandwidth=2.0)


def make_config(k, **kw):
    defaults = dict(k=k, lambda_beta=0.05, alpha=0.5, lambda_A=0.01,
                    kernel=KERNEL, seed=0)
    defaults.update(kw)
    return FitConfig(**defaults)


def random_instance(rng, n, k, T):
    bases = random_hollow_bases(n, k, int(rng.integers(1 << 30)))
    X = rng.standard_normal((T, n))
    X -= X.mean(axis=0)
    codes = [StructureCode(code=rng.standard_normal(k), time=t) for t in range(T)]
    return bases, X, codes


class TestPseudoDictionary:
    def test_direct_product(self):
        bases = BasisSet(bases=np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        D = pseudo_dictionary(bases, [2.0, 3.0])
        assert np.allclose(D, [[3.0], [2.0]])

    def test_zero_input(self):
        bases = random_hollow_bases(4, 3, 0)
        assert np.all(pseudo_dictionary(bases, np.zeros(4)) == 0.0)

    def test_columns_match_matvec(self):
        rng = np.random.default_rng(0)
        bases = random_hollow_bases(5, 3, 1)
        x = rng.standard_normal(5)
        D = pseudo_dictionary(bases, x)
        for i in range(3):
            assert np.abs(D[:, i] - bases.bases[i] @ x).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            pseudo_dictionary(random_hollow_bases(4, 2, 0), np.zeros(3))


class TestInferCodes:
    def test_zero_data_zero_codes(self):
        bases = random_hollow_bases(3, 2, 0)
        codes = infer_codes(bases, np.zeros((6, 3)), KERNEL, 0.1, 0.5, range(6))
        assert all(np.all(c.code == 0.0) for c in codes)

    def test_large_lambda_null_codes(self):
        rng = np.random.default_rng(1)
        bases = random_hollow_bases(4, 2, 2)
        X = rng.standard_normal((8, 4))
        codes = infer_codes(bases, X, KERNEL, lambda_beta=1e4, alpha=0.0,
                            times=range(8))
        assert all(np.all(c.code == 0.0) for c in codes)

    def test_single_time_boxcar_equals_direct_solve(self):
        from reference import build_weighted_problem
        from tvnet.elastic_net import solve_elastic_net
        rng = np.random.default_rng(2)
        bases = random_hollow_bases(4, 2, 3)
        X = rng.standard_normal((5, 4))
        spec = KernelSpec(bandwidth=0.5, family="boxcar")
        codes = infer_codes(bases, X, spec, 0.1, 0.5, [2])
        D = pseudo_dictionary(bases, X[2])
        problem = build_weighted_problem([D], [X[2]], [1.0])
        direct = solve_elastic_net(problem, ElasticNetConfig(lam=0.1, alpha=0.5))
        assert np.abs(codes[0].code - direct.coef).max() < 1e-8

    def test_codes_satisfy_kkt(self):
        from tvnet.basis import _all_dictionaries, _coding_problem
        rng = np.random.default_rng(3)
        bases = random_hollow_bases(4, 3, 4)
        X = rng.standard_normal((10, 4))
        codes = infer_codes(bases, X, KERNEL, 0.1, 0.3, range(10))
        Y = _all_dictionaries(bases, X)
        config = ElasticNetConfig(lam=0.1, alpha=0.3)
        for c in codes:
            problem = _coding_problem(Y, X, c.time, KERNEL)
            assert kkt_residuals(problem, config, c.code).max() <= 1e-7


class TestObjective:
    def test_zero_codes_residual_equals_data(self):
        from reference import window_bounds
        from tvnet.kernels import weight_profile
        rng = np.random.default_rng(4)
        bases, X, _ = random_instance(rng, 4, 2, 7)
        codes = [StructureCode(code=np.zeros(2), time=t) for t in range(7)]
        config = make_config(2, lambda_A=0.0)
        expected = 0.0
        for t in range(7):
            lo, hi = window_bounds(t, 7, KERNEL)
            w = weight_profile(t, np.arange(lo, hi), KERNEL)
            expected += float(w @ np.sum(X[lo:hi] ** 2, axis=1))
        assert objective(bases, codes, X, config) == pytest.approx(expected, rel=1e-12)

    def test_zero_bases_zero_basis_penalty(self):
        X = np.zeros((4, 3))
        bases = BasisSet(bases=np.zeros((2, 3, 3)))
        codes = [StructureCode(code=np.zeros(2), time=t) for t in range(4)]
        _, _, basis_pen = objective_components(bases, codes, X, make_config(2))
        assert basis_pen == 0.0

    def test_matches_term_by_term_recomputation(self):
        from reference import window_bounds
        from tvnet.kernels import weight_profile
        rng = np.random.default_rng(5)
        bases, X, codes = random_instance(rng, 3, 2, 6)
        config = make_config(2)
        total = 0.0
        for c in codes:
            lo, hi = window_bounds(c.time, 6, KERNEL)
            w = weight_profile(c.time, np.arange(lo, hi), KERNEL)
            for pos, tp in enumerate(range(lo, hi)):
                D = pseudo_dictionary(bases, X[tp])
                r = X[tp] - D @ c.code
                total += w[pos] * float(r @ r)
            total += 0.5 * config.alpha * config.lambda_beta * float(c.code @ c.code)
            total += (1 - config.alpha) * config.lambda_beta * float(np.abs(c.code).sum())
        total += config.lambda_A * float(np.abs(bases.bases).sum())
        assert objective(bases, codes, X, config) == pytest.approx(total, rel=1e-10)


def datafit_only(bases, codes, X, kernel):
    cfg = FitConfig(k=bases.k, lambda_beta=0.0, alpha=0.0, lambda_A=0.0,
                    kernel=kernel)
    return objective_components(bases, codes, X, cfg)[0]


class TestUnsupervisedGradient:
    def test_zero_codes_zero_gradient(self):
        rng = np.random.default_rng(6)
        bases, X, _ = random_instance(rng, 4, 2, 6)
        codes = [StructureCode(code=np.zeros(2), time=t) for t in range(6)]
        g = unsupervised_basis_gradient(bases, codes, X, KERNEL)
        assert np.all(g == 0.0)

    def test_projected_structure(self):
        rng = np.random.default_rng(7)
        bases, X, codes = random_instance(rng, 4, 2, 6)
        g = unsupervised_basis_gradient(bases, codes, X, KERNEL)
        assert np.abs(g - np.transpose(g, (0, 2, 1))).max() < 1e-12
        assert np.all(g[:, np.arange(4), np.arange(4)] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        # central differences of the data-fit term along random symmetric
        # zero-diagonal directions, codes held fixed
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, 4))
        T = int(rng.integers(3, 7))
        bases, X, codes = random_instance(rng, n, k, T)
        grads = unsupervised_basis_gradient(bases, codes, X, KERNEL)
        eps = 1e-6
        for i in range(k):
            E = project_symmetric_hollow(rng.standard_normal((n, n)))
            E /= np.linalg.norm(E)
            Bp = bases.bases.copy(); Bp[i] = Bp[i] + eps * E
            Bm = bases.bases.copy(); Bm[i] = Bm[i] - eps * E
            fp = datafit_only(BasisSet(bases=Bp), codes, X, KERNEL)
            fm = datafit_only(BasisSet(bases=Bm), codes, X, KERNEL)
            fd = (fp - fm) / (2 * eps)
            an = float(np.sum(grads[i] * E))
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestProximalStep:
    def test_identity_when_unpenalized(self):
        rng = np.random.default_rng(8)
        A = project_symmetric_hollow(rng.standard_normal((4, 4)))
        out = proximal_l1_step(A, np.zeros((4, 4)), 0.5, 0.0)
        assert np.allclose(out, A)

    def test_scalar_soft_threshold(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 0.5
        out = proximal_l1_step(A, np.zeros((3, 3)), 1.0, 0.2)
        assert out[0, 1] == pytest.approx(0.3)

    def test_diagonal_stays_zero(self):
        rng = np.random.default_rng(9)
        A = project_symmetric_hollow(rng.standard_normal((4, 4)))
        G = project_symmetric_hollow(rng.standard_normal((4, 4)))
        out = proximal_l1_step(A, G, 0.3, 0.1)
        assert np.all(np.diag(out) == 0.0)
        assert np.abs(out - out.T).max() < 1e-12

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidInputError):
            proximal_l1_step(np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 0.1)


class TestLineSearch:
    CFG = LineSearchConfig()

    def test_stationary_point(self):
        step, accepted = line_search(1.0, lambda s: 1.0, 0.0, self.CFG,
                                     initial_step=0.5)
        assert accepted and step == 0.5

    def test_quadratic_lands_at_minimum(self):
        # f(a) = a^2, gradient 2 at a=1; step 0.5 reaches the exact minimum
        step, accepted = line_search(1.0, lambda s: (1.0 - 2.0 * s) ** 2, 4.0,
                                     self.CFG, initial_step=0.5)
        assert accepted and step == 0.5

    def test_no_acceptable_step(self):
        step, accepted = line_search(1.0, lambda s: np.inf, 1.0, self.CFG,
                                     initial_step=1.0)
        assert not accepted and step == 0.0


class TestInitBasesPca:
    def test_identical_estimates_recovered(self):
        rng = np.random.default_rng(10)
        M = project_symmetric_hollow(rng.standard_normal((4, 4)))
        ests = [NetworkEstimate(coefficients=M, time=t, lam=0.1) for t in range(5)]
        bases = init_bases_pca(ests, 1)
        expected = M / np.linalg.norm(M)
        if expected.flat[np.abs(expected).argmax()] < 0:
            expected = -expected
        assert np.abs(bases.bases[0] - expected).max() < 1e-10

    def test_two_orthogonal_structures_spanned(self):
        M1 = np.zeros((4, 4)); M1[0, 1] = M1[1, 0] = 1.0
        M2 = np.zeros((4, 4)); M2[2, 3] = M2[3, 2] = 1.0
        ests = []
        for t in range(10):
            M = M1 if t % 2 == 0 else M2
            ests.append(NetworkEstimate(coefficients=1.0 * M, time=t, lam=0.1))
        bases = init_bases_pca(ests, 2)
        # returned bases span the same 2-plane in vec-upper space
        from tvnet.basis import _vec_upper
        V = np.stack([_vec_upper(M1), _vec_upper(M2)])
        W = _vec_upper(bases.bases)
        proj = V.T @ np.linalg.lstsq(V.T, W.T, rcond=None)[0]
        assert np.abs(proj - W.T).max() < 1e-8

    def test_zero_estimates_raise(self):
        ests = [NetworkEstimate(coefficients=np.zeros((3, 3)), time=0, lam=0.1)]
        with pytest.raises(DegenerateInitializationError):
            init_bases_pca(ests, 1)

    def test_rank_deficit_filled_with_warning(self):
        M = np.zeros((4, 4)); M[0, 1] = M[1, 0] = 1.0
        ests = [NetworkEstimate(coefficients=M, time=t, lam=0.1) for t in range(3)]
        with pytest.warns(UserWarning):
            bases = init_bases_pca(ests, 3, seed=1)
        assert bases.k == 3
        for i in range(3):
            assert np.linalg.norm(bases.bases[i]) == pytest.approx(1.0)


class TestFit:
    def test_full_batch_descent(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 4))
        X -= X.mean(axis=0)
        config = make_config(2, max_outer_iters=15)
        result = fit(X, config)
        trace = np.array(result.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_planted_structure_recovery(self):
        from tvnet.evaluate import matrix_correlation
        # noiseless toy: A = I - J has zero diagonal and acts as the identity
        # on mean-zero vectors, so x_t = A x_t holds exactly with codes = 1;
        # A is the unique hollow symmetric matrix with that property
        rng = np.random.default_rng(12)
        v = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        A = np.eye(4) - 4.0 * np.outer(v, v)
        Z = rng.standard_normal((30, 4))
        X = Z - np.outer(Z @ v, v)
        config = make_config(1, lambda_beta=1e-6, lambda_A=0.0,
                             max_outer_iters=300, rel_tol=1e-10, seed=3)
        result = fit(X, config)
        assert matrix_correlation(result.bases.bases[0], A) >= 0.95

    def test_seeded_determinism(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((15, 3))
        config = make_config(2, batch_size=5, max_outer_iters=10, seed=7)
        r1 = fit(X, config)
        r2 = fit(X, config)
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(r1.bases.bases, r2.bases.bases)

    def test_final_codes_satisfy_kkt(self):
        from tvnet.basis import _all_dictionaries, _coding_problem
        rng = np.random.default_rng(14)
        X = rng.standard_normal((12, 3))
        config = make_config(2, max_outer_iters=8)
        result = fit(X, config)
        Y = _all_dictionaries(result.bases, X)
        encfg = ElasticNetConfig(lam=config.lambda_beta, alpha=config.alpha)
        for c in result.codes:
            problem = _coding_problem(Y, X, c.time, KERNEL)
            assert kkt_residuals(problem, encfg, c.code).max() <= 1e-7

    def test_inferred_codes_beat_random_codes(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((10, 3))
        config = make_config(2, max_outer_iters=5)
        result = fit(X, config)
        best = objective(result.bases, result.codes, X, config)
        for _ in range(5):
            alt = [StructureCode(code=c.code + 0.1 * rng.standard_normal(2),
                                 time=c.time) for c in result.codes]
            assert objective(result.bases, alt, X, config) >= best - 1e-12

    def test_iterations_and_tolerance_checks(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((12, 3))
        # full batch: the relative-tolerance test runs after every iteration
        loose = fit(X, make_config(2, max_outer_iters=5, rel_tol=1.0))
        assert (loose.iterations, loose.tol_checks, loose.converged) == (
            1, 1, True)
        capped = fit(X, make_config(2, max_outer_iters=3, rel_tol=0.0))
        assert capped.tol_checks == capped.iterations
        assert capped.converged or capped.iterations == 3
        assert len(capped.objective_trace) <= capped.iterations + 2
        # batches of 4 of 12 times: one check per three iterations
        batched = fit(X, make_config(2, batch_size=4, max_outer_iters=7,
                                     rel_tol=0.0))
        assert batched.tol_checks == batched.iterations // 3

    @pytest.mark.parametrize("X", [np.array([[0.0, np.nan], [1.0, 2.0]]),
                                   np.array([[np.inf, 0.0]]),
                                   np.zeros(4), np.zeros((2, 2, 2))])
    def test_bad_sequence_rejected(self, X):
        bases = random_hollow_bases(2, 1, 0)
        with pytest.raises(InvalidInputError):
            fit(X, make_config(1), init=bases)
        with pytest.raises(InvalidInputError):
            infer_codes(bases, X, KERNEL, 0.1, 0.5, [0])

    def test_bases_stay_feasible(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((14, 4))
        config = make_config(3, max_outer_iters=10)
        result = fit(X, config)
        B = result.bases.bases
        assert np.abs(B - np.transpose(B, (0, 2, 1))).max() <= 1e-10
        assert np.all(B[:, np.arange(4), np.arange(4)] == 0.0)
