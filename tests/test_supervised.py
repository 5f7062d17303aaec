import numpy as np
import pytest

from tvnet.basis import (BasisSet, FitConfig, StructureCode, fit, infer_codes,
                         line_search, project_symmetric_hollow,
                         random_hollow_bases, _all_dictionaries)
from tvnet.elastic_net import ElasticNetConfig, QuadraticProblem, solve_elastic_net
from tvnet.errors import InvalidInputError, SingularSystemError
from tvnet.kernels import KernelSpec
from tvnet.supervised import (LinearClassifier, SupervisedConfig,
                              fit_supervised, logistic_loss,
                              supervised_code_gradient,
                              supervised_dict_gradient, _SupervisedHook)

# bandwidth * truncation < 1 makes every coding window a single time point,
# where the per-instance gradient formula is exact
POINT_KERNEL = KernelSpec(bandwidth=0.3, truncation=1.0)


def solve_single_code(D, x, lam, alpha):
    problem = QuadraticProblem(gram=D.T @ D, linear=D.T @ x, offset=float(x @ x))
    res = solve_elastic_net(problem, ElasticNetConfig(lam=lam, alpha=alpha))
    return res.coef


def make_config(k, **kw):
    defaults = dict(lambda_beta=0.05, alpha=0.5, lambda_A=0.0,
                    kernel=POINT_KERNEL, rel_tol=1e-9, max_outer_iters=40)
    defaults.update(kw)
    return FitConfig(k=k, **defaults)


class TestLinearClassifier:
    def test_round_trip(self):
        clf = LinearClassifier(weights=np.array([1.0, -2.0]), ridge=0.3)
        again = LinearClassifier.from_dict(clf.to_dict())
        assert np.array_equal(again.weights, clf.weights)
        assert again.ridge == clf.ridge

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidInputError):
            LinearClassifier(weights=np.zeros(2), ridge=-0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            LinearClassifier(weights=np.array([np.nan]))


class TestSupervisedConfig:
    def test_gamma_out_of_range(self):
        base = make_config(2)
        with pytest.raises(InvalidInputError):
            SupervisedConfig(gamma=1.5, base=base)
        with pytest.raises(InvalidInputError):
            SupervisedConfig(gamma=-0.1, base=base)


class TestLogisticLoss:
    def test_zero_weights_give_log_two(self):
        clf = LinearClassifier(weights=np.zeros(3))
        code = StructureCode(code=np.ones(3), time=0)
        assert logistic_loss(clf, code, 1) == pytest.approx(np.log(2.0))

    def test_confident_correct_is_small(self):
        clf = LinearClassifier(weights=np.array([10.0]))
        code = StructureCode(code=np.array([5.0]), time=0)
        assert logistic_loss(clf, code, 1) < 1e-20
        assert logistic_loss(clf, code, -1) == pytest.approx(50.0)

    def test_bad_label(self):
        clf = LinearClassifier(weights=np.zeros(1))
        with pytest.raises(InvalidInputError):
            logistic_loss(clf, StructureCode(code=np.zeros(1), time=0), 0)


class TestCodeGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            k = int(rng.integers(1, 5))
            clf = LinearClassifier(weights=rng.standard_normal(k))
            beta = rng.standard_normal(k)
            label = 1 if rng.random() < 0.5 else -1
            grad = supervised_code_gradient(
                clf, StructureCode(code=beta, time=0), label)
            eps = 1e-6
            for j in range(k):
                e = np.zeros(k)
                e[j] = eps
                hi = logistic_loss(clf, StructureCode(code=beta + e, time=0), label)
                lo = logistic_loss(clf, StructureCode(code=beta - e, time=0), label)
                assert grad[j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)


class TestDictGradient:
    def test_matches_finite_differences_through_coding(self):
        rng = np.random.default_rng(1)
        lam, alpha = 0.05, 0.5
        checked = 0
        trial = 0
        while checked < 20 and trial < 200:
            trial += 1
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            D = rng.standard_normal((n, k))
            x = rng.standard_normal(n)
            clf = LinearClassifier(weights=rng.standard_normal(k))
            label = 1 if rng.random() < 0.5 else -1

            beta = solve_single_code(D, x, lam, alpha)
            active = np.abs(beta) > 1e-12
            if not active.any():
                continue
            code = StructureCode(code=beta, time=0)
            g_code = supervised_code_gradient(clf, code, label)
            grad = supervised_dict_gradient(D, code, x, g_code, alpha * lam)

            direction = rng.standard_normal((n, k))
            eps = 1e-6
            b_hi = solve_single_code(D + eps * direction, x, lam, alpha)
            b_lo = solve_single_code(D - eps * direction, x, lam, alpha)
            # only count perturbations that keep the active set stable
            if not (np.array_equal(np.abs(b_hi) > 1e-12, active)
                    and np.array_equal(np.abs(b_lo) > 1e-12, active)):
                continue
            f_hi = logistic_loss(clf, StructureCode(code=b_hi, time=0), label)
            f_lo = logistic_loss(clf, StructureCode(code=b_lo, time=0), label)
            fd = (f_hi - f_lo) / (2 * eps)
            analytic = float(np.sum(grad * direction))
            assert analytic == pytest.approx(fd, rel=1e-2, abs=1e-8)
            checked += 1
        assert checked == 20

    def test_inactive_code_gives_zero(self):
        D = np.eye(3)
        code = StructureCode(code=np.zeros(3), time=0)
        grad = supervised_dict_gradient(D, code, np.ones(3), np.ones(3), 0.1)
        assert np.all(grad == 0.0)

    def test_singular_active_gram_raises(self):
        # two identical active columns with no l2 weight
        D = np.column_stack([np.ones(3), np.ones(3)])
        code = StructureCode(code=np.array([0.5, 0.5]), time=0)
        with pytest.raises(SingularSystemError):
            supervised_dict_gradient(D, code, np.ones(3), np.ones(2), 0.0)

    def test_shape_mismatch(self):
        code = StructureCode(code=np.zeros(2), time=0)
        with pytest.raises(InvalidInputError):
            supervised_dict_gradient(np.eye(3), code, np.ones(3), np.ones(2), 0.1)


def make_problem(seed, T=12, n=4, k=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, n))
    labels = np.where(rng.random(T) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0   # both classes present
    init = random_hollow_bases(n, k, seed + 100)
    return X, labels, init


class TestHookGradient:
    def test_basis_gradient_matches_finite_differences(self):
        # single-point windows: per-instance formula is exact through the
        # re-solved coding, so the hook gradient must match central FD
        rng = np.random.default_rng(4)
        cfg = make_config(2)
        sup_cfg = SupervisedConfig(gamma=0.5, base=cfg)
        checked = 0
        trial = 0
        while checked < 10 and trial < 100:
            trial += 1
            T, n = 6, 4
            X = rng.standard_normal((T, n))
            labels = np.where(rng.random(T) < 0.5, 1.0, -1.0)
            bases = random_hollow_bases(n, cfg.k, int(rng.integers(1 << 30)))
            hook = _SupervisedHook(labels, sup_cfg)
            hook.classifier = LinearClassifier(
                weights=rng.standard_normal(cfg.k), ridge=sup_cfg.nu)

            def sup_loss(basis_set):
                codes = infer_codes(basis_set, X, cfg.kernel, cfg.lambda_beta,
                                    cfg.alpha, range(T))
                total = sum(logistic_loss(hook.classifier, c, int(labels[c.time]))
                            for c in codes)
                w = hook.classifier.weights
                return total / T + 0.5 * sup_cfg.nu * float(w @ w)

            codes = infer_codes(bases, X, cfg.kernel, cfg.lambda_beta,
                                cfg.alpha, range(T))
            actives = [np.abs(c.code) > 1e-12 for c in codes]
            if not any(a.any() for a in actives):
                continue
            Y = _all_dictionaries(bases, X)
            grad = hook.basis_gradient(bases, codes, X, Y)

            direction = project_symmetric_hollow(
                rng.standard_normal((cfg.k, n, n)))
            eps = 1e-6
            hi_set = BasisSet(bases=bases.bases + eps * direction)
            lo_set = BasisSet(bases=bases.bases - eps * direction)
            hi_act = [np.abs(c.code) > 1e-12 for c in
                      infer_codes(hi_set, X, cfg.kernel, cfg.lambda_beta,
                                  cfg.alpha, range(T))]
            lo_act = [np.abs(c.code) > 1e-12 for c in
                      infer_codes(lo_set, X, cfg.kernel, cfg.lambda_beta,
                                  cfg.alpha, range(T))]
            if not all(np.array_equal(a, b) and np.array_equal(a, c)
                       for a, b, c in zip(actives, hi_act, lo_act)):
                continue
            fd = (sup_loss(hi_set) - sup_loss(lo_set)) / (2 * eps)
            analytic = float(np.sum(grad * direction))
            assert analytic == pytest.approx(fd, rel=1e-2, abs=1e-8)
            checked += 1
        assert checked == 10

    def test_loss_matches_per_code_sum(self):
        rng = np.random.default_rng(8)
        sup_cfg = SupervisedConfig(gamma=0.5, base=make_config(3), nu=0.2)
        labels = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        hook = _SupervisedHook(labels, sup_cfg)
        hook.classifier = LinearClassifier(weights=rng.standard_normal(3))
        codes = [StructureCode(code=rng.standard_normal(3), time=int(t))
                 for t in rng.permutation(30)[:17]]
        w = hook.classifier.weights
        expected = (sum(logistic_loss(hook.classifier, c,
                                      int(labels[c.time])) for c in codes)
                    / len(codes) + 0.1 * float(w @ w))
        assert hook.loss(codes) == pytest.approx(expected, rel=1e-14)

    def test_refit_reaches_stationarity(self):
        rng = np.random.default_rng(6)
        cfg = make_config(2)
        sup_cfg = SupervisedConfig(gamma=0.5, base=cfg)
        labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        labels[:2] = [1.0, -1.0]
        hook = _SupervisedHook(labels, sup_cfg)
        codes = [StructureCode(code=rng.standard_normal(2), time=t)
                 for t in range(20)]
        hook.refit(codes)
        Z = np.stack([c.code for c in codes])
        w = hook.classifier.weights
        margins = labels * (Z @ w)
        s = 1.0 / (1.0 + np.exp(margins))
        grad = -(Z.T @ (labels * s)) / 20 + sup_cfg.nu * w
        assert np.linalg.norm(grad) <= 1e-7


class TestFitSupervised:
    def test_gamma_one_reproduces_unsupervised_bitwise(self):
        X, labels, init = make_problem(7)
        cfg = make_config(2, seed=11)
        plain = fit(X, cfg, init=init)
        sup_cfg = SupervisedConfig(gamma=1.0, base=cfg)
        result, clf = fit_supervised(X, labels, sup_cfg, init)
        assert result.objective_trace == plain.objective_trace
        assert np.array_equal(result.bases.bases, plain.bases.bases)
        for a, b in zip(result.codes, plain.codes):
            assert np.array_equal(a.code, b.code)
        assert np.all(np.isfinite(clf.weights))

    def test_full_batch_trace_non_increasing(self):
        X, labels, init = make_problem(8, T=15)
        cfg = make_config(2, seed=3, max_outer_iters=15)
        sup_cfg = SupervisedConfig(gamma=0.75, base=cfg)
        result, clf = fit_supervised(X, labels, sup_cfg, init)
        trace = np.asarray(result.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)
        assert np.all(np.isfinite(clf.weights))

    def test_supervised_reduces_deviance_vs_endpoint(self):
        # gamma < 1 should fit the labels at least as well on its own codes
        X, labels, init = make_problem(9, T=20)
        cfg = make_config(2, seed=5, max_outer_iters=25)
        losses = {}
        for gamma in (1.0, 0.25):
            sup_cfg = SupervisedConfig(gamma=gamma, base=cfg)
            result, clf = fit_supervised(X, labels, sup_cfg, init)
            Z = np.stack([c.code for c in result.codes])
            if gamma == 1.0:
                # endpoint run never trains a classifier; fit one after the fact
                hook = _SupervisedHook(labels, SupervisedConfig(gamma=0.0, base=cfg))
                hook.refit(result.codes)
                clf = hook.classifier
            margins = labels * (Z @ clf.weights)
            losses[gamma] = float(np.logaddexp(0.0, -margins).mean())
        assert losses[0.25] <= losses[1.0] + 1e-12

    def test_batch_line_search_compares_one_function(self, monkeypatch):
        # batches of 6 of 20 times: the unchanged bases (a trial step of
        # 1e-300), scored through the trial path with the batch codes
        # re-solved from their warm starts, give the value the Armijo test
        # starts from, up to the solver tolerance
        import tvnet.basis
        seen = []

        def recording(current, evaluate, gns, initial_step):
            seen.append((current, evaluate(1e-300)))
            return line_search(current, evaluate, gns, initial_step)

        monkeypatch.setattr(tvnet.basis, "line_search", recording)
        X, labels, init = make_problem(14, T=20)
        cfg = make_config(2, seed=4, batch_size=6, max_outer_iters=8)
        fit_supervised(X, labels, SupervisedConfig(gamma=0.5, base=cfg), init)
        assert len(seen) == 8
        for current, unchanged in seen:
            assert abs(unchanged - current) <= 1e-8   # the solver tolerance

    def test_label_validation(self):
        X, labels, init = make_problem(10)
        cfg = make_config(2)
        sup_cfg = SupervisedConfig(gamma=0.5, base=cfg)
        with pytest.raises(InvalidInputError):
            fit_supervised(X, labels[:-1], sup_cfg, init)
        bad = labels.copy()
        bad[0] = 0.0
        with pytest.raises(InvalidInputError):
            fit_supervised(X, bad, sup_cfg, init)

    def test_single_class_rejected_before_any_solve(self, monkeypatch):
        import tvnet.basis

        def no_solve(*args, **kwargs):
            raise AssertionError("a code was solved")

        monkeypatch.setattr(tvnet.basis, "_solve_stack", no_solve)
        X, labels, init = make_problem(12)
        sup_cfg = SupervisedConfig(gamma=0.5, base=make_config(2))
        with pytest.raises(InvalidInputError, match="both classes"):
            fit_supervised(X, np.ones_like(labels), sup_cfg, init)

    def test_bad_sequence_rejected(self):
        X, labels, init = make_problem(13)
        sup_cfg = SupervisedConfig(gamma=0.5, base=make_config(2))
        X[3, 1] = np.nan
        with pytest.raises(InvalidInputError):
            fit_supervised(X, labels, sup_cfg, init)
        with pytest.raises(InvalidInputError):
            fit_supervised(X[0], labels[:1], sup_cfg, init)

    def test_deterministic(self):
        X, labels, init = make_problem(11)
        cfg = make_config(2, seed=21, batch_size=6)
        sup_cfg = SupervisedConfig(gamma=0.6, base=cfg)
        r1, c1 = fit_supervised(X, labels, sup_cfg, init)
        r2, c2 = fit_supervised(X, labels, sup_cfg, init)
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(r1.bases.bases, r2.bases.bases)
        assert np.array_equal(c1.weights, c2.weights)
