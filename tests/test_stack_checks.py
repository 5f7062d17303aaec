"""The elastic-net stacks the package builds itself skip the eigenvalue
check of the public solver. These tests show what makes that safe: every
such stack would pass the full check, overflow is still refused, and the
full check runs only behind the public entry points."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tvnet import basis, elastic_net, keller
from tvnet.basis import BasisSet, FitConfig, fit, infer_codes
from tvnet.elastic_net import (ElasticNetConfig, QuadraticProblem,
                               solve_elastic_net, solve_elastic_net_stack)
from tvnet.errors import InvalidInputError
from tvnet.keller import fit_sequence
from tvnet.kernels import FAMILIES, KernelSpec
from tvnet.supervised import SupervisedConfig, fit_supervised


def hollow_bases(rng, k, n, scale=1.0):
    B = scale * rng.standard_normal((k, n, n))
    B = B + B.transpose(0, 2, 1)
    B[:, np.arange(n), np.arange(n)] = 0.0
    return BasisSet(bases=B)


@st.composite
def sequences(draw):
    """(X, kernel, rng): a finite T x n sequence of rank at most r, with
    entries over six orders of magnitude, and a kernel of any family."""
    n = draw(st.integers(2, 8))
    T = draw(st.integers(1, 30))
    r = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    X = scale * rng.standard_normal((T, r)) @ rng.standard_normal((r, n))
    kernel = KernelSpec(bandwidth=draw(st.floats(0.5, 10.0)),
                        family=draw(st.sampled_from(FAMILIES)),
                        normalize=draw(st.booleans()))
    return X, kernel, rng


def recorder():
    """A stand-in for _solve_stack that keeps its (gram, linear) arguments
    and returns zero codes, and the list it fills."""
    seen = []

    def record(G, b, *args, **kwargs):
        seen.append((G.copy(), b.copy()))
        P = len(b)
        return elastic_net.StackResult(coef=np.zeros(b.shape),
                                       converged=np.ones(P, dtype=bool),
                                       n_sweeps=np.ones(P, dtype=int))

    return seen, record


@given(sequences(), st.integers(1, 4))
def test_built_stacks_pass_the_full_check(seq, k):
    X, kernel, rng = seq
    T, n = X.shape
    bases = hollow_bases(rng, k, n)
    with pytest.MonkeyPatch.context() as mp:
        rows, record_rows = recorder()
        mp.setattr(keller, "_solve_stack", record_rows)
        fit_sequence(X, kernel, 0.1, range(T))
        codes, record_codes = recorder()
        mp.setattr(basis, "_solve_stack", record_codes)
        infer_codes(bases, X, kernel, 0.1, 0.5, range(T))
    assert rows and codes
    for G, b in rows + codes:
        elastic_net._check_stack(G, b)


def test_overflow_is_refused():
    # finite X whose outer products overflow: S_t is not finite
    rng = np.random.default_rng(0)
    X = 1e160 * rng.standard_normal((20, 4))
    kernel = KernelSpec(bandwidth=3.0)
    bases = hollow_bases(rng, 2, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match="non-finite"):
            fit_sequence(X, kernel, 0.1, range(20))
        with pytest.raises(InvalidInputError, match="non-finite"):
            infer_codes(bases, X, kernel, 0.1, 0.5, range(20))


@pytest.fixture
def check_calls(monkeypatch):
    calls = []
    check = elastic_net._check_stack

    def counted(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(elastic_net, "_check_stack", counted)
    return calls


def fit_inputs():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 4))
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    labels[:2] = 1.0, -1.0
    config = FitConfig(k=2, lambda_beta=0.05, alpha=0.5, lambda_A=0.01,
                       kernel=KernelSpec(bandwidth=2.0), batch_size=10,
                       max_outer_iters=3)
    return X, labels, config, hollow_bases(rng, 2, 4, scale=0.1)


@pytest.mark.parametrize("run", [
    lambda X, y, cfg, init: fit_sequence(X, cfg.kernel, 0.1, range(len(X))),
    lambda X, y, cfg, init: fit(X, cfg, init=init),
    lambda X, y, cfg, init: fit_supervised(
        X, y, SupervisedConfig(gamma=0.5, base=cfg, nu=0.01), init),
    lambda X, y, cfg, init: infer_codes(init, X, cfg.kernel, 0.05, 0.5,
                                        range(len(X))),
], ids=["fit_sequence", "fit", "fit_supervised", "infer_codes"])
def test_package_solves_skip_the_full_check(check_calls, run):
    run(*fit_inputs())
    assert check_calls == []


def test_public_entries_keep_the_full_check(check_calls):
    gram = np.array([[[2.0, 0.5], [0.5, 1.0]]])
    linear = np.array([[1.0, -1.0]])
    config = ElasticNetConfig(lam=0.1)
    solve_elastic_net_stack(gram, linear, config)
    assert len(check_calls) == 1
    solve_elastic_net(QuadraticProblem(gram=gram[0], linear=linear[0]),
                      config)
    assert len(check_calls) == 2
