"""Property tests: the local-moment path against the window-by-window
oracles of tests/reference.py, within 1e-10 relative."""

import numpy as np
from hypothesis import given, strategies as st

import reference as ref
from tvnet.basis import (BasisSet, FitConfig, StructureCode,
                         objective_components, project_symmetric_hollow,
                         random_hollow_bases, unsupervised_basis_gradient,
                         _all_dictionaries, _coding_problem,
                         _coding_statistics)
from tvnet.kernels import FAMILIES, KernelSpec
from tvnet.moments import local_moments

RTOL = 1e-10

# radii r = bandwidth * truncation from 0.15 to 18: single-point windows,
# windows cut at one or both ends, and windows longer than the sequence
kernels = st.builds(KernelSpec,
                    bandwidth=st.floats(0.3, 6.0),
                    family=st.sampled_from(FAMILIES),
                    truncation=st.floats(0.5, 3.0),
                    normalize=st.booleans())


@st.composite
def instances(draw):
    """(kernel, X, bases, codes) with codes at every time."""
    kernel = draw(kernels)
    T = draw(st.integers(1, 14))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((T, n))
    bases = random_hollow_bases(n, k, int(rng.integers(1 << 30)))
    codes = [StructureCode(code=rng.standard_normal(k), time=t)
             for t in range(T)]
    return kernel, X, bases, codes


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= RTOL * scale


@given(instances(), st.data())
def test_moments_match_window_sums(instance, data):
    kernel, X, _, _ = instance
    T = X.shape[0]
    S = local_moments(X, kernel)
    for t in range(T):
        assert_close(S[t], ref.weighted_gram(X, t, kernel))
    # a subset of times, in any order and with repeats
    times = data.draw(st.lists(st.integers(0, T - 1), min_size=1,
                               max_size=5))
    assert np.array_equal(local_moments(X, kernel, times), S[times])


@given(instances())
def test_coding_statistics_match_window_sums(instance):
    kernel, X, bases, _ = instance
    G, v, c = _coding_statistics(bases, local_moments(X, kernel))
    Y = _all_dictionaries(bases, X)
    for t in range(X.shape[0]):
        problem = ref.coding_problem(bases, X, t, kernel)
        assert_close(G[t], problem.gram)
        assert_close(v[t], problem.linear)
        assert_close(c[t], problem.offset)
        single = _coding_problem(Y, X, t, kernel)
        assert_close(single.gram, problem.gram)
        assert_close(single.linear, problem.linear)
        assert_close(single.offset, problem.offset)


@given(instances(), st.integers(0, 2 ** 32 - 1))
def test_objective_at_random_bases_matches_window_sums(instance, seed):
    kernel, X, bases, codes = instance
    rng = np.random.default_rng(seed)
    cand = BasisSet(bases=project_symmetric_hollow(
        rng.standard_normal(bases.bases.shape)))
    config = FitConfig(k=bases.k, lambda_beta=0.1, alpha=0.5, lambda_A=0.01,
                       kernel=kernel)
    subset = [c for c in codes if rng.random() < 0.5] or codes[:1]
    for basis_set in (bases, cand):
        for cs in (codes, subset):
            data_fit, _, _ = objective_components(basis_set, cs, X, config)
            assert_close(data_fit, ref.data_fit(basis_set, cs, X, kernel))


@given(instances())
def test_gradient_matches_window_sums(instance):
    kernel, X, bases, codes = instance
    expected = ref.unsupervised_basis_gradient(bases, codes, X, kernel)
    assert_close(unsupervised_basis_gradient(bases, codes, X, kernel),
                 expected)
    S = local_moments(X, kernel)
    assert_close(unsupervised_basis_gradient(bases, codes, X, kernel,
                                             moments=S), expected)
