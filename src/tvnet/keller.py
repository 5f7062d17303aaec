"""Locally weighted l1-regularized self-regression for time-varying network
structure, with OR-rule edge symmetrization and the partial-correlation
identities linking precision entries to self-regression coefficients.

Time indices are 0-based (0..T-1) throughout.
"""

from dataclasses import dataclass

import numpy as np

from .elastic_net import ElasticNetConfig, QuadraticProblem, solve_elastic_net
from .errors import InvalidInputError
from .kernels import weight_profile  # noqa: F401 (bench/spans.py wraps it here)
from .moments import local_moments

STANDARDIZATION_TOL = 1e-6


@dataclass
class NetworkEstimate:
    """Self-regression coefficient matrix at one time point.

    coefficients[i, j] is the weight of dimension j in the regression
    predicting dimension i; the diagonal is structurally zero.
    """

    coefficients: np.ndarray
    time: int
    lam: float
    nonstandardized: bool = False
    row_converged: bool = True


@dataclass(frozen=True)
class EdgeSet:
    """Unordered edges (i, j) with i < j, no self-loops."""

    edges: frozenset

    def __post_init__(self):
        for i, j in self.edges:
            if i >= j:
                raise InvalidInputError("edges must be stored with i < j")

    def __contains__(self, pair):
        i, j = pair
        return (min(i, j), max(i, j)) in self.edges

    def __len__(self):
        return len(self.edges)


def _rows_from_gram(G, n, lam, tol, max_sweeps, warm=None):
    """Solve the n row-wise weighted lassos sharing the full Gram G."""
    A = np.zeros((n, n))
    all_converged = True
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        Gi = G[np.ix_(keep, keep)]
        bi = G[keep, i]
        problem = QuadraticProblem(gram=Gi, linear=bi, offset=G[i, i])
        config = ElasticNetConfig(lam=lam, alpha=0.0, tol=tol, max_sweeps=max_sweeps)
        ws = None if warm is None else warm[i, keep]
        res = solve_elastic_net(problem, config, warm_start=ws)
        A[i, keep] = res.coef
        all_converged = all_converged and res.converged
    return A, all_converged


def _check_sequence(X):
    """X as a float array, and whether its columns are far from mean zero."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InvalidInputError("X must be a T x n matrix with T >= 1")
    return X, bool(np.abs(X.mean(axis=0)).max() > STANDARDIZATION_TOL)


def _estimate(S_t, t, lam, nonstd, tol, max_sweeps, warm):
    """Row-wise lassos on the kernel-weighted Gram S_t of time t."""
    A, converged = _rows_from_gram(S_t, S_t.shape[0], lam, tol, max_sweeps,
                                   warm=warm)
    return NetworkEstimate(coefficients=A, time=int(t), lam=float(lam),
                           nonstandardized=nonstd, row_converged=converged)


def estimate_structure_at(X, t, spec, lam, tol=1e-8, max_sweeps=10000):
    """Kernel-weighted sparse self-regression at time t.

    Row i of the result solves the weighted lasso predicting dimension i
    from all other dimensions with weights k(t, t'); the diagonal is zero by
    construction (dimension i is excluded from its own covariates). The
    weighted Gram of the window is the local second moment S_t.
    """
    X, nonstd = _check_sequence(X)
    if not (0 <= t < X.shape[0]):
        raise InvalidInputError(f"time index {t} out of range")
    S_t = local_moments(X, spec, [t])[0]
    return _estimate(S_t, t, lam, nonstd, tol, max_sweeps, None)


def fit_sequence(X, spec, lam, times, tol=1e-8, max_sweeps=10000):
    """estimate_structure_at for every requested time, in the given order.

    Consecutive estimates warm-start each other, which does not change the
    solutions (same convex problems) but speeds up smooth sequences.
    """
    times = list(times)
    if not times:
        return []
    X, nonstd = _check_sequence(X)
    if min(times) < 0 or max(times) >= X.shape[0]:
        raise InvalidInputError("time index out of range")
    S = local_moments(X, spec, times)
    out = []
    warm = None
    for t, S_t in zip(times, S):
        est = _estimate(S_t, t, lam, nonstd, tol, max_sweeps, warm)
        out.append(est)
        warm = est.coefficients
    return out


def symmetrize_edges(estimate, threshold=0.0):
    """OR-rule edge read-out: (i, j) is an edge iff |A_ij| or |A_ji| exceeds
    the threshold."""
    A = np.asarray(estimate.coefficients, dtype=float)
    n = A.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(A[i, j]) > threshold or abs(A[j, i]) > threshold:
                edges.add((i, j))
    return EdgeSet(edges=frozenset(edges))


def precision_to_partial_corr(precision):
    """Partial correlations from a precision matrix:
    rho_ij = -P_ij / sqrt(P_ii P_jj), with unit diagonal."""
    P = np.asarray(precision, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidInputError("precision must be square")
    if np.abs(P - P.T).max() > 1e-10 * max(1.0, np.abs(P).max()):
        raise InvalidInputError("precision must be symmetric")
    if np.linalg.eigvalsh(P)[0] <= 0:
        raise InvalidInputError("precision must be positive definite")
    d = np.sqrt(np.diag(P))
    R = -P / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    return R


def self_regression_coefficients(precision):
    """Population self-regression coefficients rho~_ij = -P_ij / P_ii
    (zero diagonal)."""
    P = np.asarray(precision, dtype=float)
    R = -P / np.diag(P)[:, None]
    np.fill_diagonal(R, 0.0)
    return R


def regression_to_partial_corr(rho_ij, rho_ji):
    """Recover rho_ij = sign(rho~_ij) sqrt(rho~_ij rho~_ji).

    Returns (value, mismatch). On a sign disagreement between the two
    coefficients (possible with sampled data) the value is 0 and mismatch
    is True.
    """
    if rho_ij == 0.0 or rho_ji == 0.0:
        return 0.0, False
    if np.sign(rho_ij) != np.sign(rho_ji):
        return 0.0, True
    return float(np.sign(rho_ij) * np.sqrt(rho_ij * rho_ji)), False
