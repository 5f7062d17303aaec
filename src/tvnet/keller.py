"""Locally weighted l1-regularized self-regression for time-varying network
structure, with OR-rule edge symmetrization and the partial-correlation
identities linking precision entries to self-regression coefficients.

Time indices are 0-based (0..T-1) throughout.
"""

from dataclasses import dataclass

import numpy as np

from .elastic_net import ElasticNetConfig, solve_elastic_net_stack
from .errors import InvalidInputError
# bound here because bench/spans.py wraps them in this namespace
from .elastic_net import solve_elastic_net  # noqa: F401
from .kernels import weight_profile  # noqa: F401
from .moments import as_sequence, local_moments

# times whose n row lassos are solved as one stack; bounds the (chunk * n,
# n - 1, n - 1) Gram stack of a solve
_CHUNK = 100


@dataclass
class NetworkEstimate:
    """Self-regression coefficient matrix at one time point.

    coefficients[i, j] is the weight of dimension j in the regression
    predicting dimension i; the diagonal is structurally zero.
    """

    coefficients: np.ndarray
    time: int
    lam: float
    # per row: whether its lasso converged and the sweeps it took
    row_converged: np.ndarray = None
    row_sweeps: np.ndarray = None


@dataclass
class EstimateSequence:
    """Self-regression estimates at m time points: coefficients (m, n, n),
    times (m,), and per row whether its lasso converged and the sweeps it
    took, row_converged and row_sweeps (m, n)."""

    coefficients: np.ndarray
    times: np.ndarray
    row_converged: np.ndarray
    row_sweeps: np.ndarray


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


def estimate_structure_at(X, t, spec, lam):
    """Kernel-weighted sparse self-regression at time t.

    Row i of the result solves the weighted lasso predicting dimension i
    from all other dimensions with weights k(t, t'); the diagonal is zero by
    construction (dimension i is excluded from its own covariates). The
    weighted Gram of the window is the local second moment S_t.
    """
    seq = fit_sequence(X, spec, lam, [t])
    return NetworkEstimate(coefficients=seq.coefficients[0],
                           time=int(seq.times[0]), lam=float(lam),
                           row_converged=seq.row_converged[0],
                           row_sweeps=seq.row_sweeps[0])


def fit_sequence(X, spec, lam, times):
    """estimate_structure_at for every requested time, in the given order,
    as one EstimateSequence.

    Row i at time t is the lasso with Gram S_t[-i, -i] and linear term
    S_t[-i, i] of the local moment S_t; the rows of up to _CHUNK times form
    one stack. Every row lasso starts from zero, so each estimate equals
    estimate_structure_at at its time bit for bit, whichever other times
    are requested.
    """
    X = as_sequence(X)
    times = np.asarray(list(times), dtype=int)
    if times.size and (times.min() < 0 or times.max() >= X.shape[0]):
        raise InvalidInputError("time index out of range")
    m, n = times.size, X.shape[1]
    off = ~np.eye(n, dtype=bool)
    # others[i] lists every dimension but i, in order
    others = np.nonzero(off)[1].reshape(n, n - 1)
    config = ElasticNetConfig(lam=lam, alpha=0.0)
    seq = EstimateSequence(coefficients=np.zeros((m, n, n)), times=times,
                           row_converged=np.empty((m, n), dtype=bool),
                           row_sweeps=np.empty((m, n), dtype=int))
    for lo in range(0, m, _CHUNK):
        S = local_moments(X, spec, times[lo:lo + _CHUNK])
        P = S.shape[0]
        gram = S[:, others[:, :, None], others[:, None, :]]
        linear = S[:, others, np.arange(n)[:, None]]
        res = solve_elastic_net_stack(gram.reshape(P * n, n - 1, n - 1),
                                      linear.reshape(P * n, n - 1), config)
        seq.coefficients[lo:lo + P, off] = res.coef.reshape(P, n * (n - 1))
        seq.row_converged[lo:lo + P] = res.converged.reshape(P, n)
        seq.row_sweeps[lo:lo + P] = res.n_sweeps.reshape(P, n)
    return seq


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
