"""Direct forms of the package's computations, kept as oracles.

The window-by-window loops rescan each target's kernel window and are too
slow for the package, which derives everything from the local second
moments (tvnet.moments); they share no code with the moment path except the
kernel function itself. `scalar_elastic_net` is the one-problem coordinate
descent loop that the stacked solver of tvnet.elastic_net replaced.
`pca_projection_features` projects one estimate at a time, as eval once did.
"""

import numpy as np

from tvnet.basis import (_all_dictionaries, _vec_upper,
                         project_symmetric_hollow)
from tvnet.elastic_net import (ElasticNetConfig, QuadraticProblem,
                               soft_threshold, solve_elastic_net)
from tvnet.errors import DegenerateProblemError, InvalidInputError
from tvnet.kernels import weight_profile


def scalar_elastic_net(problem, config, warm_start=None):
    """(coef, converged, n_sweeps) of cyclic coordinate descent on one
    QuadraticProblem, one coordinate at a time: coordinates 0..k-1 in
    order, stopping after the first sweep whose largest change is below
    config.tol."""
    k = problem.k
    G = problem.gram
    b = problem.linear
    beta = (np.zeros(k) if warm_start is None
            else np.array(warm_start, dtype=float).ravel())
    l1 = (1.0 - config.alpha) * config.lam
    denom = 2.0 * np.diag(G) + config.alpha * config.lam
    Gbeta = G @ beta
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        max_delta = 0.0
        for j in range(k):
            partial = 2.0 * (b[j] - (Gbeta[j] - G[j, j] * beta[j]))
            num = soft_threshold(partial, l1)
            if denom[j] <= 0.0:
                if num == 0.0:
                    new = 0.0
                else:
                    raise DegenerateProblemError(
                        f"coordinate {j} has zero curvature")
            else:
                new = num / denom[j]
            delta = new - beta[j]
            if delta != 0.0:
                Gbeta += G[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < config.tol:
            converged = True
            break
    return beta, converged, sweeps


def window_bounds(t, n_times, spec):
    """Integer [lo, hi) range of time indices with nonzero truncated weight,
    assuming indices 0..n_times-1."""
    radius = spec.truncation * spec.bandwidth
    lo = max(0, int(np.ceil(t - radius)))
    hi = min(n_times, int(np.floor(t + radius)) + 1)
    return lo, hi


def window(t, n_times, spec):
    """(lo, hi, weights) of target t's truncated kernel window."""
    lo, hi = window_bounds(t, n_times, spec)
    return lo, hi, weight_profile(t, np.arange(lo, hi), spec)


def weighted_gram(X, t, spec):
    """Kernel-weighted Gram sum_{t'} k(t, t') x_{t'} x_{t'}' of the window
    around t."""
    lo, hi, w = window(t, X.shape[0], spec)
    G = X[lo:hi].T @ (X[lo:hi] * w[:, None])
    return 0.5 * (G + G.T)


def build_weighted_problem(dictionaries, targets, weights):
    """Accumulate G = sum_t w_t D_t' D_t, b = sum_t w_t D_t' x_t,
    c = sum_t w_t ||x_t||^2 so that the induced quadratic equals
    sum_t w_t ||x_t - D_t beta||^2."""
    if not (len(dictionaries) == len(targets) == len(weights)):
        raise InvalidInputError("dictionaries, targets, weights must have equal length")
    if len(dictionaries) == 0:
        raise InvalidInputError("at least one term is required")
    k = np.asarray(dictionaries[0], dtype=float).shape[1]
    G = np.zeros((k, k))
    b = np.zeros(k)
    c = 0.0
    for D, x, w in zip(dictionaries, targets, weights):
        D = np.asarray(D, dtype=float)
        x = np.asarray(x, dtype=float).ravel()
        w = float(w)
        if w < 0:
            raise InvalidInputError("weights must be nonnegative")
        if D.ndim != 2 or D.shape[1] != k or D.shape[0] != x.shape[0]:
            raise InvalidInputError("dictionary/target shape mismatch")
        if w == 0.0:
            continue
        G += w * (D.T @ D)
        b += w * (D.T @ x)
        c += w * (x @ x)
    return QuadraticProblem(gram=0.5 * (G + G.T), linear=b, offset=c)


def solve_weighted_lasso(covariates, response, weights, lam,
                         tol=1e-8, max_sweeps=10000, warm_start=None):
    """Pure-l1 (alpha=0) weighted lasso on (covariates, response, weights)."""
    C = np.asarray(covariates, dtype=float)
    y = np.asarray(response, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if C.ndim != 2 or C.shape[0] != y.shape[0] or C.shape[0] != w.shape[0]:
        raise InvalidInputError("covariates/response/weights shape mismatch")
    if C.shape[0] < 1:
        raise InvalidInputError("at least one observation is required")
    if np.any(w < 0):
        raise InvalidInputError("weights must be nonnegative")
    if lam < 0:
        raise InvalidInputError("lam must be nonnegative")
    Cw = C * w[:, None]
    G = C.T @ Cw
    b = Cw.T @ y
    c = float(w @ (y * y))
    problem = QuadraticProblem(gram=0.5 * (G + G.T), linear=b, offset=c)
    config = ElasticNetConfig(lam=lam, alpha=0.0, tol=tol, max_sweeps=max_sweeps)
    return solve_elastic_net(problem, config, warm_start=warm_start)


def coding_problem(bases, X, t, kernel):
    """The coding problem at t, accumulated over the window's
    pseudo-dictionaries."""
    Y = _all_dictionaries(bases, X)
    lo, hi, w = window(t, X.shape[0], kernel)
    return build_weighted_problem(list(Y[lo:hi]), list(X[lo:hi]), w)


def data_fit(bases, codes, X, kernel):
    """sum over codes of the kernel-weighted squared residuals."""
    Y = _all_dictionaries(bases, X)
    total = 0.0
    for c in codes:
        lo, hi, w = window(c.time, X.shape[0], kernel)
        R = X[lo:hi] - Y[lo:hi] @ c.code
        total += float(w @ np.einsum("tn,tn->t", R, R))
    return total


def unsupervised_basis_gradient(bases, codes, X, kernel):
    """Gradient of data_fit in the bases, projected onto the symmetric
    zero-diagonal subspace.

    Per-dictionary gradients dL/dD_s = sum_t k(t,s) * (-2) (x_s - D_s b_t) b_t'
    are accumulated, then backpropagated through D_s formation
    (dA^i += column i of dL/dD_s times x_s'), then projected.
    """
    T = X.shape[0]
    k = bases.k
    Y = _all_dictionaries(bases, X)
    # u_s = sum_t w(t,s) b_t ; C_s = sum_t w(t,s) b_t b_t'
    u = np.zeros((T, k))
    C = np.zeros((T, k, k))
    for c in codes:
        lo, hi, w = window(c.time, T, kernel)
        u[lo:hi] += np.outer(w, c.code)
        C[lo:hi] += w[:, None, None] * np.outer(c.code, c.code)
    dD = -2.0 * (X[:, :, None] * u[:, None, :] - np.einsum("snk,skl->snl", Y, C))
    grads = np.einsum("sni,sm->inm", dD, X)
    return project_symmetric_hollow(grads)


def pca_projection_features(coefficients, bases):
    """(m, k) projections of the symmetrized estimates, one estimate at a
    time, on the bases rescaled one by one to unit vec-upper norm."""
    unit = np.empty_like(bases.bases)
    for i in range(bases.k):
        unit[i] = bases.bases[i] / np.linalg.norm(_vec_upper(bases.bases[i]))
    V = _vec_upper(unit)
    return np.stack([V @ _vec_upper(0.5 * (A + A.T)) for A in coefficients])
