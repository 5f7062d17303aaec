"""Damped-Newton trainer for l2-regularized logistic regression.

Minimizes mean binomial deviance plus (ridge/2)||w||^2; the optional
intercept is unregularized. Used both by the supervised basis updates
(no intercept) and the evaluation classifiers (with intercept).
"""

import numpy as np

from .errors import InvalidInputError

MAX_NEWTON_ITERS = 200
GRAD_TOL = 1e-8


def _check_labels(y):
    y = np.asarray(y, dtype=float).ravel()
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInputError("labels must be in {-1, +1}")
    return y


def fit_logistic(features, labels, ridge, intercept=True, init=None):
    """Returns (weights, intercept); intercept is 0.0 when intercept=False.

    Stops when the gradient norm of the objective drops to GRAD_TOL.
    """
    Z = np.asarray(features, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise InvalidInputError("features must be an m x p matrix with m >= 2")
    y = _check_labels(labels)
    if y.shape[0] != Z.shape[0]:
        raise InvalidInputError("label count must match feature rows")
    if len(np.unique(y)) < 2:
        raise InvalidInputError("both classes must be present")
    if ridge < 0:
        raise InvalidInputError("ridge must be nonnegative")
    m, p = Z.shape

    if intercept:
        Z = np.hstack([Z, np.ones((m, 1))])
    dim = Z.shape[1]
    theta = np.zeros(dim)
    if init is not None:
        init = np.asarray(init, dtype=float).ravel()
        theta[:init.shape[0]] = init
    reg = np.full(dim, ridge)
    if intercept:
        reg[-1] = 0.0

    def value(th):
        margins = y * (Z @ th)
        return np.logaddexp(0.0, -margins).mean() + 0.5 * float((reg * th) @ th)

    obj = value(theta)
    for _ in range(MAX_NEWTON_ITERS):
        margins = y * (Z @ theta)
        s = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))  # sigma(-margin)
        grad = -(Z.T @ (y * s)) / m + reg * theta
        gnorm = np.linalg.norm(grad)
        if gnorm <= GRAD_TOL:
            break
        d = s * (1.0 - s)
        H = (Z.T * d) @ Z / m + np.diag(reg)
        # tiny floor keeps the Newton system solvable for separable data
        H += 1e-12 * np.eye(dim)
        direction = np.linalg.solve(H, grad)
        step = 1.0
        for _ in range(60):
            cand = theta - step * direction
            cv = value(cand)
            if cv <= obj - 1e-4 * step * float(grad @ direction):
                theta, obj = cand, cv
                break
            step *= 0.5
        else:
            break
    if intercept:
        return theta[:-1], float(theta[-1])
    return theta, 0.0
