"""Task-driven basis learning: a logistic loss on linear read-outs of the
structure codes, backpropagated through the elastic-net coding argmin into
the bases, mixed with the unsupervised gradient by a factor gamma.
"""

from dataclasses import dataclass

import numpy as np

from . import basis as _basis
from .basis import (FitConfig, infer_codes, project_symmetric_hollow,
                    _as_sequence, _code_matrix)
from .errors import InvalidInputError, SingularSystemError
from .logistic import fit_logistic
# bound here because bench/spans.py wraps them in this namespace
from .basis import _coding_problem  # noqa: F401
from .elastic_net import solve_elastic_net  # noqa: F401
from .kernels import weight_profile  # noqa: F401

ACTIVE_SET_TOL = 1e-12


@dataclass
class LinearClassifier:
    """Weights omega of the linear read-out omega' beta_t, with ridge nu."""

    weights: np.ndarray
    ridge: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("classifier weights must be finite")
        if self.ridge < 0:
            raise InvalidInputError("ridge must be nonnegative")
        self.weights = w

    def to_dict(self):
        return {"omega": self.weights.tolist(), "nu": self.ridge}

    @classmethod
    def from_dict(cls, d):
        return cls(weights=np.asarray(d["omega"], dtype=float), ridge=float(d["nu"]))


@dataclass(frozen=True)
class SupervisedConfig:
    gamma: float
    base: FitConfig
    nu: float = 1e-2

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise InvalidInputError("gamma must lie in [0, 1]")


def logistic_loss(classifier, code, label):
    """Binomial deviance log(1 + exp(-y * omega' beta))."""
    if label not in (-1, 1):
        raise InvalidInputError("label must be -1 or +1")
    margin = label * float(classifier.weights @ code.code)
    return float(np.logaddexp(0.0, -margin))


def supervised_code_gradient(classifier, code, label):
    """Gradient of the deviance with respect to the code:
    -y * sigma(-y * omega' beta) * omega."""
    if label not in (-1, 1):
        raise InvalidInputError("label must be -1 or +1")
    margin = label * float(classifier.weights @ code.code)
    s = 1.0 / (1.0 + np.exp(np.clip(margin, -500, 500)))
    return -label * s * classifier.weights


def supervised_dict_gradient(D, code, x, code_gradient, l2_weight):
    """Gradient of the per-instance supervised loss with respect to the
    dictionary, via the active-set linear system

        phi_A = (D_A' D_A + (l2/2) I)^-1 g_A,  phi outside the active set = 0,
        grad  = -D phi beta' + (x - D beta) phi'.

    `l2_weight` is the ridge weight of the coding objective
    ||x - D beta||^2 + (l2/2)||beta||^2 + l1 term; the stationarity system of
    that objective is (2 D'D + l2 I), which after rescaling gives the halved
    ridge above.
    """
    D = np.asarray(D, dtype=float)
    b = np.asarray(code.code, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    g = np.asarray(code_gradient, dtype=float).ravel()
    n, k = D.shape
    if b.shape[0] != k or g.shape[0] != k or x.shape[0] != n:
        raise InvalidInputError("shape mismatch in supervised_dict_gradient")
    active = np.flatnonzero(np.abs(b) > ACTIVE_SET_TOL)
    if active.size == 0:
        return np.zeros_like(D)
    G = D.T @ D
    system = G[np.ix_(active, active)] + 0.5 * l2_weight * np.eye(active.size)
    try:
        phi_a = np.linalg.solve(system, g[active])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("active-set Gram is singular") from exc
    phi = np.zeros(k)
    phi[active] = phi_a
    resid = x - D @ b
    return -np.outer(D @ phi, b) + np.outer(resid, phi)


class _SupervisedHook:
    """State and callbacks plugged into the shared block-descent loop."""

    def __init__(self, labels, config):
        self.labels = np.asarray(labels, dtype=float).ravel()
        self.config = config
        self.gamma = config.gamma
        self.classifier = LinearClassifier(
            weights=np.zeros(config.base.k), ridge=config.nu)

    def refit(self, codes):
        Z = np.stack([c.code for c in codes])
        w, _ = fit_logistic(Z, self.labels[[c.time for c in codes]],
                            ridge=self.config.nu, intercept=False,
                            init=self.classifier.weights)
        self.classifier = LinearClassifier(weights=w, ridge=self.config.nu)

    def loss(self, codes):
        """Supervised objective: mean deviance plus (nu/2)||omega||^2, the
        same function the classifier refit minimizes in omega."""
        w = self.classifier.weights
        labels = self.labels[[c.time for c in codes]]
        margins = labels * (_code_matrix(codes) @ w)
        return (float(np.mean(np.logaddexp(0.0, -margins)))
                + 0.5 * self.config.nu * float(w @ w))

    def basis_gradient(self, bases, codes, X, Y):
        cfg = self.config.base
        grads = np.zeros_like(bases.bases)
        for c in codes:
            t = c.time
            g_code = supervised_code_gradient(self.classifier, c,
                                              int(self.labels[t]))
            dD = supervised_dict_gradient(Y[t], c, X[t], g_code,
                                          cfg.alpha * cfg.lambda_beta)
            grads += np.einsum("ni,m->inm", dD, X[t])
        return project_symmetric_hollow(grads / len(codes))

    def resolve_and_loss(self, cand_bases, X, times, warm, moments):
        """Supervised loss with codes re-solved at candidate bases for the
        given times (the line-search evaluator for the gamma-mixed
        objective). `moments` holds local_moments(X, kernel)."""
        cfg = self.config.base
        codes = infer_codes(cand_bases, X, cfg.kernel, cfg.lambda_beta,
                            cfg.alpha, times, warm_starts=warm,
                            solver_tol=cfg.solver_tol,
                            solver_max_sweeps=cfg.solver_max_sweeps,
                            moments=moments)
        return self.loss(codes)


def fit_supervised(X, labels, config, init):
    """Task-driven fit. Alternates code inference, classifier refit, and a
    gamma-mixed proximal gradient step on the bases. With gamma=1 the basis
    trajectory matches the unsupervised fit exactly.

    Returns (FitResult, LinearClassifier).
    """
    X = _as_sequence(X)
    labels = np.asarray(labels, dtype=float).ravel()
    if labels.shape[0] != X.shape[0]:
        raise InvalidInputError("labels must cover every training time")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise InvalidInputError("labels must be in {-1, +1}")
    if np.unique(labels).size < 2:
        # the classifier refit would reject it after the first code solves
        raise InvalidInputError("both classes must be present")
    if init.k != config.base.k or init.n != X.shape[1]:
        raise InvalidInputError("init basis set shape does not match config/data")
    hook = _SupervisedHook(labels, config)
    result = _basis._descend(X, config.base, init, supervised=hook)
    return result, hook.classifier
