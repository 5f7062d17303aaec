"""Weighted elastic-net / lasso solver via cyclic coordinate descent on
quadratic sufficient statistics.

The solver minimizes

    J(beta) = beta' G beta - 2 b' beta + c
              + (alpha * lam / 2) ||beta||_2^2 + (1 - alpha) * lam ||beta||_1

Note the convention: ``alpha`` is the share of the *l2* term and ``1 - alpha``
the share of the l1 term (the reverse of scikit-learn's l1_ratio). This keeps
the l2 weight equal to ``alpha * lam`` everywhere, which the supervised
active-set gradient relies on.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProblemError, InvalidInputError


@dataclass(frozen=True)
class QuadraticProblem:
    """Sufficient statistics of a weighted least-squares data-fit term.

    The data-fit equals beta' gram beta - 2 linear' beta + offset.
    """

    gram: np.ndarray
    linear: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        b = np.asarray(self.linear, dtype=float).ravel()
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise InvalidInputError("gram must be a square matrix")
        if b.shape[0] != G.shape[0]:
            raise InvalidInputError("linear term length must match gram size")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b)) and np.isfinite(self.offset)):
            raise InvalidInputError("quadratic problem has non-finite entries")
        scale = max(1.0, np.abs(G).max())
        if np.abs(G - G.T).max() > 1e-12 * scale:
            raise InvalidInputError("gram must be symmetric")
        eigs = np.linalg.eigvalsh(G)
        if eigs.size and eigs[0] < -1e-10 * max(eigs[-1], 0.0):
            raise InvalidInputError("gram has a significantly negative eigenvalue")
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def k(self):
        return self.gram.shape[0]


@dataclass(frozen=True)
class ElasticNetConfig:
    """lam >= 0 total regularization; alpha in [0,1] is the l2 share."""

    lam: float = 0.0
    alpha: float = 0.0
    tol: float = 1e-8
    max_sweeps: int = 10000

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidInputError("alpha must lie in [0, 1]")
        if self.lam < 0:
            raise InvalidInputError("lam must be nonnegative")
        if not self.tol > 0:
            raise InvalidInputError("tol must be positive")
        if self.max_sweeps < 1:
            raise InvalidInputError("max_sweeps must be a positive integer")


@dataclass
class ElasticNetResult:
    coef: np.ndarray
    converged: bool
    n_sweeps: int
    objective_trace: list = field(default_factory=list)


def soft_threshold(z, thresh):
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def objective_value(problem, config, beta):
    """Full elastic-net objective J at beta (data-fit offset included)."""
    beta = np.asarray(beta, dtype=float)
    quad = beta @ problem.gram @ beta - 2.0 * problem.linear @ beta + problem.offset
    l2 = 0.5 * config.alpha * config.lam * beta @ beta
    l1 = (1.0 - config.alpha) * config.lam * np.abs(beta).sum()
    return quad + l2 + l1


def kkt_residuals(problem, config, beta):
    """Per-coordinate subdifferential optimality residuals of J at beta."""
    beta = np.asarray(beta, dtype=float)
    g = 2.0 * problem.gram @ beta - 2.0 * problem.linear + config.alpha * config.lam * beta
    l1 = (1.0 - config.alpha) * config.lam
    res = np.empty_like(beta)
    active = beta != 0.0
    res[active] = np.abs(g[active] + l1 * np.sign(beta[active]))
    res[~active] = np.maximum(0.0, np.abs(g[~active]) - l1)
    return res


def solve_elastic_net(problem, config, warm_start=None):
    """Cyclic coordinate descent on J. Coordinates are visited in order
    0..k-1; convergence when the max coordinate change within a sweep drops
    below config.tol. Non-convergence is flagged, not raised."""
    k = problem.k
    G = problem.gram
    b = problem.linear
    if warm_start is None:
        beta = np.zeros(k)
    else:
        beta = np.array(warm_start, dtype=float).ravel()
        if beta.shape[0] != k:
            raise InvalidInputError("warm_start length must match problem size")
        if not np.all(np.isfinite(beta)):
            raise InvalidInputError("warm_start has non-finite entries")

    l1 = (1.0 - config.alpha) * config.lam
    l2 = config.alpha * config.lam
    denom = 2.0 * np.diag(G) + l2

    Gbeta = G @ beta
    trace = [objective_value(problem, config, beta)]
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
                        f"coordinate {j} has zero curvature and no l2 regularization"
                    )
            else:
                new = num / denom[j]
            delta = new - beta[j]
            if delta != 0.0:
                Gbeta += G[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        trace.append(objective_value(problem, config, beta))
        if max_delta < config.tol:
            converged = True
            break
    return ElasticNetResult(coef=beta, converged=converged, n_sweeps=sweeps,
                            objective_trace=trace)
