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
from typing import NamedTuple

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
        if not np.isfinite(self.offset):
            raise InvalidInputError("quadratic problem has non-finite entries")
        _check_stack(G[None], b[None])
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


class StackResult(NamedTuple):
    """Solutions of P problems: coef (P, k), and per problem whether it
    converged and how many sweeps it ran."""

    coef: np.ndarray
    converged: np.ndarray
    n_sweeps: np.ndarray


def soft_threshold(z, thresh):
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def _check_finite(G, b):
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b))):
        raise InvalidInputError("quadratic problem has non-finite entries")


def _check_stack(gram, linear):
    """gram (P, k, k) and linear (P, k) as float arrays, or InvalidInputError
    naming what is wrong with them."""
    G = np.asarray(gram, dtype=float)
    b = np.asarray(linear, dtype=float)
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise InvalidInputError("gram must be a stack of square matrices")
    if b.shape != G.shape[:2]:
        raise InvalidInputError("linear term length must match gram size")
    _check_finite(G, b)
    if G.size:
        scale = np.maximum(1.0, np.abs(G).max(axis=(1, 2)))
        asym = np.abs(G - G.transpose(0, 2, 1)).max(axis=(1, 2))
        if np.any(asym > 1e-12 * scale):
            raise InvalidInputError("gram must be symmetric")
        eigs = np.linalg.eigvalsh(G)
        if np.any(eigs[:, 0] < -1e-10 * np.maximum(eigs[:, -1], 0.0)):
            raise InvalidInputError("gram has a significantly negative eigenvalue")
    return G, b


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


def _coordinate_descent(G, b, config, beta, on_sweep=None):
    """Cyclic coordinate descent on the P problems (G[p], b[p]) at once,
    from beta (P, k), which it overwrites. Each problem visits coordinates
    0..k-1 and stops after the first sweep whose largest coordinate change
    is below config.tol; the problems that stopped are compacted out of the
    working arrays. `on_sweep`, when given, sees the working beta after
    every sweep. Returns the StackResult."""
    P, k = b.shape
    l1 = (1.0 - config.alpha) * config.lam
    l2 = config.alpha * config.lam
    diag = G.diagonal(axis1=1, axis2=2).copy()
    denom = 2.0 * diag + l2
    # a zero-curvature coordinate must threshold to 0, and 0 / 1 keeps it 0
    flat = denom <= 0.0
    denom[flat] = 1.0
    any_flat = bool(flat.any())
    Gbeta = np.einsum("pij,pj->pi", G, beta)

    coef = beta
    converged = np.zeros(P, dtype=bool)
    n_sweeps = np.full(P, config.max_sweeps)
    live = np.arange(P)          # stack index of each working row
    for sweep in range(1, config.max_sweeps + 1):
        if not live.size:
            break
        max_delta = np.zeros(live.size)
        for j in range(k):
            old = beta[:, j]
            partial = 2.0 * (b[:, j] - (Gbeta[:, j] - diag[:, j] * old))
            # soft threshold at l1, written so that a zeroed coordinate is +0
            num = np.maximum(partial - l1, 0.0) + np.minimum(partial + l1, 0.0)
            if any_flat and np.any(num[flat[:, j]] != 0.0):
                raise DegenerateProblemError(
                    f"coordinate {j} has zero curvature and no l2 regularization")
            new = num / denom[:, j]
            delta = new - old
            Gbeta += G[:, :, j] * delta[:, None]
            beta[:, j] = new
            np.maximum(max_delta, np.abs(delta), out=max_delta)
        if on_sweep is not None:
            on_sweep(beta)
        done = max_delta < config.tol
        if done.any():
            stopped = live[done]
            coef[stopped] = beta[done]
            converged[stopped] = True
            n_sweeps[stopped] = sweep
            keep = ~done
            live = live[keep]
            G, b, beta, Gbeta = G[keep], b[keep], beta[keep], Gbeta[keep]
            diag, denom, flat = diag[keep], denom[keep], flat[keep]
    coef[live] = beta
    return StackResult(coef=coef, converged=converged, n_sweeps=n_sweeps)


def _warm_beta(warm_start, shape):
    if warm_start is None:
        return np.zeros(shape)
    beta = np.array(warm_start, dtype=float).reshape(-1)
    if beta.shape[0] != shape[0] * shape[1]:
        raise InvalidInputError("warm_start length must match problem size")
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("warm_start has non-finite entries")
    return beta.reshape(shape)


def _solve_stack(G, b, config, warm_start=None):
    """solve_elastic_net_stack for float arrays G (P, k, k) and b (P, k)
    that the package built itself as Gram matrices, so symmetric and
    positive semidefinite by construction. Only finiteness is checked, which
    catches overflow in building them."""
    _check_finite(G, b)
    return _coordinate_descent(G, b, config, _warm_beta(warm_start, b.shape))


def solve_elastic_net_stack(gram, linear, config, warm_start=None):
    """Minimize J for P problems at once: problem p has Gram gram[p] and
    linear term linear[p] (gram is (P, k, k), linear (P, k)), all under one
    ElasticNetConfig, from the (P, k) warm_start or from zero.

    The stack is checked once, as QuadraticProblem checks one problem. Each
    problem runs the coordinate descent of solve_elastic_net, and its result
    does not depend on the other problems of the stack. Non-convergence is
    flagged per problem, not raised."""
    return _solve_stack(*_check_stack(gram, linear), config, warm_start)


def solve_elastic_net(problem, config, warm_start=None):
    """Cyclic coordinate descent on J. Coordinates are visited in order
    0..k-1; convergence when the max coordinate change within a sweep drops
    below config.tol. Non-convergence is flagged, not raised. The result
    holds J after every sweep in objective_trace."""
    beta = _warm_beta(warm_start, (1, problem.k))
    trace = [objective_value(problem, config, beta[0])]

    def record(b):
        trace.append(objective_value(problem, config, b[0]))

    res = _coordinate_descent(problem.gram[None], problem.linear[None],
                              config, beta, on_sweep=record)
    return ElasticNetResult(coef=res.coef[0], converged=bool(res.converged[0]),
                            n_sweeps=int(res.n_sweeps[0]),
                            objective_trace=trace)
