"""Joint estimation of basis network structures and per-time sparse
combination codes.

The objective being minimized is

    L(A, B) = sum_t sum_{t'} k(t, t') ||x_{t'} - sum_i beta_t^i A^i x_{t'}||^2
              + sum_t [ (alpha*lam_b/2) ||beta_t||^2 + (1-alpha)*lam_b ||beta_t||_1 ]
              + lam_A sum_i ||A^i||_1

over symmetric, zero-diagonal bases A^i and codes beta_t. Codes are solved
exactly per time by elastic-net coordinate descent on pseudo-dictionaries
D_t (column i = A^i x_t); bases take one proximal gradient step per outer
iteration, with gradients symmetrized and diagonal-zeroed so iterates stay in
the feasible subspace, and a backtracking line search on the full objective.

A fit starts from seeded random bases unless it is given an init; the
pipeline's pca stage builds one from keller estimates with init_bases_pca.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .elastic_net import (ElasticNetConfig, QuadraticProblem, soft_threshold,
                          solve_elastic_net_stack)
from .errors import DegenerateInitializationError, InvalidInputError
from .kernels import KernelSpec
# bound here because bench/spans.py wraps them in this namespace
from .elastic_net import solve_elastic_net  # noqa: F401
from .kernels import weight_profile  # noqa: F401
from .moments import as_sequence, local_moments

# moment stacks are multiplied by the bases this many times at once, which
# bounds the (chunk, k, n, n) intermediate of the coding statistics
_CHUNK = 256
# backtracking line search: step shrink factor, Armijo constant c1 and the
# number of trial steps before giving up
LINE_SEARCH_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 30
# init_times picks every (T // this)-th time: fewer than twice this many
MAX_INIT_ESTIMATES = 200


@dataclass
class BasisSet:
    """k symmetric zero-diagonal n x n basis structure matrices, stored as a
    (k, n, n) array."""

    bases: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.bases, dtype=float)
        if B.ndim != 3 or B.shape[1] != B.shape[2]:
            raise InvalidInputError("bases must be a k x n x n array")
        if not np.all(np.isfinite(B)):
            raise InvalidInputError("bases contain non-finite entries")
        scale = max(1.0, np.abs(B).max())
        if np.abs(B - np.transpose(B, (0, 2, 1))).max() > 1e-10 * scale:
            raise InvalidInputError("every basis must be symmetric")
        if np.abs(B[:, np.arange(B.shape[1]), np.arange(B.shape[1])]).max(initial=0.0) != 0.0:
            raise InvalidInputError("every basis must have an exactly zero diagonal")
        self.bases = B

    @property
    def n(self):
        return self.bases.shape[1]

    @property
    def k(self):
        return self.bases.shape[0]


@dataclass
class StructureCode:
    code: np.ndarray
    time: int
    converged: bool = True


@dataclass(frozen=True)
class FitConfig:
    k: int
    lambda_beta: float
    alpha: float
    lambda_A: float
    kernel: KernelSpec
    batch_size: int = 2 ** 31 - 1
    max_outer_iters: int = 100
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.lambda_beta < 0 or self.lambda_A < 0:
            raise InvalidInputError("regularization weights must be nonnegative")
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidInputError("alpha must lie in [0, 1]")
        if self.batch_size < 1 or self.max_outer_iters < 1:
            raise InvalidInputError("batch_size and max_outer_iters must be positive")


@dataclass
class FitResult:
    """`iterations` counts the outer iterations run. The relative-tolerance
    test runs after every full pass over the times, `tol_checks` times in
    all; `converged` says whether it fired."""

    bases: BasisSet
    codes: list
    objective_trace: list
    converged: bool
    iterations: int
    tol_checks: int


def project_symmetric_hollow(M):
    """Project onto the symmetric zero-diagonal subspace: 0.5*(M + M') with
    the diagonal zeroed."""
    S = 0.5 * (M + np.swapaxes(M, -1, -2))
    if S.ndim == 2:
        np.fill_diagonal(S, 0.0)
    else:
        idx = np.arange(S.shape[-1])
        S[..., idx, idx] = 0.0
    return S


def _all_dictionaries(bases, X):
    """(T, n, k) stack of pseudo-dictionaries for every row of X."""
    return np.einsum("kij,tj->tik", bases.bases, X)


def _moments_at(X, kernel, times, moments):
    """S_t at the given times, taken from `moments` (S for every time of X)
    when it is given."""
    return local_moments(X, kernel, times) if moments is None else moments[times]


def _coding_problem(Y, X, t, kernel):
    """QuadraticProblem of the kernel-weighted coding objective at target t,
    built from the dictionary stack Y.

    For each row a, the (k+1)-vectors [D_s[a], x_s[a]] form a sequence over
    s. The sum over a of their local second moments at t holds
    sum_s w D_s'D_s in its top-left block, sum_s w D_s'x_s in its last
    column and sum_s w ||x_s||^2 in its corner.
    """
    k = Y.shape[2]
    rows = np.concatenate([Y, X[:, :, None]], axis=2)
    M = sum(local_moments(rows[:, a], kernel, [t])[0]
            for a in range(rows.shape[1]))
    return QuadraticProblem(gram=M[:k, :k], linear=M[:k, k], offset=M[k, k])


def _coding_statistics(bases, S):
    """Coding problems of a (P, n, n) moment stack: G (P, k, k) with
    G[p, i, j] = tr(A_i S_p A_j), v (P, k) with v[p, i] = tr(A_i S_p) and
    c (P,) with c[p] = tr(S_p)."""
    A = bases.bases
    k, n = A.shape[0], A.shape[1]
    P = S.shape[0]
    A_flat = A.reshape(k, n * n)
    G = np.empty((P, k, k))
    for lo in range(0, P, _CHUNK):
        Sc = S[lo:lo + _CHUNK]
        # AS[i, a, p, c] = (A_i S_p)[a, c], one product for the whole chunk
        AS = (A.reshape(k * n, n) @ Sc.transpose(1, 0, 2).reshape(n, -1))
        AS = AS.reshape(k, n, len(Sc), n).transpose(2, 0, 1, 3)
        # tr(A_i S A_j) = <A_i S, A_j> as A_j is symmetric
        G[lo:lo + _CHUNK] = AS.reshape(len(Sc), k, n * n) @ A_flat.T
    G = 0.5 * (G + G.transpose(0, 2, 1))
    v = S.reshape(P, n * n) @ A_flat.T
    c = np.trace(S, axis1=1, axis2=2)
    return G, v, c


def infer_codes(bases, X, kernel, lambda_beta, alpha, times,
                warm_starts=None, moments=None):
    """Solve the per-time elastic-net coding problems for the given target
    times, each over its full truncated kernel window.

    `moments` may hold local_moments(X, kernel) for every time of X; they
    are computed for the target times when it is None. All targets are
    solved as one stack.
    """
    X = as_sequence(X)
    times = [int(t) for t in times]
    G, v, _ = _coding_statistics(bases, _moments_at(X, kernel, times, moments))
    config = ElasticNetConfig(lam=lambda_beta, alpha=alpha)
    res = solve_elastic_net_stack(G, v, config, warm_start=warm_starts)
    return [StructureCode(code=res.coef[idx], time=t,
                          converged=bool(res.converged[idx]))
            for idx, t in enumerate(times)]


class _CodeStatistics:
    """Data-fit statistics of fixed codes b_t with moments S_t (the
    accumulated statistics of online dictionary learning, Mairal et al.
    2010): total = sum_t tr S_t, R_i = sum_t b_t^i S_t and
    Q_il = sum_t b_t^i b_t^l S_t. The data fit at any bases A is then

        total - 2 sum_i <A_i, R_i> + sum_i <A_i, M_i>,  M_i = sum_l A_l Q_li,

    and its gradient in A_i is -2 (R_i - M_i), so neither grows with T.
    """

    def __init__(self, S, B):
        P, n = S.shape[0], S.shape[1]
        k = B.shape[1]
        S_flat = S.reshape(P, n * n)
        self.total = float(np.trace(S, axis1=1, axis2=2).sum())
        self.R = (B.T @ S_flat).reshape(k, n, n)
        BB = (B[:, :, None] * B[:, None, :]).reshape(P, k * k)
        self.Q = (BB.T @ S_flat).reshape(k, k, n, n)

    def _M(self, A):
        return np.matmul(A[:, None], self.Q).sum(axis=0)

    def data_fit(self, A):
        return float(self.total - 2.0 * np.sum(A * self.R)
                     + np.sum(A * self._M(A)))

    def gradient(self, A):
        return project_symmetric_hollow(-2.0 * (self.R - self._M(A)))


def _code_matrix(codes):
    return np.stack([c.code for c in codes])


def _code_penalty(B, lambda_beta, alpha):
    """Elastic-net penalty summed over the rows of the code matrix B."""
    return (0.5 * alpha * lambda_beta * float(np.sum(B * B))
            + (1.0 - alpha) * lambda_beta * float(np.sum(np.abs(B))))


def _basis_penalty(A, lambda_A):
    return lambda_A * float(np.sum(np.abs(A)))


def _statistics(codes, X, kernel, moments):
    S = _moments_at(X, kernel, [c.time for c in codes], moments)
    return _CodeStatistics(S, _code_matrix(codes))


def objective_components(bases, codes, X, config):
    """(data_fit, code_penalty, basis_penalty) of the joint objective."""
    X = as_sequence(X)
    stats = _statistics(codes, X, config.kernel, None)
    return (stats.data_fit(bases.bases),
            _code_penalty(_code_matrix(codes), config.lambda_beta,
                          config.alpha),
            _basis_penalty(bases.bases, config.lambda_A))


def objective(bases, codes, X, config):
    """Scalar value of the joint objective."""
    return sum(objective_components(bases, codes, X, config))


def unsupervised_basis_gradient(bases, codes, X, kernel, moments=None):
    """Exact gradient of the data-fit term with respect to each basis,
    restricted to the symmetric zero-diagonal subspace.

    `moments` may hold local_moments(X, kernel) for every time of X.
    """
    X = as_sequence(X)
    return _statistics(codes, X, kernel, moments).gradient(bases.bases)


def proximal_l1_step(basis, gradient, step, lambda_A):
    """Gradient step followed by off-diagonal soft-thresholding; diagonal
    stays exactly zero and symmetry is preserved."""
    if not step > 0:
        raise InvalidInputError("step must be positive")
    Z = np.asarray(basis, dtype=float) - step * np.asarray(gradient, dtype=float)
    out = soft_threshold(Z, step * lambda_A)
    np.fill_diagonal(out, 0.0)
    return out


def line_search(current_objective, candidate_evaluator, gradient_norm_sq,
                initial_step):
    """Backtracking line search from `initial_step` with the Armijo
    sufficient-decrease test f(step) <= current - c1 * step * ||grad||^2,
    c1 = SUFFICIENT_DECREASE. Each rejected step is multiplied by
    LINE_SEARCH_SHRINK, for at most MAX_BACKTRACKS trials.

    Returns (step, accepted); (0.0, False) when no trial step qualifies.
    """
    if gradient_norm_sq < 0:
        raise InvalidInputError("gradient_norm_sq must be nonnegative")
    step = initial_step
    for _ in range(MAX_BACKTRACKS):
        value = candidate_evaluator(step)
        if value <= current_objective - SUFFICIENT_DECREASE * step * gradient_norm_sq:
            return step, True
        step *= LINE_SEARCH_SHRINK
    return 0.0, False


def _vec_upper(M):
    n = M.shape[-1]
    iu = np.triu_indices(n, 1)
    return M[..., iu[0], iu[1]]


def _from_upper(v, n):
    iu = np.triu_indices(n, 1)
    A = np.zeros((n, n))
    A[iu] = v
    return A + A.T


def _fix_sign(A):
    flat = np.abs(A).argmax()
    if A.flat[flat] < 0:
        return -A
    return A


def random_hollow_bases(n, k, seed):
    """Seeded random symmetric zero-diagonal matrices with unit Frobenius
    norm."""
    rng = np.random.default_rng(seed)
    out = np.empty((k, n, n))
    for i in range(k):
        A = project_symmetric_hollow(rng.standard_normal((n, n)))
        out[i] = _fix_sign(A / np.linalg.norm(A))
    return BasisSet(bases=out)


def init_times(T):
    """Times, out of T, whose estimates feed `init_bases_pca`."""
    return range(0, T, max(1, T // MAX_INIT_ESTIMATES))


def init_bases_pca(estimates, k, seed=0):
    """Principal structures of a sequence of network estimates.

    Estimates are symmetrized, their strict upper triangles stacked, and the
    top-k right singular vectors (plain uncentered SVD) reshaped back into
    symmetric zero-diagonal bases with unit off-diagonal Frobenius norm. The
    sign of each basis is fixed so its largest-magnitude entry is positive.
    """
    if len(estimates) == 0 or k < 1:
        raise InvalidInputError("need at least one estimate and k >= 1")
    mats = [0.5 * (np.asarray(e.coefficients, dtype=float)
                   + np.asarray(e.coefficients, dtype=float).T) for e in estimates]
    n = mats[0].shape[0]
    S = np.stack([_vec_upper(M) for M in mats])
    if np.abs(S).max(initial=0.0) == 0.0:
        raise DegenerateInitializationError("all estimates are zero")
    U, s, Vt = np.linalg.svd(S, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12))
    out = np.empty((k, n, n))
    for i in range(min(k, rank)):
        A = _from_upper(Vt[i], n)
        out[i] = _fix_sign(A / np.linalg.norm(A))
    if k > rank:
        warnings.warn(f"requested {k} bases but estimates have rank {rank}; "
                      "filling the remainder with seeded random structures")
        filler = random_hollow_bases(n, k - rank, seed).bases
        out[rank:] = filler
    return BasisSet(bases=out)


def _descend(X, config, init_bases, supervised=None):
    """Shared block-coordinate loop for the unsupervised and supervised fits.

    The local moments of X are computed once. Each iteration builds one set
    of code statistics over all T codes and scores the current bases, every
    line-search trial and the accepted step with it, so the Armijo test
    compares one function on both sides.

    With supervised=None (or gamma == 1) the supervised terms are skipped
    entirely, so a gamma=1 supervised run reproduces the unsupervised run
    bit for bit.
    """
    if init_bases.k != config.k or init_bases.n != X.shape[1]:
        raise InvalidInputError("init basis set shape does not match config/data")
    T = X.shape[0]
    S = local_moments(X, config.kernel)
    rng = np.random.default_rng(config.seed)
    bases = BasisSet(bases=init_bases.bases.copy())

    pure_unsup = supervised is None or supervised.gamma >= 1.0
    gamma = 1.0 if pure_unsup else supervised.gamma

    def solve(bases, times, warm=None):
        return infer_codes(bases, X, config.kernel, config.lambda_beta,
                           config.alpha, times, warm_starts=warm, moments=S)

    def fixed_codes_objective(codes):
        """The unsupervised objective as a function of the bases, with the
        codes held fixed."""
        B = _code_matrix(codes)
        stats = _CodeStatistics(S, B)
        code_pen = _code_penalty(B, config.lambda_beta, config.alpha)
        return lambda A: (stats.data_fit(A) + code_pen
                          + _basis_penalty(A, config.lambda_A))

    def full_objective(f, codes, A):
        val = gamma * f(A)
        if not pure_unsup:
            val += (1.0 - gamma) * supervised.loss(codes)
        return val

    # codes for every time so the full objective is always evaluable;
    # non-batch codes are refreshed lazily (batch targets only per iteration)
    codes = solve(bases, range(T))
    if supervised is not None:
        supervised.refit(codes)

    batch = min(config.batch_size, T)
    iters_per_pass = max(1, int(np.ceil(T / batch)))
    trace = [full_objective(fixed_codes_objective(codes), codes, bases.bases)]
    converged = False
    tol_checks = 0
    prev_step = None
    pass_start_obj = trace[0]

    for it in range(config.max_outer_iters):
        if batch >= T:
            targets = np.arange(T)
        else:
            targets = np.sort(rng.choice(T, size=batch, replace=False))
        for c in solve(bases, targets, [codes[t].code for t in targets]):
            codes[c.time] = c
        if supervised is not None:
            supervised.refit(codes)
        batch_codes = [codes[t] for t in targets]

        grad = unsupervised_basis_gradient(bases, batch_codes, X,
                                           config.kernel, moments=S)
        if not pure_unsup:
            Y = _all_dictionaries(bases, X)
            sup_grad = supervised.basis_gradient(bases, batch_codes, X, Y)
            grad = project_symmetric_hollow(gamma * grad + (1.0 - gamma) * sup_grad)
        gns = float(np.sum(grad * grad))

        f = fixed_codes_objective(codes)
        current = full_objective(f, codes, bases.bases)

        def candidate(step):
            return np.stack([proximal_l1_step(bases.bases[i], grad[i], step,
                                              config.lambda_A)
                             for i in range(config.k)])

        def evaluate(step):
            cand = candidate(step)
            val = gamma * f(cand)
            if not pure_unsup:
                val += (1.0 - gamma) * supervised.resolve_and_loss(
                    BasisSet(bases=cand), X, targets,
                    [c.code for c in batch_codes], S)
            return val

        if prev_step is None:
            s0 = 1.0 / max(np.sqrt(gns), 1e-12)
        else:
            s0 = 2.0 * prev_step
        step, accepted = line_search(current, evaluate, gns, initial_step=s0)
        if accepted:
            prev_step = step
            bases = BasisSet(bases=candidate(step))
            trace.append(full_objective(f, codes, bases.bases))

        if (it + 1) % iters_per_pass == 0:
            # a pass without an accepted step leaves the trace unchanged, so
            # this test also ends a fit that has stalled
            tol_checks += 1
            cur = trace[-1]
            denom = max(1.0, abs(pass_start_obj))
            if abs(pass_start_obj - cur) <= config.rel_tol * denom:
                converged = True
                break
            pass_start_obj = cur

    # canonical sign: jointly flipping a basis and its code trajectory leaves
    # the objective unchanged, so fix each basis sign by requiring the code
    # component sum over time to be nonnegative
    flip = np.where(_code_matrix(codes).sum(axis=0) < 0.0, -1.0, 1.0)
    bases = BasisSet(bases=bases.bases * flip[:, None, None])

    # full refresh at exit so every stored code is optimal for the final bases
    codes = solve(bases, range(T), [c.code * flip for c in codes])
    if supervised is not None:
        supervised.refit(codes)
    trace.append(full_objective(fixed_codes_objective(codes), codes,
                                bases.bases))
    return FitResult(bases=bases, codes=codes, objective_trace=trace,
                     converged=converged, iterations=it + 1,
                     tol_checks=tol_checks)


def fit(X, config, init=None):
    """Block coordinate descent on the joint objective: exact elastic-net
    code refresh for the batch targets, then one proximal gradient step on
    all bases with line search. Starts from `init`, or from
    random_hollow_bases(n, k, config.seed) when it is None."""
    X = as_sequence(X)
    if init is None:
        init = random_hollow_bases(X.shape[1], config.k, config.seed)
    return _descend(X, config, init, supervised=None)
