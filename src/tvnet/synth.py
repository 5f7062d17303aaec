"""Synthetic experiment data: sparse covariance bases, smooth simplex
trajectories, Gaussian sampling, the two-vs-two label rule, and the
standardization preprocessing step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

MIN_EIGENVALUE = 0.01
# pre-softmax gain applied to the unit-variance smoothed signals; 2.0 gives
# pronounced regimes while keeping the documented 4/smoothness step bound
TRAJECTORY_GAIN = 2.0


@dataclass
class GroundTruth:
    """Generating covariance bases, their precisions, the per-time simplex
    weights, and the labels."""

    cov_bases: list
    precision_bases: list
    trajectories: np.ndarray
    labels: np.ndarray
    seed: int


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def random_orthogonal(n, seed):
    """Seeded random orthogonal matrix, rotation-invariantly distributed.

    QR of a Gaussian matrix with the R diagonal sign fixed positive, which
    makes the result Haar-distributed and deterministic per seed.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def random_sparse_covariance(n, seed):
    """Sparse SPD covariance: random spectrum in (0,1), the two thirds of
    off-diagonal pairs with smallest magnitude symmetrically zeroed, diagonal
    uniformly rescaled by the smallest factor c >= 1 giving a minimum
    eigenvalue of at least 0.01."""
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    s_frame, s_spec = np.random.SeedSequence(seed).generate_state(2)
    Q = random_orthogonal(n, int(s_frame))
    d = np.random.default_rng(int(s_spec)).uniform(0.0, 1.0, size=n)
    S = Q @ np.diag(d) @ Q.T
    S = 0.5 * (S + S.T)

    iu = np.triu_indices(n, 1)
    n_pairs = len(iu[0])
    n_zero = _round_half_up(2.0 * n_pairs / 3.0)
    order = np.argsort(np.abs(S[iu]), kind="stable")
    kill = order[:n_zero]
    S[iu[0][kill], iu[1][kill]] = 0.0
    S[iu[1][kill], iu[0][kill]] = 0.0

    diag = np.diag(S).copy()

    def min_eig(c):
        M = S.copy()
        np.fill_diagonal(M, c * diag)
        return np.linalg.eigvalsh(M)[0]

    if min_eig(1.0) >= MIN_EIGENVALUE:
        c = 1.0
    else:
        lo, hi = 1.0, 2.0
        while min_eig(hi) < MIN_EIGENVALUE:
            hi *= 2.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if min_eig(mid) >= MIN_EIGENVALUE:
                hi = mid
            else:
                lo = mid
        c = hi
    np.fill_diagonal(S, c * diag)
    return S


def smooth_simplex_trajectories(T, k_true, smoothness, seed):
    """T x k_true simplex rows: seeded white noise smoothed by a gaussian
    window of width `smoothness`, scaled to unit variance and gain 2, then a
    per-step softmax. The construction bounds the per-step sup-norm change
    by 4/smoothness."""
    if T < 1 or k_true < 2:
        raise InvalidInputError("need T >= 1 and k_true >= 2")
    if not smoothness > 0:
        raise InvalidInputError("smoothness must be positive")
    rng = np.random.default_rng(seed)
    half = int(np.ceil(3.0 * smoothness))
    offsets = np.arange(-half, half + 1)
    g = np.exp(-(offsets ** 2) / (2.0 * smoothness ** 2))
    g /= g.sum()
    scale = TRAJECTORY_GAIN / np.sqrt(np.sum(g ** 2))
    noise = rng.standard_normal((k_true, T + 2 * half))
    signals = np.stack([np.convolve(noise[i], g, mode="valid") for i in range(k_true)])
    signals *= scale
    z = signals - signals.max(axis=0)
    e = np.exp(z)
    return (e / e.sum(axis=0)).T


def make_labels(trajectories):
    """+1 when the first two simplex weights dominate (alpha1 + alpha2 >=
    alpha3 + alpha4), else -1."""
    A = np.asarray(trajectories, dtype=float)
    if A.ndim != 2 or A.shape[1] != 4:
        raise InvalidInputError("label rule requires exactly 4 trajectory columns")
    return np.where(A[:, 0] + A[:, 1] >= A[:, 2] + A[:, 3], 1.0, -1.0)


def make_ground_truth(n, T, smoothness, seed, k_true=4):
    """Full generating model for one sequence, deterministic per seed."""
    ss = np.random.SeedSequence(seed)
    child = ss.generate_state(k_true + 1)
    covs = [random_sparse_covariance(n, int(child[i])) for i in range(k_true)]
    precs = [np.linalg.inv(C) for C in covs]
    traj = smooth_simplex_trajectories(T, k_true, smoothness, int(child[k_true]))
    labels = make_labels(traj) if k_true == 4 else np.ones(T)
    return GroundTruth(cov_bases=covs, precision_bases=precs,
                       trajectories=traj, labels=labels, seed=seed)


def generate_sequence(truth):
    """Draw x_t ~ N(0, sum_i alpha_t^i Sigma^i) via per-time Cholesky
    factors; deterministic given truth.seed."""
    traj = np.asarray(truth.trajectories, dtype=float)
    T = traj.shape[0]
    if T == 0:
        return np.zeros((0, len(truth.cov_bases[0]) if truth.cov_bases else 0))
    covs = np.stack(truth.cov_bases)
    sigmas = np.einsum("tk,kij->tij", traj, covs)
    L = np.linalg.cholesky(sigmas)
    rng = np.random.default_rng(np.random.SeedSequence(truth.seed).spawn(1)[0])
    z = rng.standard_normal((T, covs.shape[1]))
    return np.einsum("tij,tj->ti", L, z)


def standardize(X):
    """Column mean subtraction only; no variance scaling."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 1:
        raise InvalidInputError("X must have at least one row")
    return X - X.mean(axis=0)
