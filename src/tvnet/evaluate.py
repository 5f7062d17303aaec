"""Evaluation: matrix-correlation similarity against the generating
precisions, PCA-projection features, classification error, and evidence
accumulation over a window.
"""

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, _vec_upper
from .errors import DegenerateNormalizationError, InvalidInputError
from .logistic import fit_logistic  # noqa: F401 (bench/spans.py wraps it here)


@dataclass
class MatchRecord:
    true_index: int
    learned_index: int
    score: float


@dataclass
class SimilarityReport:
    per_true_basis: list
    mean_score: float


def _normalized_offdiag(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("matrix must be square")
    n = M.shape[0]
    mask = ~np.eye(n, dtype=bool)
    v = M[mask].astype(float)
    v = v - v.mean()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DegenerateNormalizationError("matrix has a constant off-diagonal pattern")
    return v / norm


def matrix_correlation(M1, M2):
    """Dot product of the two matrices after zeroing diagonals, shifting
    off-diagonal entries to zero mean, and scaling to unit norm. Lies in
    [-1, 1] and is invariant to positive affine rescaling of either input."""
    return float(np.clip(_normalized_offdiag(M1) @ _normalized_offdiag(M2), -1.0, 1.0))


def best_match_score(learned, true_precisions):
    """For each true precision independently, the learned basis with the
    largest |matrix_correlation| (matching with replacement). mean_score
    averages the magnitudes."""
    if learned.k < 1:
        raise InvalidInputError("learned basis set must be non-empty")
    records = []
    for ti, P in enumerate(true_precisions):
        best_j, best_score = 0, 0.0
        best_abs = -1.0
        for j in range(learned.k):
            score = matrix_correlation(learned.bases[j], P)
            if abs(score) > best_abs:
                best_abs = abs(score)
                best_j, best_score = j, score
        records.append(MatchRecord(true_index=ti, learned_index=best_j,
                                   score=best_score))
    mean_score = float(np.mean([abs(r.score) for r in records]))
    return SimilarityReport(per_true_basis=records, mean_score=mean_score)


def as_projection_basis(bases):
    """Rescale each basis to unit norm in vectorized-upper-triangle form so
    the set is usable with pca_projection_features."""
    out = np.empty_like(bases.bases)
    for i in range(bases.k):
        v = _vec_upper(bases.bases[i])
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise InvalidInputError("cannot normalize an all-zero basis")
        out[i] = bases.bases[i] / norm
    return BasisSet(bases=out)


def pca_projection_features(estimate, principal):
    """Coefficients of the symmetrized estimate against an orthonormal (in
    vec-upper form) set of principal structures."""
    V = _vec_upper(principal.bases)        # (k, p)
    gram = V @ V.T
    if np.abs(gram - np.eye(principal.k)).max() > 1e-8:
        raise InvalidInputError("principal bases must be orthonormal in "
                                "vectorized upper-triangle form")
    A = np.asarray(estimate.coefficients, dtype=float)
    u = _vec_upper(0.5 * (A + A.T))
    return V @ u


def classification_error(weights, features, labels, intercept=0.0):
    """Fraction of sign mismatches; sign(0) counts as +1."""
    Z = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if Z.shape[0] != y.shape[0] or Z.shape[1] != w.shape[0]:
        raise InvalidInputError("feature/label/weight shapes are inconsistent")
    scores = Z @ w + intercept
    pred = np.where(scores >= 0.0, 1.0, -1.0)
    return float(np.mean(pred != y))


def accumulate_evidence(scores, window):
    """Sum per-time classifier outputs over `window` (an index range);
    decision is the sign of the total with sign(0) = +1, and the trace is
    the running cumulative sum."""
    s = np.asarray(scores, dtype=float).ravel()
    idx = np.asarray(list(window), dtype=int)
    if idx.size == 0:
        raise InvalidInputError("window must be non-empty")
    if idx.min() < 0 or idx.max() >= s.shape[0]:
        raise InvalidInputError("window indices out of range")
    vals = s[idx]
    trace = np.cumsum(vals)
    decision = 1 if trace[-1] >= 0.0 else -1
    return decision, trace
