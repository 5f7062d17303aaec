"""Local second moments S_t = sum_s w(t, s) x_s x_s' of a sequence.

This module owns the kernel window rule. Target t sees the times
[t - floor(r), t + floor(r)] that lie in [0, T), with r = truncation *
bandwidth and the kernel's weights; a normalized kernel divides them by
their in-range sum. Every kernel-weighted quantity of the package depends on
the data only through S_t, and S_t does not depend on the bases:

- the coding problem at t: G_t[i, j] = tr(A_i S_t A_j), v_t[i] = tr(A_i S_t),
  c_t = tr(S_t);
- the data fit of a code b at t: tr((I - A(b)) S_t (I - A(b)));
- keller's kernel-weighted Gram at t, which is S_t itself.

The moments of a whole sequence take T n^2 floats: 4 MB at n=10, T=5000.
At n=100, T=5000 they would take 400 MB.
"""

from dataclasses import replace

import numpy as np

from .kernels import weight_profile


def _lag_weights(spec):
    """Offsets d = -floor(r)..floor(r) and their unnormalized kernel
    weights; weights with |d| > r are zero."""
    radius = int(np.floor(spec.truncation * spec.bandwidth))
    lags = np.arange(-radius, radius + 1)
    return lags, weight_profile(0, lags, replace(spec, normalize=False))


def local_moments(X, spec, times=None):
    """(len(times), n, n) stack of S_t for the given times of X (T x n),
    all of 0..T-1 by default.

    The sum runs over lags, so no array larger than the span of the needed
    windows times n^2 is built.
    """
    X = np.asarray(X, dtype=float)
    T, n = X.shape
    times = np.arange(T) if times is None else np.asarray(times, dtype=int)
    if times.size == 0:
        return np.zeros((0, n, n))
    lags, weights = _lag_weights(spec)
    first, last = int(times.min()), int(times.max()) + 1
    # outer products of the rows any needed window touches
    lo = max(0, first + int(lags[0]))
    hi = min(T, last + int(lags[-1]))
    rows = X[lo:hi]
    outer = rows[:, :, None] * rows[:, None, :]
    S = np.zeros((last - first, n, n))
    Z = np.zeros(last - first)
    for d, w in zip(lags.tolist(), weights.tolist()):
        # targets t in [first, last) whose neighbour t + d lies in [0, T)
        a, b = max(first, -d), min(last, T - d)
        if w == 0.0 or a >= b:
            continue
        S[a - first:b - first] += w * outer[a + d - lo:b + d - lo]
        Z[a - first:b - first] += w
    if spec.normalize:
        S /= Z[:, None, None]
    return S[times - first]
