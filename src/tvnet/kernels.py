"""Temporal proximity kernels k(t, t') for locally weighted estimation."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindowError, InvalidInputError

FAMILIES = ("gaussian", "boxcar", "epanechnikov")


@dataclass(frozen=True)
class KernelSpec:
    """Temporal weighting kernel.

    bandwidth   h, in time-index units
    family      one of 'gaussian', 'boxcar', 'epanechnikov'
    truncation  r: weights for |t - t'| > r*h are forced to zero
    normalize   whether profiles over an index set are scaled to sum to 1
    """

    bandwidth: float
    family: str = "gaussian"
    truncation: float = 3.0
    normalize: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown kernel family {self.family!r}")
        if not (self.bandwidth > 0 and np.isfinite(self.bandwidth)):
            raise InvalidInputError("bandwidth must be a positive finite scalar")
        if not (self.truncation > 0 and np.isfinite(self.truncation)):
            raise InvalidInputError("truncation must be a positive finite scalar")
        if not isinstance(self.normalize, (bool, np.bool_)):
            raise InvalidInputError("normalize must be true or false")

    def to_dict(self):
        return {
            "family": self.family,
            "bandwidth": self.bandwidth,
            "truncation": self.truncation,
            "normalize": self.normalize,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            bandwidth=d["bandwidth"],
            family=d["family"],
            truncation=d["truncation"],
            normalize=d["normalize"],
        )


def _raw_weight(dist, spec):
    # dist may be a scalar or an array of |t - t'| values
    d = np.abs(np.asarray(dist, dtype=float))
    h = spec.bandwidth
    if spec.family == "gaussian":
        return np.exp(-(d ** 2) / (2.0 * h ** 2))
    if spec.family == "boxcar":
        return (d <= h).astype(float)
    return np.maximum(0.0, 1.0 - (d / h) ** 2)


def weight_profile(t, indices, spec):
    """Weights of `indices` relative to target t, truncated and optionally
    normalized to sum to 1."""
    idx = np.asarray(indices, dtype=float)
    if idx.size == 0:
        raise InvalidInputError("indices must be non-empty")
    d = np.abs(idx - t)
    w = _raw_weight(d, spec)
    w[d > spec.truncation * spec.bandwidth] = 0.0
    if spec.normalize:
        total = w.sum()
        if total <= 0.0:
            raise DegenerateWindowError(
                f"all kernel weights vanish for target {t} after truncation"
            )
        w = w / total
    return w
