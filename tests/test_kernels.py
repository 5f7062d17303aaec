from dataclasses import replace

import numpy as np
import pytest

from tvnet.errors import DegenerateWindowError, InvalidInputError
from tvnet.kernels import FAMILIES, KernelSpec, weight_profile


def weight(t, t_prime, spec):
    """Unnormalized kernel weight of the single pair (t, t')."""
    return float(weight_profile(t, [t_prime], replace(spec, normalize=False))[0])


class TestWeight:
    def test_gaussian_zero_distance(self):
        spec = KernelSpec(bandwidth=3.0, normalize=False)
        assert weight(5, 5, spec) == 1.0

    def test_boxcar_outside_support(self):
        spec = KernelSpec(bandwidth=4.0, family="boxcar")
        assert weight(0, 5, spec) == 0.0

    def test_gaussian_at_one_bandwidth(self):
        spec = KernelSpec(bandwidth=7.0)
        assert weight(0, 7, spec) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_epanechnikov_formula(self):
        spec = KernelSpec(bandwidth=2.0, family="epanechnikov")
        assert weight(0, 1, spec) == pytest.approx(0.75)
        assert weight(0, 3, spec) == 0.0

    def test_symmetry_and_monotonicity(self):
        for family in FAMILIES:
            spec = KernelSpec(bandwidth=3.5, family=family)
            dists = np.arange(0, 12)
            vals = [weight(0, d, spec) for d in dists]
            assert all(weight(t, 0, spec) == weight(0, t, spec) for t in dists)
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(v >= 0 for v in vals)

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(InvalidInputError):
            KernelSpec(bandwidth=1.0, truncation=-1.0)
        with pytest.raises(InvalidInputError):
            KernelSpec(bandwidth=1.0, family="triangle")


class TestWeightProfile:
    def test_single_index_normalizes_to_one(self):
        for family in FAMILIES:
            spec = KernelSpec(bandwidth=2.0, family=family, normalize=True)
            assert weight_profile(3, [3], spec) == pytest.approx([1.0])

    def test_symmetric_window_is_palindromic(self):
        spec = KernelSpec(bandwidth=2.0, normalize=True)
        w = weight_profile(5, np.arange(1, 10), spec)
        assert np.allclose(w, w[::-1])

    def test_matches_direct_recomputation(self):
        spec = KernelSpec(bandwidth=2.0, normalize=True)
        idx = np.arange(3, 8)
        w = weight_profile(5, idx, spec)
        raw = np.exp(-((idx - 5.0) ** 2) / (2 * 2.0 ** 2))
        raw[np.abs(idx - 5.0) > spec.truncation * 2.0] = 0.0
        assert np.abs(w - raw / raw.sum()).max() < 1e-12

    def test_normalized_profile_sums_to_one(self):
        for family in FAMILIES:
            spec = KernelSpec(bandwidth=3.0, family=family, normalize=True)
            w = weight_profile(10, np.arange(30), spec)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)

    def test_truncation_zeroes_far_weights(self):
        spec = KernelSpec(bandwidth=1.0, truncation=2.0, normalize=False)
        w = weight_profile(0, np.arange(10), spec)
        assert np.all(w[3:] == 0.0)

    def test_degenerate_window_raises(self):
        spec = KernelSpec(bandwidth=1.0, truncation=1.0, normalize=True)
        with pytest.raises(DegenerateWindowError):
            weight_profile(0, [10, 11, 12], spec)

    def test_empty_indices_rejected(self):
        spec = KernelSpec(bandwidth=1.0)
        with pytest.raises(InvalidInputError):
            weight_profile(0, [], spec)

    def test_roundtrip_serialization(self):
        spec = KernelSpec(bandwidth=2.5, family="boxcar", truncation=1.5,
                          normalize=False)
        assert KernelSpec.from_dict(spec.to_dict()) == spec
