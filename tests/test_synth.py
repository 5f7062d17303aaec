import numpy as np
import pytest

from tvnet.errors import InvalidInputError
from tvnet.synth import (GroundTruth, generate_sequence, make_ground_truth,
                         make_labels, random_orthogonal,
                         random_sparse_covariance,
                         smooth_simplex_trajectories, standardize)


def expected_zero_pairs(n):
    n_pairs = n * (n - 1) // 2
    return int(np.floor(2.0 * n_pairs / 3.0 + 0.5))


class TestRandomSparseCovariance:
    def test_symmetric_and_sparse(self):
        for n in (4, 7, 10):
            for seed in range(5):
                S = random_sparse_covariance(n, seed)
                assert np.array_equal(S, S.T)
                iu = np.triu_indices(n, 1)
                assert int(np.sum(S[iu] == 0.0)) == expected_zero_pairs(n)

    def test_minimum_eigenvalue_floor(self):
        for seed in range(10):
            S = random_sparse_covariance(8, seed)
            assert np.linalg.eigvalsh(S)[0] >= 0.01 - 1e-9

    def test_diagonal_multiplier_is_minimal(self):
        # shrinking the diagonal back by a tiny factor must break the floor
        # whenever a rescale was applied at all
        for seed in range(20):
            S = random_sparse_covariance(6, seed)
            M = S.copy()
            np.fill_diagonal(M, np.diag(S) / (1.0 + 1e-4))
            shrunk = np.linalg.eigvalsh(M)[0]
            if shrunk >= 0.01:
                # no rescale was needed for this draw; nothing to check
                continue
            assert np.linalg.eigvalsh(S)[0] < 0.01 * (1.0 + 1e-2)

    def test_deterministic(self):
        assert np.array_equal(random_sparse_covariance(9, 3),
                              random_sparse_covariance(9, 3))

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInputError):
            random_sparse_covariance(1, 0)


class TestSmoothSimplexTrajectories:
    def test_rows_on_simplex(self):
        A = smooth_simplex_trajectories(200, 4, 25.0, 0)
        assert A.shape == (200, 4)
        assert np.all(A >= 0.0)
        assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-12

    def test_per_step_change_bound(self):
        for seed in range(5):
            s = 25.0
            A = smooth_simplex_trajectories(500, 4, s, seed)
            assert np.abs(np.diff(A, axis=0)).max() <= 4.0 / s

    def test_smoother_is_flatter(self):
        rough = smooth_simplex_trajectories(400, 4, 5.0, 1)
        smooth = smooth_simplex_trajectories(400, 4, 50.0, 1)
        assert np.abs(np.diff(smooth, axis=0)).max() < np.abs(np.diff(rough, axis=0)).max()

    def test_deterministic(self):
        assert np.array_equal(smooth_simplex_trajectories(50, 3, 10.0, 7),
                              smooth_simplex_trajectories(50, 3, 10.0, 7))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            smooth_simplex_trajectories(0, 4, 10.0, 0)
        with pytest.raises(InvalidInputError):
            smooth_simplex_trajectories(10, 1, 10.0, 0)
        with pytest.raises(InvalidInputError):
            smooth_simplex_trajectories(10, 4, 0.0, 0)


class TestMakeLabels:
    def test_hand_cases(self):
        A = np.array([[0.4, 0.3, 0.2, 0.1],
                      [0.1, 0.1, 0.4, 0.4],
                      [0.25, 0.25, 0.25, 0.25]])
        assert np.array_equal(make_labels(A), [1.0, -1.0, 1.0])

    def test_requires_four_columns(self):
        with pytest.raises(InvalidInputError):
            make_labels(np.ones((3, 3)) / 3.0)


class TestMakeGroundTruth:
    def test_shapes_and_determinism(self):
        t1 = make_ground_truth(6, 100, 20.0, seed=5)
        t2 = make_ground_truth(6, 100, 20.0, seed=5)
        assert len(t1.cov_bases) == 4
        assert t1.trajectories.shape == (100, 4)
        assert t1.labels.shape == (100,)
        for a, b in zip(t1.cov_bases, t2.cov_bases):
            assert np.array_equal(a, b)
        assert np.array_equal(t1.trajectories, t2.trajectories)

    def test_precisions_are_inverses(self):
        truth = make_ground_truth(5, 10, 10.0, seed=2)
        for C, P in zip(truth.cov_bases, truth.precision_bases):
            assert np.abs(C @ P - np.eye(5)).max() < 1e-8

    def test_distinct_bases_per_seed_slot(self):
        truth = make_ground_truth(5, 10, 10.0, seed=3)
        assert not np.array_equal(truth.cov_bases[0], truth.cov_bases[1])


class TestGenerateSequence:
    def test_shape_and_determinism(self):
        truth = make_ground_truth(5, 50, 10.0, seed=1)
        X1 = generate_sequence(truth)
        X2 = generate_sequence(truth)
        assert X1.shape == (50, 5)
        assert np.array_equal(X1, X2)

    def test_sample_covariance_matches_mixture(self):
        # constant mixture weights: the sample covariance of many draws must
        # approach the mixed covariance
        n, T = 3, 60000
        c1 = random_sparse_covariance(n, 11)
        c2 = random_sparse_covariance(n, 12)
        traj = np.tile([0.3, 0.7], (T, 1))
        truth = GroundTruth(cov_bases=[c1, c2],
                            precision_bases=[np.linalg.inv(c1), np.linalg.inv(c2)],
                            trajectories=traj, labels=np.ones(T), seed=8)
        X = generate_sequence(truth)
        target = 0.3 * c1 + 0.7 * c2
        emp = X.T @ X / T
        assert np.abs(emp - target).max() < 0.03

    def test_empty(self):
        truth = GroundTruth(cov_bases=[np.eye(2)], precision_bases=[np.eye(2)],
                            trajectories=np.zeros((0, 1)), labels=np.zeros(0),
                            seed=0)
        assert generate_sequence(truth).shape == (0, 2)


class TestPreprocessing:
    def test_standardize_centers_only(self):
        rng = np.random.default_rng(0)
        X = 3.0 * rng.standard_normal((40, 4)) + 10.0
        Z = standardize(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-12
        assert np.allclose(Z.std(axis=0), X.std(axis=0))


class TestRandomOrthogonal:
    def test_n_one(self):
        Q = random_orthogonal(1, 5)
        assert abs(abs(Q[0, 0]) - 1.0) < 1e-12

    def test_orthogonality(self):
        for seed in range(5):
            Q = random_orthogonal(7, seed)
            assert np.abs(Q.T @ Q - np.eye(7)).max() < 1e-10

    def test_determinism(self):
        assert np.array_equal(random_orthogonal(6, 42), random_orthogonal(6, 42))
