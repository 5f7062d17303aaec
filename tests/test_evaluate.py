import numpy as np
import pytest

from tvnet.basis import BasisSet, random_hollow_bases, _vec_upper
from tvnet.errors import DegenerateNormalizationError, InvalidInputError
from tvnet.evaluate import (accumulate_evidence, as_projection_basis,
                            best_match_score, classification_error,
                            matrix_correlation, pca_projection_features)
from tvnet.keller import NetworkEstimate
from tvnet.logistic import fit_logistic


def hollow(M):
    M = np.asarray(M, dtype=float)
    np.fill_diagonal(M, 0.0)
    return M


class TestMatrixCorrelation:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        M = hollow(rng.standard_normal((5, 5)))
        M = 0.5 * (M + M.T)
        assert matrix_correlation(M, M) == pytest.approx(1.0)
        assert matrix_correlation(M, -M) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        M = hollow(rng.standard_normal((4, 4)))
        assert matrix_correlation(M, 3.0 * M + 2.0) == pytest.approx(1.0)

    def test_diagonal_ignored(self):
        rng = np.random.default_rng(2)
        M = hollow(rng.standard_normal((4, 4)))
        N = M + np.diag(rng.standard_normal(4))
        assert matrix_correlation(M, N) == pytest.approx(1.0)

    def test_orthogonal_patterns(self):
        # off-diagonal patterns chosen orthogonal after centering
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        A[0, 2] = A[2, 0] = -1.0
        B = np.zeros((3, 3))
        B[1, 2] = B[2, 1] = 1.0
        B[0, 1] = B[1, 0] = -0.5
        B[0, 2] = B[2, 0] = -0.5
        assert matrix_correlation(A, B) == pytest.approx(0.0, abs=1e-12)

    def test_constant_pattern_rejected(self):
        with pytest.raises(DegenerateNormalizationError):
            matrix_correlation(np.ones((3, 3)), np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_correlation(np.ones((2, 3)), np.ones((2, 3)))


class TestBestMatchScore:
    def test_perfect_recovery(self):
        learned = random_hollow_bases(5, 3, 0)
        report = best_match_score(learned, [b.copy() for b in learned.bases])
        assert report.mean_score == pytest.approx(1.0)
        assert [r.learned_index for r in report.per_true_basis] == [0, 1, 2]

    def test_sign_flip_scores_by_magnitude(self):
        learned = random_hollow_bases(5, 2, 1)
        report = best_match_score(learned, [-learned.bases[1]])
        assert report.per_true_basis[0].learned_index == 1
        assert report.per_true_basis[0].score == pytest.approx(-1.0)
        assert report.mean_score == pytest.approx(1.0)

    def test_matching_with_replacement(self):
        # one learned basis may serve several true structures
        learned = BasisSet(bases=random_hollow_bases(4, 1, 2).bases)
        truths = [learned.bases[0], 2.0 * learned.bases[0]]
        report = best_match_score(learned, truths)
        assert [r.learned_index for r in report.per_true_basis] == [0, 0]

    def test_mean_over_true_bases(self):
        rng = np.random.default_rng(3)
        learned = random_hollow_bases(6, 2, 4)
        truths = [learned.bases[0], hollow(rng.standard_normal((6, 6)))]
        truths[1] = 0.5 * (truths[1] + truths[1].T)
        report = best_match_score(learned, truths)
        expected = np.mean([abs(r.score) for r in report.per_true_basis])
        assert report.mean_score == pytest.approx(expected)


class TestProjectionFeatures:
    def orthonormal_pair(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        B = np.zeros((4, 4))
        B[2, 3] = B[3, 2] = 1.0
        return BasisSet(bases=np.stack([A, B]))

    def test_projection_recovers_coefficients(self):
        P = self.orthonormal_pair()
        target = 1.5 * P.bases[0] - 0.25 * P.bases[1]
        est = NetworkEstimate(coefficients=target, time=0, lam=0.0)
        feats = pca_projection_features(est, P)
        assert np.allclose(feats, [1.5, -0.25])

    def test_asymmetric_estimate_symmetrized(self):
        P = self.orthonormal_pair()
        C = np.zeros((4, 4))
        C[0, 1] = 2.0   # symmetrized to 1.0 on each side
        est = NetworkEstimate(coefficients=C, time=0, lam=0.0)
        assert pca_projection_features(est, P)[0] == pytest.approx(1.0)

    def test_non_orthonormal_rejected(self):
        bad = BasisSet(bases=2.0 * self.orthonormal_pair().bases)
        est = NetworkEstimate(coefficients=np.zeros((4, 4)), time=0, lam=0.0)
        with pytest.raises(InvalidInputError):
            pca_projection_features(est, bad)

    def test_as_projection_basis_normalizes(self):
        rng = np.random.default_rng(4)
        raw = random_hollow_bases(5, 3, 5)
        scaled = BasisSet(bases=raw.bases * rng.uniform(0.5, 4.0, (3, 1, 1)))
        fixed = as_projection_basis(scaled)
        for i in range(3):
            assert np.linalg.norm(_vec_upper(fixed.bases[i])) == pytest.approx(1.0)

    def test_as_projection_basis_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            as_projection_basis(BasisSet(bases=np.zeros((1, 3, 3))))


class TestLogisticEvaluation:
    def test_separable_data_classified(self):
        rng = np.random.default_rng(5)
        Z = np.vstack([rng.standard_normal((40, 2)) + 3.0,
                       rng.standard_normal((40, 2)) - 3.0])
        y = np.concatenate([np.ones(40), -np.ones(40)])
        w, b = fit_logistic(Z, y, ridge=1e-3, intercept=True)
        assert classification_error(w, Z, y, intercept=b) == 0.0

    def test_permutation_null_near_chance(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((400, 3))
        y = np.where(rng.random(400) < 0.5, 1.0, -1.0)
        w, b = fit_logistic(Z, y, ridge=1.0, intercept=True)
        err = classification_error(w, Z, y, intercept=b)
        assert 0.3 <= err <= 0.7

    def test_intercept_absorbs_offset(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((200, 2))
        y = np.where(Z[:, 0] + 5.0 > 4.8, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            pytest.skip("degenerate draw")
        w, b = fit_logistic(Z, y, ridge=1e-2, intercept=True)
        err = classification_error(w, Z, y, intercept=b)
        assert err < 0.15

    def test_hand_counted_error(self):
        w = np.array([1.0])
        Z = np.array([[2.0], [-1.0], [0.0], [3.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        # predictions: +1, -1, +1 (sign(0) is +1), +1 -> 3 of 4 wrong
        assert classification_error(w, Z, y) == pytest.approx(0.75)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            classification_error(np.ones(2), np.ones((3, 2)), np.ones(2))


class TestAccumulateEvidence:
    def test_hand_trace(self):
        decision, trace = accumulate_evidence([1.0, -2.0, 3.0], range(3))
        assert decision == 1
        assert np.array_equal(trace, [1.0, -1.0, 2.0])

    def test_negative_decision(self):
        decision, trace = accumulate_evidence([-1.0, -0.5], range(2))
        assert decision == -1

    def test_tie_goes_positive(self):
        decision, _ = accumulate_evidence([1.0, -1.0], range(2))
        assert decision == 1

    def test_subwindow(self):
        decision, trace = accumulate_evidence([5.0, -1.0, -1.0], range(1, 3))
        assert decision == -1
        assert np.array_equal(trace, [-1.0, -2.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            accumulate_evidence([1.0], [])
        with pytest.raises(InvalidInputError):
            accumulate_evidence([1.0], [2])
