import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from tvnet.basis import (BasisSet, init_bases_pca, random_hollow_bases,
                         _from_upper, _vec_upper)
from tvnet.errors import DegenerateNormalizationError, InvalidInputError
from tvnet.evaluate import (accumulate_evidence, best_match_score,
                            classification_error, matrix_correlation,
                            pca_projection_features)
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
        feats = pca_projection_features(target[None], P)
        assert feats.shape == (1, 2)
        assert np.allclose(feats[0], [1.5, -0.25])

    def test_asymmetric_estimate_symmetrized(self):
        P = self.orthonormal_pair()
        C = np.zeros((4, 4))
        C[0, 1] = 2.0   # symmetrized to 1.0 on each side
        assert pca_projection_features(C[None], P)[0, 0] == pytest.approx(1.0)

    def test_non_orthonormal_rejected(self):
        A, B = self.orthonormal_pair().bases
        bad = BasisSet(bases=np.stack([A, A + B]))
        with pytest.raises(InvalidInputError):
            pca_projection_features(np.zeros((1, 4, 4)), bad)

    def test_bases_rescaled_to_unit_norm(self):
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(rng.standard_normal((10, 3)))[0].T   # (3, 10)
        scaled = BasisSet(bases=np.stack([_from_upper(q, 5) for q in Q])
                          * rng.uniform(0.5, 4.0, (3, 1, 1)))
        C = rng.standard_normal((7, 5, 5))
        expected = _vec_upper(0.5 * (C + np.swapaxes(C, 1, 2))) @ Q.T
        assert np.allclose(pca_projection_features(C, scaled), expected,
                           rtol=0.0, atol=1e-12)

    def test_zero_basis_rejected(self):
        with pytest.raises(InvalidInputError):
            pca_projection_features(np.zeros((1, 3, 3)),
                                    BasisSet(bases=np.zeros((1, 3, 3))))

    @given(st.integers(1, 60), st.integers(2, 9), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_estimate_loop(self, m, n, k, seed):
        # principal structures of a random stack, projected on the stack
        rng = np.random.default_rng(seed)
        k = min(k, m, n * (n - 1) // 2)
        C = rng.standard_normal((m, n, n))
        bases = init_bases_pca(C, k)
        assert np.array_equal(pca_projection_features(C, bases),
                              reference.pca_projection_features(C, bases))


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
