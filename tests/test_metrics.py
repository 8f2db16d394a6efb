"""Metric examples, oracle equivalence, and invariance properties."""

import numpy as np
import pytest

from latent_guard import ScoredSet, aupr, auroc, evaluate, fpr_at_tpr
from latent_guard.metrics import EvalReport

from helpers import aupr_exhaustive, auroc_pairwise, fpr_at_tpr_exhaustive, scored_set


def random_scored_set(rng, max_n=200, with_ties=False):
    n_in = int(rng.integers(1, max_n // 2))
    n_ood = int(rng.integers(1, max_n // 2))
    scores = rng.standard_normal(n_in + n_ood)
    if with_ties:
        scores = np.round(scores, 1)  # forces heavy tie structure
    return scored_set(scores[:n_in], scores[n_in:])


class TestAuroc:
    def test_perfect_separation(self):
        scored = scored_set([0.1, 0.2, 0.3], [1.0, 2.0])
        assert auroc(scored) == 1.0

    def test_all_ties_is_half(self):
        scored = scored_set([1.0, 1.0], [1.0, 1.0, 1.0])
        assert auroc(scored) == 0.5

    def test_pairwise_example(self):
        scored = scored_set([0.1, 0.4], [0.3, 0.9])
        assert auroc(scored) == 0.75
        assert auroc_pairwise([0.1, 0.4], [0.3, 0.9]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="inlier and one OOD"):
            auroc(ScoredSet(scores=np.ones(3), is_inlier=np.ones(3, bool)))

    def test_scores_and_labels_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match=r"scores \(3,\) and labels \(4,\) must be"):
            ScoredSet(scores=np.ones(3), is_inlier=np.ones(4, bool))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            scored = random_scored_set(rng, max_n=60, with_ties=trial % 2 == 0)
            expected = auroc_pairwise(
                scored.scores[scored.is_inlier], scored.scores[~scored.is_inlier]
            )
            np.testing.assert_allclose(auroc(scored), expected, atol=1e-12)

    def test_complement_identity_for_tie_free_scores(self):
        # negating scores reverses every pairwise comparison
        rng = np.random.default_rng(1)
        for _ in range(10):
            scored = random_scored_set(rng, max_n=50)
            flipped = ScoredSet(scores=-scored.scores, is_inlier=scored.is_inlier)
            np.testing.assert_allclose(auroc(scored) + auroc(flipped), 1.0, atol=1e-12)


class TestAupr:
    def test_perfect_separation_both_conventions(self):
        scored = scored_set([0.0, 0.1], [5.0, 6.0])
        assert aupr(scored, "ood") == 1.0
        assert aupr(scored, "inlier") == 1.0

    def test_small_example_against_oracle(self):
        scored = scored_set([1.0, 2.0], [3.0])
        assert aupr(scored, "ood") == 1.0
        interleaved = scored_set([1.0, 2.0], [1.5])
        expected = aupr_exhaustive(interleaved.scores, ~interleaved.is_inlier, descending=True)
        np.testing.assert_allclose(aupr(interleaved, "ood"), expected, atol=1e-12)

    def test_invalid_positive_class(self):
        scored = scored_set([1.0], [2.0])
        with pytest.raises(ValueError, match="positive"):
            aupr(scored, "both")

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            scored = random_scored_set(rng, max_n=60, with_ties=trial % 2 == 0)
            np.testing.assert_allclose(
                aupr(scored, "ood"),
                aupr_exhaustive(scored.scores, ~scored.is_inlier, descending=True),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                aupr(scored, "inlier"),
                aupr_exhaustive(scored.scores, scored.is_inlier, descending=False),
                atol=1e-12,
            )

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scored = random_scored_set(rng, max_n=40, with_ties=True)
            assert 0.0 <= aupr(scored, "ood") <= 1.0
            assert 0.0 <= aupr(scored, "inlier") <= 1.0


class TestFprAtTpr:
    def test_perfect_separation_with_margin(self):
        scored = scored_set(np.linspace(0, 1, 40), [5.0, 6.0, 7.0])
        assert fpr_at_tpr(scored) == 0.0

    def test_threshold_sweep_example(self):
        inliers = np.arange(1.0, 21.0)
        oods = np.array([5.0, 25.0, 30.0, 35.0])
        assert fpr_at_tpr(scored_set(inliers, oods), 0.95) == 0.25

    def test_all_identical_scores(self):
        scored = scored_set([2.0, 2.0, 2.0], [2.0, 2.0])
        assert fpr_at_tpr(scored) == 1.0

    def test_target_bounds(self):
        # a target of 1.0 admits every inlier, so the threshold is the
        # highest inlier score; 0.0 admits none and is refused
        inliers = np.arange(1.0, 21.0)
        oods = np.array([5.0, 20.0, 25.0, 30.0])
        assert fpr_at_tpr(scored_set(inliers, oods), 1.0) == 0.5
        with pytest.raises(ValueError, match=r"tpr_target must be in \(0, 1\], got 0.0"):
            fpr_at_tpr(scored_set(inliers, oods), 0.0)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            scored = random_scored_set(rng, max_n=60, with_ties=trial % 2 == 0)
            expected = fpr_at_tpr_exhaustive(
                scored.scores[scored.is_inlier], scored.scores[~scored.is_inlier], 0.95
            )
            np.testing.assert_allclose(fpr_at_tpr(scored, 0.95), expected, atol=1e-12)


class TestInvariances:
    def test_monotone_transform_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(5)
        scored = random_scored_set(rng, max_n=80, with_ties=True)
        transformed = ScoredSet(
            scores=np.exp(0.7 * scored.scores) + 3.0, is_inlier=scored.is_inlier
        )
        np.testing.assert_allclose(auroc(scored), auroc(transformed), atol=1e-12)
        np.testing.assert_allclose(
            aupr(scored, "ood"), aupr(transformed, "ood"), atol=1e-12
        )
        np.testing.assert_allclose(
            aupr(scored, "inlier"), aupr(transformed, "inlier"), atol=1e-12
        )
        np.testing.assert_allclose(
            fpr_at_tpr(scored), fpr_at_tpr(transformed), atol=1e-12
        )


class TestEvalReport:
    def test_evaluate_fills_all_fields(self):
        scored = scored_set([0.1, 0.2], [0.9, 1.1])
        report = evaluate(scored, inlier_class=3, bottleneck_size=8, mode="H", seed=7)
        assert report.auroc == 1.0
        assert report.fpr_at_95_tpr == 0.0
        assert report.aupr_in == 1.0 and report.aupr_out == 1.0
        assert (report.inlier_class, report.bottleneck_size, report.mode, report.seed) == (3, 8, "H", 7)

    def test_json_round_trip(self):
        scored = scored_set([0.1, 0.5, 0.2], [0.3, 0.9])
        report = evaluate(scored, inlier_class=0, bottleneck_size=16, mode="RE", seed=1)
        assert EvalReport.from_json(report.to_json()) == report

    def test_metrics_lie_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            scored = random_scored_set(rng, max_n=50, with_ties=True)
            report = evaluate(scored, inlier_class=0, bottleneck_size=2, mode="LD", seed=0)
            for value in (report.fpr_at_95_tpr, report.auroc, report.aupr_in, report.aupr_out):
                assert 0.0 <= value <= 1.0
