"""K-means clustering and top-cluster causal-score selection."""

import numpy as np
import pytest

from repro.core.clustering import kmeans, select_top_scores


class TestKmeans:
    def test_separates_two_obvious_clusters(self):
        values = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 5.2])
        labels, centroids = kmeans(values, 2, rng=np.random.default_rng(0))
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]
        assert sorted(np.round(centroids[:, 0], 1)) == [0.1, 5.1]

    def test_multidimensional_points(self):
        rng = np.random.default_rng(1)
        cluster_a = rng.normal(0, 0.1, size=(20, 2))
        cluster_b = rng.normal(5, 0.1, size=(20, 2))
        labels, _ = kmeans(np.vstack([cluster_a, cluster_b]), 2, rng=rng)
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1

    def test_reduces_clusters_when_too_few_distinct_points(self):
        labels, centroids = kmeans(np.array([1.0, 1.0, 1.0]), 3)
        assert centroids.shape[0] == 1
        assert set(labels) == {0}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.array([]), 2)

    def test_deterministic_with_seeded_rng(self):
        values = np.random.default_rng(2).normal(size=30)
        a = kmeans(values, 3, rng=np.random.default_rng(7))
        b = kmeans(values, 3, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])

    def test_inertia_not_worse_than_single_cluster(self):
        values = np.random.default_rng(3).normal(size=(40, 1))
        labels2, centroids2 = kmeans(values, 2, rng=np.random.default_rng(0))
        inertia2 = ((values - centroids2[labels2]) ** 2).sum()
        inertia1 = ((values - values.mean(axis=0)) ** 2).sum()
        assert inertia2 <= inertia1 + 1e-9


class TestSelectTopScores:
    def test_keeps_only_high_cluster(self):
        scores = np.array([0.01, 0.02, 0.9, 0.95])
        keep = select_top_scores(scores, n_clusters=2, top_clusters=1,
                                 rng=np.random.default_rng(0))
        np.testing.assert_array_equal(keep, [False, False, True, True])

    def test_density_control(self):
        """m/n = 1 keeps everything; m = 0 keeps nothing."""
        scores = np.array([0.1, 0.5, 0.9])
        assert select_top_scores(scores, 2, 2).all()
        assert not select_top_scores(scores, 2, 0).any()

    def test_larger_ratio_keeps_at_least_as_many(self):
        scores = np.random.default_rng(1).random(12)
        narrow = select_top_scores(scores, 3, 1, rng=np.random.default_rng(0))
        wide = select_top_scores(scores, 3, 2, rng=np.random.default_rng(0))
        assert wide.sum() >= narrow.sum()
        assert np.all(wide[narrow])  # the top cluster stays selected

    def test_all_zero_scores_select_nothing(self):
        keep = select_top_scores(np.zeros(5), 2, 1)
        assert not keep.any()

    def test_all_equal_positive_scores_select_everything(self):
        keep = select_top_scores(np.full(5, 0.7), 2, 1)
        assert keep.all()

    def test_empty_input(self):
        assert select_top_scores(np.array([]), 2, 1).size == 0

    def test_two_distinct_values_keep_the_higher(self):
        keep = select_top_scores(np.array([0.2, 0.8, 0.2, 0.8, 0.8]), 2, 1,
                                 rng=np.random.default_rng(0))
        np.testing.assert_array_equal(keep, [False, True, False, True, True])

    def test_small_scores_are_not_a_tie(self):
        """The tie test is relative: scores of size 1e-9 still cluster."""
        scores = np.array([0.0, 3.0, 9.0, 1.0, 8.5])
        expected = select_top_scores(scores, 2, 1, rng=np.random.default_rng(0))
        assert expected.sum() == 2
        tiny = select_top_scores(scores * 1e-9, 2, 1,
                                 rng=np.random.default_rng(0))
        np.testing.assert_array_equal(tiny, expected)

    @pytest.mark.parametrize("exponent", range(-40, 21, 4))
    @pytest.mark.parametrize("scores", [
        [0.0, 3.0, 9.0, 1.0, 8.5],
        [0.7, 0.7, 0.7, 0.7],
        [0.0, 0.0, 0.0],
        [0.2, 0.8, 0.2, 0.8, 0.8],
    ])
    def test_mask_invariant_under_power_of_two_rescaling(self, scores,
                                                         exponent):
        scores = np.array(scores)
        expected = select_top_scores(scores, 2, 1, rng=np.random.default_rng(0))
        rescaled = select_top_scores(scores * 2.0 ** exponent, 2, 1,
                                     rng=np.random.default_rng(0))
        np.testing.assert_array_equal(rescaled, expected)

    def test_relative_near_tie_keeps_everything(self):
        scores = 0.7 * (1.0 + np.array([0.0, 1e-7, -1e-7, 2e-7]))
        assert select_top_scores(scores, 2, 1).all()
