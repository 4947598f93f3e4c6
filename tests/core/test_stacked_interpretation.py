"""Stacked detector interpretation must be bit-identical to per-model scoring.

``compute_scores_group`` shares one stacked cache forward, all-ones
backward and model-axis relevance propagation across a whole sweep group;
every per-model :class:`CausalScores` must equal the sequential
``compute_scores`` bit for bit — across all Table 3 ablation switches and
the single-kernel configuration.  The models here are float64 (the suite's
reference dtype); ``tests/nn/test_parallel.py`` repeats the group check
on float32 models.
"""

import itertools

import numpy as np
import pytest

from repro.core.config import CausalFormerConfig
from repro.core.detector import (DecompositionCausalityDetector,
                                 compute_scores_group)
from repro.core.transformer import CausalityAwareTransformer


def fleet(single_kernel=False, n_models=3, seed_base=0):
    configs = [CausalFormerConfig(n_series=4, window=10, d_model=12, d_qk=12,
                                  d_ffn=12, n_heads=2, seed=seed_base + seed,
                                  single_kernel=single_kernel)
               for seed in range(n_models)]
    models = [CausalityAwareTransformer(config) for config in configs]
    rng = np.random.default_rng(17)
    window_sets = [rng.normal(size=(4, 4, 10)) for _ in models]
    return models, configs, window_sets


ABLATIONS = [flags for flags in itertools.product((True, False), repeat=4)
             if flags[1] or flags[2]]   # relevance or gradient must be on


class TestGroupScoringBitIdentity:
    @pytest.mark.parametrize(
        "use_interpretation,use_relevance,use_gradient,use_bias", ABLATIONS)
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_all_ablations_identical(self, single_kernel, use_interpretation,
                                     use_relevance, use_gradient, use_bias):
        models, configs, window_sets = fleet(single_kernel=single_kernel)
        detectors = [
            DecompositionCausalityDetector(
                model, config, use_interpretation=use_interpretation,
                use_relevance=use_relevance, use_gradient=use_gradient,
                use_bias=use_bias)
            for model, config in zip(models, configs)]
        group = compute_scores_group(detectors, window_sets)
        for detector, windows, scores in zip(detectors, window_sets, group):
            solo = detector.compute_scores(windows)
            assert np.array_equal(solo.attention, scores.attention)
            assert np.array_equal(solo.kernel, scores.kernel)


class TestGroupScoringValidation:
    def test_rejects_mismatched_flags(self):
        models, configs, window_sets = fleet(n_models=2)
        detectors = [
            DecompositionCausalityDetector(models[0], configs[0]),
            DecompositionCausalityDetector(models[1], configs[1],
                                           use_gradient=False)]
        with pytest.raises(ValueError, match="identical detector flags"):
            compute_scores_group(detectors, window_sets[:2])

    def test_rejects_mismatched_window_shapes(self):
        models, configs, window_sets = fleet(n_models=2)
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        with pytest.raises(ValueError, match="same-shape"):
            compute_scores_group(detectors,
                                 [window_sets[0], window_sets[1][:2]])

    def test_rejects_wrong_series_count(self):
        models, configs, _window_sets = fleet(n_models=2)
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        bad = np.zeros((2, 3, 10))
        with pytest.raises(ValueError, match="do not match"):
            compute_scores_group(detectors, [bad, bad])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one"):
            compute_scores_group([], [])

    def test_group_of_one_matches_solo(self):
        models, configs, window_sets = fleet(n_models=1)
        detector = DecompositionCausalityDetector(models[0], configs[0])
        group = compute_scores_group([detector], window_sets[:1])
        solo = detector.compute_scores(window_sets[0])
        assert np.array_equal(solo.attention, group[0].attention)
        assert np.array_equal(solo.kernel, group[0].kernel)

    def test_reads_the_live_weights_on_every_call(self):
        """Group scoring interprets the models themselves, as they are now."""
        models, configs, window_sets = fleet(n_models=2)
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        before = compute_scores_group(detectors, window_sets[:2])
        for model in models:
            for parameter in model.parameters():
                parameter.data[...] = parameter.data * 0.5
        group = compute_scores_group(detectors, window_sets[:2])
        for detector, model, windows, old, scores in zip(
                detectors, models, window_sets, before, group):
            assert detector.model is model
            assert not np.array_equal(old.attention, scores.attention)
            fresh = DecompositionCausalityDetector(model).compute_scores(
                windows)
            assert np.array_equal(fresh.attention, scores.attention)
            assert np.array_equal(fresh.kernel, scores.kernel)


class TestGroupScoringEpsilonGuard:
    def test_rejects_mismatched_relevance_epsilon(self):
        from dataclasses import replace

        models, configs, window_sets = fleet(n_models=2)
        other = replace(configs[1], relevance_epsilon=1e-6)
        detectors = [
            DecompositionCausalityDetector(models[0], configs[0]),
            DecompositionCausalityDetector(models[1], other)]
        with pytest.raises(ValueError, match="relevance_epsilon"):
            compute_scores_group(detectors, window_sets[:2])
