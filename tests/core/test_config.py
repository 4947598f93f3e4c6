"""CausalFormer configuration and presets."""

import pytest

from repro.core import (
    CausalFormerConfig,
    PRESETS,
    fast_preset,
    fmri_preset,
    lorenz_preset,
    sst_preset,
    synthetic_preset,
)


class TestValidation:
    def test_defaults_are_valid(self):
        CausalFormerConfig()

    @pytest.mark.parametrize("field,value", [
        ("window", 1),
        ("d_model", 0),
        ("n_heads", 0),
        ("temperature", 0.0),
        ("lambda_kernel", -1.0),
        ("learning_rate", 0.0),
        ("max_epochs", 0),
        ("batch_size", 0),
        ("validation_fraction", 1.5),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            CausalFormerConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -3])
    def test_max_detector_windows_must_be_positive(self, value):
        """Zero windows would reach k-means++ with NaN probabilities, and a
        negative count np.linspace — both only after the whole fit."""
        with pytest.raises(ValueError, match="max_detector_windows"):
            CausalFormerConfig(max_detector_windows=value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_window_stride_must_be_positive(self, value):
        with pytest.raises(ValueError, match="window_stride"):
            CausalFormerConfig(window_stride=value)

    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan")])
    def test_relevance_epsilon_must_be_positive(self, value):
        """A non-positive stabiliser can turn an RRP denominator into 0."""
        with pytest.raises(ValueError, match="relevance_epsilon"):
            CausalFormerConfig(relevance_epsilon=value)

    def test_top_clusters_must_not_exceed_n_clusters(self):
        with pytest.raises(ValueError):
            CausalFormerConfig(top_clusters=3, n_clusters=2)

    def test_density_ratio(self):
        config = CausalFormerConfig(top_clusters=2, n_clusters=3)
        assert config.density_ratio == pytest.approx(2 / 3)

    def test_with_density(self):
        config = CausalFormerConfig().with_density(1, 4)
        assert config.n_clusters == 4 and config.top_clusters == 1

    def test_for_dataset_binds_series_count(self):
        config = CausalFormerConfig().for_dataset(7)
        assert config.n_series == 7

    def test_dict_roundtrip(self):
        config = CausalFormerConfig(window=12, n_heads=3, temperature=5.0)
        restored = CausalFormerConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()

    def test_from_dict_ignores_unknown_keys(self):
        config = CausalFormerConfig.from_dict({"window": 12, "bogus": 1})
        assert config.window == 12


class TestPresets:
    def test_registry_complete(self):
        assert set(PRESETS) == {"synthetic", "lorenz96", "fmri", "sst", "fast"}

    def test_synthetic_temperature_depends_on_structure(self):
        """The paper uses τ=1 for diamond/mediator and τ=100 for v-structure/fork."""
        assert synthetic_preset("diamond").temperature == 1.0
        assert synthetic_preset("mediator").temperature == 1.0
        assert synthetic_preset("v_structure").temperature == 100.0
        assert synthetic_preset("fork").temperature == 100.0

    def test_lorenz_preset_matches_paper_structure(self):
        config = lorenz_preset()
        assert config.window == 32
        assert config.n_heads == 8
        assert config.temperature == 10.0
        assert config.density_ratio == pytest.approx(2 / 3)

    def test_fmri_preset_disables_sparsity(self):
        config = fmri_preset()
        assert config.lambda_kernel == 0.0
        assert config.lambda_mask == 0.0
        assert config.temperature == 100.0

    def test_presets_accept_overrides(self):
        assert fast_preset(max_epochs=3).max_epochs == 3
        assert sst_preset(n_heads=1).n_heads == 1
        assert fmri_preset(window=16).window == 16

    def test_every_preset_is_valid(self):
        for name, factory in PRESETS.items():
            config = factory("diamond") if name == "synthetic" else factory()
            config.validate()
