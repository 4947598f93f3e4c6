"""Configuration of the CausalFormer model and its training/interpretation.

The defaults follow the paper's "Experimental Settings" (Sec. 5.3); the
per-dataset presets reproduce the hyper-parameters the authors report for the
synthetic, Lorenz-96 and fMRI datasets.  The presets here use smaller hidden
dimensions than the paper's 256/512 because this reproduction runs on a CPU
numpy substrate — the architecture and every code path are identical, only
the width differs (see DESIGN.md, Substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple


@dataclass
class CausalFormerConfig:
    """Hyper-parameters of the causality-aware transformer and its detector.

    Attributes
    ----------
    n_series:
        Number of time series ``N`` (set from the dataset when omitted).
    window:
        Observation window ``T`` — also the convolution field size.
    d_model:
        Embedding dimension ``d`` (paper: 256 or 512, ``d > T``).
    d_qk:
        Query/key projection dimension ``d_QK``.
    n_heads:
        Number of attention heads ``h``.
    d_ffn:
        Hidden width of the feed-forward layer.
    temperature:
        Softmax temperature ``τ`` of the multi-variate causal attention.
    lambda_kernel / lambda_mask:
        L1 coefficients ``λ_K`` and ``λ_M`` of the loss (Eq. 9).
    single_kernel:
        Ablation switch: share one convolution kernel across all series
        pairs ("w/o multi conv kernel" in Table 3).
    top_clusters / n_clusters:
        The ``m`` and ``n`` of the k-means causal-graph construction; the
        ratio ``m/n`` controls graph density (Sec. 4.2.3).
    learning_rate / max_epochs / patience / batch_size / grad_clip:
        Training-loop parameters (Adam + early stopping, as in the paper).
    window_stride:
        Stride between training windows cut from the series.
    relevance_epsilon:
        Stabiliser added to RRP denominators.
    seed:
        Seed for parameter initialisation and window shuffling.
    """

    n_series: Optional[int] = None
    window: int = 16
    d_model: int = 32
    d_qk: int = 32
    n_heads: int = 4
    d_ffn: int = 32
    temperature: float = 1.0
    lambda_kernel: float = 1e-4
    lambda_mask: float = 1e-4
    single_kernel: bool = False
    top_clusters: int = 1
    n_clusters: int = 2
    learning_rate: float = 5e-3
    max_epochs: int = 60
    patience: int = 8
    min_delta: float = 1e-4
    batch_size: int = 64
    grad_clip: float = 5.0
    window_stride: int = 1
    validation_fraction: float = 0.2
    relevance_epsilon: float = 1e-9
    max_detector_windows: int = 64
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation and helpers
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2 time slots")
        if self.d_model < 1 or self.d_qk < 1 or self.d_ffn < 1:
            raise ValueError("model dimensions must be positive")
        if self.n_heads < 1:
            raise ValueError("n_heads must be at least 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.lambda_kernel < 0 or self.lambda_mask < 0:
            raise ValueError("L1 coefficients must be non-negative")
        if not (0 < self.top_clusters <= self.n_clusters):
            raise ValueError("top_clusters must be in [1, n_clusters]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.window_stride < 1:
            raise ValueError("window_stride must be at least 1")
        if not self.relevance_epsilon > 0:
            raise ValueError("relevance_epsilon must be positive")
        if self.max_detector_windows < 1:
            raise ValueError("max_detector_windows must be at least 1")

    @property
    def density_ratio(self) -> float:
        """The paper's ``m/n`` graph-density control."""
        return self.top_clusters / self.n_clusters

    def with_density(self, top_clusters: int, n_clusters: int) -> "CausalFormerConfig":
        return replace(self, top_clusters=top_clusters, n_clusters=n_clusters)

    def for_dataset(self, n_series: int) -> "CausalFormerConfig":
        """Return a copy bound to a dataset's number of series."""
        return replace(self, n_series=n_series)

    def to_dict(self) -> Dict:
        return {key: getattr(self, key) for key in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: Dict) -> "CausalFormerConfig":
        known = {key: value for key, value in payload.items() if key in cls.__dataclass_fields__}
        return cls(**known)


# ---------------------------------------------------------------------- #
# Paper presets (Sec. 5.3), with CPU-sized widths
# ---------------------------------------------------------------------- #
def synthetic_preset(structure: str = "diamond", **overrides) -> CausalFormerConfig:
    """Preset for the four synthetic structures.

    The paper uses ``d = d_QK = 256``, ``h = 4``, ``d_FFN = 256``, ``T = 16``,
    ``m/n = 1/2``; ``τ = 1`` and ``λ = 1e-4`` for diamond/mediator, and
    ``τ = 100`` with ``λ = 1e-10`` for v-structure/fork (to favour non-self
    relations).
    """
    sparse_structures = {"diamond", "mediator"}
    if structure in sparse_structures:
        temperature, lam = 1.0, 1e-4
    else:
        temperature, lam = 100.0, 1e-10
    config = CausalFormerConfig(
        window=16,
        d_model=32,
        d_qk=32,
        d_ffn=32,
        n_heads=4,
        temperature=temperature,
        lambda_kernel=lam,
        lambda_mask=lam,
        top_clusters=1,
        n_clusters=2,
        max_epochs=60,
        window_stride=2,
    )
    return replace(config, **overrides) if overrides else config


def lorenz_preset(**overrides) -> CausalFormerConfig:
    """Preset for Lorenz-96 (paper: d=512, h=8, τ=10, λ=5e-4, m/n=2/3, T=32)."""
    config = CausalFormerConfig(
        window=32,
        d_model=48,
        d_qk=48,
        d_ffn=48,
        n_heads=8,
        temperature=10.0,
        lambda_kernel=5e-4,
        lambda_mask=5e-4,
        top_clusters=2,
        n_clusters=3,
        max_epochs=60,
        window_stride=4,
    )
    return replace(config, **overrides) if overrides else config


def fmri_preset(**overrides) -> CausalFormerConfig:
    """Preset for fMRI (paper: d=256, h=4, d_FFN=512, τ=100, λ=0, m/n=1/2, T=32)."""
    config = CausalFormerConfig(
        window=32,
        d_model=48,
        d_qk=48,
        d_ffn=64,
        n_heads=4,
        temperature=100.0,
        lambda_kernel=0.0,
        lambda_mask=0.0,
        top_clusters=1,
        n_clusters=2,
        max_epochs=60,
        window_stride=2,
    )
    return replace(config, **overrides) if overrides else config


def sst_preset(**overrides) -> CausalFormerConfig:
    """Preset for the SST case study (many short series → smaller windows)."""
    config = CausalFormerConfig(
        window=12,
        d_model=24,
        d_qk=24,
        d_ffn=24,
        n_heads=2,
        temperature=10.0,
        lambda_kernel=1e-4,
        lambda_mask=1e-4,
        top_clusters=1,
        n_clusters=3,
        max_epochs=40,
        window_stride=2,
    )
    return replace(config, **overrides) if overrides else config


def fast_preset(**overrides) -> CausalFormerConfig:
    """Small, fast configuration used by the test-suite and the quickstart."""
    config = CausalFormerConfig(
        window=10,
        d_model=16,
        d_qk=16,
        d_ffn=16,
        n_heads=2,
        temperature=1.0,
        max_epochs=25,
        window_stride=4,
        batch_size=64,
    )
    return replace(config, **overrides) if overrides else config


PRESETS = {
    "synthetic": synthetic_preset,
    "lorenz96": lorenz_preset,
    "fmri": fmri_preset,
    "sst": sst_preset,
    "fast": fast_preset,
}
