"""The benchmark's three workloads: inputs made from a seed, one operation each.

Every workload turns ``--seed`` into its inputs (datasets, and jobs for the
sweep) and exposes ``variants``: the distinct operations a run cycles
through.  Running one variant is one *operation* of the closed loop, and its
:class:`Outcome` carries everything the correctness checks and the quality
metrics need.  The program under test receives only the generated datasets
and jobs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.config import fast_preset, lorenz_preset, synthetic_preset
from repro.core.discovery import CausalFormer
from repro.data.lorenz import lorenz96_dataset
from repro.data.synthetic import synthetic_dataset
from repro.graph import metrics as graph_metrics
from repro.service.executor import JobExecutor
from repro.service.jobs import DiscoveryJob, fingerprint_dataset

#: Operations a run cycles through: the anchor, then inputs drawn from the
#: seed.  Every process of a run sets up on the anchor and then starts the
#: cycle at a different place, so repeats of each variant meet in the
#: determinism check.
VARIANTS = 3
#: Workload seed of the anchor variant every run includes, whatever its
#: seed.  Result quality and peak memory are measured on it: both are
#: deterministic for fixed inputs, while across generated inputs they swing
#: further than any bound a regression check can hold (Lorenz-96 F1 and
#: delay precision move by 30-50% between datasets, and the sweep's peak
#: memory follows its lanes' early stopping).
ANCHOR_SEED = 0
SERIES_LENGTH = 1000
SWEEP_STRUCTURES = ("diamond", "mediator", "v_structure", "fork")
SWEEP_SEEDS_PER_STRUCTURE = 4


@dataclass
class Outcome:
    """What one operation returned, reduced to what the benchmark checks."""

    started: float
    wall_s: float
    jobs: int
    digest: str
    #: F1 and delay precision of each input
    f1: List[float] = field(default_factory=list)
    delay_precision: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


@dataclass
class Workload:
    datasets: list
    variants: List[Callable[[], Outcome]]


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` seeds drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return [int(value) for value in rng.integers(0, 2 ** 31 - 1, size=count)]


def variant_seeds(seed: int) -> List[int]:
    """The anchor's seed, then one seed per generated variant."""
    return [ANCHOR_SEED] + derived_seeds(seed, VARIANTS - 1)


def graph_digest(graphs) -> str:
    """SHA-256 over the edge sets and delays of ``graphs``, in order."""
    digest = hashlib.sha256()
    for graph in graphs:
        edges = sorted(edge.as_tuple() for edge in graph.edges)
        digest.update(repr((graph.n_series, edges)).encode())
    return digest.hexdigest()


def graph_defects(graph, n_series: int, window: int) -> List[str]:
    """Why ``graph`` is malformed for an ``n_series``-series model, if it is."""
    if graph.n_series != n_series:
        return [f"graph has {graph.n_series} series, data has {n_series}"]
    defects = []
    pairs = set()
    for source, target, delay in (edge.as_tuple() for edge in graph.edges):
        if not (0 <= source < n_series and 0 <= target < n_series):
            defects.append(f"edge {source}->{target} out of range")
        if (source, target) in pairs:
            defects.append(f"duplicate edge {source}->{target}")
        pairs.add((source, target))
        lowest = 1 if source == target else 0
        if not (lowest <= delay <= window):
            defects.append(f"edge {source}->{target} has delay {delay}")
    return defects


def _score(graph, truth, outcome: Outcome, delay_tolerance: int = 0) -> None:
    # Looked up on the module at call time, so the traced run's wrapper on
    # ``evaluate_discovery`` sees this call too.
    scores = graph_metrics.evaluate_discovery(graph, truth,
                                              delay_tolerance=delay_tolerance)
    outcome.f1.append(scores.f1)
    if scores.precision_of_delay is not None:
        outcome.delay_precision.append(scores.precision_of_delay)


def _discover_variant(dataset, preset) -> Callable[[], Outcome]:
    n_series = dataset.values.shape[0]

    def run() -> Outcome:
        method = CausalFormer(preset())
        start = time.perf_counter()
        graph = method.discover(dataset)
        wall = time.perf_counter() - start
        outcome = Outcome(started=start, wall_s=wall, jobs=1,
                          digest=graph_digest([graph]))
        outcome.failures.extend(graph_defects(graph, n_series,
                                              method.config.window))
        _score(graph, dataset.graph, outcome)
        return outcome

    return run


def lorenz_discover(n_series: int, preset) -> Callable[[int], Workload]:
    def build(seed: int) -> Workload:
        datasets = [lorenz96_dataset(n_series=n_series, length=SERIES_LENGTH,
                                     seed=dataset_seed)
                    for dataset_seed in variant_seeds(seed)]
        return Workload(datasets=datasets,
                        variants=[_discover_variant(dataset, preset)
                                  for dataset in datasets])

    return build


def sweep_pairs(seed: int):
    """One sweep's 16 ``(job, dataset)`` pairs: 4 structures x 4 seeds."""
    seeds = iter(derived_seeds(seed, len(SWEEP_STRUCTURES)
                               * SWEEP_SEEDS_PER_STRUCTURE))
    pairs = []
    for structure in SWEEP_STRUCTURES:
        config = synthetic_preset(structure).to_dict()
        del config["seed"], config["n_series"]
        for _ in range(SWEEP_SEEDS_PER_STRUCTURE):
            dataset_seed = next(seeds)
            dataset = synthetic_dataset(structure, length=SERIES_LENGTH,
                                        seed=dataset_seed)
            job = DiscoveryJob(method="causalformer", config=dict(config),
                               dataset=structure,
                               dataset_fingerprint=fingerprint_dataset(dataset),
                               seed=dataset_seed)
            pairs.append((job, dataset))
    return pairs


def _sweep_variant(pairs) -> Callable[[], Outcome]:
    window = {job.dataset: synthetic_preset(job.dataset).window
              for job, _ in pairs}

    def run() -> Outcome:
        # cache=None: a warm result cache would turn the sweep into a replay.
        executor = JobExecutor(max_workers=1, batch_jobs=True, cache=None)
        start = time.perf_counter()
        results = executor.run(pairs)
        wall = time.perf_counter() - start
        outcome = Outcome(started=start, wall_s=wall, jobs=len(pairs),
                          digest=graph_digest(result.graph for result in results
                                              if result.graph is not None))
        if len(results) != len(pairs):
            outcome.failures.append(
                f"{len(results)} results for {len(pairs)} jobs")
        for (job, dataset), result in zip(pairs, results):
            if result.job.cache_key() != job.cache_key():
                outcome.failures.append(f"{job.job_id}: result out of order")
            elif result.error is not None:
                outcome.failures.append(f"{job.job_id}: raised\n{result.error}")
            elif result.cached:
                outcome.failures.append(f"{job.job_id}: served from a cache")
            else:
                outcome.failures.extend(
                    f"{job.job_id}: {defect}" for defect in graph_defects(
                        result.graph, dataset.values.shape[0],
                        window[job.dataset]))
                _score(result.graph, dataset.graph, outcome,
                       job.delay_tolerance)
        return outcome

    return run


def synthetic_sweep(seed: int) -> Workload:
    sweeps = [sweep_pairs(sweep_seed) for sweep_seed in variant_seeds(seed)]
    return Workload(datasets=[dataset for pairs in sweeps
                              for _, dataset in pairs],
                    variants=[_sweep_variant(pairs) for pairs in sweeps])


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "lorenz10_discover": lorenz_discover(10, lorenz_preset),
    "lorenz40_discover": lorenz_discover(40, fast_preset),
    "synthetic_sweep": synthetic_sweep,
}


def build_workload(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: "
                       f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed)

