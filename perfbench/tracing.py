"""Spans recorded from outside the program, around its layers' public calls.

The traced run wraps the functions listed in :data:`WRAP_POINTS` on the
object the caller actually looks them up on (a class for methods, the module
for functions imported at call time), records one :class:`Span` per call,
and restores every original before any untraced operation runs.  Nothing
inside ``src/`` is instrumented for this; the only program hook used is the
public ``ProfilingSeam`` behind ``repro.telemetry.configure(
engine_profiling=True)``, which feeds the ``engine.*`` histograms.

Callers are single-threaded at every wrapped boundary (engine threads run
below them), so one span stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: float):
        span = Span(id=len(self.spans), name=name,
                    parent=self._stack[-1] if self._stack else None,
                    start=time.perf_counter(), attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """``function`` recording a span named ``name`` around each call.

        ``annotate(args, result)`` may return attributes (counts) to attach.
        """
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
                if annotate is not None:
                    span.attrs.update(annotate(args, result))
                return result

        traced.__wrapped__ = function
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def _executor_counts(args, results):
    return {"jobs": len(results),
            "cache_hits": sum(1 for result in results if result.cached),
            "job_errors": sum(1 for result in results if result.error)}


#: ``(module, attribute path, span name, annotate)``: every call the traced
#: run times.  Methods are wrapped on the class that defines them; functions
#: on the module, because their callers import them at call time.
WRAP_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.discovery", "CausalFormer.prepare_fit",
     "discovery.prepare", None),
    ("repro.core.training", "Trainer.fit", "training.fit",
     lambda args, history: {"epochs": history.n_epochs}),
    ("repro.nn.training_engine", "TrainingEngine.train_step",
     "training.step", None),
    ("repro.nn.inference", "InferenceEngine.evaluate",
     "training.evaluate", None),
    ("repro.core.detector", "DecompositionCausalityDetector.compute_scores",
     "detector.interpret", None),
    ("repro.nn.inference", "InferenceEngine.interpretation_forward",
     "detector.forward", None),
    ("repro.nn.inference", "InferenceEngine.interpretation_gradients",
     "detector.gradients", None),
    ("repro.core.relevance", "RegressionRelevancePropagation.prepare",
     "relevance.prepare", None),
    ("repro.core.relevance",
     "RegressionRelevancePropagation.propagate_targets",
     "relevance.propagate", None),
    ("repro.core.detector", "DecompositionCausalityDetector.build_graph",
     "graph.build", None),
    ("repro.graph.metrics", "evaluate_discovery", "metrics.score", None),
    ("repro.core.batched", "StackedCausalFormerTrainer.fit", "batched.fit",
     lambda args, histories: {"lanes": len(histories)}),
    ("repro.nn.training_engine", "StackedTrainingEngine.train_step",
     "batched.step", None),
    ("repro.nn.inference", "StackedInferenceEngine.evaluate_grouped",
     "batched.evaluate", None),
    ("repro.core.detector", "compute_scores_group", "batched.interpret",
     None),
    ("repro.nn.inference", "StackedInferenceEngine.interpretation_forward",
     "detector.forward", None),
    ("repro.nn.inference", "StackedInferenceEngine.interpretation_gradients",
     "detector.gradients", None),
    ("repro.core.relevance", "StackedRelevancePropagation.prepare",
     "relevance.prepare", None),
    ("repro.core.relevance", "StackedRelevancePropagation.propagate_targets",
     "relevance.propagate", None),
    ("repro.service.executor", "JobExecutor.run", "executor.run",
     _executor_counts),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


@contextmanager
def instrumented(tracer: Tracer, points=WRAP_POINTS):
    """Install a wrapper at every point; restore the originals on exit."""
    saved = []
    try:
        for module_name, path, name, annotate in points:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, annotate))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Per-layer metrics of one operation
# ---------------------------------------------------------------------- #
#: metric -> (span name, what to take from those spans)
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "discovery.prepare_s": ("discovery.prepare", "total"),
    "training.fit_s": ("training.fit", "total"),
    "training.epochs": ("training.fit", "epochs"),
    "training.steps": ("training.step", "count"),
    "training.step_s": ("training.step", "total"),
    "training.evaluate_s": ("training.evaluate", "total"),
    "training.loop_s": ("training.fit", "self"),
    "detector.interpret_s": ("detector.interpret", "total"),
    "detector.forward_s": ("detector.forward", "total"),
    "detector.gradients_s": ("detector.gradients", "total"),
    "relevance.prepare_s": ("relevance.prepare", "total"),
    "relevance.propagate_s": ("relevance.propagate", "total"),
    "detector.combine_s": ("detector.interpret", "self"),
    "detector.target_passes": ("relevance.propagate", "count"),
    "graph.build_s": ("graph.build", "total"),
    "metrics.score_s": ("metrics.score", "total"),
    "batched.fit_s": ("batched.fit", "total"),
    "batched.groups": ("batched.fit", "count"),
    "batched.lanes": ("batched.fit", "lanes"),
    "batched.step_s": ("batched.step", "total"),
    "batched.evaluate_s": ("batched.evaluate", "total"),
    "batched.interpret_s": ("batched.interpret", "total"),
    "executor.run_s": ("executor.run", "total"),
    "executor.jobs": ("executor.run", "jobs"),
    "executor.cache_hits": ("executor.run", "cache_hits"),
    "executor.job_errors": ("executor.run", "job_errors"),
}

#: ``engine.*`` metric -> the ProfilingSeam histogram it reads
ENGINE_HISTOGRAMS: Dict[str, str] = {
    "engine.windows_s": "engine.causal_windows_seconds",
    "engine.conv_s": "engine.convolution_seconds",
    "engine.attention_s": "engine.attention_probs_seconds",
    "engine.combine_s": "engine.combine_layout_seconds",
    "engine.backward_s": "engine.backward_seconds",
}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer metrics of the spans one operation recorded."""
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    metrics = {}
    for metric, (name, take) in LAYER_METRICS.items():
        group = by_name.get(name, [])
        if take == "total":
            value = sum(span.duration for span in group)
        elif take == "self":
            value = sum(selfs[span.id] for span in group)
        elif take == "count":
            value = len(group)
        else:
            value = sum(span.attrs.get(take, 0) for span in group)
        metrics[metric] = float(value)
    # The executor's own share: the run minus the stacked training and
    # interpretation it dispatches (grouping, fingerprints, scoring remain).
    metrics["executor.self_s"] = (metrics["executor.run_s"]
                                  - metrics["batched.fit_s"]
                                  - metrics["batched.interpret_s"])
    return metrics


def histogram_totals(snapshot: Dict) -> Dict[str, float]:
    histograms = snapshot.get("histograms", {})
    return {metric: float(histograms.get(name, {}).get("total", 0.0))
            for metric, name in ENGINE_HISTOGRAMS.items()}
