"""Tests of the benchmark's own machinery (not of the program it measures)."""

import json

import pytest

import compare
import repro.core.detector
import repro.graph.metrics
from fingerprint import FingerprintMismatch, check_comparable
from repro.core.training import Trainer
from repro.graph.causal_graph import TemporalCausalGraph
from repro.service.jobs import fingerprint_dataset
from tracing import (WRAP_POINTS, Span, Tracer, _resolve, instrumented,
                     layer_metrics, self_times)
from workloads import VARIANTS, build_workload


def span(id, name, parent, start, end, **attrs):
    return Span(id=id, name=name, parent=parent, start=start, end=end,
                attrs=attrs)


def test_self_time_subtracts_the_union_of_children_within_the_parent():
    spans = [span(0, "root", None, 0.0, 10.0),
             span(1, "a", 0, 1.0, 3.0),
             span(2, "b", 0, 2.0, 5.0),      # overlaps a: union is 1..5
             span(3, "c", 0, 9.0, 12.0),     # runs past the parent's end
             span(4, "leaf", 1, 1.5, 2.5)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_take_totals_self_times_counts_and_attributes():
    spans = [span(0, "executor.run", None, 0.0, 10.0, jobs=4, cache_hits=0,
                  job_errors=0),
             span(1, "batched.fit", 0, 0.0, 6.0, lanes=4),
             span(2, "batched.step", 1, 1.0, 2.0),
             span(3, "batched.step", 1, 2.0, 4.0),
             span(4, "batched.interpret", 0, 6.0, 7.5),
             span(5, "training.fit", None, 10.0, 14.0, epochs=3),
             span(6, "training.step", 5, 10.0, 11.0)]
    metrics = layer_metrics(spans)
    assert metrics["batched.step_s"] == pytest.approx(3.0)
    assert metrics["batched.groups"] == 1
    assert metrics["batched.lanes"] == 4
    assert metrics["executor.jobs"] == 4
    assert metrics["executor.self_s"] == pytest.approx(10.0 - 6.0 - 1.5)
    assert metrics["training.loop_s"] == pytest.approx(3.0)
    assert metrics["training.epochs"] == 3
    assert metrics["detector.target_passes"] == 0


def test_wrappers_are_installed_then_every_original_restored():
    originals = [_resolve(module, path) for module, path, _, _ in WRAP_POINTS]
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name in originals]
    graph = TemporalCausalGraph(2)
    graph.add_edge(0, 1, 1)
    tracer = Tracer()
    with instrumented(tracer):
        for owner, name, original in originals:
            assert owner.__dict__[name].__wrapped__ is original
        repro.graph.metrics.evaluate_discovery(graph, graph)
    assert [s.name for s in tracer.spans] == ["metrics.score"]
    for owner, name, original in originals:
        assert owner.__dict__[name] is original
    repro.graph.metrics.evaluate_discovery(graph, graph)
    assert len(tracer.spans) == 1
    assert not hasattr(Trainer.fit, "__wrapped__")
    assert not hasattr(repro.core.detector.compute_scores_group,
                       "__wrapped__")


def test_wrappers_are_removed_when_the_traced_code_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrumented(tracer):
            raise RuntimeError("operation failed")
    assert not hasattr(repro.graph.metrics.evaluate_discovery, "__wrapped__")


HOST = {"nproc": "2", "blas": "scipy-openblas", "blas_version": "0.3.31",
        "blas_threads": "2", "engine_threads": "1",
        "default_dtype": "float32", "python": "3.11.7", "numpy": "2.4.6",
        "git_revision": "aaa"}


def test_fingerprints_of_one_host_compare_across_revisions():
    check_comparable(HOST, {**HOST, "git_revision": "bbb"})


@pytest.mark.parametrize("field", ["nproc", "blas_threads", "engine_threads",
                                   "default_dtype", "numpy"])
def test_fingerprint_mismatch_refuses_the_comparison(field):
    with pytest.raises(FingerprintMismatch, match=field):
        check_comparable(HOST, {**HOST, field: "other"})


def test_compare_cli_refuses_results_from_different_hosts(tmp_path, capsys):
    def record(path, host, wall):
        path.write_text(json.dumps({
            "workload": "synthetic_sweep", "trace": 0, "fingerprint": host,
            "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}))
        return str(path)

    base = record(tmp_path / "a.json", HOST, 2.0)
    same = record(tmp_path / "b.json", {**HOST, "git_revision": "b"}, 1.0)
    other = record(tmp_path / "c.json", {**HOST, "nproc": "8"}, 1.0)
    assert compare.main(["--base", base, "--change", same]) == 0
    assert "0.500" in capsys.readouterr().out
    assert compare.main(["--base", base, "--change", other]) == 1
    assert "nproc" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["lorenz40_discover", "synthetic_sweep"])
def test_the_seed_changes_every_input_but_the_anchor(name):
    first, again, other = (build_workload(name, seed) for seed in (1, 1, 2))
    assert len(first.variants) == VARIANTS
    per_variant = len(first.datasets) // VARIANTS
    for index, (a, b, c) in enumerate(zip(first.datasets, again.datasets,
                                          other.datasets)):
        assert fingerprint_dataset(a) == fingerprint_dataset(b)
        anchor = index < per_variant
        assert (fingerprint_dataset(a) == fingerprint_dataset(c)) == anchor
