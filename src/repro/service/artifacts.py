"""Run-directory artifact store for discovery results.

The cache (:mod:`repro.service.cache`) answers "have I computed this exact
job before?"; the artifact store answers "what did run so-and-so produce?".
A store manages numbered run directories, and each run persists discovered
graphs, scores, full job results and a manifest as human-readable JSON:

    <root>/
      run-0001/
        manifest.json
        results/<job_id>.json
        graphs/<name>.json
        scores/<name>.json
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional

from repro.graph.causal_graph import TemporalCausalGraph
from repro.service.jobs import JobResult

_RUN_PATTERN = re.compile(r"^run-(\d{4,})$")


def _write_json(path: str, payload: Any) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
    return path


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class RunArtifacts:
    """One run directory: graphs, scores, job results and a manifest."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)

    @property
    def run_id(self) -> str:
        return os.path.basename(os.path.normpath(self.path))

    # ------------------------------------------------------------------ #
    # Graphs and scores
    # ------------------------------------------------------------------ #
    def save_graph(self, name: str, graph: TemporalCausalGraph) -> str:
        return _write_json(os.path.join(self.path, "graphs", f"{name}.json"),
                           graph.to_dict())

    def load_graph(self, name: str) -> TemporalCausalGraph:
        return TemporalCausalGraph.from_dict(
            _read_json(os.path.join(self.path, "graphs", f"{name}.json")))

    def save_scores(self, name: str, scores: Dict[str, Any]) -> str:
        return _write_json(os.path.join(self.path, "scores", f"{name}.json"), scores)

    def load_scores(self, name: str) -> Dict[str, Any]:
        return _read_json(os.path.join(self.path, "scores", f"{name}.json"))

    # ------------------------------------------------------------------ #
    # Job results and the manifest
    # ------------------------------------------------------------------ #
    def save_result(self, result: JobResult) -> str:
        """Persist a full job result under ``results/<job_id>.json``."""
        return _write_json(os.path.join(self.path, "results", f"{result.job.job_id}.json"),
                           result.to_dict())

    def load_results(self) -> List[JobResult]:
        results_dir = os.path.join(self.path, "results")
        if not os.path.isdir(results_dir):
            return []
        return [JobResult.from_dict(_read_json(os.path.join(results_dir, entry)))
                for entry in sorted(os.listdir(results_dir))
                if entry.endswith(".json")]

    def write_manifest(self, payload: Dict[str, Any]) -> str:
        return _write_json(os.path.join(self.path, "manifest.json"), payload)

    def read_manifest(self) -> Dict[str, Any]:
        return _read_json(os.path.join(self.path, "manifest.json"))

    def __repr__(self) -> str:
        return f"RunArtifacts({self.path!r})"


class ArtifactStore:
    """A root directory of sequentially numbered run directories."""

    def __init__(self, root: str) -> None:
        self.root = str(root)

    def run_ids(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(entry for entry in os.listdir(self.root)
                      if _RUN_PATTERN.match(entry)
                      and os.path.isdir(os.path.join(self.root, entry)))

    def create_run(self) -> RunArtifacts:
        """Allocate the next ``run-NNNN`` directory (atomic under contention)."""
        os.makedirs(self.root, exist_ok=True)
        existing = self.run_ids()
        next_index = 1
        if existing:
            next_index = max(int(_RUN_PATTERN.match(run).group(1)) for run in existing) + 1
        while True:
            path = os.path.join(self.root, f"run-{next_index:04d}")
            try:
                # exist_ok=False claims the directory atomically, so two
                # concurrent runs can never share one run id.
                os.makedirs(path)
            except FileExistsError:
                next_index += 1
                continue
            return RunArtifacts(path)

    def open_run(self, run_id: str) -> RunArtifacts:
        path = os.path.join(self.root, run_id)
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no run {run_id!r} under {self.root}")
        return RunArtifacts(path)

    def latest_run(self) -> Optional[RunArtifacts]:
        runs = self.run_ids()
        return self.open_run(runs[-1]) if runs else None

    def __repr__(self) -> str:
        return f"ArtifactStore({self.root!r})"
