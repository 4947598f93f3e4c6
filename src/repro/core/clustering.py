"""K-means clustering of causal scores (paper Sec. 4.2.3).

The causal-graph construction clusters the causal scores of each target
series' candidate causes into ``n`` classes with k-means (Lloyd, 1982),
sorts the classes by centroid, and keeps the members of the top ``m``
classes as causes.  This module provides a small, dependency-free k-means
(with k-means++ seeding and restarts) plus the top-cluster selection helper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def kmeans(values: np.ndarray, n_clusters: int, n_restarts: int = 4,
           max_iterations: int = 100, rng: Optional[np.random.Generator] = None
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster 1-D or multi-D points; returns ``(labels, centroids)``.

    Parameters
    ----------
    values:
        Array of shape ``(n_points,)`` or ``(n_points, n_features)``.
    n_clusters:
        Number of clusters ``n``; silently reduced when there are fewer
        distinct points than clusters.
    """
    points = np.asarray(values, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n_points = points.shape[0]
    if n_points == 0:
        raise ValueError("cannot cluster an empty set of points")
    n_distinct = len(np.unique(points, axis=0))
    n_clusters = max(1, min(n_clusters, n_distinct))
    rng = rng or np.random.default_rng(0)

    best_labels = None
    best_centroids = None
    best_inertia = np.inf
    for _restart in range(max(1, n_restarts)):
        centroids = _kmeans_plus_plus(points, n_clusters, rng)
        labels = np.zeros(n_points, dtype=int)
        for _iteration in range(max_iterations):
            distances = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
            new_labels = distances.argmin(axis=1)
            if np.array_equal(new_labels, labels) and _iteration > 0:
                break
            labels = new_labels
            for cluster in range(n_clusters):
                members = points[labels == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels.copy()
            best_centroids = centroids.copy()
    return best_labels, best_centroids


def _kmeans_plus_plus(points: np.ndarray, n_clusters: int,
                      rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids apart."""
    n_points = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]))
    first = rng.integers(n_points)
    centroids[0] = points[first]
    for k in range(1, n_clusters):
        distances = np.min(
            np.linalg.norm(points[:, None, :] - centroids[None, :k, :], axis=2) ** 2, axis=1)
        total = distances.sum()
        if total <= 0:
            centroids[k] = points[rng.integers(n_points)]
            continue
        probabilities = distances / total
        centroids[k] = points[rng.choice(n_points, p=probabilities)]
    return centroids


#: relative spread below which ``select_top_scores`` treats scores as tied
TIE_RTOL = 1e-5


def select_top_scores(scores: np.ndarray, n_clusters: int, top_clusters: int,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Boolean mask of the scores falling in the top ``m`` of ``n`` clusters.

    This is the density control of the causal-graph construction: a larger
    ``m/n`` keeps more clusters and yields a denser graph.  Scores tied to
    within ``TIE_RTOL`` of their largest magnitude have no structure to
    cluster: all of them are kept when the common value is positive.  The
    tie test is relative, so rescaling the scores by a power of two never
    changes the mask.  On every branch a score of zero (or below) is never
    kept: a zero causal score should never create an edge, even when the
    kept clusters reach down to it.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size == 0:
        return np.zeros(0, dtype=bool)
    if top_clusters <= 0:
        return np.zeros_like(scores, dtype=bool)
    positive = scores > 0
    if top_clusters >= n_clusters \
            or np.ptp(scores) <= TIE_RTOL * np.abs(scores).max():
        # Every cluster is kept, or the scores are tied (a tie never mixes
        # signs) and have no structure to cluster.
        return positive
    labels, centroids = kmeans(scores, n_clusters, rng=rng)
    order = np.argsort(-centroids[:, 0])
    keep_clusters = set(order[:top_clusters].tolist())
    return np.isin(labels, list(keep_clusters)) & positive
