"""Codebook construction by k-means and inner-product nearest-codeword lookup.

Clustering minimizes squared Euclidean distance; lookup selects the
codeword with the largest inner product against the probe. Both are kept
exactly as stated even though the two geometries differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingDataset
from .errors import DimensionError, PreconditionError, check_array, check_sizes


@dataclass(frozen=True)
class KMeansConfig:
    """Clustering knobs; ``seed`` makes the whole run reproducible."""

    n: int
    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_sizes(n=self.n, max_iters=self.max_iters)
        if not self.tol >= 0:
            raise PreconditionError("tol must be nonnegative")


@dataclass(frozen=True)
class Codebook:
    """``n`` codeword rows of dimension ``dim``, frozen after clustering."""

    n: int
    dim: int
    centroids: np.ndarray

    def __post_init__(self):
        check_sizes(n=self.n, dim=self.dim)
        cents = check_array("centroids", self.centroids, (self.n, self.dim))
        object.__setattr__(self, "centroids", cents)
        if np.unique(cents, axis=0).shape[0] != self.n:
            raise PreconditionError("codebook rows must be pairwise distinct")


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # expansion form keeps memory at (P, N); clip absorbs tiny negatives
    p2 = np.sum(points**2, axis=1)[:, None]
    c2 = np.sum(centroids**2, axis=1)[None, :]
    return np.maximum(p2 + c2 - 2.0 * points @ centroids.T, 0.0)


def _plusplus_init(points: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    chosen = np.empty((n, points.shape[1]))
    idx = int(rng.integers(points.shape[0]))
    chosen[0] = points[idx]
    min_d = np.sum((points - chosen[0]) ** 2, axis=1)
    for i in range(1, n):
        # distance-weighted draw; duplicates of chosen points have zero mass
        probs = min_d / min_d.sum()
        idx = int(rng.choice(points.shape[0], p=probs))
        chosen[i] = points[idx]
        min_d = np.minimum(min_d, np.sum((points - chosen[i]) ** 2, axis=1))
    return chosen


def kmeans_with_objectives(
    points: EmbeddingDataset, config: KMeansConfig
) -> tuple[Codebook, list[float]]:
    """Lloyd iterations after seeded distance-weighted initialization.

    Returns the codebook together with the objective (sum of squared
    distances to the nearest centroid) recorded once for the seeded
    centroids and once per accepted iteration. The sequence is
    non-increasing; an iteration whose floating-point objective would rise
    is discarded, which can only happen at a converged fixed point.
    Empty clusters are reseeded to the point farthest from their stale
    centroid. Reruns with the same seed are bit-identical.
    """
    if len(points) == 0:
        raise PreconditionError("cannot cluster an empty dataset")
    X = points.vectors
    distinct = int(np.unique(X, axis=0).shape[0])
    if distinct < config.n:
        raise PreconditionError(
            f"need at least {config.n} distinct points, found {distinct}"
        )
    rng = np.random.default_rng(config.seed)
    centroids = _plusplus_init(X, config.n, rng)
    dists = _sq_distances(X, centroids)
    assign = dists.argmin(axis=1)
    obj = float(dists.min(axis=1).sum())
    objectives = [obj]
    for _ in range(config.max_iters):
        updated = centroids.copy()
        for j in range(config.n):
            mask = assign == j
            if np.any(mask):
                updated[j] = X[mask].mean(axis=0)
        empty = np.flatnonzero(np.bincount(assign, minlength=config.n) == 0)
        used: set[int] = set()
        for j in empty:
            far = np.sum((X - centroids[j]) ** 2, axis=1)
            for idx in np.argsort(-far, kind="stable"):
                if int(idx) not in used:
                    updated[j] = X[int(idx)]
                    used.add(int(idx))
                    break
        new_dists = _sq_distances(X, updated)
        new_obj = float(new_dists.min(axis=1).sum())
        if new_obj > obj:
            break
        centroids = updated
        assign = new_dists.argmin(axis=1)
        objectives.append(new_obj)
        improvement = obj - new_obj
        obj = new_obj
        if improvement < config.tol:
            break
    return Codebook(n=config.n, dim=int(X.shape[1]), centroids=centroids), objectives


def kmeans(points: EmbeddingDataset, config: KMeansConfig) -> Codebook:
    """Cluster into ``config.n`` codewords under squared Euclidean distance."""
    codebook, _ = kmeans_with_objectives(points, config)
    return codebook


def route(points: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Codeword index with the largest inner product for every row of ``points``.

    The one routing rule, one matrix product per batch; ties go to the lowest index.
    """
    return (points @ codebook.centroids.T).argmax(axis=1)


def quantize(p, codebook: Codebook) -> int:
    """``route`` for a single probe ``p``, after checking its shape and values."""
    vec = check_array("probe", p, (codebook.dim,))
    return int(route(vec[None, :], codebook)[0])


def assignment_report(dataset: EmbeddingDataset, codebook: Codebook) -> np.ndarray:
    """The codeword index of every record, in record order, by inner product."""
    if len(dataset) == 0:
        return np.zeros(0, dtype=np.intp)
    if dataset.dim != codebook.dim:
        raise DimensionError(
            f"dataset dimension {dataset.dim} does not match codebook dimension {codebook.dim}"
        )
    return route(dataset.vectors, codebook)
