"""Codebook construction by k-means and inner-product nearest-codeword lookup.

Clustering minimizes squared Euclidean distance; lookup selects the
codeword with the largest inner product against the probe. Both are kept
exactly as stated even though the two geometries differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingDataset
from .errors import DimensionError, NumericalError, PreconditionError, check_array, check_seed, check_sizes


@dataclass(frozen=True)
class KMeansConfig:
    """Clustering knobs; ``seed`` makes the whole run reproducible."""

    n: int
    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_sizes(n=self.n, max_iters=self.max_iters)
        check_seed(self.seed)
        object.__setattr__(self, "tol", float(check_array("tol", self.tol)))
        if not self.tol >= 0:
            raise PreconditionError("tol must be nonnegative")


@dataclass(frozen=True, eq=False)
class Codebook:
    """``n`` pairwise distinct codeword rows of dimension ``dim``, frozen
    after clustering; both sizes are read off ``centroids``."""

    centroids: np.ndarray

    def __post_init__(self):
        cents = check_array("centroids", self.centroids, (None, None))
        object.__setattr__(self, "centroids", cents)
        if _distinct_rows(cents) != self.n:
            raise PreconditionError("codebook rows must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _distinct_rows(rows: np.ndarray) -> int:
    """How many distinct rows a finite 2-D array holds, compared as floats:
    adding 0.0 makes every -0.0 a 0.0, so equal rows have equal bytes."""
    return len({(row + 0.0).tobytes() for row in rows})


def _sq_distances(points, centroids: np.ndarray) -> np.ndarray:
    # expansion form keeps memory at (P, N); clip absorbs tiny negatives. ``points``
    # is the rows and their squared norms; (2c)x is (2x)c exactly, with no (P, d) copy
    X, p2 = points
    c2 = np.sum(centroids**2, axis=1)[None, :]
    return np.maximum(p2[:, None] + c2 - X @ (2.0 * centroids).T, 0.0)


def _finite(values, what: str):
    """``values``, unless one is not finite: the computation overflowed."""
    if not np.isfinite(values).all():
        raise NumericalError(f"non-finite {what}")
    return values


def _plusplus_init(points: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    chosen = np.empty((n, points.shape[1]))
    buf = np.empty_like(points)  # each (P, d) difference: the bits of np.sum((points - c)**2, axis=1)
    idx = int(rng.integers(points.shape[0]))
    chosen[0] = points[idx]
    min_d = np.sum(np.square(np.subtract(points, chosen[0], out=buf), out=buf), axis=1)
    for i in range(1, n):
        # distance-weighted draw; duplicates of chosen points have zero mass
        probs = min_d / _finite(min_d.sum(), "squared distances in k-means seeding")
        idx = int(rng.choice(points.shape[0], p=probs))
        chosen[i] = points[idx]
        min_d = np.minimum(min_d, np.sum(np.square(np.subtract(points, chosen[i], out=buf), out=buf), axis=1))
    return chosen


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericalError
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
    distinct = _distinct_rows(X)
    if distinct < config.n:
        raise PreconditionError(
            f"need at least {config.n} distinct points, found {distinct}"
        )
    rng = np.random.default_rng(config.seed)
    centroids = _plusplus_init(X, config.n, rng)
    with_norms = X, np.sum(X**2, axis=1)
    dists = _sq_distances(with_norms, centroids)
    assign = dists.argmin(axis=1)
    obj = float(_finite(dists.min(axis=1).sum(), "squared distances in k-means seeding"))
    objectives = [obj]
    for _ in range(config.max_iters):
        updated = centroids.copy()
        for j in range(config.n):
            mask = assign == j
            if np.any(mask):
                updated[j] = X[mask].mean(axis=0)
        empty = np.flatnonzero(np.bincount(assign, minlength=config.n) == 0)
        used: set[int] = set()
        buf = np.empty_like(X) if len(empty) else None
        for j in empty:
            far = np.sum(np.square(np.subtract(X, centroids[j], out=buf), out=buf), axis=1)
            for idx in np.argsort(-far, kind="stable"):
                if int(idx) not in used:
                    updated[j] = X[int(idx)]
                    used.add(int(idx))
                    break
        del buf
        new_dists = _sq_distances(with_norms, updated)
        new_obj = float(_finite(new_dists.min(axis=1).sum(),
                                f"squared distances in k-means iteration {len(objectives)}"))
        if new_obj > obj:
            break
        centroids = updated
        assign = new_dists.argmin(axis=1)
        objectives.append(new_obj)
        improvement = obj - new_obj
        obj = new_obj
        if improvement < config.tol:
            break
    return Codebook(centroids), objectives


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericalError
def route(points: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Codeword index with the largest inner product for every row of ``points``.

    The one routing rule, one matrix product per batch; ties go to the lowest index.
    """
    return _finite(points @ codebook.centroids.T, "routing scores").argmax(axis=1)


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
