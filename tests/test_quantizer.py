import itertools
import math

import numpy as np
import pytest

from pedbank.errors import DimensionError, PreconditionError
from pedbank.quantizer import (
    Codebook,
    KMeansConfig,
    assignment_report,
    kmeans,
    kmeans_with_objectives,
    quantize,
)

from support import make_dataset


def brute_force_best_two_clusters(points):
    """Enumerate every 2-partition and return the optimal centroids/objective."""
    best_obj, best_cents = math.inf, None
    pts = np.asarray(points)
    for assign in itertools.product((0, 1), repeat=len(pts)):
        assign = np.asarray(assign)
        if assign.min() == assign.max():
            continue
        cents = np.stack([pts[assign == j].mean(axis=0) for j in (0, 1)])
        obj = sum(float(((p - cents[a]) ** 2).sum()) for p, a in zip(pts, assign))
        if obj < best_obj:
            best_obj, best_cents = obj, cents
    return best_obj, best_cents


def recompute_objective(points, centroids):
    total = 0.0
    for p in points:
        total += min(float(((p - c) ** 2).sum()) for c in centroids)
    return total


class TestKMeans:
    def test_two_pair_global_optimum(self):
        pts = [[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]]
        best_obj, best_cents = brute_force_best_two_clusters(pts)
        cb, objs = kmeans_with_objectives(make_dataset(pts), KMeansConfig(n=2, seed=0))
        got = sorted(cb.centroids.tolist())
        np.testing.assert_allclose(got, sorted(best_cents.tolist()), atol=1e-12)
        np.testing.assert_allclose(got, [[0.0, 0.5], [10.0, 10.5]], atol=1e-12)
        assert math.isclose(objs[-1], best_obj, rel_tol=1e-12)

    def test_n_equals_point_count_recovers_points(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
        cb, objs = kmeans_with_objectives(make_dataset(pts), KMeansConfig(n=4, seed=1))
        assert sorted(cb.centroids.tolist()) == sorted(pts)
        assert objs[-1] == 0.0

    def test_objectives_non_increasing_and_final_exact(self):
        pts = np.random.default_rng(3).normal(size=(500, 8))
        ds = make_dataset(pts)
        cb, objs = kmeans_with_objectives(ds, KMeansConfig(n=50, seed=3))
        assert len(objs) >= 1
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        assert objs[-1] <= objs[0]
        assert math.isclose(objs[-1], recompute_objective(pts, cb.centroids), rel_tol=1e-9)

    def test_same_seed_is_bit_identical(self):
        pts = np.random.default_rng(3).normal(size=(500, 8))
        ds = make_dataset(pts)
        cb1, o1 = kmeans_with_objectives(ds, KMeansConfig(n=50, seed=3))
        cb2, o2 = kmeans_with_objectives(ds, KMeansConfig(n=50, seed=3))
        np.testing.assert_array_equal(cb1.centroids, cb2.centroids)
        assert o1 == o2

    def test_different_seeds_allowed(self):
        pts = np.random.default_rng(4).normal(size=(60, 3))
        ds = make_dataset(pts)
        for seed in (0, 1, 2):
            cb = kmeans(ds, KMeansConfig(n=5, seed=seed))
            assert cb.centroids.shape == (5, 3)

    def test_rejects_fewer_distinct_points_than_n(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        with pytest.raises(PreconditionError, match="distinct"):
            kmeans(make_dataset(pts), KMeansConfig(n=4, seed=0))

    def test_rejects_empty_dataset(self):
        with pytest.raises(PreconditionError, match="empty"):
            kmeans(make_dataset([]), KMeansConfig(n=1, seed=0))

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            KMeansConfig(n=0)
        with pytest.raises(PreconditionError):
            KMeansConfig(n=1, max_iters=0)
        with pytest.raises(PreconditionError):
            KMeansConfig(n=1, tol=-1.0)

    @pytest.mark.parametrize("size", [0, True, 1.0, 2.5])
    def test_config_sizes_must_be_positive_integers(self, size):
        with pytest.raises(PreconditionError, match="positive integers"):
            KMeansConfig(n=size)
        with pytest.raises(PreconditionError, match="positive integers"):
            KMeansConfig(n=1, max_iters=size)


class TestQuantize:
    def test_identity_codebook(self):
        cb = Codebook(n=2, dim=2, centroids=np.eye(2))
        assert quantize([0.9, 0.1], cb) == 0
        assert quantize([0.1, 0.9], cb) == 1

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook(n=2, dim=2, centroids=np.eye(2))
        assert quantize([0.5, 0.5], cb) == 0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        cb = Codebook(n=16, dim=32, centroids=rng.normal(size=(16, 32)))
        for _ in range(100):
            p = rng.normal(size=32)
            best, best_score = 0, float(np.dot(cb.centroids[0], p))
            for i in range(1, 16):
                score = float(np.dot(cb.centroids[i], p))
                if score > best_score:
                    best, best_score = i, score
            assert quantize(p, cb) == best

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(23)
        cb = Codebook(n=8, dim=16, centroids=rng.normal(size=(8, 16)))
        for _ in range(200):
            p = rng.normal(size=16)
            base = quantize(p, cb)
            for s in (0.5, 2.0, 3.7, 1e3, 1e-3):
                assert quantize(s * p, cb) == base

    def test_dimension_mismatch(self):
        cb = Codebook(n=2, dim=2, centroids=np.eye(2))
        with pytest.raises(DimensionError):
            quantize([1.0, 2.0, 3.0], cb)


class TestCodebook:
    @pytest.mark.parametrize("size", [0, True, 1.0])
    def test_sizes_must_be_positive_integers(self, size):
        # centroids of the matching shape, so only the size rule can reject
        with pytest.raises(PreconditionError, match="positive integers"):
            Codebook(n=size, dim=2, centroids=np.ones((int(size), 2)))
        with pytest.raises(PreconditionError, match="positive integers"):
            Codebook(n=1, dim=size, centroids=np.ones((1, int(size))))

    def test_rejects_duplicate_rows(self):
        with pytest.raises(PreconditionError, match="distinct"):
            Codebook(n=2, dim=2, centroids=np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Codebook(n=3, dim=2, centroids=np.eye(2))

    def test_rejects_non_finite(self):
        cents = np.eye(2)
        cents[0, 0] = np.nan
        with pytest.raises(PreconditionError):
            Codebook(n=2, dim=2, centroids=cents)


def report(dataset, codebook):
    """Per-codeword counts and id groups, derived from ``assignment_report``."""
    assigned = assignment_report(dataset, codebook).tolist()
    groups = {
        i: tuple(rec_id for rec_id, a in zip(dataset.ids, assigned) if a == i)
        for i in range(codebook.n)
    }
    return np.bincount(assigned, minlength=codebook.n), groups


class TestAssignmentReport:
    def test_counts_and_groups(self):
        cb = Codebook(n=3, dim=2, centroids=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        ds = make_dataset([[2.0, 0.1], [3.0, 0.0], [0.0, 5.0]])
        counts, groups = report(ds, cb)
        np.testing.assert_array_equal(counts, [2, 1, 0])
        assert groups[0] == ("r0", "r1")
        assert groups[1] == ("r2",)
        assert groups[2] == ()

    def test_empty_dataset_all_zero(self):
        cb = Codebook(n=4, dim=3, centroids=np.random.default_rng(0).normal(size=(4, 3)))
        counts, groups = report(make_dataset([]), cb)
        np.testing.assert_array_equal(counts, np.zeros(4, dtype=np.int64))
        assert all(groups[i] == () for i in range(4))

    def test_matches_per_record_quantize(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 16))
        ds = make_dataset(pts)
        cb = kmeans(ds, KMeansConfig(n=10, seed=5))
        counts, groups = report(ds, cb)
        assert int(counts.sum()) == 300
        for rec_id, vector in zip(ds.ids, ds.vectors):
            idx = quantize(vector, cb)
            assert rec_id in groups[idx]
        for i in range(10):
            assert int(counts[i]) == len(groups[i])

    def test_dimension_mismatch(self):
        cb = Codebook(n=2, dim=2, centroids=np.eye(2))
        with pytest.raises(DimensionError):
            assignment_report(make_dataset([[1.0, 2.0, 3.0]]), cb)
