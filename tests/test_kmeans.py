"""Spherical k-means: convergence, determinism, and cluster repair."""

import numpy as np
import pytest

from mipscreen.core import l2_normalize
from mipscreen.kmeans import KMeansConfig, fit_spherical_kmeans, spherical_kmeans
from mipscreen.search import argmax_batch


def _angle_deg(u, v):
    cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


class TestSphericalKMeans:
    def test_identical_points_single_cluster(self):
        v = np.array([2.0, -1.0, 2.0], dtype=np.float32)
        points = np.tile(v, (10, 1))
        trace = fit_spherical_kmeans(points, KMeansConfig(k=1, seed=0))
        np.testing.assert_allclose(trace.centroids[0], l2_normalize(v), atol=1e-6)
        assert len(trace.objective) == 1

    def test_identical_points_can_leave_a_cluster_empty(self):
        """Fewer distinct directions than K: `_repair_empty` finds no point
        to move, and the fit still returns."""
        points = np.tile(np.array([2.0, -1.0, 2.0], dtype=np.float32), (5, 1))
        trace = fit_spherical_kmeans(points, KMeansConfig(k=3, seed=0))
        np.testing.assert_allclose(np.linalg.norm(trace.centroids, axis=1), 1.0, atol=1e-6)
        counts = np.bincount(trace.labels, minlength=3)
        assert counts.sum() == 5 and np.count_nonzero(counts == 0) == 1

    def test_two_tight_groups(self):
        rng = np.random.default_rng(21)
        a = np.array([1.0, 0.0]) + rng.normal(0, 0.02, size=(40, 2))
        b = np.array([-1.0, 0.0]) + rng.normal(0, 0.02, size=(40, 2))
        points = np.vstack([a, b]).astype(np.float32)
        centroids = spherical_kmeans(points, KMeansConfig(k=2, seed=3))
        angles = sorted(
            min(_angle_deg(c, [1.0, 0.0]), _angle_deg(c, [-1.0, 0.0]))
            for c in centroids
        )
        assert angles[1] < 5.0
        # one centroid per group, not both on the same side
        sides = sorted(np.sign(centroids[:, 0]))
        assert sides == [-1.0, 1.0]

    def test_k_equals_point_count_is_bijection(self):
        rng = np.random.default_rng(22)
        points = rng.normal(size=(6, 4)).astype(np.float32)
        trace = fit_spherical_kmeans(points, KMeansConfig(k=6, seed=1))
        assert sorted(trace.labels.tolist()) == list(range(6))
        normalized = {tuple(np.round(l2_normalize(p), 5)) for p in points}
        got = {tuple(np.round(c, 5)) for c in trace.centroids}
        assert got == normalized

    def test_centroids_unit_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            points = rng.normal(size=(30, 5)).astype(np.float32)
            centroids = spherical_kmeans(points, KMeansConfig(k=4, seed=int(rng.integers(1e6))))
            np.testing.assert_allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-5)

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            points = rng.normal(size=(60, 6)).astype(np.float32)
            trace = fit_spherical_kmeans(
                points, KMeansConfig(k=5, seed=int(rng.integers(1e6)))
            )
            diffs = np.diff(trace.objective)
            assert np.all(diffs >= -1e-9)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(25)
        points = rng.normal(size=(50, 8)).astype(np.float32)
        a = spherical_kmeans(points, KMeansConfig(k=7, seed=99))
        b = spherical_kmeans(points, KMeansConfig(k=7, seed=99))
        assert a.tobytes() == b.tobytes()

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(26)
        for trial in range(100):
            n = int(rng.integers(8, 60))
            k = int(rng.integers(2, min(n, 9)))
            points = rng.normal(size=(n, 3)).astype(np.float32)
            centroids = spherical_kmeans(points, KMeansConfig(k=k, seed=trial))
            counts = np.bincount(argmax_batch(points, centroids), minlength=k)
            assert counts.min() >= 1

    def test_k_larger_than_point_count_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            spherical_kmeans(np.ones((3, 2), dtype=np.float32), KMeansConfig(k=4))

    def test_zero_point_rejected(self):
        points = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="zero"):
            spherical_kmeans(points, KMeansConfig(k=1))


class TestHardAssign:
    def test_self_assignment(self):
        rng = np.random.default_rng(27)
        centroids = rng.normal(size=(5, 4))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids = centroids.astype(np.float32)
        assert argmax_batch(centroids[3:4], centroids)[0] == 3

    def test_tie_to_lowest(self):
        centroids = np.eye(2, dtype=np.float32)
        assert argmax_batch([[1.0, 1.0]], centroids)[0] == 0

    def test_hand_case(self):
        centroids = np.eye(2, dtype=np.float32)
        assert argmax_batch([[0.9, 0.1]], centroids)[0] == 0

    def test_empty_centroids_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            argmax_batch([[1.0]], np.zeros((0, 1), dtype=np.float32))
