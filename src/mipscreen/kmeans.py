"""Spherical k-means on unit-normalized points.

Used to seed the screening model's context-cluster centroids. Points are
normalized once up front; assignment is by cosine (equivalently inner
product against unit centroids) and cluster means are renormalized each
round. Seeded k-means++ picks the starting centroids, and clusters that
lose all members are reseeded from the worst-fit point so the cluster
count never shrinks.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_matrix, check_finite, inner_product_argmax, normalize_rows

_MAX_ITERS = 50
_TOL = 1e-4  # mean centroid movement that counts as converged


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    seed: int = 42

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class KMeansTrace:
    centroids: np.ndarray  # (K, D) float32, unit rows
    labels: np.ndarray  # (M,) final assignment
    objective: list  # summed cosine to assigned centroid, per iteration


def _plusplus_init(points_n: np.ndarray, k: int, rng) -> np.ndarray:
    """Seeded k-means++ on unit rows; distances are 2 - 2*cos."""
    m = points_n.shape[0]
    chosen = [int(rng.integers(m))]
    dist2 = np.maximum(0.0, 2.0 - 2.0 * (points_n @ points_n[chosen[0]]))
    for _ in range(1, k):
        total = float(dist2.sum())
        if total <= 0.0:
            # every point coincides with a chosen centroid; take the
            # lowest index not already used
            taken = set(chosen)
            nxt = next(i for i in range(m) if i not in taken)
        else:
            r = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(dist2), r, side="right"))
            nxt = min(nxt, m - 1)
        chosen.append(nxt)
        dist2 = np.minimum(
            dist2, np.maximum(0.0, 2.0 - 2.0 * (points_n @ points_n[nxt]))
        )
    return points_n[chosen].copy()


def _repair_empty(points_n, centroids, labels):
    """Reseed any memberless cluster from the worst-assigned point.

    The stolen point must come from a cluster keeping >= 2 members, and
    must actually land in the reseeded cluster under lowest-index argmax
    (duplicates of an earlier centroid cannot claim it). Degenerate inputs
    where no such point exists leave the cluster empty. Points with K or
    more directions, no two within rounding of each other, always leave
    one: a point stays put only if it is alone in its cluster or lies on
    its own centroid or on a reseeded one, and the K - 1 other clusters
    account for at most K - 1 such directions.
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return labels
    fit = np.einsum("ij,ij->i", points_n, centroids[labels])
    for ke in empties:
        for i in np.argsort(fit, kind="stable"):
            i = int(i)
            if counts[labels[i]] < 2:
                continue
            candidate = points_n[i]
            trial = centroids.copy()
            trial[ke] = candidate
            if inner_product_argmax(candidate[None], trial)[0] != ke:
                continue
            counts[labels[i]] -= 1
            counts[ke] += 1
            labels[i] = ke
            centroids[ke] = candidate
            fit[i] = 1.0
            break
    return labels


def fit_spherical_kmeans(points, cfg: KMeansConfig) -> KMeansTrace:
    """Full clustering run, keeping the per-iteration objective."""
    points = as_matrix(points)
    check_finite(points, "points")
    if cfg.k > points.shape[0]:
        raise ValueError(
            f"k={cfg.k} exceeds point count {points.shape[0]}"
        )
    points_n = normalize_rows(points).astype(np.float64)
    rng = np.random.default_rng(cfg.seed)
    centroids = _plusplus_init(points_n, cfg.k, rng)

    objective = []
    labels = np.zeros(points_n.shape[0], dtype=np.int64)
    for _ in range(_MAX_ITERS):
        labels = inner_product_argmax(points_n, centroids)
        labels = _repair_empty(points_n, centroids, labels)
        new_centroids = centroids.copy()
        for j in range(cfg.k):
            members = points_n[labels == j]
            if members.shape[0] == 0:
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0.0:
                new_centroids[j] = mean / norm
        movement = float(
            np.mean(np.linalg.norm(new_centroids - centroids, axis=1))
        )
        centroids = new_centroids
        objective.append(
            float(np.einsum("ij,ij->i", points_n, centroids[labels]).sum())
        )
        if movement < _TOL:
            break

    # converged centroids may have drifted a cluster empty; fix once more
    labels = inner_product_argmax(points_n, centroids)
    labels = _repair_empty(points_n, centroids, labels)
    return KMeansTrace(centroids.astype(np.float32), labels, objective)


def spherical_kmeans(points, cfg: KMeansConfig) -> np.ndarray:
    """K unit-norm centroids for `points` (see fit_spherical_kmeans)."""
    return fit_spherical_kmeans(points, cfg).centroids
