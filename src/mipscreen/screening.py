"""Learned candidate screening for maximum inner product search.

A screening model is K context-cluster centroids paired with K binary
candidate subsets. A query is assigned to its best cluster and scored only
against that cluster's subset, trading a small accuracy loss for a large
cut in dot products.

The training objective is bilinear in the soft assignment mu (M, K) and
the subset bits s (K, N): M + sum_ikj mu_ik s_kj (lam - (lam + 1) [j == y_i]),
with y_i the best candidate of context i. Its derivative in s is alpha
(`compute_alpha`), its derivative in mu the cluster-cost table
(`_cluster_costs`). Training alternates two moves: with centroids fixed
the optimal subsets have a closed form (keep s_kj exactly when alpha_kj
<= 0), and with subsets fixed the centroids move by mini-batch gradient
descent through the softmax that gives mu.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import as_matrix, as_vector, check_finite, inner_product, inner_product_argmax
from .core import read_container, write_container
from .kmeans import KMeansConfig, spherical_kmeans
from .search import SearchResult

_MAGIC = b"SCRN"
_HEADER = "<IIId"  # K, N, D, lambda


def pack_subsets(bits) -> np.ndarray:
    """Pack a (K, N) 0/1 matrix into bytes, bit j at byte j//8, bit j%8."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("subset matrix must be 2-D")
    return np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")


def unpack_subsets(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_subsets; returns a (K, n) bool matrix."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


@dataclass(frozen=True, eq=False)
class ScreeningModel:
    """Trained screening predictor: centroids plus bit-packed subsets."""

    centroids: np.ndarray  # (K, D) float32
    subsets: np.ndarray  # (K, ceil(N/8)) packed uint8
    lam: float
    n_candidates: int

    def __post_init__(self):
        c = self.centroids
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centroids must be a non-empty 2-D matrix")
        check_finite(c, "centroids")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        if self.n_candidates < 1:
            raise ValueError("candidate count must be >= 1")
        expect = (c.shape[0], (self.n_candidates + 7) // 8)
        if self.subsets.shape != expect or self.subsets.dtype != np.uint8:
            raise ValueError(
                f"packed subsets must have shape {expect} uint8, "
                f"got {self.subsets.shape} {self.subsets.dtype}"
            )

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @cached_property
    def subset_bools(self) -> np.ndarray:
        return unpack_subsets(self.subsets, self.n_candidates)

    @cached_property
    def member_indices(self) -> list:
        return [np.flatnonzero(row) for row in self.subset_bools]

    @cached_property
    def subset_sizes(self) -> np.ndarray:
        return np.array([idx.size for idx in self.member_indices])


@dataclass(frozen=True, eq=False)
class ScreeningTrainSet:
    """Context embeddings, candidate embeddings, and oracle best labels."""

    contexts: np.ndarray  # (M, D) float32
    candidates: np.ndarray  # (N, D) float32
    labels: np.ndarray  # (M,) best-candidate index per context

    def __post_init__(self):
        object.__setattr__(self, "contexts", as_matrix(self.contexts))
        object.__setattr__(self, "candidates", as_matrix(self.candidates))
        object.__setattr__(
            self, "labels", np.asarray(self.labels, dtype=np.int64)
        )
        if self.contexts.shape[0] < 1 or self.candidates.shape[0] < 1:
            raise ValueError("train set must be non-empty")
        if self.contexts.shape[1] != self.candidates.shape[1]:
            raise ValueError("context and candidate dimensions differ")
        if self.labels.shape != (self.contexts.shape[0],):
            raise ValueError("need exactly one label per context")
        if self.labels.min() < 0 or self.labels.max() >= self.candidates.shape[0]:
            raise ValueError("label index out of candidate range")


@dataclass(frozen=True)
class TrainConfig:
    k: int = 10
    lam: float = 1e-6
    alternations: int = 10  # closed-form subset step + SGD step pairs
    learning_rate: float = 0.05
    epochs_per_alternation: int = 1
    batch_size: int = 256
    seed: int = 42

    def __post_init__(self):
        if self.k < 1 or self.alternations < 1:
            raise ValueError("k and alternations must be >= 1")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("bad SGD parameters")
        if self.epochs_per_alternation < 0:
            raise ValueError("epochs_per_alternation must be >= 0")


@dataclass(frozen=True, eq=False)
class TrainResult:
    model: ScreeningModel
    losses_before_subset: list  # objective right before each subset step
    losses_after_subset: list  # objective right after each subset step
    best_step: int


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def soft_assign(c, centroids) -> np.ndarray:
    """Cluster membership probabilities: softmax over centroid dots."""
    return soft_assign_batch(as_vector(c)[None], centroids)[0]


def soft_assign_batch(contexts, centroids) -> np.ndarray:
    """(M, K) soft assignments for every context row."""
    contexts = as_matrix(contexts)
    centroids = as_matrix(centroids)
    z = contexts.astype(np.float64) @ centroids.astype(np.float64).T
    return _softmax_rows(z)


def retrieve_prob(mu: np.ndarray, subsets: np.ndarray, j: int) -> float:
    """Probability of candidate j surviving screening: sum_k mu_k s_k[j].

    A convex combination of bits, so the clamp only strips float rounding.
    """
    subsets = np.asarray(subsets)
    if not 0 <= j < subsets.shape[1]:
        raise IndexError(f"candidate index {j} out of range")
    p = float(np.dot(mu, subsets[:, j].astype(np.float64)))
    return min(max(p, 0.0), 1.0)


def pair_loss(p: float, y: int, lam: float) -> float:
    """Cost of one (context, candidate) pair.

    Including a non-best candidate costs lam * p; missing the best one
    costs 1 - p. lam far below 1 encodes that a redundant candidate is far
    cheaper than losing the true best.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return lam * p * (1 - y) + (1.0 - p) * y


def _cluster_costs(subset_bools, labels, lam) -> np.ndarray:
    """(M, K) weight of context i in cluster k: lam * |s_k| - (lam + 1) *
    s_k[y_i]. The objective is M + sum(mu * costs)."""
    pop = subset_bools.sum(axis=1).astype(np.float64)
    return lam * pop[None, :] - (lam + 1.0) * subset_bools[:, labels].T


def _objective(mu, costs) -> float:
    return mu.shape[0] + float(np.einsum("ik,ik->", mu, costs))


def total_loss(model: ScreeningModel, trainset: ScreeningTrainSet) -> float:
    """Screening objective summed over every (context, candidate) pair."""
    if model.n_candidates != trainset.candidates.shape[0]:
        raise ValueError("model and train set disagree on candidate count")
    if model.dim != trainset.contexts.shape[1]:
        raise ValueError("model and train set disagree on dimension")
    mu = soft_assign_batch(trainset.contexts, model.centroids)
    return _objective(mu, _cluster_costs(model.subset_bools, trainset.labels, model.lam))


def compute_alpha(
    mu_matrix: np.ndarray, trainset: ScreeningTrainSet, lam: float
) -> np.ndarray:
    """Per-bit coefficients of the objective once centroids are fixed.

    alpha[k, j] weights subset bit s_k[j]; the bit's optimal value is 1
    exactly when the coefficient is <= 0.
    """
    mu = np.asarray(mu_matrix, dtype=np.float64)
    m, k = mu.shape
    if m != trainset.contexts.shape[0]:
        raise ValueError("mu row count must match context count")
    n = trainset.candidates.shape[0]
    label_mass = np.zeros((n, k))
    np.add.at(label_mass, trainset.labels, mu)
    col_mass = mu.sum(axis=0)
    return lam * col_mass[:, None] - (lam + 1.0) * label_mass.T


def update_subsets(alpha: np.ndarray) -> np.ndarray:
    """Exact minimizer of the objective over subset bits: keep alpha <= 0."""
    alpha = np.asarray(alpha)
    check_finite(alpha, "alpha")
    return alpha <= 0.0


def _gradient(centroids64, contexts64, costs):
    """d(objective)/d(centroids), summed over contexts with these costs."""
    mu = _softmax_rows(contexts64 @ centroids64.T)
    inner = np.einsum("ik,ik->i", mu, costs)
    return (mu * (costs - inner[:, None])).T @ contexts64


def centroid_gradient(model: ScreeningModel, contexts, labels) -> np.ndarray:
    """Analytic gradient of the objective w.r.t. the centroids, summed
    over the given labeled contexts (subsets held fixed)."""
    contexts = as_matrix(contexts)
    labels = np.asarray(labels, dtype=np.int64)
    if contexts.shape[0] < 1:
        raise ValueError("need at least one context")
    if labels.shape != (contexts.shape[0],):
        raise ValueError("need exactly one label per context")
    centroids64 = model.centroids.astype(np.float64)
    costs = _cluster_costs(model.subset_bools, labels, model.lam)
    return _gradient(centroids64, contexts.astype(np.float64), costs)


def train(trainset: ScreeningTrainSet, cfg: TrainConfig) -> TrainResult:
    """Alternating minimization per the screening learning algorithm.

    Centroids start from spherical k-means over the contexts and subsets
    start empty. Each alternation takes the closed-form subset step and
    then SGD epochs on the centroids. The returned model is the snapshot
    with the lowest objective observed right after a subset step.
    """
    m, _ = trainset.contexts.shape
    if cfg.k > m:
        raise ValueError(f"k={cfg.k} exceeds context count {m}")

    contexts64 = trainset.contexts.astype(np.float64)
    centroids = spherical_kmeans(
        trainset.contexts, KMeansConfig(k=cfg.k, seed=cfg.seed)
    ).astype(np.float64)
    costs = np.zeros((m, cfg.k))  # empty subsets
    rng = np.random.default_rng(cfg.seed)

    before, after = [], []
    best = None
    for step in range(cfg.alternations):
        mu = _softmax_rows(contexts64 @ centroids.T)
        before.append(_objective(mu, costs))

        subsets = update_subsets(compute_alpha(mu, trainset, cfg.lam))
        costs = _cluster_costs(subsets, trainset.labels, cfg.lam)
        loss = _objective(mu, costs)
        after.append(loss)
        if best is None or loss < best[0]:
            best = (loss, step, centroids.copy(), subsets.copy())

        for _ in range(cfg.epochs_per_alternation):
            perm = rng.permutation(m)
            for lo in range(0, m, cfg.batch_size):
                batch = perm[lo : lo + cfg.batch_size]
                grad = _gradient(centroids, contexts64[batch], costs[batch])
                centroids -= cfg.learning_rate * (grad / batch.size)

    _, best_step, best_centroids, best_subsets = best
    model = ScreeningModel(
        centroids=best_centroids.astype(np.float32),
        subsets=pack_subsets(best_subsets),
        lam=cfg.lam,
        n_candidates=trainset.candidates.shape[0],
    )
    return TrainResult(model, before, after, best_step)


def assign_clusters(contexts: np.ndarray, model: ScreeningModel):
    """Hard cluster id of every context row, and whether the row falls
    back to the full candidate range.

    Serving and evaluation both assign through here. A cluster whose
    stored subset is empty would screen out every candidate, so its
    contexts are scored against all N instead of returning nothing.
    """
    if contexts.shape[1] != model.dim:
        raise ValueError(
            f"dimension mismatch: contexts {contexts.shape[1]} vs model {model.dim}"
        )
    clusters = inner_product_argmax(contexts, model.centroids)
    return clusters, model.subset_sizes[clusters] == 0


def predict_subset(c, model: ScreeningModel) -> np.ndarray:
    """Candidate indices surviving screening for this context."""
    clusters, fallback = assign_clusters(as_vector(c)[None], model)
    if fallback[0]:
        return np.arange(model.n_candidates)
    return model.member_indices[clusters[0]]


def screened_search(c, model: ScreeningModel, candidates) -> SearchResult:
    """Exact argmax restricted to the predicted subset."""
    c = as_vector(c)
    candidates = as_matrix(candidates)
    if candidates.shape[0] != model.n_candidates:
        raise ValueError(
            f"model expects {model.n_candidates} candidates, "
            f"got {candidates.shape[0]}"
        )
    if candidates.shape[1] != model.dim:
        raise ValueError(
            f"dimension mismatch: candidates {candidates.shape[1]} vs model {model.dim}"
        )
    members = predict_subset(c, model)
    if members.size == candidates.shape[0]:
        rows = candidates
    else:
        rows = candidates[members]
    best = int(members[inner_product_argmax(c[None], rows)[0]])
    return SearchResult(best, inner_product(c, candidates[best]))


def save_model(model: ScreeningModel, path) -> None:
    """Write the bit-exact SCRN container."""
    write_container(
        path,
        _MAGIC,
        _HEADER,
        (model.k, model.n_candidates, model.dim, model.lam),
        (model.centroids.astype("<f4"), model.subsets),
    )


def load_model(path) -> ScreeningModel:
    (k, n, d, lam), (centroids, packed) = read_container(
        path,
        _MAGIC,
        _HEADER,
        lambda k, n, d, lam: [("<f4", (k, d)), (np.uint8, (k, (n + 7) // 8))],
    )
    return ScreeningModel(centroids, packed, lam, n)
