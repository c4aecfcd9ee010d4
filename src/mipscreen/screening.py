"""Learned candidate screening for maximum inner product search.

A screening model is K context-cluster centroids paired with K binary
candidate subsets. A query is assigned to its best cluster and scored only
against that cluster's subset, trading a small accuracy loss for a large
cut in dot products.

The training objective is bilinear in the soft assignment mu (M, K) and
the subset bits s (K, N): M + sum_ikj mu_ik s_kj (lam - (lam + 1) [j == y_i]),
with y_i the best candidate of context i. Its derivative in s is alpha
(`compute_alpha`), its derivative in mu the cluster-cost table
(`_cluster_costs`). Training alternates two moves: with subsets fixed
the centroids move by mini-batch gradient descent through the softmax
that gives mu (`_soft_assign`), and with centroids fixed the optimal
subsets have a closed form (keep s_kj exactly when alpha_kj <= 0). The
first alternation takes the subset step alone, from the k-means
centroids; each later one runs SGD first, so every alternation ends with
a subset step.
"""

import math
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
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


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
        # a row whose only bits lie past N would pass as non-empty but
        # unpack to no members (`searched_bools`)
        pad = -self.n_candidates % 8  # unused high bits of the last byte
        if pad and (self.subsets[:, -1] >> (8 - pad)).any():
            raise ValueError(
                f"packed subsets set bits past candidate {self.n_candidates - 1}"
            )

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @cached_property
    def subset_bools(self) -> np.ndarray:
        """The stored subset bits, unpacked to (K, N) bools."""
        return unpack_subsets(self.subsets, self.n_candidates)

    @cached_property
    def searched_bools(self) -> np.ndarray:
        """(K, N) bools of the candidates a query in each cluster searches.

        This is `subset_bools`, except that an empty subset would screen
        out everything, so its cluster searches all N candidates instead.
        Serving and evaluation read this table; training and the SCRN file
        keep the raw bits. It is unpacked from `subsets` with every byte of
        an empty row set, so serving never unpacks the raw bits too.
        """
        full = self.subsets.copy()
        full[~full.any(axis=1)] = 0xFF
        return unpack_subsets(full, self.n_candidates)

    @cached_property
    def member_indices(self) -> list:
        return [np.flatnonzero(row) for row in self.searched_bools]

    @cached_property
    def subset_sizes(self) -> np.ndarray:
        return np.array([idx.size for idx in self.member_indices])

    def check_candidates(self, candidates) -> np.ndarray:
        """`candidates` as a float32 matrix, if its shape fits this model."""
        candidates = as_matrix(candidates)
        n, d = candidates.shape
        if n != self.n_candidates:
            raise ValueError(
                f"candidate count mismatch: candidates {n} vs model {self.n_candidates}"
            )
        if d != self.dim:
            raise ValueError(f"dimension mismatch: candidates {d} vs model {self.dim}")
        return candidates


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
        check_finite(self.contexts, "contexts")
        check_finite(self.candidates, "candidates")


@dataclass(frozen=True)
class TrainConfig:
    k: int = 10
    lam: float = 1e-6
    alternations: int = 10  # subset steps; SGD epochs precede each but the first
    learning_rate: float = 0.05
    epochs_per_alternation: int = 1
    batch_size: int = 256
    seed: int = 42

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
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


def _soft_assign(contexts64, centroids64) -> np.ndarray:
    """(M, K) soft assignment mu of float64 contexts to float64 centroids:
    the softmax of each row of the logits contexts64 @ centroids64.T."""
    z = contexts64 @ centroids64.T
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def soft_assign_batch(contexts, centroids) -> np.ndarray:
    """(M, K) cluster membership probabilities, a softmax over centroid
    dots, for every context row."""
    contexts = as_matrix(contexts)
    centroids = as_matrix(centroids)
    return _soft_assign(contexts.astype(np.float64), centroids.astype(np.float64))


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


def _costs(pop, label_bits, lam) -> np.ndarray:
    """(M, K) weight of context i in cluster k: lam * |s_k| - (lam + 1) *
    s_k[y_i], from the subset sizes pop (K,) and the bits at each
    context's label (K, M). The objective is M + sum(mu * costs)."""
    return lam * pop.astype(np.float64)[None, :] - (lam + 1.0) * label_bits.T


def _cluster_costs(subset_bools, labels, lam) -> np.ndarray:
    """`_costs` of (K, N) subset bits, each candidate its own column."""
    return _costs(subset_bools.sum(axis=1), subset_bools[:, labels], lam)


def _objective(mu, costs) -> float:
    return mu.shape[0] + float(np.einsum("ik,ik->", mu, costs))


def total_loss(model: ScreeningModel, trainset: ScreeningTrainSet) -> float:
    """Screening objective summed over every (context, candidate) pair."""
    model.check_candidates(trainset.candidates)
    mu = soft_assign_batch(trainset.contexts, model.centroids)
    return _objective(mu, _cluster_costs(model.subset_bools, trainset.labels, model.lam))


def _expand(x: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """(K, D + 1) label-column values as (K, N): each label column at its
    candidate, the rest column at every other candidate."""
    out = np.empty((x.shape[0], n), dtype=x.dtype)
    out[:] = x[:, -1:]
    out[:, cols] = x[:, :-1]
    return out


def _label_alpha(mu: np.ndarray, inv: np.ndarray, d: int, lam) -> np.ndarray:
    """(K, D + 1) alpha in label columns: column j < D is the j-th
    distinct label (inv maps each context to its label's column), column
    D the rest column, for every candidate no context has as its label.
    label_mass[c, j] sums mu[:, c] over the contexts in column j in
    context order, as np.add.at would; the rest column's is 0."""
    label_mass = np.empty((mu.shape[1], d + 1))
    for c in range(mu.shape[1]):
        label_mass[c] = np.bincount(inv, weights=mu[:, c], minlength=d + 1)
    return lam * mu.sum(axis=0)[:, None] - (lam + 1.0) * label_mass


def compute_alpha(
    mu_matrix: np.ndarray, trainset: ScreeningTrainSet, lam: float
) -> np.ndarray:
    """Per-bit coefficients of the objective once centroids are fixed.

    alpha[k, j] weights subset bit s_k[j]; the bit's optimal value is 1
    exactly when the coefficient is <= 0. A candidate no context has as
    its label gets lam * sum_i mu[i, k], which is > 0 unless cluster k's
    mass is 0, so a subset holds only labelled candidates, or every
    candidate when its cluster's mass is 0. This (K, N) table is the
    expansion of the label-column form `train` works in (`_label_alpha`).
    """
    mu = np.asarray(mu_matrix, dtype=np.float64)
    m, _ = mu.shape
    if m != trainset.contexts.shape[0]:
        raise ValueError("mu row count must match context count")
    cols, inv = np.unique(trainset.labels, return_inverse=True)
    alpha = _label_alpha(mu, inv, cols.size, lam)
    return _expand(alpha, cols, trainset.candidates.shape[0])


def update_subsets(alpha: np.ndarray) -> np.ndarray:
    """Exact minimizer of the objective over subset bits: keep alpha <= 0."""
    alpha = np.asarray(alpha)
    check_finite(alpha, "alpha")
    return alpha <= 0.0


def _subset_step(mu, inv, d, n, lam):
    """The closed-form subset step in label columns: the (K, D + 1) bits
    and the (M, K) cost table they give. The rest bit counts for the N - D
    unlabelled candidates."""
    bits = update_subsets(_label_alpha(mu, inv, d, lam))
    pop = bits[:, :d].sum(axis=1) + (n - d) * bits[:, d]
    return bits, _costs(pop, bits[:, inv], lam)


def _gradient(centroids64, contexts64, costs):
    """d(objective)/d(centroids), summed over contexts with these costs."""
    mu = _soft_assign(contexts64, centroids64)
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
    start empty. Each alternation after the first runs SGD epochs on the
    centroids with the previous subsets fixed; every alternation then
    takes the closed-form subset step. The returned model is the snapshot
    with the lowest objective observed right after a subset step, so no
    SGD runs after the last one.

    A subset holds only labelled candidates, or every candidate when its
    cluster's mass is 0 (see `compute_alpha`), so the subset step and the
    cost table work over the distinct labels plus one rest column
    (`_label_alpha`): one alternation costs O(K x distinct labels), and
    the subsets are expanded to (K, N) once, for the returned model.
    """
    m, _ = trainset.contexts.shape
    if cfg.k > m:
        raise ValueError(f"k={cfg.k} exceeds context count {m}")
    n = trainset.candidates.shape[0]
    cols, inv = np.unique(trainset.labels, return_inverse=True)
    d = cols.size

    contexts64 = trainset.contexts.astype(np.float64)
    centroids = spherical_kmeans(
        trainset.contexts, KMeansConfig(k=cfg.k, seed=cfg.seed)
    ).astype(np.float64)
    costs = np.zeros((m, cfg.k))  # empty subsets
    rng = np.random.default_rng(cfg.seed)

    before, after = [], []
    best = None
    for step in range(cfg.alternations):
        for _ in range(cfg.epochs_per_alternation if step else 0):
            perm = rng.permutation(m)
            for lo in range(0, m, cfg.batch_size):
                batch = perm[lo : lo + cfg.batch_size]
                grad = _gradient(centroids, contexts64[batch], costs[batch])
                centroids -= cfg.learning_rate * (grad / batch.size)

        mu = _soft_assign(contexts64, centroids)
        before.append(_objective(mu, costs))
        bits, costs = _subset_step(mu, inv, d, n, cfg.lam)
        loss = _objective(mu, costs)
        after.append(loss)
        if best is None or loss < best[0]:
            best = (loss, step, centroids.copy(), bits)

    _, best_step, best_centroids, best_bits = best
    model = ScreeningModel(
        centroids=best_centroids.astype(np.float32),
        subsets=pack_subsets(_expand(best_bits, cols, n)),
        lam=cfg.lam,
        n_candidates=n,
    )
    return TrainResult(model, before, after, best_step)


def assign_clusters(contexts: np.ndarray, model: ScreeningModel) -> np.ndarray:
    """Hard cluster id of every context row. Serving and evaluation both
    assign through here; a context then searches its cluster's row of
    `model.searched_bools`."""
    return _assign(as_matrix(contexts), model)


def _assign(contexts, model: ScreeningModel) -> np.ndarray:
    """`assign_clusters` of a float32 row matrix, cast at the public entry."""
    if contexts.shape[1] != model.dim:
        raise ValueError(
            f"dimension mismatch: contexts {contexts.shape[1]} vs model {model.dim}"
        )
    return inner_product_argmax(contexts, model.centroids)


def predict_subset(c, model: ScreeningModel) -> np.ndarray:
    """Candidate indices this context searches."""
    return model.member_indices[_assign(as_vector(c)[None], model)[0]]


def screened_search(c, model: ScreeningModel, candidates) -> SearchResult:
    """Exact argmax restricted to the predicted subset."""
    c = as_vector(c)
    candidates = model.check_candidates(candidates)
    members = model.member_indices[_assign(c[None], model)[0]]
    # take() gathers rows about twice as fast as fancy indexing
    best = int(members[inner_product_argmax(c[None], candidates.take(members, axis=0))[0]])
    return SearchResult(best, inner_product(c, candidates[best]))


def screened_search_batch(contexts, model: ScreeningModel, candidates) -> np.ndarray:
    """`screened_search` indices for every context row: one assignment
    call, then one argmax call per cluster over its queries and its
    searched rows, gathered once."""
    contexts = as_matrix(contexts)
    candidates = model.check_candidates(candidates)
    clusters = _assign(contexts, model)
    out = np.empty(contexts.shape[0], dtype=np.int64)
    for k in np.unique(clusters):
        group = np.flatnonzero(clusters == k)
        members = model.member_indices[k]
        rows = candidates.take(members, axis=0)
        out[group] = members[inner_product_argmax(contexts[group], rows)]
    return out


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
