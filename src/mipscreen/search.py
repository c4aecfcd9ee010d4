"""Brute-force maximum-inner-product search and ranking evaluation.

The exact search here is the ground-truth oracle that screening quality is
measured against: the largest exact inner product (see
`core.inner_product_argmax`), ties resolved to the lowest candidate index.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import as_matrix, as_vector, inner_product, inner_product_argmax, inner_product_top_k


@dataclass(frozen=True)
class SearchResult:
    index: int
    score: float


@dataclass(frozen=True)
class RankingInstance:
    """One Recall@1/N trial: a ground truth hidden among distractors."""

    context_id: int
    ground_truth_id: int
    distractor_ids: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "distractor_ids", tuple(self.distractor_ids))
        ids = (self.ground_truth_id,) + self.distractor_ids
        if len(set(ids)) != len(ids):
            raise ValueError("candidate ids must be distinct")
        if len(self.distractor_ids) < 1:
            raise ValueError("need at least one distractor")
        if self.context_id < 0 or min(ids) < 0:
            raise ValueError("context and candidate ids must be non-negative")


def exact_argmax(c, candidates) -> SearchResult:
    """Best candidate by raw inner product; ties go to the lowest index."""
    candidates = as_matrix(candidates)
    idx = int(argmax_batch(as_vector(c)[None], candidates)[0])
    return SearchResult(idx, inner_product(c, candidates[idx]))


def argmax_batch(contexts, candidates) -> np.ndarray:
    """exact_argmax indices for every context row."""
    contexts = as_matrix(contexts)
    candidates = as_matrix(candidates)
    if candidates.shape[0] < 1:
        raise ValueError("candidate set is empty")
    if contexts.shape[1] != candidates.shape[1]:
        raise ValueError(
            f"dimension mismatch: contexts {contexts.shape[1]} vs "
            f"candidates {candidates.shape[1]}"
        )
    return inner_product_argmax(contexts, candidates)


def top_k(c, candidates, k: int) -> list:
    """k best candidates by exact inner product (see
    `core.inner_product_top_k`), the lowest index first on a tie; each
    score is `inner_product` of the context and that candidate, as
    `exact_argmax` reports it."""
    c = as_vector(c)
    candidates = as_matrix(candidates)
    if not 1 <= k <= candidates.shape[0]:
        raise ValueError(f"k={k} out of range [1, {candidates.shape[0]}]")
    if candidates.shape[1] != c.shape[0]:
        raise ValueError(
            f"dimension mismatch: context {c.shape[0]} vs "
            f"candidates {candidates.shape[1]}"
        )
    return [SearchResult(int(i), inner_product(c, candidates[i]))
            for i in inner_product_top_k(c, candidates, k)]


def recall_at_1(scorer, instances, contexts, candidates) -> float:
    """Fraction of instances whose ground truth strictly outscores every
    distractor. A tie with any distractor counts as a miss."""
    contexts = as_matrix(contexts)
    candidates = as_matrix(candidates)
    if len(instances) == 0:
        raise ValueError("no ranking instances given")
    wins = 0
    for inst in instances:
        if inst.context_id >= contexts.shape[0]:
            raise IndexError(f"context id {inst.context_id} out of range")
        all_ids = (inst.ground_truth_id,) + inst.distractor_ids
        if max(all_ids) >= candidates.shape[0]:
            raise IndexError(f"candidate id {max(all_ids)} out of range")
        c = contexts[inst.context_id]
        gt = scorer(c, candidates[inst.ground_truth_id])
        if all(gt > scorer(c, candidates[d]) for d in inst.distractor_ids):
            wins += 1
    return wins / len(instances)


def build_ranking_instances(
    ground_truth_ids, n_candidates: int, n_distractors: int, seed: int
) -> list:
    """Sample fixed distractor sets once per instance, seeded.

    ground_truth_ids[i] pairs context i with its true candidate; each
    instance draws n_distractors distinct other candidate ids.
    """
    if n_distractors + 1 > n_candidates:
        raise ValueError("not enough candidates for the requested distractors")
    rng = np.random.default_rng(seed)
    instances = []
    for ctx_id, gt in enumerate(ground_truth_ids):
        gt = int(gt)
        pool = rng.permutation(n_candidates)
        picked = [int(j) for j in pool if j != gt][:n_distractors]
        instances.append(RankingInstance(ctx_id, gt, tuple(picked)))
    return instances
