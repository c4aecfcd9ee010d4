"""Exact MIPS oracle and the ranking evaluation protocol."""

import hashlib

import numpy as np
import pytest

from mipscreen.core import inner_product, sigmoid
from mipscreen.search import (
    RankingInstance,
    build_ranking_instances,
    exact_argmax,
    argmax_batch,
    recall_at_1,
    top_k,
)
from oracles import naive_argmax


class TestExactArgmax:
    def test_hand_case(self):
        r = exact_argmax([1.0, 2.0], [[1, 0], [0, 1], [1, 1]])
        assert (r.index, r.score) == (2, 3.0)

    def test_dimension_mismatch_rejected(self):
        rows = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="dimension mismatch: contexts 3 vs candidates 2"):
            argmax_batch(np.ones((1, 3)), rows)
        with pytest.raises(ValueError, match="dimension mismatch: context 3 vs candidates 2"):
            top_k(np.ones(3), rows, 1)

    def test_self_is_best_among_unit_vectors(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(20, 6))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows.astype(np.float32)
        r = exact_argmax(rows[7], rows)
        assert r.index == 7

    def test_tie_breaks_to_lowest_index(self):
        best = [2.0, 0.0]
        rows = [[1, 0], best, [0, 1], [0.5, 0.5], best]
        assert exact_argmax([1.0, 0.0], rows).index == 1

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(1, 17))
            n = int(rng.integers(1, 201))
            candidates = rng.normal(size=(n, d)).astype(np.float32)
            c = rng.normal(size=d).astype(np.float32)
            assert exact_argmax(c, candidates).index == naive_argmax(c, candidates)[0]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            exact_argmax([1.0], np.zeros((0, 1), dtype=np.float32))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(12)
        contexts = rng.normal(size=(40, 5)).astype(np.float32)
        candidates = rng.normal(size=(30, 5)).astype(np.float32)
        batch = argmax_batch(contexts, candidates)
        singles = [exact_argmax(c, candidates).index for c in contexts]
        np.testing.assert_array_equal(batch, singles)


class TestTopK:
    def test_full_sort(self):
        rng = np.random.default_rng(13)
        candidates = rng.normal(size=(25, 4)).astype(np.float32)
        c = rng.normal(size=4).astype(np.float32)
        results = top_k(c, candidates, 25)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        assert sorted(r.index for r in results) == list(range(25))

    def test_k1_equals_argmax(self):
        rng = np.random.default_rng(14)
        candidates = rng.normal(size=(12, 3)).astype(np.float32)
        c = rng.normal(size=3).astype(np.float32)
        assert top_k(c, candidates, 1)[0].index == exact_argmax(c, candidates).index

    def test_hand_case(self):
        results = top_k([1.0, 0.0], [[0, 1], [2, 0], [1, 0]], 2)
        assert [r.index for r in results] == [1, 2]

    def test_stable_among_equal_scores(self):
        rows = [[1.0, 0.0]] * 4
        assert [r.index for r in top_k([1.0, 0.0], rows, 4)] == [0, 1, 2, 3]

    def test_prefix_property(self):
        rng = np.random.default_rng(15)
        candidates = rng.normal(size=(30, 6)).astype(np.float32)
        c = rng.normal(size=6).astype(np.float32)
        for k in range(1, 30):
            shorter = [r.index for r in top_k(c, candidates, k)]
            longer = [r.index for r in top_k(c, candidates, k + 1)]
            assert longer[:k] == shorter

    def test_tiled_scores_match_untiled_product(self):
        # 30001 is not a multiple of the tile: seven tiles, the last 5425 rows
        rng = np.random.default_rng(17)
        candidates = rng.normal(size=(30001, 32)).astype(np.float32)
        c = rng.normal(size=32).astype(np.float32)
        scores = candidates.astype(np.float64) @ c.astype(np.float64)
        want = np.argsort(-scores, kind="stable")[:10]
        results = top_k(c, candidates, 10)
        assert [r.index for r in results] == want.tolist()
        np.testing.assert_allclose([r.score for r in results], scores[want], rtol=1e-14)

    def test_order_below_float64_resolution_is_exact(self):
        # exact products 1 and 1 + 2**-70 both round to 1.0 in float64
        rows = np.array([[1, 0], [1, 2**-40]], dtype=np.float32)
        q = np.array([1, 2**-30], dtype=np.float32)
        assert exact_argmax(q, rows).index == 1
        results = top_k(q, rows, 2)
        assert [r.index for r in results] == [1, 0]
        assert [r.score for r in results] == [1.0, 1.0]
        assert top_k(q, rows, 1)[0].index == 1

    def test_top_score_is_exact_argmax_score(self):
        # scores from a tiled matrix-vector product can differ in the last
        # bit from the per-row dot product exact_argmax reports
        rng = np.random.default_rng(18)
        candidates = rng.normal(size=(5000, 32)).astype(np.float32)
        for c in rng.normal(size=(300, 32)).astype(np.float32):
            assert top_k(c, candidates, 1)[0] == exact_argmax(c, candidates)

    def test_every_score_is_inner_product_bit_for_bit(self):
        # the k scores come from one stacked product, whose last bits
        # depend on the memory layout of the broadcast context
        rng = np.random.default_rng(19)
        candidates = rng.normal(size=(10000, 32)).astype(np.float32)
        c = rng.normal(size=32).astype(np.float32)
        results = top_k(c, candidates, 10000)
        assert sorted(r.index for r in results) == list(range(10000))
        assert [r.score for r in results] == [inner_product(c, candidates[r.index])
                                              for r in results]

    def test_k_out_of_range(self):
        candidates = np.ones((3, 2), dtype=np.float32)
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                top_k([1.0, 0.0], candidates, k)


def _hash_scorer(c, r):
    digest = hashlib.blake2b(c.tobytes() + r.tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0**64


class TestRecallAt1:
    def _setup(self, seed=16, n_contexts=50, n_candidates=40):
        rng = np.random.default_rng(seed)
        contexts = rng.normal(size=(n_contexts, 5)).astype(np.float32)
        candidates = rng.normal(size=(n_candidates, 5)).astype(np.float32)
        gts = argmax_batch(contexts, candidates)
        instances = build_ranking_instances(gts, n_candidates, 9, seed=seed)
        return contexts, candidates, instances

    def test_perfect_scorer(self):
        contexts, candidates, instances = self._setup()
        scorer = lambda c, r: float(np.dot(c.astype(np.float64), r.astype(np.float64)))
        # drop instances where the oracle winner ties (essentially never)
        assert recall_at_1(scorer, instances, contexts, candidates) == 1.0

    def test_constant_scorer_scores_zero(self):
        contexts, candidates, instances = self._setup()
        assert recall_at_1(lambda c, r: 1.0, instances, contexts, candidates) == 0.0

    def test_random_scorer_near_one_over_n(self):
        rng = np.random.default_rng(17)
        contexts = rng.normal(size=(10000, 3)).astype(np.float32)
        candidates = rng.normal(size=(200, 3)).astype(np.float32)
        gts = rng.integers(0, 200, size=10000)
        instances = build_ranking_instances(gts, 200, 9, seed=18)
        value = recall_at_1(_hash_scorer, instances, contexts, candidates)
        assert value == pytest.approx(0.10, abs=0.02)

    def test_invariant_under_monotone_transform(self):
        contexts, candidates, instances = self._setup(seed=19)
        raw = lambda c, r: float(np.dot(c.astype(np.float64), r.astype(np.float64)))
        squashed = lambda c, r: sigmoid(raw(c, r))
        assert recall_at_1(raw, instances, contexts, candidates) == recall_at_1(
            squashed, instances, contexts, candidates
        )

    def test_dangling_ids_rejected(self):
        contexts = np.ones((2, 3), dtype=np.float32)
        candidates = np.ones((5, 3), dtype=np.float32)
        bad = [RankingInstance(0, 10, (1, 2))]
        with pytest.raises(IndexError):
            recall_at_1(lambda c, r: 0.5, bad, contexts, candidates)


class TestRankingInstance:
    def test_ground_truth_among_distractors_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RankingInstance(0, 3, (1, 3, 5))

    def test_duplicate_distractors_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RankingInstance(0, 3, (1, 1))

    def test_negative_ids_rejected(self):
        for args in ((-1, 0, (-2,)), (-1, 0, (2,)), (0, -1, (2,)), (0, 1, (-2,))):
            with pytest.raises(ValueError, match="non-negative"):
                RankingInstance(*args)

    def test_distractors_unique_and_exclude_gt(self):
        instances = build_ranking_instances([2, 5], 20, 9, seed=20)
        for inst in instances:
            assert inst.ground_truth_id not in inst.distractor_ids
            assert len(set(inst.distractor_ids)) == 9
