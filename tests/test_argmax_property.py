"""Property tests: every inner-product argmax agrees with the double-loop
oracle, ties and duplicated rows included.

Rows hold small integers, so every float64 sum is exact and a tie in the
oracle is a real tie in the kernel: the lowest index must win everywhere.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mipscreen.evaluate import evaluate_model
from mipscreen.kmeans import assign_all, hard_assign
from mipscreen.screening import ScreeningModel, assign_clusters, pack_subsets, predict_subset
from mipscreen.search import argmax_batch, exact_argmax
from oracles import naive_argmax


@st.composite
def int_matrix(draw, dim, min_rows=1, max_rows=8):
    """Integer-valued float32 rows in [-2, 2], some repeated verbatim."""
    n = draw(st.integers(min_rows, max_rows))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                         min_size=n, max_size=n))
    for src in draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []:
        rows.insert(draw(st.integers(0, len(rows))), list(rows[src]))
    return np.array(rows, dtype=np.float32).reshape(len(rows), dim)


@st.composite
def search_problem(draw):
    dim = draw(st.integers(1, 4))
    return draw(int_matrix(dim, min_rows=0)), draw(int_matrix(dim))


@settings(max_examples=200, deadline=None)
@given(search_problem())
def test_exact_search_and_kmeans_assignment_match_oracle(problem):
    queries, rows = problem
    want = [naive_argmax(q, rows)[0] for q in queries]
    assert [exact_argmax(q, rows).index for q in queries] == want
    assert [hard_assign(q, rows) for q in queries] == want
    np.testing.assert_array_equal(argmax_batch(queries, rows), np.array(want, dtype=np.int64))
    np.testing.assert_array_equal(assign_all(queries, rows), np.array(want, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(search_problem(), st.data())
def test_serving_and_evaluation_assign_the_same_cluster(problem, data):
    contexts, centroids = problem
    k = centroids.shape[0]
    # cluster j screens candidate j alone, or nothing (which falls back to
    # all K candidates), so a served subset names the cluster it came from
    kept = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    model = ScreeningModel(centroids, pack_subsets(np.diag(kept)), 0.5, k)
    clusters = assign_clusters(contexts, model)
    for i, c in enumerate(contexts):
        want = naive_argmax(c, centroids)[0]
        served = predict_subset(c, model)
        expect = [want] if kept[want] else list(range(k))
        assert list(served) == expect
        assert clusters[i] == want
    if contexts.shape[0]:
        report = evaluate_model(model, contexts, centroids)
        served = [predict_subset(c, model) for c in contexts]
        assert report.mean_subset_size == np.mean([s.size for s in served])
        contained = [exact_argmax(c, centroids).index in s for c, s in zip(contexts, served)]
        assert report.accuracy == np.mean(contained)


def test_batches_longer_than_one_block_match_oracle():
    rng = np.random.default_rng(90)
    rows = rng.integers(-1, 2, size=(12, 3)).astype(np.float32)
    rows = np.concatenate([rows, rows[::3]])  # duplicates tie with earlier rows
    queries = rng.integers(-2, 3, size=(700, 3)).astype(np.float32)
    want = [naive_argmax(q, rows)[0] for q in queries]
    np.testing.assert_array_equal(argmax_batch(queries, rows), want)
