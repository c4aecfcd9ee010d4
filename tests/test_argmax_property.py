"""Property tests: every inner-product argmax agrees with the double-loop
oracle, ties and duplicated rows included.

Rows hold small integers, so every float64 sum is exact and a tie in the
oracle is a real tie in the kernel: the lowest index must win everywhere.
The tiled kernel is also checked on random floats, against the argmax of
the untiled float64 product.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipscreen import core
from mipscreen.evaluate import evaluate_model
from mipscreen.screening import ScreeningModel, assign_clusters, pack_subsets, predict_subset
from mipscreen.search import argmax_batch, exact_argmax, top_k
from oracles import exact_top_k, naive_argmax, naive_matvec


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
    assert [int(argmax_batch(q[None], rows)[0]) for q in queries] == want
    np.testing.assert_array_equal(argmax_batch(queries, rows), np.array(want, dtype=np.int64))


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


# float32 values whose products differ below float64 resolution of 1
_NEAR_TIE_VALUES = [0.0, 1.0, -1.0, 3.0, 2.0**-20, 2.0**-30, 2.0**-40, -(2.0**-40), 1 + 2.0**-23]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_k_orders_by_exact_inner_product(data):
    dim = data.draw(st.integers(1, 4))
    value = st.sampled_from(_NEAR_TIE_VALUES)
    n = data.draw(st.integers(1, 9))
    rows = np.array(data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                       min_size=n, max_size=n)), dtype=np.float32)
    q = np.array(data.draw(st.lists(value, min_size=dim, max_size=dim)), dtype=np.float32)
    k = data.draw(st.integers(1, n))
    results = top_k(q, rows, k)
    assert [r.index for r in results] == exact_top_k(q, rows, k)
    assert [r.score for r in results] == [core.inner_product(q, rows[r.index]) for r in results]


def test_batches_longer_than_one_block_match_oracle():
    rng = np.random.default_rng(90)
    rows = rng.integers(-1, 2, size=(12, 3)).astype(np.float32)
    rows = np.concatenate([rows, rows[::3]])  # duplicates tie with earlier rows
    queries = rng.integers(-2, 3, size=(700, 3)).astype(np.float32)
    want = [naive_argmax(q, rows)[0] for q in queries]
    np.testing.assert_array_equal(argmax_batch(queries, rows), want)


@pytest.fixture
def tied_tiles(monkeypatch):
    """23 small-integer rows scored in tiles of 4 (the last tile takes
    rows 16-22), with equal best rows on both sides of the boundaries at
    4, 8 and 16 and a repeat inside the last tile."""
    monkeypatch.setattr(core, "_TILE_ROWS", 4)
    rows = np.random.default_rng(91).integers(-1, 2, size=(23, 3)).astype(np.float32)
    rows[[3, 4]] = (2, 2, 2)
    rows[[7, 8]] = (2, -2, 0)
    rows[[15, 16, 20]] = (-2, 0, 2)
    return rows


_EVERY_QUERY = np.array(list(itertools.product(range(-2, 3), repeat=3)), dtype=np.float32)


def test_single_queries_across_tile_boundaries_match_oracle(tied_tiles):
    rows = tied_tiles
    for q in _EVERY_QUERY:
        assert exact_argmax(q, rows).index == naive_argmax(q, rows)[0]
        scores = naive_matvec(rows, q)
        want = sorted(range(rows.shape[0]), key=lambda j: (-scores[j], j))
        assert [r.index for r in top_k(q, rows, rows.shape[0])] == want


# 513 = 2 * 256 + 1: the last query block is a single row
@pytest.mark.parametrize(
    "queries",
    [_EVERY_QUERY, np.random.default_rng(92).integers(-2, 3, size=(513, 3)).astype(np.float32)],
    ids=["every-query", "513-queries"],
)
def test_batches_across_tile_boundaries_match_oracle(tied_tiles, queries):
    want = [naive_argmax(q, tied_tiles)[0] for q in queries]
    np.testing.assert_array_equal(argmax_batch(queries, tied_tiles), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected_across_tiles(tied_tiles, bad):
    rows = tied_tiles.copy()
    rows[14, 0] = bad  # the fourth tile, after three clean ones
    with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
        argmax_batch(_EVERY_QUERY, rows)
    for q in (_EVERY_QUERY[0], np.zeros(3, dtype=np.float32)):
        with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
            exact_argmax(q, rows)
        with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
            top_k(q, rows, 3)
    queries = _EVERY_QUERY.copy()
    queries[100, 2] = bad
    with pytest.raises(ValueError, match="^contexts contains non-finite entries$"):
        argmax_batch(queries, tied_tiles)
    for run in (exact_argmax, lambda q, r: top_k(q, r, 3)):
        with pytest.raises(ValueError, match="^contexts contains non-finite entries$"):
            run(queries[100], tied_tiles)


@pytest.mark.parametrize("dim", [7, 32, 33])
def test_tiled_kernel_matches_untiled_product(dim):
    # 30001 is not a multiple of the tile: seven tiles, the last 5425 rows
    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(30001, dim)).astype(np.float32)
    queries = rng.normal(size=(300, dim)).astype(np.float32)
    rows64, queries64 = rows.astype(np.float64), queries.astype(np.float64)
    want = np.concatenate([(queries64[s : s + 100] @ rows64.T).argmax(axis=1)
                           for s in range(0, 300, 100)])
    np.testing.assert_array_equal(argmax_batch(queries, rows), want)
    for q, q64 in zip(queries[:20], queries64):
        assert exact_argmax(q, rows).index == (rows64 @ q64).argmax()
