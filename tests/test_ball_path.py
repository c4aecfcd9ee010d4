"""The exact batch kernel's ball path: candidate rows grouped in balls
around centers, and a group skipped for a query only when its bound
proves that every row loses to the query's running winner. The answer
must stay the largest exact inner product, the lowest index on an exact
tie, as `oracles.exact_argmax` computes it in rational arithmetic.

Small tiles and blocks (8 rows, 4 queries) let a batch of 16 queries
over 128 rows take the ball path; a sample of one tile then picks at
most 4 pivots.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipscreen import core
from mipscreen.data import SyntheticSpec, gen_synthetic
from mipscreen.search import argmax_batch, exact_argmax
from oracles import exact_argmax as oracle
from oracles import farthest_pivots

TINY = 2.0**-30


@pytest.fixture
def built(monkeypatch):
    """What each `_balls` call returned (None: the call scanned)."""
    calls = []
    build = core._balls

    def spy(*args):
        calls.append(build(*args))
        return calls[-1]

    monkeypatch.setattr(core, "_balls", spy)
    return calls


@pytest.fixture
def small(monkeypatch, built):
    monkeypatch.setattr(core, "_TILE_ROWS", 8)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 4)
    return built


def clustered(rng, n, dim, k):
    """n float32 rows around k (at most 2**dim) far-apart integer centers,
    with integer jitter, a last column of small multiples of TINY (float32
    scores tie where exact products differ) and repeated rows."""
    corners = np.array(list(itertools.product([-8, 8], repeat=dim)))
    centers = corners[rng.permutation(len(corners))[:k]]
    rows = centers[rng.integers(0, len(centers), size=n)] + rng.integers(-1, 2, size=(n, dim))
    rows = np.concatenate([rows, rng.integers(-3, 4, size=(n, 1)) * TINY], axis=1)
    rows[rng.integers(0, n, size=n // 8)] = rows[rng.integers(0, n, size=n // 8)]
    return rows.astype(np.float32)


def want(queries, rows):
    return [oracle(q, rows)[0] for q in queries]


def assert_rows_in_their_balls(balls, rows, checked=None):
    """The groups partition the rows, each group's ids ascend and its block
    holds those rows, and every row c numbered in `checked` (all of them by
    default) lies inside its ball: |c - center| <= radius, in rational
    arithmetic."""
    ids = np.concatenate([g[0] for g in balls.groups])
    np.testing.assert_array_equal(np.sort(ids), np.arange(rows.shape[0]))
    checked = np.arange(rows.shape[0]) if checked is None else checked
    for (ids, block, _), center, radius in zip(balls.groups, balls.centers, balls.radii):
        assert (np.diff(ids) > 0).all()
        np.testing.assert_array_equal(block, rows[ids])
        center = [Fraction(float(x)) for x in center]
        for row in block[np.isin(ids, checked)].tolist():
            assert sum((Fraction(x) - y) ** 2 for x, y in zip(row, center)) <= Fraction(radius) ** 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), k=st.integers(1, 3),
       n=st.integers(128, 160))
def test_ball_path_matches_the_rational_oracle(seed, dim, k, n):
    rng = np.random.default_rng(seed)
    rows = clustered(rng, n, dim, k)
    queries = rng.integers(-2, 3, size=(16, dim + 1)).astype(np.float32)
    queries[3] = 0  # ties every row at 0
    queries[4] = -queries[5]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TILE_ROWS", 8)
        mp.setattr(core, "_BLOCK_ROWS", 4)
        np.testing.assert_array_equal(argmax_batch(queries, rows), want(queries, rows))


def test_ball_path_is_taken_and_every_query_matches(small, monkeypatch):
    # three clusters, each split into groups of 8-15 rows; every integer
    # query in [-2, 2]^3, so many queries have exact ties across groups.
    # Most groups lose to most queries' first group: a group no query
    # visits costs no _merge call.
    who_sizes = []
    merge = core._merge

    def spy(queries, qnorms, rows, group, who, *rest):
        who_sizes.append(who.size)
        return merge(queries, qnorms, rows, group, who, *rest)

    monkeypatch.setattr(core, "_merge", spy)
    rows = clustered(np.random.default_rng(3), 144, 2, 3)
    queries = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3), axis=-1).reshape(-1, 3)
    queries = queries.astype(np.float32)
    np.testing.assert_array_equal(argmax_batch(queries, rows), want(queries, rows))
    (balls,) = small
    assert balls is not None and balls.centers.shape[0] > 3  # groups of several balls
    assert who_sizes and min(who_sizes) > 0


def test_a_tie_in_a_ball_visited_later_goes_to_its_lower_index(small):
    # Row 100 scores 28 in cluster A, whose center scores highest; row 3
    # ties it exactly from cluster B.
    rng = np.random.default_rng(4)
    rows = np.empty((128, 2), dtype=np.float32)
    rows[0::2] = (0, 8) - rng.integers(0, 2, size=(64, 2))  # A: scores <= 24
    rows[1::2] = (8, 0) + rng.integers(0, 2, size=(64, 2))  # B: scores <= 12
    rows[100] = (1, 9)
    rows[3] = (10, 6)
    q = np.array([1, 3], dtype=np.float32)
    queries = np.tile(q, (16, 1))
    assert want(queries[:1], rows) == [3]
    np.testing.assert_array_equal(argmax_batch(queries, rows), [3] * 16)
    assert small[0] is not None
    # whatever the balls: merging row 100's group first, row 3's second
    rounding = core._rounding(rows.dtype, 2)
    qnorms = core._row_norms(q[None], rounding.unit, "contexts")
    norms = core._row_norms(rows, rounding.unit, "candidates")
    state = np.zeros(1, dtype=np.int64), np.full(1, -np.inf), np.zeros(1)
    for ids in (np.array([98, 100, 102]), np.array([1, 3, 5])):
        core._merge(q[None], qnorms, rows, (ids, rows[ids], norms[ids]), np.array([0]), state,
                    rounding)
    assert state[0][0] == 3


def test_duplicate_top_rows_in_several_balls(small):
    rows = clustered(np.random.default_rng(5), 160, 2, 3)
    copies = [20, 61, 90, 150]
    rows[copies] = (12, 12, 0)  # q . row = 60 for q = (3, 2, 0); clusters score <= 45
    rows[[9, 40]] = (20, 0, 0)  # the same exact product
    q = np.array([3, 2, 0], dtype=np.float32)
    queries = np.concatenate([np.tile(q, (8, 1)), clustered(np.random.default_rng(6), 8, 2, 2)])
    got = argmax_batch(queries, rows)
    np.testing.assert_array_equal(got, want(queries, rows))
    assert list(got[:8]) == [9] * 8
    (balls,) = small
    groups = {g for g, (ids, _, _) in enumerate(balls.groups) for i in copies + [9] if i in ids}
    assert len(groups) > 1


def test_the_zero_query_returns_row_zero_on_the_ball_path(small):
    rows = clustered(np.random.default_rng(7), 128, 3, 2)
    queries = np.random.default_rng(8).integers(-2, 3, size=(16, 4)).astype(np.float32)
    queries[[0, 9]] = 0
    got = argmax_batch(queries, rows)
    np.testing.assert_array_equal(got, want(queries, rows))
    assert got[0] == got[9] == 0
    assert small[0] is not None
    # a one-row group visited first wins the zero query outright; settling
    # a later group hands it to row 0 whatever the running winner
    settled = core._settle(queries[0], rows, np.array([5, 6]), np.zeros(2), np.ones(2), (9, 0.0, 0.1))
    assert settled == (0, 0.0, 0.0)


def test_gaussian_rows_take_the_scan_and_clustered_rows_stop_at_their_topics(monkeypatch, built):
    # At full tile size with 16-query blocks, so at most 16 pivots and no
    # early check: 512 queries over 8192 rows reach the size rule. The
    # pivot search on a Gaussian sample never halves its covering radius
    # within 16 pivots; on 8 topics it stops at 8.
    monkeypatch.setattr(core, "_BLOCK_ROWS", 16)
    rng = np.random.default_rng(9)
    gaussian = rng.normal(size=(8192, 32)).astype(np.float32)
    syn = gen_synthetic(SyntheticSpec(m_train=512, m_test=8, n_candidates=8192, dim=32,
                                      topics=8, noise_sigma=0.3, seed=10))
    for rows, queries in ((gaussian, rng.normal(size=(512, 32)).astype(np.float32)),
                          (syn.candidates, syn.train_contexts)):
        singles = [exact_argmax(q, rows).index for q in queries]
        np.testing.assert_array_equal(argmax_batch(queries, rows), singles)
    assert built[0] is None
    assert built[1] is not None and built[1].centers.shape[0] == 8


def topics(m, n, seed):
    syn = gen_synthetic(SyntheticSpec(m_train=m, m_test=1, n_candidates=n, dim=32, topics=50,
                                      noise_sigma=0.3, seed=seed))
    return syn.train_contexts, syn.candidates


def gaussian(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, 32)).astype(np.float32), rng.normal(size=(n, 32)).astype(np.float32)


# (corpus, m, n, seed, path) at the real tile and block sizes: "scan" makes
# no _balls call, "balls" builds them, "tried" finds no clusters. A long
# batch has at least 2 blocks of 256 queries and 2 tiles of 4096 rows.
@pytest.mark.parametrize("corpus, m, n, seed, path", [
    (topics, 1000, 10_000, 42, "balls"),
    (topics, 1000, 10_000, 7, "balls"),
    (topics, 2000, 10_000, 42, "balls"),
    (topics, 2000, 10_000, 7, "balls"),
    (topics, 1000, 30_000, 42, "balls"),
    (topics, 1000, 30_000, 7, "balls"),
    (topics, 2000, 30_000, 42, "balls"),
    (topics, 2000, 30_000, 7, "balls"),
    (topics, 511, 8192, 42, "scan"),  # the edges of the smallest long batch
    (topics, 512, 8192, 42, "balls"),
    (topics, 512, 8191, 42, "scan"),
    (topics, 511, 100_000, 42, "scan"),  # m under 2 blocks
    (topics, 512, 100_000, 42, "balls"),
    (topics, 2100, 8191, 42, "scan"),  # n under 2 tiles
    (gaussian, 512, 8192, 9, "tried"),
    (gaussian, 1000, 10_000, 9, "tried"),
    (gaussian, 2000, 10_000, 9, "tried"),
])
def test_the_size_rule_decides_which_batches_look_for_balls(built, corpus, m, n, seed, path):
    queries, rows = corpus(m, n, seed)
    got = argmax_batch(queries, rows)
    assert ["tried" if b is None else "balls" for b in built] == ([] if path == "scan" else [path])
    if path != "scan":
        np.testing.assert_array_equal(got, [exact_argmax(q, rows).index for q in queries])


def searched_sample(rows):
    """The centered float32 sample of `rows` that `_balls` searches for
    pivots, at the real block size."""
    seen = []
    rounding = core._rounding(rows.dtype, rows.shape[1])
    norms = core._row_norms(rows, rounding.unit, "candidates")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_pivots", seen.append)  # returns None: no balls are built
        core._balls(rows, norms, rounding)
    return seen[0]


def pivot_rows(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian-d8":
        return rng.normal(size=(n, 8)).astype(np.float32)
    if kind == "gaussian-d32":
        return rng.normal(size=(n, 32)).astype(np.float32)
    if kind == "uniform":
        return rng.uniform(size=(n, 32)).astype(np.float32)
    topics, sigma = {"50-topics": (50, 0.3), "200-topics": (200, 0.3),
                     "50-topics-noise-1": (50, 1.0)}[kind]
    return gen_synthetic(SyntheticSpec(m_train=topics, m_test=1, n_candidates=n, dim=32,
                                       topics=topics, noise_sigma=sigma, seed=seed)).candidates


# (kind, n, seed, gives_up): None where the search finds pivots, else the
# number of pivots it tries before it returns None. Rows without clusters
# give up at the check at 16 pivots; 50 topics at noise 1.0 and seed 7
# pass it and fail only at 256.
@pytest.mark.parametrize("kind, n, seed, gives_up", [
    ("50-topics", 10_000, 42, None),
    ("50-topics", 10_000, 7, None),
    ("50-topics", 100_000, 42, None),
    ("200-topics", 10_000, 42, None),
    ("gaussian-d8", 10_000, 9, None),
    ("gaussian-d32", 10_000, 9, 16),
    ("uniform", 10_000, 9, 16),
    ("50-topics-noise-1", 10_000, 42, 16),
    ("50-topics-noise-1", 100_000, 42, 16),
    ("50-topics-noise-1", 10_000, 7, 256),
])
def test_the_pivot_search_gives_up_early_only_where_it_would_fail(kind, n, seed, gives_up):
    sample = searched_sample(pivot_rows(kind, n, seed))
    want = farthest_pivots(sample, core._BLOCK_ROWS)
    products = []  # one matrix-vector product a pivot
    matmul = np.matmul
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "matmul", lambda *args, **kw: products.append(1) or matmul(*args, **kw))
        got = core._pivots(sample)
    assert got == want
    assert len(products) == (len(want) if gives_up is None else gives_up)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_contexts_are_named_before_candidates_on_the_ball_path(small, bad):
    rows = clustered(np.random.default_rng(11), 128, 2, 2)
    queries = np.ones((16, 3), dtype=np.float32)
    rows[77, 0] = bad
    with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
        argmax_batch(queries, rows)
    queries[12, 1] = bad
    with pytest.raises(ValueError, match="^contexts contains non-finite entries$"):
        argmax_batch(queries, rows)
    assert small == []  # both raised before any ball was built


def test_widened_search_takes_the_ball_path_in_float64(small):
    # scores near 2**200 overflow float32: the batch is searched again in
    # float64, where the balls are built from the float64 rows
    rng = np.random.default_rng(12)
    rows = clustered(rng, 128, 2, 2) * np.float32(2.0**100)
    queries = rng.integers(-2, 3, size=(16, 3)).astype(np.float32) * np.float32(2.0**100)
    np.testing.assert_array_equal(argmax_batch(queries, rows), want(queries, rows))
    (balls,) = small
    assert balls is not None and balls.groups[0][1].dtype == np.float64


def test_rows_whose_products_overflow_float32_take_the_scan(small):
    # tiny queries keep the scores in float32, but the rows' squared norms
    # and their products with the centers would overflow: no balls
    rng = np.random.default_rng(13)
    rows = clustered(rng, 128, 2, 2) * np.float32(2.0**70)
    queries = rng.integers(-2, 3, size=(16, 3)).astype(np.float32) * np.float32(2.0**-60)
    np.testing.assert_array_equal(argmax_batch(queries, rows), want(queries, rows))
    assert small == [None]


def equidistant(rng):
    """Copies of (0, 8) and (8, 0), and copies of their midpoint (4, 4) at
    rows the 16-row sample of 128 does not take, so the two sample means
    are those points and the midpoint ties between them."""
    rows = np.tile(np.array([[0, 8], [8, 0]], dtype=np.float32), (64, 1))
    rows[[2, 3, 40, 41, 100]] = (4, 4)
    return rows, rng.integers(-2, 3, size=(16, 2)).astype(np.float32)


def duplicates(rng):
    rows = clustered(rng, 144, 2, 3)
    rows[[10, 50, 90, 130]] = rows[7]
    return rows, rng.integers(-2, 3, size=(16, 3)).astype(np.float32)


def widened(rng):  # scores near 2**200: the balls are built from the float64 rows
    rows = clustered(rng, 128, 2, 2) * np.float32(2.0**100)
    return rows, rng.integers(-2, 3, size=(16, 3)).astype(np.float32) * np.float32(2.0**100)


def tiny(rng):  # squares below float32's subnormals: norms and radii from the floor
    rows = clustered(rng, 128, 2, 3) * np.float32(2.0**-100)
    return rows, rng.integers(-2, 3, size=(16, 3)).astype(np.float32)


def cancelling(rng):
    """Clusters at norms near 2**20 with +-1 jitter: |x|^2 is about 2**41
    while |x - c|^2 is a few units, so the radii come from the difference
    of two nearly equal terms, |x|^2 and 2 (c . x - |c|^2 / 2)."""
    corners = np.array(list(itertools.product([-(2**20), 2**20], repeat=2)))
    rows = corners[rng.permutation(4)[:3]][rng.integers(0, 3, size=128)]
    rows = rows + rng.integers(-1, 2, size=(128, 2))
    return rows.astype(np.float32), rng.integers(-2, 3, size=(16, 2)).astype(np.float32)


@pytest.mark.parametrize("case", [equidistant, duplicates, widened, tiny, cancelling])
def test_every_row_lies_inside_its_ball(small, case):
    rows, queries = case(np.random.default_rng(14))
    np.testing.assert_array_equal(argmax_batch(queries, rows), want(queries, rows))
    (balls,) = small
    assert balls is not None
    assert_rows_in_their_balls(balls, rows)
    if case is equidistant:
        assert {tuple(c) for c in balls.centers.tolist()} == {(0.0, 8.0), (8.0, 0.0)}
    if case is cancelling:  # the slack stays far below the gaps between clusters
        assert balls.radii.max() < 2.0**12


def test_radii_cover_the_rounding_of_the_assignment_scores():
    # With the rows' exact norms as X, only _radii's slack covers the
    # rounding of b: at norms near 2**20 a float32 score c . x is rounded
    # by up to 2**16, where |x - c|^2 is a few units.
    rows, _ = cancelling(np.random.default_rng(16))
    centers = np.unique(np.round(rows / 2.0**20), axis=0) * 2.0**20 + (0.375, -0.625)
    centers = centers.astype(np.float32)
    labels, scores = core._nearest(rows, centers)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    groups = labels[order][starts]  # the center of each run
    exact = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))  # exact squares
    rounding = core._rounding(rows.dtype, 2)
    cnorms = core._row_norms(centers, rounding.unit, "centers")[groups]
    radii = core._radii(np.nextafter(exact, np.inf)[order], scores[order], cnorms, starts, rounding)
    for c, radius in zip(groups, radii):
        center = [Fraction(float(x)) for x in centers[c]]
        for row in rows[labels == c].tolist():
            assert sum((Fraction(x) - y) ** 2 for x, y in zip(row, center)) <= Fraction(radius) ** 2


def test_sampled_rows_lie_inside_their_balls_at_full_tile_size(built):
    # 2000 queries over 10k rows of 50 topics take the ball path at the
    # real tile and block sizes; 256 sampled rows are checked exactly
    syn = gen_synthetic(SyntheticSpec(m_train=2000, m_test=1, n_candidates=10_000, dim=32,
                                      topics=50, noise_sigma=0.3, seed=42))
    argmax_batch(syn.train_contexts, syn.candidates)
    (balls,) = built
    assert balls is not None
    checked = np.random.default_rng(15).choice(10_000, size=256, replace=False)
    assert_rows_in_their_balls(balls, syn.candidates, checked)


def test_a_row_equidistant_from_two_centers_joins_the_first():
    centers = np.array([[0, 8], [8, 0]], dtype=np.float32)
    x = np.array([[4, 4], [3, 5], [5, 3]], dtype=np.float32)
    labels, scores = core._nearest(x, centers)
    np.testing.assert_array_equal(labels, [0, 0, 1])
    np.testing.assert_array_equal(scores, [0, 8, 8])  # c . x - |c|^2 / 2 at the winner
    np.testing.assert_array_equal(core._nearest(x, centers[::-1])[0], [0, 1, 0])
