"""Every search path picks the largest exact inner product of the float32
values, the lowest index on an exact tie: one query, a batch, cluster
assignment, and screened search one query at a time or grouped by
cluster. The reference is `oracles.exact_argmax`, in rational arithmetic.

Near-ties are planted below float32 resolution. Each row is a small
integer part plus a last column of small multiples of 2**-30, so rows
that share their integer part get equal float32 scores while their exact
inner products differ.
"""

import json
import os
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipscreen import core
from mipscreen.cli import run
from mipscreen.data import read_labels, write_embeddings
from mipscreen.screening import (
    ScreeningModel,
    assign_clusters,
    pack_subsets,
    save_model,
    screened_search,
    screened_search_batch,
)
from mipscreen.search import argmax_batch, exact_argmax, top_k
from oracles import exact_argmax as oracle, exact_top_k

TINY = 2.0**-30


@st.composite
def near_tie_rows(draw, dim, min_rows=1, max_rows=10):
    """float32 rows: one of a few shared integer parts in [-2, 2]^dim,
    then a last column in TINY * [-3, 3]; some rows repeat verbatim."""
    bases = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                          min_size=1, max_size=3))
    n = draw(st.integers(min_rows, max_rows))
    rows = [draw(st.sampled_from(bases)) + [draw(st.integers(-3, 3)) * TINY] for _ in range(n)]
    for src in draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []:
        rows.insert(draw(st.integers(0, len(rows))), list(rows[src]))
    return np.array(rows, dtype=np.float32).reshape(len(rows), dim + 1)


@st.composite
def screening_problem(draw):
    dim = draw(st.integers(1, 3))
    queries = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim + 1,
                                              max_size=dim + 1), min_size=1, max_size=8)),
                       dtype=np.float32)
    candidates = draw(near_tie_rows(dim, max_rows=12))
    centroids = draw(near_tie_rows(dim, max_rows=4))
    n, k = candidates.shape[0], centroids.shape[0]
    # some clusters screen nothing and fall back to every candidate
    bits = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                  min_size=k, max_size=k)))
    return queries, candidates, ScreeningModel(centroids, pack_subsets(bits), 0.5, n)


def oracle_screened(q, model, candidates):
    members = model.member_indices[oracle(q, model.centroids)[0]]
    return int(members[oracle(q, candidates[members])[0]])


# tile 1 also scores one query per block, so a batch of m >= 2 queries
# over n >= 2 rows with m n >= 16 looks for balls (one-row groups); the
# scan twin searches the same batch with no balls
@pytest.mark.parametrize("tile", [None, 2, 3, 1])
@settings(max_examples=150, deadline=None)
@given(problem=screening_problem())
def test_every_path_matches_the_rational_oracle(tile, problem):
    queries, candidates, model = problem
    with mock.patch.object(core, "_TILE_ROWS", tile or core._TILE_ROWS), \
            mock.patch.object(core, "_BLOCK_ROWS", 1 if tile == 1 else core._BLOCK_ROWS):
        want = [oracle(q, candidates)[0] for q in queries]
        assert [exact_argmax(q, candidates).index for q in queries] == want
        np.testing.assert_array_equal(argmax_batch(queries, candidates), want)
        with mock.patch.object(core, "_balls", return_value=None):  # the scan twin
            np.testing.assert_array_equal(argmax_batch(queries, candidates), want)

        clusters = [oracle(q, model.centroids)[0] for q in queries]
        np.testing.assert_array_equal(assign_clusters(queries, model), clusters)
        for q, k in zip(queries, clusters):
            np.testing.assert_array_equal(assign_clusters(q[None], model), [k])

        want = [oracle_screened(q, model, candidates) for q in queries]
        assert [screened_search(q, model, candidates).index for q in queries] == want
        np.testing.assert_array_equal(screened_search_batch(queries, model, candidates), want)


def test_float32_scores_tie_where_exact_products_differ():
    # the planted case itself: float32 cannot tell rows 0-2 apart
    rows = np.array([[1, 0, 0], [1, 0, TINY], [1, 0, 2 * TINY], [1, 0, TINY]], dtype=np.float32)
    q = np.array([1, 5, 1], dtype=np.float32)
    scores = rows @ q
    assert scores[0] == scores[1] == scores[2] == scores[3]
    assert oracle(q, rows)[0] == 2
    assert exact_argmax(q, rows).index == 2
    np.testing.assert_array_equal(argmax_batch(np.stack([q, -q, q]), rows), [2, 0, 2])


def test_exact_ties_go_to_the_lowest_index_across_tiles(monkeypatch):
    monkeypatch.setattr(core, "_TILE_ROWS", 4)
    rows = np.zeros((19, 3), dtype=np.float32)
    rows[[5, 9, 17]] = (1, 2, TINY)  # the same best row in three tiles
    rows[[3, 12]] = (1, 2, 0)  # float32 ties with it, exactly smaller
    q = np.array([2, 1, 1], dtype=np.float32)
    assert exact_argmax(q, rows).index == 5
    np.testing.assert_array_equal(argmax_batch(np.stack([q] * 3), rows), [5, 5, 5])
    # the zero query ties every row exactly
    assert exact_argmax(np.zeros(3, dtype=np.float32), rows).index == 0


def test_wide_exact_ties_are_settled_without_a_comparison_per_row():
    # 9000 rows, two tiles at the default size, the second taking the
    # remainder: the zero query ties every row, and 600 copies of the best
    # row tie in both tiles. Each tile is settled by the lowest index or
    # one comparison, not by an fsum per tied row.
    rng = np.random.default_rng(16)
    rows = rng.integers(-2, 3, size=(9000, 8)).astype(np.float32)
    copies = np.sort(rng.choice(9000, size=600, replace=False))
    rows[copies, :7] = 3  # copies where q is nonzero; their products of 0 differ in sign
    q = np.ones(8, dtype=np.float32)
    q[7] = 0
    zero = np.zeros(8, dtype=np.float32)
    with mock.patch.object(core.math, "fsum", wraps=core.math.fsum) as fsum:
        assert exact_argmax(zero, rows).index == 0
        np.testing.assert_array_equal(argmax_batch(np.stack([zero, zero]), rows), [0, 0])
        assert fsum.call_count == 0
        assert exact_argmax(q, rows).index == copies[0]
        np.testing.assert_array_equal(argmax_batch(np.stack([q, zero, q]), rows),
                                      [copies[0], 0, copies[0]])
        assert fsum.call_count == 2 * 3  # one per tile and query
        # top_k re-sorts the 600 copies, one near run, without comparing them
        fsum.reset_mock()
        for c in (q, zero):
            assert [r.index for r in top_k(c, rows, 10)] == exact_top_k(c, rows, 10)
        assert fsum.call_count == 0
    assert oracle(q, rows)[0] == copies[0]


@pytest.mark.parametrize("k", [1, 10, 100, 1000])
def test_top_k_near_ties_within_the_rounding_bound(k):
    # small-integer rows plus a last column of multiples of 2**-49, which
    # the query takes once: every float64 score is exact in any summation
    # order, so the float order is the exact order, and rows sharing their
    # integer part lie within the rounding bound e of each other. Starting
    # from the float order, the exact sort compares each neighbour once:
    # an fsum for each overlapping pair, and none for the top product.
    rng = np.random.default_rng(94)
    rows = rng.integers(-2, 3, size=(4000, 4)).astype(np.float32)
    rows[:, 3] = rng.integers(0, 16, size=4000) * 2.0**-49
    q = np.array([2, 1, -1, 1], dtype=np.float32)
    scores = rows.astype(np.float64) @ q.astype(np.float64)
    unit = core._rounding(np.dtype(np.float32), 4).unit
    e = core._rounding(np.dtype(np.float64), 4).bound(
        core._row_norms(q[None], unit, "q")[0], core._row_norms(rows, unit, "c").max())
    band = np.sort(scores[scores + e >= np.sort(scores - e)[-k]])[::-1]
    overlaps = np.count_nonzero(band[:-1] - e <= band[1:] + e)
    want = exact_top_k(q, rows, k)
    with mock.patch.object(core.math, "fsum", wraps=core.math.fsum) as fsum:
        assert [r.index for r in top_k(q, rows, k)] == want
    assert 0 < fsum.call_count <= overlaps
    # scores anywhere within e of exact give the same rows: push the exact
    # top k down by e / 2 and every other row up by e / 2 (still within e
    # once rounded), which moves near-tied rows across the k-th
    push = np.full(rows.shape[0], e / 2)
    push[want] = -e / 2
    assert set(np.argsort(-(scores + push), kind="stable")[:k]) != set(want)
    matmul = np.matmul

    def skewed(tile, q64, out):  # one tile: out holds every score
        matmul(tile, q64, out=out)
        out += push

    with mock.patch.object(core.np, "matmul", skewed):
        assert core.inner_product_top_k(q, rows, k).tolist() == want


def test_float64_inputs_are_compared_exactly():
    # k-means passes float64 points and centroids, whose products round:
    # (1 + 2**-30)**2 = 1 + 2**-29 + 2**-60 exactly, which beats the second
    # row's 1 + 2**-29 + 2**-61 although both round to 1 + 2**-29
    q = np.array([1 + 2.0**-30, 1])
    rows = np.array([[1 + 2.0**-30, 0], [1, 2.0**-30 + 2.0**-61]])
    for order, want in (([0, 1], 0), ([1, 0], 1)):
        assert oracle(q, rows[order])[0] == want
        np.testing.assert_array_equal(core.inner_product_argmax(q[None], rows[order]), [want])
        np.testing.assert_array_equal(core.inner_product_argmax(np.stack([q, q]), rows[order]),
                                      [want, want])


def near_tie_corpus(n, d, m, seed):
    """Random float32 rows and queries, with exact duplicates and rows
    that differ from another row by one float32 ulp in one column."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d)).astype(np.float32)
    src = rng.integers(0, n, size=n // 50)
    dst = rng.integers(0, n, size=n // 50)
    rows[dst] = rows[src]
    rows[dst[::2], 0] = np.nextafter(rows[dst[::2], 0], np.float32(np.inf))
    queries = rng.normal(size=(m, d)).astype(np.float32)
    queries[: m // 4] = rows[src[: m // 4]]  # queries that hit the near-duplicate rows
    return rows, queries


def test_batch_of_one_and_any_split_give_identical_indices():
    # 9000 rows: two tiles of 4096 rows, the second taking the remainder
    rows, queries = near_tie_corpus(9000, 16, 1 + 7 + 256 + 257, seed=5)
    order = np.random.default_rng(6).permutation(queries.shape[0])
    queries = queries[order]
    singles = np.array([exact_argmax(q, rows).index for q in queries])
    np.testing.assert_array_equal(argmax_batch(queries, rows), singles)
    cuts = np.cumsum([1, 7, 256])
    split = np.concatenate([argmax_batch(part, rows) for part in np.split(queries, cuts)])
    np.testing.assert_array_equal(split, singles)
    for i in np.flatnonzero(order < 2):  # two queries that hit a near-duplicate row
        assert singles[i] == oracle(queries[i], rows)[0]


def test_screened_batch_matches_per_query_search_with_an_empty_cluster():
    rows, queries = near_tie_corpus(9000, 16, 300, seed=8)
    rng = np.random.default_rng(9)
    bits = rng.random((4, rows.shape[0])) < 0.3
    bits[2] = False  # falls back to all 9000 rows
    model = ScreeningModel(rng.normal(size=(4, 16)).astype(np.float32), pack_subsets(bits),
                           0.5, rows.shape[0])
    assert 2 in assign_clusters(queries, model)
    singles = [screened_search(q, model, rows).index for q in queries]
    np.testing.assert_array_equal(screened_search_batch(queries, model, rows), singles)
    cuts = np.cumsum([1, 7, 256])
    split = np.concatenate([screened_search_batch(part, model, rows)
                            for part in np.split(queries, cuts)])
    np.testing.assert_array_equal(split, singles)


def test_screened_search_rejects_non_finite_rows_it_scores():
    rows = np.ones((6, 2), dtype=np.float32)
    model = ScreeningModel(np.eye(2, dtype=np.float32),
                           pack_subsets(np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])), 0.5, 6)
    rows[4, 1] = np.nan
    q = np.array([1, 0], dtype=np.float32)  # cluster 0 does not search row 4
    assert screened_search(q, model, rows).index == 0
    c = np.array([0, 1], dtype=np.float32)  # cluster 1 does
    with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
        screened_search(c, model, rows)
    with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
        screened_search_batch(np.stack([q, c]), model, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("bad_row", [0, 13])  # in the first tile, in the last
def test_non_finite_contexts_are_named_before_candidates(monkeypatch, bad_row, bad):
    monkeypatch.setattr(core, "_TILE_ROWS", 4)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 2)
    rows = np.ones((14, 3), dtype=np.float32)  # tiles of 4, 4 and 6 rows
    rows[bad_row, 1] = bad
    queries = np.ones((5, 3), dtype=np.float32)  # blocks of 2, 2 and 1 queries
    queries[4, 2] = bad
    message = "^contexts contains non-finite entries$"
    with pytest.raises(ValueError, match=message):
        argmax_batch(queries, rows)
    with pytest.raises(ValueError, match=message):
        exact_argmax(queries[4], rows)
    with pytest.raises(ValueError, match=message):
        top_k(queries[4], rows, 3)


def test_float32_search_near_the_overflow_bound(monkeypatch):
    # Entries are small multiples of 2**58 (about 2.9e17) at D=32, scored
    # in 128-row tiles and blocks of 8 queries (small enough for the
    # rational oracle). Each query's row-norm bound stays below the float32
    # limit, while a block's Frobenius norm times a tile's would not: the
    # batch is searched in float32, planted near-ties included.
    monkeypatch.setattr(core, "_TILE_ROWS", 128)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 8)
    scale = np.float32(2.0**58)
    rng = np.random.default_rng(17)
    rows = rng.integers(-3, 4, size=(400, 32)).astype(np.float32)
    rows[:, 31] = rng.integers(-3, 4, size=400) * TINY
    rows[rng.integers(0, 400, size=40), :31] = rows[rng.integers(0, 400, size=40), :31]
    queries = rng.integers(-3, 4, size=(20, 32)).astype(np.float32)
    rows, queries = rows * scale, queries * scale
    rounding = core._rounding(np.dtype(np.float32), 32)
    unit = rounding.unit
    row_bound = rounding.bound(core._row_norms(queries, unit, "q").max(),
                               core._row_norms(rows, unit, "c").max())
    frobenius = rounding.bound(core._row_norms(queries[:8].reshape(1, -1), unit, "q")[0],
                               core._row_norms(rows[:128].reshape(1, -1), unit, "c")[0])
    assert row_bound < rounding.limit < frobenius
    want = [oracle(q, rows)[0] for q in queries]
    with mock.patch.object(core._Rounding, "wider", autospec=True,
                           side_effect=core._Rounding.wider) as wider:
        np.testing.assert_array_equal(argmax_batch(queries, rows), want)
    assert wider.call_count == 0
    assert [exact_argmax(q, rows).index for q in queries] == want


@pytest.mark.parametrize("scale", [1e19, 1e30])
def test_finite_rows_whose_squares_overflow_float32_are_searched(scale):
    # 1e19: the float32 sum of squares overflows but no score does;
    # 1e30: scores overflow too, and the search is redone in float64
    rng = np.random.default_rng(12)
    rows = (rng.integers(-3, 4, size=(40, 5)) * scale).astype(np.float32)
    rows[7] = rows[3]
    queries = rng.integers(-3, 4, size=(9, 5)).astype(np.float32)
    queries[0] *= np.float32(scale)
    want = [oracle(q, rows)[0] for q in queries]
    assert [exact_argmax(q, rows).index for q in queries] == want
    np.testing.assert_array_equal(argmax_batch(queries, rows), want)
    n = rows.shape[0]
    for q in queries:
        assert [r.index for r in top_k(q, rows, n)] == exact_top_k(q, rows, n)


@pytest.mark.parametrize("scale", [2.0**-100, 2.0**-130])
def test_rows_whose_squares_underflow_float32_are_searched(scale):
    # the float32 sums of squares are 0, so the norm bounds rest on the
    # subnormal floor; rows along one direction make near-tied scores
    rng = np.random.default_rng(15)
    rows = ((rng.normal(size=8) + 1e-6 * rng.normal(size=(64, 8))) * scale).astype(np.float32)
    queries = rng.normal(size=(40, 8)).astype(np.float32)
    want = [oracle(q, rows)[0] for q in queries]
    assert [exact_argmax(q, rows).index for q in queries] == want
    np.testing.assert_array_equal(argmax_batch(queries, rows), want)
    n = rows.shape[0]
    for q in queries:
        assert [r.index for r in top_k(q, rows, n)] == exact_top_k(q, rows, n)


def _search(capsys, *args):
    assert run(["search", *args]) == 0
    return capsys.readouterr().out


def test_cli_search_prints_the_per_query_answers(tmp_path, capsys):
    # N above two tiles, and a model with an empty cluster
    rows, queries = near_tie_corpus(8192 + 700, 8, 120, seed=14)
    rng = np.random.default_rng(15)
    bits = rng.random((3, rows.shape[0])) < 0.2
    bits[1] = False
    model = ScreeningModel(rng.normal(size=(3, 8)).astype(np.float32), pack_subsets(bits),
                           0.5, rows.shape[0])
    assert 1 in assign_clusters(queries, model)
    for name, data in (("c.emb", rows), ("q.emb", queries)):
        write_embeddings(data, tmp_path / name)
    save_model(model, tmp_path / "m.scrn")
    files = ["--context-file", str(tmp_path / "q.emb"), "--candidates", str(tmp_path / "c.emb")]

    screened = _search(capsys, "--screened", "--model", str(tmp_path / "m.scrn"), *files)
    want = [screened_search(q, model, rows) for q in queries]
    assert screened == "".join(f"{r.index} {r.score:.6f}\n" for r in want)

    exact = _search(capsys, "--exact", *files)
    assert run(["labels", "--contexts", str(tmp_path / "q.emb"), "--candidates",
                str(tmp_path / "c.emb"), "--out", str(tmp_path / "labels.txt")]) == 0
    capsys.readouterr()
    labels = read_labels(tmp_path / "labels.txt")
    assert [int(line.split()[0]) for line in exact.splitlines()] == list(labels)
    want = [exact_argmax(q, rows) for q in queries]
    assert exact == "".join(f"{r.index} {r.score:.6f}\n" for r in want)


# (rows, dimension, queries): the shapes on which float64 BLAS results
# once changed with the thread count
_THREAD_SHAPES = [(16886, 32, 2), (23011, 48, 513), (36974, 64, 257)]

_CHILD = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from mipscreen.search import argmax_batch, exact_argmax
    from test_exact_winner import near_tie_corpus
    out = []
    for n, d, m in json.loads(sys.argv[1]):
        rows, queries = near_tie_corpus(n, d, m, seed=n)
        out.append(argmax_batch(queries, rows).tolist())
        out.append([exact_argmax(q, rows).index for q in queries[:20]])
    print(json.dumps(out))
    """
)


def test_indices_do_not_depend_on_the_blas_thread_count():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([here, os.path.join(here, "..", "src"), os.environ.get("PYTHONPATH", "")])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(_THREAD_SHAPES)],
                               env=env, capture_output=True, text=True, timeout=300, check=True)
        results.append(json.loads(child.stdout))
    assert results[0] == results[1]
    for batch, singles in zip(results[0][::2], results[0][1::2]):
        assert batch[:20] == singles
