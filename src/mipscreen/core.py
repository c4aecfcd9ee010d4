"""Vector primitives and the binary container codec shared by every
other module.

Embeddings are stored as float32 rows. `inner_product_argmax`, behind
every search, assignment and label, returns the row with the largest
exact inner product of the float32 values, the lowest index on an exact
tie, whatever the product shape or the BLAS thread count: it scores in
float32 and re-decides exactly every query that rounding could have
misled. `inner_product_top_k` exactly sorts the rows whose float64 scores
could reach the k-th; one bounded exact sorter (`_exact_order`) serves both.
Reported scores (`inner_product`) accumulate in float64. Nothing here
normalizes vectors for scoring: raw inner products are the scoring
currency, and unit-norm vectors only appear inside the clustering
initializer.
"""

import functools
import math
import os
import struct
from typing import NamedTuple

import numpy as np

_CONTAINER_VERSION = 1

# Two bounds on inner_product_argmax's working set. Candidate rows are
# scored one tile at a time: _TILE_ROWS rows, or up to twice that for the
# last tile, which takes the remainder. A batch is scored one block of
# queries at a time: _BLOCK_ROWS against a full tile, and proportionally
# more against a short one (k-means' centroids, a screened subset), so a
# score block holds fewer than _BLOCK_ROWS x 2 x _TILE_ROWS values. A long
# batch's ball path keeps to both: it takes at most _BLOCK_ROWS centers, so
# a tile's scores against them fit one score block, and it scores its balls
# tile by tile. Neither bound changes a result: the winner is the largest
# exact inner product, and the lowest index wins an exact tie, whatever the
# tile, the product shape or the BLAS thread count.
_TILE_ROWS = 4096
_BLOCK_ROWS = 256


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float32 vector."""
    arr = np.asarray(v, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("vector must have length >= 1")
    return arr


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D float32 row matrix."""
    arr = np.asarray(m, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    """arr, if every entry is finite; otherwise ValueError.

    A C-contiguous float32 or float64 array is cleared by one dot product:
    its sum of squares is finite only if every entry is, in any summation
    order (as in `_argmax_one`'s Frobenius bound). When the sum is not
    finite, a non-finite entry or finite entries whose squares overflowed,
    the entries decide.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype in (np.float32, np.float64)
        and arr.flags.c_contiguous
        and math.isfinite(np.vdot(arr, arr))
    ):
        return arr
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def inner_product(u, v) -> float:
    """Dot product of two equal-length vectors, accumulated in float64."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape[0] != v.shape[0]:
        raise ValueError(
            f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}"
        )
    return float(np.dot(u.astype(np.float64), v.astype(np.float64)))


def inner_product_top_k(q, rows, k) -> np.ndarray:
    """Indices of the k rows with the largest exact inner products with
    the vector q, in decreasing order, the lowest index first on an exact
    tie. A non-finite entry raises ValueError.

    Rows are scored in float64, one matrix-vector product per tile, each
    score within a bound e of exact. At least k rows have exact products
    at or above the k-th largest lower bound, so every row of the exact
    top k has an upper bound that reaches it; that band alone is sorted
    exactly (`_exact_order`).
    """
    unit = _rounding(rows.dtype, q.size).unit
    qnorm = float(_row_norms(q[None], unit, "contexts")[0])  # also the finiteness checks
    cnorm = float(_row_norms(rows, unit, "candidates").max())
    if not q.any():  # every row ties exactly at 0
        return np.arange(k)
    n, q64, scores = rows.shape[0], q.astype(np.float64), np.empty(rows.shape[0])
    for start, tile in _tiles(rows):
        np.matmul(tile.astype(np.float64), q64, out=scores[start : start + tile.shape[0]])
    e = _rounding(np.dtype(np.float64), q.size).bound(qnorm, cnorm)
    lo, hi = scores - e, scores + e
    band = np.flatnonzero(hi >= np.partition(lo, n - k)[n - k])  # ascending indices
    return band[_exact_order(q, rows[band], lo[band], hi[band])[:k]]


def inner_product_argmax(queries, rows) -> np.ndarray:
    """Index of the largest exact inner product against `rows`, for every
    query row; an exact tie goes to the lowest index. Callers validate the
    2-D shapes; a non-finite entry raises ValueError.

    Scores are computed in the inputs' own dtype (float32 for embeddings;
    mixed dtypes are compared as their float32 values) one tile of rows
    at a time, and trusted only up to `_Rounding`'s bound, which holds in
    every summation order, so on every BLAS path.
    Each query keeps an interval around its running winner's exact score,
    -inf at first. Float scores decide a tile when its top row's interval
    lies above the tile's runner-up and the running winner, or below the
    running winner (`_verdict`); otherwise `_settle` re-decides the query
    exactly. A batch is bounded by query and row norms; one query takes a
    lean scalar branch, bounded by the tile's Frobenius norm, then its row norms.
    A long batch over clustered rows visits balls of rows instead of tiles,
    and skips a ball for a query when a bound on its rows' exact products
    lies strictly below the query's running winner (`_Balls`).
    """
    if queries.dtype != rows.dtype:  # compared as the float32 values, as serving casts them
        queries, rows = queries.astype(np.float32), rows.astype(np.float32)
    rounding = _rounding(rows.dtype, rows.shape[1])
    # the scalar twin stays: through _argmax_batch one query took 3-5x as long
    # (p50 exact_argmax 1.3 -> 4.0 ms, screened_search 36 -> 180 us; N=100k, D=32)
    if queries.shape[0] == 1:
        return np.array([_argmax_one(queries[0], rows, rounding)])
    return _argmax_batch(queries, rows, rounding)


class _Rounding(NamedTuple):
    """|fl(q.c) - q.c| <= gamma |q| |c| + floor for a length-d inner
    product summed in any order, with gamma = d u / (1 - d u) for unit
    roundoff u (rounded up 1% for the float64 arithmetic of the norms and
    the bound) and floor = d times the smallest subnormal, `tiny`. Below
    `limit` no partial sum can overflow."""

    dtype: np.dtype
    d: int
    unit: float
    gamma: float
    tiny: float
    floor: float
    limit: float

    def bound(self, qnorm, cnorm):
        return self.gamma * qnorm * cnorm + self.floor

    def wider(self) -> "_Rounding":
        """The float64 rounding a search is redone in once a float32
        score may overflow; products of float32 values cannot overflow it."""
        if self.dtype == np.float64:
            raise ValueError("inner products too large to bound in float64")
        return _rounding(np.dtype(np.float64), self.d)


@functools.cache
def _rounding(dtype, d) -> _Rounding:
    info = np.finfo(dtype)
    unit = float(info.eps) / 2
    gamma = 1.01 * d * unit / (1 - d * unit) if d * unit < 0.5 else math.inf
    tiny = float(info.smallest_subnormal)
    floor = d * tiny
    return _Rounding(dtype, d, unit, gamma, tiny, floor, gamma * float(info.max) / 2 + floor)


def _verdict(top, runner, e, best, err):
    """(won, decided) for a tile, from its top and runner-up float scores,
    each within `e` of exact, and the running winner's exact score, within
    `err` of `best` (-inf before the first tile). won: the tile's top row
    beats every row seen so far. decided: won, or every row of the tile
    loses to the running winner. Scalars or arrays; NaN reads as undecided."""
    won = (top - runner > 2 * e) & (top - e > best + err)
    return won, won | (top + e < best - err)


def _argmax_one(q, rows, rounding) -> int:
    tiny = rounding.tiny
    qq = float(np.vdot(q, q)) + q.size * tiny
    out, best, err = 0, -math.inf, 0.0  # the running winner; its exact score is best +- err
    for offset, tile in _tiles(rows):
        # Frobenius bound from one pass and no checks, to keep one query
        # cheap: a non-finite entry makes it NaN or inf, caught right below
        tt = float(np.vdot(tile, tile)) + tile.size * tiny
        sq = _inflate(qq * tt, q.size + tile.size, rounding.unit)
        e = rounding.bound(math.sqrt(sq), 1.0)
        if not e < rounding.limit:
            check_finite(q, "contexts")
            check_finite(tile, "candidates")
            wider = rounding.wider()
            return _argmax_one(q.astype(wider.dtype), rows.astype(wider.dtype), wider)
        scores = np.dot(tile, q)
        i = int(scores.argmax())
        top = float(scores[i])
        scores[i] = -np.inf
        runner = float(scores[scores.argmax()])  # cheaper than max() on a short row
        won, decided = _verdict(top, runner, e, best, err)
        if not decided:  # the row norms give a tighter bound, and cost less than _settle
            qnorm = math.sqrt(_inflate(qq, q.size, rounding.unit))  # qq is finite here
            e_rows = rounding.bound(qnorm, _row_norms(tile, rounding.unit, "candidates"))
            e = float(e_rows.max())
            won, decided = _verdict(top, runner, e, best, err)
            if not decided:
                scores[i] = top
                ids = np.arange(offset, offset + tile.shape[0])
                out, best, err = _settle(q, rows, ids, scores, e_rows, (out, best, err))
        if won:
            out, best, err = offset + i, top, e
    return out


def _argmax_batch(queries, rows, rounding) -> np.ndarray:
    m, n = queries.shape[0], rows.shape[0]
    qnorms = _row_norms(queries, rounding.unit, "contexts")
    norms = _row_norms(rows, rounding.unit, "candidates")
    if not rounding.bound(float(qnorms.max(initial=0.0)), float(norms.max())) < rounding.limit:
        wider = rounding.wider()
        return _argmax_batch(queries.astype(wider.dtype), rows.astype(wider.dtype), wider)
    # the running winners (index, best, err): each exact score is best +- err
    state = np.zeros(m, dtype=np.int64), np.full(m, -np.inf), np.zeros(m)
    # Balls pay for their build on every batch of at least 2 blocks over at
    # least 2 tiles. Medians on a 2-core host, one BLAS thread, D = 32,
    # 50-topic gen_synthetic rows, the same winners either way:
    #   512 x 8192, the smallest: scan 6.9 ms, balls 7.3 ms
    #   1000 x 10k, seeds 42, 7:  scan 15 ms,  balls 8 ms
    #   2000 x 10k:               scan 30 ms,  balls 9.5 ms
    #   512 x 30k:                scan 26 ms,  balls 12 ms
    #   2000 x 30k:               scan 94 ms,  balls 15 ms
    # On rows without clusters the failed pivot search is the cost, 0.5-0.6
    # ms of a call once it gives up at 16 pivots: Gaussian rows took 4-5%
    # longer than the scan at 512 x 8192 and 2-3% at 1000 x 10k. On the
    # criterion-10 corpus (50 topics) the sample yields 50 balls, and a
    # batch scans 2% of the rows.
    long_scan = m >= 2 * _BLOCK_ROWS and n >= 2 * _TILE_ROWS
    balls = _balls(rows, norms, rounding) if long_scan else None
    if balls is None:  # one ball: its tiles in order, every query visiting each
        visits = [((np.arange(s, s + t.shape[0]), t, norms[s : s + t.shape[0]]), None)
                  for s, t in _tiles(rows)]
    else:
        visits = balls.visits(queries, qnorms, state)
    for group, who in visits:
        _merge(queries, qnorms, rows, group, who, state, rounding)
    return state[0]


def _merge(queries, qnorms, rows, group, who, state, rounding):
    """Fold a group of rows into the running winners `state` = (index,
    best, err) of the queries numbered `who`, or of every query in order
    when `who` is None (a block is then a slice: no gathers). group =
    (ids, block, norms): the rows' ascending indices in `rows`, the rows,
    and their norm bounds."""
    ids, block, norms = group
    out, best, err = state
    max_norm = float(norms.max())
    height = _BLOCK_ROWS * max(1, _TILE_ROWS // block.shape[0])
    every = range(out.size)
    for start in range(0, out.size if who is None else who.size, height):
        q = slice(start, start + height) if who is None else who[start : start + height]
        at = every[q] if who is None else q  # query numbers, for the exact re-checks
        e = rounding.bound(qnorms[q], max_norm)
        scores = queries[q] @ block.T
        idx = scores.argmax(axis=1)
        pick = (np.arange(idx.size), idx)
        top = scores[pick].astype(np.float64, copy=False)  # so top - e is not rounded to float32
        scores[pick] = -np.inf
        runner = scores[pick[0], scores.argmax(axis=1)]  # cheaper than max(axis=1)
        won, decided = _verdict(top, runner, e, best[q], err[q])
        out[q] = np.where(won, ids[idx], out[q])
        best[q] = np.where(won, top, best[q])
        err[q] = np.where(won, e, err[q])
        for j in np.flatnonzero(~decided):
            scores[j, idx[j]] = top[j]
            i = at[j]
            e_rows = rounding.bound(qnorms[i], norms)
            out[i], best[i], err[i] = _settle(queries[i], rows, ids, scores[j], e_rows,
                                              (out[i], best[i], err[i]))


class _Balls(NamedTuple):
    """Candidate rows in groups, each inside a ball around a center: a
    row c of group g has |c - center| <= radii[g], so a query q has
    q . c <= q . center + |q| radii[g], bounded from float64 scores."""

    groups: list  # (ids, block, norms) for _merge
    centers: np.ndarray  # float64 copies of each group's center
    cnorms: np.ndarray  # upper bounds on the centers' norms
    radii: np.ndarray

    def bounds(self, queries, qnorms):
        """Upper bounds on the exact inner products of each query with
        each group's rows: the float64 score of the center within its
        rounding bound, plus |q| r, plus 4 float64 units of the terms'
        sizes for the rounding of this sum."""
        rounding = _rounding(np.dtype(np.float64), self.centers.shape[1])
        s = queries.astype(np.float64) @ self.centers.T
        t = rounding.bound(qnorms[:, None], self.cnorms) + qnorms[:, None] * self.radii
        return s + t + 4 * rounding.unit * (np.abs(s) + t)

    def visits(self, queries, qnorms, state):
        """(group, query numbers) for _merge: each query's highest-bound
        group first, then every other group whose bound reaches the
        query's running winner. A skipped group's rows all lose to it; a
        group no query visits is not yielded."""
        _, best, err = state
        chunk = max(1, 2 * _BLOCK_ROWS * _TILE_ROWS // len(self.groups))  # bounds per pass
        for lo in range(0, queries.shape[0], chunk):
            hi = lo + chunk
            ub = self.bounds(queries[lo:hi], qnorms[lo:hi])
            first = ub.argmax(axis=1)
            for g, group in enumerate(self.groups):
                who = np.flatnonzero(first == g)
                if who.size:
                    yield group, lo + who
            for g, group in enumerate(self.groups):
                reach = ub[:, g] >= best[lo:hi] - err[lo:hi]
                who = np.flatnonzero(reach & (first != g))
                if who.size:
                    yield group, lo + who


def _balls(rows, norms, rounding):
    """_Balls around the clusters of `rows`, or None when a fixed sample,
    four rows per allowed pivot, shows no cluster structure (`_pivots`).
    A center is the mean of the sample rows nearest a pivot, rounded to
    the rows' dtype; each row joins its nearest center (`_nearest`). The
    rows are gathered once in center order, so each group's rows and norms
    are slices of that one copy. The radii come from the assignment, with
    no differences from the centers formed: |x - c|^2 = |x|^2 - 2b for
    the exact b = c . x - |c|^2 / 2, so each row's norm bound and its
    float score b, plus slack for the rounding of b and of the float64
    arithmetic, bound it (`_radii`)."""
    n, top = rows.shape[0], float(norms.max())
    if not rounding.bound(top, top) < rounding.limit:  # so no product of rows overflows
        return None
    pick = _sample_rows(n, min(n, 4 * _BLOCK_ROWS))
    centered = rows.take(pick, axis=0).astype(np.float64)
    centered -= centered.mean(axis=0)
    centered /= max(centered.max(), -centered.min()) or 1.0
    centered = centered.astype(np.float32)  # precise enough
    pivots = _pivots(centered)
    if pivots is None:
        return None
    owner, _ = _nearest(centered, centered[pivots])  # each pivot owns at least itself
    sample = rows.take(pick, axis=0).astype(np.float64)  # taken again: centered in place
    sums = (owner == np.arange(len(pivots))[:, None]) @ sample
    centers = (sums / np.bincount(owner)[:, None]).astype(rows.dtype)
    cnorms = _row_norms(centers, rounding.unit, "centers")
    labels, scores = _nearest(rows, centers)
    order = np.argsort(labels, kind="stable")  # ascending ids within each center
    counts = np.bincount(labels, minlength=centers.shape[0])
    ends = np.cumsum(counts)
    rows, norms = rows.take(order, axis=0), norms[order]
    groups, center_of, starts = [], [], []
    for c, (lo, hi) in enumerate(zip(ends - counts, ends)):
        for s, block in _tiles(rows[lo:hi]) if hi > lo else ():
            at = slice(lo + s, lo + s + block.shape[0])
            groups.append((order[at], block, norms[at]))
            center_of.append(c)
            starts.append(at.start)
    cnorms = cnorms[center_of]
    return _Balls(groups, centers[center_of].astype(np.float64), cnorms,
                  _radii(norms, scores[order], cnorms, starts, rounding))


@functools.lru_cache(maxsize=8)
def _sample_rows(n, size):
    """Ascending positions of a fixed sample of `size` of n rows, read-only
    and kept per n: drawing them took 0.2 ms of a failed ball search."""
    pick = np.sort(np.random.default_rng(0).choice(n, size=size, replace=False))
    pick.flags.writeable = False
    return pick


def _radii(norms, scores, cnorms, starts, rounding):
    """Upper bounds on |x - c| over each group of rows x, the groups being
    the runs of rows that begin at `starts`, from each row's norm bound X
    and its assignment score b = fl(fl(c . x) - fl(|c|^2 / 2)) against its
    center c, whose norm is at most C = `cnorms` of its group.

    |x - c|^2 = |x|^2 - 2 (c . x - |c|^2 / 2). The product's rounding is
    at most gamma C X + floor, the half-norm's (gamma C^2 + floor) / 2 plus
    half the smallest subnormal for the halving, the subtraction's
    u |b| / (1 - u) (exact where the result is subnormal), so

        |x - c|^2 <= X^2 - 2b + 2u |b| / (1 - u) + gamma (2CX + C^2)
                     + 3 floor + tiny.

    The per-row part X^2 - 2b gets slack e (X^2 + 2|b|) with
    e = u / (1 - u) + 8 float64 units: the subtraction's share, and room
    for the float64 rounding of every step, which is relative to X^2 and
    2|b| even where they cancel. Its maximum over each group is one
    reduction; the group's largest X stands in for X in the gamma term,
    and gamma carries 1% for float64 arithmetic. The square root is
    divided by 1 - 2u: one u for the root, one for the division."""
    x64 = _rounding(np.dtype(np.float64), 1).unit
    e = rounding.unit / (1 - rounding.unit) + 8 * x64
    b = scores.astype(np.float64)
    sq = norms * norms
    per_row = sq - 2 * b + e * (sq + 2 * np.abs(b))
    widest = np.maximum.reduceat(norms, starts)
    bound = np.maximum.reduceat(per_row, starts) + rounding.gamma * cnorms * (2 * widest + cnorms)
    bound += 3 * rounding.floor + rounding.tiny
    return np.sqrt(np.maximum(bound, 0.0)) / (1 - 2 * rounding.unit)


def _pivots(sample):
    """Positions of farthest-point pivots in `sample`, picked until its
    covering radius has halved; None when that takes more than
    _BLOCK_ROWS pivots, as on data without cluster structure. The cap
    keeps a tile's scores against the centers within one score block.

    The search gives up at 16 pivots when fewer than 4 sample rows per
    pivot lie within the goal radius; a search that goes on picks the
    pivots it would without the check, and _BLOCK_ROWS <= 16 never reaches
    it. Rows within the goal radius at 16 pivots, on 1024-row samples:
    320-334 for 50 topics and 89 for 200 topics, which stop at 50 and 200
    pivots; 704 for Gaussian rows at D = 8, which stop at 46; 17 for
    Gaussian rows at D = 32, 21 for uniform rows and 35-45 for 50 topics at
    noise 1.0 (seed 42), which would fail at 256. At seed 7 that noise
    leaves 97, so the search runs on to fail at 256.
    """
    sq = np.einsum("ij,ij->i", sample, sample)
    # |s - p|^2 - |s|^2 = [-2 s, 1] . [p, |p|^2], one matrix-vector product a pivot
    left = np.ones((sq.size, sample.shape[1] + 1), dtype=sample.dtype)
    np.multiply(sample, -2, out=left[:, :-1])
    right = np.concatenate((sample, sq[:, None]), axis=1)
    part = np.full_like(sq, np.inf)  # min over pivots p of |s - p|^2 - |s|^2
    d, far = np.empty_like(sq), np.empty_like(sq)
    pivots = [0]
    while True:
        np.matmul(left, right[pivots[-1]], out=d)
        np.minimum(part, d, out=part)
        np.add(part, sq, out=far)  # squared distance to the nearest pivot
        i = int(far.argmax())
        if len(pivots) == 1:
            goal = far[i] / 4
        if far[i] <= goal:
            return pivots
        if len(pivots) == _BLOCK_ROWS:
            return None
        if len(pivots) == 16 and np.count_nonzero(far <= goal) < 4 * 16:
            return None
        pivots.append(i)


def _nearest(x, centers):
    """(labels, scores): the index of the nearest center for each row of x
    by float scores c . x - |c|^2 / 2, the lowest index on a tie, as int16
    (a radix sort in `_balls`), and each row's winning score in x's dtype,
    fl(fl(c . x) - fl(|c|^2 / 2)): within gamma |c| (|x| + |c| / 2), the
    floors and a unit of itself of exact, which `_radii` bounds. x is
    scored one tile at a time in the (centers x rows) layout, so the
    largest score, the rows that reach it and the first center among them
    are column reductions: an argmax along rows as short as the center
    count costs more per row than it scans. The buffers are reused across
    tiles; they hold at most one score block."""
    k, width = centers.shape[0], max(t.shape[0] for _, t in _tiles(x))
    half = (0.5 * np.einsum("ij,ij->i", centers, centers))[:, None]
    # the first center ranks highest; one byte a rank for up to 256 centers
    rank = (k - 1 - np.arange(k)).astype(np.min_scalar_type(k - 1))[:, None]
    scores, hit = np.empty(k * width, dtype=x.dtype), np.empty(k * width, dtype=bool)
    ranks = np.empty(k * width, dtype=rank.dtype)
    out, top = np.empty(x.shape[0], dtype=np.int16), np.empty(x.shape[0], dtype=x.dtype)
    for s, tile in _tiles(x):
        t = tile.shape[0]
        block, hits, ranked = (b[: k * t].reshape(k, t) for b in (scores, hit, ranks))
        np.matmul(centers, tile.T, out=block)
        np.subtract(block, half, out=block)
        np.max(block, axis=0, out=top[s : s + t])
        np.equal(block, top[s : s + t], out=hits)
        np.multiply(hits, rank, out=ranked)
        out[s : s + t] = k - 1 - ranked.max(axis=0)
    return out, top


def _settle(q, rows, ids, scores, e, cur):
    """(index, best, err) of the exact winner among the running winner
    `cur` = (index, best, err), best -inf before the first group, and the
    rows numbered by `ids`, whose float `scores` are each within their `e`
    of exact. The band of rows whose upper bound reaches the highest lower
    bound goes to `_exact_order` in index order, so the lowest index wins
    an exact tie."""
    if not q.any():  # every row ties exactly at 0: row 0 wins
        return 0, 0.0, 0.0
    scores = scores.astype(np.float64, copy=False)  # so scores - e is not rounded to float32
    ids = np.append(ids, cur[0])
    lo, hi = np.append(scores - e, cur[1] - cur[2]), np.append(scores + e, cur[1] + cur[2])
    keep = np.flatnonzero(hi >= lo.max())
    keep = keep[np.argsort(ids[keep])]
    win = int(ids[keep[_exact_order(q, rows[ids[keep]], lo[keep], hi[keep])[0]]])
    exact = math.fsum(_exact_terms(q, rows[win : win + 1])[0].tolist())  # rounded correctly
    return win, exact, math.ulp(exact)


def _exact_order(q, rows, lo, hi):
    """Positions of `rows` in the exact order of their inner products with
    q, largest first, the lowest position first on a tie. Each product
    lies in [lo, hi], and two disjoint intervals decide a pair; the sort
    starts from the float order, so it compares about one pair a row. Rows
    with the same terms tie, and `math.fsum`, which rounds correctly, gives
    the exact sign of the difference of two groups' terms; a group's first
    row becomes a list only for that sum."""
    terms = _exact_terms(q, rows) + 0.0  # -0.0 to 0.0, so equal terms have equal bytes
    key = terms.view(np.dtype((np.void, terms.shape[1] * terms.itemsize))).ravel()
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    lead = terms[first]  # the first row of each group
    start = np.argsort(-(lo + hi), kind="stable").tolist()  # the float order
    group, lo, hi = group.tolist(), lo.tolist(), hi.tolist()

    def compare(a, b):
        if lo[a] > hi[b] or lo[b] > hi[a]:  # disjoint: the bounds decide
            return -1 if lo[a] > hi[b] else 1
        g, h = group[a], group[b]
        gap = 0 if g == h else math.fsum(lead[g].tolist() + (-lead[h]).tolist())
        return -1 if gap > 0 else 1 if gap < 0 else a - b

    return sorted(start, key=functools.cmp_to_key(compare))


def _exact_terms(q, rows):
    """Float64 terms whose sum along each row is exactly q . row. A
    float32 x float32 product is exact in float64; a float64 product
    comes with its rounding error, by Dekker's two-product, which is exact
    only while no entry exceeds about 1e300 and every product and error
    term stays in float64's normal range: below it the error terms
    underflow. Float64 reaches here from k-means' unit vectors and from
    the float64 redo of float32 values, where both hold."""
    prod = rows.astype(np.float64) * q.astype(np.float64)
    if rows.dtype == np.float32:
        return prod
    (qh, ql), (rh, rl) = _halves(q), _halves(rows)
    error = ((rh * qh - prod) + rh * ql + rl * qh) + rl * ql
    return np.concatenate((prod, error), axis=1)


def _halves(x):
    """Dekker's split of float64 values into high and low halves whose
    pairwise products are exact."""
    big = x * 134217729.0  # 2**27 + 1
    high = big - (big - x)
    return high, x - high


def _inflate(sq, n, unit):
    """Upper bound on a sum of n squares, or on a product of two such sums
    of n squares in all, from `sq`: their float sums, each plus its count
    times the smallest subnormal. Each square or sum is within a unit of
    exact, or within the smallest subnormal where it underflows (squares
    of float32 entries below 2**-75 are 0)."""
    return sq / (1 - 2 * n * unit) if 2 * n * unit < 1 else math.inf


def _row_norms(m, unit, name) -> np.ndarray:
    """Float64 upper bounds on the row norms of m; a non-finite entry
    raises."""
    sq = np.einsum("ij,ij->i", m, m)
    if not np.isfinite(sq).all():
        check_finite(m, name)  # finite rows whose squares overflowed
        sq = np.einsum("ij,ij->i", m, m, dtype=np.float64)
    tiny = _rounding(m.dtype, 1).tiny
    return np.sqrt(_inflate(sq.astype(np.float64) + m.shape[1] * tiny, m.shape[1], unit))


def _tiles(rows):
    """(first row index, rows) of each tile, in order. A tile is
    _TILE_ROWS rows, except that the last one also takes the remainder."""
    n = rows.shape[0]
    if n < 2 * _TILE_ROWS:
        # one tile, returned as is: a screened query searches two short row
        # sets, and a generator here cost it 3.3 us more (interleaved
        # screened_search A/B, one BLAS thread)
        return ((0, rows),)
    last = (n // _TILE_ROWS - 1) * _TILE_ROWS
    return [(s, rows[s : n if s == last else s + _TILE_ROWS]) for s in range(0, last + 1, _TILE_ROWS)]


# the scalar twin stays: `score_dual` calls it once per ranked pair, and it
# takes 0.14-0.22 us a call against 4.7-6.4 us for float(sigmoid_array(x))
# (2-core host, one BLAS thread). libm's exp and numpy's differ, so the two
# disagree by up to 2 ulps on about 2% of normal(0, 20) draws.
def sigmoid(x: float) -> float:
    """Logistic function, branch-stable so large |x| never overflows."""
    x = float(x)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Vectorized stable logistic for float64 arrays, branch-free: with
    e = exp(-|x|), 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, so
    no exponent is positive. Bitwise equal to the masked two-branch form."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def score_dual(c, r) -> float:
    """Match score of a context/response embedding pair: sigmoid(c.r)."""
    return sigmoid(inner_product(c, r))


def l2_normalize(v) -> np.ndarray:
    """Scale to unit Euclidean norm. Zero vectors are rejected."""
    return normalize_rows(as_vector(v)[None])[0]


def normalize_rows(m) -> np.ndarray:
    """Row-wise unit normalization of a matrix; any zero row is rejected."""
    m = as_matrix(m)
    norms = np.linalg.norm(m.astype(np.float64), axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"cannot normalize zero row {bad}")
    return (m.astype(np.float64) / norms[:, None]).astype(np.float32)


def write_container(path, magic: bytes, header_fmt: str, fields, blocks) -> None:
    """Write a binary container: 4-byte magic, version byte, the header
    fields packed with `header_fmt`, then the raw bytes of each block."""
    with open(path, "wb") as fh:
        fh.write(magic + bytes([_CONTAINER_VERSION]))
        fh.write(struct.pack(header_fmt, *fields))
        for block in blocks:
            fh.write(block.tobytes())


def read_container(path, magic: bytes, header_fmt: str, layout):
    """Header fields and payload arrays of a write_container file, after
    checking its magic, version byte and exact size. `layout(*fields)`
    lists the payload blocks in order as (dtype, shape) pairs. Each block
    is read straight into its array, so the payload is allocated once."""
    offset = 5 + struct.calcsize(header_fmt)
    with open(path, "rb") as fh:
        head = fh.read(offset)
        size = os.fstat(fh.fileno()).st_size
        if head[:4] != magic:
            raise ValueError(f"bad magic {head[:4]!r}, expected {magic!r}")
        if len(head) < 5 or head[4] != _CONTAINER_VERSION:
            version = head[4] if len(head) > 4 else "missing"
            raise ValueError(f"unsupported {magic.decode()} version {version}")
        if len(head) < offset:
            raise ValueError(f"truncated header: expected {offset} bytes, found {size}")
        fields = struct.unpack_from(header_fmt, head, 5)
        blocks = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
        expected = offset + sum(dt.itemsize * math.prod(shape) for dt, shape in blocks)
        if size == expected:
            arrays = [np.empty(shape, dtype) for dtype, shape in blocks]
            # recount from what was read, in case the file changed meanwhile
            size = offset + sum(fh.readinto(arr.reshape(-1).view(np.uint8)) for arr in arrays)
        if size != expected:
            raise ValueError(
                f"truncated payload: expected {expected} bytes, found {size}"
            )
    return fields, arrays
