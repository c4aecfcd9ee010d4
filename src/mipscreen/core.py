"""Vector primitives and the binary container codec shared by every
other module.

Embeddings are stored as float32 rows; all dot products accumulate in
float64. Nothing here normalizes vectors for scoring: raw inner products
are the scoring currency, and unit-norm vectors only appear inside the
clustering initializer.
"""

import math
import os
import struct

import numpy as np

_CONTAINER_VERSION = 1

# Two bounds on inner_product_argmax's float64 working set. Candidate rows
# are cast and scored one tile at a time: _TILE_ROWS rows, or up to twice
# that for the last tile, which takes the remainder. A batch is cast and
# scored one block of _BLOCK_ROWS queries at a time, so a score block holds
# fewer than _BLOCK_ROWS x 2 x _TILE_ROWS values (16 MB). Tiles start on
# multiples of a power of two; on OpenBLAS at one thread their scores were
# observed bit-identical to the untiled product, which no test asserts.
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


def inner_products(rows, vector) -> np.ndarray:
    """Float64 inner product of every row with `vector`: one
    matrix-vector product per tile of rows."""
    vector64 = np.asarray(vector, dtype=np.float64)
    # One tile: the tile loop and output buffer would add about 4 us per
    # call, 12% of a screened query's latency (a subset of about 439 rows).
    if rows.shape[0] < 2 * _TILE_ROWS:
        return np.asarray(rows, dtype=np.float64) @ vector64
    out = np.empty(rows.shape[0])
    for start, tile in _tiles(rows):
        np.matmul(tile, vector64, out=out[start : start + tile.shape[0]])
    return out


def inner_product_argmax(queries, rows) -> np.ndarray:
    """Index of the largest float64 inner product against `rows`, for
    every query row; ties go to the lowest index. Callers validate the
    2-D shapes. One query is `inner_products`; a batch is one matrix
    product per block of query rows and tile of rows, each folded into a
    running best with a strict `>`, so the earlier tile keeps a tie."""
    if queries.shape[0] == 1:
        return inner_products(rows, queries[0]).argmax(keepdims=True)
    out = np.zeros(queries.shape[0], dtype=np.int64)
    best = np.full(queries.shape[0], -np.inf)
    for offset, tile in _tiles(rows):
        for start in range(0, queries.shape[0], _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = np.asarray(queries[start:stop], dtype=np.float64)
            _fold(block @ tile.T, offset, best[start:stop], out[start:stop])
    return out


def _fold(scores, offset, best, out):
    """Fold one score block into its queries' running best score and
    index, in place; a tie keeps the earlier index, and a NaN score
    beats any number, as in `np.argmax`."""
    idx = scores.argmax(axis=1)
    top = scores[np.arange(idx.size), idx]
    won = (top > best) | (np.isnan(top) & ~np.isnan(best))
    best[won] = top[won]
    out[won] = idx[won] + offset


def _tiles(rows):
    """(first row index, float64 copy) of each tile of rows. A tile is
    _TILE_ROWS rows, except that the last one also takes the remainder:
    OpenBLAS scored a short tile on another path, seen to round differently."""
    starts = range(0, max(rows.shape[0] - _TILE_ROWS, 0) + 1, _TILE_ROWS)
    for start in starts:
        stop = rows.shape[0] if start == starts[-1] else start + _TILE_ROWS
        yield start, np.asarray(rows[start:stop], dtype=np.float64)


def sigmoid(x: float) -> float:
    """Logistic function, branch-stable so large |x| never overflows."""
    x = float(x)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Vectorized stable logistic for float64 arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
