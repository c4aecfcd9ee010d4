"""Vector primitives and the binary container codec shared by every
other module.

Embeddings are stored as float32 rows; all dot products accumulate in
float64. Nothing here normalizes vectors for scoring: raw inner products
are the scoring currency, and unit-norm vectors only appear inside the
clustering initializer.
"""

import math
import struct

import numpy as np

_CONTAINER_VERSION = 1

_BLOCK_ROWS = 256  # bounds inner_product_argmax's float64 score buffer


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


def inner_product_argmax(queries, rows) -> np.ndarray:
    """Index of the largest float64 inner product against `rows`, for
    every query row; ties go to the lowest index. Callers validate the
    2-D shapes. One query is a matrix-vector product, a batch one matrix
    product per block of query rows."""
    rows64 = np.asarray(rows, dtype=np.float64)
    if queries.shape[0] == 1:
        return (rows64 @ np.asarray(queries[0], dtype=np.float64)).argmax(keepdims=True)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for start in range(0, queries.shape[0], _BLOCK_ROWS):
        block = np.asarray(queries[start : start + _BLOCK_ROWS], dtype=np.float64)
        out[start : start + block.shape[0]] = (block @ rows64.T).argmax(axis=1)
    return out


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
    lists the payload blocks in order as (dtype, shape) pairs."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise ValueError(f"bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < 5 or blob[4] != _CONTAINER_VERSION:
        version = blob[4] if len(blob) > 4 else "missing"
        raise ValueError(f"unsupported {magic.decode()} version {version}")
    offset = 5 + struct.calcsize(header_fmt)
    if len(blob) < offset:
        raise ValueError(f"truncated header: expected {offset} bytes, found {len(blob)}")
    fields = struct.unpack_from(header_fmt, blob, 5)
    blocks = [(np.dtype(dtype), shape) for dtype, shape in layout(*fields)]
    expected = offset + sum(dt.itemsize * math.prod(shape) for dt, shape in blocks)
    if len(blob) != expected:
        raise ValueError(
            f"truncated payload: expected {expected} bytes, found {len(blob)}"
        )
    arrays = []
    for dtype, shape in blocks:
        arrays.append(np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape).copy())
        offset += arrays[-1].nbytes
    return fields, arrays
