"""Binary embedding persistence and seeded synthetic data.

All file formats are little-endian regardless of host. Random draws come
from a splitmix64 counter stream (uniform i scrambles counter seed + i,
mod 2**64), so any row of a stream can be regenerated independently from
its counter offset. Uniforms use integer operations and an exact scaling
only, so identical seeds give bit-identical uniforms (and topic tags) on
any platform. Normals push two uniform streams through Box-Muller, whose
float64 log, cos and sin numpy does not round correctly: they repeat bit
for bit on one numpy build and CPU, but may differ in the last bit on
another. The stream runs through fixed buffers of _CHUNK counters, in
place, so a draw of any length moves no whole-length temporaries; the
values do not depend on the chunking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_matrix, check_finite, normalize_rows, read_container, write_container
from .distill import PairSet, PlantedTeacher, teacher_favorites
from .search import argmax_batch

_EMB_MAGIC = b"EMB1"
_PAIR_MAGIC = b"PAIR"

_U64 = 0xFFFFFFFFFFFFFFFF
# counters per step of the stream: its five scratch buffers take 640 KiB,
# which stays in L2, where whole-length temporaries went through memory
_CHUNK = 1 << 14
_RAMP = np.arange(_CHUNK, dtype=np.uint64)


def _splitmix64(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One splitmix64 scramble of the uint64 array z, in place (mod 2**64);
    w, of z's shape, holds the shifts."""
    z += np.uint64(0x9E3779B97F4A7C15)
    np.right_shift(z, np.uint64(30), out=w)
    z ^= w
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=w)
    z ^= w
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=w)
    z ^= w
    return z


def mix_seed(seed: int, stream: int) -> int:
    """Derive an independent stream seed from (seed, stream id)."""
    base = np.uint64(seed & _U64) ^ (np.uint64(stream & _U64) << np.uint64(32))
    z = np.atleast_1d(base)
    return int(_splitmix64(z, np.empty_like(z))[0])


def _fill_uniform(seed: np.uint64, start: int, out, z, w) -> None:
    """Uniforms of counters seed + start + i (mod 2**64) into out, with
    uint64 scratch z and w of out's length."""
    np.add(_RAMP[: out.size], np.uint64(start), out=z)
    z += seed
    np.right_shift(_splitmix64(z, w), np.uint64(11), out=z)
    out[...] = z
    out += 1.0
    out *= 2.0**-53


def random_uniform(seed: int, count: int) -> np.ndarray:
    """count doubles in (0, 1], from sequential splitmix64 counters."""
    out, seed = np.empty(count), np.uint64(seed & _U64)
    z, w = np.empty(_CHUNK, dtype=np.uint64), np.empty(_CHUNK, dtype=np.uint64)
    for start in range(0, count, _CHUNK):
        t = min(_CHUNK, count - start)
        _fill_uniform(seed, start, out[start : start + t], z[:t], w[:t])
    return out


def random_normals(seed: int, count: int) -> np.ndarray:
    """count standard normals via Box-Muller over the counter stream: the
    radius from one uniform stream, the angle from a second, _CHUNK pairs
    a step, each pair one (cos, sin) couple of the output."""
    pairs = (count + 1) // 2
    out = np.empty(2 * pairs)
    couples = out.reshape(pairs, 2)
    seeds = np.uint64(seed & _U64), np.uint64(mix_seed(seed, 0x5EED))
    r, a, trig = (np.empty(_CHUNK) for _ in range(3))
    z, w = np.empty(_CHUNK, dtype=np.uint64), np.empty(_CHUNK, dtype=np.uint64)
    for start in range(0, pairs, _CHUNK):
        t = min(_CHUNK, pairs - start)
        rt, at, ct = r[:t], a[:t], trig[:t]
        _fill_uniform(seeds[0], start, rt, z[:t], w[:t])
        _fill_uniform(seeds[1], start, at, z[:t], w[:t])
        np.log(rt, out=rt)
        rt *= -2.0
        np.sqrt(rt, out=rt)
        at *= 2.0 * np.pi  # (2 pi) u: the grouping of 2.0 * np.pi * u
        np.cos(at, out=ct)
        np.multiply(rt, ct, out=couples[start : start + t, 0])
        np.sin(at, out=ct)
        np.multiply(rt, ct, out=couples[start : start + t, 1])
    return out[:count]


def write_embeddings(matrix, path) -> None:
    """Persist a row matrix in the EMB1 container."""
    matrix = _checked(as_matrix(matrix))
    write_container(path, _EMB_MAGIC, "<II", matrix.shape, [matrix.astype("<f4")])


def read_embeddings(path) -> np.ndarray:
    _, (data,) = read_container(
        path, _EMB_MAGIC, "<II", lambda count, dim: [("<f4", (count, dim))]
    )
    return _checked(data)


def _checked(embeddings):
    """An EMB1 matrix: rows of length >= 1, finite entries."""
    if embeddings.shape[1] < 1:
        raise ValueError("embedding dimension must be >= 1")
    return check_finite(embeddings, "embedding matrix")


def write_labels(labels, path) -> None:
    """One best-candidate index per line, plain text."""
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def read_labels(path) -> np.ndarray:
    """One label per non-blank line, each a non-negative int64. The first
    bad line is named only once the one-pass parse has failed."""
    with open(path) as fh:
        lines = fh.readlines()
    try:
        values = [int(line) for line in lines if line.strip()]
    except ValueError:  # not an integer
        values = None
    if values is None or values and not 0 <= min(values) <= max(values) < 2**63:

        def bad(line):
            try:
                return not 0 <= int(line) < 2**63
            except ValueError:
                return True

        n, line = next((n, line) for n, line in enumerate(lines, 1) if line.strip() and bad(line))
        raise ValueError(f"labels must be non-negative int64 values: line {n} reads {line.strip()}")
    return np.asarray(values, dtype=np.int64)


@dataclass(frozen=True)
class SyntheticSpec:
    """Topic-structured stand-in for a large conversational corpus."""

    m_train: int = 5000
    m_test: int = 500
    n_candidates: int = 1000
    dim: int = 16
    topics: int = 20
    noise_sigma: float = 0.3  # expected Euclidean norm of each noise draw
    seed: int = 42

    def __post_init__(self):
        if self.topics < 1:
            raise ValueError("topics must be >= 1")
        if self.n_candidates < self.topics:
            raise ValueError("need at least one candidate per topic")
        if self.m_train < self.topics:
            raise ValueError("need at least one training context per topic")
        if self.m_test < 1 or self.dim < 1:
            raise ValueError("m_test and dim must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass(frozen=True, eq=False)
class SyntheticData:
    train_contexts: np.ndarray
    test_contexts: np.ndarray
    candidates: np.ndarray
    train_topics: np.ndarray
    test_topics: np.ndarray
    candidate_topics: np.ndarray


def _noisy_rows(directions, tags, sigma, seed) -> np.ndarray:
    count = tags.shape[0]
    dim = directions.shape[1]
    noise = random_normals(seed, count * dim).reshape(count, dim)
    rows = directions[tags] + (sigma / np.sqrt(dim)) * noise
    return rows.astype(np.float32)


def _uniform_tags(seed: int, count: int, topics: int) -> np.ndarray:
    """count topic ids in [0, topics), one splitmix64 counter each."""
    z = np.uint64(seed) + np.arange(count, dtype=np.uint64)
    return (_splitmix64(z, np.empty_like(z)) % np.uint64(topics)).astype(np.int64)


def gen_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Draw unit topic directions, then scatter candidates and contexts
    around them. Candidate j belongs to topic j mod topics, so every topic
    is populated; context topics are sampled uniformly."""
    dirs = random_normals(
        mix_seed(spec.seed, 1), spec.topics * spec.dim
    ).reshape(spec.topics, spec.dim)
    dirs = normalize_rows(dirs.astype(np.float32)).astype(np.float64)

    cand_tags = np.arange(spec.n_candidates) % spec.topics
    train_tags = _uniform_tags(mix_seed(spec.seed, 3), spec.m_train, spec.topics)
    test_tags = _uniform_tags(mix_seed(spec.seed, 5), spec.m_test, spec.topics)

    candidates = _noisy_rows(dirs, cand_tags, spec.noise_sigma, mix_seed(spec.seed, 2))
    train = _noisy_rows(dirs, train_tags, spec.noise_sigma, mix_seed(spec.seed, 4))
    test = _noisy_rows(dirs, test_tags, spec.noise_sigma, mix_seed(spec.seed, 6))
    return SyntheticData(train, test, candidates, train_tags, test_tags, cand_tags)


def build_labels(contexts, candidates) -> np.ndarray:
    """Oracle best-candidate index for every context row."""
    return argmax_batch(contexts, candidates)


@dataclass(frozen=True)
class PairSpec:
    """Labeled pair corpus supervised by a planted teacher.

    Each context picks its positive response as the teacher's favorite
    among `picks` random candidates; its negative is a fresh random
    response. A small fraction of pairs gets its labels swapped, leaving
    the teacher as the cleaner signal.
    """

    n_train: int = 400  # positive/negative pair couples
    n_test: int = 200
    n_features: int = 12
    picks: int = 8
    label_flip: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if self.n_train < 2 or self.n_test < 2:
            raise ValueError("need at least two pair couples per split")
        if self.n_features < 2 or self.picks < 2:
            raise ValueError("n_features and picks must be >= 2")
        if not 0.0 <= self.label_flip < 0.5:
            raise ValueError("label_flip must lie in [0, 0.5)")


def _pair_split(spec: PairSpec, teacher, count: int, seed: int) -> PairSet:
    f = spec.n_features
    ctx = random_normals(mix_seed(seed, 11), count * f).reshape(count, f)
    cands = random_normals(
        mix_seed(seed, 12), count * spec.picks * f
    ).reshape(count, spec.picks, f)
    negs = random_normals(mix_seed(seed, 13), count * f).reshape(count, f)
    flips = random_uniform(mix_seed(seed, 14), count) < spec.label_flip

    # constant first coordinate: gives the planted teacher an implicit
    # bias and the linear encoders a response-only ranking pathway
    ctx[:, 0] = 1.0
    cands[:, :, 0] = 1.0
    negs[:, 0] = 1.0

    ctx32 = ctx.astype(np.float32)
    favorites = teacher_favorites(teacher, ctx32, cands.astype(np.float32))
    pos = cands[np.arange(count), favorites].astype(np.float32)

    ctx_rows = np.repeat(ctx32, 2, axis=0)
    resp_rows = np.empty((2 * count, f), dtype=np.float32)
    resp_rows[0::2] = pos
    resp_rows[1::2] = negs.astype(np.float32)
    labels = np.tile([1, 0], count).astype(np.uint8)
    labels[0::2][flips] = 0
    labels[1::2][flips] = 1
    scores = teacher.score_batch(ctx_rows, resp_rows).astype(np.float32)
    return PairSet(ctx_rows, resp_rows, labels, scores)


def gen_pair_data(spec: PairSpec):
    """(train pairs, held-out pairs, teacher) for distillation runs."""
    teacher = PlantedTeacher(spec.n_features, seed=mix_seed(spec.seed, 7))
    train = _pair_split(spec, teacher, spec.n_train, mix_seed(spec.seed, 8))
    test = _pair_split(spec, teacher, spec.n_test, mix_seed(spec.seed, 9))
    return train, test, teacher


def write_pairs(pairs: PairSet, path) -> None:
    """Persist a labeled pair set (cached teacher scores included)."""
    write_container(
        path,
        _PAIR_MAGIC,
        "<II",
        pairs.ctx_features.shape,
        [
            pairs.ctx_features.astype("<f4"),
            pairs.resp_features.astype("<f4"),
            pairs.teacher_scores.astype("<f4"),
            pairs.labels.astype(np.uint8),
        ],
    )


def read_pairs(path) -> PairSet:
    _, (ctx, resp, scores, labels) = read_container(
        path,
        _PAIR_MAGIC,
        "<II",
        lambda count, f: [
            ("<f4", (count, f)),
            ("<f4", (count, f)),
            ("<f4", (count,)),
            (np.uint8, (count,)),
        ],
    )
    check_finite(ctx, "context features")
    check_finite(resp, "response features")
    check_finite(scores, "teacher scores")
    return PairSet(ctx, resp, labels, scores)
