"""Binary embedding persistence and seeded synthetic data.

All file formats are little-endian regardless of host. Random draws come
from a splitmix64 counter stream pushed through Box-Muller, so identical
seeds give bit-identical data on any platform, and any row of a stream
can be regenerated independently from its counter offset.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import check_finite, normalize_rows, read_container, write_container
from .distill import PairSet, PlantedTeacher, teacher_favorites
from .search import argmax_batch

_EMB_MAGIC = b"EMB1"
_PAIR_MAGIC = b"PAIR"

_U64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 scramble of a uint64 array."""
    z = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(_U64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def mix_seed(seed: int, stream: int) -> int:
    """Derive an independent stream seed from (seed, stream id)."""
    base = np.uint64(seed & _U64) ^ (np.uint64(stream & _U64) << np.uint64(32))
    return int(_splitmix64(np.atleast_1d(base))[0])


def random_uniform(seed: int, count: int) -> np.ndarray:
    """count doubles in (0, 1], from sequential splitmix64 counters."""
    counters = np.uint64(seed & _U64) + np.arange(count, dtype=np.uint64)
    bits = _splitmix64(counters)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def random_normals(seed: int, count: int) -> np.ndarray:
    """count standard normals via Box-Muller over the counter stream."""
    pairs = (count + 1) // 2
    u1 = random_uniform(seed, pairs)
    u2 = random_uniform(mix_seed(seed, 0x5EED), pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def write_embeddings(matrix, path) -> None:
    """Persist a row matrix in the EMB1 container."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    _checked(matrix)
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
    """One label per non-blank line, each a non-negative int64."""
    with open(path) as fh:
        lines = fh.readlines()
    values = [int(line) for line in lines if line.strip()]
    if values and not 0 <= min(values) <= max(values) < 2**63:
        n, bad = next((n, line.strip()) for n, line in enumerate(lines, 1)
                      if line.strip() and not 0 <= int(line) < 2**63)
        raise ValueError(f"labels must be non-negative int64 values: line {n} reads {bad}")
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
    bits = _splitmix64(np.uint64(seed) + np.arange(count, dtype=np.uint64))
    return (bits % np.uint64(topics)).astype(np.int64)


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
    if pairs.teacher_scores is None:
        raise ValueError("pair set has no cached teacher scores to persist")
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
