"""Dual-encoder training with knowledge distillation.

Two linear feature->embedding maps stand in for heavyweight sequence
encoders: contexts and responses embed separately and match via
sigmoid(inner product), so candidate embeddings can be cached. A slow,
accurate teacher scorer supervises training through an L2 term on the
score gap, added to the usual binary cross entropy on labels.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import as_matrix, as_vector, check_finite, sigmoid_array
from .core import read_container, write_container
from .search import RankingInstance

_MAGIC = b"DENC"
_CLAMP = 1e-12
_HIDDEN = 32  # PlantedTeacher's hidden width
# contexts per teacher call in teacher_favorites: blocks of 512 keep the
# teacher's float64 work arrays cache-sized; one call over the 20k contexts
# of distill-pairs took 1.8x as long (one BLAS thread)
_FAVORITE_BLOCK = 512


@dataclass(frozen=True, eq=False)
class DualEncoder:
    """Separate linear maps for the context and response sides."""

    w_ctx: np.ndarray  # (F, D) float32
    w_resp: np.ndarray  # (F, D) float32

    def __post_init__(self):
        if self.w_ctx.shape != self.w_resp.shape or self.w_ctx.ndim != 2:
            raise ValueError("the two maps must share one (F, D) shape")
        check_finite(self.w_ctx, "w_ctx")
        check_finite(self.w_resp, "w_resp")

    @property
    def n_features(self) -> int:
        return self.w_ctx.shape[0]

    @property
    def dim(self) -> int:
        return self.w_ctx.shape[1]


@dataclass(frozen=True, eq=False)
class PairSet:
    """Labeled (context, response) feature pairs, optionally carrying
    cached teacher scores."""

    ctx_features: np.ndarray  # (P, F) float32
    resp_features: np.ndarray  # (P, F) float32
    labels: np.ndarray  # (P,) 0/1
    teacher_scores: Optional[np.ndarray] = None  # (P,) float32 in (0,1)

    def __post_init__(self):
        object.__setattr__(self, "ctx_features", as_matrix(self.ctx_features))
        object.__setattr__(self, "resp_features", as_matrix(self.resp_features))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.uint8))
        if self.ctx_features.shape != self.resp_features.shape:
            raise ValueError("context and response feature shapes differ")
        if self.labels.shape != (self.ctx_features.shape[0],):
            raise ValueError("need one label per pair")
        if np.any(self.labels > 1):
            raise ValueError("labels must be 0 or 1")
        if self.teacher_scores is not None:
            ts = np.asarray(self.teacher_scores, dtype=np.float32)
            if ts.shape != (len(self),):
                raise ValueError("need one teacher score per pair")
            object.__setattr__(self, "teacher_scores", ts)

    def __len__(self) -> int:
        return self.ctx_features.shape[0]


@dataclass(frozen=True)
class DistillConfig:
    # beta weights the squared gap to the teacher score; {0.2, 0.5, 1} is
    # the usual sweep range, but any non-negative value is accepted
    beta: float = 1.0
    learning_rate: float = 0.5
    epochs: int = 20
    batch_size: int = 64
    seed: int = 42
    dim: Optional[int] = None  # embedding width; None means max(2, F // 2)

    def __post_init__(self):
        for name in ("beta", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("bad SGD parameters")
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True, eq=False)
class DistillResult:
    encoder: DualEncoder
    epoch_losses: list


class PlantedTeacher:
    """Fixed random two-layer nonlinear scorer over concatenated features.

    Stands in for a fully optimized joint encoder: expensive in spirit,
    deterministic in fact. Scores are always strictly inside (0, 1).
    """

    def __init__(self, n_features: int, seed: int):
        rng = np.random.default_rng(seed)
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(2 * n_features), (_HIDDEN, 2 * n_features))
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(_HIDDEN), _HIDDEN)
        self.gain = 2.0
        self.n_features = n_features

    def score_batch(self, ctx_features, resp_features) -> np.ndarray:
        z = np.concatenate(
            [as_matrix(ctx_features), as_matrix(resp_features)], axis=1
        ).astype(np.float64)
        h = np.tanh(z @ self.w1.T)
        return sigmoid_array(self.gain * (h @ self.w2))

    def __call__(self, ctx_feature, resp_feature) -> float:
        return float(
            self.score_batch(
                as_vector(ctx_feature)[None, :], as_vector(resp_feature)[None, :]
            )[0]
        )


def _kd_losses(s, sc, y, beta):
    """Per-pair distillation loss, elementwise: beta * (s - sc)^2 plus the
    label BCE of dual score s, clamped away from {0, 1} inside the logs."""
    clamped = np.clip(s, _CLAMP, 1.0 - _CLAMP)
    return beta * (s - sc) ** 2 - y * np.log(clamped) - (1.0 - y) * np.log(1.0 - clamped)


def bce(score: float, label: int) -> float:
    """Binary cross entropy with scores clamped away from {0, 1}."""
    return kd_loss(score, score, label, 0.0)


def kd_loss(score_dual: float, score_cross: float, label: int, beta: float) -> float:
    """Distillation objective: beta * squared score gap + label BCE."""
    return float(_kd_losses(float(score_dual), float(score_cross), label, beta))


def encode(encoder: DualEncoder, features, side: str) -> np.ndarray:
    """Embed a raw feature vector with the requested side's linear map."""
    features = as_vector(features)
    if side == "context":
        w = encoder.w_ctx
    elif side == "response":
        w = encoder.w_resp
    else:
        raise ValueError(f"side must be 'context' or 'response', got {side!r}")
    if features.shape[0] != encoder.n_features:
        raise ValueError(
            f"feature length {features.shape[0]} != encoder F {encoder.n_features}"
        )
    return (features.astype(np.float64) @ w.astype(np.float64)).astype(np.float32)


def _embed_and_score(w_ctx, w_resp, ctx, resp):
    """Embeddings of both sides and their row-wise dual scores; every
    input is float64."""
    ce = ctx @ w_ctx
    re = resp @ w_resp
    return ce, re, sigmoid_array(np.einsum("ij,ij->i", ce, re))


def pair_scores(encoder: DualEncoder, ctx_features, resp_features) -> np.ndarray:
    """Row-wise dual scores sigmoid(ctx_emb . resp_emb) in float64."""
    ctx = as_matrix(ctx_features).astype(np.float64)
    resp = as_matrix(resp_features).astype(np.float64)
    w_ctx, w_resp = encoder.w_ctx.astype(np.float64), encoder.w_resp.astype(np.float64)
    return _embed_and_score(w_ctx, w_resp, ctx, resp)[2]


def _sgd_step(w_ctx, w_resp, ctx, resp, sc, y, beta):
    """(dual scores, gradient w.r.t. w_ctx, gradient w.r.t. w_resp) of the
    mean distillation loss over one batch; every input is float64.

    The derivative of the BCE term through the sigmoid collapses to
    (score - label), so no clamping enters the gradient path.
    """
    ce, re, s = _embed_and_score(w_ctx, w_resp, ctx, resp)
    dq = 2.0 * beta * (s - sc) * s * (1.0 - s) + (s - y)
    p = ctx.shape[0]
    g_ctx = ctx.T @ (dq[:, None] * re) / p
    g_resp = resp.T @ (dq[:, None] * ce) / p
    return s, g_ctx, g_resp


def loss_and_gradients(
    w_ctx: np.ndarray,
    w_resp: np.ndarray,
    ctx_features: np.ndarray,
    resp_features: np.ndarray,
    teacher_scores: np.ndarray,
    labels: np.ndarray,
    beta: float,
):
    """Mean distillation loss over the batch and its analytic gradients
    w.r.t. both linear maps (`_sgd_step` on float64 copies)."""
    sc = np.asarray(teacher_scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    s, g_ctx, g_resp = _sgd_step(
        np.asarray(w_ctx, dtype=np.float64), np.asarray(w_resp, dtype=np.float64),
        np.asarray(ctx_features, dtype=np.float64), np.asarray(resp_features, dtype=np.float64),
        sc, y, beta,
    )
    return float(_kd_losses(s, sc, y, beta).mean()), g_ctx, g_resp


def _teacher_scores_for(pairs: PairSet, teacher) -> np.ndarray:
    if teacher is not None:
        return np.asarray(
            teacher.score_batch(pairs.ctx_features, pairs.resp_features),
            dtype=np.float64,
        )
    if pairs.teacher_scores is None:
        raise ValueError("no teacher given and no cached teacher scores")
    return pairs.teacher_scores.astype(np.float64)


def _epoch_loss(losses, step) -> float:
    """Mean loss of an epoch of batches of `step` pairs (the last one takes
    the remainder): each batch's mean loss times its size, summed batch by
    batch in order, over the pair count."""
    n = losses.size
    full = n - n % step
    means = losses[:full].reshape(-1, step).mean(axis=1).tolist()
    sizes = [step] * len(means)
    if full < n:
        means.append(float(losses[full:].mean()))
        sizes.append(n - full)
    running = 0.0
    for mean, size in zip(means, sizes):  # not sum(): Python 3.12 compensates it
        running += mean * size
    return running / n


def train_distilled(pairs: PairSet, teacher, cfg: DistillConfig) -> DistillResult:
    """Mini-batch SGD on the distillation objective.

    Teacher scores are computed once up front and reused every epoch,
    mirroring a frozen, fully trained teacher. Pass teacher=None to use
    the scores cached on the pair set. Each epoch gathers its shuffled
    pairs once, so a batch is a contiguous slice, and scores its losses
    in one pass after the last step; an epoch's loss is the mean of its
    batch losses, weighted by batch size.
    """
    if len(pairs) < 2 or pairs.labels.min() == pairs.labels.max():
        raise ValueError("need at least one positive and one negative pair")
    scores_cross = _teacher_scores_for(pairs, teacher)
    if not np.all((scores_cross > 0.0) & (scores_cross < 1.0)):
        raise ValueError("teacher scores must lie strictly inside (0, 1)")

    n_feat = pairs.ctx_features.shape[1]
    dim = cfg.dim if cfg.dim is not None else max(2, n_feat // 2)
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / np.sqrt(n_feat * np.sqrt(dim))
    w_ctx = rng.normal(0.0, scale, (n_feat, dim))
    w_resp = rng.normal(0.0, scale, (n_feat, dim))

    ctx = pairs.ctx_features.astype(np.float64)
    resp = pairs.resp_features.astype(np.float64)
    y = pairs.labels.astype(np.float64)
    n, step = len(pairs), cfg.batch_size
    s = np.empty(n)
    epoch_losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        ctx_e, resp_e, sc_e, y_e = ctx[perm], resp[perm], scores_cross[perm], y[perm]
        for lo in range(0, n, step):
            b = slice(lo, lo + step)
            s[b], g_ctx, g_resp = _sgd_step(
                w_ctx, w_resp, ctx_e[b], resp_e[b], sc_e[b], y_e[b], cfg.beta
            )
            w_ctx -= cfg.learning_rate * g_ctx
            w_resp -= cfg.learning_rate * g_resp
        epoch_losses.append(_epoch_loss(_kd_losses(s, sc_e, y_e, cfg.beta), step))

    encoder = DualEncoder(
        w_ctx.astype(np.float32), w_resp.astype(np.float32)
    )
    return DistillResult(encoder, epoch_losses)


def teacher_favorites(teacher, contexts, responses) -> np.ndarray:
    """For each context i, the row of responses[i] the teacher scores
    highest, the first on a tie; responses is (M, P, F) for M contexts.
    One `score_batch` call per block of _FAVORITE_BLOCK contexts."""
    contexts = as_matrix(contexts)
    responses = np.asarray(responses, dtype=np.float32)
    if responses.ndim != 3 or responses.shape[0] != contexts.shape[0]:
        raise ValueError(
            f"need (M, P, F) responses for {contexts.shape[0]} contexts, "
            f"got shape {responses.shape}"
        )
    m, p, f = responses.shape
    out = np.empty(m, dtype=np.int64)
    for lo in range(0, m, _FAVORITE_BLOCK):
        hi = min(lo + _FAVORITE_BLOCK, m)
        scores = teacher.score_batch(
            np.repeat(contexts[lo:hi], p, axis=0), responses[lo:hi].reshape(-1, f)
        )
        out[lo:hi] = scores.reshape(hi - lo, p).argmax(axis=1)
    return out


def ranking_instances_by_teacher(
    teacher, contexts, response_pool, n_candidates: int, seed: int
) -> list:
    """Recall@1/N instances whose ground truth is the teacher's favorite.

    Each context draws n_candidates distinct responses from the pool; the
    one the teacher scores highest is the ground truth and the rest are
    distractors. Ranking a student on these measures how faithfully it
    reproduces the teacher's preferences.
    """
    contexts = as_matrix(contexts)
    response_pool = as_matrix(response_pool)
    if n_candidates > response_pool.shape[0]:
        raise ValueError("response pool smaller than requested candidate count")
    rng = np.random.default_rng(seed)
    ids = np.array([
        rng.choice(response_pool.shape[0], size=n_candidates, replace=False)
        for _ in range(contexts.shape[0])
    ], dtype=np.int64).reshape(contexts.shape[0], n_candidates)
    favorites = teacher_favorites(teacher, contexts, response_pool[ids])
    instances = []
    for i, (row, fav) in enumerate(zip(ids.tolist(), favorites.tolist())):
        gt = row[fav]
        instances.append(RankingInstance(i, gt, tuple(j for j in row if j != gt)))
    return instances


def save_encoder(encoder: DualEncoder, path) -> None:
    """Write the bit-exact DENC container."""
    write_container(
        path,
        _MAGIC,
        "<II",
        (encoder.n_features, encoder.dim),
        [encoder.w_ctx.astype("<f4"), encoder.w_resp.astype("<f4")],
    )


def load_encoder(path) -> DualEncoder:
    _, (w_ctx, w_resp) = read_container(
        path, _MAGIC, "<II", lambda f, d: [("<f4", (f, d))] * 2
    )
    return DualEncoder(w_ctx, w_resp)
