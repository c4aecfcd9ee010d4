"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (double loops, enumeration, finite
differences) and shares no code path with the package internals it
checks.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def naive_argmax(context, candidates):
    """Double-loop exact search; ties to the lowest index."""
    best_idx, best_score = 0, None
    for i, row in enumerate(candidates):
        score = 0.0
        for a, b in zip(context, row):
            score += float(a) * float(b)
        if best_score is None or score > best_score:
            best_idx, best_score = i, score
    return best_idx, best_score


def exact_argmax(context, candidates):
    """Search in rational arithmetic: every float converts to a Fraction
    exactly, so each inner product is exact; ties to the lowest index.
    Returns (index, exact score)."""
    q = [Fraction(float(a)) for a in context]
    best_idx, best_score = 0, None
    for i, row in enumerate(candidates):
        score = sum((a * Fraction(float(b)) for a, b in zip(q, row)), Fraction(0))
        if best_score is None or score > best_score:
            best_idx, best_score = i, score
    return best_idx, best_score


def naive_matvec(matrix, vector):
    """Double-loop matrix-vector product in float64."""
    out = []
    for row in matrix:
        acc = 0.0
        for a, b in zip(row, vector):
            acc += float(a) * float(b)
        out.append(acc)
    return np.array(out)


def naive_softmax(z):
    m = max(z)
    e = [math.exp(v - m) for v in z]
    s = sum(e)
    return [v / s for v in e]


def naive_total_loss(centroids, subsets, lam, contexts, labels):
    """Objective summed pair by pair from first principles: soft cluster
    assignment, per-candidate retrieval probability, asymmetric cost."""
    total = 0.0
    k, n = np.asarray(subsets).shape
    for i, c in enumerate(contexts):
        z = [sum(float(a) * float(b) for a, b in zip(c, centroids[kk])) for kk in range(k)]
        mu = naive_softmax(z)
        for j in range(n):
            p = sum(mu[kk] * float(subsets[kk][j]) for kk in range(k))
            y = 1 if labels[i] == j else 0
            total += lam * p * (1 - y) + (1.0 - p) * y
    return total


def enumerate_min_loss(centroids, lam, contexts, labels, n_candidates, k):
    """Brute-force minimum of the objective over all 2^(K*N) subset
    assignments, centroids fixed. Returns (min loss, best bit matrix)."""
    contexts = np.asarray(contexts, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    mu = np.array([naive_softmax(centroids @ c) for c in contexts])
    y = np.zeros((contexts.shape[0], n_candidates))
    y[np.arange(contexts.shape[0]), labels] = 1.0

    best_loss, best_bits = None, None
    for bits in itertools.product([0, 1], repeat=k * n_candidates):
        s = np.array(bits, dtype=np.float64).reshape(k, n_candidates)
        p = mu @ s
        loss = float(np.sum(lam * p * (1 - y) + (1 - p) * y))
        if best_loss is None or loss < best_loss:
            best_loss, best_bits = loss, s.astype(bool)
    return best_loss, best_bits


def fd_gradient(func, x, h=1e-4):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (func(xp) - func(xm)) / (2.0 * h)
        it.iternext()
    return grad


def exact_top_k(context, candidates, k):
    """The k rows with the largest exact inner products (as Fractions),
    in decreasing order, the lowest index first on a tie."""
    q = [Fraction(float(a)) for a in context]
    scores = [
        sum((a * Fraction(float(b)) for a, b in zip(q, row)), Fraction(0))
        for row in candidates
    ]
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def masked_sigmoid(x):
    """Stable logistic by boolean masks: 1 / (1 + exp(-x)) where x >= 0,
    exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def per_batch_distill(ctx_features, resp_features, teacher_scores, labels, cfg):
    """Mini-batch distillation SGD gathering every batch by fancy indexing
    and scoring its loss right after its gradients, with the masked
    sigmoid: the same random draws and the same arithmetic per pair as
    `train_distilled`. Returns (w_ctx, w_resp, epoch_losses) in float64."""
    ctx = np.asarray(ctx_features, dtype=np.float32).astype(np.float64)
    resp = np.asarray(resp_features, dtype=np.float32).astype(np.float64)
    scores = np.asarray(teacher_scores, dtype=np.float64)
    y = np.asarray(labels).astype(np.float64)
    n, n_feat = ctx.shape
    dim = cfg.dim or max(2, n_feat // 2)
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / np.sqrt(n_feat * np.sqrt(dim))
    w_ctx = rng.normal(0.0, scale, (n_feat, dim))
    w_resp = rng.normal(0.0, scale, (n_feat, dim))
    epoch_losses = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        running = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = perm[lo : lo + cfg.batch_size]
            c, r, sc, yb = ctx[batch], resp[batch], scores[batch], y[batch]
            ce, re = c @ w_ctx, r @ w_resp
            s = masked_sigmoid(np.einsum("ij,ij->i", ce, re))
            dq = 2.0 * cfg.beta * (s - sc) * s * (1.0 - s) + (s - yb)
            g_ctx = c.T @ (dq[:, None] * re) / batch.size
            g_resp = r.T @ (dq[:, None] * ce) / batch.size
            clamped = np.clip(s, 1e-12, 1.0 - 1e-12)
            losses = (cfg.beta * (s - sc) ** 2 - yb * np.log(clamped)
                      - (1.0 - yb) * np.log(1.0 - clamped))
            w_ctx -= cfg.learning_rate * g_ctx
            w_resp -= cfg.learning_rate * g_resp
            running += float(losses.mean()) * batch.size
        epoch_losses.append(running / n)
    return w_ctx, w_resp, epoch_losses


def favorites_one_by_one(teacher, contexts, responses):
    """One teacher call per context over its own (P, F) responses; the
    first on a tie."""
    return np.array([
        int(np.argmax(teacher.score_batch(np.repeat(c[None], r.shape[0], axis=0), r)))
        for c, r in zip(contexts, responses)
    ], dtype=np.int64)


def teacher_ranking_one_by_one(teacher, contexts, pool, n_candidates, seed):
    """(context id, ground truth id, distractor ids) per context: each
    context draws its candidate ids, then the teacher scores them, one
    context at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for i, c in enumerate(contexts):
        ids = rng.choice(pool.shape[0], size=n_candidates, replace=False)
        gt = int(ids[favorites_one_by_one(teacher, [c], [pool[ids]])[0]])
        out.append((i, gt, tuple(int(j) for j in ids if j != gt)))
    return out


def dense_alpha(mu, labels, n, lam):
    """(K, N) subset-bit coefficients with one column per candidate:
    lam * sum_i mu[i, k] - (lam + 1) * (mu[:, k] summed over the contexts
    labelled j, in context order)."""
    mu = np.asarray(mu, dtype=np.float64)
    label_mass = np.empty((mu.shape[1], n))
    for c in range(mu.shape[1]):
        label_mass[c] = np.bincount(labels, weights=mu[:, c], minlength=n)
    return lam * mu.sum(axis=0)[:, None] - (lam + 1.0) * label_mass


def dense_bits(alpha):
    """Keep every bit whose coefficient is <= 0; refuse non-finite ones."""
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha contains non-finite entries")
    return alpha <= 0.0


def dense_costs(bits, labels, lam):
    """(M, K) cost table from (K, N) subset bits."""
    pop = bits.sum(axis=1).astype(np.float64)
    return lam * pop[None, :] - (lam + 1.0) * bits[:, labels].T


def _softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def dense_train(contexts, candidates, labels, cfg, initial_centroids):
    """The alternating trainer over all N candidate columns in every
    alternation: the same k-means start, random draws and arithmetic as
    `screening.train`. Returns (float32 centroids, (K, N) subset bits,
    losses before and after each subset step, best step)."""
    contexts64 = np.asarray(contexts, dtype=np.float32).astype(np.float64)
    n, m = len(candidates), contexts64.shape[0]
    centroids = np.asarray(initial_centroids).astype(np.float64)
    costs = np.zeros((m, cfg.k))
    rng = np.random.default_rng(cfg.seed)
    before, after, best = [], [], None
    for step in range(cfg.alternations):
        mu = _softmax_rows(contexts64 @ centroids.T)
        before.append(m + float(np.einsum("ik,ik->", mu, costs)))
        bits = dense_bits(dense_alpha(mu, labels, n, cfg.lam))
        costs = dense_costs(bits, labels, cfg.lam)
        loss = m + float(np.einsum("ik,ik->", mu, costs))
        after.append(loss)
        if best is None or loss < best[0]:
            best = (loss, step, centroids.copy(), bits.copy())
        for _ in range(cfg.epochs_per_alternation):
            perm = rng.permutation(m)
            for lo in range(0, m, cfg.batch_size):
                batch = perm[lo : lo + cfg.batch_size]
                x, c = contexts64[batch], costs[batch]
                p = _softmax_rows(x @ centroids.T)
                inner = np.einsum("ik,ik->i", p, c)
                grad = (p * (c - inner[:, None])).T @ x
                centroids -= cfg.learning_rate * (grad / batch.size)
    _, best_step, best_centroids, best_bits = best
    return best_centroids.astype(np.float32), best_bits, before, after, best_step


# The whole-array counter RNG: every draw a full-length temporary. The
# package streams the same counters through fixed buffers; its output must
# equal these byte for byte.
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


def farthest_pivots(sample, cap):
    """Farthest-point pivots without an early exit: positions in `sample`
    picked until its covering radius has halved, or None after `cap`
    pivots. The same float32 products, in the same order, as
    `core._pivots`, which must return the same list wherever this one
    finds one."""
    sq = np.einsum("ij,ij->i", sample, sample)
    left = np.concatenate((-2 * sample, np.ones_like(sq)[:, None]), axis=1)
    right = np.concatenate((sample, sq[:, None]), axis=1)
    part = np.full_like(sq, np.inf)
    pivots = [0]
    while True:
        part = np.minimum(part, left @ right[pivots[-1]])
        far = part + sq
        i = int(far.argmax())
        if len(pivots) == 1:
            goal = far[i] / 4
        if far[i] <= goal:
            return pivots
        if len(pivots) == cap:
            return None
        pivots.append(i)
