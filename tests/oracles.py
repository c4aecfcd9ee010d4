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
