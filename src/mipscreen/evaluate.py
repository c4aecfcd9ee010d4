"""Quantifies screening quality and speed.

Accuracy is the fraction of held-out contexts whose exact-search winner
survives screening; the speedup ratio is the candidate count over the
mean predicted-subset size. Queries that fall back to the full candidate
set count as size N for speed (honest cost) and as contained for
accuracy (honest benefit).
"""

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import as_matrix
from .screening import (
    ScreeningModel,
    ScreeningTrainSet,
    TrainConfig,
    assign_clusters,
    predict_subset,
    screened_search,
    train,
)
from .search import argmax_batch, exact_argmax


@dataclass(frozen=True)
class TimingStats:
    mean_ns: float
    p50_ns: float
    p99_ns: float
    count: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    accuracy: float
    speedup_ratio: float
    mean_subset_size: float
    n_candidates: int

    def __post_init__(self):
        if abs(self.speedup_ratio * self.mean_subset_size - self.n_candidates) > 1e-9 * self.n_candidates:
            raise ValueError("speedup ratio inconsistent with mean subset size")


@dataclass(frozen=True)
class GridCell:
    k: int
    lam: float
    accuracy: float
    speedup: float
    mean_subset: float
    seed: int
    error: Optional[str] = None


def _subset_sizes(model: ScreeningModel, clusters, fallback) -> np.ndarray:
    """Searched subset size per assigned context; a fallback counts as N."""
    return np.where(
        fallback, model.n_candidates, model.subset_sizes[clusters]
    ).astype(np.float64)


def _contexts(contexts) -> np.ndarray:
    contexts = as_matrix(contexts)
    if contexts.shape[0] < 1:
        raise ValueError("need at least one context")
    return contexts


def mean_subset_size(model: ScreeningModel, contexts) -> float:
    assignment = assign_clusters(_contexts(contexts), model)
    return float(_subset_sizes(model, *assignment).mean())


def speedup_ratio(model: ScreeningModel, contexts) -> float:
    """Candidate count over mean predicted-subset size (>= 1 by packing)."""
    return model.n_candidates / mean_subset_size(model, contexts)


def screening_accuracy(model: ScreeningModel, contexts, candidates) -> float:
    """Fraction of contexts whose exact winner survives screening."""
    return evaluate_model(model, contexts, candidates).accuracy


def evaluate_model(model: ScreeningModel, contexts, candidates) -> EvalReport:
    contexts = _contexts(contexts)
    candidates = as_matrix(candidates)
    if candidates.shape[0] != model.n_candidates:
        raise ValueError("model and candidate set disagree on candidate count")
    clusters, fallback = assign_clusters(contexts, model)
    oracle = argmax_batch(contexts, candidates)
    mean_sub = float(_subset_sizes(model, clusters, fallback).mean())
    return EvalReport(
        accuracy=float(np.mean(model.subset_bools[clusters, oracle] | fallback)),
        speedup_ratio=model.n_candidates / mean_sub,
        mean_subset_size=mean_sub,
        n_candidates=model.n_candidates,
    )


def grid_sweep(
    trainset: ScreeningTrainSet,
    test_contexts,
    k_list,
    lam_list,
    base_cfg: TrainConfig = TrainConfig(),
) -> list:
    """One trained model per (K, lambda) cell, each evaluated on the
    held-out contexts. A cell that fails to train is marked and skipped;
    the sweep continues."""
    if not len(k_list) or not len(lam_list):
        raise ValueError("k_list and lam_list must be non-empty")
    test_contexts = _contexts(test_contexts)
    cells = []
    for k in sorted(set(int(v) for v in k_list)):
        for lam in sorted(set(float(v) for v in lam_list)):
            cfg = replace(base_cfg, k=k, lam=lam)
            try:
                model = train(trainset, cfg).model
                report = evaluate_model(model, test_contexts, trainset.candidates)
                cells.append(
                    GridCell(
                        k,
                        lam,
                        report.accuracy,
                        report.speedup_ratio,
                        report.mean_subset_size,
                        cfg.seed,
                    )
                )
            except (ValueError, FloatingPointError) as exc:
                cells.append(
                    GridCell(k, lam, float("nan"), float("nan"), float("nan"),
                             cfg.seed, error=str(exc))
                )
    return cells


def bench_latency(
    mode: str,
    contexts,
    candidates,
    model: Optional[ScreeningModel] = None,
    warmup: int = 10,
    iters: int = 100,
) -> TimingStats:
    """Wall-clock per-query stats for one searcher over cycling contexts.

    For the screened searcher this first checks, untimed, that screening
    agrees with exact search on every context whose oracle winner is in
    the predicted subset.
    """
    contexts = _contexts(contexts)
    candidates = as_matrix(candidates)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")

    if mode == "exact":
        def run(c):
            return exact_argmax(c, candidates)
    elif mode == "screened":
        if model is None:
            raise ValueError("screened mode requires a model")
        # also primes the model's caches outside the timed region
        for c in contexts:
            want = exact_argmax(c, candidates).index
            if want in predict_subset(c, model) and (
                screened_search(c, model, candidates).index != want
            ):
                raise RuntimeError(
                    "screened search disagreed with exact search on a "
                    "contained oracle index"
                )

        def run(c):
            return screened_search(c, model, candidates)
    else:
        raise ValueError(f"mode must be 'exact' or 'screened', got {mode!r}")

    times = np.empty(iters)
    for j in range(warmup + iters):
        c = contexts[j % contexts.shape[0]]
        t0 = time.perf_counter_ns()
        run(c)
        dt = time.perf_counter_ns() - t0
        if j >= warmup:
            times[j - warmup] = dt
    return TimingStats(
        float(times.mean()),
        float(np.percentile(times, 50)),
        float(np.percentile(times, 99)),
        iters,
    )


_CSV_HEADER = "K,lambda,accuracy,speedup,mean_subset,seed"


def format_report_csv(cells, config: Optional[dict] = None) -> str:
    """Comma-separated sweep table, prefixed with # config comment lines."""
    lines = []
    for key, value in (config or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(_CSV_HEADER)
    for cell in cells:
        lines.append(
            f"{cell.k},{cell.lam:g},{cell.accuracy:.6f},"
            f"{cell.speedup:.6f},{cell.mean_subset:.6f},{cell.seed}"
        )
    for cell in cells:
        if cell.error is not None:
            lines.append(f"# failed K={cell.k} lambda={cell.lam:g}: {cell.error}")
    return "\n".join(lines) + "\n"


def format_report_table(cells) -> str:
    """Human-readable aligned sweep table."""
    rows = [("K", "lambda", "accuracy", "speedup", "mean_subset")]
    for cell in cells:
        if cell.error is not None:
            rows.append((str(cell.k), f"{cell.lam:g}", "failed", "-", "-"))
        else:
            rows.append(
                (
                    str(cell.k),
                    f"{cell.lam:g}",
                    f"{cell.accuracy:.4f}",
                    f"{cell.speedup:.2f}x",
                    f"{cell.mean_subset:.1f}",
                )
            )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    return "\n".join(
        "  ".join(val.rjust(widths[i]) for i, val in enumerate(row))
        for row in rows
    ) + "\n"
