"""Screening metrics, the hyperparameter sweep, and the latency bench."""

import dataclasses

import numpy as np
import pytest

from mipscreen.data import SyntheticSpec, build_labels, gen_synthetic
from mipscreen.evaluate import (
    EvalReport,
    GridCell,
    bench_latency,
    evaluate_model,
    format_report_csv,
    format_report_table,
    grid_sweep,
    mean_subset_size,
    screening_accuracy,
    speedup_ratio,
)
from mipscreen.screening import (
    ScreeningModel,
    ScreeningTrainSet,
    TrainConfig,
    pack_subsets,
    train,
)
from mipscreen.search import SearchResult, argmax_batch


def make_model(centroids, bools, lam=0.1):
    bools = np.asarray(bools, dtype=bool)
    return ScreeningModel(
        np.asarray(centroids, dtype=np.float32), pack_subsets(bools), lam, bools.shape[1]
    )


@pytest.fixture(scope="module")
def small_world():
    syn = gen_synthetic(
        SyntheticSpec(m_train=300, m_test=80, n_candidates=90, dim=8, topics=9, seed=11)
    )
    labels = build_labels(syn.train_contexts, syn.candidates)
    trainset = ScreeningTrainSet(syn.train_contexts, syn.candidates, labels)
    test_labels = build_labels(syn.test_contexts, syn.candidates)
    covered = np.isin(test_labels, labels)
    return trainset, syn.test_contexts[covered]


class TestAccuracy:
    def test_all_full_subsets(self):
        rng = np.random.default_rng(90)
        contexts = rng.normal(size=(40, 4)).astype(np.float32)
        candidates = rng.normal(size=(25, 4)).astype(np.float32)
        model = make_model(rng.normal(size=(3, 4)), np.ones((3, 25)))
        assert screening_accuracy(model, contexts, candidates) == 1.0

    def test_k1_trained_model_reaches_one(self, small_world):
        trainset, covered_test = small_world
        model = train(trainset, TrainConfig(k=1, lam=1e-5, alternations=2, seed=1)).model
        assert screening_accuracy(model, covered_test, trainset.candidates) == 1.0

    def test_single_flipped_bit_costs_one_percent(self):
        rng = np.random.default_rng(91)
        rows = rng.normal(size=(100, 6))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows.astype(np.float32)
        # contexts are the candidates themselves: oracle hits self
        bools = np.ones((1, 100), dtype=bool)
        bools[0, 0] = False
        model = make_model(np.ones((1, 6)), bools)
        assert screening_accuracy(model, rows, rows) == pytest.approx(0.99)


class TestSpeedup:
    def test_all_full_is_one(self):
        rng = np.random.default_rng(92)
        model = make_model(rng.normal(size=(2, 3)), np.ones((2, 12)))
        contexts = rng.normal(size=(30, 3)).astype(np.float32)
        assert speedup_ratio(model, contexts) == 1.0

    def test_half_subsets_double(self):
        rng = np.random.default_rng(93)
        bools = np.zeros((2, 10), dtype=bool)
        bools[:, :5] = True
        model = make_model(rng.normal(size=(2, 3)), bools)
        contexts = rng.normal(size=(30, 3)).astype(np.float32)
        assert speedup_ratio(model, contexts) == 2.0

    def test_fallback_counts_full_size(self):
        rng = np.random.default_rng(94)
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32)
        bools = np.zeros((2, 8), dtype=bool)
        bools[1, :2] = True  # cluster 0 empty -> fallback
        model = make_model(centroids, bools)
        right = np.array([[1.0, 0.1]], dtype=np.float32)  # assigned to cluster 0
        assert mean_subset_size(model, right) == 8.0
        assert speedup_ratio(model, right) == 1.0

    def test_report_speedup_is_derived(self):
        report = EvalReport(accuracy=1.0, mean_subset_size=10.0, n_candidates=33)
        assert report.speedup_ratio == 3.3
        assert [f.name for f in dataclasses.fields(EvalReport)] == [
            "accuracy", "mean_subset_size", "n_candidates"
        ]

    def test_product_identity(self):
        rng = np.random.default_rng(95)
        bools = rng.random((4, 33)) < 0.3
        bools[:, 0] = True  # keep every cluster non-empty
        model = make_model(rng.normal(size=(4, 5)), bools)
        contexts = rng.normal(size=(50, 5)).astype(np.float32)
        report = evaluate_model(model, contexts, rng.normal(size=(33, 5)).astype(np.float32))
        assert report.speedup_ratio * report.mean_subset_size == pytest.approx(
            33, abs=1e-9
        )


class TestInputChecks:
    def test_empty_contexts_rejected(self):
        model = make_model(np.ones((2, 3)), np.ones((2, 5)))
        empty = np.zeros((0, 3), dtype=np.float32)
        candidates = np.ones((5, 3), dtype=np.float32)
        for call in (
            lambda: evaluate_model(model, empty, candidates),
            lambda: screening_accuracy(model, empty, candidates),
            lambda: mean_subset_size(model, empty),
            lambda: speedup_ratio(model, empty),
        ):
            with pytest.raises(ValueError, match="need at least one context"):
                call()

    def test_grid_rejects_empty_test_contexts_before_training(self, small_world):
        trainset, _ = small_world
        empty = np.zeros((0, trainset.contexts.shape[1]), dtype=np.float32)
        with pytest.raises(ValueError, match="need at least one context"):
            grid_sweep(trainset, empty, [2], [1e-4])

    def test_grid_rejects_test_dimension_before_training(self, small_world, monkeypatch):
        trainset, _ = small_world
        trained = []
        monkeypatch.setattr("mipscreen.evaluate.train", lambda *a: trained.append(a))
        wrong = np.ones((5, trainset.contexts.shape[1] + 2), dtype=np.float32)
        with pytest.raises(ValueError, match="dimension mismatch: test contexts 10 vs train set 8"):
            grid_sweep(trainset, wrong, [2, 3], [1e-4])
        assert trained == []

    def test_model_dimension_mismatch_rejected(self):
        model = make_model(np.ones((2, 3)), np.ones((2, 5)))
        contexts = np.ones((4, 6), dtype=np.float32)
        with pytest.raises(ValueError, match="dimension mismatch: contexts 6 vs model 3"):
            evaluate_model(model, contexts, np.ones((5, 6), dtype=np.float32))


class TestGridSweep:
    def test_singleton_matches_individual_metrics(self, small_world):
        trainset, covered_test = small_world
        cfg = TrainConfig(seed=5)
        cells = grid_sweep(trainset, covered_test, [4], [1e-4], cfg)
        assert len(cells) == 1
        cell = cells[0]
        model = train(
            trainset,
            TrainConfig(k=4, lam=1e-4, alternations=cfg.alternations, seed=5),
        ).model
        assert cell.accuracy == screening_accuracy(model, covered_test, trainset.candidates)
        assert cell.speedup == speedup_ratio(model, covered_test)
        assert cell.error is None

    def test_degenerate_k_column(self, small_world):
        trainset, covered_test = small_world
        cells = grid_sweep(trainset, covered_test, [1], [1e-5, 1e-4], TrainConfig(seed=2))
        assert all(cell.accuracy == 1.0 for cell in cells)

    def test_failed_cell_marked_and_sweep_continues(self, small_world):
        trainset, covered_test = small_world
        huge_k = trainset.contexts.shape[0] + 1
        cells = grid_sweep(trainset, covered_test, [2, huge_k], [1e-4], TrainConfig(seed=3))
        by_k = {cell.k: cell for cell in cells}
        assert by_k[2].error is None
        assert by_k[huge_k].error is not None
        assert np.isnan(by_k[huge_k].accuracy)

    def test_deterministic_report(self, small_world):
        trainset, covered_test = small_world
        a = grid_sweep(trainset, covered_test, [2, 3], [1e-4], TrainConfig(seed=7))
        b = grid_sweep(trainset, covered_test, [2, 3], [1e-4], TrainConfig(seed=7))
        assert format_report_csv(a) == format_report_csv(b)

    def test_rows_sorted_by_k_then_lambda(self, small_world):
        trainset, covered_test = small_world
        cells = grid_sweep(
            trainset, covered_test, [3, 2], [1e-4, 1e-5], TrainConfig(seed=8)
        )
        keys = [(cell.k, cell.lam) for cell in cells]
        assert keys == sorted(keys)

    def test_oracle_found_once_per_sweep(self, small_world, monkeypatch):
        from mipscreen import evaluate

        trainset, covered_test = small_world
        calls = []

        def counting(contexts, candidates):
            calls.append(contexts.shape[0])
            return argmax_batch(contexts, candidates)

        monkeypatch.setattr(evaluate, "argmax_batch", counting)
        cells = grid_sweep(trainset, covered_test, [2, 3], [1e-5, 1e-4], TrainConfig(seed=6))
        assert calls == [covered_test.shape[0]]
        for cell in cells:
            model = train(trainset, TrainConfig(k=cell.k, lam=cell.lam, seed=6)).model
            report = evaluate_model(model, covered_test, trainset.candidates)
            assert (cell.accuracy, cell.mean_subset) == (report.accuracy, report.mean_subset_size)

    def test_oracle_error_fails_each_trained_cell(self, small_world):
        trainset, covered_test = small_world
        broken = covered_test.copy()  # a train set refuses non-finite candidates
        broken[5, 2] = np.nan
        huge_k = trainset.contexts.shape[0] + 1
        cells = grid_sweep(trainset, broken, [2, huge_k], [1e-4], TrainConfig(seed=3))
        model = train(trainset, TrainConfig(k=2, lam=1e-4, seed=3)).model
        with pytest.raises(ValueError) as want:
            evaluate_model(model, broken, trainset.candidates)
        assert [cell.error for cell in cells] == [
            str(want.value), f"k={huge_k} exceeds context count {trainset.contexts.shape[0]}"
        ]

    def test_empty_lists_rejected(self, small_world):
        trainset, covered_test = small_world
        with pytest.raises(ValueError, match="non-empty"):
            grid_sweep(trainset, covered_test, [], [1e-4])


class TestBenchLatency:
    def test_stats_shape_and_agreement(self, small_world):
        trainset, covered_test = small_world
        model = train(trainset, TrainConfig(k=3, lam=1e-4, alternations=3, seed=4)).model
        stats = bench_latency(
            "screened", covered_test[:10], trainset.candidates, model, warmup=2, iters=15
        )
        assert stats.count == 15
        assert stats.mean_ns > 0
        assert stats.p50_ns <= stats.p99_ns

    def test_screened_disagreement_on_a_contained_winner_raises(self, small_world, monkeypatch):
        trainset, covered_test = small_world
        model = train(trainset, TrainConfig(k=3, lam=1e-4, alternations=3, seed=4)).model
        wrong = SearchResult(-1, 0.0)
        monkeypatch.setattr("mipscreen.evaluate.screened_search", lambda *a: wrong)
        with pytest.raises(RuntimeError, match="disagreed"):
            bench_latency("screened", covered_test[:10], trainset.candidates, model, iters=1)

    def test_exact_mode(self, small_world):
        trainset, covered_test = small_world
        stats = bench_latency("exact", covered_test[:5], trainset.candidates, iters=10)
        assert stats.count == 10

    def test_zero_iters_rejected(self, small_world):
        trainset, covered_test = small_world
        with pytest.raises(ValueError, match="iters"):
            bench_latency("exact", covered_test, trainset.candidates, iters=0)

    def test_screened_requires_model(self, small_world):
        trainset, covered_test = small_world
        with pytest.raises(ValueError, match="model"):
            bench_latency("screened", covered_test, trainset.candidates)

    def test_unknown_mode_rejected(self, small_world):
        trainset, covered_test = small_world
        with pytest.raises(ValueError, match="mode"):
            bench_latency("fuzzy", covered_test, trainset.candidates, iters=1)


class TestReportFormats:
    def _cells(self):
        return [
            GridCell(10, 1e-5, 0.912, 12.79, 78.2, 42),
            GridCell(10, 1e-6, 0.989, 4.36, 229.4, 42),
            GridCell(20, 1e-6, float("nan"), float("nan"), float("nan"), 42,
                     error="k=20 exceeds context count 10"),
        ]

    def test_csv_layout(self):
        text = format_report_csv(self._cells(), {"seed": 42, "candidates": "c.emb"})
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=42"
        assert lines[1] == "# candidates=c.emb"
        assert lines[2] == "K,lambda,accuracy,speedup,mean_subset,seed"
        assert lines[3].startswith("10,1e-05,0.912000,12.790000")
        assert lines[-1].startswith("# failed K=20")

    def test_table_is_aligned(self):
        table = format_report_table(self._cells()).splitlines()
        assert len({len(row) for row in table}) == 1
        assert "failed" in table[-1]
