"""Screening model: loss algebra, closed-form subset step, gradients,
the alternating trainer, and screened search."""

import numpy as np
import pytest

from mipscreen.kmeans import KMeansConfig, spherical_kmeans
from mipscreen.screening import (
    ScreeningModel,
    ScreeningTrainSet,
    TrainConfig,
    centroid_gradient,
    compute_alpha,
    load_model,
    pack_subsets,
    pair_loss,
    predict_subset,
    retrieve_prob,
    save_model,
    screened_search,
    soft_assign,
    soft_assign_batch,
    total_loss,
    train,
    unpack_subsets,
)
from mipscreen.search import exact_argmax
from oracles import enumerate_min_loss, fd_gradient, naive_total_loss


def make_model(centroids, bools, lam):
    centroids = np.asarray(centroids, dtype=np.float32)
    bools = np.asarray(bools, dtype=bool)
    return ScreeningModel(centroids, pack_subsets(bools), lam, bools.shape[1])


def random_instance(rng, m=None, n=None, k=None, d=None):
    m = m or int(rng.integers(2, 15))
    n = n or int(rng.integers(2, 12))
    k = k or int(rng.integers(1, 5))
    d = d or int(rng.integers(2, 6))
    contexts = rng.normal(size=(m, d)).astype(np.float32)
    candidates = rng.normal(size=(n, d)).astype(np.float32)
    centroids = rng.normal(size=(k, d)).astype(np.float32)
    labels = rng.integers(0, n, size=m)
    return contexts, candidates, centroids, labels


class TestSoftAssign:
    def test_identical_centroids_uniform(self):
        centroids = np.tile([1.0, 2.0], (4, 1)).astype(np.float32)
        np.testing.assert_allclose(soft_assign([0.3, -0.7], centroids), 0.25)

    def test_zero_context_uniform(self):
        rng = np.random.default_rng(30)
        centroids = rng.normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_allclose(soft_assign(np.zeros(3), centroids), 0.2)

    def test_hand_softmax(self):
        centroids = np.eye(2, dtype=np.float32)
        mu = soft_assign([1.0, 0.0], centroids)
        e = np.e
        np.testing.assert_allclose(mu, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_normalized_and_positive(self):
        rng = np.random.default_rng(31)
        centroids = rng.normal(size=(6, 4)).astype(np.float32)
        contexts = rng.normal(size=(10000, 4)).astype(np.float32)
        mu = soft_assign_batch(contexts, centroids)
        np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(mu > 0)


class TestRetrieveProb:
    def test_in_every_subset(self):
        subsets = np.ones((3, 4), dtype=bool)
        assert retrieve_prob(np.array([0.2, 0.3, 0.5]), subsets, 2) == 1.0

    def test_in_no_subset(self):
        subsets = np.zeros((3, 4), dtype=bool)
        assert retrieve_prob(np.array([0.2, 0.3, 0.5]), subsets, 1) == 0.0

    def test_hand_case(self):
        subsets = np.array([[1, 0], [0, 0]], dtype=bool)
        assert retrieve_prob(np.array([0.7, 0.3]), subsets, 0) == pytest.approx(0.7)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            retrieve_prob(np.array([1.0]), np.ones((1, 3), dtype=bool), 3)

    def test_always_a_probability(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 12))
            mu = rng.dirichlet(np.ones(k))
            subsets = rng.random((k, n)) < 0.5
            j = int(rng.integers(0, n))
            p = retrieve_prob(mu, subsets, j)
            assert 0.0 <= p <= 1.0


class TestPairLoss:
    def test_perfect_inclusion(self):
        assert pair_loss(1.0, 1, 0.1) == 0.0

    def test_perfect_exclusion(self):
        assert pair_loss(0.0, 0, 0.1) == 0.0

    def test_asymmetry(self):
        assert pair_loss(0.5, 0, 0.1) == pytest.approx(0.05)
        assert pair_loss(0.5, 1, 0.1) == pytest.approx(0.5)

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pair_loss(1.5, 0, 0.1)


class TestTotalLoss:
    def test_all_empty_subsets(self):
        rng = np.random.default_rng(32)
        contexts, candidates, centroids, labels = random_instance(rng, m=9)
        ts = ScreeningTrainSet(contexts, candidates, labels)
        model = make_model(centroids, np.zeros((centroids.shape[0], candidates.shape[0])), 0.3)
        assert total_loss(model, ts) == pytest.approx(9.0, rel=1e-12)

    def test_all_full_subsets(self):
        rng = np.random.default_rng(33)
        contexts, candidates, centroids, labels = random_instance(rng, m=7, n=5)
        ts = ScreeningTrainSet(contexts, candidates, labels)
        model = make_model(centroids, np.ones((centroids.shape[0], 5)), 0.25)
        assert total_loss(model, ts) == pytest.approx(0.25 * 7 * 4, rel=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            contexts, candidates, centroids, labels = random_instance(rng)
            k, n = centroids.shape[0], candidates.shape[0]
            bools = rng.random((k, n)) < 0.5
            lam = float(rng.uniform(0.01, 0.9))
            ts = ScreeningTrainSet(contexts, candidates, labels)
            model = make_model(centroids, bools, lam)
            expected = naive_total_loss(centroids, bools, lam, contexts, labels)
            assert total_loss(model, ts) == pytest.approx(expected, rel=1e-9)

    def test_matches_coefficient_expression(self):
        # the objective equals sum_kj alpha_kj s_kj plus the label count
        rng = np.random.default_rng(35)
        for _ in range(100):
            contexts, candidates, centroids, labels = random_instance(
                rng, m=int(rng.integers(2, 21)), n=int(rng.integers(2, 21))
            )
            k, n = centroids.shape[0], candidates.shape[0]
            bools = rng.random((k, n)) < 0.5
            lam = float(rng.uniform(1e-4, 0.9))
            ts = ScreeningTrainSet(contexts, candidates, labels)
            model = make_model(centroids, bools, lam)
            mu = soft_assign_batch(contexts, model.centroids)
            alpha = compute_alpha(mu, ts, lam)
            rewritten = float((alpha * bools).sum()) + contexts.shape[0]
            assert total_loss(model, ts) == pytest.approx(rewritten, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(36)
        contexts, candidates, centroids, labels = random_instance(rng, n=6)
        ts = ScreeningTrainSet(contexts, candidates, labels)
        model = make_model(centroids, np.ones((centroids.shape[0], 9)), 0.5)
        with pytest.raises(ValueError, match="candidate count"):
            total_loss(model, ts)


class TestComputeAlpha:
    def test_single_context_hand_case(self):
        contexts = np.array([[1.0, 0.0]], dtype=np.float32)
        candidates = np.eye(3, 2, dtype=np.float32)
        ts = ScreeningTrainSet(contexts, candidates, np.array([0]))
        mu = np.array([[0.6, 0.4]])
        alpha = compute_alpha(mu, ts, 0.01)
        np.testing.assert_allclose(alpha[:, 0], [-0.6, -0.4], atol=1e-12)
        np.testing.assert_allclose(alpha[:, 1], [0.006, 0.004], atol=1e-12)
        np.testing.assert_allclose(alpha[:, 2], [0.006, 0.004], atol=1e-12)

    def test_lambda_zero_limit(self):
        rng = np.random.default_rng(37)
        contexts, candidates, centroids, labels = random_instance(rng)
        ts = ScreeningTrainSet(contexts, candidates, labels)
        mu = soft_assign_batch(contexts, centroids)
        alpha = compute_alpha(mu, ts, 0.0)
        assert np.all(alpha <= 0.0)
        unlabeled = np.setdiff1d(np.arange(candidates.shape[0]), labels)
        np.testing.assert_array_equal(alpha[:, unlabeled], 0.0)

    def test_zero_mass_cluster_row_vanishes(self):
        contexts = np.array([[1.0, 0.0], [1.0, 0.1]], dtype=np.float32)
        candidates = np.eye(2, dtype=np.float32)
        ts = ScreeningTrainSet(contexts, candidates, np.array([0, 0]))
        mu = np.array([[1.0, 0.0], [1.0, 0.0]])
        alpha = compute_alpha(mu, ts, 0.1)
        np.testing.assert_allclose(alpha[1], 0.0, atol=1e-12)


class TestUpdateSubsets:
    def test_sign_rule(self):
        from mipscreen.screening import update_subsets

        # coefficients from the single-context hand case: the label column
        # is negative in both clusters, every other column positive
        alpha = np.array([[-0.6, 0.006, 0.006], [-0.4, 0.004, 0.004]])
        np.testing.assert_array_equal(
            update_subsets(alpha),
            [[True, False, False], [True, False, False]],
        )

    def test_zero_coefficient_includes(self):
        from mipscreen.screening import update_subsets

        alpha = np.array([[0.0, 1e-12, -1e-12]])
        np.testing.assert_array_equal(update_subsets(alpha), [[True, False, True]])

    def test_attains_brute_force_minimum(self):
        from mipscreen.screening import update_subsets

        rng = np.random.default_rng(38)
        shapes = [(2, 6), (3, 4), (4, 3), (2, 5), (3, 3)]
        for trial in range(100):
            k, n = shapes[trial % len(shapes)]
            m = int(rng.integers(2, 8))
            d = int(rng.integers(2, 5))
            contexts = rng.normal(size=(m, d)).astype(np.float32)
            candidates = rng.normal(size=(n, d)).astype(np.float32)
            centroids = rng.normal(size=(k, d)).astype(np.float32)
            labels = rng.integers(0, n, size=m)
            lam = float(rng.uniform(0.05, 0.8))
            ts = ScreeningTrainSet(contexts, candidates, labels)

            mu = soft_assign_batch(contexts, centroids)
            closed = update_subsets(compute_alpha(mu, ts, lam))
            closed_loss = total_loss(make_model(centroids, closed, lam), ts)

            best_loss, _ = enumerate_min_loss(centroids, lam, contexts, labels, n, k)
            assert closed_loss == pytest.approx(best_loss, rel=1e-12, abs=1e-12)


class TestCentroidGradient:
    def test_all_full_subsets_zero_gradient(self):
        rng = np.random.default_rng(39)
        contexts, candidates, centroids, labels = random_instance(rng)
        model = make_model(
            centroids, np.ones((centroids.shape[0], candidates.shape[0])), 0.2
        )
        grad = centroid_gradient(model, contexts, labels)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_all_empty_subsets_zero_gradient(self):
        rng = np.random.default_rng(40)
        contexts, candidates, centroids, labels = random_instance(rng)
        model = make_model(
            centroids, np.zeros((centroids.shape[0], candidates.shape[0])), 0.2
        )
        grad = centroid_gradient(model, contexts, labels)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            k, n, d = 2, 3, 4
            m = int(rng.integers(2, 10))
            contexts = rng.normal(size=(m, d)).astype(np.float32)
            candidates = rng.normal(size=(n, d)).astype(np.float32)
            centroids = rng.normal(size=(k, d)).astype(np.float32)
            labels = rng.integers(0, n, size=m)
            bools = rng.random((k, n)) < 0.5
            lam = float(rng.uniform(0.05, 0.5))
            model = make_model(centroids, bools, lam)
            analytic = centroid_gradient(model, contexts, labels)

            def loss_at(flat):
                return naive_total_loss(
                    flat.reshape(k, d), bools, lam, contexts, labels
                )

            numeric = fd_gradient(
                loss_at, centroids.astype(np.float64).ravel()
            ).reshape(k, d)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)


class TestTrain:
    def _trainset(self, seed=42, m=60, n=25, d=6):
        rng = np.random.default_rng(seed)
        contexts = rng.normal(size=(m, d)).astype(np.float32)
        candidates = rng.normal(size=(n, d)).astype(np.float32)
        from mipscreen.data import build_labels

        return ScreeningTrainSet(contexts, candidates, build_labels(contexts, candidates))

    def test_single_closed_form_step(self):
        ts = self._trainset()
        cfg = TrainConfig(k=4, lam=0.05, alternations=1, epochs_per_alternation=0, seed=5)
        result = train(ts, cfg)
        kmeans_centroids = spherical_kmeans(ts.contexts, KMeansConfig(k=4, seed=5))
        np.testing.assert_array_equal(result.model.centroids, kmeans_centroids)
        mu = soft_assign_batch(ts.contexts, kmeans_centroids)
        from mipscreen.screening import update_subsets

        expected = update_subsets(compute_alpha(mu, ts, 0.05))
        np.testing.assert_array_equal(result.model.subset_bools, expected)
        assert result.losses_after_subset[0] <= result.losses_before_subset[0]

    def test_k1_subset_is_distinct_labels(self):
        ts = self._trainset(seed=43)
        cfg = TrainConfig(k=1, lam=1e-4, alternations=3, seed=1)
        model = train(ts, cfg).model
        np.testing.assert_array_equal(
            model.member_indices[0], np.unique(ts.labels)
        )

    def test_monotone_descent_at_subset_steps(self):
        ts = self._trainset(seed=44, m=120, n=40)
        cfg = TrainConfig(k=5, lam=0.02, alternations=8, learning_rate=0.1, seed=2)
        result = train(ts, cfg)
        for before, after in zip(result.losses_before_subset, result.losses_after_subset):
            assert after <= before

    def test_deterministic(self):
        ts = self._trainset(seed=45)
        cfg = TrainConfig(k=3, lam=0.01, alternations=4, seed=9)
        a = train(ts, cfg).model
        b = train(ts, cfg).model
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.subsets.tobytes() == b.subsets.tobytes()

    def test_k_exceeding_contexts_rejected(self):
        ts = self._trainset(m=5)
        with pytest.raises(ValueError, match="exceeds"):
            train(ts, TrainConfig(k=6))

    def test_best_model_selected(self):
        ts = self._trainset(seed=46, m=100, n=30)
        cfg = TrainConfig(k=4, lam=0.05, alternations=6, learning_rate=0.2, seed=3)
        result = train(ts, cfg)
        assert min(result.losses_after_subset) == result.losses_after_subset[result.best_step]


class TestPredictAndSearch:
    def test_all_full_returns_everything(self):
        rng = np.random.default_rng(47)
        centroids = rng.normal(size=(3, 4)).astype(np.float32)
        model = make_model(centroids, np.ones((3, 10)), 0.1)
        np.testing.assert_array_equal(
            predict_subset(rng.normal(size=4), model), np.arange(10)
        )

    def test_context_equal_to_centroid(self):
        rng = np.random.default_rng(48)
        centroids = rng.normal(size=(3, 4))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids = centroids.astype(np.float32)
        bools = rng.random((3, 8)) < 0.4
        model = make_model(centroids, bools, 0.1)
        got = predict_subset(centroids[1], model)
        np.testing.assert_array_equal(got, np.flatnonzero(bools[1]))

    def test_empty_subset_falls_back_to_full(self):
        rng = np.random.default_rng(49)
        centroids = rng.normal(size=(2, 3)).astype(np.float32)
        bools = np.zeros((2, 6), dtype=bool)
        bools[1, 2] = True
        model = make_model(centroids, bools, 0.1)
        c = centroids[0]  # assigned to cluster 0, whose subset is empty
        np.testing.assert_array_equal(predict_subset(c, model), np.arange(6))

    def test_all_full_matches_exact(self):
        rng = np.random.default_rng(50)
        candidates = rng.normal(size=(30, 5)).astype(np.float32)
        centroids = rng.normal(size=(4, 5)).astype(np.float32)
        model = make_model(centroids, np.ones((4, 30)), 0.1)
        for _ in range(20):
            c = rng.normal(size=5).astype(np.float32)
            assert screened_search(c, model, candidates).index == exact_argmax(c, candidates).index

    def test_containment_gives_exact_answer(self):
        rng = np.random.default_rng(51)
        candidates = rng.normal(size=(40, 4)).astype(np.float32)
        centroids = rng.normal(size=(3, 4)).astype(np.float32)
        bools = rng.random((3, 40)) < 0.5
        model = make_model(centroids, bools, 0.1)
        for _ in range(50):
            c = rng.normal(size=4).astype(np.float32)
            oracle = exact_argmax(c, candidates)
            if oracle.index in predict_subset(c, model):
                assert screened_search(c, model, candidates).index == oracle.index

    def test_excluding_the_winner_changes_the_answer(self):
        rng = np.random.default_rng(52)
        candidates = rng.normal(size=(20, 3)).astype(np.float32)
        c = rng.normal(size=3).astype(np.float32)
        oracle = exact_argmax(c, candidates)
        bools = np.ones((1, 20), dtype=bool)
        bools[0, oracle.index] = False
        model = make_model(np.ones((1, 3), dtype=np.float32), bools, 0.1)
        got = screened_search(c, model, candidates)
        assert got.index != oracle.index
        assert got.score <= oracle.score

    def test_candidate_count_mismatch_rejected(self):
        model = make_model(np.ones((1, 3), dtype=np.float32), np.ones((1, 5)), 0.1)
        with pytest.raises(ValueError, match="candidates"):
            screened_search(np.ones(3), model, np.ones((7, 3), dtype=np.float32))

    def test_context_dimension_mismatch_rejected(self):
        model = make_model(np.ones((2, 3), dtype=np.float32), np.ones((2, 5)), 0.1)
        with pytest.raises(ValueError, match="dimension mismatch: contexts 4 vs model 3"):
            predict_subset(np.ones(4), model)

    def test_candidate_dimension_mismatch_rejected(self):
        model = make_model(np.ones((2, 3), dtype=np.float32), np.ones((2, 5)), 0.1)
        with pytest.raises(ValueError, match="dimension mismatch: candidates 4 vs model 3"):
            screened_search(np.ones(3), model, np.ones((5, 4), dtype=np.float32))


class TestLambdaMonotonicity:
    def test_subsets_shrink_as_lambda_rises(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            contexts, candidates, centroids, labels = random_instance(rng, m=12)
            ts = ScreeningTrainSet(contexts, candidates, labels)
            mu = soft_assign_batch(contexts, centroids)
            from mipscreen.screening import update_subsets

            lams = sorted(rng.uniform(1e-4, 0.9, size=4))
            previous = None
            for lam in lams:
                bits = update_subsets(compute_alpha(mu, ts, lam))
                if previous is not None:
                    assert np.all(bits <= previous)
                previous = bits


class TestModelPersistence:
    def _random_model(self, rng):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 40))
        centroids = rng.normal(size=(k, d)).astype(np.float32)
        bools = rng.random((k, n)) < 0.5
        lam = float(rng.uniform(1e-7, 0.9))
        return make_model(centroids, bools, lam)

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(54)
        for i in range(25):
            model = self._random_model(rng)
            path = tmp_path / f"m{i}.scrn"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.centroids.tobytes() == model.centroids.tobytes()
            assert loaded.subsets.tobytes() == model.subsets.tobytes()
            assert loaded.lam == model.lam
            assert loaded.n_candidates == model.n_candidates
            save_model(loaded, path)
            again = load_model(path)
            assert again.centroids.tobytes() == model.centroids.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.scrn"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="bad magic"):
            load_model(path)

    def test_bad_version_rejected(self, tmp_path):
        rng = np.random.default_rng(55)
        path = tmp_path / "v9.scrn"
        save_model(self._random_model(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_truncation_reports_sizes(self, tmp_path):
        rng = np.random.default_rng(56)
        path = tmp_path / "cut.scrn"
        save_model(self._random_model(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(ValueError, match=rf"expected {len(blob)} bytes, found {len(blob) - 3}"):
            load_model(path)

    def test_pack_round_trip(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 70))
            bools = rng.random((k, n)) < 0.5
            np.testing.assert_array_equal(unpack_subsets(pack_subsets(bools), n), bools)
