"""Screening model: loss algebra, closed-form subset step, gradients,
the alternating trainer, and screened search."""

import numpy as np
import pytest

from mipscreen import screening
from mipscreen.evaluate import evaluate_model
from mipscreen.kmeans import KMeansConfig, spherical_kmeans
from mipscreen.screening import (
    ScreeningModel,
    ScreeningTrainSet,
    TrainConfig,
    assign_clusters,
    centroid_gradient,
    compute_alpha,
    load_model,
    pack_subsets,
    pair_loss,
    predict_subset,
    retrieve_prob,
    save_model,
    screened_search,
    screened_search_batch,
    soft_assign_batch,
    total_loss,
    train,
    unpack_subsets,
    update_subsets,
)
from mipscreen.screening import (
    _cluster_costs,
    _expand,
    _label_alpha,
    _subset_step,
)
from mipscreen.search import exact_argmax
from oracles import (
    dense_alpha,
    dense_bits,
    dense_costs,
    dense_train,
    enumerate_min_loss,
    fd_gradient,
    naive_total_loss,
)


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
        np.testing.assert_allclose(soft_assign_batch([[0.3, -0.7]], centroids)[0], 0.25)

    def test_zero_context_uniform(self):
        rng = np.random.default_rng(30)
        centroids = rng.normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_allclose(soft_assign_batch(np.zeros((1, 3)), centroids)[0], 0.2)

    def test_hand_softmax(self):
        centroids = np.eye(2, dtype=np.float32)
        mu = soft_assign_batch([[1.0, 0.0]], centroids)[0]
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

    def test_repeated_labels_sum_as_add_at_does(self):
        # many contexts share each label, so each sum has many terms in a
        # fixed order; the bytes must equal the np.add.at form
        rng = np.random.default_rng(38)
        contexts, candidates, centroids, _ = random_instance(rng, m=300, n=7, k=4)
        labels = rng.integers(0, 3, size=300)
        ts = ScreeningTrainSet(contexts, candidates, labels)
        mu = soft_assign_batch(contexts, centroids)
        label_mass = np.zeros((7, 4))
        np.add.at(label_mass, labels, mu)
        want = 0.01 * mu.sum(axis=0)[:, None] - (0.01 + 1.0) * label_mass.T
        assert compute_alpha(mu, ts, 0.01).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("lam", [5e-7, 1e-5])
    def test_small_lambda_keeps_kmeans_and_the_label_set(self, lam):
        # every context has some mass in every cluster, enough at these
        # lambdas to keep each label in each subset, so the cost table is
        # one constant, the gradient vanishes up to rounding and no later
        # snapshot beats the first
        from mipscreen.data import SyntheticSpec, build_labels, gen_synthetic

        syn = gen_synthetic(SyntheticSpec())
        labels = build_labels(syn.train_contexts, syn.candidates)
        ts = ScreeningTrainSet(syn.train_contexts, syn.candidates, labels)
        result = train(ts, TrainConfig(k=10, lam=lam, seed=42))
        start = spherical_kmeans(ts.contexts, KMeansConfig(k=10, seed=42))
        assert result.model.centroids.tobytes() == start.tobytes()
        label_set = np.zeros(ts.candidates.shape[0], dtype=bool)
        label_set[labels] = True
        assert (result.model.subset_bools == label_set).all()
        assert result.best_step == 0

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


class TestLabelColumns:
    """The label-column subset step and its (K, N) expansions against the
    dense reference, bit for bit."""

    def _check(self, mu, labels, n, lam):
        labels = np.asarray(labels)
        rng = np.random.default_rng(60)
        ts = ScreeningTrainSet(
            rng.normal(size=(labels.size, 3)).astype(np.float32),
            rng.normal(size=(n, 3)).astype(np.float32),
            labels,
        )
        want_alpha = dense_alpha(mu, labels, n, lam)
        want_bits = dense_bits(want_alpha)
        alpha = compute_alpha(mu, ts, lam)
        assert alpha.tobytes() == want_alpha.tobytes()
        bits = update_subsets(alpha)
        assert bits.tobytes() == want_bits.tobytes()
        assert (
            _cluster_costs(bits, labels, lam).tobytes()
            == dense_costs(want_bits, labels, lam).tobytes()
        )
        cols, inv = np.unique(labels, return_inverse=True)
        label_bits, costs = _subset_step(mu, inv, cols.size, n, lam)
        assert _expand(label_bits, cols, n).tobytes() == want_bits.tobytes()
        assert costs.tobytes() == dense_costs(want_bits, labels, lam).tobytes()
        return want_bits

    def _mu(self, rng, m, k):
        contexts = rng.normal(size=(m, 4)).astype(np.float32)
        return soft_assign_batch(contexts, rng.normal(size=(k, 4)).astype(np.float32))

    def test_duplicate_labels(self):
        rng = np.random.default_rng(61)
        for lam in (1e-5, 1e-3, 0.2):
            labels = rng.integers(0, 5, size=80)
            self._check(self._mu(rng, 80, 4), labels, 12, lam)

    def test_labels_cover_every_column(self):
        rng = np.random.default_rng(62)
        labels = rng.permutation(np.arange(30) % 9)
        bits = self._check(self._mu(rng, 30, 3), labels, 9, 1e-3)
        assert bits.any()

    def test_zero_mass_cluster_keeps_every_unlabelled_candidate(self):
        rng = np.random.default_rng(63)
        mu = self._mu(rng, 40, 3)
        mu[:, 1] = 0.0
        labels = rng.integers(0, 6, size=40)
        bits = self._check(mu, labels, 15, 0.03)
        assert bits[1].all()
        assert not bits[0, 6:].any() and not bits[2, 6:].any()

    def test_large_lambda_empties_subsets(self):
        # every label holds about 1% of each cluster's mass, below lam / (lam + 1)
        rng = np.random.default_rng(64)
        mu = rng.dirichlet(np.full(4, 50.0), size=200)
        labels = rng.permutation(np.arange(200) % 100)
        bits = self._check(mu, labels, 150, 0.03)
        assert not bits.any()

    def test_lambda_zero_through_compute_alpha(self):
        rng = np.random.default_rng(65)
        labels = rng.integers(0, 7, size=25)
        bits = self._check(self._mu(rng, 25, 3), labels, 20, 0.0)
        assert bits.all()

    def test_nan_mass_raises(self):
        rng = np.random.default_rng(66)
        for n in (6, 20):  # labels cover every column, then only some
            mu = self._mu(rng, 30, 3)
            mu[4, 2] = np.nan
            labels = np.arange(30) % 6
            ts = ScreeningTrainSet(
                rng.normal(size=(30, 3)).astype(np.float32),
                rng.normal(size=(n, 3)).astype(np.float32),
                labels,
            )
            with pytest.raises(ValueError, match="^alpha contains non-finite entries$"):
                update_subsets(compute_alpha(mu, ts, 1e-3))
            cols, inv = np.unique(labels, return_inverse=True)
            with pytest.raises(ValueError, match="^alpha contains non-finite entries$"):
                update_subsets(_label_alpha(mu, inv, cols.size, 1e-3))


class TestTrainMatchesDenseReference:
    @pytest.fixture(scope="class", params=["topics", "gaussian"])
    def trainset(self, request):
        from mipscreen.data import SyntheticSpec, build_labels, gen_synthetic

        if request.param == "topics":
            syn = gen_synthetic(SyntheticSpec(
                m_train=400, m_test=1, n_candidates=300, dim=8, topics=12, seed=3))
            contexts, candidates = syn.train_contexts, syn.candidates
        else:
            rng = np.random.default_rng(67)
            contexts = rng.normal(size=(150, 5)).astype(np.float32)
            candidates = rng.normal(size=(60, 5)).astype(np.float32)
        return ScreeningTrainSet(contexts, candidates, build_labels(contexts, candidates))

    # `dense_train` still runs the SGD pass after the last subset step;
    # `train` skips it, and no output may tell the difference
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("lam, alternations, epochs", [
        pytest.param(lam, alternations, epochs, id=str(lam) if (alternations, epochs) == (6, 1)
                     else f"{lam}-alternations{alternations}-epochs{epochs}")
        for lam in (1e-5, 1e-3, 0.03)
        for alternations, epochs in ((6, 1), (6, 0), (6, 2), (1, 1), (2, 2))
    ])
    def test_bitwise(self, trainset, seed, lam, alternations, epochs):
        cfg = TrainConfig(k=5, lam=lam, alternations=alternations,
                          epochs_per_alternation=epochs, seed=seed)
        got = train(trainset, cfg)
        start = spherical_kmeans(trainset.contexts, KMeansConfig(k=cfg.k, seed=seed))
        centroids, bits, before, after, best_step = dense_train(
            trainset.contexts, trainset.candidates, trainset.labels, cfg, start)
        assert got.model.centroids.tobytes() == centroids.tobytes()
        assert got.model.subsets.tobytes() == pack_subsets(bits).tobytes()
        assert got.losses_before_subset == before
        assert got.losses_after_subset == after
        assert got.best_step == best_step


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
        candidates = np.ones((5, 3), dtype=np.float32)
        for call in (
            lambda: predict_subset(np.ones(4), model),
            lambda: screened_search(np.ones(4), model, candidates),
            lambda: screened_search_batch(np.ones((2, 4)), model, candidates),
            lambda: assign_clusters(np.ones((2, 4)), model),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "dimension mismatch: contexts 4 vs model 3"

    def test_screened_search_casts_the_context_once(self, monkeypatch):
        rng = np.random.default_rng(58)
        model = make_model(rng.normal(size=(2, 3)).astype(np.float32), np.eye(2, 5), 0.1)
        candidates = rng.normal(size=(5, 3)).astype(np.float32)
        c = rng.normal(size=3)  # float64: each cast makes a copy
        want = screened_search(c, model, candidates)
        casts = []
        for name in ("as_vector", "as_matrix"):
            def spy(x, cast=getattr(screening, name), name=name):
                casts.append((name, x))
                return cast(x)

            monkeypatch.setattr(screening, name, spy)
        assert screened_search(c, model, candidates) == want
        # the candidates are cast by check_candidates; the context once
        assert [(name, x is c) for name, x in casts if x is not candidates] == [("as_vector", True)]

    def test_candidate_dimension_mismatch_rejected(self):
        model = make_model(np.ones((2, 3), dtype=np.float32), np.ones((2, 5)), 0.1)
        with pytest.raises(ValueError, match="dimension mismatch: candidates 4 vs model 3"):
            screened_search(np.ones(3), model, np.ones((5, 4), dtype=np.float32))

    def test_candidate_count_mismatch_message_is_shared(self):
        rng = np.random.default_rng(56)
        model = make_model(np.ones((2, 3), dtype=np.float32), np.ones((2, 5)), 0.1)
        candidates = rng.normal(size=(7, 3)).astype(np.float32)
        contexts = rng.normal(size=(4, 3)).astype(np.float32)
        trainset = ScreeningTrainSet(contexts, candidates, np.zeros(4))
        for call in (
            lambda: model.check_candidates(candidates),
            lambda: screened_search(contexts[0], model, candidates),
            lambda: evaluate_model(model, contexts, candidates),
            lambda: total_loss(model, trainset),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "candidate count mismatch: candidates 7 vs model 5"

    def test_check_candidates_returns_float32_matrix(self):
        model = make_model(np.ones((2, 3), dtype=np.float32), np.ones((2, 5)), 0.1)
        got = model.check_candidates(np.ones((5, 3), dtype=np.float64))
        assert got.dtype == np.float32 and got.shape == (5, 3)


class TestFloat64Contexts:
    """A float64 context is assigned as its float32 cast, the values
    serving searches with."""

    def test_assignment_below_float32_resolution(self):
        centroids = np.array([[1, 0], [1 + 2**-23, -1]], dtype=np.float32)
        model = make_model(centroids, np.eye(2), 0.1)
        c = np.array([1, 2**-23 - 2**-60])  # its float32 cast ties both clusters
        assert assign_clusters(c[None], model)[0] == 0
        np.testing.assert_array_equal(predict_subset(c, model), [0])

    def test_same_clusters_as_float32_cast(self):
        rng = np.random.default_rng(57)
        centroids = rng.integers(-2, 3, size=(6, 4)).astype(np.float32)
        candidates = rng.normal(size=(6, 4)).astype(np.float32)
        model = make_model(centroids, np.eye(6), 0.1)
        # small-integer casts, which often tie two centroids exactly; the
        # float64 noise below float32 resolution would break those ties
        cast = rng.integers(-2, 3, size=(300, 4)).astype(np.float32)
        contexts = cast * (1 + rng.normal(scale=1e-9, size=cast.shape))
        np.testing.assert_array_equal(contexts.astype(np.float32), cast)
        clusters = assign_clusters(cast, model)
        np.testing.assert_array_equal(assign_clusters(contexts, model), clusters)
        np.testing.assert_array_equal(assign_clusters(contexts.tolist(), model), clusters)
        for c, k in zip(contexts, clusters):
            np.testing.assert_array_equal(predict_subset(c, model), [k])
        want = evaluate_model(model, cast, candidates)
        got = evaluate_model(model, contexts, candidates)
        assert (got.accuracy, got.mean_subset_size) == (want.accuracy, want.mean_subset_size)


class TestTrainSetFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["contexts", "candidates"])
    def test_non_finite_entry_rejected(self, name, bad):
        arrays = {"contexts": np.ones((4, 3), dtype=np.float32),
                  "candidates": np.ones((5, 3), dtype=np.float32)}
        arrays[name][1, 2] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            ScreeningTrainSet(arrays["contexts"], arrays["candidates"], np.zeros(4))

    def test_contexts_named_first(self):
        contexts = np.full((4, 3), np.nan, dtype=np.float32)
        candidates = np.full((5, 3), np.inf, dtype=np.float32)
        with pytest.raises(ValueError, match="^contexts contains non-finite entries$"):
            ScreeningTrainSet(contexts, candidates, np.zeros(4))


class TestSearchReadsOnlySearchedRows:
    """Screened search checks the rows it searches, not every candidate."""

    def _setup(self):
        rng = np.random.default_rng(58)
        candidates = rng.normal(size=(50, 4)).astype(np.float32)
        contexts = rng.normal(size=(5, 4)).astype(np.float32)
        bools = np.zeros((2, 50), dtype=bool)
        bools[:, 25:] = True  # row 0 is never searched
        model = make_model(np.eye(2, 4), bools, 1e-3)
        return model, contexts, candidates, screened_search_batch(contexts, model, candidates)

    def test_non_finite_searched_row_refused(self):
        model, contexts, candidates, clean = self._setup()
        candidates[clean[0], 1] = np.nan
        with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
            screened_search(contexts[0], model, candidates)
        with pytest.raises(ValueError, match="^candidates contains non-finite entries$"):
            screened_search_batch(contexts, model, candidates)

    def test_non_finite_unsearched_row_leaves_the_answer(self):
        model, contexts, candidates, clean = self._setup()
        dirty = candidates.copy()
        dirty[0, 1] = np.nan
        np.testing.assert_array_equal(screened_search_batch(contexts, model, dirty), clean)
        for c in contexts:
            assert screened_search(c, model, dirty) == screened_search(c, model, candidates)


class TestEmptySubsetFallback:
    """An empty stored subset is kept as stored, but its cluster searches
    every candidate."""

    def _model(self):
        rng = np.random.default_rng(57)
        bools = rng.random((3, 11)) < 0.5
        bools[:, 0] = True
        bools[1] = False
        return make_model(rng.normal(size=(3, 4)), bools, 0.1), bools

    def test_stored_bits_stay_empty(self, tmp_path):
        model, bools = self._model()
        model.member_indices  # the serving view must not write into the stored bits
        np.testing.assert_array_equal(model.subset_bools, bools)
        path = tmp_path / "empty.scrn"
        save_model(model, path)
        blob = path.read_bytes()
        loaded = load_model(path)
        assert not loaded.subset_bools[1].any()
        save_model(loaded, path)
        assert path.read_bytes() == blob

    def test_empty_cluster_searches_everything(self):
        model, bools = self._model()
        np.testing.assert_array_equal(model.member_indices[1], np.arange(11))
        assert model.subset_sizes[1] == 11
        assert model.searched_bools[1].all()
        for k in (0, 2):
            np.testing.assert_array_equal(model.searched_bools[k], bools[k])
            np.testing.assert_array_equal(model.member_indices[k], np.flatnonzero(bools[k]))
            assert model.subset_sizes[k] == bools[k].sum()


class TestPaddingBits:
    """The last byte's bits past N must be clear: set, they would make a
    row non-empty that unpacks to no members."""

    def test_issue_case_rejected(self):
        with pytest.raises(ValueError, match="^packed subsets set bits past candidate 14$"):
            ScreeningModel(np.eye(1, 4, dtype=np.float32),
                           np.array([[0x00, 0x80]], dtype=np.uint8), 0.5, 15)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_padding_bit(self, n):
        centroids = np.eye(2, 3, dtype=np.float32)
        full = pack_subsets(np.ones((2, n), dtype=bool))
        ScreeningModel(centroids, full, 0.5, n)
        for bit in range(8 - (-n % 8), 8):  # the last byte's unused bits
            bad = full.copy()
            bad[1, -1] |= 1 << bit
            with pytest.raises(ValueError, match="past candidate"):
                ScreeningModel(centroids, bad, 0.5, n)

    def test_load_model_rejects(self, tmp_path):
        path = tmp_path / "pad.scrn"
        save_model(make_model(np.eye(2, 3), np.zeros((2, 15), dtype=bool), 0.5), path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 0x80  # the last row's last byte: bit 15 of 15 candidates
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="past candidate 14"):
            load_model(path)


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
