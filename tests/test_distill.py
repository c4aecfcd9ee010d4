"""Dual-encoder distillation: losses, gradients, training, persistence."""

import math

import numpy as np
import pytest

import mipscreen.distill as dst
from mipscreen.core import score_dual, sigmoid
from mipscreen.data import PairSpec, gen_pair_data
from mipscreen.distill import (
    DistillConfig,
    DualEncoder,
    PairSet,
    PlantedTeacher,
    bce,
    encode,
    kd_loss,
    load_encoder,
    loss_and_gradients,
    pair_scores,
    ranking_instances_by_teacher,
    save_encoder,
    teacher_favorites,
    train_distilled,
)
from oracles import (
    favorites_one_by_one,
    fd_gradient,
    masked_sigmoid,
    naive_matvec,
    per_batch_distill,
    teacher_ranking_one_by_one,
)


class TestBce:
    def test_perfect_positive(self):
        assert bce(1.0 - 1e-9, 1) == pytest.approx(0.0, abs=1e-8)

    def test_half_is_ln2(self):
        assert bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
        assert bce(0.5, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_clamped_extreme(self):
        v = bce(0.0, 1)
        assert math.isfinite(v)
        assert v <= math.log(1e12) + 1e-9


class TestKdLoss:
    def test_beta_zero_reduces_to_bce(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            s = float(rng.uniform(1e-6, 1 - 1e-6))
            t = float(rng.uniform(1e-6, 1 - 1e-6))
            y = int(rng.integers(0, 2))
            assert kd_loss(s, t, y, 0.0) == bce(s, y)

    def test_agreement_leaves_only_bce(self):
        assert kd_loss(0.7, 0.7, 1, 2.5) == bce(0.7, 1)

    def test_hand_case(self):
        expected = 0.5 * 0.04 + (-math.log(0.8))
        assert kd_loss(0.8, 0.6, 1, 0.5) == pytest.approx(expected, abs=1e-12)
        assert kd_loss(0.8, 0.6, 1, 0.5) == pytest.approx(0.243144, abs=1e-6)

    def test_non_negative(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            v = kd_loss(
                float(rng.uniform(0.01, 0.99)),
                float(rng.uniform(0.01, 0.99)),
                int(rng.integers(0, 2)),
                float(rng.uniform(0, 3)),
            )
            assert v >= 0.0


class TestEncode:
    def test_identity_maps(self):
        eye = np.eye(4, dtype=np.float32)
        enc = DualEncoder(eye, eye)
        feats = np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)
        np.testing.assert_array_equal(encode(enc, feats, "context"), feats)
        np.testing.assert_array_equal(encode(enc, feats, "response"), feats)

    def test_zero_features_score_half(self):
        rng = np.random.default_rng(62)
        enc = DualEncoder(
            rng.normal(size=(5, 3)).astype(np.float32),
            rng.normal(size=(5, 3)).astype(np.float32),
        )
        zero_emb = encode(enc, np.zeros(5, dtype=np.float32), "context")
        other = encode(enc, rng.normal(size=5).astype(np.float32), "response")
        assert score_dual(zero_emb, other) == 0.5

    def test_matches_double_loop_matvec(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            f, d = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            w = rng.normal(size=(f, d)).astype(np.float32)
            enc = DualEncoder(w, w.copy())
            feats = rng.normal(size=f).astype(np.float32)
            expected = naive_matvec(w.T, feats)
            np.testing.assert_allclose(
                encode(enc, feats, "context"), expected, atol=1e-6
            )

    def test_bad_side_rejected(self):
        enc = DualEncoder(np.eye(2, dtype=np.float32), np.eye(2, dtype=np.float32))
        with pytest.raises(ValueError, match="side"):
            encode(enc, np.ones(2), "query")

    def test_feature_length_mismatch(self):
        enc = DualEncoder(np.eye(2, dtype=np.float32), np.eye(2, dtype=np.float32))
        with pytest.raises(ValueError, match="feature length"):
            encode(enc, np.ones(3), "context")


def _random_pairs(rng, count=24, f=5):
    ctx = rng.normal(size=(count, f)).astype(np.float32)
    resp = rng.normal(size=(count, f)).astype(np.float32)
    labels = (rng.random(count) < 0.5).astype(np.uint8)
    labels[0], labels[1] = 1, 0  # guarantee both classes
    scores = rng.uniform(0.05, 0.95, size=count).astype(np.float32)
    return PairSet(ctx, resp, labels, scores)


class TestGradients:
    def test_matches_finite_differences_on_both_maps(self):
        rng = np.random.default_rng(64)
        for _ in range(6):
            f = int(rng.integers(2, 7))
            d = int(rng.integers(2, 7))
            pairs = _random_pairs(rng, count=int(rng.integers(4, 12)), f=f)
            w_ctx = rng.normal(0, 0.4, size=(f, d))
            w_resp = rng.normal(0, 0.4, size=(f, d))
            beta = float(rng.uniform(0, 2))
            _, g_ctx, g_resp = loss_and_gradients(
                w_ctx, w_resp, pairs.ctx_features, pairs.resp_features,
                pairs.teacher_scores, pairs.labels, beta,
            )

            def mean_loss(wc, wr):
                total = 0.0
                for i in range(len(pairs)):
                    c_emb = pairs.ctx_features[i].astype(np.float64) @ wc
                    r_emb = pairs.resp_features[i].astype(np.float64) @ wr
                    s = sigmoid(float(np.dot(c_emb, r_emb)))
                    total += kd_loss(
                        s, float(pairs.teacher_scores[i]), int(pairs.labels[i]), beta
                    )
                return total / len(pairs)

            fd_ctx = fd_gradient(lambda w: mean_loss(w.reshape(f, d), w_resp), w_ctx.ravel())
            fd_resp = fd_gradient(lambda w: mean_loss(w_ctx, w.reshape(f, d)), w_resp.ravel())
            np.testing.assert_allclose(g_ctx.ravel(), fd_ctx, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(g_resp.ravel(), fd_resp, rtol=1e-4, atol=1e-7)


class TestTrainDistilled:
    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(65)
        pairs = _random_pairs(rng, count=40)
        cfg = DistillConfig(beta=0.5, epochs=5, seed=11)
        a = train_distilled(pairs, None, cfg).encoder
        b = train_distilled(pairs, None, cfg).encoder
        assert a.w_ctx.tobytes() == b.w_ctx.tobytes()
        assert a.w_resp.tobytes() == b.w_resp.tobytes()

    def test_beta_zero_ignores_teacher(self):
        rng = np.random.default_rng(66)
        pairs = _random_pairs(rng, count=40)
        other_scores = np.clip(pairs.teacher_scores + 0.02, 0.01, 0.99).astype(np.float32)
        swapped = PairSet(
            pairs.ctx_features, pairs.resp_features, pairs.labels, other_scores
        )
        cfg = DistillConfig(beta=0.0, epochs=5, seed=12)
        a = train_distilled(pairs, None, cfg).encoder
        b = train_distilled(swapped, None, cfg).encoder
        assert a.w_ctx.tobytes() == b.w_ctx.tobytes()

    def test_needs_both_classes(self):
        rng = np.random.default_rng(67)
        pairs = _random_pairs(rng, count=10)
        all_pos = PairSet(
            pairs.ctx_features,
            pairs.resp_features,
            np.ones(10, dtype=np.uint8),
            pairs.teacher_scores,
        )
        with pytest.raises(ValueError, match="positive and one negative"):
            train_distilled(all_pos, None, DistillConfig())

    def test_teacher_scores_outside_open_unit_interval_rejected(self):
        rng = np.random.default_rng(70)
        pairs = _random_pairs(rng, count=10)
        for bad in (np.nan, 0.0, 1.0):
            scores = pairs.teacher_scores.copy()
            scores[4] = bad
            bad_pairs = PairSet(
                pairs.ctx_features, pairs.resp_features, pairs.labels, scores
            )
            with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
                train_distilled(bad_pairs, None, DistillConfig(epochs=1))

    def test_distillation_tracks_teacher_closer(self):
        train_pairs, test_pairs, teacher = gen_pair_data(PairSpec(seed=101))
        gaps = {}
        for beta in (0.0, 1.0):
            enc = train_distilled(
                train_pairs, None, DistillConfig(beta=beta, seed=101)
            ).encoder
            student = pair_scores(enc, test_pairs.ctx_features, test_pairs.resp_features)
            gaps[beta] = float(
                np.mean((student - test_pairs.teacher_scores.astype(np.float64)) ** 2)
            )
        assert gaps[1.0] < gaps[0.0]

    def test_teacher_truth_ranking_instances(self):
        from mipscreen.search import recall_at_1

        _, test_pairs, teacher = gen_pair_data(PairSpec(n_train=10, n_test=60, seed=102))
        pos_ctx = test_pairs.ctx_features[0::2]
        pool = test_pairs.resp_features[0::2]
        instances = ranking_instances_by_teacher(teacher, pos_ctx, pool, 10, seed=5)
        assert len(instances) == pos_ctx.shape[0]
        for inst in instances:
            assert len(inst.distractor_ids) == 9
        # the teacher itself scores perfectly on its own ground truth
        assert recall_at_1(teacher, instances, pos_ctx, pool) == 1.0

    def test_default_width_is_half_the_features_but_at_least_two(self):
        rng = np.random.default_rng(69)
        for f, width in ((2, 2), (3, 2), (12, 6)):
            pairs = _random_pairs(rng, count=8, f=f)
            assert train_distilled(pairs, None, DistillConfig(epochs=1)).encoder.dim == width

    def test_loss_trajectory_recorded(self):
        rng = np.random.default_rng(68)
        pairs = _random_pairs(rng, count=30)
        result = train_distilled(pairs, None, DistillConfig(epochs=7, seed=1))
        assert len(result.epoch_losses) == 7
        assert all(math.isfinite(v) for v in result.epoch_losses)


class TestPlantedTeacher:
    def test_deterministic_and_bounded(self):
        teacher = PlantedTeacher(6, seed=7)
        rng = np.random.default_rng(69)
        c = rng.normal(size=6).astype(np.float32)
        r = rng.normal(size=6).astype(np.float32)
        v1, v2 = teacher(c, r), teacher(c, r)
        assert v1 == v2
        assert 0.0 < v1 < 1.0
        batch = teacher.score_batch(rng.normal(size=(50, 6)), rng.normal(size=(50, 6)))
        assert np.all((batch > 0) & (batch < 1))

    def test_seed_changes_teacher(self):
        a, b = PlantedTeacher(6, seed=1), PlantedTeacher(6, seed=2)
        x = np.ones(6, dtype=np.float32)
        assert a(x, x) != b(x, x)


class TestEncoderPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(70)
        for i in range(25):
            f, d = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            enc = DualEncoder(
                rng.normal(size=(f, d)).astype(np.float32),
                rng.normal(size=(f, d)).astype(np.float32),
            )
            path = tmp_path / f"e{i}.denc"
            save_encoder(enc, path)
            loaded = load_encoder(path)
            assert loaded.w_ctx.tobytes() == enc.w_ctx.tobytes()
            assert loaded.w_resp.tobytes() == enc.w_resp.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.denc"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ValueError, match="bad magic"):
            load_encoder(path)

    def test_truncation_reports_sizes(self, tmp_path):
        rng = np.random.default_rng(71)
        enc = DualEncoder(
            rng.normal(size=(3, 2)).astype(np.float32),
            rng.normal(size=(3, 2)).astype(np.float32),
        )
        path = tmp_path / "cut.denc"
        save_encoder(enc, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match=rf"expected {len(blob)} bytes, found {len(blob) - 5}"):
            load_encoder(path)


class TestBatchedTrainingMatchesPerBatchLoop:
    """train_distilled gathers each epoch once and scores its losses in one
    pass; the per-batch loop in oracles.py gathers and scores every batch
    on its own. Encoders and epoch losses must agree to the bit."""

    @pytest.mark.parametrize(
        "count, f, cfg",
        [
            (150, 12, DistillConfig(epochs=3, seed=3)),  # 300 pairs: the last batch holds 44
            (150, 12, DistillConfig(beta=0.0, epochs=3, batch_size=37, seed=4)),
            (90, 9, DistillConfig(beta=0.5, epochs=2, batch_size=16, dim=5, seed=5)),
            (64, 7, DistillConfig(epochs=1, batch_size=64, seed=6)),  # one epoch, exact batches
            (20, 5, DistillConfig(epochs=4, batch_size=100, dim=3, seed=7)),  # one short batch
        ],
        ids=["remainder", "beta0", "dim", "one-epoch", "batch-over-count"],
    )
    def test_encoder_bytes_and_epoch_losses(self, count, f, cfg):
        pairs = gen_pair_data(PairSpec(n_train=count, n_test=2, n_features=f, seed=cfg.seed))[0]
        result = train_distilled(pairs, None, cfg)
        w_ctx, w_resp, losses = per_batch_distill(
            pairs.ctx_features, pairs.resp_features, pairs.teacher_scores, pairs.labels, cfg
        )
        assert result.encoder.w_ctx.tobytes() == w_ctx.astype(np.float32).tobytes()
        assert result.encoder.w_resp.tobytes() == w_resp.astype(np.float32).tobytes()
        assert result.epoch_losses == losses

    def test_loss_and_gradients_wraps_the_same_step(self):
        rng = np.random.default_rng(70)
        pairs = _random_pairs(rng, count=40, f=6)
        w_ctx, w_resp = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        loss, g_ctx, g_resp = loss_and_gradients(
            w_ctx, w_resp, pairs.ctx_features, pairs.resp_features,
            pairs.teacher_scores, pairs.labels, 0.7,
        )
        ctx, resp = pairs.ctx_features.astype(np.float64), pairs.resp_features.astype(np.float64)
        sc, y = pairs.teacher_scores.astype(np.float64), pairs.labels.astype(np.float64)
        ce, re = ctx @ w_ctx, resp @ w_resp
        s = masked_sigmoid(np.einsum("ij,ij->i", ce, re))
        dq = 2.0 * 0.7 * (s - sc) * s * (1.0 - s) + (s - y)
        np.testing.assert_array_equal(g_ctx, ctx.T @ (dq[:, None] * re) / 40)
        np.testing.assert_array_equal(g_resp, resp.T @ (dq[:, None] * ce) / 40)
        assert loss == pytest.approx(np.mean([kd_loss(a, b, c, 0.7) for a, b, c in zip(s, sc, y)]))


class TestTeacherFavoritesAcrossBlocks:
    """Favorites scored in blocks of contexts equal one teacher call per
    context, with the block small enough that every call crosses blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dst, "_FAVORITE_BLOCK", 3)

    def test_favorites_match_one_call_per_context(self):
        rng = np.random.default_rng(71)
        teacher = PlantedTeacher(6, seed=8)
        for m in (1, 3, 10):  # one block, an exact block, a one-context last block
            contexts = rng.normal(size=(m, 6)).astype(np.float32)
            responses = rng.normal(size=(m, 5, 6)).astype(np.float32)
            np.testing.assert_array_equal(
                teacher_favorites(teacher, contexts, responses),
                favorites_one_by_one(teacher, contexts, responses),
            )

    def test_first_favorite_wins_a_tie(self):
        teacher = PlantedTeacher(4, seed=9)
        responses = np.ones((4, 3, 4), dtype=np.float32)
        assert teacher_favorites(teacher, np.ones((4, 4)), responses).tolist() == [0] * 4

    def test_shape_mismatch_rejected(self):
        teacher = PlantedTeacher(4, seed=9)
        with pytest.raises(ValueError, match="responses"):
            teacher_favorites(teacher, np.ones((3, 4)), np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="responses"):
            teacher_favorites(teacher, np.ones((3, 4)), np.ones((3, 4)))

    def test_pair_split_positives_are_the_per_context_favorites(self, monkeypatch):
        spec = PairSpec(n_train=11, n_test=7, n_features=5, seed=12)
        blocked = gen_pair_data(spec)
        monkeypatch.setattr(dst, "_FAVORITE_BLOCK", 1)  # one teacher call per context
        one_by_one = gen_pair_data(spec)
        for a, b in zip(blocked[:2], one_by_one[:2]):
            for field in ("ctx_features", "resp_features", "labels", "teacher_scores"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_ranking_instances_match_per_context_draws(self):
        _, test_pairs, teacher = gen_pair_data(PairSpec(n_train=4, n_test=10, seed=13))
        contexts, pool = test_pairs.ctx_features[0::2], test_pairs.resp_features[0::2]
        got = ranking_instances_by_teacher(teacher, contexts, pool, 4, seed=6)
        want = teacher_ranking_one_by_one(teacher, contexts, pool, 4, seed=6)
        assert [(i.context_id, i.ground_truth_id, i.distractor_ids) for i in got] == want
