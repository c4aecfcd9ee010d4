"""Persistence formats, the counter RNG, and the synthetic generators."""

import hashlib
import struct

import numpy as np
import pytest

from mipscreen.data import (
    _CHUNK,
    _uniform_tags,
    PairSpec,
    SyntheticSpec,
    build_labels,
    gen_pair_data,
    gen_synthetic,
    mix_seed,
    random_normals,
    random_uniform,
    read_embeddings,
    read_labels,
    read_pairs,
    write_embeddings,
    write_labels,
    write_pairs,
)
from mipscreen.search import exact_argmax
from oracles import naive_argmax
from oracles import random_normals as whole_array_normals
from oracles import random_uniform as whole_array_uniform


class TestCounterRng:
    def test_deterministic(self):
        assert np.array_equal(random_normals(7, 1000), random_normals(7, 1000))
        assert np.array_equal(random_uniform(7, 1000), random_uniform(7, 1000))

    def test_streams_differ(self):
        assert not np.array_equal(random_normals(1, 100), random_normals(2, 100))
        assert mix_seed(1, 1) != mix_seed(1, 2) != mix_seed(2, 1)

    def test_prefix_stability(self):
        long = random_normals(3, 1000)
        short = random_normals(3, 400)
        np.testing.assert_array_equal(long[:400], short)

    def test_moments(self):
        x = random_normals(42, 200000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01
        u = random_uniform(42, 200000)
        assert np.all((u > 0) & (u <= 1))
        assert abs(u.mean() - 0.5) < 0.005

    # counts at and around the stream's buffer length, as uniforms and as
    # Box-Muller pairs; seed 2**64 - 1 makes the counters wrap
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                       2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1,
                                       2 * _CHUNK + 2, 4 * _CHUNK + 1, 100001])
    def test_stream_equals_the_whole_array_draws(self, seed, count):
        for ours, theirs in ((random_uniform, whole_array_uniform),
                             (random_normals, whole_array_normals)):
            got, want = ours(seed, count), theirs(seed, count)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_integer_draws_match_pinned_digests(self):
        # integer operations and an exact scaling only: these bytes are the
        # same on every platform and numpy version
        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        uniforms = {
            0: "574775a2e0bb61dce01479fad45a13661fe621ab16b3edd401a337f3edbc2f83",
            42: "653fbc9a1fdc5dda43d6376b7d40a48d1fec0cc10af95a6bce5c39288d8cdce3",
            2**64 - 1: "3ed59e74a267ad349c47f333e4e07b28344f0376e610fb63c9e69dde5f1d7e9b",
        }
        for seed, want in uniforms.items():
            assert digest(random_uniform(seed, 100001)) == want
        seeds, streams = [0, 1, 42, 7, 2**63, 2**64 - 1], [0, 1, 2, 14, 0x5EED, 2**32 + 5, 2**64 - 1]
        mixed = np.array([mix_seed(a, b) for a in seeds for b in streams], dtype=np.uint64)
        assert digest(mixed) == "38341d227183d373a39707f1995502fd1c6acc1c8dd28b70c28a6260267963cd"
        tags = {
            (0, 5000, 20): "dc109b925280486e8725a2f0e9f3985c6fef02c153c68c8ecd7d11a74a38b14f",
            (2**64 - 1, 4000, 50): "7665b0ee281725415cbbe1d76e1e6596f220acb32f50894012b53ea1d916dcb5",
            (42, 100001, 7): "57ac83e6fc500dc66ded7594c67d2eac4b10d0078a2b59cbb0729d6f38adc7ff",
        }
        for args, want in tags.items():
            assert digest(_uniform_tags(*args)) == want


class TestEmbeddingsIO:
    def test_small_round_trip_bitwise(self, tmp_path):
        m = np.array([[1.5, -2.25], [0.0, 3.125], [7.0, -0.5]], dtype=np.float32)
        path = tmp_path / "m.emb"
        write_embeddings(m, path)
        got = read_embeddings(path)
        assert got.tobytes() == m.tobytes()
        assert got.shape == m.shape

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(80)
        for i in range(50):
            m = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 20))))
            m = m.astype(np.float32)
            path = tmp_path / f"r{i}.emb"
            write_embeddings(m, path)
            assert read_embeddings(path).tobytes() == m.tobytes()

    def test_truncation_names_sizes(self, tmp_path):
        path = tmp_path / "cut.emb"
        write_embeddings(np.ones((4, 3), dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(ValueError, match=rf"expected {len(blob)} bytes, found {len(blob) - 7}"):
            read_embeddings(path)

    def test_trailing_byte_and_oversized_header_name_sizes(self, tmp_path):
        path = tmp_path / "long.emb"
        write_embeddings(np.ones((4, 3), dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match=rf"expected {len(blob)} bytes, found {len(blob) + 1}"):
            read_embeddings(path)
        # the size check runs before any payload is allocated
        path.write_bytes(blob[:5] + struct.pack("<II", 2**31, 2**31) + blob[13:])
        with pytest.raises(ValueError, match=rf"expected {13 + 4 * 2**62} bytes, found {len(blob)}"):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"JUNK" + bytes(20))
        with pytest.raises(ValueError, match="bad magic"):
            read_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.emb"
        write_embeddings(np.ones((1, 1), dtype=np.float32), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            read_embeddings(path)

    def test_empty_matrix_writes_but_search_rejects(self, tmp_path):
        path = tmp_path / "empty.emb"
        write_embeddings(np.zeros((0, 4), dtype=np.float32), path)
        got = read_embeddings(path)
        assert got.shape == (0, 4)
        with pytest.raises(ValueError, match="empty"):
            exact_argmax(np.ones(4, dtype=np.float32), got)

    def test_non_finite_rejected_on_write(self, tmp_path):
        bad = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            write_embeddings(bad, tmp_path / "nan.emb")

    def test_zero_dimension_rejected_on_read_and_write(self, tmp_path):
        path = tmp_path / "flat.emb"
        with pytest.raises(ValueError, match="^embedding dimension must be >= 1$"):
            write_embeddings(np.zeros((3, 0), dtype=np.float32), path)
        assert not path.exists()
        path.write_bytes(b"EMB1" + bytes([1]) + struct.pack("<II", 3, 0))
        with pytest.raises(ValueError, match="^embedding dimension must be >= 1$"):
            read_embeddings(path)


class TestFormatLayouts:
    """The on-disk layouts are frozen; build expected blobs by hand."""

    def test_emb1_exact_bytes(self, tmp_path):
        import struct

        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "g.emb"
        write_embeddings(m, path)
        expected = (
            b"EMB1" + bytes([1]) + struct.pack("<II", 2, 2)
            + struct.pack("<ffff", 1.0, 2.0, 3.0, 4.0)
        )
        assert path.read_bytes() == expected

    def test_scrn_exact_bytes(self, tmp_path):
        import struct

        from mipscreen.screening import ScreeningModel, save_model

        bits = np.array([[1, 0, 1, 0, 1, 0, 1, 0, 1]], dtype=np.uint8)
        model = ScreeningModel(
            np.array([[1.5, -2.0]], dtype=np.float32),
            np.packbits(bits, axis=1, bitorder="little"),
            0.5,
            9,
        )
        path = tmp_path / "g.scrn"
        save_model(model, path)
        expected = (
            b"SCRN" + bytes([1]) + struct.pack("<III", 1, 9, 2)
            + struct.pack("<d", 0.5) + struct.pack("<ff", 1.5, -2.0)
            + bytes([0b01010101, 0b00000001])
        )
        assert path.read_bytes() == expected

    def test_denc_exact_bytes(self, tmp_path):
        import struct

        from mipscreen.distill import DualEncoder, save_encoder

        enc = DualEncoder(
            np.array([[1.0, 2.0]], dtype=np.float32),
            np.array([[3.0, 4.0]], dtype=np.float32),
        )
        path = tmp_path / "g.denc"
        save_encoder(enc, path)
        expected = (
            b"DENC" + bytes([1]) + struct.pack("<II", 1, 2)
            + struct.pack("<ff", 1.0, 2.0) + struct.pack("<ff", 3.0, 4.0)
        )
        assert path.read_bytes() == expected


class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 5, 2, 917, 3], dtype=np.int64)
        path = tmp_path / "labels.txt"
        write_labels(labels, path)
        np.testing.assert_array_equal(read_labels(path), labels)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("3\n-1\n")
        with pytest.raises(ValueError, match="non-negative"):
            read_labels(path)


class TestGenSynthetic:
    def test_deterministic_bitwise(self):
        spec = SyntheticSpec(m_train=50, m_test=20, n_candidates=30, dim=6, topics=5, seed=3)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        for field in ("train_contexts", "test_contexts", "candidates"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        np.testing.assert_array_equal(a.train_topics, b.train_topics)

    def test_noiseless_saturated_topics(self):
        spec = SyntheticSpec(
            m_train=40, m_test=10, n_candidates=12, dim=8, topics=12,
            noise_sigma=0.0, seed=4,
        )
        syn = gen_synthetic(spec)
        labels = build_labels(syn.train_contexts, syn.candidates)
        np.testing.assert_array_equal(labels, syn.train_topics)

    def test_default_spec_topic_fidelity(self):
        syn = gen_synthetic(SyntheticSpec())
        labels = build_labels(syn.train_contexts, syn.candidates)
        agreement = np.mean(syn.candidate_topics[labels] == syn.train_topics)
        assert agreement >= 0.90

    def test_finite_for_a_range_of_sigmas(self):
        for sigma in (0.0, 0.1, 1.0, 5.0):
            spec = SyntheticSpec(
                m_train=20, m_test=5, n_candidates=10, dim=4, topics=3,
                noise_sigma=sigma, seed=5,
            )
            syn = gen_synthetic(spec)
            for field in ("train_contexts", "test_contexts", "candidates"):
                assert np.all(np.isfinite(getattr(syn, field)))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_candidates=5, topics=10)
        with pytest.raises(ValueError):
            SyntheticSpec(m_train=5, topics=10)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sigma=-0.1)


class TestBuildLabels:
    def test_self_match_for_unit_rows(self):
        rng = np.random.default_rng(81)
        rows = rng.normal(size=(15, 5))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows.astype(np.float32)
        np.testing.assert_array_equal(build_labels(rows, rows), np.arange(15))

    def test_single_candidate(self):
        rng = np.random.default_rng(82)
        contexts = rng.normal(size=(8, 3)).astype(np.float32)
        candidate = rng.normal(size=(1, 3)).astype(np.float32)
        np.testing.assert_array_equal(build_labels(contexts, candidate), 0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            d = int(rng.integers(1, 10))
            contexts = rng.normal(size=(int(rng.integers(1, 8)), d)).astype(np.float32)
            candidates = rng.normal(size=(int(rng.integers(1, 30)), d)).astype(np.float32)
            got = build_labels(contexts, candidates)
            for i, c in enumerate(contexts):
                assert got[i] == naive_argmax(c, candidates)[0]


class TestPairData:
    def test_deterministic_and_balanced(self):
        spec = PairSpec(n_train=30, n_test=10, seed=6)
        a_train, a_test, _ = gen_pair_data(spec)
        b_train, _, _ = gen_pair_data(spec)
        assert a_train.ctx_features.tobytes() == b_train.ctx_features.tobytes()
        assert a_train.labels.sum() * 2 == len(a_train)  # 1:1 after swaps
        assert a_test.teacher_scores is not None
        assert np.all((a_test.teacher_scores > 0) & (a_test.teacher_scores < 1))

    def test_positives_score_higher_with_teacher(self):
        _, test_pairs, _ = gen_pair_data(PairSpec(n_train=10, n_test=200, label_flip=0.0, seed=7))
        pos = test_pairs.teacher_scores[test_pairs.labels == 1]
        neg = test_pairs.teacher_scores[test_pairs.labels == 0]
        assert pos.mean() > neg.mean()

    def test_round_trip_bitwise(self, tmp_path):
        train_pairs, _, _ = gen_pair_data(PairSpec(n_train=20, n_test=5, seed=8))
        path = tmp_path / "p.pair"
        write_pairs(train_pairs, path)
        got = read_pairs(path)
        assert got.ctx_features.tobytes() == train_pairs.ctx_features.tobytes()
        assert got.resp_features.tobytes() == train_pairs.resp_features.tobytes()
        assert got.teacher_scores.tobytes() == train_pairs.teacher_scores.tobytes()
        assert got.labels.tobytes() == train_pairs.labels.tobytes()

    def test_truncation_names_sizes(self, tmp_path):
        train_pairs, _, _ = gen_pair_data(PairSpec(n_train=5, n_test=5, seed=9))
        path = tmp_path / "cut.pair"
        write_pairs(train_pairs, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-2])
        with pytest.raises(ValueError, match=rf"expected {len(blob)} bytes, found {len(blob) - 2}"):
            read_pairs(path)

    def test_non_finite_rejected_on_read(self, tmp_path):
        from mipscreen.distill import PairSet

        pairs, _, _ = gen_pair_data(PairSpec(n_train=5, n_test=5, seed=9))
        fields = ["ctx_features", "resp_features", "labels", "teacher_scores"]
        for name in ("ctx_features", "resp_features", "teacher_scores"):
            arrays = {f: getattr(pairs, f).copy() for f in fields}
            arrays[name].flat[3] = np.nan
            path = tmp_path / f"{name}.pair"
            write_pairs(PairSet(*(arrays[f] for f in fields)), path)
            with pytest.raises(ValueError, match="non-finite"):
                read_pairs(path)

    def test_write_requires_cached_scores(self):
        """A pair set always carries teacher scores, so `write_pairs` has
        none to refuse: the constructor does."""
        from mipscreen.distill import PairSet

        with pytest.raises(TypeError, match="teacher_scores"):
            PairSet(
                np.ones((2, 3), dtype=np.float32),
                np.ones((2, 3), dtype=np.float32),
                np.array([1, 0], dtype=np.uint8),
            )
