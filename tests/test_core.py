"""Vector primitive behavior, including the hand-computed score cases."""

import math

import numpy as np
import pytest

from mipscreen.core import (
    check_finite,
    inner_product,
    l2_normalize,
    normalize_rows,
    score_dual,
    sigmoid,
    sigmoid_array,
    write_container,
)
from mipscreen.data import PairSpec, gen_pair_data, read_embeddings, read_pairs, write_pairs
from mipscreen.distill import PairSet
from oracles import masked_sigmoid


class TestInnerProduct:
    def test_hand_case(self):
        assert inner_product([1, 2, 3], [4, 5, 6]) == 32.0

    def test_zero_vector_annihilates(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=8)
        assert inner_product(v, np.zeros(8)) == 0.0

    def test_unit_basis(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert inner_product(e1, e1) == 1.0

    def test_accumulates_in_float64(self):
        # float32 accumulation would lose 2**-30 against 1 and return 0
        assert inner_product([1.0, 2.0**-30, -1.0], [1.0, 1.0, 1.0]) == 2.0**-30

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 40))
            u = rng.normal(size=d).astype(np.float32)
            v = rng.normal(size=d).astype(np.float32)
            assert inner_product(u, v) == inner_product(v, u)

    def test_bilinear_within_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 30))
            u = rng.normal(size=d).astype(np.float32)
            v = rng.normal(size=d).astype(np.float32)
            a = float(rng.uniform(-3, 3))
            lhs = inner_product(np.float32(a) * u, v)
            rhs = a * inner_product(u, v)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_product([1, 2], [1, 2, 3])


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_hand_case(self):
        assert sigmoid(math.log(4)) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-40, 40, size=1000):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_monotone(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-30, 30, size=(10000, 2))
        for a, b in xs:
            lo, hi = min(a, b), max(a, b)
            if lo < hi:
                assert sigmoid(lo) < sigmoid(hi)

    def test_no_overflow_at_extremes(self):
        for x in (-1e3, -50.0, 50.0, 1e3):
            v = sigmoid(x)
            assert math.isfinite(v)
            assert 0.0 <= v <= 1.0

    def test_array_matches_scalar(self):
        xs = np.array([-700.0, -5.0, 0.0, 3.0, 700.0])
        np.testing.assert_array_equal(sigmoid_array(xs), [sigmoid(x) for x in xs])

    def test_array_within_two_ulps_of_scalar(self):
        # math.exp and np.exp round differently, so exact equality holds
        # only at some points; 2 ulps is the largest gap over 300k draws
        xs = np.random.default_rng(5).normal(0.0, 20.0, 100_000)
        scalar = np.array([sigmoid(x) for x in xs])
        vector = sigmoid_array(xs)
        gap = np.abs(scalar - vector)
        assert (gap <= 2 * np.spacing(np.maximum(scalar, vector))).all()

    def test_array_is_bitwise_the_masked_form(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                 745.2, -745.2, 709.8, -709.8, 36.8, -36.8, 1e308, -1e308]
        xs = np.concatenate([np.random.default_rng(3).normal(0.0, 12.0, 1_100_000), edges])
        got, want = sigmoid_array(xs), masked_sigmoid(xs)
        assert got.tobytes() == want.tobytes()
        assert sigmoid_array(-0.0) == 0.5 and sigmoid_array(-745.2) == 0.0


class TestScoreDual:
    def test_orthogonal_gives_half(self):
        assert score_dual([1.0, 0.0], [0.0, 2.0]) == 0.5

    def test_hand_case(self):
        # sigmoid(2 * ln 2) = 4/5
        assert score_dual([2.0, 0.0], [math.log(2), 0.0]) == pytest.approx(0.8, abs=1e-7)

    def test_stays_positive_for_large_negative_scores(self):
        v = score_dual([1.0], [-50.0])
        assert 0.0 < v < 1e-20

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score_dual([1.0, 2.0], [1.0])


class TestL2Normalize:
    def test_hand_case(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-7)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.normal(size=int(rng.integers(1, 20))).astype(np.float32)
            if np.linalg.norm(v) == 0:
                continue
            once = l2_normalize(v)
            twice = l2_normalize(once)
            np.testing.assert_allclose(twice, once, atol=1e-6)
            assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            l2_normalize([0.0, 0.0])

    def test_normalize_rows_rejects_zero_row(self):
        with pytest.raises(ValueError, match="zero row 1"):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))


class TestCheckFinite:
    """One dot product clears a finite float array; the entries decide
    otherwise, with the same message."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 17, 34])
    def test_non_finite_entry_raises(self, dtype, value, position):
        arr = np.ones((5, 7), dtype=dtype)
        arr.flat[position] = value
        with pytest.raises(ValueError, match="^x contains non-finite entries$"):
            check_finite(arr, "x")

    @pytest.mark.parametrize("dtype, value", [(np.float32, 3e19), (np.float64, 1e200)])
    def test_overflowing_squares_pass(self, dtype, value):
        arr = np.full((4, 3), value, dtype=dtype)
        arr[1, 2] = -value
        assert not np.isfinite(np.vdot(arr, arr))
        assert check_finite(arr, "x") is arr

    def test_finite_array_is_returned(self):
        arr = np.random.default_rng(0).normal(size=(6, 5)).astype(np.float32)
        assert check_finite(arr) is arr

    def test_non_contiguous_views(self):
        arr = np.ones((4, 6), dtype=np.float32)
        arr[2, 1] = np.nan
        skipped = arr[:, ::2]  # leaves the NaN out
        assert check_finite(skipped, "x") is skipped
        for view in (arr[:, 1::2], arr.T, arr[::-1]):
            with pytest.raises(ValueError, match="^x contains non-finite entries$"):
                check_finite(view, "x")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_empty_array_passes(self, dtype):
        arr = np.empty((0, 3), dtype=dtype)
        assert check_finite(arr) is arr

    def test_integer_array_passes(self):
        arr = np.array([[np.iinfo(np.int64).max, -1], [0, 7]])
        assert check_finite(arr) is arr

    def test_reader_messages(self, tmp_path):
        path = tmp_path / "nan.emb"
        write_container(path, b"EMB1", "<II", (2, 3),
                        [np.array([[1, 2, 3], [4, np.inf, 6]], dtype="<f4")])
        with pytest.raises(ValueError, match="^embedding matrix contains non-finite entries$"):
            read_embeddings(path)
        pairs, _, _ = gen_pair_data(PairSpec(n_train=5, n_test=5, seed=9))
        fields = ["ctx_features", "resp_features", "labels", "teacher_scores"]
        for name, label in (("ctx_features", "context features"),
                            ("resp_features", "response features"),
                            ("teacher_scores", "teacher scores")):
            arrays = {f: getattr(pairs, f).copy() for f in fields}
            arrays[name].flat[-1] = np.nan
            path = tmp_path / f"{name}.pair"
            write_pairs(PairSet(*(arrays[f] for f in fields)), path)
            with pytest.raises(ValueError, match=f"^{label} contains non-finite entries$"):
                read_pairs(path)
