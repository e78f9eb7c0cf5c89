import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from camloc import CamMap, class_map, complement, normalize_minmax, threshold_erase

finite_maps = arrays(
    np.float32,
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(-100, 100, width=32),
)


class TestClassMap:
    def test_selects_channel_unchanged(self):
        maps = np.stack([np.zeros((3, 3)), np.full((3, 3), 3.0)]).astype(np.float32)
        out = class_map(maps, 1)
        assert not out.normalized
        np.testing.assert_array_equal(out.values, np.full((3, 3), 3.0))

    def test_out_of_range_errors(self):
        maps = np.zeros((2, 3, 3), dtype=np.float32)
        with pytest.raises(IndexError):
            class_map(maps, 2)
        with pytest.raises(IndexError):
            class_map(maps, -1)

    def test_rank_errors(self):
        with pytest.raises(ValueError, match=r"\(C,h,w\)"):
            class_map(np.zeros((3, 3), dtype=np.float32), 0)

    def test_output_shape(self):
        maps = np.zeros((4, 5, 7), dtype=np.float32)
        assert class_map(maps, 0).values.shape == (5, 7)

    def test_returns_copy(self):
        maps = np.zeros((2, 2, 2), dtype=np.float32)
        out = class_map(maps, 0)
        out.values[0, 0] = 9.0
        assert maps[0, 0, 0] == 0.0


class TestNormalizeMinmax:
    def test_two_values(self):
        out = normalize_minmax(np.array([[1.0, 3.0]], dtype=np.float32))
        np.testing.assert_array_equal(out.values, [[0.0, 1.0]])
        assert out.normalized

    def test_constant_map_degenerates_to_zero(self):
        out = normalize_minmax(np.full((3, 3), 7.0, dtype=np.float32))
        np.testing.assert_array_equal(out.values, np.zeros((3, 3)))

    def test_three_values(self):
        out = normalize_minmax(np.array([[0.0, 5.0, 10.0]], dtype=np.float32))
        np.testing.assert_allclose(out.values, [[0.0, 0.5, 1.0]])

    def test_non_finite_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax(np.array([[np.nan, 1.0]], dtype=np.float32))
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax(np.array([[np.inf, 1.0]], dtype=np.float32))

    def test_stack_normalizes_map_by_map(self):
        rng = np.random.default_rng(14)
        stack = rng.normal(size=(2, 3, 5, 6)).astype(np.float32) * 10
        stack[1, 2] = 4.0  # one constant map among them
        out = normalize_minmax(stack).values
        assert out.dtype == np.float32 and out.shape == stack.shape
        np.testing.assert_array_equal(out[1, 2], np.zeros((5, 6)))
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[index], normalize_minmax(stack[index]).values)

    def test_non_finite_in_stack_errors(self):
        stack = np.zeros((3, 4, 4), dtype=np.float32)
        stack[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax(stack)

    @given(finite_maps)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_unless_degenerate(self, values):
        once = normalize_minmax(values)
        if once.values.max() == once.values.min():
            return
        twice = normalize_minmax(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-7)

    @given(finite_maps)
    @settings(max_examples=50, deadline=None)
    def test_range(self, values):
        out = normalize_minmax(values).values
        assert out.min() >= 0.0
        assert out.max() <= 1.0


class TestComplement:
    def test_pointwise(self):
        m = CamMap(np.array([[0.0, 0.3, 1.0]], dtype=np.float32), normalized=True)
        np.testing.assert_allclose(complement(m).values, [[1.0, 0.7, 0.0]], atol=1e-7)

    def test_involution(self):
        rng = np.random.default_rng(0)
        m = normalize_minmax(rng.uniform(size=(6, 6)).astype(np.float32))
        np.testing.assert_allclose(complement(complement(m)).values, m.values, atol=1e-7)

    def test_zero_map_becomes_ones(self):
        m = CamMap(np.zeros((2, 2), dtype=np.float32), normalized=True)
        np.testing.assert_array_equal(complement(m).values, np.ones((2, 2)))

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            complement(CamMap(np.zeros((2, 2), dtype=np.float32), normalized=False))

    @given(finite_maps)
    @settings(max_examples=50, deadline=None)
    def test_preserves_unit_range(self, values):
        out = complement(normalize_minmax(values)).values
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_argmax_becomes_argmin(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = normalize_minmax(rng.uniform(size=(5, 7)).astype(np.float32))
            c = complement(m)
            assert np.argmax(m.values) == np.argmin(c.values)


class TestThresholdErase:
    def test_basic(self):
        m = CamMap(np.array([[0.2, 0.8]], dtype=np.float32), normalized=True)
        np.testing.assert_array_equal(threshold_erase(m, 0.5).values, [[1.0, 0.0]])

    def test_near_one_erases_only_top(self):
        values = np.array([[0.0, 0.5, 0.999, 1.0]], dtype=np.float32)
        m = CamMap(values, normalized=True)
        out = threshold_erase(m, 0.9995).values
        np.testing.assert_array_equal(out, [[1.0, 1.0, 1.0, 0.0]])

    def test_erases_at_equality(self):
        m = CamMap(np.array([[0.6]], dtype=np.float32), normalized=True)
        assert threshold_erase(m, 0.6).values[0, 0] == 0.0

    @given(finite_maps, st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_binary_and_matches_step_function(self, values, delta):
        m = normalize_minmax(values)
        out = threshold_erase(m, delta).values
        assert set(np.unique(out)) <= {0.0, 1.0}
        np.testing.assert_array_equal(out, np.where(m.values >= delta, 0.0, 1.0))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_delta_out_of_range(self, delta):
        m = CamMap(np.zeros((2, 2), dtype=np.float32), normalized=True)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            threshold_erase(m, delta)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            threshold_erase(CamMap(np.zeros((2, 2), dtype=np.float32)), 0.5)
