import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from camloc import class_map, complement, normalize_minmax, threshold_erase

finite_maps = arrays(
    np.float32,
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(-100, 100, width=32),
)


class TestClassMap:
    def test_selects_channel_unchanged(self):
        maps = np.stack([np.zeros((3, 3)), np.full((3, 3), 3.0)]).astype(np.float32)
        out = class_map(maps, 1)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.full((3, 3), 3.0))

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
        assert class_map(maps, 0).shape == (5, 7)

    def test_returns_copy(self):
        maps = np.zeros((2, 2, 2), dtype=np.float32)
        out = class_map(maps, 0)
        out[0, 0] = 9.0
        assert maps[0, 0, 0] == 0.0


class TestNormalizeMinmax:
    def test_two_values(self):
        out = normalize_minmax(np.array([[1.0, 3.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])
        assert out.dtype == np.float32

    def test_constant_map_degenerates_to_zero(self):
        out = normalize_minmax(np.full((3, 3), 7.0, dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_three_values(self):
        out = normalize_minmax(np.array([[0.0, 5.0, 10.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])

    def test_non_finite_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax(np.array([[np.nan, 1.0]], dtype=np.float32))
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax(np.array([[np.inf, 1.0]], dtype=np.float32))

    def test_stack_normalizes_map_by_map(self):
        rng = np.random.default_rng(14)
        stack = rng.normal(size=(2, 3, 5, 6)).astype(np.float32) * 10
        stack[1, 2] = 4.0  # one constant map among them
        out = normalize_minmax(stack)
        assert out.dtype == np.float32 and out.shape == stack.shape
        np.testing.assert_array_equal(out[1, 2], np.zeros((5, 6)))
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[index], normalize_minmax(stack[index]))

    def test_non_finite_in_stack_errors(self):
        stack = np.zeros((3, 4, 4), dtype=np.float32)
        stack[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            normalize_minmax(stack)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_nan_or_negative_inf_in_last_map_errors(self, bad):
        # with the +inf case above: the check reads each map's min and max,
        # so every kind of bad value must surface there, in any map
        stack = np.random.default_rng(5).normal(size=(2, 3, 4, 4)).astype(np.float32)
        stack[-1, -1, 3, 2] = bad
        with pytest.raises(ValueError, match="^cannot normalize a map containing non-finite values$"):
            normalize_minmax(stack)

    @given(finite_maps)
    @settings(max_examples=50, deadline=None)
    def test_idempotent_unless_degenerate(self, values):
        once = normalize_minmax(values)
        if once.max() == once.min():
            return
        twice = normalize_minmax(once)
        np.testing.assert_allclose(twice, once, atol=1e-7)

    @given(finite_maps)
    @settings(max_examples=50, deadline=None)
    def test_range(self, values):
        out = normalize_minmax(values)
        assert out.min() >= 0.0
        assert out.max() <= 1.0


class TestComplement:
    def test_pointwise(self):
        m = np.array([[0.0, 0.3, 1.0]], dtype=np.float32)
        np.testing.assert_allclose(complement(m), [[1.0, 0.7, 0.0]], atol=1e-7)

    def test_involution(self):
        rng = np.random.default_rng(0)
        m = normalize_minmax(rng.uniform(size=(6, 6)).astype(np.float32))
        np.testing.assert_allclose(complement(complement(m)), m, atol=1e-7)

    def test_zero_map_becomes_ones(self):
        m = np.zeros((2, 2), dtype=np.float32)
        np.testing.assert_array_equal(complement(m), np.ones((2, 2)))

    def test_requires_normalized(self):
        for values in ([[0.0, 3.0]], [[-0.5, 0.5]], [[np.nan, 0.5]]):
            with pytest.raises(ValueError, match=r"normalized map, with every value in \[0, 1\]"):
                complement(np.array(values, dtype=np.float32))

    @given(finite_maps)
    @settings(max_examples=50, deadline=None)
    def test_preserves_unit_range(self, values):
        out = complement(normalize_minmax(values))
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_argmax_becomes_argmin(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = normalize_minmax(rng.uniform(size=(5, 7)).astype(np.float32))
            c = complement(m)
            assert np.argmax(m) == np.argmin(c)


class TestThresholdErase:
    def test_basic(self):
        m = np.array([[0.2, 0.8]], dtype=np.float32)
        np.testing.assert_array_equal(threshold_erase(m, 0.5), [[1.0, 0.0]])

    def test_near_one_erases_only_top(self):
        m = np.array([[0.0, 0.5, 0.999, 1.0]], dtype=np.float32)
        out = threshold_erase(m, 0.9995)
        np.testing.assert_array_equal(out, [[1.0, 1.0, 1.0, 0.0]])

    def test_erases_at_equality(self):
        m = np.array([[0.6]], dtype=np.float32)
        assert threshold_erase(m, 0.6)[0, 0] == 0.0

    @given(finite_maps, st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_binary_and_matches_step_function(self, values, delta):
        m = normalize_minmax(values)
        out = threshold_erase(m, delta)
        assert set(np.unique(out)) <= {0.0, 1.0}
        np.testing.assert_array_equal(out, np.where(m >= delta, 0.0, 1.0))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_delta_out_of_range(self, delta):
        m = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            threshold_erase(m, delta)

    def test_requires_normalized(self):
        for values in ([[0.0, 3.0]], [[-0.5, 0.5]], [[np.nan, 0.5]]):
            with pytest.raises(ValueError, match=r"normalized map, with every value in \[0, 1\]"):
                threshold_erase(np.array(values, dtype=np.float32), 0.5)
