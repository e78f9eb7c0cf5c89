import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from camloc import (
    FusionConfig,
    activity_map,
    block_average,
    fuse_l1norm,
    fusion_weights,
    localization_map,
    normalize_minmax,
)
from camloc.fusion import localization_maps

import oracles


def fuse(strategy, a, b):
    """``localization_map`` of two one-class (h,w) maps under max or addition."""
    sa, sb = (np.asarray(m, dtype=np.float32)[None] for m in (a, b))
    return localization_map(sa, sb, 0, FusionConfig(strategy))


class TestFuseMax:
    def test_pointwise(self):
        # maps spanning exactly [0, 1] are their own min-max normalization
        out = fuse("max", [[0.0, 0.1, 1.0]], [[1.0, 0.5, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 0.5, 1.0]])

    def test_idempotent(self):
        m = np.random.default_rng(0).uniform(size=(3, 3))
        np.testing.assert_array_equal(fuse("max", m, m), normalize_minmax(m).values)

    def test_commutative(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4))
        np.testing.assert_array_equal(fuse("max", a, b), fuse("max", b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fuse("max", np.zeros((2, 2)), np.zeros((3, 2)))


class TestFuseAddition:
    def test_constants(self):
        out = fuse("addition", [[0.0, 0.2, 0.2, 1.0]], [[0.0, 0.5, 0.5, 1.0]])
        np.testing.assert_allclose(out, [[0.0, 0.7, 0.7, 2.0]])

    def test_zero_identity(self):
        # an all-zero map normalizes to all zeros
        a = np.random.default_rng(2).uniform(size=(3, 3))
        np.testing.assert_array_equal(fuse("addition", a, np.zeros((3, 3))), normalize_minmax(a).values)

    def test_commutative(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4))
        np.testing.assert_array_equal(fuse("addition", a, b), fuse("addition", b, a))


class TestActivityMap:
    def test_mixed_signs(self):
        maps = np.stack([np.full((2, 2), 1.0), np.full((2, 2), -1.0)]).astype(np.float32)
        np.testing.assert_allclose(activity_map(maps), np.full((2, 2), 2.0))

    def test_zero(self):
        np.testing.assert_array_equal(activity_map(np.zeros((3, 2, 2), dtype=np.float32)), np.zeros((2, 2)))

    def test_sum_of_magnitudes(self):
        maps = np.array([[[1.0]], [[-2.0]], [[0.5]]], dtype=np.float32)
        assert activity_map(maps)[0, 0] == pytest.approx(3.5)


class TestBlockAverage:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(size=(5, 5)).astype(np.float32)
        np.testing.assert_array_equal(block_average(m, 0), m)

    def test_hand_values_all_ones_3x3(self):
        out = block_average(np.ones((3, 3), dtype=np.float32), 1)
        assert out[1, 1] == np.float32(1.0)
        corner = np.float32(4.0) / np.float32(9.0)
        edge = np.float32(6.0) / np.float32(9.0)
        for y, x in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[y, x] == corner
        for y, x in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert out[y, x] == edge

    def test_interior_of_constant_map(self):
        out = block_average(np.full((5, 5), 3.0, dtype=np.float32), 1)
        np.testing.assert_allclose(out[1:-1, 1:-1], np.full((3, 3), 3.0), atol=1e-6)

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_matches_double_loop_oracle(self, radius):
        rng = np.random.default_rng(100 + radius)
        for _ in range(10):
            m = rng.uniform(size=(6, 7)).astype(np.float32)
            ref = oracles.block_average_ref(m, radius)
            np.testing.assert_allclose(block_average(m, radius), ref, atol=1e-6)

    @pytest.mark.parametrize("shape", [(8, 8), (2, 3, 5)])
    @pytest.mark.parametrize("radius", [0, 1, 7, 8, 20])
    def test_bit_for_bit_equal_to_every_offset_loop(self, shape, radius):
        # offsets that miss the map only added +0.0; -0.0 and infinities among
        # the values keep every bit, radii past the map size included
        rng = np.random.default_rng(radius)
        m = rng.normal(size=shape).astype(np.float32)
        m[rng.uniform(size=shape) < 0.2] = -0.0
        m.flat[0] = np.inf
        expected = oracles.block_average_every_offset(m, radius)
        np.testing.assert_array_equal(block_average(m, radius).view(np.uint32), expected.view(np.uint32))

    def test_huge_radius_is_fast(self):
        m = np.random.default_rng(0).uniform(size=(20, 8, 8)).astype(np.float32)
        start = time.perf_counter()
        out = block_average(m, 10**6)
        assert time.perf_counter() - start < 1.0
        expected = m.sum(axis=(1, 2), dtype=np.float64)[:, None, None] / (2 * 10**6 + 1) ** 2
        np.testing.assert_allclose(out, np.broadcast_to(expected, m.shape), rtol=1e-6)

    def test_negative_radius_errors(self):
        with pytest.raises(ValueError, match=">= 0"):
            block_average(np.zeros((2, 2), dtype=np.float32), -1)


class TestFusionWeights:
    def test_equal_activities_split_evenly(self):
        m = np.full((3, 3), 2.0, dtype=np.float32)
        wa, wb = fusion_weights(m, m)
        np.testing.assert_allclose(wa, np.full((3, 3), 0.5))
        np.testing.assert_allclose(wb, np.full((3, 3), 0.5))

    def test_three_to_one_ratio(self):
        wa, wb = fusion_weights(np.array([[3.0]], dtype=np.float32), np.array([[1.0]], dtype=np.float32))
        assert wa[0, 0] == pytest.approx(0.75)
        assert wb[0, 0] == pytest.approx(0.25)

    def test_zero_denominator_convention(self):
        wa, wb = fusion_weights(np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2), dtype=np.float32))
        np.testing.assert_array_equal(wa, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(wb, np.full((2, 2), 0.5))

    def test_negative_input_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            fusion_weights(np.array([[-1.0]], dtype=np.float32), np.array([[1.0]], dtype=np.float32))

    @given(
        arrays(np.float32, (4, 4), elements=st.floats(0, 100, width=32)),
        arrays(np.float32, (4, 4), elements=st.floats(0, 100, width=32)),
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_to_one_off_zero_set(self, ma, mb):
        wa, wb = fusion_weights(ma, mb)
        assert (wa >= 0).all() and (wa <= 1).all()
        assert (wb >= 0).all() and (wb <= 1).all()
        live = ma + mb > 0
        np.testing.assert_allclose((wa + wb)[live], 1.0, atol=1e-6)


class TestFuseL1norm:
    def test_identical_inputs_reproduce_channel(self):
        rng = np.random.default_rng(5)
        maps = rng.normal(size=(3, 6, 6)).astype(np.float32)
        out = fuse_l1norm(maps, maps, 1, FusionConfig("l1norm", block_radius=1))
        np.testing.assert_allclose(out, maps[1], atol=1e-6)

    def test_zero_branch_b_hand_trace(self):
        # radius 0 keeps the trace simple: weights are 1 for branch A
        # wherever it has any activity, 0.5 where both branches are dead.
        sa = np.array([[[1.0, -2.0], [0.0, 3.0]], [[0.0, 1.0], [1.0, -1.0]]], dtype=np.float32)
        sb = np.zeros_like(sa)
        out = fuse_l1norm(sa, sb, 0, FusionConfig("l1norm", block_radius=0))
        np.testing.assert_allclose(out, sa[0], atol=1e-7)
        ref = oracles.l1norm_fusion_ref(sa, sb, 0, 0)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_scaled_channel_matches_brute_force(self):
        rng = np.random.default_rng(6)
        sa = rng.normal(size=(4, 5, 5)).astype(np.float32)
        sb = rng.normal(size=(4, 5, 5)).astype(np.float32)
        sa2, sb2 = sa.copy(), sb.copy()
        sa2[2] *= 2.5
        sb2[2] *= 2.5
        out = fuse_l1norm(sa2, sb2, 2, FusionConfig("l1norm", block_radius=1))
        ref = oracles.l1norm_fusion_ref(sa2, sb2, 2, 1)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(7)
        for radius in (0, 1, 2):
            sa = rng.normal(size=(3, 6, 6)).astype(np.float32)
            sb = rng.normal(size=(3, 6, 6)).astype(np.float32)
            out = fuse_l1norm(sa, sb, 0, FusionConfig("l1norm", block_radius=radius))
            np.testing.assert_allclose(out, oracles.l1norm_fusion_ref(sa, sb, 0, radius), atol=1e-5)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(8)
        sa = rng.normal(size=(3, 5, 5)).astype(np.float32)
        sb = rng.normal(size=(3, 5, 5)).astype(np.float32)
        out = fuse_l1norm(sa, sb, 1, FusionConfig("l1norm"))
        lo = np.minimum(sa[1], sb[1]) - 1e-5
        hi = np.maximum(sa[1], sb[1]) + 1e-5
        assert (out >= lo).all()
        assert (out <= hi).all()

    def test_symmetric_in_branches(self):
        rng = np.random.default_rng(9)
        sa = rng.normal(size=(3, 5, 5)).astype(np.float32)
        sb = rng.normal(size=(3, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(
            fuse_l1norm(sa, sb, 0, FusionConfig("l1norm")),
            fuse_l1norm(sb, sa, 0, FusionConfig("l1norm")),
            atol=1e-6,
        )

    def test_class_out_of_range(self):
        maps = np.zeros((2, 3, 3), dtype=np.float32)
        with pytest.raises(IndexError):
            fuse_l1norm(maps, maps, 2, FusionConfig("l1norm"))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fuse_l1norm(np.zeros((2, 3, 3), dtype=np.float32), np.zeros((2, 4, 3), dtype=np.float32), 0)


class TestFusionConfig:
    def test_unknown_strategy_lists_valid_names(self):
        with pytest.raises(ValueError, match="max.*addition.*l1norm"):
            FusionConfig("conv")

    def test_negative_radius(self):
        with pytest.raises(ValueError, match=">= 0"):
            FusionConfig("max", block_radius=-1)


class TestLocalizationMap:
    def test_all_strategies_symmetric_under_swap(self):
        rng = np.random.default_rng(10)
        sa = rng.normal(size=(3, 6, 6)).astype(np.float32)
        sb = rng.normal(size=(3, 6, 6)).astype(np.float32)
        for strategy in ("max", "addition", "l1norm"):
            cfg = FusionConfig(strategy)
            np.testing.assert_allclose(
                localization_map(sa, sb, 1, cfg),
                localization_map(sb, sa, 1, cfg),
                atol=1e-6,
            )

    def test_single_branch_is_normalized_class_map(self):
        rng = np.random.default_rng(11)
        sa = rng.normal(size=(3, 4, 4)).astype(np.float32)
        sb = rng.normal(size=(3, 4, 4)).astype(np.float32)
        out = localization_map(sa, sb, 2, FusionConfig("addition"), single_branch=True)
        expected = normalize_minmax(sa[2]).values
        np.testing.assert_array_equal(out, expected)

    def test_max_and_addition_use_normalized_inputs(self):
        # scale one branch hugely: normalized fusion keeps both contributions
        rng = np.random.default_rng(12)
        sa = rng.uniform(size=(2, 4, 4)).astype(np.float32)
        sb = (rng.uniform(size=(2, 4, 4)) * 1000).astype(np.float32)
        out = localization_map(sa, sb, 0, FusionConfig("addition"))
        a_norm = normalize_minmax(sa[0]).values
        b_norm = normalize_minmax(sb[0]).values
        np.testing.assert_allclose(out, a_norm + b_norm, atol=1e-6)


def per_class_map(sa, sb, c, config, single_branch):
    """One class's map computed on its own, the way localization ran per class."""
    if single_branch:
        return normalize_minmax(sa[c]).values
    if config.strategy == "l1norm":
        wa, wb = fusion_weights(
            block_average(activity_map(sa), config.block_radius),
            block_average(activity_map(sb), config.block_radius),
        )
        return wa * sa[c] + wb * sb[c]
    a, b = normalize_minmax(sa[c]).values, normalize_minmax(sb[c]).values
    return np.maximum(a, b) if config.strategy == "max" else a + b


class TestLocalizationMaps:
    @pytest.mark.parametrize(
        "strategy, single", [("max", False), ("addition", False), ("l1norm", False), ("l1norm", True)]
    )
    def test_equals_per_class_maps_bit_for_bit(self, strategy, single):
        rng = np.random.default_rng(13)
        sa = rng.normal(size=(3, 6, 8, 8)).astype(np.float32)
        sb = rng.normal(size=(3, 6, 8, 8)).astype(np.float32)
        config = FusionConfig(strategy)
        samples, classes = [0, 0, 2, 1, 2, 0], [4, 0, 5, 2, 4, 5]
        maps = localization_maps(sa, sb, samples, classes, config, single)
        assert maps.shape == (6, 8, 8)
        for k, (s, c) in enumerate(zip(samples, classes)):
            expected = per_class_map(sa[s], sb[s], c, config, single)
            np.testing.assert_array_equal(maps[k], expected)
            np.testing.assert_array_equal(localization_map(sa[s], sb[s], c, config, single), expected)

    def test_class_out_of_range(self):
        maps = np.zeros((2, 3, 4, 4), dtype=np.float32)
        with pytest.raises(IndexError, match="class 3"):
            localization_maps(maps, maps, [0, 1], [0, 3], FusionConfig("addition"))


def zeros(*shape):
    return np.zeros(shape, dtype=np.float32)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(
            lambda: localization_map(zeros(1, 2, 2), zeros(1, 3, 2), 0, FusionConfig("addition")), "mismatch",
            id="fuse-addition",
        ),
        pytest.param(lambda: activity_map(zeros(4, 4)), r"\(C,h,w\) or \(S,C,h,w\)", id="activity-map-rank"),
        pytest.param(lambda: fusion_weights(zeros(2, 2), zeros(2, 3)), "mismatch", id="fusion-weights"),
        pytest.param(
            lambda: localization_maps(zeros(3, 4, 4), zeros(3, 4, 4), [0], [0], FusionConfig()), r"\(S,C,h,w\)",
            id="localization-maps-rank",
        ),
        pytest.param(
            lambda: localization_maps(zeros(2, 3, 4, 4), zeros(2, 3, 4, 4), [0, 1], [0], FusionConfig()),
            "one sample index per class", id="localization-maps-indices",
        ),
        pytest.param(
            lambda: localization_map(zeros(1, 3, 4, 4), zeros(1, 3, 4, 4), 0, FusionConfig()), r"\(C,h,w\)",
            id="localization-map-rank",
        ),
    ],
)
def test_misshaped_input_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
