"""Fusion strategies combining the two branches' maps into one localization map.

Three strategies: pointwise max (erasing-baseline behaviour), pointwise
addition, and activity-weighted blending where each branch's weight at a
pixel is its share of the block-averaged channel-wise l1 activity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cam import CamMap, normalize_minmax

STRATEGIES = ("max", "addition", "l1norm")


@dataclass
class FusionConfig:
    strategy: str = "addition"
    block_radius: int = 1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown fusion strategy '{self.strategy}'; valid strategies: {', '.join(STRATEGIES)}"
            )
        if self.block_radius < 0:
            raise ValueError(f"block radius must be >= 0, got {self.block_radius}")


def fuse_max(a: CamMap, b: CamMap) -> np.ndarray:
    """Pointwise maximum of two maps."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"shape mismatch: {a.values.shape} vs {b.values.shape}")
    return np.maximum(a.values, b.values)


def fuse_addition(a: CamMap, b: CamMap) -> np.ndarray:
    """Pointwise sum of two maps."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"shape mismatch: {a.values.shape} vs {b.values.shape}")
    return a.values + b.values


def activity_map(score_maps: np.ndarray) -> np.ndarray:
    """Channel-wise l1 norm of (C,h,w) score maps: sum of |f_c| over classes.
    An (S,C,h,w) stack gives one (h,w) map per sample."""
    arr = np.asarray(score_maps, dtype=np.float32)
    if arr.ndim not in (3, 4):
        raise ValueError(f"score maps must be (C,h,w) or (S,C,h,w), got shape {arr.shape}")
    return np.abs(arr).sum(axis=-3, dtype=np.float64).astype(np.float32)


def block_average(values: np.ndarray, radius: int) -> np.ndarray:
    """Mean over a (2r+1)x(2r+1) window centered at each pixel of the last
    two axes; any leading axes are carried along.

    Out-of-bounds terms contribute zero and the divisor stays (2r+1)^2
    even at the borders.
    """
    if radius < 0:
        raise ValueError(f"block radius must be >= 0, got {radius}")
    arr = np.asarray(values, dtype=np.float32)
    if radius == 0:
        return arr.copy()
    h, w = arr.shape[-2:]
    padding = [(0, 0)] * (arr.ndim - 2) + [(radius, radius)] * 2
    padded = np.pad(arr.astype(np.float64), padding)
    acc = np.zeros(arr.shape, dtype=np.float64)
    side = 2 * radius + 1
    for dy in range(side):
        for dx in range(side):
            acc += padded[..., dy : dy + h, dx : dx + w]
    return (acc / side**2).astype(np.float32)


def fusion_weights(a_activity: np.ndarray, b_activity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel weight of each branch: its share of the total activity.

    Where the total activity is zero the weights default to (0.5, 0.5).
    """
    ma = np.asarray(a_activity, dtype=np.float32)
    mb = np.asarray(b_activity, dtype=np.float32)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    if (ma < 0).any() or (mb < 0).any():
        raise ValueError("activity maps must be non-negative")
    denom = ma + mb
    safe = np.where(denom > 0, denom, np.float32(1.0))
    wa = np.where(denom > 0, ma / safe, np.float32(0.5)).astype(np.float32)
    wb = np.where(denom > 0, mb / safe, np.float32(0.5)).astype(np.float32)
    return wa, wb


def fuse_l1norm(
    score_maps_a: np.ndarray,
    score_maps_b: np.ndarray,
    class_index: int,
    config: FusionConfig | None = None,
) -> np.ndarray:
    """Activity-weighted blend of the two branches' class channels.

    Pipeline: channel-wise l1 activity -> block average -> weight ratio ->
    weighted sum of the raw class channels. The result is pointwise a convex
    combination of the two inputs.
    """
    config = config or FusionConfig(strategy="l1norm")
    return localization_map(score_maps_a, score_maps_b, class_index, replace(config, strategy="l1norm"))


def localization_maps(
    score_maps_a: np.ndarray, score_maps_b: np.ndarray, samples, classes, config: FusionConfig,
    single_branch: bool = False,
) -> np.ndarray:
    """Final maps for box extraction, stacked (M,h,w): map k is class
    ``classes[k]`` of sample ``samples[k]`` of the (S,C,h,w) score maps.

    Max and addition operate on min-max normalized per-class maps (raw
    scale must not let one branch dominate); l1norm weighting consumes the
    raw score maps, and its activity weights, computed once per sample, are
    shared by all of that sample's classes. ``single_branch`` returns branch
    A's normalized maps alone, the no-fusion baseline.
    """
    sa = np.asarray(score_maps_a, dtype=np.float32)
    sb = np.asarray(score_maps_b, dtype=np.float32)
    if sa.ndim != 4:
        raise ValueError(f"score maps must be (S,C,h,w), got shape {sa.shape}")
    if sa.shape != sb.shape:
        raise ValueError(f"shape mismatch: {sa.shape} vs {sb.shape}")
    samples = np.asarray(samples, dtype=np.intp)
    classes = np.asarray(classes, dtype=np.intp)
    if samples.shape != classes.shape or samples.ndim != 1:
        raise ValueError(f"need one sample index per class, got {samples.shape} and {classes.shape}")
    bad = classes[(classes < 0) | (classes >= sa.shape[1])]
    if len(bad):
        raise IndexError(f"class {bad[0]} out of range for {sa.shape[1]} channels")
    if config.strategy == "l1norm" and not single_branch:
        wa, wb = fusion_weights(
            block_average(activity_map(sa), config.block_radius),
            block_average(activity_map(sb), config.block_radius),
        )
        return wa[samples] * sa[samples, classes] + wb[samples] * sb[samples, classes]
    a = normalize_minmax(sa[samples, classes])
    if single_branch:
        return a.values
    fuse = fuse_max if config.strategy == "max" else fuse_addition
    return fuse(a, normalize_minmax(sb[samples, classes]))


def localization_map(
    score_maps_a: np.ndarray, score_maps_b: np.ndarray, class_index: int, config: FusionConfig,
    single_branch: bool = False,
) -> np.ndarray:
    """Final map of one class of one sample's (C,h,w) score maps; see
    :func:`localization_maps`."""
    sa = np.asarray(score_maps_a, dtype=np.float32)
    if sa.ndim != 3:
        raise ValueError(f"score maps must be (C,h,w), got shape {sa.shape}")
    sb = np.asarray(score_maps_b, dtype=np.float32)
    return localization_maps(sa[None], sb[None], [0], [class_index], config, single_branch)[0]
