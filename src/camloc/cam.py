"""Class activation maps: extraction, normalization, complement, erasing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CamMap:
    """A single-channel spatial map; ``normalized`` means values lie in [0,1]."""

    values: np.ndarray
    normalized: bool = False


def class_map(score_maps: np.ndarray, class_index: int) -> CamMap:
    """Select one class channel of (C,h,w) score maps as an unnormalized map."""
    arr = np.asarray(score_maps, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"score maps must be (C,h,w), got shape {arr.shape}")
    if not 0 <= class_index < arr.shape[0]:
        raise IndexError(f"class {class_index} out of range for {arr.shape[0]} channels")
    return CamMap(arr[class_index].copy(), normalized=False)


def normalize_minmax(m: CamMap | np.ndarray) -> CamMap:
    """Rescale each map to [0,1] via (v - min) / (max - min), over the last
    two axes: an (h,w) map, or a stack (..., h, w) normalized map by map.

    A constant map normalizes to all zeros, so its complement is all ones
    and the guided branch sees everything.
    """
    values = m.values if isinstance(m, CamMap) else np.asarray(m, dtype=np.float32)
    if not np.isfinite(values).all():
        raise ValueError("cannot normalize a map containing non-finite values")
    lo = values.min(axis=(-2, -1), keepdims=True)
    hi = values.max(axis=(-2, -1), keepdims=True)
    out = values - lo
    # a constant map is already all zeros here; dividing by 1 keeps it so
    out /= np.where(hi == lo, 1, hi - lo)
    return CamMap(out.astype(np.float32, copy=False), normalized=True)


def complement(m: CamMap) -> CamMap:
    """Pointwise 1 - map; high where the activation map is low."""
    if not m.normalized:
        raise ValueError("complement requires a normalized map")
    return CamMap(np.float32(1.0) - m.values, normalized=True)


def threshold_erase(m: CamMap, delta: float) -> CamMap:
    """Binary erasing mask: 0 where the map is >= delta, 1 elsewhere."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"erase threshold must lie in (0, 1), got {delta}")
    if not m.normalized:
        raise ValueError("threshold_erase requires a normalized map")
    out = np.where(m.values >= delta, np.float32(0.0), np.float32(1.0))
    return CamMap(out.astype(np.float32, copy=False), normalized=True)
