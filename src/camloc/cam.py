"""Class activation maps, as plain float32 arrays: extraction,
normalization, complement, erasing."""

from __future__ import annotations

import numpy as np


def class_map(score_maps: np.ndarray, class_index: int) -> np.ndarray:
    """A copy of one class channel of (C,h,w) score maps, unnormalized."""
    arr = np.asarray(score_maps, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"score maps must be (C,h,w), got shape {arr.shape}")
    if not 0 <= class_index < arr.shape[0]:
        raise IndexError(f"class {class_index} out of range for {arr.shape[0]} channels")
    return arr[class_index].copy()


def normalize_minmax(m: np.ndarray) -> np.ndarray:
    """Rescale each map to [0,1] via (v - min) / (max - min), over the last
    two axes: an (h,w) map, or a stack (..., h, w) normalized map by map.

    A constant map normalizes to all zeros, so its complement is all ones
    and the guided branch sees everything.
    """
    values = np.asarray(m, dtype=np.float32)
    lo = values.min(axis=(-2, -1), keepdims=True)
    hi = values.max(axis=(-2, -1), keepdims=True)
    # NaN propagates through min and max, and an infinity is a min or a max
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("cannot normalize a map containing non-finite values")
    out = values - lo
    # a constant map is already all zeros here; dividing by 1 keeps it so
    out /= np.where(hi == lo, 1, hi - lo)
    return out.astype(np.float32, copy=False)


def _normalized(m: np.ndarray, caller: str) -> np.ndarray:
    """``m`` as float32, refused unless every value lies in [0, 1] (NaN does not)."""
    values = np.asarray(m, dtype=np.float32)
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{caller} requires a normalized map, with every value in [0, 1]")
    return values


def complement(m: np.ndarray) -> np.ndarray:
    """Pointwise 1 - map; high where the activation map is low."""
    return np.float32(1.0) - _normalized(m, "complement")


def threshold_erase(m: np.ndarray, delta: float) -> np.ndarray:
    """Binary erasing mask: 0 where the map is >= delta, 1 elsewhere."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"erase threshold must lie in (0, 1), got {delta}")
    values = _normalized(m, "threshold_erase")
    return np.where(values >= delta, np.float32(0.0), np.float32(1.0))
