"""Box extraction from heatmaps, IoU geometry, and the evaluation metrics.

Per-sample protocol: classes are ranked by softmax of the mean of the two
branches' logits; each candidate class gets a box from its fused
localization map. Top-1/top-5 localization requires the classification to
be right and the box to overlap at IoU >= 0.5; ground-truth-known
localization uses the ground-truth class's box at strictly > 0.5,
regardless of the classification outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import fusion as fusion_mod
from .cam import normalize_minmax
from .imageio import atomic_write
from .model import ModelParams, predict_maps
from .tensor import upsample_bilinear

# not called here any more, but perfbench/tracer.py patches them in this module
from .model import forward  # noqa: F401
from .tensor import bilinear_upsample  # noqa: F401

# samples per forward and localization pass in ``evaluate``: with one
# localization pass per chunk, 8 ran faster than 4 with no rise in the peak
# resident set
EVAL_CHUNK = 8

# 4-connectivity within each map of an (M,H,W) stack and none across maps:
# the 3x3x3 structure has only its middle plane set
FOUR_CONNECTED = np.pad(ndimage.generate_binary_structure(2, 1)[None], ((1, 1), (0, 0), (0, 0)))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box; min edges inclusive, max edges exclusive."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate box: ({self.x_min},{self.y_min})..({self.x_max},{self.y_max})"
            )

    @property
    def area(self) -> int:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass
class EvalRecord:
    sample_id: str
    true_class: int
    predicted: list[int]
    boxes: list[BBox]
    ious: list[float]
    gt_box: BBox
    gt_known: bool


@dataclass
class MetricsReport:
    """All values are percentages in [0, 100]."""

    top1_cls_err: float
    top5_cls_err: float
    top1_loc_err: float
    top5_loc_err: float
    gt_known_loc_acc: float
    n_samples: int = 0


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def extract_bboxes(maps: np.ndarray, tau: float) -> list[BBox]:
    """Tight box of the largest 4-connected component above tau * max(map),
    for each map of an (M,H,W) stack; a size tie goes to the component
    that comes first in raster order.

    An all-zero map thresholds to everything, giving the full-image box; a
    map with no pixel at or above tau * max (all negative) is a ValueError.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"bbox threshold must lie in (0, 1), got {tau}")
    arr = np.asarray(maps, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"heatmaps must be (M,H,W), got shape {arr.shape}")
    # tau * max is float32 under NEP 50 promotion, as the maps are
    mask = arr >= tau * arr.max(axis=(1, 2), keepdims=True)
    labels, _ = ndimage.label(mask, structure=FOUR_CONNECTED)
    # labels run in raster order, so map m owns the range (starts[m], ends[m]]
    ends = np.maximum.accumulate(labels.reshape(len(arr), -1).max(axis=1))
    starts = np.concatenate(([0], ends[:-1]))
    sizes = np.bincount(labels.ravel())
    largest = np.array([lo + 1 + np.argmax(sizes[lo + 1 : hi + 1]) for lo, hi in zip(starts, ends)])
    chosen = labels == largest[:, None, None]
    rows, cols = chosen.any(axis=2), chosen.any(axis=1)
    y_min, x_min = rows.argmax(axis=1), cols.argmax(axis=1)
    y_max = arr.shape[1] - rows[:, ::-1].argmax(axis=1)
    x_max = arr.shape[2] - cols[:, ::-1].argmax(axis=1)
    return [BBox(*map(int, box)) for box in zip(x_min, y_min, x_max, y_max)]


def extract_bbox(heatmap: np.ndarray, tau: float) -> BBox:
    """Box of one (H,W) map; see :func:`extract_bboxes`."""
    arr = np.asarray(heatmap, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"heatmap must be 2-d, got shape {arr.shape}")
    return extract_bboxes(arr[None], tau)[0]


def gt_known_correct(iou_value: float) -> bool:
    """Classification-agnostic localization hit: strictly above 1/2.

    Deliberately stricter than the top-1/top-5 rule, which accepts IoU
    exactly 0.5.
    """
    return iou_value > 0.5


def localization_flags(record: EvalRecord) -> tuple[bool, bool]:
    """(top1_loc_correct, top5_loc_correct) for one evaluated sample."""
    top1 = record.predicted[0] == record.true_class and record.ious[0] >= 0.5
    top5 = any(
        p == record.true_class and v >= 0.5
        for p, v in zip(record.predicted, record.ious)
    )
    return top1, top5


def localize(
    score_maps_a: np.ndarray, score_maps_b: np.ndarray, samples, classes,
    fusion_config: fusion_mod.FusionConfig, size: tuple[int, int], tau: float, single_branch: bool = False,
) -> tuple[list[BBox], np.ndarray]:
    """Boxes and full-resolution (M,H,W) maps of class ``classes[k]`` of
    sample ``samples[k]`` of the (S,C,h,w) score maps, in one pass.

    The fused stack is upsampled to ``size`` (height, width), min-max
    normalized map by map and boxed with :func:`extract_bboxes`.
    """
    fused = fusion_mod.localization_maps(score_maps_a, score_maps_b, samples, classes, fusion_config, single_branch)
    full = normalize_minmax(upsample_bilinear(fused, *size)).values
    return extract_bboxes(full, tau), full


def evaluate(
    params: ModelParams,
    dataset,
    fusion_config: fusion_mod.FusionConfig | None = None,
    tau: float = 0.2,
    cam_mode: str = "ccam",
    erase_threshold: float = 0.6,
    single_branch: bool = False,
) -> tuple[MetricsReport, list[EvalRecord]]:
    """Run classification + localization evaluation over an annotated dataset,
    ``EVAL_CHUNK`` samples at a time: one graph-free :func:`predict_maps`
    pass and one :func:`localize` pass over every candidate class of the
    chunk (the top 5, plus the ground truth when it is not among them)."""
    fusion_config = fusion_config or fusion_mod.FusionConfig()
    if not 0.0 < tau < 1.0:
        raise ValueError(f"bbox threshold must lie in (0, 1), got {tau}")
    samples = list(dataset)
    if not samples:
        raise ValueError("evaluation dataset is empty")
    for index, sample in enumerate(samples):
        if sample.gt_box is None:
            raise ValueError(f"sample {index:05d} is missing a ground-truth box")

    records: list[EvalRecord] = []
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start : start + EVAL_CHUNK]
        images = np.stack([sample.image for sample in chunk])
        score_a, score_b, logits_a, logits_b = predict_maps(params, images, cam_mode, erase_threshold)
        mean_logits = (logits_a + logits_b) / 2
        ranking = np.argsort(-mean_logits, axis=1, kind="stable")[:, :5]
        preds = [[int(c) for c in row] for row in ranking]
        candidates = [p if sample.label in p else p + [sample.label] for p, sample in zip(preds, chunk)]
        owners = np.repeat(np.arange(len(chunk)), [len(c) for c in candidates])
        boxes, _ = localize(
            score_a, score_b, owners, np.concatenate(candidates), fusion_config, images.shape[2:], tau, single_branch
        )
        first = 0
        for offset, (sample, predicted, classes) in enumerate(zip(chunk, preds, candidates)):
            sample_boxes = boxes[first : first + len(classes)]
            first += len(classes)
            ious = [iou(box, sample.gt_box) for box in sample_boxes]
            gt_known = gt_known_correct(ious[classes.index(sample.label)])
            k = len(predicted)
            records.append(EvalRecord(
                f"{start + offset:05d}", sample.label, predicted, sample_boxes[:k], ious[:k], sample.gt_box, gt_known
            ))

    n = len(samples)
    hits = [
        (r.predicted[0] == r.true_class, r.true_class in r.predicted, *localization_flags(r), r.gt_known)
        for r in records
    ]
    top1_cls, top5_cls, top1_loc, top5_loc, gt_known_hits = (sum(column) for column in zip(*hits))
    report = MetricsReport(
        top1_cls_err=100.0 * (1 - top1_cls / n),
        top5_cls_err=100.0 * (1 - top5_cls / n),
        top1_loc_err=100.0 * (1 - top1_loc / n),
        top5_loc_err=100.0 * (1 - top5_loc / n),
        gt_known_loc_acc=100.0 * gt_known_hits / n,
        n_samples=n,
    )
    return report, records


def write_records(records: list[EvalRecord], path) -> None:
    """Dump one CSV line per sample: id, true class, predictions, IoUs, gt
    flag. The file is replaced atomically."""
    with atomic_write(path, "w", encoding="ascii") as handle:
        for r in records:
            fields = (
                [r.sample_id, str(r.true_class)]
                + [str(p) for p in r.predicted]
                + [f"{v:.6f}" for v in r.ious]
                + [str(int(r.gt_known))]
            )
            handle.write(",".join(fields) + "\n")
