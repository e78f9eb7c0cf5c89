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
from .model import ModelParams, predict_maps
from .tensor import upsample_bilinear

# not called here any more, but perfbench/tracer.py patches them in this module
from .model import forward  # noqa: F401
from .tensor import bilinear_upsample  # noqa: F401

# samples per graph-free forward pass in ``evaluate``: larger chunks ran no
# faster and only raise the peak resident set
EVAL_CHUNK = 4

FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)


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


def extract_bbox(heatmap: np.ndarray, tau: float) -> BBox:
    """Tight box of the largest 4-connected component above tau * max(map).

    An all-zero map thresholds to everything, giving the full-image box.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"bbox threshold must lie in (0, 1), got {tau}")
    arr = np.asarray(heatmap, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"heatmap must be 2-d, got shape {arr.shape}")
    mask = arr >= tau * arr.max()
    labels, _ = ndimage.label(mask, structure=FOUR_CONNECTED)
    sizes = np.bincount(labels.ravel())[1:]
    largest = int(np.argmax(sizes)) + 1
    rows, cols = ndimage.find_objects(labels, max_label=largest)[-1]
    return BBox(cols.start, rows.start, cols.stop, rows.stop)


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
    score_maps_a: np.ndarray, score_maps_b: np.ndarray, classes, fusion_config: fusion_mod.FusionConfig,
    size: tuple[int, int], tau: float, single_branch: bool = False,
) -> tuple[list[BBox], list[np.ndarray]]:
    """Boxes of the given classes for one sample, and their full-resolution maps.

    Each class's fused map is upsampled to ``size`` (height, width),
    min-max normalized and boxed with :func:`extract_bbox`.
    """
    fused = fusion_mod.localization_maps(score_maps_a, score_maps_b, classes, fusion_config, single_branch)
    full = [normalize_minmax(m).values for m in upsample_bilinear(fused, *size)]
    return [extract_bbox(m, tau) for m in full], full


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
    graph-free through :func:`predict_maps`, ``EVAL_CHUNK`` samples at a time."""
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
        for offset, sample in enumerate(chunk):
            ranking = np.argsort(-mean_logits[offset], kind="stable")
            preds = [int(c) for c in ranking[: min(5, len(ranking))]]
            classes = preds if sample.label in preds else preds + [sample.label]
            boxes, _ = localize(
                score_a[offset], score_b[offset], classes, fusion_config, images.shape[2:], tau, single_branch
            )
            ious = [iou(box, sample.gt_box) for box in boxes]
            gt_known = gt_known_correct(ious[classes.index(sample.label)])
            k = len(preds)
            records.append(EvalRecord(
                f"{start + offset:05d}", sample.label, preds, boxes[:k], ious[:k], sample.gt_box, gt_known
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
    """Dump one CSV line per sample: id, true class, predictions, IoUs, gt flag."""
    with open(path, "w", encoding="ascii") as handle:
        for r in records:
            fields = (
                [r.sample_id, str(r.true_class)]
                + [str(p) for p in r.predicted]
                + [f"{v:.6f}" for v in r.ious]
                + [str(int(r.gt_known))]
            )
            handle.write(",".join(fields) + "\n")
