"""Box extraction from heatmaps, IoU geometry, and the evaluation metrics.

Per-sample protocol: classes are ranked by the mean of the two branches'
logits; each candidate class gets a box from its fused localization map.
Top-1/top-5 localization requires the classification to be right and the
box to overlap at IoU >= 0.5; ground-truth-known localization uses the
ground-truth class's box at strictly > 0.5, regardless of the
classification outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fusion as fusion_mod
from .cam import normalize_minmax
from .imageio import atomic_write
from .model import ModelParams, TrainConfig, predict_maps
from .tensor import upsample_bilinear

# not called here any more, but perfbench/tracer.py patches them in this module
from .model import forward  # noqa: F401
from .tensor import bilinear_upsample  # noqa: F401

# samples per localize pass in ``evaluate``: 8 ran faster than 4. Inference
# is batched by predict_maps alone, at model.TRAIN_CHUNK samples per forward
EVAL_CHUNK = 8
BBOX_TAU = 0.2  # default box threshold, as a fraction of each map's maximum


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

    Components are found on row runs, as in run-based labelling (He, Chao
    & Suzuki, IEEE TIP 17(5), 2008): a run joins every run of the row above
    in the same map that shares a column with it.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"bbox threshold must lie in (0, 1), got {tau}")
    arr = np.asarray(maps, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"heatmaps must be (M,H,W), got shape {arr.shape}")
    m, h, w = arr.shape
    # tau * max is float32 under NEP 50 promotion, as the maps are
    mask = arr >= tau * arr.max(axis=(1, 2), keepdims=True)

    # row runs [start, end) in raster order; row r is row r % h of map r // h.
    # Each padded row changes value where a run starts and where it ends, so
    # its steps alternate start, end.
    span = w + 1
    padded = np.zeros((m * h, w + 2), dtype=bool)
    padded[:, 1:-1] = mask.reshape(m * h, w)
    steps = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    row, start = np.divmod(steps[0::2], span)
    end = steps[1::2] - row * span
    owner = row // h
    empty = np.flatnonzero(np.bincount(owner, minlength=m) == 0)
    if len(empty):
        raise ValueError(f"heatmap {empty[0]} has no pixel at or above {tau} * its max")

    # the runs of the row above that overlap run i are the index range
    # [lo, hi): end past i's start and start before i's end. Both searches
    # are over keys row * span + column, which increase over the runs. The
    # first row of a map has no row above it.
    above = (row - 1) * span
    lo = np.searchsorted(row * span + end, above + start, side="right")
    hi = np.searchsorted(row * span + start, above + end, side="left")
    links = np.where(row % h == 0, 0, np.maximum(hi - lo, 0))
    # link k of run i goes to run lo[i] + k
    a = np.repeat(np.arange(len(row)), links)
    b = np.repeat(lo - np.cumsum(links) + links, links) + np.arange(len(a))

    # union: hook the higher of two linked roots to the lower, then jump
    # pointers until every run points at its root, the lowest run of its
    # component; repeat over the links whose ends still differ
    root = np.arange(len(row))
    while len(a):
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        split = root[a] != root[b]
        a, b = a[split], b[split]

    # per map, the largest component; a tie goes to the lowest root, whose
    # first run comes first in raster order
    sizes = np.bincount(root, weights=end - start)
    roots = np.flatnonzero(root == np.arange(len(row)))
    order = np.lexsort((roots, -sizes[roots], owner[roots]))
    best = roots[order[np.searchsorted(owner[roots[order]], np.arange(m))]]
    chosen = np.flatnonzero(root == best[owner])
    first = np.searchsorted(owner[chosen], np.arange(m))
    last = np.append(first[1:], len(chosen)) - 1
    y_min, y_max = row[chosen[first]] % h, row[chosen[last]] % h + 1
    x_min = np.minimum.reduceat(start[chosen], first)
    x_max = np.maximum.reduceat(end[chosen], first)
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
    fusion_config: fusion_mod.FusionConfig, size: tuple[int, int], tau: float,
) -> tuple[list[BBox], np.ndarray]:
    """Boxes and full-resolution (M,H,W) maps of class ``classes[k]`` of
    sample ``samples[k]`` of the (S,C,h,w) score maps, in one pass.

    The fused stack is upsampled to ``size`` (height, width), min-max
    normalized map by map and boxed with :func:`extract_bboxes`.
    """
    fused = fusion_mod.localization_maps(score_maps_a, score_maps_b, samples, classes, fusion_config)
    full = normalize_minmax(upsample_bilinear(fused, *size))
    return extract_bboxes(full, tau), full


def evaluate(
    params: ModelParams,
    dataset,
    fusion_config: fusion_mod.FusionConfig | None = None,
    tau: float = BBOX_TAU,
    cam_mode: str = TrainConfig.guidance_mode,
    single_branch: bool = False,
) -> tuple[MetricsReport, list[EvalRecord]]:
    """Run classification + localization evaluation over an annotated dataset:
    one graph-free :func:`predict_maps` pass over the whole split, then one
    :func:`localize` pass per ``EVAL_CHUNK`` samples over every candidate
    class of the window (the top 5, plus the ground truth when it is not
    among them).

    ``single_branch=True`` reads out the "single" variant whatever the
    config's strategy; it stays because the acceptance suite and the
    benchmark's eval grid call it so.
    """
    fusion_config = fusion_config or fusion_mod.FusionConfig()
    if single_branch:
        fusion_config = replace(fusion_config, strategy="single")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"bbox threshold must lie in (0, 1), got {tau}")
    samples = list(dataset)
    if not samples:
        raise ValueError("evaluation dataset is empty")
    for index, sample in enumerate(samples):
        if sample.gt_box is None:
            raise ValueError(f"sample {index:05d} is missing a ground-truth box")

    score_a, score_b, ranking, _ = predict_maps(params, [sample.image for sample in samples], cam_mode)
    size = samples[0].image.shape[1:]
    records: list[EvalRecord] = []
    for start in range(0, len(samples), EVAL_CHUNK):
        window = slice(start, start + EVAL_CHUNK)
        chunk = samples[window]
        preds = ranking[window, :5].tolist()
        candidates = [p if sample.label in p else p + [sample.label] for p, sample in zip(preds, chunk)]
        owners = np.repeat(np.arange(len(chunk)), [len(c) for c in candidates])
        boxes, _ = localize(
            score_a[window], score_b[window], owners, np.concatenate(candidates), fusion_config, size, tau
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
