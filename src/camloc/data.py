"""Synthetic two-part objects with exact ground-truth boxes.

Each image holds one object on faint uniform noise: a large ellipse body
whose color is drawn independently of the class, and a small square head
whose color is determined by the class and placed against the body's edge
at a random angle. The class signal therefore lives only in the head,
which is what makes a classifier's activation map collapse onto the head
and leaves the body for the complement-guided branch to recover.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass

import numpy as np

from .imageio import atomic_write
from .metrics import BBox

# ceiling of the background noise: below every body colour (0.35-0.6),
# so object pixels stand clear of the background
NOISE_AMPLITUDE = 0.1


@dataclass
class DatasetConfig:
    num_classes: int = 4
    train_samples: int = 2000
    test_samples: int = 500
    image_size: tuple[int, int] = (64, 64)
    seed: int = 7
    head_size: tuple[int, int] = (8, 12)
    body_size: tuple[int, int] = (20, 32)

    def __post_init__(self):
        self.image_size = tuple(self.image_size)
        self.head_size = tuple(self.head_size)
        self.body_size = tuple(self.body_size)
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if min(self.image_size) < 1:
            raise ValueError(f"image_size must be >= 1, got {self.image_size}")
        if self.train_samples < 1 or self.test_samples < 1:
            raise ValueError("both splits need at least one sample")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, (lo, hi) in (("head_size", self.head_size), ("body_size", self.body_size)):
            if lo < 1 or hi < lo:
                raise ValueError(f"invalid {name} range ({lo}, {hi})")
        if self.head_size[1] >= self.body_size[0]:
            raise ValueError(
                f"heads must be smaller than bodies, got head up to {self.head_size[1]} "
                f"and body down to {self.body_size[0]}"
            )
        # the widest reach of any draw on an axis: the largest body with the
        # largest head on that axis, whose centre is then at most
        # body/2 + max(head/2 - 1, 0) from the body's (see _make_sample)
        body, head = self.body_size[1], self.head_size[1]
        reach = body / 2.0 + head / 2.0 + max(head / 2.0 - 1.0, 0.0)
        first, last = _centre_range(min(self.image_size), -body / 2.0, reach)
        if first > last:
            raise ValueError(
                f"shapes cannot fit inside a {self.image_size[1]}x{self.image_size[0]} image "
                f"(body up to {body}, head up to {head})"
            )


@dataclass
class Sample:
    image: np.ndarray  # (3,H,W) float32 in [0,1]
    label: int
    gt_box: BBox | None


def head_palette(num_classes: int) -> np.ndarray:
    """Evenly spaced saturated hues, one per class, as (C,3) float32 RGB."""
    colors = [colorsys.hsv_to_rgb(k / num_classes, 0.85, 0.95) for k in range(num_classes)]
    return np.asarray(colors, dtype=np.float32)


def _centre_range(size: int, lo: float, hi: float) -> tuple[int, int]:
    """First and last centre on an axis of ``size`` pixels that keeps a shape
    spanning [lo, hi] about its centre inside, a pixel from either edge."""
    return int(np.ceil(-lo)) + 1, int(np.floor(size - 1 - hi)) - 1


def _make_sample(rng: np.random.Generator, index: int, config: DatasetConfig, palette: np.ndarray) -> Sample:
    height, width = config.image_size
    label = index % config.num_classes

    # Fixed draw order, independent of the label: only the head color
    # depends on the class.
    body_w = int(rng.integers(config.body_size[0], config.body_size[1], endpoint=True))
    body_h = int(rng.integers(config.body_size[0], config.body_size[1], endpoint=True))
    body_color = rng.uniform(0.35, 0.6, size=3).astype(np.float32)
    head = int(rng.integers(config.head_size[0], config.head_size[1], endpoint=True))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))

    a = body_w / 2.0
    b = body_h / 2.0
    edge = a * b / float(np.hypot(b * np.cos(theta), a * np.sin(theta)))
    offset = edge + head / 2.0 - 1.0  # head overlaps the rim by ~1px
    head_dx = offset * np.cos(theta)
    head_dy = offset * np.sin(theta)

    # DatasetConfig refuses a geometry where any draw leaves either range empty
    cx_min, cx_max = _centre_range(width, min(-a, head_dx - head / 2.0), max(a, head_dx + head / 2.0))
    cy_min, cy_max = _centre_range(height, min(-b, head_dy - head / 2.0), max(b, head_dy + head / 2.0))
    cx = int(rng.integers(cx_min, cx_max, endpoint=True))
    cy = int(rng.integers(cy_min, cy_max, endpoint=True))

    image = rng.uniform(0.0, NOISE_AMPLITUDE, size=(3, height, width)).astype(np.float32)

    ys, xs = np.ogrid[:height, :width]
    body_mask = ((xs - cx) / a) ** 2 + ((ys - cy) / b) ** 2 <= 1.0
    hx0 = int(round(cx + head_dx - head / 2.0))
    hy0 = int(round(cy + head_dy - head / 2.0))
    head_mask = np.zeros((height, width), dtype=bool)
    head_mask[hy0 : hy0 + head, hx0 : hx0 + head] = True

    image[:, body_mask] = body_color[:, None]
    image[:, head_mask] = palette[label][:, None]

    object_mask = body_mask | head_mask
    obj_ys, obj_xs = np.nonzero(object_mask)
    gt_box = BBox(int(obj_xs.min()), int(obj_ys.min()), int(obj_xs.max()) + 1, int(obj_ys.max()) + 1)
    return Sample(image=image, label=label, gt_box=gt_box)


def generate_dataset(config: DatasetConfig) -> tuple[list[Sample], list[Sample]]:
    """Deterministic (train, test) splits from disjoint seed streams.

    Labels are assigned round-robin, so a split of N samples over C classes
    holds exactly ceil/floor(N/C) per class. Heads take the colors of
    :func:`head_palette`.
    """
    palette = head_palette(config.num_classes)
    train_seed, test_seed = np.random.SeedSequence(config.seed).spawn(2)
    train_rng = np.random.default_rng(train_seed)
    test_rng = np.random.default_rng(test_seed)
    train = [_make_sample(train_rng, i, config, palette) for i in range(config.train_samples)]
    test = [_make_sample(test_rng, i, config, palette) for i in range(config.test_samples)]
    return train, test


# ---------------------------------------------------------------------------
# annotation CSV: filename,class_id,x_min,y_min,x_max,y_max


def write_annotations(rows, path) -> None:
    """Write (filename, class_id, BBox) rows as CSV, atomically."""
    with atomic_write(path, "w", encoding="ascii") as handle:
        for filename, label, box in rows:
            handle.write(f"{filename},{label},{box.x_min},{box.y_min},{box.x_max},{box.y_max}\n")


def read_annotations(path, num_classes: int, image_size) -> list[tuple[str, int, BBox]]:
    """Parse annotation CSV. The file has no header: every non-blank line is
    a row, and a line that is not ``filename,class_id,x_min,y_min,x_max,y_max``
    with a class id in [0, num_classes) and a box inside the (H, W)
    ``image_size`` is an error. A file name must name a file in the
    annotation file's own directory, on one line only. Errors name the file
    and line."""
    rows: list[tuple[str, int, BBox]] = []
    first_line: dict[str, int] = {}
    # a byte past ASCII decodes to U+FFFD, so the error can name its line
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            if "\ufffd" in line:
                raise ValueError(f"{path}: line {line_no}: a byte that is not ASCII")
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}: line {line_no}: expected 6 fields, found {len(parts)}")
            if parts[0] in ("", ".", "..") or any(c in parts[0] for c in "/\\\0"):
                raise ValueError(f"{path}: line {line_no}: {parts[0]!r} is not a file name in the split")
            if parts[0] in first_line:
                raise ValueError(
                    f"{path}: line {line_no}: {parts[0]!r} is listed again, first on line {first_line[parts[0]]}"
                )
            first_line[parts[0]] = line_no
            try:
                numbers = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: non-integer field: {exc}") from exc
            if any(n < 0 for n in numbers):
                raise ValueError(f"{path}: line {line_no}: negative coordinate")
            label, x_min, y_min, x_max, y_max = numbers
            try:
                box = BBox(x_min, y_min, x_max, y_max)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            if label >= num_classes:
                raise ValueError(f"{path}: line {line_no}: class {label} outside [0, {num_classes})")
            if y_max > image_size[0] or x_max > image_size[1]:
                raise ValueError(
                    f"{path}: line {line_no}: box ({x_min},{y_min})..({x_max},{y_max}) outside the "
                    f"{image_size[1]}x{image_size[0]} image"
                )
            rows.append((parts[0], label, box))
    return rows
