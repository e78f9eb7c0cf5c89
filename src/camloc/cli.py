"""Command-line pipeline: gen-data, train, eval, visualize.

Configuration comes from an INI-style ``key = value`` file plus flag
overrides; every command that succeeds drops a manifest of the effective
configuration into the output directory. Exit codes: 0 success, 1 usage
error, 2 data or I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .cam import class_map, normalize_minmax
from .data import DatasetConfig, Sample, generate_dataset, read_annotations, write_annotations
from .fusion import VARIANTS, FusionConfig
from .imageio import atomic_write, read_ppm, write_pgm, write_ppm
from .metrics import BBOX_TAU, evaluate, localize, write_records
from .model import (
    GUIDANCE_MODES,
    CheckpointError,
    ModelConfig,
    NumericError,
    TrainConfig,
    init_model,
    load_checkpoint,
    param_shapes,
    predict_maps,
    save_checkpoint,
    train,
)
from .tensor import upsample_bilinear

# not called here any more, but perfbench/tracer.py patches them in this module
from .fusion import localization_map  # noqa: F401
from .metrics import extract_bbox  # noqa: F401
from .model import forward  # noqa: F401
from .tensor import bilinear_upsample  # noqa: F401


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    backbone_channels: tuple[int, ...] = ModelConfig.backbone_channels
    head_width: int = ModelConfig.head_width
    model_seed: int = ModelConfig.seed
    train: TrainConfig = field(default_factory=TrainConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    bbox_tau: float = BBOX_TAU
    sample_index: int = 0
    out_dir: str = "camloc_out"

    def __post_init__(self):
        self.backbone_channels = tuple(self.backbone_channels)
        if not 0.0 < self.bbox_tau < 1.0:
            raise ValueError(f"bbox_tau must lie in (0, 1), got {self.bbox_tau}")
        if self.sample_index < 0:
            raise ValueError(f"sample index must be >= 0, got {self.sample_index}")
        # INI strips a value's outer whitespace and reads a line break as a continuation
        if self.out_dir != self.out_dir.strip() or "\n" in self.out_dir or "\r" in self.out_dir:
            raise ValueError(f"out_dir {self.out_dir!r} has outer whitespace or a line break")
        self.model_config()  # a model the dataset cannot feed is refused here
        divisor = 2 ** len(self.backbone_channels)
        h, w = self.dataset.image_size
        if h % divisor or w % divisor:
            raise ValueError(f"image size {h}x{w} must be divisible by {divisor} (one 2x2 pool per backbone block)")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            num_classes=self.dataset.num_classes,
            backbone_channels=self.backbone_channels,
            head_width=self.head_width,
            seed=self.model_seed,
        )


# ---------------------------------------------------------------------------
# config file <-> RunConfig


# The one config schema: each ``[section] key`` maps to its RunConfig attribute
# path, a parse function and a format function, in manifest order. A path step
# that is a digit indexes a tuple.
_SCHEMA = {
    ("dataset", "num_classes"): ("dataset.num_classes", int, str),
    ("dataset", "train_samples"): ("dataset.train_samples", int, str),
    ("dataset", "test_samples"): ("dataset.test_samples", int, str),
    ("dataset", "image_size"): ("dataset.image_size", lambda raw: (int(raw),) * 2, lambda v: str(v[0])),
    ("dataset", "seed"): ("dataset.seed", int, str),
    ("dataset", "head_min"): ("dataset.head_size.0", int, str),
    ("dataset", "head_max"): ("dataset.head_size.1", int, str),
    ("dataset", "body_min"): ("dataset.body_size.0", int, str),
    ("dataset", "body_max"): ("dataset.body_size.1", int, str),
    ("dataset", "noise_amplitude"): ("dataset.noise_amplitude", float, repr),
    ("model", "backbone_channels"): (
        "backbone_channels",
        lambda raw: tuple(int(p) for p in raw.split(",")),
        lambda v: ",".join(str(c) for c in v),
    ),
    ("model", "head_width"): ("head_width", int, str),
    ("model", "seed"): ("model_seed", int, str),
    ("train", "epochs"): ("train.epochs", int, str),
    ("train", "batch_size"): ("train.batch_size", int, str),
    ("train", "learning_rate"): ("train.learning_rate", float, repr),
    ("train", "guidance_mode"): ("train.guidance_mode", str, str),
    ("train", "erase_threshold"): ("train.erase_threshold", float, repr),
    ("train", "seed"): ("train.seed", int, str),
    ("fusion", "strategy"): ("fusion.strategy", str, str),
    ("fusion", "block_radius"): ("fusion.block_radius", int, str),
    ("eval", "bbox_tau"): ("bbox_tau", float, repr),
    ("eval", "sample"): ("sample_index", int, str),
    ("output", "out_dir"): ("out_dir", str, str),
}

# each flag's argparse dest and the schema paths it overrides
_FLAG_PATHS = {
    "seed": ("dataset.seed", "model_seed", "train.seed"),
    "strategy": ("fusion.strategy",),
    "cam_mode": ("train.guidance_mode",),
    "erase_threshold": ("train.erase_threshold",),
    "bbox_tau": ("bbox_tau",),
    "sample": ("sample_index",),
    "out": ("out_dir",),
}


def _step(obj, step: str):
    return obj[int(step)] if step.isdigit() else getattr(obj, step)


def _with_settings(obj, settings: dict):
    """``obj`` with each ``{path: value}`` of ``settings`` set. Each dataclass
    or tuple on the way is rebuilt once, so its checks see the finished values."""
    values: dict = {}
    nested: dict = {}
    for path, value in settings.items():
        step, _, rest = path.partition(".")
        if rest:
            nested.setdefault(step, {})[rest] = value
        else:
            values[step] = value
    for step, inner in nested.items():
        values[step] = _with_settings(_step(obj, step), inner)
    if isinstance(obj, tuple):
        return tuple(values.get(str(i), item) for i, item in enumerate(obj))
    return replace(obj, **values)


def parse_config_file(path) -> RunConfig:
    # '%' is literal; no INI header can name "\n", so [DEFAULT] is a section whose keys are all unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file {path}: {exc}") from exc

    settings = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise UsageError(f"unknown config key [{section}] {key}")
            target, parse, _ = _SCHEMA[section, key]
            try:
                settings[target] = parse(raw)
            except ValueError as exc:
                raise UsageError(f"config [{section}] {key}: {exc}") from exc
    try:
        return _with_settings(RunConfig(), settings)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def write_manifest(cfg: RunConfig, path) -> None:
    lines = []
    for (section, key), (target, _, show) in _SCHEMA.items():
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        lines.append(f"{key} = {show(reduce(_step, target.split('.'), cfg))}")
    with atomic_write(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[1:]) + "\n")


# ---------------------------------------------------------------------------
# dataset on disk


def _split_dir(cfg: RunConfig, split: str) -> Path:
    return Path(cfg.out_dir) / "dataset" / split


def _save_split(samples: list[Sample], directory: Path, split: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    # the old annotations go first, so a split whose writing stops partway cannot be read
    (directory / "annotations.csv").unlink(missing_ok=True)
    rows = []
    for i, sample in enumerate(samples):
        filename = f"{split}_{i:05d}.ppm"
        write_ppm(sample.image, directory / filename)
        rows.append((filename, sample.label, sample.gt_box))
    write_annotations(rows, directory / "annotations.csv")


def _split_rows(cfg: RunConfig, split: str) -> tuple[Path, list]:
    """The split's directory and its validated annotation rows."""
    directory = _split_dir(cfg, split)
    annotations = directory / "annotations.csv"
    if not annotations.exists():
        raise DataError(f"missing dataset split '{split}': {annotations} not found (run gen-data first)")
    try:
        rows = read_annotations(annotations, cfg.dataset.num_classes, cfg.dataset.image_size)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if not rows:
        raise DataError(f"{annotations}: no samples")
    return directory, rows


def _read_sample(cfg: RunConfig, directory: Path, row) -> Sample:
    filename, label, box = row
    image = read_ppm(directory / filename)
    size = cfg.dataset.image_size
    if image.shape[1:] != size:
        raise DataError(
            f"{directory / filename}: image is {image.shape[2]}x{image.shape[1]}, "
            f"but [dataset] image_size is {size[1]}x{size[0]}"
        )
    return Sample(image, label, box)


def _load_split(cfg: RunConfig, split: str) -> list[Sample]:
    directory, rows = _split_rows(cfg, split)
    return [_read_sample(cfg, directory, row) for row in rows]


def _checkpoint_path(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "checkpoint.bin"


def _load_params(cfg: RunConfig):
    path = _checkpoint_path(cfg)
    if not path.exists():
        raise DataError(f"missing checkpoint: {path} not found (run train first)")
    params = load_checkpoint(path)
    expected = param_shapes(cfg.model_config())
    found = {name: tensor.shape for name, tensor in params.tensors.items()}
    score_shape = found.get("branch_a.score.weight", ())
    if score_shape and score_shape[0] != cfg.dataset.num_classes:
        raise DataError(
            f"checkpoint {path} has {score_shape[0]} classes but the dataset has {cfg.dataset.num_classes}"
        )
    for name in sorted(expected.keys() | found.keys()):
        if name not in found:
            raise DataError(f"checkpoint {path} lacks tensor {name} of the configured model")
        if name not in expected:
            raise DataError(f"checkpoint {path} has tensor {name}, which the configured model lacks")
        if found[name] != expected[name]:
            raise DataError(
                f"checkpoint {path} tensor {name} has shape {found[name]}; the configured model needs {expected[name]}"
            )
    return params


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: RunConfig, out: Path) -> None:
    train_split, test_split = generate_dataset(cfg.dataset)
    _save_split(train_split, _split_dir(cfg, "train"), "train")
    _save_split(test_split, _split_dir(cfg, "test"), "test")
    print(f"wrote {len(train_split)} train / {len(test_split)} test samples to {out / 'dataset'}")


def cmd_train(cfg: RunConfig, out: Path) -> None:
    samples = _load_split(cfg, "train")
    params = init_model(cfg.model_config())

    def progress(epoch, loss, acc_a, acc_b):
        print(
            f"epoch {epoch}: loss={loss:.4f} acc_a={acc_a:.3f} acc_b={acc_b:.3f}",
            file=sys.stderr,
        )

    report = train(params, samples, cfg.train, progress=progress)
    save_checkpoint(params, _checkpoint_path(cfg))
    log_lines = [
        f"{epoch},{loss:.6f},{acc_a:.4f},{acc_b:.4f}"
        for epoch, (loss, acc_a, acc_b) in enumerate(zip(report.losses, report.acc_a, report.acc_b))
    ]
    with atomic_write(out / "train_log.csv", "w", encoding="ascii") as handle:
        handle.write("\n".join(log_lines) + "\n")
    print(f"checkpoint written to {_checkpoint_path(cfg)}")


def cmd_eval(cfg: RunConfig, out: Path) -> None:
    params = _load_params(cfg)
    samples = _load_split(cfg, "test")
    report, records = evaluate(
        params,
        samples,
        fusion_config=cfg.fusion,
        tau=cfg.bbox_tau,
        cam_mode=cfg.train.guidance_mode,
        erase_threshold=cfg.train.erase_threshold,
    )
    write_records(records, out / f"records_{cfg.train.guidance_mode}_{cfg.fusion.strategy}.csv")
    for name in ("top1_cls_err", "top5_cls_err", "top1_loc_err", "top5_loc_err", "gt_known_loc_acc"):
        print(f"{name}={getattr(report, name):.4f}")


def _draw_box_outline(image: np.ndarray, box, channel: int) -> None:
    color = np.zeros(3, dtype=np.float32)
    color[channel] = 1.0
    x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max - 1, box.y_max - 1
    image[:, y0, x0 : x1 + 1] = color[:, None]
    image[:, y1, x0 : x1 + 1] = color[:, None]
    image[:, y0 : y1 + 1, x0] = color[:, None]
    image[:, y0 : y1 + 1, x1] = color[:, None]


def cmd_visualize(cfg: RunConfig, out: Path) -> None:
    params = _load_params(cfg)
    directory, rows = _split_rows(cfg, "test")
    if cfg.sample_index >= len(rows):
        raise DataError(f"sample {cfg.sample_index} out of range: test split has {len(rows)} samples")
    sample = _read_sample(cfg, directory, rows[cfg.sample_index])
    height, width = sample.image.shape[1:]

    score_a, score_b, ranking, guidance = predict_maps(
        params, [sample.image], cfg.train.guidance_mode, cfg.train.erase_threshold
    )
    predicted = int(ranking[0, 0])
    (box,), fused_full = localize(
        score_a, score_b, [0], [predicted], cfg.fusion, (height, width), cfg.bbox_tau
    )
    cam_a = normalize_minmax(class_map(score_a[0], predicted))
    cam_b = normalize_minmax(class_map(score_b[0], predicted))
    maps = upsample_bilinear(np.stack([cam_a.values, guidance[0], cam_b.values]), height, width)
    for name, values in zip(("cam_a", "ccam", "cam_b"), maps):
        write_pgm(values, out / f"{name}.pgm")
    write_pgm(fused_full[0], out / "fused.pgm")

    overlay = sample.image.copy()
    _draw_box_outline(overlay, sample.gt_box, channel=0)  # ground truth in red
    _draw_box_outline(overlay, box, channel=2)  # prediction in blue
    write_ppm(overlay, out / "overlay.ppm")

    print(f"wrote cam_a.pgm, ccam.pgm, cam_b.pgm, fused.pgm, overlay.ppm to {out}")


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="camloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("gen-data", cmd_gen_data),
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("visualize", cmd_visualize),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--seed", type=int, metavar="N", help="override dataset/model/train seeds")
        p.add_argument("--strategy", choices=VARIANTS, help="fusion strategy, or single for branch A alone")
        p.add_argument("--cam-mode", choices=GUIDANCE_MODES, help="guidance map type")
        p.add_argument("--erase-threshold", type=float, metavar="DELTA")
        p.add_argument("--bbox-tau", type=float, metavar="TAU", help="box binarization fraction")
        p.add_argument("--sample", type=int, metavar="N", help="test-split sample index (visualize)")
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _build_config(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    settings = {
        target: getattr(args, dest)
        for dest, targets in _FLAG_PATHS.items()
        if getattr(args, dest) is not None
        for target in targets
    }
    try:
        return _with_settings(cfg, settings)
    except ValueError as exc:
        raise UsageError(f"invalid option: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        out = Path(cfg.out_dir)
        args.func(cfg, out)
        write_manifest(cfg, out / f"manifest_{args.command}.cfg")
        if args.command in ("eval", "visualize"):
            try:
                trained = parse_config_file(out / "manifest_train.cfg").train.guidance_mode
            except (UsageError, ValueError):
                trained = "unknown"
            print(f"guidance mode: {cfg.train.guidance_mode} (manifest_train.cfg: {trained})", file=sys.stderr)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
