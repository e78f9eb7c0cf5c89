"""Command-line pipeline: gen-data, train, eval, visualize.

Configuration comes from an INI-style ``key = value`` file plus flag
overrides; every command drops a manifest of the effective configuration
into the output directory. Exit codes: 0 success, 1 usage error, 2 data or
I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cam import class_map, complement, normalize_minmax
from .data import DatasetConfig, Sample, generate_dataset, read_annotations, write_annotations
from .fusion import STRATEGIES, FusionConfig
from .imageio import atomic_write, read_ppm, write_pgm, write_ppm
from .metrics import evaluate, localize, write_records
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
    backbone_channels: tuple[int, ...] = (16, 32, 64)
    head_width: int = 64
    model_seed: int = 7
    train: TrainConfig = field(default_factory=TrainConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    bbox_tau: float = 0.2
    single_branch: bool = False
    sample_index: int = 0
    out_dir: str = "camloc_out"

    def __post_init__(self):
        self.backbone_channels = tuple(self.backbone_channels)
        if not 0.0 < self.bbox_tau < 1.0:
            raise ValueError(f"bbox_tau must lie in (0, 1), got {self.bbox_tau}")
        if self.sample_index < 0:
            raise ValueError(f"sample index must be >= 0, got {self.sample_index}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            num_classes=self.dataset.num_classes,
            input_size=self.dataset.image_size,
            backbone_channels=self.backbone_channels,
            head_width=self.head_width,
            seed=self.model_seed,
        )


# ---------------------------------------------------------------------------
# config file <-> RunConfig

_BOOLEANS = {"true": True, "false": False}


def _parse_value(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            if raw.lower() not in _BOOLEANS:
                raise ValueError(f"expected true/false, got '{raw}'")
            return _BOOLEANS[raw.lower()]
        return kind(raw)
    except ValueError as exc:
        raise UsageError(f"config [{section}] {key}: {exc}") from exc


def parse_config_file(path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config file {path}: {exc}") from exc

    cfg = RunConfig()
    dataset_kwargs: dict = {}
    train_kwargs: dict = {}
    fusion_kwargs: dict = {}
    scalars: dict = {}

    handlers = {
        ("dataset", "num_classes"): (int, lambda v: dataset_kwargs.update(num_classes=v)),
        ("dataset", "train_samples"): (int, lambda v: dataset_kwargs.update(train_samples=v)),
        ("dataset", "test_samples"): (int, lambda v: dataset_kwargs.update(test_samples=v)),
        ("dataset", "image_size"): (int, lambda v: dataset_kwargs.update(image_size=(v, v))),
        ("dataset", "seed"): (int, lambda v: dataset_kwargs.update(seed=v)),
        ("dataset", "head_min"): (int, lambda v: dataset_kwargs.setdefault("_head", [8, 12]).__setitem__(0, v)),
        ("dataset", "head_max"): (int, lambda v: dataset_kwargs.setdefault("_head", [8, 12]).__setitem__(1, v)),
        ("dataset", "body_min"): (int, lambda v: dataset_kwargs.setdefault("_body", [20, 32]).__setitem__(0, v)),
        ("dataset", "body_max"): (int, lambda v: dataset_kwargs.setdefault("_body", [20, 32]).__setitem__(1, v)),
        ("dataset", "noise_amplitude"): (float, lambda v: dataset_kwargs.update(noise_amplitude=v)),
        ("model", "backbone_channels"): (str, lambda v: scalars.update(backbone_channels=v)),
        ("model", "head_width"): (int, lambda v: scalars.update(head_width=v)),
        ("model", "seed"): (int, lambda v: scalars.update(model_seed=v)),
        ("train", "epochs"): (int, lambda v: train_kwargs.update(epochs=v)),
        ("train", "batch_size"): (int, lambda v: train_kwargs.update(batch_size=v)),
        ("train", "learning_rate"): (float, lambda v: train_kwargs.update(learning_rate=v)),
        ("train", "guidance_mode"): (str, lambda v: train_kwargs.update(guidance_mode=v)),
        ("train", "erase_threshold"): (float, lambda v: train_kwargs.update(erase_threshold=v)),
        ("train", "seed"): (int, lambda v: train_kwargs.update(seed=v)),
        ("fusion", "strategy"): (str, lambda v: fusion_kwargs.update(strategy=v)),
        ("fusion", "block_radius"): (int, lambda v: fusion_kwargs.update(block_radius=v)),
        ("eval", "bbox_tau"): (float, lambda v: scalars.update(bbox_tau=v)),
        ("eval", "single_branch"): (bool, lambda v: scalars.update(single_branch=v)),
        ("eval", "sample"): (int, lambda v: scalars.update(sample_index=v)),
        ("output", "out_dir"): (str, lambda v: scalars.update(out_dir=v)),
    }

    for section in parser.sections():
        for key, raw in parser.items(section):
            handler = handlers.get((section, key))
            if handler is None:
                raise UsageError(f"unknown config key [{section}] {key}")
            kind, apply = handler
            apply(_parse_value(section, key, raw, kind))

    if "_head" in dataset_kwargs:
        dataset_kwargs["head_size"] = tuple(dataset_kwargs.pop("_head"))
    if "_body" in dataset_kwargs:
        dataset_kwargs["body_size"] = tuple(dataset_kwargs.pop("_body"))
    if "backbone_channels" in scalars:
        try:
            scalars["backbone_channels"] = tuple(int(p) for p in scalars["backbone_channels"].split(","))
        except ValueError as exc:
            raise UsageError(f"config [model] backbone_channels: {exc}") from exc

    try:
        return replace(
            cfg,
            dataset=DatasetConfig(**dataset_kwargs),
            train=TrainConfig(**train_kwargs),
            fusion=FusionConfig(**fusion_kwargs),
            **scalars,
        )
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def write_manifest(cfg: RunConfig, path) -> None:
    d, t, f = cfg.dataset, cfg.train, cfg.fusion
    lines = [
        "[dataset]",
        f"num_classes = {d.num_classes}",
        f"train_samples = {d.train_samples}",
        f"test_samples = {d.test_samples}",
        f"image_size = {d.image_size[0]}",
        f"seed = {d.seed}",
        f"head_min = {d.head_size[0]}",
        f"head_max = {d.head_size[1]}",
        f"body_min = {d.body_size[0]}",
        f"body_max = {d.body_size[1]}",
        f"noise_amplitude = {d.noise_amplitude!r}",
        "",
        "[model]",
        f"backbone_channels = {','.join(str(c) for c in cfg.backbone_channels)}",
        f"head_width = {cfg.head_width}",
        f"seed = {cfg.model_seed}",
        "",
        "[train]",
        f"epochs = {t.epochs}",
        f"batch_size = {t.batch_size}",
        f"learning_rate = {t.learning_rate!r}",
        f"guidance_mode = {t.guidance_mode}",
        f"erase_threshold = {t.erase_threshold!r}",
        f"seed = {t.seed}",
        "",
        "[fusion]",
        f"strategy = {f.strategy}",
        f"block_radius = {f.block_radius}",
        "",
        "[eval]",
        f"bbox_tau = {cfg.bbox_tau!r}",
        f"single_branch = {'true' if cfg.single_branch else 'false'}",
        f"sample = {cfg.sample_index}",
        "",
        "[output]",
        f"out_dir = {cfg.out_dir}",
        "",
    ]
    with atomic_write(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


# ---------------------------------------------------------------------------
# dataset on disk


def _split_dir(cfg: RunConfig, split: str) -> Path:
    return Path(cfg.out_dir) / "dataset" / split


def _save_split(samples: list[Sample], directory: Path, split: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, sample in enumerate(samples):
        filename = f"{split}_{i:05d}.ppm"
        write_ppm(sample.image, directory / filename)
        rows.append((filename, sample.label, sample.gt_box))
    write_annotations(rows, directory / "annotations.csv")


def _load_split(cfg: RunConfig, split: str) -> list[Sample]:
    directory = _split_dir(cfg, split)
    annotations = directory / "annotations.csv"
    if not annotations.exists():
        raise DataError(f"missing dataset split '{split}': {annotations} not found (run gen-data first)")
    size = cfg.dataset.image_size
    try:
        rows = read_annotations(annotations, cfg.dataset.num_classes, size)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    samples = []
    for filename, label, box in rows:
        image = read_ppm(directory / filename)
        if image.shape[1:] != size:
            raise DataError(
                f"{directory / filename}: image is {image.shape[2]}x{image.shape[1]}, "
                f"but [dataset] image_size is {size[1]}x{size[0]}"
            )
        samples.append(Sample(image, label, box))
    return samples


def _checkpoint_path(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "checkpoint.bin"


def _load_params(cfg: RunConfig):
    path = _checkpoint_path(cfg)
    if not path.exists():
        raise DataError(f"missing checkpoint: {path} not found (run train first)")
    params = load_checkpoint(path)
    if params.num_classes != cfg.dataset.num_classes:
        raise DataError(
            f"checkpoint {path} has {params.num_classes} classes but the dataset has {cfg.dataset.num_classes}"
        )
    expected = param_shapes(cfg.model_config())
    found = {name: tensor.shape for name, tensor in params.tensors.items()}
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


def cmd_gen_data(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_split, test_split = generate_dataset(cfg.dataset)
    _save_split(train_split, _split_dir(cfg, "train"), "train")
    _save_split(test_split, _split_dir(cfg, "test"), "test")
    write_manifest(cfg, out / "manifest_gen-data.cfg")
    print(f"wrote {len(train_split)} train / {len(test_split)} test samples to {out / 'dataset'}")


def cmd_train(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    write_manifest(cfg, out / "manifest_train.cfg")
    print(f"checkpoint written to {_checkpoint_path(cfg)}")


def cmd_eval(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = _load_params(cfg)
    samples = _load_split(cfg, "test")
    report, records = evaluate(
        params,
        samples,
        fusion_config=cfg.fusion,
        tau=cfg.bbox_tau,
        cam_mode=cfg.train.guidance_mode,
        erase_threshold=cfg.train.erase_threshold,
        single_branch=cfg.single_branch,
    )
    variant = "single" if cfg.single_branch else cfg.fusion.strategy
    write_records(records, out / f"records_{cfg.train.guidance_mode}_{variant}.csv")
    write_manifest(cfg, out / "manifest_eval.cfg")
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


def cmd_visualize(cfg: RunConfig) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = _load_params(cfg)
    samples = _load_split(cfg, "test")
    if cfg.sample_index >= len(samples):
        raise DataError(f"sample {cfg.sample_index} out of range: test split has {len(samples)} samples")
    sample = samples[cfg.sample_index]
    height, width = sample.image.shape[1:]

    score_a, score_b, logits_a, logits_b = predict_maps(
        params, sample.image[None], cfg.train.guidance_mode, cfg.train.erase_threshold
    )
    predicted = int(np.argmax((logits_a[0] + logits_b[0]) / 2))
    (box,), fused_full = localize(
        score_a, score_b, [0], [predicted], cfg.fusion, (height, width), cfg.bbox_tau, cfg.single_branch
    )
    cam_a = normalize_minmax(class_map(score_a[0], predicted))
    cam_b = normalize_minmax(class_map(score_b[0], predicted))
    maps = upsample_bilinear(np.stack([cam_a.values, complement(cam_a).values, cam_b.values]), height, width)
    for name, values in zip(("cam_a", "ccam", "cam_b"), maps):
        write_pgm(values, out / f"{name}.pgm")
    write_pgm(fused_full[0], out / "fused.pgm")

    overlay = sample.image.copy()
    _draw_box_outline(overlay, sample.gt_box, channel=0)  # ground truth in red
    _draw_box_outline(overlay, box, channel=2)  # prediction in blue
    write_ppm(overlay, out / "overlay.ppm")

    write_manifest(cfg, out / "manifest_visualize.cfg")
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
        p.add_argument("--strategy", choices=STRATEGIES, help="fusion strategy")
        p.add_argument("--cam-mode", choices=GUIDANCE_MODES, help="guidance map type")
        p.add_argument("--erase-threshold", type=float, metavar="DELTA")
        p.add_argument("--bbox-tau", type=float, metavar="TAU", help="box binarization fraction")
        p.add_argument("--single-branch", action="store_true", default=None, help="use branch A's map alone")
        p.add_argument("--sample", type=int, metavar="N", help="test-split sample index (visualize)")
        p.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def _build_config(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    try:
        if args.seed is not None:
            cfg = replace(
                cfg,
                dataset=replace(cfg.dataset, seed=args.seed),
                model_seed=args.seed,
                train=replace(cfg.train, seed=args.seed),
            )
        if args.strategy is not None:
            cfg = replace(cfg, fusion=replace(cfg.fusion, strategy=args.strategy))
        if args.cam_mode is not None:
            cfg = replace(cfg, train=replace(cfg.train, guidance_mode=args.cam_mode))
        if args.erase_threshold is not None:
            cfg = replace(cfg, train=replace(cfg.train, erase_threshold=args.erase_threshold))
        if args.bbox_tau is not None:
            cfg = replace(cfg, bbox_tau=args.bbox_tau)
        if args.single_branch is not None:
            cfg = replace(cfg, single_branch=True)
        if args.sample is not None:
            cfg = replace(cfg, sample_index=args.sample)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
    except ValueError as exc:
        raise UsageError(f"invalid option: {exc}") from exc
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        args.func(cfg)
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
