"""The three perfbench workloads: inputs made from the seed, timed calls,
output checks.

A workload is set up once per run (timed, repeated for ``setup_s``) and then
runs rounds until the time is up. A round is the unit that repeats with
identical inputs: one ``model.train`` call, one pass over the evaluation
grid, or one gen-data -> train -> eval -> visualize pipeline. Each timed
call is returned as a :class:`Call` with a digest of its outputs, so the run
can check that every repetition, and every run of the same code and seed,
produced the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from camloc import cli, data, fusion, metrics, model, tensor

EVAL_LINES = ("top1_cls_err", "top5_cls_err", "top1_loc_err", "top5_loc_err", "gt_known_loc_acc")
VISUALIZE_FILES = ("cam_a.pgm", "ccam.pgm", "cam_b.pgm", "fused.pgm", "overlay.ppm")


@dataclass
class Call:
    """One timed operation: a train call, an evaluate call or a CLI command."""

    key: str
    seconds: float
    digest: str = ""
    error: str = ""
    unit: int = 0  # index of the set-up or round it ran in, set by the runner


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# Bound at import, before a tracer can patch ``model.save_checkpoint``: the
# digests the benchmark takes are not the program's work and stay untraced.
_save_checkpoint = model.save_checkpoint


def _checkpoint_bytes(params, path: Path) -> bytes:
    _save_checkpoint(params, path)
    return path.read_bytes()


def _train_log(report) -> bytes:
    rows = zip(report.losses, report.acc_a, report.acc_b)
    return "".join(f"{e},{loss!r},{a!r},{b!r}\n" for e, (loss, a, b) in enumerate(rows)).encode()


def _timed_call(key: str, fn) -> tuple[Call, object]:
    """Time ``fn()``; an exception becomes the call's error."""
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        return Call(key, perf_counter() - start, error=f"{type(exc).__name__}: {exc}"), None
    return Call(key, perf_counter() - start), result


# ---------------------------------------------------------------------------
# train: model.train in-process


class TrainWorkload:
    """Training only: conv forward/backward, ``tensor.backward`` and SGD do
    the work; fusion, box extraction and imageio do none."""

    name = "train"
    num_classes = 4
    train_samples = 32
    epochs = 2  # the default TrainConfig otherwise: batch 16, lr 0.1, ccam guidance

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = model.TrainConfig(epochs=self.epochs, seed=seed)
        self.samples_per_round = self.train_samples * self.epochs

    def setup(self):
        dataset = data.DatasetConfig(
            num_classes=self.num_classes, train_samples=self.train_samples, test_samples=1, seed=self.seed
        )
        samples, _ = data.generate_dataset(dataset)
        initial = model.init_model(model.ModelConfig(num_classes=self.num_classes, seed=self.seed))
        warmup = model.TrainConfig(epochs=1, seed=self.seed)
        model.train(initial.clone(), samples[: warmup.batch_size], warmup)
        self.samples, self.initial = samples, initial
        return _sha256(_checkpoint_bytes(initial, self.workdir / "train_init.ckpt"))

    def run_round(self) -> list[Call]:
        params = self.initial.clone()
        call, report = _timed_call("train", lambda: model.train(params, self.samples, self.config))
        if report is None:
            return [call]
        if len(report.losses) != self.epochs or not all(math.isfinite(v) for v in report.losses):
            call.error = f"epoch losses not all finite: {report.losses}"
        call.digest = _sha256(_checkpoint_bytes(params, self.workdir / "train.ckpt"), _train_log(report))
        return [call]


# ---------------------------------------------------------------------------
# eval_grid: metrics.evaluate over the guidance x fusion grid

GRID = [(mode, strategy, False) for mode in model.GUIDANCE_MODES for strategy in fusion.STRATEGIES]
GRID.append(("ccam", "addition", True))  # single_branch ignores the strategy


def _grid_key(mode: str, strategy: str, single: bool) -> str:
    return f"{mode}/{'single' if single else strategy}"


def check_evaluation(report, records, test_split) -> str:
    """Empty when the report and records are consistent, else the problem."""
    n = len(test_split)
    if report.n_samples != n or len(records) != n:
        return f"n_samples={report.n_samples}, {len(records)} records for a split of {n}"
    hits = dict.fromkeys(EVAL_LINES, 0)
    for record, sample in zip(records, test_split):
        if record.true_class != sample.label or record.gt_box != sample.gt_box:
            return f"record {record.sample_id} does not match its sample"
        _, height, width = sample.image.shape
        for box in record.boxes:
            if not (0 <= box.x_min < box.x_max <= width and 0 <= box.y_min < box.y_max <= height):
                return f"record {record.sample_id}: box {box} outside the {width}x{height} image"
        truth, first = record.true_class, record.predicted[0]
        hits["top1_cls_err"] += first == truth
        hits["top5_cls_err"] += truth in record.predicted
        hits["top1_loc_err"] += first == truth and record.ious[0] >= 0.5
        hits["top5_loc_err"] += any(p == truth and v >= 0.5 for p, v in zip(record.predicted, record.ious))
        hits["gt_known_loc_acc"] += record.gt_known
    for name in EVAL_LINES:
        rate = 100.0 * hits[name] / n
        expected = rate if name == "gt_known_loc_acc" else 100.0 - rate
        if not math.isclose(getattr(report, name), expected, rel_tol=1e-9, abs_tol=1e-9):
            return f"{name}={getattr(report, name)} but the records give {expected}"
    return ""


def _evaluation_bytes(report, records) -> bytes:
    parts = [repr([getattr(report, name) for name in EVAL_LINES])]
    for r in records:
        boxes = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in r.boxes]
        parts.append(repr((r.sample_id, r.true_class, r.predicted, boxes, r.ious, r.gt_known)))
    return "\n".join(parts).encode()


class EvalGridWorkload:
    """Forward passes only, over the guidance x fusion grid plus the
    single-branch baseline: fusion, upsampling and box extraction do much of
    the work; backward and SGD do none."""

    name = "eval_grid"
    num_classes = 4
    train_samples = 64
    train_epochs = 2
    test_samples = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.samples_per_round = self.test_samples * len(GRID)

    def setup(self):
        dataset = data.DatasetConfig(
            num_classes=self.num_classes,
            train_samples=self.train_samples,
            test_samples=self.test_samples,
            seed=self.seed,
        )
        train_split, test_split = data.generate_dataset(dataset)
        params = model.init_model(model.ModelConfig(num_classes=self.num_classes, seed=self.seed))
        report = model.train(params, train_split, model.TrainConfig(epochs=self.train_epochs, seed=self.seed))
        with tensor.no_grad():
            metrics.evaluate(params, test_split[:2])
        self.params, self.test_split = params, test_split
        return _sha256(_checkpoint_bytes(params, self.workdir / "eval.ckpt"), _train_log(report))

    def run_round(self) -> list[Call]:
        calls = []
        for mode, strategy, single in GRID:
            config = fusion.FusionConfig(strategy=strategy)

            def run():
                with tensor.no_grad():
                    return metrics.evaluate(self.params, self.test_split, config, cam_mode=mode, single_branch=single)

            call, result = _timed_call(_grid_key(mode, strategy, single), run)
            if result is not None:
                call.error = check_evaluation(*result, self.test_split)
                call.digest = _sha256(_evaluation_bytes(*result))
            calls.append(call)
        return calls


# ---------------------------------------------------------------------------
# cli_pipeline: camloc.cli.main, the four commands a user runs

CLI_CONFIG = """\
[dataset]
num_classes = 8
train_samples = {train}
test_samples = {test}
seed = {seed}

[model]
seed = {seed}

[train]
epochs = {epochs}
batch_size = 4
learning_rate = 0.02
seed = {seed}
"""


class CliPipelineWorkload:
    """The path users run, with PPM and annotation I/O, checkpoint save and
    load, manifests and ``visualize``. Batch 4 (unlike ``train``'s 16) and 8
    classes, so top-5 leaves classes out."""

    name = "cli_pipeline"
    train_samples = 32
    test_samples = 16
    epochs = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.samples_per_round = self.train_samples + self.test_samples

    def _write_config(self, path: Path, train: int, test: int, epochs: int) -> Path:
        path.write_text(CLI_CONFIG.format(train=train, test=test, seed=self.seed, epochs=epochs), encoding="ascii")
        return path

    def setup(self):
        self.config = self._write_config(
            self.workdir / "cli.cfg", self.train_samples, self.test_samples, self.epochs
        )
        warmup = self._write_config(self.workdir / "cli_warmup.cfg", 8, 4, 1)
        calls = self._pipeline(warmup, self.workdir / "cli_warmup")
        failed = [f"{c.key}: {c.error}" for c in calls if c.error]
        if failed:
            raise RuntimeError(f"warm-up pipeline failed: {failed}")
        return _sha256(*(c.digest.encode() for c in calls))

    def run_round(self) -> list[Call]:
        return self._pipeline(self.config, self.workdir / "cli")

    def _pipeline(self, config: Path, out: Path) -> list[Call]:
        shutil.rmtree(out, ignore_errors=True)
        common = ["--config", str(config), "--out", str(out)]
        commands = [
            ("gen_data", ["gen-data"]),
            ("train", ["train"]),
            ("eval", ["eval", "--strategy", "l1norm"]),
            ("visualize", ["visualize"]),
        ]
        calls = []
        for key, argv in commands:
            if calls and calls[-1].error:
                calls.append(Call(key, 0.0, error="skipped: an earlier command failed"))
                continue
            stdout, stderr = io.StringIO(), io.StringIO()

            def run():
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    return cli.main(argv + common)

            call, code = _timed_call(key, run)
            if code is not None and code != 0:
                call.error = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
            if not call.error:
                call.error, call.digest = self._check(key, out, stdout.getvalue())
            calls.append(call)
        return calls

    def _check(self, key: str, out: Path, stdout: str) -> tuple[str, str]:
        """(error, digest) for one finished command."""
        if key == "gen_data":
            files = sorted(f for f in (out / "dataset").rglob("*") if f.is_file())
            return "", _sha256(*(str(f.relative_to(out)).encode() + f.read_bytes() for f in files))
        if key == "train":
            return "", _sha256((out / "checkpoint.bin").read_bytes(), (out / "train_log.csv").read_bytes())
        if key == "eval":
            lines = stdout.splitlines()
            names = [line.partition("=")[0] for line in lines]
            if names != list(EVAL_LINES) or not all(_is_number(line.partition("=")[2]) for line in lines):
                return f"eval printed {lines!r}, not the five name=value lines", ""
            records = (out / "records_ccam_l1norm.csv").read_bytes()
            rows = records.count(b"\n")
            tests = (out / "dataset" / "test" / "annotations.csv").read_bytes().count(b"\n")
            if rows != tests:
                return f"records CSV has {rows} rows for {tests} test samples", ""
            return "", _sha256(stdout.encode(), records)
        missing = [name for name in VISUALIZE_FILES if not (out / name).is_file()]
        if missing:
            return f"visualize did not write {missing}", ""
        return "", _sha256(*((out / name).read_bytes() for name in VISUALIZE_FILES))


def _is_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalGridWorkload, CliPipelineWorkload)}
