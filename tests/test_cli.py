import math
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camloc import cli, forward, load_checkpoint, read_pgm, read_ppm, save_checkpoint, write_ppm
from camloc.cam import class_map, complement, normalize_minmax, threshold_erase
from camloc.cli import RunConfig, main, parse_config_file, write_manifest
from camloc.metrics import evaluate, localize, write_records
from camloc.model import NumericError
from camloc.tensor import upsample_bilinear

import oracles

SMALL_CONFIG = """
[dataset]
num_classes = 4
train_samples = 16
test_samples = 8
image_size = 32
seed = 3
head_min = 5
head_max = 6
body_min = 9
body_max = 12

[model]
backbone_channels = 8,8,8
head_width = 8
seed = 3

[train]
epochs = 2
batch_size = 4
learning_rate = 0.01
seed = 3
"""


@pytest.fixture
def small_cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


# for every [section] key of the schema: one valid value away from the
# default, and the RunConfig field it must set, with that field's value
NON_DEFAULT = {
    ("dataset", "num_classes"): ("6", lambda c: c.dataset.num_classes, 6),
    ("dataset", "train_samples"): ("100", lambda c: c.dataset.train_samples, 100),
    ("dataset", "test_samples"): ("50", lambda c: c.dataset.test_samples, 50),
    ("dataset", "image_size"): ("32", lambda c: c.dataset.image_size, (32, 32)),
    ("dataset", "seed"): ("11", lambda c: c.dataset.seed, 11),
    ("dataset", "head_min"): ("9", lambda c: c.dataset.head_size, (9, 12)),
    ("dataset", "head_max"): ("15", lambda c: c.dataset.head_size, (8, 15)),
    ("dataset", "body_min"): ("16", lambda c: c.dataset.body_size, (16, 32)),
    ("dataset", "body_max"): ("40", lambda c: c.dataset.body_size, (20, 40)),
    ("dataset", "noise_amplitude"): ("0.25", lambda c: c.dataset.noise_amplitude, 0.25),
    ("model", "backbone_channels"): ("8,16", lambda c: c.backbone_channels, (8, 16)),
    ("model", "head_width"): ("32", lambda c: c.head_width, 32),
    ("model", "seed"): ("5", lambda c: c.model_seed, 5),
    ("train", "epochs"): ("3", lambda c: c.train.epochs, 3),
    ("train", "batch_size"): ("8", lambda c: c.train.batch_size, 8),
    ("train", "learning_rate"): ("0.03", lambda c: c.train.learning_rate, 0.03),
    ("train", "guidance_mode"): ("threshold", lambda c: c.train.guidance_mode, "threshold"),
    ("train", "erase_threshold"): ("0.45", lambda c: c.train.erase_threshold, 0.45),
    ("train", "seed"): ("9", lambda c: c.train.seed, 9),
    ("fusion", "strategy"): ("l1norm", lambda c: c.fusion.strategy, "l1norm"),
    ("fusion", "block_radius"): ("2", lambda c: c.fusion.block_radius, 2),
    ("eval", "bbox_tau"): ("0.35", lambda c: c.bbox_tau, 0.35),
    ("eval", "sample"): ("4", lambda c: c.sample_index, 4),
    # '%' is literal, not interpolation
    ("output", "out_dir"): ("runs/100%", lambda c: c.out_dir, "runs/100%"),
}


def manifest_entries(text):
    """{(section, key): raw value} of a manifest's lines."""
    entries, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            key, raw = line.split(" = ", 1)
            entries[section, key] = raw
    return entries


def run(*argv):
    return main(list(argv))


class TestConfigFile:
    def test_manifest_round_trip(self, tmp_path, small_cfg_file):
        cfg = parse_config_file(small_cfg_file)
        manifest = tmp_path / "manifest.cfg"
        write_manifest(cfg, manifest)
        assert parse_config_file(str(manifest)) == cfg

    def test_default_round_trip(self, tmp_path):
        cfg = RunConfig()
        manifest = tmp_path / "manifest.cfg"
        write_manifest(cfg, manifest)
        assert parse_config_file(str(manifest)) == cfg

    def test_every_key_has_a_non_default_case(self, tmp_path):
        write_manifest(RunConfig(), tmp_path / "manifest.cfg")
        assert list(manifest_entries((tmp_path / "manifest.cfg").read_text())) == list(NON_DEFAULT)

    @pytest.mark.parametrize("section, key", list(NON_DEFAULT))
    def test_each_key_round_trips(self, tmp_path, section, key):
        raw, field, value = NON_DEFAULT[section, key]
        path = tmp_path / "one.cfg"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        cfg = parse_config_file(str(path))
        assert field(RunConfig()) != value
        assert field(cfg) == value
        manifest = tmp_path / "manifest.cfg"
        write_manifest(cfg, manifest)
        assert parse_config_file(str(manifest)) == cfg
        assert manifest_entries(manifest.read_text())[section, key] == raw

    @pytest.mark.parametrize(
        "flag, keys",
        [
            (["--seed", "13"], [("dataset", "seed"), ("model", "seed"), ("train", "seed")]),
            (["--strategy", "max"], [("fusion", "strategy")]),
            (["--cam-mode", "threshold"], [("train", "guidance_mode")]),
            (["--erase-threshold", "0.3"], [("train", "erase_threshold")]),
            (["--bbox-tau", "0.4"], [("eval", "bbox_tau")]),
            (["--strategy", "single"], [("fusion", "strategy")]),
            (["--sample", "5"], [("eval", "sample")]),
        ],
    )
    def test_flag_overrides_its_keys(self, tmp_path, small_cfg_file, flag, keys):
        write_manifest(parse_config_file(small_cfg_file), tmp_path / "file.cfg")
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, *flag, "--out", str(out)) == 0
        before = manifest_entries((tmp_path / "file.cfg").read_text())
        after = manifest_entries((out / "manifest_gen-data.cfg").read_text())
        assert {k for k in before if before[k] != after[k]} == {*keys, ("output", "out_dir")}
        assert after["output", "out_dir"] == str(out)
        assert {after[k] for k in keys} == {flag[1]}

    def test_readme_example_is_the_default_manifest(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Config files are flat INI", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        write_manifest(RunConfig(), tmp_path / "manifest.cfg")
        assert (tmp_path / "manifest.cfg").read_text(encoding="utf-8") == block

    def test_readme_flag_table_matches_the_cli(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| flag | overrides |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines():
            flag, overrides = line.strip("|").split("|")
            dest = re.fullmatch(r" `--([a-z-]+)( \w+)?` ", flag)[1].replace("-", "_")
            documented[dest] = set(re.findall(r"`\[(\w+)\] (\w+)`", overrides))
        key_of = {target: key for key, (target, _, _) in cli._SCHEMA.items()}
        assert documented == {dest: {key_of[path] for path in paths} for dest, paths in cli._FLAG_PATHS.items()}
        # every flag but --config overrides keys, and the table names them all
        parsed = vars(cli._build_parser().parse_args(["gen-data"]))
        assert set(parsed) - {"command", "func", "config"} == set(documented)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nepochs = 0\n", "[DEFAULT]\nseed = 3\n\n[dataset]\nnum_classes = 4\n"])
    def test_default_section_key_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert run("gen-data", "--config", str(path), "--out", str(tmp_path / "run")) == 1
        assert "unknown config key [DEFAULT]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out_dir", [" x", "y ", "\tx", "x\x85", "a\nb", "a\rb", "a\r\nb", "a\n"])
    def test_out_dir_a_manifest_cannot_hold_is_refused(self, capsys, monkeypatch, tmp_path, out_dir):
        # INI strips a value's outer whitespace and reads a line break as a
        # continuation, so the manifest would not re-parse to this out_dir
        with pytest.raises(ValueError, match="out_dir"):
            RunConfig(out_dir=out_dir)
        monkeypatch.chdir(tmp_path)
        assert run("gen-data", "--out", out_dir) == 1
        assert "out_dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_dir", ["a\tb", "a\x85b", "a;b", ";a", "a#b", "#a", "a\x00b", ""])
    def test_out_dir_round_trips(self, tmp_path, out_dir):
        cfg = RunConfig(out_dir=out_dir)
        write_manifest(cfg, tmp_path / "manifest.cfg")
        assert parse_config_file(str(tmp_path / "manifest.cfg")) == cfg

    @pytest.mark.parametrize(
        "text, flags, named",
        [
            ("", ["--seed", "-1"], "seed must be >= 0, got -1"),
            ("[dataset]\nseed = -1\n", [], "seed must be >= 0, got -1"),
            ("[model]\nseed = -1\n", [], "seed must be >= 0, got -1"),
            ("[train]\nseed = -1\n", [], "seed must be >= 0, got -1"),
            ("[model]\nhead_width = 0\n", [], "head_width must be >= 1"),
            ("[dataset]\nimage_size = 60\n", [], "image size 60x60 must be divisible by 8"),
            ("[model]\nhead_width = 0\n[dataset]\nimage_size = 60\n", [], "head_width must be >= 1"),
            ("[dataset]\nimage_size = 0\n", [], "image_size must be >= 1, got (0, 0)"),
            ("[dataset]\nimage_size = -8\n", [], "image_size must be >= 1, got (-8, -8)"),
            ("[eval]\nbbox_tau = 1.5\n", [], "bbox_tau must lie in (0, 1), got 1.5"),
            ("[eval]\nsingle_branch = true\n", [], "unknown config key [eval] single_branch"),
            ("", ["--single-branch"], "unrecognized arguments: --single-branch"),
            ("[dataset]\nnum_classes = 1\n", [], "num_classes must be >= 2, got 1"),
            ("[dataset]\ntrain_samples = 0\n", [], "both splits need at least one sample"),
            ("[model]\nbackbone_channels = 8,0\n", [], "backbone_channels must be positive, got (8, 0)"),
            ("[train]\nbatch_size = 0\n", [], "batch_size must be >= 1, got 0"),
            ("", ["--sample", "-1"], "sample index must be >= 0, got -1"),
        ],
        ids=[
            "seed-flag", "dataset-seed", "model-seed", "train-seed", "head-width", "image-size", "both",
            "image-size-zero", "image-size-negative", "bbox-tau", "single-branch", "single-branch-flag",
            "num-classes", "train-samples", "backbone-channels", "batch-size", "sample-flag",
        ],
    )
    def test_invalid_setting_is_usage_error_before_any_work(self, capsys, tmp_path, text, flags, named):
        # refused when the configuration is built, not when train reads it
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "run"
        assert run("gen-data", "--config", str(path), *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dataset]\nnum_clases = 4\n")
        assert run("gen-data", "--config", str(path)) == 1

    def test_config_not_utf8_rejected(self, capsys, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("[dataset]\n# caf\u00e9\nseed = 3\n".encode("latin-1"))
        out = tmp_path / "run"
        assert run("gen-data", "--config", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config file ") and str(path) in err and err.count("\n") == 1
        assert not out.exists()

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nlearning_rate = fast\n")
        assert run("train", "--config", str(path)) == 1

    def test_missing_config_file(self):
        assert run("train", "--config", "/nonexistent/path.cfg") == 1


COMMANDS = ("gen-data", "train", "eval", "visualize")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The four commands run one after another on SMALL_CONFIG."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    out = root / "run"
    for command in COMMANDS:
        assert run(command, "--config", str(cfg_path), "--out", str(out)) == 0
    return str(cfg_path), out


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_written_only_on_success(tmp_path, pipeline_run, command):
    cfg_path, out = pipeline_run
    write_manifest(replace(parse_config_file(cfg_path), out_dir=str(out)), tmp_path / "expected.cfg")
    assert (out / f"manifest_{command}.cfg").read_bytes() == (tmp_path / "expected.cfg").read_bytes()
    # a 'dataset' file in the way fails every command with a data or I/O error
    failed = tmp_path / "failed"
    failed.mkdir()
    (failed / "dataset").write_text("not a directory\n")
    assert run(command, "--config", cfg_path, "--out", str(failed)) == 2
    assert sorted(p.name for p in failed.iterdir()) == ["dataset"]


@pytest.mark.parametrize("command", COMMANDS)
def test_failing_command_creates_no_out_directory(capsys, tmp_path, command):
    # gen-data fails while generating (no body fits a 16x16 image); the
    # others find no dataset or checkpoint in the mistyped workspace
    path = tmp_path / "tiny.cfg"
    path.write_text("[dataset]\nimage_size = 16\n\n[model]\nbackbone_channels = 4\n")
    assert run(command, "--config", str(path), "--out", str(tmp_path / "typo" / "run")) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [path]


class TestGenData:
    def test_writes_images_annotations_manifest(self, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
        assert (out / "dataset" / "train" / "train_00000.ppm").exists()
        assert (out / "dataset" / "train" / "annotations.csv").exists()
        assert (out / "dataset" / "test" / "annotations.csv").exists()
        manifest = out / "manifest_gen-data.cfg"
        assert manifest.exists()
        cfg = parse_config_file(str(manifest))
        assert cfg.dataset.train_samples == 16
        image = read_ppm(out / "dataset" / "train" / "train_00000.ppm")
        assert image.shape == (3, 32, 32)

    def test_deterministic_across_runs(self, tmp_path, small_cfg_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out_a)) == 0
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out_b)) == 0
        img_a = (out_a / "dataset" / "train" / "train_00003.ppm").read_bytes()
        img_b = (out_b / "dataset" / "train" / "train_00003.ppm").read_bytes()
        assert img_a == img_b

    def test_interrupted_run_leaves_no_readable_split(self, capsys, monkeypatch, tmp_path, small_cfg_file):
        # a run over an older dataset that fails at its fourth image must not
        # leave the old annotations beside the new images
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
        writes = []

        def failing_write_ppm(image, path):
            writes.append(path)
            if len(writes) == 4:
                raise OSError("disk full")
            write_ppm(image, path)

        monkeypatch.setattr(cli, "write_ppm", failing_write_ppm)
        assert run("gen-data", "--config", small_cfg_file, "--seed", "8", "--out", str(out)) == 2
        monkeypatch.undo()
        capsys.readouterr()
        assert run("train", "--config", small_cfg_file, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "missing dataset split 'train'" in err and err.count("\n") == 1, err


class TestTrainCommand:
    def test_missing_dataset_is_data_error(self, tmp_path, small_cfg_file):
        assert run("train", "--config", small_cfg_file, "--out", str(tmp_path / "void")) == 2

    def test_train_writes_checkpoint_and_log(self, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
        assert run("train", "--config", small_cfg_file, "--out", str(out)) == 0
        assert (out / "checkpoint.bin").exists()
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) == 2  # exactly `epochs` rows
        assert log[0].startswith("0,")

    def test_zero_lr_checkpoint_equals_initialization(self, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(SMALL_CONFIG.replace("learning_rate = 0.01", "learning_rate = 0.0"))
        assert run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 0
        assert run("train", "--config", str(cfg_path), "--out", str(out)) == 0
        from camloc import init_model

        cfg = parse_config_file(str(cfg_path))
        reference = tmp_path / "init.bin"
        save_checkpoint(init_model(cfg.model_config()), reference)
        assert (out / "checkpoint.bin").read_bytes() == reference.read_bytes()

    def test_identical_rerun_identical_log_bytes(self, tmp_path, small_cfg_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
            assert run("train", "--config", small_cfg_file, "--out", str(out)) == 0
        assert (out_a / "train_log.csv").read_bytes() == (out_b / "train_log.csv").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()

    def test_numeric_failure_exit_code(self, monkeypatch, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
        import camloc.cli as cli_mod

        def explode(*args, **kwargs):
            raise NumericError("non-finite loss at epoch 0")

        monkeypatch.setattr(cli_mod, "train", explode)
        assert run("train", "--config", small_cfg_file, "--out", str(out)) == 3


    @pytest.mark.parametrize(
        "old, new",
        [
            ("learning_rate = 0.01", "learning_rate = nan"),
            ("learning_rate = 0.01", "learning_rate = inf"),
            ("epochs = 2", "epochs = 0"),
        ],
    )
    def test_invalid_train_setting_is_one_line_usage_error(self, capsys, tmp_path, old, new):
        # a non-finite learning rate is refused as zero epochs are: before
        # any dataset is read
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(SMALL_CONFIG.replace(old, new))
        assert run("train", "--config", str(cfg_path), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: invalid configuration: "), err

    def test_diverging_run_is_one_line_numeric_failure(self, tmp_path):
        # a fresh process, so that a numpy warning would reach stderr as it
        # does for a user
        cfg_path = tmp_path / "diverge.cfg"
        cfg_text = SMALL_CONFIG.replace("train_samples = 16", "train_samples = 8")
        cfg_path.write_text(cfg_text.replace("learning_rate = 0.01", "learning_rate = 1e10"))
        out = tmp_path / "run"
        assert run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "camloc.cli", "train", "--config", str(cfg_path), "--out", str(out)]
        result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 3, result.stderr
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("numeric failure: "), result.stderr
        assert not (out / "checkpoint.bin").exists()


class TestAnnotationValidation:
    """A split whose annotations or images do not fit the configured dataset
    is a data error (exit 2) that names the file, not an IndexError."""

    def corrupt_line(self, out, split, line_no, edit):
        path = out / "dataset" / split / "annotations.csv"
        lines = path.read_text().splitlines()
        fields = lines[line_no - 1].split(",")
        edit(fields)
        lines[line_no - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    def test_class_id_out_of_range(self, capsys, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
        self.corrupt_line(out, "train", 3, lambda f: f.__setitem__(1, "9"))
        assert run("train", "--config", small_cfg_file, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "annotations.csv: line 3: class 9 outside [0, 4)" in err
        assert not (out / "checkpoint.bin").exists()

    def test_box_outside_image(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        self.corrupt_line(out, "test", 2, lambda f: f.__setitem__(4, "65"))
        assert run("eval", "--config", cfg_path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "annotations.csv: line 2: box" in err and "outside the 64x64 image" in err

    def test_image_size_differs_from_config(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        write_ppm(np.zeros((3, 32, 48), dtype=np.float32), out / "dataset" / "test" / "test_00001.ppm")
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--sample", "1") == 2
        err = capsys.readouterr().err
        assert "test_00001.ppm: image is 48x32, but [dataset] image_size is 64x64" in err


@pytest.fixture
def oracle_run(tmp_path):
    """Dataset plus a hand-built objectness checkpoint, ready for eval."""
    out = tmp_path / "run"
    cfg_text = SMALL_CONFIG.replace("image_size = 32", "image_size = 64")
    cfg_text = cfg_text.replace("head_min = 5", "head_min = 10").replace("head_max = 6", "head_max = 12")
    cfg_text = cfg_text.replace("body_min = 9", "body_min = 28").replace("body_max = 12", "body_max = 32")
    cfg_text = cfg_text.replace("backbone_channels = 8,8,8", "backbone_channels = 4,4,4")
    cfg_text = cfg_text.replace("head_width = 8", "head_width = 4")
    cfg_path = tmp_path / "oracle.cfg"
    cfg_path.write_text(cfg_text)
    assert run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 0
    save_checkpoint(oracles.objectness_params(), out / "checkpoint.bin")
    return str(cfg_path), out


class TestEvalCommand:
    def test_oracle_model_reaches_perfect_gt_known(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        code = run("eval", "--config", cfg_path, "--out", str(out), "--strategy", "single", "--bbox-tau", "0.5")
        assert code == 0
        metrics = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines() if "=" in line
        )
        assert float(metrics["gt_known_loc_acc"]) == 100.0
        assert set(metrics) == {
            "top1_cls_err", "top5_cls_err", "top1_loc_err", "top5_loc_err", "gt_known_loc_acc"
        }
        assert (out / "records_ccam_single.csv").exists()

    def test_records_dump_format(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("eval", "--config", cfg_path, "--out", str(out), "--strategy", "addition", "--bbox-tau", "0.5") == 0
        capsys.readouterr()
        lines = (out / "records_ccam_addition.csv").read_text().strip().splitlines()
        assert len(lines) == 8  # test split size
        fields = lines[0].split(",")
        # id, true, 4 preds, 4 ious, flag
        assert len(fields) == 2 + 4 + 4 + 1
        assert fields[0] == "00000"
        assert fields[-1] in ("0", "1")

    def test_single_strategy_records_equal_single_branch_evaluate(self, capsys, tmp_path, oracle_run):
        cfg_path, out = oracle_run
        assert run("eval", "--config", cfg_path, "--out", str(out), "--strategy", "single") == 0
        cfg = replace(parse_config_file(cfg_path), out_dir=str(out))
        _, records = evaluate(load_checkpoint(out / "checkpoint.bin"), cli._load_split(cfg, "test"), single_branch=True)
        write_records(records, tmp_path / "expected.csv")
        assert (out / "records_ccam_single.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_unknown_strategy_is_usage_error(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("eval", "--config", cfg_path, "--out", str(out), "--strategy", "conv") == 1
        err = capsys.readouterr().err
        assert "max" in err and "addition" in err and "l1norm" in err

    def test_missing_checkpoint_is_data_error(self, tmp_path, small_cfg_file):
        out = tmp_path / "run"
        assert run("gen-data", "--config", small_cfg_file, "--out", str(out)) == 0
        assert run("eval", "--config", small_cfg_file, "--out", str(out)) == 2


    def test_class_count_mismatch_is_data_error(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        save_checkpoint(oracles.objectness_params(num_classes=3), out / "checkpoint.bin")
        for command in ("eval", "visualize"):
            assert run(command, "--config", cfg_path, "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert "3 classes" in err and "has 4" in err

    def test_missing_or_extra_tensor_is_data_error(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        params = oracles.objectness_params()
        del params.tensors["branch_b.conv2.weight"]
        save_checkpoint(params, out / "checkpoint.bin")
        assert run("eval", "--config", cfg_path, "--out", str(out)) == 2
        assert "lacks tensor branch_b.conv2.weight" in capsys.readouterr().err
        params = oracles.objectness_params()
        params.tensors["branch_c.score.bias"] = params["branch_b.score.bias"]
        save_checkpoint(params, out / "checkpoint.bin")
        assert run("visualize", "--config", cfg_path, "--out", str(out)) == 2
        assert "has tensor branch_c.score.bias" in capsys.readouterr().err

    def test_misshaped_tensor_is_data_error(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        params = oracles.objectness_params()
        params.tensors["branch_a.conv1.weight"].data = np.zeros((4, 3, 3, 3), dtype=np.float32)
        save_checkpoint(params, out / "checkpoint.bin")
        assert run("eval", "--config", cfg_path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "branch_a.conv1.weight has shape (4, 3, 3, 3)" in err and "(4, 4, 3, 3)" in err

    def test_non_finite_weight_is_numeric_failure(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        params = oracles.objectness_params()
        params["backbone.0.weight"].data[0, 0, 0, 0] = np.nan
        save_checkpoint(params, out / "checkpoint.bin")
        assert run("eval", "--config", cfg_path, "--out", str(out)) == 3
        assert "non-finite" in capsys.readouterr().err


def run_quietly(capsys, *argv):
    """Run the CLI and return its exit code and stderr. A failure must print
    exactly one line and no numpy or Python warning."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print lines of its own
        code = run(*argv)
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    if code != 0:
        assert err.count("\n") == 1 and err.startswith(("error: ", "numeric failure: ")), err
    return code, err


def checkpoint_header_bytes(blob: bytes) -> set[int]:
    """Offsets of every byte of a checkpoint that is not tensor data: the
    file header, and each tensor's name length, name, rank and dims."""
    header = set(range(12))
    offset = 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        ndim = blob[offset + 2 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", blob, offset + 3 + name_len)
        end = offset + 3 + name_len + 4 * ndim
        header.update(range(offset, end))
        offset = end + 4 * math.prod(dims)
    return header


class TestCorruptCheckpoint:
    """A truncated or bit-flipped checkpoint gives exit 2 or 3 and a one-line
    error; an exception escaping ``main`` fails the test. A flip inside
    tensor data may leave a valid checkpoint, so there exit 0 is allowed
    too."""

    @pytest.fixture
    def eval_run(self, oracle_run):
        cfg_path, out = oracle_run
        (out / "intact.bin").write_bytes((out / "checkpoint.bin").read_bytes())
        return oracle_run

    def run_eval(self, capsys, cfg_path, out, blob):
        (out / "checkpoint.bin").write_bytes(blob)
        return run_quietly(capsys, "eval", "--config", cfg_path, "--out", str(out))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated(self, capsys, eval_run, data):
        cfg_path, out = eval_run
        blob = (out / "intact.bin").read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        code, _ = self.run_eval(capsys, cfg_path, out, blob[:cut])
        assert code == 2

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bit_flipped(self, capsys, eval_run, data):
        cfg_path, out = eval_run
        blob = (out / "intact.bin").read_bytes()
        header = checkpoint_header_bytes(blob)
        # half the draws flip a header byte, where most of the parsing happens
        if data.draw(st.booleans()):
            position = data.draw(st.sampled_from(sorted(header)))
        else:
            position = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        flipped = bytearray(blob)
        flipped[position] ^= 1 << bit
        code, _ = self.run_eval(capsys, cfg_path, out, bytes(flipped))
        assert code in ((2, 3) if position in header else (0, 2, 3))

    def test_infinite_weight_is_a_one_line_numeric_failure(self, capsys, eval_run):
        cfg_path, out = eval_run
        params = oracles.objectness_params()
        params["backbone.0.weight"].data[0, 0, 0, 0] = np.inf  # inf * 0 is invalid in the conv GEMM
        save_checkpoint(params, out / "infinite.bin")
        code, err = self.run_eval(capsys, cfg_path, out, (out / "infinite.bin").read_bytes())
        assert code == 3 and "non-finite" in err


# a header token: no whitespace, and no leading '#', which opens a comment
header_tokens = st.binary(min_size=1, max_size=6).filter(
    lambda b: not any(c in b" \t\r\n" for c in b) and not b.startswith(b"#")
)


class TestMalformedPpm:
    """A malformed PPM in the test split gives exit 2 and a one-line error
    from both commands that read it: `eval` reads every image, `visualize`
    the requested one (sample 0 here)."""

    @pytest.fixture
    def ppm_run(self, oracle_run):
        cfg_path, out = oracle_run
        path = out / "dataset" / "test" / "test_00000.ppm"
        return cfg_path, out, path, path.read_bytes()

    def run_with(self, capsys, ppm_run, command, blob):
        cfg_path, out, path, _ = ppm_run
        path.write_bytes(blob)
        code, err = run_quietly(capsys, command, "--config", cfg_path, "--out", str(out))
        assert code == 2, err
        assert "test_00000.ppm" in err, err

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(["eval", "visualize"]))
    def test_bad_header_field(self, capsys, ppm_run, data, command):
        intact = ppm_run[3]
        raster = intact[len(b"P6\n64 64\n255\n") :]
        fields = [b"P6", b"64", b"64", b"255"]
        index = data.draw(st.integers(0, 3))
        # any token but the right one: a wrong number, a token that is not
        # one, or one that is not plain decimal or too long for int()
        numbers = st.integers(-5, 70000).map(lambda v: str(v).encode())
        python_only = st.sampled_from([b"+64", b"6_4", b"+255", b"25_5", b"9" * 5000])
        # P5 is the PGM magic that the same reader takes for a one-channel raster
        wrong = st.one_of(numbers, header_tokens, python_only, st.just(b"P5"))
        fields[index] = data.draw(wrong.filter(lambda b: b != (b"P6", b"64", b"64", b"255")[index]))
        self.run_with(capsys, ppm_run, command, b"%s\n%s %s\n%s\n" % tuple(fields) + raster)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(["eval", "visualize"]))
    def test_truncated(self, capsys, ppm_run, data, command):
        intact = ppm_run[3]
        self.run_with(capsys, ppm_run, command, intact[: data.draw(st.integers(0, len(intact) - 1))])


class TestMalformedAnnotations:
    """A malformed annotation CSV of the test split gives exit 2 and a
    one-line error from `eval` and `visualize`."""

    @pytest.fixture
    def csv_run(self, oracle_run):
        cfg_path, out = oracle_run
        path = out / "dataset" / "test" / "annotations.csv"
        return cfg_path, out, path, path.read_bytes().decode("ascii").splitlines()

    def run_with(self, capsys, csv_run, command, text, culprit="annotations.csv"):
        cfg_path, out, path, _ = csv_run
        path.write_bytes(text if isinstance(text, bytes) else text.encode("ascii"))
        code, err = run_quietly(capsys, command, "--config", cfg_path, "--out", str(out))
        assert code == 2, err
        assert culprit in err, err  # the error names the file at fault

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(["eval", "visualize"]))
    def test_bad_field(self, capsys, csv_run, data, command):
        lines = list(csv_run[3])
        # on line 1 too: a bad field does not make a row a header
        row = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(",")
        kind = data.draw(st.sampled_from(["count", "text", "negative", "class", "outside", "empty box"]))
        if kind == "count":
            extra = data.draw(st.integers(-5, 3).filter(lambda d: d != 0))
            fields = fields[:extra] if extra < 0 else fields + ["0"] * extra
        elif kind == "text":
            # not an integer: holds a character that no int literal holds
            digits_and_signs = set("0123456789+-_ ")
            text = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=","), min_size=1)
            fields[data.draw(st.integers(1, 5))] = data.draw(text.filter(lambda t: not set(t) <= digits_and_signs))
        elif kind == "negative":
            fields[data.draw(st.integers(1, 5))] = str(data.draw(st.integers(-1000, -1)))
        elif kind == "class":
            fields[1] = str(data.draw(st.integers(4, 10**30)))
        elif kind == "outside":
            fields[data.draw(st.sampled_from([4, 5]))] = str(data.draw(st.integers(65, 10**6)))
        else:
            axis = data.draw(st.sampled_from([(2, 4), (3, 5)]))
            fields[axis[1]] = str(int(fields[axis[0]]) - data.draw(st.integers(0, 3)))
        lines[row] = ",".join(fields)
        self.run_with(capsys, csv_run, command, "\n".join(lines) + "\n")

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        command=st.sampled_from(["eval", "visualize"]),
        junk=st.binary(min_size=1, max_size=12).filter(lambda b: max(b) >= 0x80),
    )
    def test_non_ascii_bytes(self, capsys, csv_run, data, command, junk):
        text = ("\n".join(csv_run[3]) + "\n").encode("ascii")
        at = data.draw(st.integers(0, len(text)))
        self.run_with(capsys, csv_run, command, text[:at] + junk + text[at:])

    @pytest.mark.parametrize(
        "name, culprit",
        [
            ("", "annotations.csv"),
            (".", "annotations.csv"),
            ("..", "annotations.csv"),
            ("../test/test_00000.ppm", "annotations.csv"),
            ("test_00000.ppm\x00", "annotations.csv"),
            ("missing.ppm", "missing.ppm"),
            ("test_00000.ppm ", "test_00000.ppm "),
            ("annotations.csv", "annotations.csv"),
        ],
    )
    @pytest.mark.parametrize("command", ["eval", "visualize"])
    def test_bad_image_name(self, capsys, csv_run, command, name, culprit):
        # sample 0's file: `visualize` reads that one
        lines = list(csv_run[3])
        lines[0] = ",".join([name] + lines[0].split(",")[1:])
        self.run_with(capsys, csv_run, command, "\n".join(lines) + "\n", culprit)

    @pytest.mark.parametrize("text", ["", "\n\n", "file,label,x_min,y_min,x_max,y_max\n"])
    @pytest.mark.parametrize("command", ["eval", "visualize"])
    def test_no_rows(self, capsys, csv_run, command, text):
        self.run_with(capsys, csv_run, command, text)


class TestVisualizeCommand:
    def test_writes_five_files_with_valid_headers(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--sample", "1") == 0
        for name in ("cam_a.pgm", "ccam.pgm", "cam_b.pgm", "fused.pgm"):
            heat = read_pgm(out / name)
            assert heat.shape == (64, 64)
        overlay = read_ppm(out / "overlay.ppm")
        assert overlay.shape == (3, 64, 64)

    def test_ccam_is_complement_of_cam_a(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("visualize", "--config", cfg_path, "--out", str(out)) == 0
        cam_a = (out / "cam_a.pgm").read_bytes().split(b"\n", 3)[3]
        ccam = (out / "ccam.pgm").read_bytes().split(b"\n", 3)[3]
        a = np.frombuffer(cam_a, dtype=np.uint8).astype(np.int16)
        c = np.frombuffer(ccam, dtype=np.uint8).astype(np.int16)
        assert np.abs(255 - a - c).max() <= 1  # equal up to quantization

    @staticmethod
    def branch_a_top1_mask(out, mode):
        """Sample 0's guidance as 8-bit pixels, rebuilt from forward's branch-A
        maps and logits: branch A's own top-1 map, complemented or erased."""
        image = read_ppm(out / "dataset" / "test" / "test_00000.ppm")
        art = forward(load_checkpoint(out / "checkpoint.bin"), image, mode=mode)
        cam = normalize_minmax(class_map(art.score_maps_a.data[0], int(np.argmax(art.logits_a.data[0]))))
        mask = complement(cam) if mode == "ccam" else threshold_erase(cam, 0.6)
        return np.rint(upsample_bilinear(mask.values[None], 64, 64)[0] * 255)

    def test_threshold_mode_ccam_is_the_erase_mask(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--cam-mode", "threshold") == 0
        expected = self.branch_a_top1_mask(out, "threshold")
        assert expected.min() == 0 and expected.max() == 255  # the mask erases part of the image
        ccam = np.rint(read_pgm(out / "ccam.pgm") * 255)
        assert np.abs(ccam - expected).max() <= 1

    def test_ccam_follows_branch_a_top1_when_the_ranking_disagrees(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        # branch A: class 0 scores 5 - objectness, so it wins A's logits with
        # an inverted map; branch B: class 1 gets +20, so the mean ranks class 1
        params = oracles.objectness_params()
        params["branch_a.score.weight"].data[:, 0, 0, 0] = [-1, 1, 1, 1]
        params["branch_a.score.bias"].data[:] = [5, 0, 0, 0]
        params["branch_b.score.bias"].data[:] = [0, 20, 0, 0]
        save_checkpoint(params, out / "checkpoint.bin")
        image = read_ppm(out / "dataset" / "test" / "test_00000.ppm")
        art = forward(params, image)
        assert np.argmax(art.logits_a.data[0]) == 0
        assert np.argmax(art.logits_a.data[0] + art.logits_b.data[0]) == 1

        assert run("visualize", "--config", cfg_path, "--out", str(out)) == 0
        ccam = np.rint(read_pgm(out / "ccam.pgm") * 255)
        assert np.abs(ccam - self.branch_a_top1_mask(out, "ccam")).max() <= 1
        cam_a = np.rint(read_pgm(out / "cam_a.pgm") * 255)
        assert np.abs(255 - cam_a - ccam).max() > 1

    def test_single_strategy_writes_branch_a_map_as_fused(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--strategy", "single") == 0
        assert (out / "fused.pgm").read_bytes() == (out / "cam_a.pgm").read_bytes()

    def test_sample_out_of_range_is_data_error(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--sample", "99") == 2

    def test_reads_only_the_requested_sample(self, monkeypatch, capsys, oracle_run):
        cfg_path, out = oracle_run
        reads = []
        monkeypatch.setattr(cli, "read_ppm", lambda path: reads.append(path.name) or read_ppm(path))
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--sample", "3") == 0
        assert reads == ["test_00003.ppm"]
        reads.clear()
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--sample", "8") == 2
        assert reads == []
        assert "sample 8 out of range: test split has 8 samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--strategy", "l1norm", "--bbox-tau", "0.35"], ["--strategy", "single", "--cam-mode", "threshold"]],
    ids=["l1norm", "single-branch"],
)
def test_visualize_boxes_what_evaluate_boxes(monkeypatch, oracle_run, flags):
    cfg_path, out = oracle_run
    # class k scores (1 + k) * objectness - 0.06 * k in both branches, so the
    # mean logit ranks class 3 first on bright objects and class 0 on faint ones
    params = oracles.objectness_params()
    for branch in ("branch_a", "branch_b"):
        params[f"{branch}.score.weight"].data[:, 0, 0, 0] = 1 + np.arange(4)
        params[f"{branch}.score.bias"].data[:] = -0.06 * np.arange(4)
    save_checkpoint(params, out / "checkpoint.bin")
    argv = ["--config", cfg_path, *flags, "--out", str(out)]
    cfg = cli._build_config(cli._build_parser().parse_args(["eval", *argv]))
    _, records = evaluate(
        params, cli._load_split(cfg, "test"), cfg.fusion, cfg.bbox_tau,
        cfg.train.guidance_mode, cfg.train.erase_threshold,
    )

    asked = []

    def recording_localize(*args):
        boxes, full = localize(*args)
        asked.append((list(args[3]), boxes))
        return boxes, full

    monkeypatch.setattr(cli, "localize", recording_localize)
    for k in range(len(records)):
        assert run("visualize", *argv, "--sample", str(k)) == 0
    assert asked == [([r.predicted[0]], [r.boxes[0]]) for r in records]
    assert {r.predicted[0] for r in records} == {0, 3}


@pytest.mark.parametrize("command", ["eval", "visualize"])
def test_guidance_mode_line_names_the_trained_mode(capsys, oracle_run, command):
    # one stderr line after the command's stdout, which stays as it was
    cfg_path, out = oracle_run
    code, err = run_quietly(capsys, command, "--config", cfg_path, "--out", str(out))
    assert code == 0 and err == "guidance mode: ccam (manifest_train.cfg: unknown)\n"
    cfg = replace(parse_config_file(cfg_path), out_dir=str(out))
    write_manifest(replace(cfg, train=replace(cfg.train, guidance_mode="threshold")), out / "manifest_train.cfg")
    capsys.readouterr()
    assert run(command, "--config", cfg_path, "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert captured.err == "guidance mode: ccam (manifest_train.cfg: threshold)\n"
    if command == "eval":
        assert [line.partition("=")[0] for line in captured.out.splitlines()] == [
            "top1_cls_err", "top5_cls_err", "top1_loc_err", "top5_loc_err", "gt_known_loc_acc"
        ]
    (out / "manifest_train.cfg").write_text("[train]\nguidance_mode = sideways\n")
    code, err = run_quietly(capsys, command, "--config", cfg_path, "--out", str(out), "--cam-mode", "threshold")
    assert code == 0 and err == "guidance mode: threshold (manifest_train.cfg: unknown)\n"
    (out / "checkpoint.bin").unlink()
    code, err = run_quietly(capsys, command, "--config", cfg_path, "--out", str(out))
    assert code == 2 and "guidance mode" not in err


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the tests' reference labeller uses it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, camloc, camloc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1
