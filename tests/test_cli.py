import numpy as np
import pytest

from camloc import load_checkpoint, read_pgm, read_ppm, save_checkpoint, write_ppm
from camloc.cli import RunConfig, main, parse_config_file, write_manifest
from camloc.model import NumericError

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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dataset]\nnum_clases = 4\n")
        assert run("gen-data", "--config", str(path)) == 1

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nlearning_rate = fast\n")
        assert run("train", "--config", str(path)) == 1

    def test_missing_config_file(self):
        assert run("train", "--config", "/nonexistent/path.cfg") == 1


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
        assert run("visualize", "--config", cfg_path, "--out", str(out)) == 2
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
        code = run("eval", "--config", cfg_path, "--out", str(out), "--single-branch", "--bbox-tau", "0.5")
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

    def test_sample_out_of_range_is_data_error(self, capsys, oracle_run):
        cfg_path, out = oracle_run
        assert run("visualize", "--config", cfg_path, "--out", str(out), "--sample", "99") == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1
