import numpy as np
import pytest

from camloc import (
    BBox,
    DatasetConfig,
    generate_dataset,
    head_palette,
    read_annotations,
    read_pgm,
    read_ppm,
    write_annotations,
    write_pgm,
    write_ppm,
)
from camloc import data, imageio


def small_config(**overrides):
    defaults = dict(
        num_classes=4, train_samples=12, test_samples=6, image_size=(64, 64), seed=3
    )
    defaults.update(overrides)
    return DatasetConfig(**defaults)


def object_mask(image):
    """Pixel-scan oracle: object pixels clear the noise ceiling by design."""
    return image.max(axis=0) > data.NOISE_AMPLITUDE + 0.1


class TestDatasetConfig:
    def test_head_must_be_smaller_than_body(self):
        with pytest.raises(ValueError, match="smaller"):
            DatasetConfig(head_size=(8, 20), body_size=(20, 32))

    def test_invalid_ranges(self):
        with pytest.raises(ValueError, match="head_size"):
            DatasetConfig(head_size=(12, 8))

    def test_image_size_must_be_positive(self):
        with pytest.raises(ValueError, match=r"image_size must be >= 1, got \(64, 0\)"):
            DatasetConfig(image_size=(64, 0))


class TestGenerateDataset:
    def test_same_config_bit_identical(self):
        first_train, first_test = generate_dataset(small_config())
        second_train, second_test = generate_dataset(small_config())
        for a, b in zip(first_train + first_test, second_train + second_test):
            assert np.array_equal(a.image, b.image)
            assert a.label == b.label
            assert a.gt_box == b.gt_box

    def test_splits_differ(self):
        train_split, test_split = generate_dataset(small_config(train_samples=4, test_samples=4))
        assert not np.array_equal(train_split[0].image, test_split[0].image)

    def test_gt_box_matches_pixel_scan(self):
        train_split, test_split = generate_dataset(small_config())
        for sample in train_split + test_split:
            ys, xs = np.nonzero(object_mask(sample.image))
            expected = BBox(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
            assert sample.gt_box == expected

    def test_round_robin_labels(self):
        train_split, _ = generate_dataset(small_config(train_samples=2000, test_samples=1))
        counts = np.bincount([s.label for s in train_split], minlength=4)
        assert list(counts) == [500, 500, 500, 500]

    def test_images_in_unit_range_float32(self):
        train_split, _ = generate_dataset(small_config())
        for sample in train_split:
            assert sample.image.dtype == np.float32
            assert sample.image.min() >= 0.0
            assert sample.image.max() <= 1.0

    def test_boxes_inside_image(self):
        train_split, test_split = generate_dataset(small_config())
        for sample in train_split + test_split:
            box = sample.gt_box
            assert 0 <= box.x_min < box.x_max <= 64
            assert 0 <= box.y_min < box.y_max <= 64

    def test_shapes_cannot_fit_errors(self):
        with pytest.raises(ValueError, match="cannot fit"):
            small_config(image_size=(32, 32), body_size=(28, 30), head_size=(10, 12))

    def test_a_geometry_is_refused_or_generates_at_every_seed(self):
        # at the default object sizes the largest body with the largest head
        # needs 46 pixels; draws that happen to be smaller must not decide
        accepted = set()
        for size in range(40, 49):
            for seed in range(8):
                try:
                    config = small_config(image_size=(size, size), train_samples=100, test_samples=100, seed=seed)
                except ValueError as exc:
                    assert "cannot fit" in str(exc)
                    continue
                generate_dataset(config)
                accepted.add(size)
        assert accepted == {46, 47, 48}

    def test_permuted_palette_permutes_head_colors_only(self, monkeypatch):
        config = small_config()
        palette = head_palette(config.num_classes)
        sigma = [2, 3, 1, 0]
        base_train, _ = generate_dataset(config)
        monkeypatch.setattr(data, "head_palette", lambda num_classes: palette[sigma])
        perm_train, _ = generate_dataset(config)
        for base, perm in zip(base_train, perm_train):
            assert base.label == perm.label
            assert base.gt_box == perm.gt_box
            # the head is repainted with the permuted class color ...
            head_color = palette[base.label]
            permuted_color = palette[sigma[base.label]]
            base_head = np.all(np.isclose(base.image, head_color[:, None, None], atol=1e-6), axis=0)
            perm_head = np.all(np.isclose(perm.image, permuted_color[:, None, None], atol=1e-6), axis=0)
            assert base_head.sum() > 0
            np.testing.assert_array_equal(base_head, perm_head)
            # ... and every pixel outside the head is untouched
            np.testing.assert_array_equal(base.image[:, ~base_head], perm.image[:, ~perm_head])


class TestPpmCodec:
    def test_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.uniform(size=(3, 5, 7)).astype(np.float32)
        path = tmp_path / "x.ppm"
        write_ppm(image, path)
        loaded = read_ppm(path)
        assert loaded.shape == (3, 5, 7)
        assert np.abs(loaded - image).max() <= 1.0 / 255.0

    def test_black_image_exact(self, tmp_path):
        image = np.zeros((3, 4, 4), dtype=np.float32)
        path = tmp_path / "black.ppm"
        write_ppm(image, path)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_file_starts_with_p6(self, tmp_path):
        path = tmp_path / "m.ppm"
        write_ppm(np.zeros((3, 2, 2), dtype=np.float32), path)
        assert path.read_bytes()[:2] == b"P6"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError, match="magic"):
            read_ppm(path)
        path.write_bytes(b"P6\n2 x\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="malformed"):
            read_ppm(path)
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="magic"):
            read_pgm(path)

    def test_header_without_raster(self, tmp_path):
        path = tmp_path / "bare.ppm"
        path.write_bytes(b"P6\n2 2\n255")
        with pytest.raises(ValueError, match="missing raster"):
            read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ValueError, match=r"truncated \(10 of 48 bytes\)"):
            read_ppm(path)
        # the same 10 bytes are short of a 4x4 P5 raster too, by its own count
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(ValueError, match=r"truncated \(10 of 16 bytes\)"):
            read_pgm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        assert read_ppm(path).shape == (3, 1, 2)


class TestPgmCodec:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        heat = rng.uniform(size=(6, 4)).astype(np.float32)
        path = tmp_path / "h.pgm"
        write_pgm(heat, path)
        loaded = read_pgm(path)
        assert loaded.shape == (6, 4)
        assert np.abs(loaded - heat).max() <= 1.0 / 255.0

    def test_magic(self, tmp_path):
        path = tmp_path / "h.pgm"
        write_pgm(np.zeros((2, 2), dtype=np.float32), path)
        assert path.read_bytes()[:2] == b"P5"


@pytest.mark.parametrize(
    "write, shape, name", [(write_ppm, (3, 2, 2), "x.ppm"), (write_pgm, (2, 2), "x.pgm")], ids=["ppm", "pgm"]
)
def test_failed_image_write_keeps_old_file(tmp_path, monkeypatch, write, shape, name):
    path = tmp_path / name
    write(np.full(shape, 0.5, dtype=np.float32), path)
    intact = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(imageio.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        write(np.zeros(shape, dtype=np.float32), path)
    assert path.read_bytes() == intact
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize(
    "write, shape",
    [(write_ppm, (2, 2)), (write_ppm, (4, 2, 2)), (write_pgm, (3, 2, 2))],
    ids=["ppm-2d", "ppm-4-channels", "pgm-3d"],
)
def test_misshaped_image_is_refused(tmp_path, write, shape):
    with pytest.raises(ValueError, match=r"must be \((3,)?H,W\), got shape"):
        write(np.zeros(shape, dtype=np.float32), tmp_path / "x")
    assert not any(tmp_path.iterdir())


class TestAnnotations:
    def test_round_trip_exact(self, tmp_path):
        rows = [
            ("train_00000.ppm", 0, BBox(1, 2, 11, 12)),
            ("train_00001.ppm", 3, BBox(0, 0, 64, 64)),
        ]
        path = tmp_path / "ann.csv"
        write_annotations(rows, path)
        assert read_annotations(path, 4, (64, 64)) == rows

    def test_failed_write_leaves_existing_file(self, tmp_path):
        path = tmp_path / "ann.csv"
        write_annotations([("a.ppm", 1, BBox(0, 0, 4, 4))], path)
        intact = path.read_bytes()
        rows = [("b.ppm", 2, BBox(1, 1, 3, 3)), ("c.ppm", 0, None)]
        with pytest.raises(AttributeError):
            write_annotations(rows, path)
        assert path.read_bytes() == intact
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.csv"]

    def test_header_line_detected(self, tmp_path):
        # the file has no header: a header, or a first row with no integer field, is refused
        path = tmp_path / "ann.csv"
        for first_line in ("filename,class,x_min,y_min,x_max,y_max", "train_00000.ppm,x,1.5,?,-,4e0"):
            path.write_text(f"{first_line}\na.ppm,1,0,0,4,4\n")
            with pytest.raises(ValueError, match="line 1: non-integer field"):
                read_annotations(path, 4, (64, 64))

    def test_bad_class_on_line_one_is_not_a_header(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("a.ppm,x,0,0,4,4\nb.ppm,2,0,0,4,4\n")
        with pytest.raises(ValueError, match="line 1: non-integer field"):
            read_annotations(path, 4, (64, 64))

    def test_negative_coordinate_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("a.ppm,1,0,0,4,4\nb.ppm,2,-1,0,4,4\n")
        with pytest.raises(ValueError, match="line 2.*negative"):
            read_annotations(path, 4, (64, 64))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("a.ppm,1,0,0,4,4\nb.ppm,2,0,0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_annotations(path, 4, (64, 64))

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("a.ppm,1,0,0,4,4\nb.ppm,x,0,0,4,4\n")
        with pytest.raises(ValueError, match="line 2"):
            read_annotations(path, 4, (64, 64))

    def test_image_listed_twice_names_both_lines(self, tmp_path):
        # one image under two labels would read as two samples
        path = tmp_path / "ann.csv"
        path.write_text("train_00000.ppm,0,0,0,4,4\nb.ppm,2,0,0,4,4\n\ntrain_00000.ppm,1,0,0,4,4\n")
        with pytest.raises(ValueError, match="line 4: 'train_00000.ppm' is listed again, first on line 1"):
            read_annotations(path, 4, (64, 64))
