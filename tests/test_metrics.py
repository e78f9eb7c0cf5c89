import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camloc import (
    BBox,
    DatasetConfig,
    EvalRecord,
    FusionConfig,
    ModelConfig,
    Sample,
    evaluate,
    extract_bbox,
    extract_bboxes,
    forward,
    generate_dataset,
    init_model,
    iou,
    localization_map,
    no_grad,
    normalize_minmax,
    write_records,
)
from camloc import fusion, metrics
from camloc.fusion import STRATEGIES, VARIANTS
from camloc.metrics import gt_known_correct, localization_flags
from camloc.model import GUIDANCE_MODES, predict_maps
from camloc.tensor import upsample_bilinear

import oracles


def box_strategy(limit=16):
    return st.tuples(
        st.integers(0, limit - 2), st.integers(0, limit - 2),
        st.integers(1, limit - 1), st.integers(1, limit - 1),
    ).map(
        lambda t: BBox(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]) + 1, max(t[1], t[3]) + 1)
    )


class TestBBox:
    def test_valid(self):
        box = BBox(1, 2, 4, 6)
        assert box.area == 12

    @pytest.mark.parametrize("coords", [(2, 0, 2, 4), (0, 3, 4, 3), (3, 0, 1, 4)])
    def test_degenerate_rejected(self, coords):
        with pytest.raises(ValueError, match="degenerate"):
            BBox(*coords)


class TestIou:
    def test_identical(self):
        box = BBox(2, 3, 8, 9)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 2, 2), BBox(5, 5, 8, 8)) == 0.0

    def test_half_overlap_thirds(self):
        value = iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10))
        assert value == pytest.approx(1 / 3, abs=1e-6)

    @given(box_strategy(), box_strategy())
    @settings(max_examples=100, deadline=None)
    def test_matches_pixel_counting_and_symmetry(self, a, b):
        expected = oracles.iou_pixel_count_ref(a, b, 16, 16)
        assert iou(a, b) == expected
        assert iou(b, a) == iou(a, b)

    def test_monotone_under_shrinking_intersection(self):
        fixed = BBox(0, 0, 10, 10)
        values = [iou(fixed, BBox(shift, 0, shift + 10, 10)) for shift in range(0, 11, 2)]
        assert values == sorted(values, reverse=True)


class TestExtractBbox:
    def test_single_bright_block(self):
        heat = np.zeros((8, 8), dtype=np.float32)
        heat[3:5, 3:5] = 1.0
        assert extract_bbox(heat, 0.2) == BBox(3, 3, 5, 5)

    def test_largest_component_wins(self):
        heat = np.zeros((10, 10), dtype=np.float32)
        heat[0:2, 0:2] = 1.0  # 4 pixels
        heat[5:8, 5:8] = 1.0  # 9 pixels
        assert extract_bbox(heat, 0.5) == BBox(5, 5, 8, 8)

    def test_all_zero_returns_full_image(self):
        heat = np.zeros((6, 9), dtype=np.float32)
        assert extract_bbox(heat, 0.2) == BBox(0, 0, 9, 6)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 2.0])
    def test_tau_out_of_range(self, tau):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            extract_bbox(np.ones((4, 4), dtype=np.float32), tau)

    def test_needs_a_2d_map(self):
        with pytest.raises(ValueError, match="2-d"):
            extract_bbox(np.ones((1, 4, 4), dtype=np.float32), 0.2)

    def test_within_bounds_and_tau_monotone_on_blobs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            # a single smooth blob: binarized sets shrink as tau grows
            h, w = 12, 14
            cy, cx = rng.integers(2, h - 2), rng.integers(2, w - 2)
            ys, xs = np.mgrid[:h, :w]
            heat = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / rng.uniform(2, 12)).astype(np.float32)
            previous_area = None
            for tau in (0.2, 0.4, 0.6, 0.8):
                box = extract_bbox(heat, tau)
                assert 0 <= box.x_min < box.x_max <= w
                assert 0 <= box.y_min < box.y_max <= h
                if previous_area is not None:
                    assert box.area <= previous_area
                previous_area = box.area


def spiral(size):
    """A square spiral with one-pixel gaps, drawn inward from the top left:
    one 4-connected component whose runs link through many union rounds."""
    grid = np.zeros((size, size), dtype=np.float32)
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    y = x = direction = turns = 0
    grid[0, 0] = 1.0

    def filled(row, col):
        return 0 <= row < size and 0 <= col < size and grid[row, col] > 0

    while turns < 2:
        dy, dx = steps[direction]
        inside = 0 <= y + dy < size and 0 <= x + dx < size
        if inside and not filled(y + dy, x + dx) and not filled(y + 2 * dy, x + 2 * dx):
            y, x, turns = y + dy, x + dx, 0
            grid[y, x] = 1.0
        else:
            direction, turns = (direction + 1) % 4, turns + 1
    return grid


def stress_maps(rng):
    """64x64 binary maps for the labeller, in all four rotations:
    serpentines and spirals (long chains of runs); combs and U shapes whose
    arms join lower down; checkerboards and diagonal staircases (8- but not
    4-connected, so every pixel is its own component and the size tie goes
    to the first pixel in raster order); all-true maps."""
    shapes = []
    for period in (2, 3, 4):
        serpentine = np.zeros((64, 64), dtype=np.float32)
        serpentine[:, ::period] = 1.0
        for k, col in enumerate(range(0, 64 - period, period)):
            serpentine[-1 if k % 2 == 0 else 0, col : col + period] = 1.0
        shapes.append(serpentine)
    for size in (64, 37, 20):
        grid = np.zeros((64, 64), dtype=np.float32)
        y, x = rng.integers(0, 65 - size, size=2)
        grid[y : y + size, x : x + size] = spiral(size)
        shapes.append(grid)
    for gap in (2, 3, 5):
        comb = np.zeros((64, 64), dtype=np.float32)
        top, spine = rng.integers(0, 20), rng.integers(40, 64)
        comb[top:spine, ::gap] = 1.0
        comb[spine, : 64 - (64 - 1) % gap] = 1.0
        comb[rng.integers(0, 64), rng.integers(0, 64)] = 1.0  # a stray pixel
        shapes.append(comb)
    for nested in (1, 3, 6):
        u = np.zeros((64, 64), dtype=np.float32)
        left, right, bottom = rng.integers(0, 8), rng.integers(56, 64), rng.integers(50, 64)
        for k in range(0, 2 * nested, 2):  # each U inside the last, a pixel apart
            tops = rng.integers(0, 30, size=2)
            u[tops[0] : bottom - k, left + k] = u[tops[1] : bottom - k, right - k] = 1.0
            u[bottom - k, left + k : right - k + 1] = 1.0
        shapes.append(u)
    ys, xs = np.mgrid[:64, :64]
    for phase in (0, 1):
        shapes.append(((ys + xs) % 2 == phase).astype(np.float32))
    for offset in (0, 5, -9):
        shapes.append((ys == xs + offset).astype(np.float32))
        shapes.append((ys + xs == 63 + offset).astype(np.float32))
    shapes.append(np.ones((64, 64), dtype=np.float32))
    return np.stack([np.rot90(shape, k) for shape in shapes for k in range(4)])


# a mask whose components merge through winding paths: boxed alone, so that
# no other map adds union rounds, it needs every pointer jumped to its root
# in every round
WINDING_MASK = """
1010010111
1110100111
0101110001
1110101110
0110111011
"""


def box_test_maps(rng):
    """Stacks to box, each as one stack. The first holds 594 64x64 maps:
    smooth upsampled, noisy, all-zero, constant, two equal-size blocks (the
    size tie goes to the first in raster order) and :func:`stress_maps`,
    shuffled. Then 1-row maps, 1-column maps, and two stacks of one."""
    smooth = upsample_bilinear(rng.normal(size=(240, 8, 8)).astype(np.float32), 64, 64)
    smooth[120:] = np.maximum(smooth[120:], 0)  # clipped: several separate blobs
    noisy = rng.uniform(size=(200, 64, 64)).astype(np.float32)
    zero = np.zeros((10, 64, 64), dtype=np.float32)
    constant = np.full((10, 64, 64), 0.7, dtype=np.float32)
    ties = np.zeros((50, 64, 64), dtype=np.float32)
    for tie in ties:
        size = rng.integers(2, 7)
        y1, x1 = rng.integers(0, 26, size=2)
        y2, x2 = rng.integers(34, 64 - size, size=2)
        if rng.uniform() < 0.5:  # first block top right, second bottom left
            x1, x2 = x2, x1
        tie[y1 : y1 + size, x1 : x1 + size] = 1.0
        tie[y2 : y2 + size, x2 : x2 + size] = 1.0
    maps = np.concatenate([normalize_minmax(smooth), noisy, zero, constant, ties, stress_maps(rng)])
    lines = np.concatenate([
        rng.uniform(size=(30, 1, 64)),
        upsample_bilinear(rng.normal(size=(30, 1, 8)), 1, 64),
        np.ones((2, 1, 64)),
        (np.arange(64) % 2 == 0)[None, None].repeat(2, axis=0),
    ]).astype(np.float32)
    winding = np.array([[int(c) for c in row] for row in WINDING_MASK.split()], dtype=np.float32)
    return [maps[rng.permutation(len(maps))], lines, lines.transpose(0, 2, 1), winding[None], smooth[:1]]



class TestExtractBboxes:
    @pytest.mark.parametrize("tau", [0.1, 0.2, 0.35, 0.5])
    def test_equals_per_map_reference(self, tau):
        maps, *others = box_test_maps(np.random.default_rng(31))
        expected = [oracles.extract_bbox_ref(m, tau) for m in maps]
        assert extract_bboxes(maps, tau) == expected
        chunked = [box for start in range(0, len(maps), 7) for box in extract_bboxes(maps[start : start + 7], tau)]
        assert chunked == expected
        assert [extract_bbox(m, tau) for m in maps[:40]] == expected[:40]
        for stack in others:
            assert extract_bboxes(stack, tau) == [oracles.extract_bbox_ref(m, tau) for m in stack]

    def test_tie_goes_to_first_component_in_raster_order(self):
        heat = np.zeros((2, 8, 8), dtype=np.float32)
        heat[0, 5:7, 0:2] = heat[0, 0:2, 5:7] = 1.0
        heat[1, 0:2, 0:2] = heat[1, 6:8, 6:8] = 1.0
        assert extract_bboxes(heat, 0.5) == [BBox(5, 0, 7, 2), BBox(0, 0, 2, 2)]

    def test_map_with_nothing_above_threshold_errors(self):
        heat = np.zeros((2, 4, 4), dtype=np.float32)
        heat[1] = -1.0  # tau * max lies above every value
        with pytest.raises(ValueError):
            extract_bboxes(heat, 0.5)

    def test_needs_a_stack(self):
        with pytest.raises(ValueError, match=r"\(M,H,W\)"):
            extract_bboxes(np.ones((4, 4), dtype=np.float32), 0.5)


class TestWriteRecords:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "records_ccam_addition.csv"
        record = EvalRecord("00000", 1, [1, 0], [BBox(0, 0, 2, 2)] * 2, [0.5, 0.25], BBox(0, 0, 2, 2), False)
        write_records([record], path)
        before = path.read_bytes()
        assert before == b"00000,1,1,0,0.500000,0.250000,0\n"
        broken = EvalRecord("00001", 1, [1, 0], [BBox(0, 0, 2, 2)] * 2, [0.5, "n/a"], BBox(0, 0, 2, 2), False)
        with pytest.raises(ValueError):
            write_records([record, broken], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestDecisionBoundaries:
    def _record(self, ious, preds=(0, 1, 2, 3), true_class=0):
        boxes = [BBox(0, 0, 1, 1)] * len(ious)
        return EvalRecord("00000", true_class, list(preds), boxes, list(ious), BBox(0, 0, 1, 1), False)

    def test_iou_exactly_half_counts_for_top1_loc(self):
        loc1, loc5 = localization_flags(self._record([0.5, 0.0, 0.0, 0.0]))
        assert loc1 and loc5

    def test_iou_exactly_half_fails_gt_known(self):
        assert not gt_known_correct(0.5)
        assert gt_known_correct(0.5 + 1e-9)

    def test_wrong_class_fails_loc_even_with_perfect_box(self):
        record = self._record([1.0, 1.0, 1.0, 1.0], preds=(1, 2, 3, 0), true_class=0)
        loc1, loc5 = localization_flags(record)
        assert not loc1
        assert loc5  # truth appears at rank 4 with a perfect box

    def test_top5_needs_the_true_class_box(self):
        record = self._record([1.0, 1.0, 1.0, 0.2], preds=(1, 2, 3, 0), true_class=0)
        loc1, loc5 = localization_flags(record)
        assert not loc1 and not loc5


def tiny_dataset():
    config = DatasetConfig(
        num_classes=4, train_samples=4, test_samples=12, image_size=(64, 64),
        seed=11, body_size=(28, 32), head_size=(10, 12),
    )
    return generate_dataset(config)[1]


class TestEvaluate:
    def test_oracle_model_localizes_everything(self):
        samples = tiny_dataset()
        params = oracles.objectness_params()
        for strategy in ("single", "addition"):
            report, records = evaluate(params, samples, FusionConfig(strategy), tau=0.5)
            assert report.gt_known_loc_acc == 100.0
            assert len(records) == len(samples)
            assert all(len(r.predicted) == 4 for r in records)

    def test_metrics_orderings(self):
        samples = tiny_dataset()
        params = oracles.objectness_params()
        for strategy in ("l1norm", "single"):
            report, _ = evaluate(params, samples, FusionConfig(strategy), tau=0.35)
            assert report.top1_cls_err >= report.top5_cls_err
            assert report.top1_loc_err >= report.top5_loc_err
            assert report.top1_loc_err >= report.top1_cls_err
            for value in (report.top1_cls_err, report.top5_cls_err, report.top1_loc_err,
                          report.top5_loc_err, report.gt_known_loc_acc):
                assert 0.0 <= value <= 100.0

    def test_missing_annotation_names_sample(self):
        samples = tiny_dataset()[:3]
        samples[1] = Sample(samples[1].image, samples[1].label, None)
        with pytest.raises(ValueError, match="00001"):
            evaluate(params=oracles.objectness_params(), dataset=samples)

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(oracles.objectness_params(), [])

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError, match=r"bbox threshold must lie in \(0, 1\), got 1.5"):
            evaluate(oracles.objectness_params(), tiny_dataset()[:2], tau=1.5)

    def test_one_inference_pass_per_split(self, monkeypatch):
        samples = tiny_dataset()
        assert len(samples) > metrics.EVAL_CHUNK
        calls = []

        def recording_predict_maps(params, images, *args):
            calls.append(len(images))
            return predict_maps(params, images, *args)

        monkeypatch.setattr(metrics, "predict_maps", recording_predict_maps)
        evaluate(oracles.objectness_params(), samples, tau=0.35)
        assert calls == [len(samples)]

    def test_records_have_five_or_c_predictions(self):
        samples = tiny_dataset()[:2]
        _, records = evaluate(oracles.objectness_params(), samples, tau=0.35)
        for record in records:
            assert len(record.predicted) == 4  # C=4 < 5
            assert len(record.ious) == len(record.predicted) == len(record.boxes)


def evaluate_per_sample(params, samples, config, tau, mode):
    """Records the way evaluation ran before batching: one autograd forward
    pass per sample, then one fused map, upsampling and box per class, with
    the per-map box extraction and 4-term upsampling of ``oracles``."""
    records = []
    with no_grad():
        for index, sample in enumerate(samples):
            art = forward(params, sample.image, guide_class=None, mode=mode)
            mean_logits = (art.logits_a.data[0] + art.logits_b.data[0]) / 2
            preds = [int(c) for c in np.argsort(-mean_logits, kind="stable")[:5]]

            def box(c):
                fused = localization_map(art.score_maps_a[0], art.score_maps_b[0], c, config)
                full = oracles.upsample_bilinear_4term_ref(fused, *sample.image.shape[1:])
                return oracles.extract_bbox_ref(normalize_minmax(full), tau)

            boxes = [box(c) for c in preds]
            ious = [iou(b, sample.gt_box) for b in boxes]
            gt_known = gt_known_correct(iou(box(sample.label), sample.gt_box))
            records.append(EvalRecord(f"{index:05d}", sample.label, preds, boxes, ious, sample.gt_box, gt_known))
    return records


def seven_class_split():
    """Ten test samples of seven classes and a random-init model for them."""
    dataset = DatasetConfig(
        num_classes=7, train_samples=1, test_samples=10, image_size=(32, 32),
        seed=4, head_size=(5, 6), body_size=(9, 12),
    )
    params = init_model(ModelConfig(7, seed=2))
    return params, generate_dataset(dataset)[1]


class TestEvaluateMatchesPerSample:
    """Seven classes, so top-5 leaves classes out and the ground-truth class
    is sometimes a sixth candidate map; ten samples span two localize
    windows, the second of them short."""

    @pytest.mark.parametrize("mode, strategy", [(m, s) for m in GUIDANCE_MODES for s in VARIANTS])
    def test_records_equal_per_sample_oracle(self, mode, strategy):
        params, samples = seven_class_split()
        config = FusionConfig(strategy)
        report, records = evaluate(params, samples, config, tau=0.3, cam_mode=mode)
        assert records == evaluate_per_sample(params, samples, config, 0.3, mode)
        assert any(r.true_class not in r.predicted for r in records)  # a ragged chunk: 6 maps for one sample
        assert report.n_samples == 10


@pytest.mark.parametrize("radius", [0, 2])
def test_single_branch_reads_out_single_whatever_the_strategy(radius, monkeypatch):
    monkeypatch.setattr(fusion, "BLOCK_RADIUS", radius)
    params, samples = seven_class_split()
    expected = evaluate(params, samples, FusionConfig("single"), tau=0.3)
    for strategy in STRATEGIES:
        config = FusionConfig(strategy)
        assert evaluate(params, samples, config, tau=0.3, single_branch=True) == expected
        assert evaluate(params, samples, config, tau=0.3) != expected  # the override changes the readout
