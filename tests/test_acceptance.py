"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The expensive
full-scale pipeline (criteria 6 and 7) runs once in a session fixture;
everything else is fast.
"""

import time

import numpy as np
import pytest

from camloc import (
    DatasetConfig,
    FusionConfig,
    ModelConfig,
    Tensor,
    TrainConfig,
    backward,
    bilinear_upsample,
    block_average,
    broadcast_mul_channels,
    complement,
    conv2d,
    dual_branch_loss,
    evaluate,
    forward,
    fusion_weights,
    generate_dataset,
    global_avg_pool,
    init_model,
    iou,
    localization_map,
    maxpool2d,
    mul,
    normalize_minmax,
    relu,
    softmax_cross_entropy,
    tensor_sum,
    train,
)
from camloc.cli import main as cli_main
from camloc.metrics import BBox

import oracles


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


# -------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    started = time.time()
    rng = np.random.default_rng(2024)
    checked = 0

    def verify(analytic, ref_loss, arrays, wrt):
        nonlocal checked
        numeric = oracles.fd_gradient(ref_loss, arrays, wrt, step=1e-3)
        err = oracles.max_rel_err(analytic, numeric)
        assert err < 1e-3, f"{wrt}: rel err {err:.2e}"
        checked += 1

    def kink_free(shape):
        magnitude = rng.uniform(0.2, 1.5, size=shape)
        sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
        return (magnitude * sign).astype(np.float32)

    for case in range(5):
        # conv2d: all three arguments
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        x = Tensor(kink_free((cin, h, w)), grad_enabled=True)
        kern = Tensor(kink_free((cout, cin, k, k)), grad_enabled=True)
        bias = Tensor(kink_free((cout,)), grad_enabled=True)
        backward(tensor_sum(conv2d(x, kern, bias, stride=stride, pad=pad)))

        def conv_loss(x, kern, bias):
            return float(oracles.conv2d_ref(x, kern, bias, stride=stride, pad=pad).sum())

        arrays = {"x": x.data, "kern": kern.data, "bias": bias.data}
        verify(x.grad, conv_loss, arrays, "x")
        verify(kern.grad, conv_loss, arrays, "kern")
        verify(bias.grad, conv_loss, arrays, "bias")

        # relu
        x = Tensor(kink_free((3, 5, 4)), grad_enabled=True)
        backward(tensor_sum(relu(x)))
        verify(x.grad, lambda x: float(oracles.relu_ref(x).sum()), {"x": x.data}, "x")

        # maxpool2d on well-separated windows
        base = rng.uniform(0, 1, size=(2, 6, 6))
        jitter = rng.permuted(np.linspace(0, 1.9, 72)).reshape(2, 6, 6)
        x = Tensor((base + jitter).astype(np.float32), grad_enabled=True)
        backward(tensor_sum(maxpool2d(x)))
        verify(x.grad, lambda x: float(oracles.maxpool2d_ref(x).sum()), {"x": x.data}, "x")

        # global average pool
        x = Tensor(kink_free((3, 4, 6)), grad_enabled=True)
        backward(tensor_sum(global_avg_pool(x)))
        verify(x.grad, lambda x: float(oracles.global_avg_pool_ref(x).sum()), {"x": x.data}, "x")

        # broadcast multiply (mask held constant)
        f = Tensor(kink_free((3, 4, 4)), grad_enabled=True)
        m = Tensor(rng.uniform(0.1, 1.0, size=(4, 4)).astype(np.float32), grad_enabled=True)
        backward(tensor_sum(broadcast_mul_channels(f, m)))
        verify(f.grad, lambda f: float(oracles.broadcast_mul_ref(f, m.data).sum()), {"f": f.data}, "f")
        assert m.grad is None

        # softmax cross entropy
        n = int(rng.integers(2, 8))
        label = int(rng.integers(0, n))
        x = Tensor((rng.normal(size=n) * 2).astype(np.float32), grad_enabled=True)
        backward(softmax_cross_entropy(x, label))
        verify(x.grad, lambda x: oracles.softmax_cross_entropy_ref(x, label), {"x": x.data}, "x")

        # bilinear upsample
        oh, ow = int(rng.integers(5, 12)), int(rng.integers(5, 12))
        x = Tensor(rng.uniform(size=(4, 4)).astype(np.float32), grad_enabled=True)
        backward(tensor_sum(bilinear_upsample(x, oh, ow)))
        verify(x.grad, lambda x: float(oracles.bilinear_upsample_ref(x, oh, ow).sum()), {"x": x.data}, "x")

        # elementwise add / mul / sum composite
        a = Tensor(kink_free((3, 3)), grad_enabled=True)
        b = Tensor(kink_free((3, 3)), grad_enabled=True)
        backward(tensor_sum(mul(a + b, a)))

        def composite_loss(a, b):
            return float(((a + b) * a).sum())

        arrays = {"a": a.data, "b": b.data}
        verify(a.grad, composite_loss, arrays, "a")
        verify(b.grad, composite_loss, arrays, "b")

    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"{checked} gradient checks across 5 seeded shape sets, rel err < 1e-3, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 2: fusion oracles


def test_criterion_2_fusion_oracles():
    rng = np.random.default_rng(7)
    for radius in (0, 1, 2):
        for _ in range(50):
            heat = rng.uniform(size=(7, 8)).astype(np.float32)
            np.testing.assert_allclose(
                block_average(heat, radius), oracles.block_average_ref(heat, radius), atol=1e-6
            )

    for _ in range(50):
        ma = rng.uniform(0, 5, size=(6, 6)).astype(np.float32)
        mb = rng.uniform(0, 5, size=(6, 6)).astype(np.float32)
        mb[rng.uniform(size=(6, 6)) < 0.2] = 0.0
        ma[mb == 0] = 0.0  # carve out a zero-denominator set
        wa, wb = fusion_weights(ma, mb)
        live = ma + mb > 0
        np.testing.assert_allclose((wa + wb)[live], 1.0, atol=1e-6)
        np.testing.assert_allclose(wa[~live], 0.5)

    maps = rng.normal(size=(4, 8, 8)).astype(np.float32)
    fused = localization_map(maps, maps, 2, FusionConfig("l1norm", block_radius=1))
    np.testing.assert_allclose(fused, maps[2], atol=1e-6)

    out = block_average(np.ones((3, 3), dtype=np.float32), 1)
    assert out[1, 1] == np.float32(1.0)
    assert all(out[y, x] == np.float32(4.0) / np.float32(9.0) for y, x in [(0, 0), (0, 2), (2, 0), (2, 2)])
    assert all(out[y, x] == np.float32(6.0) / np.float32(9.0) for y, x in [(0, 1), (1, 0), (1, 2), (2, 1)])
    report(2, "block averages, weight sums, identity fusion, and hand values all match")


# -------------------------------------------------------------------------
# criterion 3: geometry oracle


def test_criterion_3_geometry_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        coords = rng.integers(0, 20, size=4)
        a = BBox(int(min(coords[0], coords[2])), int(min(coords[1], coords[3])),
                 int(max(coords[0], coords[2])) + 1, int(max(coords[1], coords[3])) + 1)
        coords = rng.integers(0, 20, size=4)
        b = BBox(int(min(coords[0], coords[2])), int(min(coords[1], coords[3])),
                 int(max(coords[0], coords[2])) + 1, int(max(coords[1], coords[3])) + 1)
        assert iou(a, b) == oracles.iou_pixel_count_ref(a, b, 21, 21)
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-6)
    report(3, "1000 random integer box pairs match pixel counting exactly; 1/3 case verified")


# -------------------------------------------------------------------------
# criterion 4: complement algebra


def test_criterion_4_complement_algebra():
    rng = np.random.default_rng(4)
    done = 0
    while done < 100:
        heat = rng.uniform(size=(6, 7)).astype(np.float32)
        normalized = normalize_minmax(heat)
        flat = normalized.values.ravel()
        top = np.sort(flat)
        if top[-1] - top[-2] < 1e-6:
            continue  # needs a unique maximum
        comp = complement(normalized)
        np.testing.assert_allclose(complement(comp).values, normalized.values, atol=1e-7)
        assert int(np.argmax(normalized.values)) == int(np.argmin(comp.values))
        done += 1
    report(4, "involution within 1e-7 and argmax/argmin reversal on 100 maps")


# -------------------------------------------------------------------------
# criterion 5: single-sample overfit


def test_criterion_5_single_sample_overfit():
    started = time.time()
    sample = generate_dataset(DatasetConfig(train_samples=1, test_samples=1, seed=7))[0][0]
    params = init_model(ModelConfig(num_classes=4, seed=7))
    art = forward(params, sample.image, guide_class=sample.label)
    initial = float(dual_branch_loss(art.logits_a, art.logits_b, sample.label).data)
    train(params, [sample], TrainConfig(epochs=50, batch_size=1, learning_rate=0.01, seed=7))
    art = forward(params, sample.image, guide_class=sample.label)
    final = float(dual_branch_loss(art.logits_a, art.logits_b, sample.label).data)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"overfit run took {elapsed:.1f}s"
    assert final <= 0.5 * initial, f"loss only went {initial:.4f} -> {final:.4f}"
    report(5, f"loss {initial:.4f} -> {final:.4f} ({100 * (1 - final / initial):.0f}% drop) in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criteria 6 + 7 share one full-scale CLI pipeline run


@pytest.fixture(scope="session")
def full_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run"
    started = time.time()
    assert cli_main(["gen-data", "--out", str(out)]) == 0
    assert cli_main(["train", "--out", str(out)]) == 0
    train_seconds = time.time() - started
    return out, train_seconds


def _eval_metrics(out, extra):
    from camloc.cli import _load_split, parse_config_file
    from camloc.model import load_checkpoint

    cfg = parse_config_file(str(out / "manifest_train.cfg"))
    params = load_checkpoint(out / "checkpoint.bin")
    samples = _load_split(cfg, "test")
    report_obj, _ = evaluate(params, samples, **extra)
    return report_obj


def test_criterion_6_end_to_end_trend(full_pipeline):
    out, train_seconds = full_pipeline
    started = time.time()
    single = _eval_metrics(out, dict(single_branch=True))
    addition = _eval_metrics(out, dict(fusion_config=FusionConfig("addition")))
    l1norm = _eval_metrics(out, dict(fusion_config=FusionConfig("l1norm")))
    elapsed = train_seconds + (time.time() - started)

    cls_acc = 100.0 - addition.top1_cls_err
    assert cls_acc >= 90.0, f"top-1 classification accuracy {cls_acc:.1f}% < 90%"
    assert addition.gt_known_loc_acc >= single.gt_known_loc_acc, (
        f"addition {addition.gt_known_loc_acc:.1f}% < single-branch {single.gt_known_loc_acc:.1f}%"
    )
    assert l1norm.gt_known_loc_acc >= single.gt_known_loc_acc, (
        f"l1norm {l1norm.gt_known_loc_acc:.1f}% < single-branch {single.gt_known_loc_acc:.1f}%"
    )
    assert addition.gt_known_loc_acc >= 70.0
    assert l1norm.gt_known_loc_acc >= 70.0
    assert elapsed < 900.0, f"pipeline took {elapsed:.0f}s"
    report(
        6,
        f"cls acc {cls_acc:.1f}%; gt-known single {single.gt_known_loc_acc:.1f}% vs "
        f"addition {addition.gt_known_loc_acc:.1f}% / l1norm {l1norm.gt_known_loc_acc:.1f}%; "
        f"{elapsed:.0f}s total",
    )


def test_criterion_7_ablation_grid(full_pipeline, capsys):
    out, _ = full_pipeline
    grid = {}
    for mode in ("ccam", "threshold"):
        for strategy in ("max", "addition", "l1norm"):
            code = cli_main(
                ["eval", "--out", str(out), "--cam-mode", mode, "--strategy", strategy]
            )
            assert code == 0, f"eval failed for {mode}/{strategy}"
            lines = capsys.readouterr().out.strip().splitlines()
            metrics = dict(line.split("=") for line in lines if "=" in line)
            assert len(metrics) == 5
            grid[(mode, strategy)] = {k: float(v) for k, v in metrics.items()}
            assert (out / f"records_{mode}_{strategy}.csv").exists()

    for strategy in ("max", "addition", "l1norm"):
        ccam_acc = 100.0 - grid[("ccam", strategy)]["top1_cls_err"]
        threshold_acc = 100.0 - grid[("threshold", strategy)]["top1_cls_err"]
        assert ccam_acc >= threshold_acc, (
            f"{strategy}: ccam {ccam_acc:.1f}% < threshold {threshold_acc:.1f}%"
        )
    report(7, "all six guidance x fusion combinations ran; ccam accuracy >= threshold accuracy")


# -------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "repro.cfg"
    config.write_text(
        "[dataset]\ntrain_samples = 120\ntest_samples = 30\nseed = 7\n\n"
        "[train]\nepochs = 2\nbatch_size = 4\nlearning_rate = 0.02\nseed = 7\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
        assert cli_main(["train", "--config", str(config), "--out", str(out)]) == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "checkpoint.bin").read_bytes() == (second / "checkpoint.bin").read_bytes()
    assert (first / "train_log.csv").read_bytes() == (second / "train_log.csv").read_bytes()
    report(8, "two gen-data + train runs produced bit-identical checkpoints and logs")
