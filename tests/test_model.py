import numpy as np
import pytest

from camloc import (
    CheckpointError,
    DatasetConfig,
    ModelConfig,
    NumericError,
    Tensor,
    TrainConfig,
    dual_branch_loss,
    forward,
    generate_dataset,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from camloc.model import backbone_forward, head_forward, predict_maps
from camloc.tensor import no_grad


def small_config(**overrides):
    defaults = dict(
        num_classes=4, input_size=(32, 32), backbone_channels=(8, 8, 8), head_width=8, seed=3
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def small_dataset(n_train=8, n_test=4, classes=4):
    config = DatasetConfig(
        num_classes=classes, train_samples=n_train, test_samples=n_test,
        image_size=(32, 32), seed=5, head_size=(5, 6), body_size=(9, 12),
    )
    return generate_dataset(config)


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig(num_classes=4)
        assert config.input_size == (64, 64)
        assert config.backbone_channels == (16, 32, 64)
        assert config.head_width == 64

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            ModelConfig(num_classes=1)

    def test_indivisible_input(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(num_classes=4, input_size=(60, 64))


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a = init_model(small_config())
        b = init_model(small_config())
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_different_seed_differs(self):
        a = init_model(small_config(seed=1))
        b = init_model(small_config(seed=2))
        assert any(not np.array_equal(a[name].data, b[name].data) for name in a.tensors)

    def test_score_kernel_shape(self):
        params = init_model(ModelConfig(num_classes=4))
        assert params["branch_a.score.weight"].shape == (4, 64, 1, 1)

    def test_branches_have_identical_shapes(self):
        params = init_model(small_config())
        for name in params.tensors:
            if name.startswith("branch_a"):
                twin = name.replace("branch_a", "branch_b")
                assert params[name].shape == params[twin].shape

    def test_biases_zero_weights_bounded(self):
        params = init_model(small_config())
        for name, tensor in params.tensors.items():
            assert np.isfinite(tensor.data).all()
            if name.endswith(".bias"):
                assert np.array_equal(tensor.data, np.zeros_like(tensor.data))


class TestForward:
    def test_score_map_shapes_default_config(self):
        params = init_model(ModelConfig(num_classes=4))
        image = np.zeros((3, 64, 64), dtype=np.float32)
        art = forward(params, image, guide_class=0)
        assert art.score_maps_a.shape == (4, 8, 8)
        assert art.score_maps_b.shape == (4, 8, 8)
        assert art.logits_a.shape == (4,)
        assert art.guidance.values.shape == (8, 8)

    def test_constant_score_maps_give_all_ones_guidance(self):
        # zero image + zero biases -> constant (zero) score maps; the
        # degenerate map normalizes to zeros, so both guidance modes pass
        # everything through to branch B.
        params = init_model(small_config())
        image = np.zeros((3, 32, 32), dtype=np.float32)
        for mode in ("ccam", "threshold"):
            art = forward(params, image, guide_class=1, mode=mode)
            np.testing.assert_array_equal(art.guidance.values, np.ones((4, 4)))

    def test_guidance_always_in_unit_interval(self):
        params = init_model(small_config())
        rng = np.random.default_rng(0)
        for mode in ("ccam", "threshold"):
            for _ in range(5):
                image = rng.uniform(size=(3, 32, 32)).astype(np.float32)
                art = forward(params, image, guide_class=0, mode=mode)
                assert art.guidance.values.min() >= 0.0
                assert art.guidance.values.max() <= 1.0

    def test_threshold_guidance_is_binary(self):
        params = init_model(small_config())
        image = np.random.default_rng(1).uniform(size=(3, 32, 32)).astype(np.float32)
        art = forward(params, image, guide_class=0, mode="threshold", erase_threshold=0.6)
        assert set(np.unique(art.guidance.values)) <= {0.0, 1.0}

    def test_guide_class_out_of_range(self):
        params = init_model(small_config())
        with pytest.raises(IndexError, match="guide class"):
            forward(params, np.zeros((3, 32, 32), dtype=np.float32), guide_class=4)

    def test_inference_guide_is_branch_a_argmax(self):
        params = init_model(small_config())
        image = np.random.default_rng(2).uniform(size=(3, 32, 32)).astype(np.float32)
        art = forward(params, image, guide_class=None)
        assert art.guide_class == int(np.argmax(art.logits_a.data))

    def test_all_ones_override_feeds_branch_b_raw_features(self):
        params = init_model(small_config())
        image = np.random.default_rng(3).uniform(size=(3, 32, 32)).astype(np.float32)
        art = forward(params, image, guide_class=0, guidance_override=np.ones((4, 4), dtype=np.float32))
        features = backbone_forward(params, Tensor(image))
        scores_b, logits_b = head_forward(params, "branch_b", features)
        np.testing.assert_array_equal(art.score_maps_b.data, scores_b.data)
        np.testing.assert_array_equal(art.logits_b.data, logits_b.data)

    def test_branch_symmetry_under_parameter_swap(self):
        params = init_model(small_config())
        swapped_tensors = {}
        for name, tensor in params.tensors.items():
            if name.startswith("branch_a"):
                swapped_tensors[name] = params.tensors[name.replace("branch_a", "branch_b")]
            elif name.startswith("branch_b"):
                swapped_tensors[name] = params.tensors[name.replace("branch_b", "branch_a")]
            else:
                swapped_tensors[name] = tensor
        swapped = type(params)(swapped_tensors)
        image = np.random.default_rng(4).uniform(size=(3, 32, 32)).astype(np.float32)
        ones = np.ones((4, 4), dtype=np.float32)
        original = forward(params, image, guide_class=0, guidance_override=ones)
        mirrored = forward(swapped, image, guide_class=0, guidance_override=ones)
        np.testing.assert_array_equal(original.logits_a.data, mirrored.logits_b.data)
        np.testing.assert_array_equal(original.logits_b.data, mirrored.logits_a.data)

    def test_unknown_mode_errors(self):
        params = init_model(small_config())
        with pytest.raises(ValueError, match="guidance mode"):
            forward(params, np.zeros((3, 32, 32), dtype=np.float32), guide_class=0, mode="erase")


class TestPredictMaps:
    def trained(self):
        train_split, test_split = small_dataset(n_train=8, n_test=7)
        params = init_model(small_config())
        train(params, train_split, TrainConfig(epochs=1, batch_size=4, learning_rate=0.05, seed=1))
        return params, test_split

    @pytest.mark.parametrize("mode", ["ccam", "threshold"])
    def test_equals_forward_bit_for_bit(self, mode):
        params, samples = self.trained()
        images = np.stack([s.image for s in samples])  # N=7: more than one evaluate chunk
        score_a, score_b, logits_a, logits_b = predict_maps(params, images, mode)
        assert score_a.shape == score_b.shape == (7, 4, 4, 4)
        assert logits_a.shape == logits_b.shape == (7, 4)
        with no_grad():
            for i, sample in enumerate(samples):
                art = forward(params, sample.image, guide_class=None, mode=mode)
                np.testing.assert_array_equal(score_a[i], art.score_maps_a.data)
                np.testing.assert_array_equal(score_b[i], art.score_maps_b.data)
                np.testing.assert_array_equal(logits_a[i], art.logits_a.data)
                np.testing.assert_array_equal(logits_b[i], art.logits_b.data)

    def test_non_finite_weight_raises_numeric_error(self):
        params = init_model(small_config())
        params["branch_b.conv2.weight"].data[0, 0, 1, 1] = np.nan
        with pytest.raises(NumericError, match="branch_b"):
            predict_maps(params, np.zeros((2, 3, 32, 32), dtype=np.float32))

    def test_unknown_mode_errors(self):
        params = init_model(small_config())
        with pytest.raises(ValueError, match="guidance mode"):
            predict_maps(params, np.zeros((1, 3, 32, 32), dtype=np.float32), mode="erase")


class TestDualBranchLoss:
    def test_uniform_logits(self):
        zeros = Tensor(np.zeros(4, dtype=np.float32))
        loss = dual_branch_loss(zeros, Tensor(np.zeros(4, dtype=np.float32)), 0)
        assert float(loss.data) == pytest.approx(2 * np.log(4.0), rel=1e-6)

    def test_additivity_with_confident_branch(self):
        confident = Tensor(np.array([50.0, 0.0, 0.0, 0.0], dtype=np.float32))
        uniform = Tensor(np.zeros(4, dtype=np.float32))
        loss = dual_branch_loss(confident, uniform, 0)
        assert float(loss.data) == pytest.approx(np.log(4.0), rel=1e-5)

    def test_non_negative_and_additive(self):
        rng = np.random.default_rng(5)
        from camloc import softmax_cross_entropy

        for _ in range(10):
            a = Tensor(rng.normal(size=6).astype(np.float32))
            b = Tensor(rng.normal(size=6).astype(np.float32))
            label = int(rng.integers(0, 6))
            total = float(dual_branch_loss(a, b, label).data)
            parts = float(softmax_cross_entropy(a, label).data) + float(
                softmax_cross_entropy(b, label).data
            )
            assert total >= 0.0
            assert total == pytest.approx(parts, abs=1e-6)


class TestTrain:
    def test_zero_learning_rate_leaves_params_untouched(self):
        train_split, _ = small_dataset()
        params = init_model(small_config())
        before = {name: t.data.copy() for name, t in params.tensors.items()}
        train(params, train_split, TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=1))
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor.data, before[name]), name

    def test_single_sample_overfit_reduces_loss(self):
        train_split, _ = small_dataset(n_train=4)
        sample = train_split[0]
        params = init_model(small_config())
        art = forward(params, sample.image, guide_class=sample.label)
        initial = float(dual_branch_loss(art.logits_a, art.logits_b, sample.label).data)
        train(params, [sample], TrainConfig(epochs=50, batch_size=1, learning_rate=0.01, seed=1))
        art = forward(params, sample.image, guide_class=sample.label)
        final = float(dual_branch_loss(art.logits_a, art.logits_b, sample.label).data)
        assert final < initial

    def test_deterministic_given_seed(self):
        train_split, _ = small_dataset()
        config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, seed=9)
        params_a = init_model(small_config())
        report_a = train(params_a, train_split, config)
        params_b = init_model(small_config())
        report_b = train(params_b, train_split, config)
        assert report_a.losses == report_b.losses
        assert report_a.acc_a == report_b.acc_a
        for name in params_a.tensors:
            assert np.array_equal(params_a[name].data, params_b[name].data)

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty"):
            train(init_model(small_config()), [], TrainConfig())

    def test_non_finite_loss_raises_numeric_error(self):
        train_split, _ = small_dataset(n_train=2)
        params = init_model(small_config())
        params["branch_b.score.weight"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            train(params, train_split, TrainConfig(epochs=1, batch_size=2, learning_rate=0.01))

    def test_report_length_matches_epochs(self):
        train_split, _ = small_dataset(n_train=4)
        report = train(
            init_model(small_config()),
            train_split,
            TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, seed=2),
        )
        assert len(report.losses) == len(report.acc_a) == len(report.acc_b) == 3


class TestTrainConfig:
    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="guidance mode"):
            TrainConfig(guidance_mode="wipe")

    def test_negative_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="erase_threshold"):
            TrainConfig(erase_threshold=1.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_model(small_config())
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert list(loaded.tensors) == list(params.tensors)
        for name in params.tensors:
            assert loaded[name].data.dtype == np.float32
            assert np.array_equal(loaded[name].data, params[name].data)
            assert loaded[name].grad_enabled

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        params = init_model(small_config())
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "vers.bin"
        params = init_model(small_config())
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "trunc.bin"
        params = init_model(small_config())
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="unexpected end of file"):
            load_checkpoint(path)

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "extra.bin"
        params = init_model(small_config())
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)
