import re
import struct
import tracemalloc
import warnings
from dataclasses import replace

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
from camloc import model
from camloc.model import backbone_forward, head_forward, predict_maps
from camloc.tensor import backward, no_grad

import oracles


def small_config(**overrides):
    defaults = dict(num_classes=4, seed=3)
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
        shapes = model.param_shapes(ModelConfig(num_classes=4))
        assert {name: shape for name, shape in shapes.items() if name.endswith(".weight")} == {
            "backbone.0.weight": (16, 3, 3, 3),
            "backbone.1.weight": (32, 16, 3, 3),
            "backbone.2.weight": (64, 32, 3, 3),
            "branch_a.conv1.weight": (64, 64, 3, 3),
            "branch_a.conv2.weight": (64, 64, 3, 3),
            "branch_a.score.weight": (4, 64, 1, 1),
            "branch_b.conv1.weight": (64, 64, 3, 3),
            "branch_b.conv2.weight": (64, 64, 3, 3),
            "branch_b.score.weight": (4, 64, 1, 1),
        }

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            ModelConfig(num_classes=1)


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


def branch_a_maps(params, images):
    """Branch A's (C,N,h,w) score maps of an (N,3,H,W) stack."""
    features = backbone_forward(params, Tensor(images.transpose(1, 0, 2, 3)))
    return head_forward(params, "branch_a", features)[0].data


def artifact_arrays(art):
    """forward's per-sample outputs as arrays, by field: the score maps are
    arrays already, the logits are Tensors."""
    return {
        "score_maps_a": art.score_maps_a,
        "score_maps_b": art.score_maps_b,
        "logits_a": art.logits_a.data,
        "logits_b": art.logits_b.data,
    }


class TestForward:
    def test_score_map_shapes_default_config(self):
        params = init_model(ModelConfig(num_classes=4))
        image = np.zeros((3, 64, 64), dtype=np.float32)
        art = forward(params, image, guide_class=0)
        assert art.score_maps_a.shape == (1, 4, 8, 8)
        assert art.score_maps_b.shape == (1, 4, 8, 8)
        for maps in (art.score_maps_a, art.score_maps_b):
            assert type(maps) is np.ndarray and maps.dtype == np.float32 and maps.flags.c_contiguous
        assert art.logits_a.shape == art.logits_b.shape == (1, 4)

    def test_indivisible_input(self):
        # 60x64 pools to 30x32, then 15x16, which the third block cannot halve
        params = init_model(ModelConfig(num_classes=4))
        with pytest.raises(ValueError, match="even spatial dims, got 15x16"):
            forward(params, np.zeros((3, 60, 64), np.float32))

    @pytest.mark.parametrize("mode", ["ccam", "threshold"])
    def test_image_equals_its_stack_of_one(self, mode):
        # maps, logits, loss and every parameter gradient, bit for bit
        image = np.random.default_rng(6).uniform(size=(3, 32, 32)).astype(np.float32)
        runs = []
        for x in (image, image[None]):
            params = init_model(small_config())
            art = forward(params, x, guide_class=2, mode=mode)
            loss = dual_branch_loss(art.logits_a, art.logits_b, 2)
            backward(loss)
            runs.append((art, loss, params))
        (one, one_loss, one_params), (stack, stack_loss, stack_params) = runs
        for field, value in artifact_arrays(one).items():
            np.testing.assert_array_equal(value, artifact_arrays(stack)[field], err_msg=field)
        assert one.score_maps_a.shape == (1, 4, 4, 4)
        np.testing.assert_array_equal(one_loss.data, stack_loss.data)
        for name in one_params.tensors:
            np.testing.assert_array_equal(one_params[name].grad, stack_params[name].grad, err_msg=name)

    def test_constant_score_maps_give_all_ones_guidance(self):
        # zero image + zero biases -> constant (zero) score maps; the
        # degenerate map normalizes to zeros, so both guidance modes pass
        # everything through to branch B.
        scores = branch_a_maps(init_model(small_config()), np.zeros((1, 3, 32, 32), dtype=np.float32))
        for mode in ("ccam", "threshold"):
            masks = model._guidance_masks(scores, np.array([1]), mode)
            np.testing.assert_array_equal(masks, np.ones((1, 4, 4)))

    def test_guidance_always_in_unit_interval(self):
        images = np.random.default_rng(0).uniform(size=(5, 3, 32, 32)).astype(np.float32)
        scores = branch_a_maps(init_model(small_config()), images)
        for mode in ("ccam", "threshold"):
            masks = model._guidance_masks(scores, np.zeros(5, dtype=int), mode)
            assert masks.shape == (5, 4, 4)
            assert masks.min() >= 0.0
            assert masks.max() <= 1.0

    def test_threshold_guidance_is_binary(self):
        images = np.random.default_rng(1).uniform(size=(1, 3, 32, 32)).astype(np.float32)
        scores = branch_a_maps(init_model(small_config()), images)
        masks = model._guidance_masks(scores, np.array([0]), "threshold")
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_guide_class_out_of_range(self):
        params = init_model(small_config())
        with pytest.raises(IndexError, match="guide class"):
            forward(params, np.zeros((3, 32, 32), dtype=np.float32), guide_class=4)

    def test_inference_guide_is_branch_a_argmax(self):
        params = init_model(small_config())
        _, samples = small_dataset(n_test=5)
        images = np.stack([s.image for s in samples])
        for mode in ("ccam", "threshold"):
            unguided = forward(params, images, guide_class=None, mode=mode)
            top1 = np.argmax(unguided.logits_a.data, axis=1)
            guided = forward(params, images, guide_class=top1, mode=mode)
            np.testing.assert_array_equal(unguided.score_maps_b, guided.score_maps_b)
            # the guide class matters: any other class gives other branch-B maps
            misguided = forward(params, images, guide_class=(top1 + 1) % 4, mode=mode)
            assert not np.array_equal(unguided.score_maps_b, misguided.score_maps_b)

    def test_all_ones_override_feeds_branch_b_raw_features(self, monkeypatch):
        params = init_model(small_config())
        image = np.random.default_rng(3).uniform(size=(3, 32, 32)).astype(np.float32)
        ones = np.ones((1, 4, 4), dtype=np.float32)
        monkeypatch.setattr(model, "_guidance_masks", lambda *args: ones)
        art = forward(params, image, guide_class=0)
        assert art.guidance is ones
        features = backbone_forward(params, Tensor(image))
        scores_b, logits_b = head_forward(params, "branch_b", features)
        np.testing.assert_array_equal(art.score_maps_b[0], scores_b.data)
        np.testing.assert_array_equal(art.logits_b.data[0], logits_b.data)

    def test_branch_symmetry_under_parameter_swap(self, monkeypatch):
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
        monkeypatch.setattr(model, "_guidance_masks", lambda *args: np.ones((1, 4, 4), dtype=np.float32))
        original = forward(params, image, guide_class=0)
        mirrored = forward(swapped, image, guide_class=0)
        np.testing.assert_array_equal(original.logits_a.data, mirrored.logits_b.data)
        np.testing.assert_array_equal(original.logits_b.data, mirrored.logits_a.data)

    def test_unknown_mode_errors(self):
        params = init_model(small_config())
        with pytest.raises(ValueError, match="guidance mode"):
            forward(params, np.zeros((3, 32, 32), dtype=np.float32), guide_class=0, mode="erase")

    @pytest.mark.parametrize("mode", ["ccam", "threshold"])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_stack_equals_per_image(self, mode, labelled):
        params = init_model(small_config())
        _, samples = small_dataset(n_test=5)
        images = np.stack([s.image for s in samples])
        labels = [s.label for s in samples] if labelled else [None] * 5
        art = forward(params, images, guide_class=labels if labelled else None, mode=mode)
        assert art.score_maps_a.shape == (5, 4, 4, 4)
        for i, image in enumerate(images):
            # forward promises nothing for N=1: BLAS may round a stack of one
            # differently, so each image runs in a stack padded as predict_maps pads
            padded = np.stack([image] * model.TRAIN_CHUNK)
            guides = [labels[i]] * model.TRAIN_CHUNK if labelled else None
            one = forward(params, padded, guide_class=guides, mode=mode)
            for field, value in artifact_arrays(one).items():
                np.testing.assert_array_equal(artifact_arrays(art)[field][i], value[0], err_msg=field)

    def test_stack_needs_one_guide_class_per_image(self):
        params = init_model(small_config())
        with pytest.raises(ValueError, match="guide classes"):
            forward(params, np.zeros((3, 3, 32, 32), dtype=np.float32), guide_class=[0, 1])

    def test_non_finite_branch_a_maps_raise_numeric_error(self):
        params = init_model(small_config())
        params["backbone.0.bias"].data[0] = np.nan
        with pytest.raises(NumericError, match="branch_a"):
            forward(params, np.zeros((3, 32, 32), dtype=np.float32), guide_class=0)


class TestPredictMaps:
    def trained(self):
        train_split, test_split = small_dataset(n_train=8, n_test=7)
        params = init_model(small_config())
        train(params, train_split, TrainConfig(epochs=1, batch_size=4, learning_rate=0.05, seed=1))
        return params, test_split

    @pytest.mark.parametrize("mode", ["ccam", "threshold"])
    def test_equals_forward_bit_for_bit(self, mode):
        params, samples = self.trained()
        images = np.stack([s.image for s in samples])  # N=7: more than one TRAIN_CHUNK
        score_a, score_b, ranking, guidance = predict_maps(params, images, mode)
        assert score_a.shape == score_b.shape == (7, 4, 4, 4)
        assert ranking.shape == (7, 4)
        assert guidance.shape == (7, 4, 4)
        with no_grad():
            for i, sample in enumerate(samples):
                art = forward(params, np.stack([sample.image] * model.TRAIN_CHUNK), guide_class=None, mode=mode)
                np.testing.assert_array_equal(score_a[i], art.score_maps_a[0])
                np.testing.assert_array_equal(score_b[i], art.score_maps_b[0])
                np.testing.assert_array_equal(guidance[i], art.guidance[0])
                mean_logits = (art.logits_a.data[0] + art.logits_b.data[0]) / 2
                np.testing.assert_array_equal(ranking[i], np.argsort(-mean_logits, kind="stable"))

    def test_list_equals_stack_bit_for_bit(self):
        params, samples = self.trained()
        images = [s.image for s in samples]
        for listed, stacked in zip(predict_maps(params, images), predict_maps(params, np.stack(images))):
            np.testing.assert_array_equal(listed, stacked)
    def test_forward_runs_at_most_a_training_chunk(self, monkeypatch):
        params, samples = self.trained()
        sizes = []

        def recording_forward(params, images, *args):
            sizes.append(len(images))
            return forward(params, images, *args)

        monkeypatch.setattr(model, "forward", recording_forward)
        predict_maps(params, np.stack([s.image for s in samples]))
        assert sizes == [model.TRAIN_CHUNK, model.TRAIN_CHUNK]

    def test_subset_equals_slice_of_the_whole(self):
        # scipy-openblas 0.3.31 (SkylakeX kernels) rounds a one-image stack
        # at 32x32 differently from a four-image one, so an unpadded short
        # chunk gave other bits
        params = init_model(ModelConfig(num_classes=4))
        _, samples = small_dataset(n_test=9)
        images = np.stack([s.image for s in samples])
        whole = predict_maps(params, images)
        for subset in ([0], [3], [0, 1], [0, 1, 2, 3, 4], [8]):
            for part, full in zip(predict_maps(params, images[subset]), whole):
                np.testing.assert_array_equal(part, full[subset], err_msg=str(subset))

    def test_tied_classes_rank_lowest_first(self):
        # the objectness oracle copies one channel into every class map, so
        # every sample's classes tie; the first maximum ranks first, as argmax picks it
        _, samples = small_dataset(n_test=3)
        _, _, ranking, _ = predict_maps(oracles.objectness_params(), np.stack([s.image for s in samples]))
        np.testing.assert_array_equal(ranking, np.tile(np.arange(4), (3, 1)))

    def test_non_finite_weight_raises_numeric_error(self):
        params = init_model(small_config())
        params["branch_b.conv2.weight"].data[0, 0, 1, 1] = np.nan
        with pytest.raises(NumericError, match="branch_b"):
            predict_maps(params, np.zeros((2, 3, 32, 32), dtype=np.float32))

    def test_unknown_mode_errors(self):
        params = init_model(small_config())
        with pytest.raises(ValueError, match="guidance mode"):
            predict_maps(params, np.zeros((1, 3, 32, 32), dtype=np.float32), mode="erase")

    @pytest.mark.parametrize(
        "call, shape",
        [(predict_maps, (3, 32, 32)), (predict_maps, (0, 3, 32, 32)), (forward, (0, 3, 32, 32))],
        ids=["predict_one_image", "predict_empty", "forward_empty"],
    )
    def test_bad_batch_shapes_are_refused(self, call, shape):
        with pytest.raises(ValueError, match=re.escape(f"(N,3,H,W) stack with N >= 1, got shape {shape}")):
            call(init_model(small_config()), np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("odd", [2, 5], ids=["same_chunk", "later_chunk"])
    def test_mixed_image_sizes_are_refused_before_any_forward(self, monkeypatch, odd):
        images = [np.zeros((3, 32, 32), dtype=np.float32)] * 7
        images[odd] = np.zeros((3, 16, 16), dtype=np.float32)
        calls = []
        monkeypatch.setattr(model, "forward", lambda *args: calls.append(args) or forward(*args))
        message = f"image {odd} has shape (3, 16, 16), but image 0 has shape (3, 32, 32)"
        with pytest.raises(ValueError, match=re.escape(message)):
            predict_maps(init_model(small_config()), images)
        assert calls == []


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

    @pytest.mark.parametrize("mode", ["ccam", "threshold"])
    def test_chunked_step_equals_per_sample_accumulation(self, mode):
        # 6 samples in one batch: a full chunk and a partial one
        train_split, _ = small_dataset(n_train=6)
        config = TrainConfig(epochs=1, batch_size=6, learning_rate=1.0, guidance_mode=mode, seed=1)
        initial = init_model(small_config())
        chunked, reference = initial.clone(), initial.clone()
        train(chunked, train_split, config)
        oracles.per_sample_sgd_step(reference, train_split, config)
        for name, start in initial.tensors.items():
            step = chunked[name].data - start.data
            expected = reference[name].data - start.data
            scale = np.abs(expected).max()
            assert scale > 0, name
            assert np.abs(step - expected).max() <= 1e-4 * scale, name

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty"):
            train(init_model(small_config()), [], TrainConfig())

    # seed 1 shuffles sample 1 into image 0's chunk, and sample 8 into the
    # second batch, after one SGD step
    @pytest.mark.parametrize("odd", [1, 8], ids=["same_chunk", "later_chunk"])
    def test_mixed_image_sizes_are_refused_before_any_step(self, odd):
        train_split, _ = small_dataset(n_train=8)
        odd_sample = replace(train_split[0], image=np.zeros((3, 16, 16), dtype=np.float32))
        samples = train_split[:odd] + [odd_sample] + train_split[odd:]
        params = init_model(small_config())
        before = {name: t.data.copy() for name, t in params.tensors.items()}
        message = f"image {odd} has shape (3, 16, 16), but image 0 has shape (3, 32, 32)"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(params, samples, TrainConfig(epochs=1, batch_size=4, learning_rate=0.05, seed=1))
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor.data, before[name]), name

    def test_non_finite_loss_raises_numeric_error(self):
        train_split, _ = small_dataset(n_train=2)
        params = init_model(small_config())
        params["branch_b.score.weight"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            train(params, train_split, TrainConfig(epochs=1, batch_size=2, learning_rate=0.01))

    def test_non_finite_parameter_after_last_step_raises_numeric_error(self, monkeypatch):
        # the loss is checked before each step, so only the final check can
        # see a weight that the last step made non-finite
        import camloc.model as model_mod

        real_step = model_mod.sgd_step

        def overflowing_step(params, lr):
            real_step(params, lr)
            params[-1].data[0] = np.inf

        monkeypatch.setattr(model_mod, "sgd_step", overflowing_step)
        train_split, _ = small_dataset(n_train=4)
        with pytest.raises(NumericError, match="non-finite parameter"):
            train(init_model(small_config()), train_split, TrainConfig(epochs=1, batch_size=4, learning_rate=0.01))

    def test_divergence_raises_numeric_error_without_warnings(self):
        train_split, _ = small_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            with pytest.raises(NumericError, match="non-finite"):
                train(
                    init_model(small_config()),
                    train_split,
                    TrainConfig(epochs=2, batch_size=4, learning_rate=1e10, seed=3),
                )

    def test_report_length_matches_epochs(self):
        train_split, _ = small_dataset(n_train=4)
        report = train(
            init_model(small_config()),
            train_split,
            TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, seed=2),
        )
        assert len(report.losses) == len(report.acc_a) == len(report.acc_b) == 3


class TestTrainChunks:
    """``train`` equals its chunk loop written out; 30 samples at batch 16
    give chunks of 4, 4, 4, 4 and then 4, 4, 4, 2."""

    def test_equals_its_chunk_loop_written_out(self, tmp_path):
        train_split, _ = small_dataset(n_train=30)
        config = TrainConfig(epochs=2, batch_size=16, learning_rate=0.1, seed=4)
        initial = init_model(small_config())
        trained, reference = initial.clone(), initial.clone()
        report = train(trained, train_split, config)

        # model.train's loop, written out chunk by chunk
        labels = np.array([sample.label for sample in train_split])
        rng = np.random.default_rng(config.seed)
        losses = []
        for _ in range(config.epochs):
            order = rng.permutation(len(train_split))
            total = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                for offset in range(0, len(batch), model.TRAIN_CHUNK):
                    chunk = batch[offset : offset + model.TRAIN_CHUNK]
                    images = np.stack([train_split[i].image for i in chunk])
                    total += model._train_chunk(reference, images, labels[chunk], config)[0]
                for p in reference.trainable():
                    p.grad *= np.float32(1.0 / len(batch))
                model.sgd_step(reference.trainable(), config.learning_rate)
            losses.append(total / len(train_split))

        assert report.losses == losses
        save_checkpoint(trained, tmp_path / "trained.bin")
        save_checkpoint(reference, tmp_path / "reference.bin")
        assert (tmp_path / "trained.bin").read_bytes() == (tmp_path / "reference.bin").read_bytes()


def test_training_chunk_graph_fits_its_memory_budget():
    # tracemalloc counts numpy's buffers: what one default chunk's graph
    # holds after forward, and the most the backward pass holds at once
    params = init_model(ModelConfig(num_classes=4))
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(model.TRAIN_CHUNK, 3, 64, 64)).astype(np.float32)
    labels = np.arange(model.TRAIN_CHUNK) % 4
    tracemalloc.start()
    try:
        art = forward(params, images, guide_class=labels)
        loss = dual_branch_loss(art.logits_a, art.logits_b, labels)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert after_forward <= 2.5 * 2**20
    assert backward_peak <= 6.5 * 2**20


class TestTrainConfig:
    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="guidance mode"):
            TrainConfig(guidance_mode="wipe")

    def test_negative_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=lr)


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

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.bin"
        params = init_model(small_config())
        save_checkpoint(params, path)
        before = path.read_bytes()

        class FailingData:
            ndim, shape = 1, (4,)

            def astype(self, *args, **kwargs):
                raise OSError("disk full")

        monkeypatch.setattr(params["branch_b.score.bias"], "data", FailingData())
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "extra.bin"
        params = init_model(small_config())
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a flipped bit makes the first name byte 0xe2, which starts no valid UTF-8 here
            (lambda blob: blob.replace(b"backbone.0.weight", b"\xe2ackbone.0.weight"), "is not UTF-8"),
            (
                lambda blob: blob.replace(b"backbone.1.weight", b"backbone.0.weight"),
                "backbone.0.weight appears twice",
            ),
            # one tensor of rank 70, every dim 1: the sizes add up, numpy cannot hold it
            (
                lambda blob: (
                    blob[:8] + struct.pack("<IHc", 1, 1, b"w") + struct.pack("<B70I", 70, *[1] * 70) + bytes(4)
                ),
                "tensor w of shape",
            ),
        ],
        ids=["name_not_utf8", "name_twice", "rank_70"],
    )
    def test_malformed_tensor_header_is_checkpoint_error(self, tmp_path, edit, message):
        path = tmp_path / "model.bin"
        save_checkpoint(init_model(small_config()), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointError, match=message) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
