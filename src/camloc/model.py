"""Two-branch convolutional classifier with complement-guided second branch.

A shared conv/pool backbone feeds branch A directly. Branch A's class map
for the guide class (the ground truth while training, its own top-1 at
inference) is normalized and inverted, and the result scales the backbone
features that branch B consumes. Both branches end in a 1x1 conv producing
per-class score maps, pooled to logits; the loss is the sum of the two
branches' cross entropies, and both train the one backbone, as in ACoL
(Zhang et al., CVPR 2018). The guidance mask is a constant of the graph.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cam import complement, normalize_minmax, threshold_erase
from .imageio import atomic_write

# not called here any more, but perfbench/tracer.py patches them in this module
from .cam import class_map  # noqa: F401
from .tensor import maxpool2d  # noqa: F401
from .tensor import (
    Tensor,
    add,
    backward,
    broadcast_mul_channels,
    conv2d,
    conv_pool_relu,
    global_avg_pool,
    no_grad,
    relu,
    sgd_step,
    softmax_cross_entropy,
)

GUIDANCE_MODES = ("ccam", "threshold")

# the architecture: one conv/pool block per backbone width, then two 3x3
# head convs of HEAD_WIDTH channels per branch
BACKBONE_CHANNELS = (16, 32, 64)
HEAD_WIDTH = 64

# δ of the erasing baseline (ACoL): threshold guidance erases the cells
# whose normalized guide-class map reaches it
ERASE_THRESHOLD = 0.6

# cap on the global norm of each SGD step's mean gradient: an uncapped step
# at lr 0.1 can throw a converging run back to chance. Of 1.5, 2, 2.5 and 3,
# all at 100% top-1 on the last 10% of the training split when trained on
# the rest, 3 had the lowest held-out loss
CLIP_NORM = 3.0

# samples per training graph: each chunk is one forward and backward pass
TRAIN_CHUNK = 4

CHECKPOINT_MAGIC = b"HCLN"
CHECKPOINT_VERSION = 1


class NumericError(RuntimeError):
    """Raised when training meets a non-finite loss, or inference non-finite maps."""


class CheckpointError(Exception):
    """Raised for malformed checkpoint files."""


@dataclass
class ModelConfig:
    num_classes: int
    seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.1
    guidance_mode: str = "ccam"
    seed: int = 7

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.guidance_mode not in GUIDANCE_MODES:
            raise ValueError(
                f"unknown guidance mode '{self.guidance_mode}'; valid: {', '.join(GUIDANCE_MODES)}"
            )


class ModelParams:
    """Named parameter tensors, insertion-ordered; all gradient-enabled."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def trainable(self) -> list[Tensor]:
        return list(self.tensors.values())

    @property
    def num_classes(self) -> int:
        return self.tensors["branch_a.score.weight"].shape[0]

    def clone(self) -> "ModelParams":
        return ModelParams({name: Tensor(t.data.copy(), grad_enabled=True) for name, t in self.tensors.items()})


@dataclass
class ForwardArtifacts:
    """What :func:`forward` computed. The (N,C,h,w) score maps and the
    (N,h,w) ``guidance``, the mask that scaled branch B's features, are
    float32 arrays outside the graph; the (N,C) logits are the graph's
    Tensors, which the loss needs."""

    score_maps_a: np.ndarray
    score_maps_b: np.ndarray
    logits_a: Tensor
    logits_b: Tensor
    guidance: np.ndarray


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    acc_a: list[float] = field(default_factory=list)
    acc_b: list[float] = field(default_factory=list)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    out_ch, in_ch = shape[0], shape[1]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    bound = np.sqrt(6.0 / (in_ch * receptive + out_ch * receptive))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}

    def conv_param(name: str, shape: tuple[int, ...]) -> None:
        shapes[f"{name}.weight"] = shape
        shapes[f"{name}.bias"] = (shape[0],)

    in_ch = 3
    for i, out_ch in enumerate(BACKBONE_CHANNELS):
        conv_param(f"backbone.{i}", (out_ch, in_ch, 3, 3))
        in_ch = out_ch
    for branch in ("branch_a", "branch_b"):
        conv_param(f"{branch}.conv1", (HEAD_WIDTH, BACKBONE_CHANNELS[-1], 3, 3))
        conv_param(f"{branch}.conv2", (HEAD_WIDTH, HEAD_WIDTH, 3, 3))
        conv_param(f"{branch}.score", (config.num_classes, HEAD_WIDTH, 1, 1))
    return shapes


def init_model(config: ModelConfig) -> ModelParams:
    """Deterministic init from a seeded PCG64 generator: Glorot-uniform
    weights drawn in :func:`param_shapes` order, zero biases."""
    rng = np.random.default_rng(config.seed)
    return ModelParams({
        name: Tensor(
            _glorot(rng, shape) if name.endswith(".weight") else np.zeros(shape, dtype=np.float32),
            grad_enabled=True,
        )
        for name, shape in param_shapes(config).items()
    })


def _conv_block(params: ModelParams, name: str, x: Tensor) -> Tensor:
    weight = params[f"{name}.weight"]
    pad = weight.shape[2] // 2
    return conv2d(x, weight, params[f"{name}.bias"], stride=1, pad=pad)


def backbone_forward(params: ModelParams, image: Tensor) -> Tensor:
    """The conv/pool trunk over a (3,H,W) image or a channel-major (3,N,H,W)
    batch.

    Each block is one :func:`conv_pool_relu`, which keeps no conv output for
    backward; its relu runs after the pool, on a quarter of the elements.
    Max commutes with the monotone relu, and under the first-max tie rule
    the gradients are the same as with relu before the pool.
    """
    h = image
    for i in range(len(BACKBONE_CHANNELS)):
        weight = params[f"backbone.{i}.weight"]
        h = conv_pool_relu(h, weight, params[f"backbone.{i}.bias"], weight.shape[2] // 2)
    return h


def head_forward(params: ModelParams, branch: str, features: Tensor) -> tuple[Tensor, Tensor]:
    """One branch head: two 3x3 convs then a 1x1 scoring conv; returns
    (score maps, pooled logits)."""
    h = relu(_conv_block(params, f"{branch}.conv1", features))
    h = relu(_conv_block(params, f"{branch}.conv2", h))
    scores = _conv_block(params, f"{branch}.score", h)
    return scores, global_avg_pool(scores)


def _guidance_masks(score_maps_a: np.ndarray, guides, mode: str) -> np.ndarray:
    """(N,h,w) guidance from (C,N,h,w) branch-A maps: each sample's guide
    class map, normalized, then complemented (ccam) or thresholded."""
    if not np.isfinite(score_maps_a).all():
        raise NumericError("non-finite branch_a score maps")
    cam = normalize_minmax(score_maps_a[guides, np.arange(score_maps_a.shape[1])])
    return complement(cam) if mode == "ccam" else threshold_erase(cam, ERASE_THRESHOLD)


def forward(
    params: ModelParams, image, guide_class=None, mode: str = TrainConfig.guidance_mode
) -> ForwardArtifacts:
    """Full two-branch forward pass over an (N,3,H,W) image stack; a
    (3,H,W) image is the N=1 stack.

    ``guide_class`` selects which class map drives each sample's guidance:
    N ints (an int for one image); None uses branch A's top-1 prediction
    (the label-free inference protocol). Branch B's (N,h,w) mask always
    comes from :func:`_guidance_masks`, and comes back as ``guidance``.

    The stack runs channel-major: it is transposed to (3,N,H,W) once on
    entry. Every artifact comes back with the leading batch axis, a single
    image included: score maps are (N,C,h,w) copies outside the graph and
    logits are (N,C).
    """
    if mode not in GUIDANCE_MODES:
        raise ValueError(f"unknown guidance mode '{mode}'; valid: {', '.join(GUIDANCE_MODES)}")
    images = np.asarray(image, dtype=np.float32)
    if images.ndim == 3:
        images = images[None]
    if images.ndim != 4 or not len(images):
        raise ValueError(f"image must be (3,H,W) or an (N,3,H,W) stack with N >= 1, got shape {images.shape}")
    n = len(images)

    features = backbone_forward(params, Tensor(images.transpose(1, 0, 2, 3)))
    score_maps_a, logits_a = head_forward(params, "branch_a", features)

    if guide_class is None:
        guides = np.argmax(logits_a.data, axis=1)
    else:
        guides = np.asarray(guide_class).reshape(-1)
        if len(guides) != n:
            raise ValueError(f"{len(guides)} guide classes for {n} images")
        if guides.min() < 0 or guides.max() >= params.num_classes:
            raise IndexError(f"guide class {guide_class} out of range for {params.num_classes} classes")
    guidance = _guidance_masks(score_maps_a.data, guides, mode)

    guided = broadcast_mul_channels(features, Tensor(guidance))
    score_maps_b, logits_b = head_forward(params, "branch_b", guided)
    return ForwardArtifacts(
        score_maps_a=score_maps_a.data.transpose(1, 0, 2, 3).copy(),
        score_maps_b=score_maps_b.data.transpose(1, 0, 2, 3).copy(),
        logits_a=logits_a,
        logits_b=logits_b,
        guidance=guidance,
    )


def _check_same_shape(images) -> None:
    """Refuse a sequence of images whose shapes differ, before any work is done."""
    first = np.shape(images[0])
    for index, image in enumerate(images):
        if np.shape(image) != first:
            raise ValueError(f"image {index} has shape {np.shape(image)}, but image 0 has shape {first}")


def predict_maps(params: ModelParams, images, mode: str = TrainConfig.guidance_mode):
    """Graph-free inference pass over a sequence of (3,H,W) float32 images,
    such as a list or an (N,3,H,W) array; the only code that batches
    inference.

    Returns branch A's and branch B's score maps (N,C,h,w) of
    :func:`forward` under ``no_grad``, guided by branch A's top-1 class per
    sample; the (N,C) class ranking: each sample's classes by the mean of
    the two branches' logits, highest first, a tie to the lower class; and
    the (N,h,w) guidance masks that scaled branch B's features.
    Non-finite maps raise :class:`NumericError`, so numpy's floating-point
    warnings on the way there are silenced.

    Exactly ``TRAIN_CHUNK`` images are stacked and run through ``forward``
    at a time, so the im2col columns of inference are never larger than
    those of training. A short last chunk is padded by repeating its last
    image, and the padding's rows are dropped: BLAS may round a stack of
    one differently from a stack of four, so with one stack shape every
    sample's result is the same bits at any split. Images of different
    shapes are refused with a ``ValueError`` before the first chunk runs.
    """
    if not len(images) or np.ndim(images[0]) != 3:
        raise ValueError(
            f"expected (3,H,W) images, as a list or an (N,3,H,W) stack with N >= 1, got shape {np.shape(images)}"
        )
    _check_same_shape(images)
    parts = []
    with no_grad(), np.errstate(all="ignore"):
        for start in range(0, len(images), TRAIN_CHUNK):
            chunk = list(images[start : start + TRAIN_CHUNK])
            n = len(chunk)
            art = forward(params, np.stack(chunk + chunk[-1:] * (TRAIN_CHUNK - n)), None, mode)
            arrays = (art.score_maps_a, art.score_maps_b, art.logits_a.data, art.logits_b.data, art.guidance)
            parts.append([array[:n] for array in arrays])
    scores_a, scores_b, logits_a, logits_b, guidance = (np.concatenate(arrays) for arrays in zip(*parts))
    for branch, scores, logits in (("branch_a", scores_a, logits_a), ("branch_b", scores_b, logits_b)):
        if not (np.isfinite(scores).all() and np.isfinite(logits).all()):
            raise NumericError(f"non-finite {branch} score maps at inference")
    return scores_a, scores_b, np.argsort(-((logits_a + logits_b) / 2), axis=1, kind="stable"), guidance


def dual_branch_loss(logits_a: Tensor, logits_b: Tensor, label) -> Tensor:
    """Sum of the two branches' softmax cross entropies; for (N,C) logits
    and N labels, summed over the samples too."""
    return add(softmax_cross_entropy(logits_a, label), softmax_cross_entropy(logits_b, label))


def _train_chunk(params: ModelParams, images: np.ndarray, labels: np.ndarray, config: TrainConfig):
    """Forward and backward over one chunk, guided by the labels; gradients
    accumulate into the parameters. Returns the chunk's loss sum and each
    branch's top-1 hits. The chunk's graph is freed on return."""
    art = forward(params, images, guide_class=labels, mode=config.guidance_mode)
    loss = dual_branch_loss(art.logits_a, art.logits_b, labels)
    backward(loss)
    hits_a = int((np.argmax(art.logits_a.data, axis=1) == labels).sum())
    hits_b = int((np.argmax(art.logits_b.data, axis=1) == labels).sum())
    return float(loss.data), hits_a, hits_b


# a diverging run raises NumericError, so numpy's floating-point warnings on
# the way there are silenced
@np.errstate(all="ignore")
def train(params: ModelParams, dataset, config: TrainConfig, progress=None) -> TrainReport:
    """SGD training; guidance follows the ground-truth label.

    Each batch runs as chunks of ``TRAIN_CHUNK`` samples, one graph per
    chunk; their gradients accumulate into the batch gradient g. Each step
    scales g by the one factor min(1/len(batch), CLIP_NORM/‖g‖): the batch
    mean, with its global norm capped at ``CLIP_NORM``. ‖g‖ is taken in
    float64 over ``params.trainable()`` in order, with numpy's own sums and
    no BLAS call, so its bits do not depend on the BLAS thread count. The
    sample order is reshuffled every epoch by a generator seeded from
    ``config.seed``, so identical configs reproduce identical runs. A
    non-finite loss or gradient norm, or a parameter left non-finite by the
    last step, raises :class:`NumericError`; the first two raise before
    the step, so no parameter changes. Samples whose images differ in
    shape are refused with a ``ValueError`` before any parameter changes.

    No chunk's graph holds im2col columns: each conv allocates its columns
    and column gradients fresh and drops them before it returns, so at most
    one column-sized array is alive at a time.
    """
    samples = list(dataset)
    if not samples:
        raise ValueError("training dataset is empty")
    _check_same_shape([sample.image for sample in samples])
    labels = np.array([sample.label for sample in samples])
    rng = np.random.default_rng(config.seed)
    trainable = params.trainable()
    report = TrainReport()

    for epoch in range(config.epochs):
        order = rng.permutation(len(samples))
        loss_sum = 0.0
        hits_a = 0
        hits_b = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            for offset in range(0, len(batch), TRAIN_CHUNK):
                chunk = batch[offset : offset + TRAIN_CHUNK]
                images = np.stack([samples[index].image for index in chunk])
                value, chunk_a, chunk_b = _train_chunk(params, images, labels[chunk], config)
                if not np.isfinite(value):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                loss_sum += value
                hits_a += chunk_a
                hits_b += chunk_b
            norm = np.sqrt(sum(np.square(p.grad, dtype=np.float64).sum() for p in trainable))
            if not np.isfinite(norm):
                raise NumericError(f"non-finite gradient norm at epoch {epoch}")
            scale = np.float32(min(1.0 / len(batch), CLIP_NORM / norm))
            for p in trainable:
                p.grad *= scale
            sgd_step(trainable, config.learning_rate)
        n = len(samples)
        report.losses.append(loss_sum / n)
        report.acc_a.append(hits_a / n)
        report.acc_b.append(hits_b / n)
        if progress is not None:
            progress(epoch, report.losses[-1], report.acc_a[-1], report.acc_b[-1])
    for name, tensor in params.tensors.items():
        if not np.isfinite(tensor.data).all():
            raise NumericError(f"non-finite parameter {name} after training")
    return report


# ---------------------------------------------------------------------------
# checkpoint format: magic "HCLN", u32 version, u32 tensor count, then per
# tensor: u16 name length + name, u8 ndim, ndim * u32 dims, float32 data.
# All integers little-endian.


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the checkpoint atomically (see :func:`atomic_write`)."""
    with atomic_write(path) as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", CHECKPOINT_VERSION))
        handle.write(struct.pack("<I", len(params.tensors)))
        for name, tensor in params.tensors.items():
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<B", tensor.ndim))
            handle.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            handle.write(tensor.data.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that is not one is a :class:`CheckpointError` that names it:
    truncated, a bad magic or version, a tensor name that is not UTF-8 or
    comes twice, a rank numpy cannot hold, or trailing bytes.
    """
    blob = Path(path).read_bytes()
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(f"{path}: unexpected end of file")
        chunk = blob[offset : offset + n]
        offset += n
        return chunk

    magic = take(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic: expected {CHECKPOINT_MAGIC!r}, found {magic!r}")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", take(4))

    tensors: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        raw_name = take(name_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name {raw_name!r} is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} appears twice")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        raw = take(4 * math.prod(dims))  # Python ints: a huge shape cannot wrap around
        try:
            data = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor {name} of shape {dims}: {exc}") from None
        tensors[name] = Tensor(data, grad_enabled=True)
    if offset != len(blob):
        raise CheckpointError(f"{path}: unexpected trailing data ({len(blob) - offset} bytes)")
    return ModelParams(tensors)
