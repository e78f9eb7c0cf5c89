"""camloc: weakly supervised object localization with complementary activation maps.

A small numpy library covering the full pipeline: a float32 autodiff core,
a two-branch convolutional classifier whose second branch is guided by the
complement of the first branch's class activation map, three map fusion
strategies, box extraction and localization metrics, a synthetic dataset
with exact ground-truth boxes, and a CLI to orchestrate it all.
"""

from .cam import CamMap, class_map, complement, normalize_minmax, threshold_erase
from .data import DatasetConfig, Sample, generate_dataset, head_palette, read_annotations, write_annotations
from .fusion import (
    FusionConfig,
    activity_map,
    block_average,
    fuse_l1norm,
    fusion_weights,
    localization_map,
)
from .imageio import read_pgm, read_ppm, write_pgm, write_ppm
from .metrics import BBox, EvalRecord, MetricsReport, evaluate, extract_bbox, extract_bboxes, iou, write_records
from .model import (
    CheckpointError,
    ForwardArtifacts,
    ModelConfig,
    ModelParams,
    NumericError,
    TrainConfig,
    TrainReport,
    dual_branch_loss,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .tensor import (
    Tensor,
    add,
    backward,
    bilinear_upsample,
    broadcast_mul_channels,
    conv2d,
    global_avg_pool,
    maxpool2d,
    mul,
    no_grad,
    relu,
    sgd_step,
    softmax_cross_entropy,
    tensor_sum,
)

__version__ = "0.1.0"
