"""Train a small model on a reduced dataset and compare localization with and
without fusing the second branch's map. Takes about a minute."""

import numpy as np

from camloc import (
    DatasetConfig,
    FusionConfig,
    ModelConfig,
    TrainConfig,
    evaluate,
    generate_dataset,
    init_model,
    train,
)

dataset = DatasetConfig(num_classes=4, train_samples=400, test_samples=100, seed=7)
train_split, test_split = generate_dataset(dataset)

params = init_model(ModelConfig(num_classes=4, seed=7))
config = TrainConfig(epochs=4, batch_size=4, learning_rate=0.03, seed=7)

print(f"training on {len(train_split)} samples, {config.epochs} epochs ...")
report = train(
    params,
    train_split,
    config,
    progress=lambda e, loss, acc_a, acc_b: print(
        f"  epoch {e}: loss={loss:.3f} branchA={acc_a:.2f} branchB={acc_b:.2f}"
    ),
)

print("\nevaluating on the test split ...")
for label, strategy in (
    ("branch A map alone", "single"),
    ("addition fusion   ", "addition"),
    ("l1-norm fusion    ", "l1norm"),
):
    metrics, _ = evaluate(params, test_split, FusionConfig(strategy))
    print(
        f"{label}: top-1 acc {100 - metrics.top1_cls_err:5.1f}%  "
        f"gt-known localization {metrics.gt_known_loc_acc:5.1f}%"
    )
print("\n(the full-scale run in the acceptance suite trains longer and scores higher)")
