"""Show the map pipeline on toy score maps: class map -> normalize ->
complement / threshold-erase, then the three fusion strategies."""

import numpy as np

from camloc import (
    FusionConfig,
    activity_map,
    block_average,
    class_map,
    complement,
    fusion_weights,
    localization_map,
    normalize_minmax,
    threshold_erase,
)
from camloc.fusion import BLOCK_RADIUS

np.set_printoptions(precision=2, suppress=True, linewidth=120)

# Branch A found the top-left corner, branch B the bottom-right blob.
score_a = np.zeros((2, 5, 5), dtype=np.float32)
score_a[0, 0:2, 0:2] = 3.0
score_b = np.zeros((2, 5, 5), dtype=np.float32)
score_b[0, 2:5, 2:5] = 2.0

cam_a = normalize_minmax(class_map(score_a, 0))
print("branch A map (normalized):", cam_a, sep="\n")
print("\ncomplement (what branch B is told to look at):", complement(cam_a), sep="\n")
print("\nthreshold-erased variant (delta=0.6):", threshold_erase(cam_a, 0.6), sep="\n")

print("\n--- fusion strategies ---")
print("max:", localization_map(score_a, score_b, 0, FusionConfig("max")), sep="\n")
print("\naddition:", localization_map(score_a, score_b, 0, FusionConfig("addition")), sep="\n")

activity_a = block_average(activity_map(score_a), radius=BLOCK_RADIUS)
activity_b = block_average(activity_map(score_b), radius=BLOCK_RADIUS)
weight_a, weight_b = fusion_weights(activity_a, activity_b)
print("\nbranch A weight (its share of local activity):", weight_a, sep="\n")
fused = localization_map(score_a, score_b, 0, FusionConfig("l1norm"))
print("\nactivity-weighted fusion of the raw maps:", fused, sep="\n")
print("\nnote: each fused pixel lies between the two branches' raw values (convex blend)")
