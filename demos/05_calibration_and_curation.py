"""Calibrate thresholds to a deletion budget and produce the final masks.

Thresholds are hard to pick in the abstract; deletion budgets are not.
Ratio curves map every candidate threshold to the fraction of frames it
would delete, and threshold_for_ratio inverts the suboptimality curve
exactly via order statistics. Suboptimality and duplicate masks are then
combined into one curation mask with per-frame reasons.
"""

import tempfile

import numpy as np

from trajcurate.calibrate import (
    combine_masks,
    dedup_ratio_curve,
    ratio_curve,
    threshold_for_ratio,
)
from trajcurate.dedup import DedupConfig, cluster_dataset, dedup_dataset
from trajcurate.nn import TrainConfig
from trajcurate.progress import default_bins, train_progress_model
from trajcurate.subopt import SuboptConfig, score_dataset
from trajcurate.synthgen import SynthConfig, generate

cfg = SynthConfig(
    num_traj=60,
    frames_per_traj=200,
    anomaly_rates={"pause": 0.1, "back_and_forth": 0.1},
    duplicate_rate=0.05,
    seed=3,
)
data = tempfile.TemporaryDirectory()  # generate writes the dataset here; removed at the end
ds, gt = generate(cfg, data.name)
model, _ = train_progress_model(
    ds, default_bins(), TrainConfig(epochs=120, seed=3)
)

series, _ = score_dataset(ds, model, default_bins(), SuboptConfig())
finals = np.concatenate([s.final for s in series])

# the suboptimality curve: fraction of frames strictly above each threshold
curve = ratio_curve(finals, np.quantile(finals, np.linspace(0, 1, 9)))
print("suboptimality deletion-ratio curve:")
for theta, ratio in curve.points:
    print(f"  theta={theta:7.3f}  deletes {ratio:6.1%}")
print(f"monotone non-increasing: {curve.is_monotone()}")

# exact inversion: hit a 20% budget on the nose with an order statistic
theta, achieved = threshold_for_ratio(finals, 0.20)
print(f"\n20% budget -> epsilon_s={theta:.4f} (achieves {achieved:.2%})")

# dedup curves replay the keep-one mask per threshold on one clustering
clustered = cluster_dataset(ds, DedupConfig())
dup_curve = dedup_ratio_curve(ds, DedupConfig(), np.linspace(0.9, 1.0, 5), clustered)
print("\ndedup deletion-ratio curve:")
for eps, ratio in dup_curve.points:
    print(f"  epsilon_d={eps:.3f}  deletes {ratio:6.1%}")

# combine both criteria into one mask with per-frame reasons
_, sub_mask = score_dataset(ds, model, default_bins(), SuboptConfig(epsilon_s=theta))
dup_mask, _ = dedup_dataset(ds, DedupConfig())
combined = combine_masks(sub_mask, dup_mask)
n_sub = combined.dropped_frames(reasons=("suboptimal", "both"))
n_dup = combined.dropped_frames(reasons=("duplicate", "both"))
n_both = combined.dropped_frames(reasons=("both",))
total = combined.total_frames
print(f"\ncombined curation of {total} frames:")
print(f"  suboptimal {n_sub}, duplicate {n_dup}, overlap {n_both}")
print(f"  total deletion ratio {combined.deletion_ratio():.1%} "
      f"(= {n_sub / total:.1%} + {n_dup / total:.1%} - {n_both / total:.1%})")

data.cleanup()
