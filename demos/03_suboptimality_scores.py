"""Score transitions for suboptimality and find the injected anomalies.

A window that should take T seconds but whose endpoints look (to the
progress classifier) like less than T of progress is behind schedule;
V = T - T_p measures by how much. Per-frame aggregation, discounting, and
mean-mixing turn window scores into one final score per frame, and frames
strictly above epsilon_s are flagged for deletion.
"""

import tempfile

import numpy as np

from trajcurate.nn import TrainConfig
from trajcurate.progress import default_bins, train_progress_model
from trajcurate.subopt import SuboptConfig, score_dataset
from trajcurate.synthgen import SynthConfig, auroc, generate

cfg = SynthConfig(
    num_traj=60,
    frames_per_traj=200,
    anomaly_rates={"pause": 0.05, "slow": 0.05, "back_and_forth": 0.05, "failure_retry": 0.05},
    duplicate_rate=0.0,
    seed=5,
)
data = tempfile.TemporaryDirectory()  # generate writes the dataset here; removed at the end
ds, gt = generate(cfg, data.name)
model, report = train_progress_model(
    ds, default_bins(), TrainConfig(epochs=120, seed=5)
)
print(f"progress classifier held-out accuracy: {report.accuracy:.3f}")

series, mask = score_dataset(ds, model, default_bins(), SuboptConfig())

# walk one paused trajectory: scores idle low, then climb over the freeze
paused = next(tid for tid, segs in gt.anomaly_segments.items()
              if segs and segs[0][2] == "pause")
start, end, _ = gt.anomaly_segments[paused][0]
s = next(x for x in series if x.traj_id == paused)
print(f"\n{paused}: pause injected at frames [{start}, {end})")
for i in range(max(0, start - 20), min(len(s.final), end + 20), 10):
    tag = "pause" if start <= i < end else "clean"
    bar = "#" * min(60, max(0, int(s.final[i] * 20)))
    print(f"  frame {i:3d}  final={s.final[i]:6.3f}  {tag:14s} {bar}")

# scores separate anomalous frames from clean ones across the whole set
finals = np.concatenate([x.final for x in series])
labels = np.zeros(mask.total_frames, dtype=bool)
for lo, traj in zip(mask.bounds.tolist(), ds.trajectories):
    for a, b, _ in gt.anomaly_segments[traj.id]:
        labels[lo + a : lo + b] = True
print(f"\nAUROC of final scores vs anomaly frames: {auroc(finals, labels):.3f}")
print(f"frames dropped at epsilon_s=0.58: {mask.dropped_frames()} "
      f"of {mask.total_frames} ({mask.deletion_ratio():.1%})")

data.cleanup()
