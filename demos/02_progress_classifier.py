"""Train the self-supervised task-progress classifier.

The classifier never sees labels: training pairs are two frames from the
same trajectory, and the target is simply which temporal bin their real
time gap falls into. On data where observations encode task phase, the
learned notion of "how much time should this change take" transfers to
scoring unseen windows.
"""

import tempfile

import numpy as np

from trajcurate.nn import TrainConfig
from trajcurate.progress import (
    SamplingConfig,
    default_bins,
    progress_from_deltas,
    sample_training_pairs,
    train_progress_model,
)
from trajcurate.synthgen import SynthConfig, generate
from trajcurate.trajstore import Dataset

data = tempfile.TemporaryDirectory()  # generate writes the dataset here; removed at the end
ds, _ = generate(SynthConfig(num_traj=60, frames_per_traj=200, seed=1), data.name)
bins = default_bins()
print(f"temporal bins (s): edges {bins.edges}, representatives {bins.representatives}")

# a peek at the self-labeled data: delta features against bin labels
one = Dataset(trajectories=ds.trajectories[:1], obs_dim=ds.obs_dim, action_dim=ds.action_dim)
pairs = sample_training_pairs(one, bins, pairs_per_traj=5, seed=0)
for t, dt, label in zip(pairs.t, pairs.dt, pairs.label):
    print(f"  t={t:3d}  dt={dt:5.2f}s  -> bin {label}")

model, report = train_progress_model(
    ds,
    bins,
    TrainConfig(epochs=120, seed=1),
    SamplingConfig(pairs_per_traj=80),
)
print(f"train pairs {report.pairs_train}, held-out pairs {report.pairs_val} "
      f"(split by trajectory, so no leakage)")
print(f"held-out bin accuracy: {report.accuracy:.3f} (chance would be 0.20)")

# the trained model reads elapsed time off observation differences alone
traj = ds.trajectories[-1]
obs = traj.obs.astype(np.float64)
for gap in (5, 10, 40, 80):
    delta = obs[100 + gap] - obs[100]
    t_p = progress_from_deltas(model, bins, delta[None, :])[0]
    print(f"frames 100 -> {100 + gap} (true gap {gap / traj.fps:4.1f}s): "
          f"predicted {t_p:4.2f}s")

data.cleanup()
