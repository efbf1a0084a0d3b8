"""Generate a synthetic benchmark and look inside the container format.

Clean trajectories move a point agent monotonically through a latent task
phase; anomalies rewrite segments of that motion, and near-identical
chunks are planted across trajectories as duplicates. Everything is
deterministic given the seed, so a benchmark is reproducible bytes.
generate writes the container one trajectory at a time as it builds it, so
it never holds the whole dataset's frames.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from trajcurate.dedup import DedupConfig, chunk_dataset, compute_features
from trajcurate.synthgen import SynthConfig, generate, separation_self_check
from trajcurate.trajstore import load_dataset, save_dataset, write_json

cfg = SynthConfig(
    num_traj=30,
    frames_per_traj=200,
    obs_dim=32,
    anomaly_rates={"pause": 0.1, "back_and_forth": 0.1},
    duplicate_rate=0.05,
    seed=7,
)
data = tempfile.TemporaryDirectory()  # removed at the end
root = Path(data.name) / "bench"
ds, gt = generate(cfg, root)  # the saved dataset: each trajectory reads its blob

print(f"{len(ds.trajectories)} trajectories, obs_dim={ds.obs_dim}, action_dim={ds.action_dim}")

# ground truth knows which frames were rewritten and what was planted where
kinds = {}
for tid, segments in gt.anomaly_segments.items():
    for start, end, kind in segments:
        kinds[kind] = kinds.get(kind, 0) + 1
        if kinds[kind] == 1:
            print(f"example {kind}: {tid} frames [{start}, {end})")
print(f"anomaly segments by type: {kinds}")
print(f"planted duplicate groups: {len(gt.groups())}")

# the embedding geometry the deduper relies on: the lowest cosine between
# planted twins, then the highest between any two other chunks. On this small
# set that one sits below the 0.99 decision threshold; on the 200-trajectory
# benchmark it does not (0.9908), so a few unplanted pairs can be flagged
check = separation_self_check(ds, gt)
print(f"planted min cosine:     {check['planted_min_similarity']:.5f}")
# the self-check compares planted twins only; on 300 chunks every pair is cheap
dedup_cfg = DedupConfig(chunk_seconds=cfg.chunk_seconds)
features, _ = compute_features(ds, chunk_dataset(ds, dedup_cfg), dedup_cfg)
group = np.concatenate([gt.chunk_groups[t.id] for t in ds.trajectories])
twins = (group[:, None] == group[None, :]) & (group[:, None] > 0)
sims = features @ features.T
print(f"non-planted max cosine: {sims[~twins & ~np.eye(len(group), dtype=bool)].max():.5f}")

# the on-disk container generate wrote: manifest + one blob per trajectory
write_json(root / "ground_truth.json", gt.to_dict())
manifest = json.loads((root / "manifest.json").read_text())
print(f"manifest format_version={manifest['format_version']}, "
      f"{len(manifest['trajectories'])} entries")
first = manifest["trajectories"][0]
print(f"first entry: id={first['id']} fps={first['fps']} num_frames={first['num_frames']}")

# a save and a load round-trip every frame bit for bit
save_dataset(load_dataset(root), Path(data.name) / "copy")
reloaded = load_dataset(Path(data.name) / "copy")
same = all(
    (a.obs == b.obs).all() and (a.actions == b.actions).all()
    for a, b in zip(ds.trajectories, reloaded.trajectories)
)
print(f"reload is bit-identical: {same}")
data.cleanup()
