"""Find near-duplicate state-action chunks with clustering + cosine similarity.

Trajectories are cut into non-overlapping 2-second chunks; each chunk
becomes one L2-normalized feature combining pooled observations, temporal
differences, and the action sequence. K-means narrows the search, and each
chunk is scored by its best cosine match within its cluster. The keep-one
rule then deletes every duplicate except a single representative.
"""

import numpy as np

from trajcurate.dedup import DedupConfig, cluster_dataset, dedup_dataset, duplicate_mask
from trajcurate.synthgen import SynthConfig, evaluate_masks, generate

ds, gt = generate(SynthConfig(num_traj=40, frames_per_traj=200, duplicate_rate=0.1, seed=11))
print(f"{len(gt.groups())} planted duplicate groups")

cfg = DedupConfig()  # epsilon_d = 0.99, k = chunks/50, lambda balanced automatically
chunks, features, model, scores = cluster_dataset(ds, cfg)
print(f"{len(chunks)} chunks -> k={model.k} clusters "
      f"(inertia {model.inertia:.4f} after {len(model.inertia_history)} iterations)")

# planted twins sit at the very top of the similarity range
order = np.argsort(scores)[::-1]
print("\nhighest-similarity chunks:")
for i in order[:5]:
    # chunk i is frames [start, start + span) of trajectory number traj
    tid, start, span = ds.trajectories[chunks.traj[i]].id, chunks.start[i], chunks.span[i]
    print(f"  {tid} frames [{start}, {start + span})  "
          f"best same-cluster cosine {scores[i]:.5f}")
print(f"similarity of a mid-pack chunk: {scores[order[len(order) // 2]]:.3f}")

# keep-one masking: every duplicate group keeps exactly one representative
mask, report = dedup_dataset(ds, cfg)
metrics = evaluate_masks(mask, gt)["duplicates"]
print(f"\nkeep-one at epsilon_d={cfg.epsilon_d}: dropped {report['deletion_ratio']:.1%} of frames")
print(f"planted-duplicate precision {metrics['precision']:.2f}, recall {metrics['recall']:.2f}")

# the blunter alternative drops *every* chunk over the threshold --
# including the representatives, so whole duplicate groups vanish
keep_one, _ = duplicate_mask(ds, chunks, scores, features, model, cfg.epsilon_d)
drop_all, _ = duplicate_mask(ds, chunks, scores, features, model, cfg.epsilon_d,
                             drop_all_over_threshold=True)
print(f"\nchunks dropped: keep-one {int(keep_one.sum())}, drop-all {int(drop_all.sum())}")
print(f"keep-one is a subset of drop-all: {bool(~(keep_one & ~drop_all).any())}")
