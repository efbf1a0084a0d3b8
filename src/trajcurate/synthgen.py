"""Synthetic trajectory benchmark with labeled flaws.

Each clean trajectory is a point agent whose latent task phase φ climbs
0 → 1 at constant rate; position follows a start→goal line plus a sinusoidal
lateral wiggle, all as pure functions of φ. The latent state is
(position, phase on a circular arc, per-trajectory context); observations
lift that latent into obs_dim through a fixed seeded orthonormal basis and
add Gaussian noise. The arc embedding matters: it makes cosine distance
between chunks grow with |Δφ| instead of saturating, so distant moments look
unlike each other while exact copies still look alike. Yet the closest
unplanted chunk pair reaches a cosine above ε_d = 0.99 on the benchmark
data (seed 0): 0.9908 in the README config, 0.9916 at 50 Hz and 0.9931 at
1000 trajectories. Actions are per-frame displacements. Anomalies rewrite φ
increments on one segment per afflicted trajectory; duplicates copy
chunk-grid-aligned blocks between clean trajectories with a tenth of the
observation noise.

``generate`` writes the dataset one trajectory at a time and holds no dataset
of frames, only the planted copies not yet written. Ground truth (anomaly
segments with per-trajectory frame counts, per-chunk duplicate groups) rides
along so curation quality is measurable, not just plottable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidManifest, IoFailure, MaskShapeMismatch
from .trajstore import CurationMask, Dataset, Trajectory, save_dataset, seconds_to_frames, write_manifest

ANOMALY_TYPES = ("pause", "slow", "back_and_forth", "failure_retry")

_GLOBAL_STREAM = 0x474C4F42   # decisions shared across trajectories
_PROJ_STREAM = 0x50524F4A     # observation projection matrix
_PHASE_TURNS = 0.8            # arc sweep as a fraction of a full circle
_CONTEXT_SCALE = 0.65         # half-width of the per-trajectory context uniform
# Positives ranked per block by auroc's binary searches.
_RANK_BLOCK = 1 << 14


@dataclass
class SynthConfig:
    num_traj: int = 200
    frames_per_traj: int = 300
    fps: float = 10.0
    obs_dim: int = 32
    action_dim: int = 2
    anomaly_rates: dict[str, float] = field(
        default_factory=lambda: {t: 0.0 for t in ANOMALY_TYPES}
    )
    duplicate_rate: float = 0.05   # fraction of chunks that get a planted twin
    noise_sigma: float = 0.01
    seed: int = 0
    chunk_seconds: float = 2.0     # grid duplicates are planted on
    phase_gain: float = 2.0        # radius of the φ arc in latent space
    context_dim: int = 16          # per-trajectory appearance dims

    def __post_init__(self):
        if self.num_traj < 1 or self.frames_per_traj < 2:
            raise ValueError("need at least one trajectory of two frames")
        if self.fps <= 0 or self.obs_dim < 1 or self.action_dim < 1:
            raise ValueError("fps and dimensions must be positive")
        if self.noise_sigma < 0 or self.chunk_seconds <= 0:
            raise ValueError("noise_sigma must be >= 0, chunk_seconds > 0")
        seconds_to_frames(self.chunk_seconds, self.fps)  # a ConfigError if beyond counting
        unknown = set(self.anomaly_rates) - set(ANOMALY_TYPES)
        if unknown:
            raise ValueError(f"unknown anomaly types {sorted(unknown)}")
        rates = [self.anomaly_rates.get(t, 0.0) for t in ANOMALY_TYPES]
        if any(isinstance(r, bool) or not (0.0 <= r <= 1.0) for r in rates) or not (0.0 <= self.duplicate_rate <= 1.0):
            raise ValueError("rates must be numbers in [0, 1]")
        if sum(rates) > 1.0 + 1e-9:
            raise ValueError("anomaly rates sum above 1; trajectories get one type each")
        if self.context_dim < 0 or self.phase_gain <= 0:
            raise ValueError("context_dim >= 0 and phase_gain > 0 required")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class GroundTruth:
    """Anomaly segments over each trajectory's frames plus planted duplicate
    groups on the chunk grid."""

    frame_counts: dict[str, int]
    chunk_groups: dict[str, list[int]]            # 0 = unique
    chunk_span: int                               # frames per chunk
    anomaly_segments: dict[str, list[tuple[int, int, str]]]

    def groups(self) -> dict[int, list[tuple[str, int]]]:
        """Duplicate groups as gid → [(traj_id, chunk start frame), ...]."""
        out: dict[int, list[tuple[str, int]]] = {}
        for tid, gids in self.chunk_groups.items():
            for idx, gid in enumerate(gids):
                if gid:
                    out.setdefault(gid, []).append((tid, idx * self.chunk_span))
        return out

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "chunk_span_frames": self.chunk_span,
            "anomaly_segments": {
                tid: [[a, b, t] for a, b, t in segs]
                for tid, segs in sorted(self.anomaly_segments.items())
            },
            "frame_counts": dict(sorted(self.frame_counts.items())),
            "chunk_groups": {tid: gids for tid, gids in sorted(self.chunk_groups.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroundTruth":
        try:
            span = int(data["chunk_span_frames"])
            if span < 1:
                raise ValueError(f"chunk_span_frames {span} < 1")
            segments = {
                tid: [(int(a), int(b), str(t)) for a, b, t in segs]
                for tid, segs in data["anomaly_segments"].items()
            }
            counts = {tid: int(n) for tid, n in data["frame_counts"].items()}
            if min(counts.values(), default=0) < 0:
                raise ValueError(f"negative frame count {min(counts.values())}")
            for tid, segs in segments.items():
                if tid not in counts:
                    raise ValueError(f"anomaly segments for '{tid}', which has no frame count")
                for a, b, t in segs:
                    if not 0 <= a <= b <= counts[tid]:
                        raise ValueError(f"segment ({a}, {b}) of '{tid}' outside its {counts[tid]} frames")
                    if t not in ANOMALY_TYPES:
                        raise ValueError(f"unknown anomaly type '{t}' in the segments of '{tid}'")
            groups = {tid: [int(g) for g in gids] for tid, gids in data["chunk_groups"].items()}
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InvalidManifest(f"malformed ground truth: {exc!r}") from exc
        return cls(
            frame_counts=counts,
            chunk_groups=groups,
            chunk_span=span,
            anomaly_segments=segments,
        )

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        except ValueError as exc:
            raise InvalidManifest(f"{path}: unreadable ground truth: {exc}") from exc


def _path_position(phi: np.ndarray, start: np.ndarray, goal: np.ndarray,
                   amp: float, cycles: int, phase0: float) -> np.ndarray:
    """Point on the wiggly start→goal path, as a pure function of φ."""
    direction = goal - start
    perp = np.array([-direction[1], direction[0]])
    perp /= np.linalg.norm(perp)
    line = start[None, :] + phi[:, None] * direction[None, :]
    return line + (amp * np.sin(2 * np.pi * cycles * phi + phase0))[:, None] * perp[None, :]


def _anomaly_increments(
    deltas: np.ndarray, kind: str, n: int, fps: float, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[int, int]]:
    """Rewrite φ increments on one segment; returns (deltas, (start, end))."""
    base = deltas[0]
    lo = int(2 * fps) + 1
    if kind == "failure_retry":
        # the rewrite is just the slip: a 0.5-1 s backward slide of 0.2 φ.
        # Recovery is untouched base-rate increments, so it is not tagged.
        length = int(rng.integers(int(np.ceil(0.5 * fps)), int(fps) + 1)) + 1
        # needs enough accumulated φ to give back 0.2 without going negative,
        # and enough runway afterwards to earn it back (hi reuses lo below)
        lo = max(lo, int(np.ceil(0.2 / base)) + 1)
    else:
        length = int(rng.integers(int(2 * fps), int(4 * fps) + 1))
    hi = n - length - lo
    if hi <= lo:
        return deltas, (0, 0)
    start = int(rng.integers(lo, hi))
    end = start + length
    # deltas[t] carries frame t+1's change, so the increments interior to
    # tagged frames [start, end) are deltas[start : end-1] — m slots
    m = length - 1
    seg = slice(start, start + m)

    if kind == "pause":
        deltas[seg] = 0.0
    elif kind == "slow":
        deltas[seg] *= 0.5
    elif kind == "back_and_forth":
        # retreat first, then return: φ never runs ahead of schedule, so the
        # oscillation reads as stalled progress rather than a spurious sprint
        half = 3
        swing = 2.0 * base
        cycle = np.concatenate([np.full(half, -swing), np.full(half, swing)])
        reps = m // (2 * half)
        deltas[seg] = np.concatenate([np.tile(cycle, reps), np.zeros(m - reps * 2 * half)])
    elif kind == "failure_retry":
        deltas[seg] = -0.2 / m
    return deltas, (start, end)


class _Planned(Trajectory):
    """A trajectory whose frames ``build()`` makes each time they are read."""

    def __init__(self, id: str, fps: float, num_frames: int, build):
        self.id, self.fps, self._num_frames, self.frames = id, fps, num_frames, build

    num_frames = property(lambda self: self._num_frames)


def generate(cfg: SynthConfig, root: str | os.PathLike) -> tuple[Dataset, GroundTruth]:
    """Build the benchmark into the dataset container ``root`` one trajectory at a time and
    return it as saved, with its ground truth. Bitwise deterministic for a given config. A
    failure part-way leaves ``root`` part-written: ``cli gen`` passes a staging directory."""
    n, fps = cfg.frames_per_traj, cfg.fps
    w = seconds_to_frames(cfg.chunk_seconds, fps)
    latent_dim = 4 + cfg.context_dim
    proj = np.random.default_rng([cfg.seed, _PROJ_STREAM]).normal(
        size=(cfg.obs_dim, latent_dim)
    )
    if cfg.obs_dim >= latent_dim:
        # Orthonormal columns: the lift preserves latent angles and norms
        # exactly, so similarity structure survives the embedding.
        proj = np.linalg.qr(proj)[0]
    else:
        proj /= np.sqrt(latent_dim)
    global_rng = np.random.default_rng([cfg.seed, _GLOBAL_STREAM])

    counts = {t: int(round(cfg.anomaly_rates.get(t, 0.0) * cfg.num_traj)) for t in ANOMALY_TYPES}
    order = global_rng.permutation(cfg.num_traj)
    kind_of = {}
    cursor = 0
    for t in ANOMALY_TYPES:
        for i in order[cursor : cursor + counts[t]]:
            kind_of[int(i)] = t
        cursor += counts[t]

    # ---- plan duplicates on the chunk grid, clean trajectories only: group gid copies the
    # (trajectory, chunk) slots[gid][0] into slots[gid][1], which is never a source ----
    ids = [f"traj_{i:04d}" for i in range(cfg.num_traj)]
    chunk_groups = {tid: [0] * (n // w) for tid in ids}
    clean_slots = [(i, c) for i in range(cfg.num_traj) if i not in kind_of for c in range(n // w)]
    num_dups = min(int(round(cfg.duplicate_rate * cfg.num_traj * (n // w))), len(clean_slots) // 2)
    slots = {}
    if num_dups:
        picked = global_rng.choice(len(clean_slots), size=2 * num_dups, replace=False)
        copy_noise = (cfg.noise_sigma / 10.0) * global_rng.normal(size=(num_dups, w, cfg.obs_dim))
        for gid in range(1, num_dups + 1):
            slots[gid] = clean_slots[picked[2 * gid - 2]], clean_slots[picked[2 * gid - 1]]
            for i, c in slots[gid]:
                chunk_groups[ids[i]][c] = gid

    # planted copies not yet written: gid -> (obs, actions) of the destination chunk
    blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    late: dict[int, list[tuple[slice, int]]] = {}  # trajectory -> (frames, gid) written before the source
    segments: dict[str, list[tuple[int, int, str]]] = {}

    def build(i):
        """Trajectory i with the planted copies whose source came before it."""
        kind = kind_of.get(i)
        rng = np.random.default_rng([cfg.seed, i])
        start = rng.uniform(-1.0, 1.0, 2)
        goal = rng.uniform(-1.0, 1.0, 2)
        while np.linalg.norm(goal - start) < 0.5:
            goal = rng.uniform(-1.0, 1.0, 2)
        amp = rng.uniform(0.05, 0.15)
        cycles = int(rng.integers(2, 6))
        phase0 = rng.uniform(0.0, 2.0 * np.pi)
        context = rng.uniform(-_CONTEXT_SCALE, _CONTEXT_SCALE, cfg.context_dim)

        deltas = np.full(n - 1, 1.0 / (n - 1))
        seg = (0, 0)
        if kind:
            deltas, seg = _anomaly_increments(deltas, kind, n, fps, rng)
        phi = np.concatenate([[0.0], np.cumsum(deltas)])

        # latent (position, phase arc, context) @ proj.T + noise, filled and summed in place
        latent = np.empty((n, latent_dim))
        latent[:, :2] = pos = _path_position(phi, start, goal, amp, cycles, phase0)
        theta = 2.0 * np.pi * _PHASE_TURNS * (phi - 0.5)
        latent[:, 2] = cfg.phase_gain * np.cos(theta)
        latent[:, 3] = cfg.phase_gain * np.sin(theta)
        latent[:, 4:] = context
        obs = latent @ proj.T
        noise = rng.standard_normal(size=(n, cfg.obs_dim))  # normal(0, 1)'s draws
        noise *= cfg.noise_sigma
        obs += noise

        obs = obs.astype(np.float32)
        actions = np.zeros((n, cfg.action_dim), np.float32)
        actions[:-1, : min(2, cfg.action_dim)] = np.diff(pos, axis=0)[:, : min(2, cfg.action_dim)]
        for c, gid in enumerate(chunk_groups[ids[i]]):
            s = slice(c * w, (c + 1) * w)
            if gid and slots[gid][0] == (i, c):
                blocks[gid] = ((obs[s].astype(np.float64) + copy_noise[gid - 1]).astype(np.float32),
                               actions[s].copy())
            elif gid in blocks:
                obs[s], actions[s] = blocks.pop(gid)
            elif gid:
                late.setdefault(i, []).append((s, gid))
        segments[ids[i]] = [(seg[0], seg[1], kind)] if kind and seg[1] > seg[0] else []
        return obs, actions

    trajs = [_Planned(tid, fps, n, lambda i=i: build(i)) for i, tid in enumerate(ids)]
    ds = save_dataset(Dataset(trajs, cfg.obs_dim, cfg.action_dim, {"generator": "synthgen", "seed": cfg.seed}), root)
    # a copy whose source came later is written into its destination's blob now
    for i, chunks in late.items():
        obs, actions = ds.trajectories[i].frames()
        for s, gid in chunks:
            obs[s], actions[s] = blocks.pop(gid)
        ds.trajectories[i].write(obs, actions)
    if late:
        write_manifest(root, ds)
    return ds, GroundTruth(frame_counts={tid: n for tid in ids}, chunk_groups=chunk_groups, chunk_span=w,
                           anomaly_segments=segments)


# --- evaluation ------------------------------------------------------------------


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUROC; nan when one class is empty. Ties share their average
    1-based rank, which binary search in one sorted copy of the scores finds
    for each positive; NaN scores tie with each other above every number."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ordered = np.sort(scores)
    ranks = scores[labels]  # the positives' scores, overwritten by their ranks
    for lo in range(0, n_pos, _RANK_BLOCK):
        block = ranks[lo : lo + _RANK_BLOCK]
        ends = np.searchsorted(ordered, block, side="left")  # first + last position
        ends += np.searchsorted(ordered, block, side="right") - 1
        block[:] = 0.5 * ends + 1.0
    return float((ranks.sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate_masks(mask: CurationMask, gt: GroundTruth) -> dict:
    """Score a curation mask against ground truth.

    Suboptimality drops (reason suboptimal/both) are compared against
    anomaly frames; duplicate drops against planted chunk groups. An empty
    drop-set has undefined precision, reported as 1.0 with ``no_drops``
    set. Duplicate recall counts a group as fully recovered when all but
    one member was dropped.
    """
    if set(mask.ids) != set(gt.frame_counts):
        raise MaskShapeMismatch("mask and ground truth cover different trajectories")
    if np.diff(mask.bounds).tolist() != [gt.frame_counts[tid] for tid in mask.ids]:
        raise MaskShapeMismatch("mask and ground truth disagree on a trajectory's frame count")
    drop_sub = mask.dropped(("suboptimal", "both"))
    # per-frame tag codes: 0 clean, then 1 + the index into ANOMALY_TYPES
    tags = np.zeros(mask.bounds[-1], dtype=np.uint8)
    for tid, lo in zip(mask.ids, mask.bounds.tolist()):
        for a, b, t in gt.anomaly_segments.get(tid, ()):
            tags[lo + a : lo + b] = 1 + ANOMALY_TYPES.index(t)
    anomaly = tags > 0

    n_dropped = int(drop_sub.sum())
    tp = int((drop_sub & anomaly).sum())
    no_drops = n_dropped == 0
    precision = 1.0 if no_drops else tp / n_dropped
    recall = tp / int(anomaly.sum()) if anomaly.any() else float("nan")
    fpr = float((drop_sub & ~anomaly).sum() / max(1, int((~anomaly).sum())))
    per_type = {}
    for code, t in enumerate(ANOMALY_TYPES, 1):
        sel = tags == code
        per_type[t] = float(drop_sub[sel].mean()) if sel.any() else float("nan")

    dup_metrics = _duplicate_metrics(mask, gt)
    return {
        "anomaly": {
            "auroc": auroc(mask.subopt_score, anomaly),
            "precision": float(precision),
            "recall": float(recall),
            "fpr_clean": fpr,
            "per_type_recall": per_type,
            "no_drops": bool(no_drops),
        },
        "duplicates": dup_metrics,
    }


def _duplicate_metrics(mask: CurationMask, gt: GroundTruth) -> dict:
    w = gt.chunk_span
    drop, parts = mask.dropped(("duplicate", "both")), dict(mask.frames())
    dropped_chunks: set[tuple[str, int]] = set()
    for tid, gids in gt.chunk_groups.items():
        if tid not in parts or len(gids) * w > parts[tid].stop - parts[tid].start:
            raise MaskShapeMismatch(f"{tid}: {len(gids)} chunks of {w} frames exceed the mask")
        whole = drop[parts[tid]][: len(gids) * w].reshape(len(gids), w).all(axis=1)
        dropped_chunks.update((tid, int(c) * w) for c in np.flatnonzero(whole))

    groups = gt.groups()
    planted = {member for members in groups.values() for member in members}
    n_dropped = len(dropped_chunks)
    tp = len(dropped_chunks & planted)
    no_drops = n_dropped == 0
    precision = 1.0 if no_drops else tp / n_dropped
    denom = sum(len(m) - 1 for m in groups.values())
    recovered = sum(
        min(sum(1 for m in members if m in dropped_chunks), len(members) - 1)
        for members in groups.values()
    )
    recall = recovered / denom if denom else float("nan")
    return {
        "precision": float(precision),
        "recall": float(recall),
        "num_groups": len(groups),
        "num_dropped_chunks": n_dropped,
        "no_drops": bool(no_drops),
    }


def separation_self_check(ds: Dataset, gt: GroundTruth) -> dict:
    """Empirical geometry check of the planted-duplicate construction.

    Reports the lowest cosine between two members of one planted group, which
    must sit above the dedup threshold band. λ depends on every chunk, so
    every chunk is embedded, but only planted members' rows are kept and only
    pairs inside a planted group are compared: beyond O(chunks) scalars the
    cost is O(planted pairs).
    """
    from .dedup import DedupConfig, chunk_dataset, compute_features

    cfg = DedupConfig(chunk_seconds=gt.chunk_span / ds.trajectories[0].fps)
    chunks = chunk_dataset(ds, cfg)
    if len(chunks) < 2:
        return {"action_weight": float("nan"), "num_chunks": len(chunks),
                "planted_min_similarity": float("nan")}
    # each chunk's planted group (0: none)
    ids = np.zeros(len(chunks), dtype=np.int64)
    bounds = np.searchsorted(chunks.traj, np.arange(len(ds) + 1)).tolist()
    for traj, lo, hi in zip(ds.trajectories, bounds, bounds[1:]):
        slot, off = np.divmod(chunks.start[lo:hi], gt.chunk_span)
        gids = np.array([*gt.chunk_groups.get(traj.id, []), 0], dtype=np.int64)  # 0: past the grid
        ids[lo:hi] = np.where(off == 0, gids[np.minimum(slot, gids.size - 1)], 0)

    # the planted members' rows, in chunk order; λ still weighs every chunk
    planted = np.flatnonzero(ids)
    features, lam = compute_features(ds, chunks, cfg, planted)
    ids = ids[planted]

    # members grouped by id; groups of one size go through one (groups, s, d) product
    members = np.argsort(ids, kind="stable")
    _, first, sizes = np.unique(ids[members], return_index=True, return_counts=True)
    shared = sorted(set(sizes[sizes > 1].tolist()))  # a lone member makes no pair
    # np.minimum, unlike min(), carries a NaN through
    planted_min = np.inf if shared else np.nan
    for s in shared:
        rows = features[members[first[sizes == s, None] + np.arange(s)]]
        sims = np.matmul(rows, rows.transpose(0, 2, 1))
        upper = np.triu_indices(s, 1)
        planted_min = np.minimum(planted_min, sims[:, upper[0], upper[1]].min())
    return {
        "action_weight": lam,
        "num_chunks": len(chunks),
        "planted_min_similarity": float(planted_min),
    }
