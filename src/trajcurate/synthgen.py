"""Synthetic trajectory benchmark with labeled flaws.

Each clean trajectory is a point agent whose latent task phase φ climbs
0 → 1 at constant rate; position follows a start→goal line plus a sinusoidal
lateral wiggle, all as pure functions of φ. The latent state is
(position, phase on a circular arc, per-trajectory context); observations
lift that latent into obs_dim through a fixed seeded orthonormal basis and
add Gaussian noise. The arc embedding matters: it makes cosine distance
between chunks grow with |Δφ| instead of saturating, so genuinely different
moments never look like duplicates while exact copies still do. Actions are
per-frame displacements. Anomalies rewrite φ increments on one segment per
afflicted trajectory; duplicates copy chunk-grid-aligned blocks between
clean trajectories with a tenth of the observation noise.

Ground truth (per-frame anomaly tags, per-chunk duplicate groups) rides
along so curation quality is measurable, not just plottable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, InvalidManifest, IoFailure, ShapeMismatch
from .trajstore import CurationMask, Dataset, Trajectory, seconds_to_frames

ANOMALY_TYPES = ("pause", "slow", "back_and_forth", "failure_retry")
CLEAN = "clean"

_GLOBAL_STREAM = 0x474C4F42   # decisions shared across trajectories
_PROJ_STREAM = 0x50524F4A     # observation projection matrix


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
    phase_turns: float = 0.8       # arc sweep as a fraction of a full circle
    context_dim: int = 16          # per-trajectory appearance dims
    context_scale: float = 0.65    # half-width of the context uniform

    def __post_init__(self):
        if self.num_traj < 1 or self.frames_per_traj < 2:
            raise InvalidConfig("need at least one trajectory of two frames")
        if self.fps <= 0 or self.obs_dim < 1 or self.action_dim < 1:
            raise InvalidConfig("fps and dimensions must be positive")
        if self.noise_sigma < 0 or self.chunk_seconds <= 0:
            raise InvalidConfig("noise_sigma must be >= 0, chunk_seconds > 0")
        unknown = set(self.anomaly_rates) - set(ANOMALY_TYPES)
        if unknown:
            raise InvalidConfig(f"unknown anomaly types {sorted(unknown)}")
        rates = [self.anomaly_rates.get(t, 0.0) for t in ANOMALY_TYPES]
        if any(not (0.0 <= r <= 1.0) for r in rates) or not (0.0 <= self.duplicate_rate <= 1.0):
            raise InvalidConfig("rates must lie in [0, 1]")
        if sum(rates) > 1.0 + 1e-9:
            raise InvalidConfig("anomaly rates sum above 1; trajectories get one type each")
        if self.context_dim < 0 or self.phase_gain <= 0 or self.context_scale < 0:
            raise InvalidConfig("context_dim/scale >= 0 and phase_gain > 0 required")
        if not (0.0 < self.phase_turns <= 1.0):
            raise InvalidConfig("phase_turns must lie in (0, 1]")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")


@dataclass
class GroundTruth:
    """Per-frame anomaly tags plus planted duplicate groups on the chunk grid."""

    frame_tags: dict[str, list[str]]
    chunk_groups: dict[str, list[int]]            # 0 = unique
    chunk_span: int                               # frames per chunk
    anomaly_segments: dict[str, list[tuple[int, int, str]]]
    phi: dict[str, np.ndarray] = field(default_factory=dict)   # in-memory only

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
            "frame_counts": {tid: len(tags) for tid, tags in sorted(self.frame_tags.items())},
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
            counts = data["frame_counts"]
            uncounted = sorted(set(segments) - set(counts))
            if uncounted:
                raise ValueError(f"anomaly segments for '{uncounted[0]}', which has no frame count")
            tags = {}
            for tid, count in counts.items():
                arr = [CLEAN] * int(count)
                for a, b, t in segments.get(tid, []):
                    if not 0 <= a <= b <= len(arr):
                        raise ValueError(f"segment ({a}, {b}) of '{tid}' outside its {len(arr)} frames")
                    if t not in ANOMALY_TYPES:
                        raise ValueError(f"unknown anomaly type '{t}' in the segments of '{tid}'")
                    arr[a:b] = [t] * (b - a)
                tags[tid] = arr
            groups = {tid: [int(g) for g in gids] for tid, gids in data["chunk_groups"].items()}
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise InvalidManifest(f"malformed ground truth: {exc!r}") from exc
        return cls(
            frame_tags=tags,
            chunk_groups=groups,
            chunk_span=span,
            anomaly_segments=segments,
        )

    def save(self, path: str | Path) -> None:
        try:
            Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        except ValueError as exc:
            raise InvalidManifest(f"{path}: unreadable ground truth: {exc}") from exc

    def save_duplicates(self, path: str | Path, chunk_seconds: float) -> None:
        payload = {
            "format_version": 1,
            "chunk_seconds": chunk_seconds,
            "groups": {
                str(gid): [[tid, start] for tid, start in members]
                for gid, members in sorted(self.groups().items())
            },
        }
        try:
            Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc


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


def generate(cfg: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Build the benchmark. Bitwise deterministic for a given config."""
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

    trajectories: list[Trajectory] = []
    frame_tags: dict[str, list[str]] = {}
    segments: dict[str, list[tuple[int, int, str]]] = {}
    phi_by_id: dict[str, np.ndarray] = {}

    for i in range(cfg.num_traj):
        tid = f"traj_{i:04d}"
        rng = np.random.default_rng([cfg.seed, i])
        start = rng.uniform(-1.0, 1.0, 2)
        goal = rng.uniform(-1.0, 1.0, 2)
        while np.linalg.norm(goal - start) < 0.5:
            goal = rng.uniform(-1.0, 1.0, 2)
        amp = rng.uniform(0.05, 0.15)
        cycles = int(rng.integers(2, 6))
        phase0 = rng.uniform(0.0, 2.0 * np.pi)
        context = rng.uniform(-cfg.context_scale, cfg.context_scale, cfg.context_dim)

        deltas = np.full(n - 1, 1.0 / (n - 1))
        kind = kind_of.get(i)
        seg = (0, 0)
        if kind:
            deltas, seg = _anomaly_increments(deltas, kind, n, fps, rng)
        phi = np.concatenate([[0.0], np.cumsum(deltas)])

        pos = _path_position(phi, start, goal, amp, cycles, phase0)
        theta = 2.0 * np.pi * cfg.phase_turns * (phi - 0.5)
        arc = cfg.phase_gain * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        latent = np.concatenate([pos, arc, np.tile(context, (n, 1))], axis=1)
        obs = latent @ proj.T + cfg.noise_sigma * rng.normal(size=(n, cfg.obs_dim))

        actions = np.zeros((n, cfg.action_dim))
        disp = np.diff(pos, axis=0)
        actions[:-1, : min(2, cfg.action_dim)] = disp[:, : min(2, cfg.action_dim)]

        tags = [CLEAN] * n
        segs = []
        if kind and seg[1] > seg[0]:
            for f in range(seg[0], seg[1]):
                tags[f] = kind
            segs = [(seg[0], seg[1], kind)]
        frame_tags[tid] = tags
        segments[tid] = segs
        phi_by_id[tid] = phi
        trajectories.append(
            Trajectory(
                id=tid,
                fps=fps,
                obs=obs.astype(np.float32),
                actions=actions.astype(np.float32),
                labels=list(tags),
            )
        )

    # ---- plant duplicates on the chunk grid, clean trajectories only ----
    chunk_groups = {t.id: [0] * (t.num_frames // w) for t in trajectories}
    total_chunks = sum(len(g) for g in chunk_groups.values())
    clean_slots = [
        (idx, c)
        for idx, t in enumerate(trajectories)
        if idx not in kind_of
        for c in range(t.num_frames // w)
    ]
    num_dups = min(int(round(cfg.duplicate_rate * total_chunks)), len(clean_slots) // 2)
    if num_dups:
        picked = global_rng.choice(len(clean_slots), size=2 * num_dups, replace=False)
        for gid in range(1, num_dups + 1):
            src_idx, src_c = clean_slots[picked[2 * (gid - 1)]]
            dst_idx, dst_c = clean_slots[picked[2 * (gid - 1) + 1]]
            src, dst = trajectories[src_idx], trajectories[dst_idx]
            s0, d0 = src_c * w, dst_c * w
            block = src.obs[s0 : s0 + w].astype(np.float64)
            noise = (cfg.noise_sigma / 10.0) * global_rng.normal(size=block.shape)
            dst.obs[d0 : d0 + w] = (block + noise).astype(np.float32)
            dst.actions[d0 : d0 + w] = src.actions[s0 : s0 + w]
            # the copied frames now show the source's task phase
            phi_by_id[dst.id][d0 : d0 + w] = phi_by_id[src.id][s0 : s0 + w]
            chunk_groups[src.id][src_c] = gid
            chunk_groups[dst.id][dst_c] = gid

    ds = Dataset(
        trajectories=trajectories,
        obs_dim=cfg.obs_dim,
        action_dim=cfg.action_dim,
        meta={"generator": "synthgen", "seed": cfg.seed},
    )
    gt = GroundTruth(
        frame_tags=frame_tags,
        chunk_groups=chunk_groups,
        chunk_span=w,
        anomaly_segments=segments,
        phi=phi_by_id,
    )
    return ds, gt


# --- evaluation ------------------------------------------------------------------


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank; NaNs never tie."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    return (0.5 * (first + last) + 1.0)[inverse]


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUROC; nan when one class is empty."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate_masks(mask: CurationMask, gt: GroundTruth) -> dict:
    """Score a curation mask against ground truth.

    Suboptimality drops (reason suboptimal/both) are compared against
    anomaly frames; duplicate drops against planted chunk groups. An empty
    drop-set has undefined precision, reported as 1.0 with ``no_drops``
    set. Duplicate recall counts a group as fully recovered when all but
    one member was dropped.
    """
    if set(mask.masks) != set(gt.frame_tags):
        raise ShapeMismatch("mask and ground truth cover different trajectories")

    tids = sorted(mask.masks)
    for tid in tids:
        n, tags = len(mask.masks[tid].keep), gt.frame_tags[tid]
        if len(tags) != n:
            raise ShapeMismatch(f"{tid}: {n} mask frames vs {len(tags)} labels")
    # each leading empty array sets the dtype when there are no trajectories
    drop_sub = np.concatenate(
        [np.empty(0, bool)] + [mask.masks[t].dropped(("suboptimal", "both")) for t in tids]
    )
    scores = np.concatenate([np.empty(0)] + [mask.masks[t].subopt_score for t in tids])
    tags_all = np.concatenate([np.empty(0, str)] + [np.array(gt.frame_tags[t]) for t in tids])
    anomaly = tags_all != CLEAN

    n_dropped = int(drop_sub.sum())
    tp = int((drop_sub & anomaly).sum())
    no_drops = n_dropped == 0
    precision = 1.0 if no_drops else tp / n_dropped
    recall = tp / int(anomaly.sum()) if anomaly.any() else float("nan")
    fpr = float((drop_sub & ~anomaly).sum() / max(1, int((~anomaly).sum())))
    per_type = {}
    for t in ANOMALY_TYPES:
        sel = tags_all == t
        per_type[t] = float(drop_sub[sel].mean()) if sel.any() else float("nan")

    dup_metrics = _duplicate_metrics(mask, gt)
    return {
        "anomaly": {
            "auroc": auroc(scores, anomaly),
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
    dropped_chunks: set[tuple[str, int]] = set()
    for tid, gids in gt.chunk_groups.items():
        if tid not in mask.masks or len(gids) * w > len(mask.masks[tid].keep):
            raise ShapeMismatch(f"{tid}: {len(gids)} chunks of {w} frames exceed the mask")
        drop = mask.masks[tid].dropped(("duplicate", "both"))[: len(gids) * w]
        whole = drop.reshape(len(gids), w).all(axis=1)
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


# Entries in one row block of separation_self_check's (rows × chunks) matrices.
_CHECK_BLOCK_ELEMS = 1 << 18


def separation_self_check(ds: Dataset, gt: GroundTruth, action_weight: float | None = None) -> dict:
    """Empirical geometry check of the planted-duplicate construction.

    Confirms planted twins sit above the dedup threshold band while every
    other chunk pair sits safely below it, and reports the extremes. It works
    in bounded memory: chunk-pair similarities are taken in row blocks of at
    most ``_CHECK_BLOCK_ELEMS`` entries, keeping running minima and maxima, so
    no chunks² matrix is ever built.
    """
    from .dedup import DedupConfig, chunk_dataset, compute_features

    cfg = DedupConfig(chunk_seconds=gt.chunk_span / ds.trajectories[0].fps,
                      action_weight=action_weight)
    chunks = chunk_dataset(ds, cfg)
    if len(chunks) < 2:
        return {
            "action_weight": float("nan"),
            "num_chunks": len(chunks),
            "planted_min_similarity": float("nan"),
            "nonplanted_max_similarity": float("nan"),
            "distinct_phase_max_similarity": float("nan"),
        }
    features, lam = compute_features(ds, chunks, cfg)
    # each chunk's planted group (0: none) and the phase at its middle frame
    n = len(chunks)
    ids, phases = np.zeros(n, dtype=np.int64), np.full(n, np.nan)
    bounds = np.searchsorted(chunks.traj, np.arange(len(ds) + 1)).tolist()
    for traj, lo, hi in zip(ds.trajectories, bounds, bounds[1:]):
        slot, off = np.divmod(chunks.start[lo:hi], gt.chunk_span)
        gids = np.array([*gt.chunk_groups.get(traj.id, []), 0], dtype=np.int64)  # 0: past the grid
        ids[lo:hi] = np.where(off == 0, gids[np.minimum(slot, gids.size - 1)], 0)
        phi = gt.phi.get(traj.id)
        if phi is not None:
            phases[lo:hi] = phi[chunks.start[lo:hi] + chunks.span[lo:hi] // 2]

    # np.minimum/np.maximum, unlike min()/max(), carry a NaN through
    planted_min, others_max, far_max = np.inf, -np.inf, -np.inf
    any_planted = any_far = False
    rows = max(1, _CHECK_BLOCK_ELEMS // n)
    sims_buf, gap_buf = np.empty((2, min(rows, n) * n))  # reused: fresh blocks cost page faults
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        sims = np.matmul(features[lo:hi], features.T, out=sims_buf[: (hi - lo) * n].reshape(hi - lo, n))
        sims[diag] = -np.inf
        same_group = (ids[lo:hi, None] == ids[None, :]) & (ids[lo:hi, None] > 0)
        same_group[diag] = False
        if same_group.any():
            any_planted = True
            planted_min = np.minimum(planted_min, sims[same_group].min())
        sims[same_group] = -np.inf  # what is left are the non-planted pairs
        others_max = np.maximum(others_max, sims.max())
        gap = np.subtract(phases[lo:hi, None], phases[None, :], out=gap_buf[: sims.size].reshape(sims.shape))
        far_phase = np.abs(gap, out=gap) > 0.3
        if far_phase.any():
            any_far = True
            far_max = np.maximum(far_max, sims[far_phase].max())

    return {
        "action_weight": lam,
        "num_chunks": len(chunks),
        "planted_min_similarity": float(planted_min) if any_planted else float("nan"),
        "nonplanted_max_similarity": float(others_max),
        "distinct_phase_max_similarity": float(far_max) if any_far else float("nan"),
    }
