"""State-action deduplication.

Trajectories are tiled into non-overlapping fixed-length chunks. Each chunk
becomes one L2-normalized feature combining pooled observations, their
temporal differences, and (scaled) actions. K-means groups look-alike
chunks; within a cluster, a chunk's similarity score is its best cosine
match against any other member. Chunks that near-duplicate an already-kept
chunk are flagged, always leaving at least one representative per duplicate
group.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyInput, IoFailure, KTooLarge, NonFiniteValue
from .trajstore import DUPLICATE, CurationMask, Dataset, TrajectoryMask, seconds_to_frames

SINGLETON_SENTINEL = -2.0
UNCHUNKED_SENTINEL = -1.0
CEMB_MAGIC = b"CEMB"


@dataclass
class Chunk:
    traj_id: str
    start: int
    span_frames: int
    sub_indices: np.ndarray  # N frame ordinals relative to start


@dataclass
class DedupConfig:
    """``action_weight=None`` picks λ automatically so the action block's
    RMS matches the visual block's RMS across the dataset; neither modality
    then dominates the cosine geometry. ``k`` overrides the cluster-count
    rule k = max(1, round(num_chunks / target_cluster_size))."""

    chunk_seconds: float = 2.0
    n_subsample: int = 8
    target_cluster_size: int = 50
    k: int | None = None
    action_weight: float | None = None
    epsilon_d: float = 0.99
    seed: int = 0
    max_iters: int = 100
    drop_all_over_threshold: bool = False

    def __post_init__(self):
        if self.chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be > 0")
        if self.n_subsample < 2:
            raise ValueError("n_subsample must be >= 2")
        if self.epsilon_d < -1.0:
            raise ValueError("epsilon_d below -1 is meaningless for cosines")
        if self.action_weight is not None and self.action_weight < 0:
            raise ValueError("action_weight must be >= 0")
        if self.target_cluster_size < 1:
            raise ValueError("target_cluster_size must be >= 1")


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray        # (k, d)
    assignment: np.ndarray       # (n,) cluster id per point
    inertia: float
    inertia_history: list[float] = field(default_factory=list)
    reseeds: int = 0             # empty-cluster repairs (each may bump inertia once)


def subsample_indices(span_frames: int, n: int) -> np.ndarray:
    """N uniformly spaced ordinals in [0, span), endpoints included."""
    return np.floor(np.linspace(0, span_frames - 1, n)).astype(np.int64)


def chunk_dataset(ds: Dataset, cfg: DedupConfig) -> list[Chunk]:
    """Tile each trajectory into chunks; a short tail is left unchunked."""
    chunks = []
    for traj in ds.trajectories:
        w = seconds_to_frames(cfg.chunk_seconds, traj.fps)
        sub = subsample_indices(w, cfg.n_subsample)
        for start in range(0, traj.num_frames - w + 1, w):
            chunks.append(Chunk(traj.id, start, w, sub))
    return chunks


def embed_chunk(obs: np.ndarray, actions: np.ndarray, action_weight: float) -> np.ndarray:
    """Joint state-action feature for one chunk's N subsampled frames.

    Layout: mean observation (D), consecutive observation differences
    ((N−1)·D), then flattened actions scaled by λ (N·A); L2-normalized.
    An all-zero chunk stays the zero vector.
    """
    obs = np.asarray(obs, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if obs.ndim != 2 or actions.ndim != 2 or obs.shape[0] != actions.shape[0]:
        raise DimensionMismatch(
            f"chunk frames {obs.shape} and actions {actions.shape} disagree"
        )
    z_v = np.concatenate([obs.mean(axis=0), np.diff(obs, axis=0).ravel()])
    raw = np.concatenate([z_v, actions.ravel() * action_weight])
    norm = float(np.linalg.norm(raw))
    return raw / norm if norm > 0 else raw


def _chunk_blocks(ds: Dataset, chunks: list[Chunk]) -> tuple[np.ndarray, np.ndarray]:
    """Every chunk's visual block [mean obs, obs diffs] and raw action block,
    in list order: the values ``embed_chunk`` builds before scaling by λ.

    Frames are gathered into (chunks, N, D) arrays once per trajectory.
    """
    if not chunks:
        return np.empty((0, 0)), np.empty((0, 0))
    by_traj: dict[str, list[int]] = {}
    for i, chunk in enumerate(chunks):
        by_traj.setdefault(chunk.traj_id, []).append(i)
    n, n_sub = len(chunks), len(chunks[0].sub_indices)
    obs = np.empty((n, n_sub, ds.obs_dim))
    acts = np.empty((n, n_sub, ds.action_dim))
    for traj_id, pos in by_traj.items():
        traj = ds.get(traj_id)
        idx = np.stack([chunks[i].start + chunks[i].sub_indices for i in pos])
        obs[pos] = traj.obs[idx]
        acts[pos] = traj.actions[idx]
    z_v = np.concatenate([obs.mean(axis=1), np.diff(obs, axis=1).reshape(n, -1)], axis=1)
    return z_v, acts.reshape(n, -1)


def _balanced_weight(z_v: np.ndarray, z_a: np.ndarray) -> float:
    """λ that gives the action block the visual block's RMS; per-chunk sums
    of squares are added one by one in chunk order (a cumulative sum)."""
    if not len(z_a):  # no chunks
        return 1.0
    sq_v = np.cumsum((z_v**2).sum(axis=1))[-1]
    sq_a = np.cumsum((z_a**2).sum(axis=1))[-1]
    if sq_a == 0.0:  # also no action entries
        return 1.0
    rms_v = np.sqrt(sq_v / z_v.size)
    rms_a = np.sqrt(sq_a / z_a.size)
    return float(rms_v / rms_a) if rms_a > 0 else 1.0


def resolve_action_weight(ds: Dataset, chunks: list[Chunk], cfg: DedupConfig) -> float:
    """λ from config, or the visual-to-action RMS ratio over all chunks."""
    if cfg.action_weight is not None:
        return float(cfg.action_weight)
    return _balanced_weight(*_chunk_blocks(ds, chunks))


def compute_features(ds: Dataset, chunks: list[Chunk], cfg: DedupConfig) -> tuple[np.ndarray, float]:
    """The (n, d) matrix of ``embed_chunk`` features in chunk order, and λ,
    from one vectorized pass."""
    z_v, z_a = _chunk_blocks(ds, chunks)
    lam = float(cfg.action_weight) if cfg.action_weight is not None else _balanced_weight(z_v, z_a)
    raw = np.concatenate([z_v, z_a * lam], axis=1)
    # one dot product per row, as embed_chunk's norm takes it
    norms = np.sqrt((raw[:, None, :] @ raw[:, :, None]).ravel())
    raw[norms > 0] /= norms[norms > 0, None]
    return raw, lam


def default_k(num_chunks: int, target_cluster_size: int = 50) -> int:
    return max(1, int(round(num_chunks / target_cluster_size)))


# Entries in one row block of _assign's (rows × max(k, d)) temporaries and of
# _keep_one_drops' (rows × cluster size) Gram blocks.
_ASSIGN_BLOCK_ELEMS = 1 << 18


def _rtol(d: int) -> float:
    """‖x‖² − 2·x·c + ‖c‖² and the broadcast ``((x − c)**2).sum()`` differ by
    at most about (2d + 4)·eps·(‖x‖² + ‖c‖²), so a gap above twice that
    cannot reorder them; this factor of ‖x‖² + ‖c‖² leaves 8× margin."""
    return 32 * (d + 3) * np.finfo(np.float64).eps


def _assign(features: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, bit for bit the argmin of the broadcast
    ``((x − c)**2).sum()``: ‖x‖² − 2·x·cᵀ + ‖c‖² by row blocks, and rows
    whose two best distances are near-tied recomputed by the broadcast.
    ``x_sq`` is ``(features**2).sum(axis=1)``, computed once by the caller."""
    n, d = features.shape
    c_sq = (centroids**2).sum(axis=1)
    rtol = _rtol(d)
    rows = max(1, _ASSIGN_BLOCK_ELEMS // max(centroids.shape[0], d))
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, rows):
        x = features[lo : lo + rows]
        x_sq_blk = x_sq[lo : lo + rows]
        d2 = x_sq_blk[:, None] - 2.0 * (x @ centroids.T) + c_sq
        best = d2.argmin(axis=1)
        ix = np.arange(best.size)
        best_d2 = d2[ix, best]
        d2[ix, best] = np.inf
        # written as "not above" so NaN gaps take the exact path too
        for i in np.flatnonzero(~(d2.min(axis=1) - best_d2 > rtol * (x_sq_blk + c_sq.max()))):
            best[i] = ((x[i] - centroids) ** 2).sum(axis=1).argmin()
        out[lo : lo + rows] = best
    return out


def _inertia(features: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    """``((features − centroids[assignment])**2).sum()`` to the bit, in one
    (n, d) buffer."""
    diff = centroids[assignment]
    np.subtract(features, diff, out=diff)
    np.square(diff, out=diff)
    return float(diff.sum())


def kmeans(features: np.ndarray, k: int, seed: int = 0, max_iters: int = 100) -> ClusterModel:
    """Seeded k-means++ plus Lloyd iterations to an assignment fixpoint.

    Empty clusters are re-seeded with the point currently farthest from its
    centroid. Seeding estimates every row's squared distance to each new
    centre with one matrix-vector product; only the rows that estimate
    cannot rule out (within ``_assign``'s rounding tolerance) are recomputed
    with the exact squared difference, so every d² has the bits of the full
    recomputation and the picks are the same. Assignment is one blocked
    matrix product with an exact recheck of near-ties (see ``_assign``);
    each centroid is the mean of its members in index order, taken from one
    stable sort of the assignment.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise EmptyInput("kmeans needs at least one feature")
    if k > n:
        raise KTooLarge(k, n)
    if k < 1:
        raise ValueError("k must be >= 1")

    rng = np.random.default_rng(seed)
    x_sq = (features**2).sum(axis=1)
    rtol = _rtol(features.shape[1])
    centroids = np.empty((k, features.shape[1]))
    centroids[0] = features[int(rng.integers(n))]
    d2 = ((features - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centroid = centroids[c] = features[pick]
        c_sq = float(centroid @ centroid)
        # ‖x‖² − 2·x·c + ‖c‖² − d²: a row clearly above zero cannot come
        # closer to c and keeps its d² bits; the rest take the exact form
        gap = x_sq - 2.0 * (features @ centroid) + (c_sq - d2)
        # written as "not above" so NaN gaps take the exact path too
        rows = np.flatnonzero(~(gap > rtol * (x_sq + c_sq)))
        d2[rows] = np.minimum(d2[rows], ((features[rows] - centroid) ** 2).sum(axis=1))

    assignment = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    converged = False
    reseeds = 0
    for _ in range(max_iters):
        new_assignment = _assign(features, centroids, x_sq)
        history.append(_inertia(features, centroids, new_assignment))
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        counts = np.bincount(assignment, minlength=k)
        # the members of every cluster as contiguous rows in index order: the
        # rows, order and layout of features[assignment == c]
        grouped = features[np.argsort(assignment, kind="stable")]
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            centroids[c] = grouped[ends[c] - counts[c] : ends[c]].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # re-seed emptied clusters with the globally farthest points
            dists = ((features - centroids[assignment]) ** 2).sum(axis=1)
            centroids[empty] = features[np.argsort(-dists, kind="stable")[: empty.size]]
            reseeds += int(empty.size)
    if not converged:
        # hit the iteration cap mid-update: re-anchor to the final centroids
        assignment = _assign(features, centroids, x_sq)
        history.append(_inertia(features, centroids, assignment))
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=assignment,
        inertia=history[-1],
        inertia_history=history,
        reseeds=reseeds,
    )


def similarity_scores(model: ClusterModel, features: np.ndarray) -> np.ndarray:
    """Best cosine match against any other same-cluster chunk.

    Members of singleton clusters have nothing to match and get the sentinel
    −2, which no threshold in [−1, 1] can exceed.
    """
    features = np.asarray(features, dtype=np.float64)
    scores = np.full(features.shape[0], SINGLETON_SENTINEL)
    for c in range(model.k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        sims = features[members] @ features[members].T
        np.fill_diagonal(sims, -np.inf)
        scores[members] = sims.max(axis=1)
    return scores


def _keep_one_drops(
    chunks: list[Chunk], features: np.ndarray, model: ClusterModel, thresholds: np.ndarray
) -> np.ndarray:
    """(thresholds, chunks) drop flags of the greedy keep-one rule, replayed
    for every threshold in one walk over each cluster.

    Members are visited in descending distance from their centroid, ties
    broken by (traj_id, start); a chunk drops iff its cosine to a chunk kept
    so far at that threshold exceeds it. Cosines come from row blocks of the
    cluster's Gram matrix. Where the best kept one lies within rounding of a
    threshold, or is NaN, the decision is recomputed with the per-chunk
    rule's own ``features[i] @ features[kept].T`` over that threshold's kept
    list, so it is that rule's to the bit. Ascending thresholds let a chunk
    skip every threshold above its best cosine.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    drop = np.zeros((thresholds.size, len(chunks)), dtype=bool)
    dists = ((features - model.centroids[model.assignment]) ** 2).sum(axis=1)
    rank = {tid: r for r, tid in enumerate(sorted({chunk.traj_id for chunk in chunks}))}
    id_rank = np.array([rank[chunk.traj_id] for chunk in chunks], dtype=np.int64)
    starts = np.array([chunk.start for chunk in chunks], dtype=np.int64)
    # GEMM and GEMV dot products differ by at most about 2d·eps·‖x‖‖y‖;
    # 32(d + 3) leaves 16× margin, as in _assign.
    rtol = 32 * (features.shape[1] + 3) * np.finfo(np.float64).eps
    for c in range(model.k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        order = members[np.lexsort((starts[members], id_rank[members], -dists[members]))]
        x = features[order]
        norms = np.sqrt((x**2).sum(axis=1))
        kept = np.ones((thresholds.size, order.size), dtype=bool)
        rows = max(1, _ASSIGN_BLOCK_ELEMS // order.size)
        for lo in range(1, order.size, rows):
            hi = min(lo + rows, order.size)
            gram = x[lo:hi] @ x[:hi].T
            gram[np.arange(lo, hi)[:, None] <= np.arange(hi)] = -np.inf  # earlier chunks only
            tol = rtol * norms[lo:hi] * norms.max()
            # a row is kept at every threshold its largest entry stays clearly
            # below; it is walked up to the last threshold where that fails
            busy = ~(thresholds - gram.max(axis=1)[:, None] > tol[:, None])
            last = (busy * np.arange(1, thresholds.size + 1)).max(axis=1)
            for r in np.flatnonzero(last):
                j, before = lo + r, kept[: last[r], : lo + r]
                gap = np.where(before, gram[r, :j], -np.inf).max(axis=1) - thresholds[: last[r]]
                hit = gap > 0
                for t in np.flatnonzero(~(np.abs(gap) > tol[r])):  # NaN gaps too
                    exact = features[order[j]] @ features[order[:j][before[t]]].T
                    hit[t] = (exact > thresholds[t]).any()
                kept[: last[r], j] = ~hit
        drop[:, order] = ~kept
    return drop


def duplicate_mask(
    chunks: list[Chunk],
    scores: np.ndarray,
    features: np.ndarray,
    model: ClusterModel,
    epsilon_d: float,
    traj_lens: dict[str, int],
    drop_all_over_threshold: bool = False,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-chunk and per-frame drop flags.

    Within each cluster, chunks are visited in descending distance from the
    centroid (ties broken by (traj_id, start)); a chunk is dropped iff its
    cosine to some already-kept chunk exceeds ``epsilon_d``, so one
    representative of every duplicate group always survives. The
    ``drop_all_over_threshold`` variant instead drops every chunk whose
    similarity score exceeds the threshold, representatives included.
    """
    if drop_all_over_threshold:
        chunk_drop = np.asarray(scores) > epsilon_d
    else:
        chunk_drop = _keep_one_drops(chunks, features, model, np.array([epsilon_d]))[0]

    frame_drop = {tid: np.zeros(length, dtype=bool) for tid, length in traj_lens.items()}
    for chunk, dropped in zip(chunks, chunk_drop):
        if dropped:
            frame_drop[chunk.traj_id][chunk.start : chunk.start + chunk.span_frames] = True
    return chunk_drop, frame_drop


def cluster_dataset(
    ds: Dataset, cfg: DedupConfig, precomputed: np.ndarray | None = None
) -> tuple[list[Chunk], np.ndarray, ClusterModel, np.ndarray]:
    """chunk → embed → cluster → score, without masking.

    Exposed separately so threshold sweeps can reuse one clustering.
    """
    chunks = chunk_dataset(ds, cfg)
    if precomputed is not None:
        if precomputed.shape[0] != len(chunks):
            raise DimensionMismatch(
                f"{precomputed.shape[0]} precomputed embeddings for {len(chunks)} chunks"
            )
        norms = np.linalg.norm(precomputed, axis=1)
        features = np.where(norms[:, None] > 0, precomputed / np.maximum(norms, 1e-300)[:, None], 0.0)
    else:
        features, _ = compute_features(ds, chunks, cfg)
    if not chunks:
        empty = np.empty((0, 0))
        return chunks, empty, ClusterModel(0, empty, np.empty(0, dtype=np.int64), 0.0, []), np.empty(0)
    k = cfg.k if cfg.k is not None else default_k(len(chunks), cfg.target_cluster_size)
    model = kmeans(features, min(k, len(chunks)), cfg.seed, cfg.max_iters)
    scores = similarity_scores(model, features)
    return chunks, features, model, scores


def dedup_dataset(
    ds: Dataset, cfg: DedupConfig, precomputed: np.ndarray | None = None
) -> tuple[CurationMask, dict]:
    """Run the full dedup pipeline; returns masks and a JSON-ready report."""
    chunks, features, model, scores = cluster_dataset(ds, cfg, precomputed)
    traj_lens = {t.id: t.num_frames for t in ds.trajectories}
    _, frame_drop = duplicate_mask(
        chunks, scores, features, model, cfg.epsilon_d, traj_lens,
        cfg.drop_all_over_threshold,
    )

    sim_per_frame = {
        tid: np.full(length, UNCHUNKED_SENTINEL) for tid, length in traj_lens.items()
    }
    for chunk, score in zip(chunks, scores):
        sim_per_frame[chunk.traj_id][chunk.start : chunk.start + chunk.span_frames] = score

    masks = {}
    for traj in ds.trajectories:
        drop = frame_drop[traj.id]
        masks[traj.id] = TrajectoryMask(
            traj_id=traj.id,
            keep=~drop,
            reason=drop * DUPLICATE,
            subopt_score=np.zeros(traj.num_frames),
            dup_similarity=sim_per_frame[traj.id],
        )
    mask = CurationMask(masks=masks)
    return mask, dedup_report(chunks, model, scores, mask)


def dedup_report(
    chunks: list[Chunk], model: ClusterModel, scores: np.ndarray, mask: CurationMask
) -> dict:
    sizes = np.bincount(model.assignment, minlength=model.k) if model.k else np.empty(0, int)
    size_values, size_counts = np.unique(sizes, return_counts=True) if model.k else ((), ())
    real = np.asarray(scores)[np.asarray(scores) > SINGLETON_SENTINEL]
    edges = np.linspace(-1.0, 1.0, 65)
    counts, _ = np.histogram(np.clip(real, -1.0, 1.0), bins=edges) if real.size else (np.zeros(64, int), None)
    return {
        "format_version": 1,
        "k": model.k,
        "num_chunks": len(chunks),
        "num_singletons": int((np.asarray(scores) == SINGLETON_SENTINEL).sum()),
        "cluster_size_histogram": [[int(v), int(c)] for v, c in zip(size_values, size_counts)],
        "similarity_histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
        "deletion_ratio": mask.deletion_ratio(),
    }


# --- precomputed chunk embeddings ----------------------------------------------


def load_chunk_embeddings(path: str | Path) -> np.ndarray:
    """Read the packed embedding file: magic ``CEMB``, u32 count, u32 dim,
    then count·dim little-endian f32 in chunk order. Every value must be
    finite (``NonFiniteValue`` otherwise)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if len(raw) < 12 or raw[:4] != CEMB_MAGIC:
        raise IoFailure(f"{path}: not a chunk-embedding file")
    count, dim = struct.unpack("<II", raw[4:12])
    expected = 12 + count * dim * 4
    if len(raw) != expected:
        raise IoFailure(f"{path}: {len(raw)} bytes, expected {expected}")
    emb = np.frombuffer(raw[12:], dtype="<f4").astype(np.float64).reshape(count, dim)
    finite = np.isfinite(emb).all(axis=1)
    if not finite.all():
        raise NonFiniteValue(str(path), int(np.argmin(finite)), unit="chunk")
    return emb


def save_chunk_embeddings(path: str | Path, embeddings: np.ndarray) -> None:
    arr = np.ascontiguousarray(embeddings, dtype="<f4")
    if arr.ndim != 2:
        raise DimensionMismatch("embeddings must be a 2-D array")
    try:
        with open(path, "wb") as fh:
            fh.write(CEMB_MAGIC)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
