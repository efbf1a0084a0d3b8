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


@dataclass(frozen=True)
class Chunks:
    """Chunks as parallel arrays: row ``j`` covers frames ``start[j]`` to
    ``start[j] + span[j]`` of ``ds.trajectories[traj[j]]``. Rows are in
    dataset order, then frame order."""

    traj: np.ndarray    # (n,) int64 index into ds.trajectories
    start: np.ndarray   # (n,) int64 first frame
    span: np.ndarray    # (n,) int64 frames per chunk

    def __len__(self) -> int:
        return self.traj.shape[0]


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
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def chunk_dataset(ds: Dataset, cfg: DedupConfig) -> Chunks:
    """Tile each trajectory into chunks back to back from frame 0; a short
    tail is left unchunked."""
    spans = np.array([seconds_to_frames(cfg.chunk_seconds, t.fps) for t in ds.trajectories], dtype=np.int64)
    counts = np.array([t.num_frames for t in ds.trajectories], dtype=np.int64) // spans
    traj = np.repeat(np.arange(spans.size), counts)
    ordinal = np.arange(traj.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return Chunks(traj=traj, start=ordinal * spans[traj], span=spans[traj])


def _per_frame(ds: Dataset, chunks: Chunks, values: np.ndarray, fill: float | bool) -> list[np.ndarray]:
    """Per trajectory, in dataset order: each chunk's value over its frames,
    ``fill`` on the unchunked tail."""
    out, bounds = [], np.searchsorted(chunks.traj, np.arange(len(ds) + 1)).tolist()
    for traj, lo, hi in zip(ds.trajectories, bounds, bounds[1:]):
        frames = np.full(traj.num_frames, fill, dtype=values.dtype)
        if hi > lo:  # the chunks tile the trajectory from frame 0
            frames[: (hi - lo) * chunks.span[lo]].reshape(hi - lo, -1)[:] = values[lo:hi, None]
        out.append(frames)
    return out


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


def _balanced_weight(raw: np.ndarray, vis: int) -> float:
    """λ that gives the action block ``raw[:, vis:]`` the RMS of the visual
    block ``raw[:, :vis]``. Per-chunk sums of squares are taken through one
    buffer of ``_FEATURE_ROWS`` rows and added one by one in chunk order (a
    cumulative sum)."""
    n = raw.shape[0]
    sq_v, sq_a = np.empty(n), np.empty(n)
    buf = np.empty((min(n, _FEATURE_ROWS), raw.shape[1]))
    for lo in range(0, n, _FEATURE_ROWS):
        blk = np.square(raw[lo : lo + _FEATURE_ROWS], out=buf[: min(_FEATURE_ROWS, n - lo)])
        blk[:, :vis].sum(axis=1, out=sq_v[lo : lo + blk.shape[0]])
        blk[:, vis:].sum(axis=1, out=sq_a[lo : lo + blk.shape[0]])
    sum_v, sum_a = np.cumsum(sq_v)[-1], np.cumsum(sq_a)[-1]
    if sum_a == 0.0:  # also no action entries
        return 1.0
    rms_v, rms_a = np.sqrt(sum_v / (n * vis)), np.sqrt(sum_a / (raw.size - n * vis))
    return float(rms_v / rms_a) if rms_a > 0 else 1.0


def compute_features(ds: Dataset, chunks: Chunks, cfg: DedupConfig) -> tuple[np.ndarray, float]:
    """The (n, d) matrix of ``embed_chunk`` features in chunk order, and λ.

    Each trajectory's chunk frames are gathered once and their mean, diff
    and action blocks written straight into the result's rows, which are
    then scaled and normalized in place.
    """
    if not chunks:
        return np.empty((0, 0)), 1.0 if cfg.action_weight is None else float(cfg.action_weight)
    n_sub, dim = cfg.n_subsample, ds.obs_dim
    vis = n_sub * dim
    raw = np.empty((len(chunks), vis + n_sub * ds.action_dim))
    bounds = np.searchsorted(chunks.traj, np.arange(len(ds) + 1)).tolist()
    for traj, lo, hi in zip(ds.trajectories, bounds, bounds[1:]):
        if lo == hi:
            continue
        idx = chunks.start[lo:hi, None] + subsample_indices(int(chunks.span[lo]), n_sub)
        obs = traj.obs[idx].astype(np.float64)
        raw[lo:hi, :dim] = obs.mean(axis=1)
        raw[lo:hi, dim:vis] = np.diff(obs, axis=1).reshape(hi - lo, -1)
        raw[lo:hi, vis:] = traj.actions[idx].reshape(hi - lo, -1)
    lam = float(cfg.action_weight) if cfg.action_weight is not None else _balanced_weight(raw, vis)
    raw[:, vis:] *= lam
    # one dot product per row, as embed_chunk's norm takes it
    norms = np.sqrt((raw[:, None, :] @ raw[:, :, None]).ravel())
    np.divide(raw, norms[:, None], out=raw, where=norms[:, None] > 0)
    return raw, lam


def default_k(num_chunks: int, target_cluster_size: int = 50) -> int:
    return max(1, int(round(num_chunks / target_cluster_size)))


# Entries in one row block of _assign's (rows × centroids) estimates and
# gathered rows, of the (rows × cluster size) Gram blocks of
# similarity_scores, and of the (clusters × rows × size) padded Gram blocks of
# _keep_one_drops.
_ASSIGN_BLOCK_ELEMS = 1 << 18
# Most entries of (x − c)² filled at a time by _inertia (one leaf of numpy's
# pairwise summation tree) and by _keep_one_drops: small enough to stay in cache.
_INERTIA_LEAF = 1 << 14
# Rows per block of _balanced_weight's sums of squares.
_FEATURE_ROWS = 256


def _rtol(d: int) -> float:
    """‖x‖² − 2·x·c + ‖c‖² and the broadcast ``((x − c)**2).sum()`` differ by
    at most about (2d + 4)·eps·(‖x‖² + ‖c‖²), and GEMM and GEMV dot products
    x·y by about 2d·eps·‖x‖‖y‖. Times ‖x‖² + ‖c‖² or ‖x‖‖y‖, this is at least
    8× twice the first (a gap rounding cannot reorder) and 16× the second."""
    return 32 * (d + 3) * np.finfo(np.float64).eps


def _rank(
    features: np.ndarray,
    x_sq: np.ndarray,
    rows: np.ndarray | None,
    centroids: np.ndarray,
    c_sq: np.ndarray,
    cands: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of ``features[rows]`` (every row if None): the candidate
    centroid with the smallest estimate ‖x‖² − 2·x·cᵀ + ‖c‖², that estimate
    and the next smallest one, a row block at a time through kmeans' reused
    ``work`` buffers (block rows, estimates); the estimate has the bits of
    ``x_sq[:, None] − 2.0 * (x @ c.T) + c_sq``."""
    buf, est = work
    count = features.shape[0] if rows is None else rows.size
    c, c_sq = centroids[cands], c_sq[cands]
    step = buf.shape[0]
    ids, first, second = np.empty(count, dtype=np.int64), np.empty(count), np.empty(count)
    for lo in range(0, count, step):
        part = slice(lo, lo + step)
        idx = part if rows is None else rows[part]
        x = features[part] if rows is None else np.take(features, idx, axis=0, out=buf[: idx.size], mode="clip")
        d2 = est[: x.shape[0] * cands.size].reshape(x.shape[0], cands.size)
        np.matmul(x, c.T, out=d2)
        d2 *= -2.0
        d2 += x_sq[idx][:, None]
        d2 += c_sq
        best = d2.argmin(axis=1)
        ix = np.arange(best.size)
        ids[part], first[part] = cands[best], d2[ix, best]
        d2[ix, best] = np.inf
        second[part] = d2.min(axis=1)
    return ids, first, second


def _merge_two(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, smallest, next smallest) over the union of two candidate sets;
    a NaN in either stays in the result's gap."""
    ids, first, second = a
    b_ids, b_first, b_second = b
    take = b_first < first
    return (
        np.where(take, b_ids, ids),
        np.where(take, b_first, first),
        np.where(take, np.minimum(first, b_second), np.minimum(second, b_first)),
    )


def _assign(
    features: np.ndarray,
    centroids: np.ndarray,
    x_sq: np.ndarray,
    prev: np.ndarray | None,
    moved: np.ndarray | None,
    prev_d2: np.ndarray | None,
    work: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row, bit for bit the first-index argmin of the
    broadcast ``((x − c)**2).sum()`` over all k centroids, and each row's d²
    to it within the rounding of the estimates below.

    ``prev`` and ``prev_d2`` are that result for the centroids before their
    last update, and ``moved`` flags the centroids whose bits have changed
    since (None: there is no earlier result). A row whose own centroid did
    not move keeps its exact d² to every unmoved centroid, none below its
    own's and none equal at a lower index, so only its own centroid and the
    moved ones are candidates; rows of moved clusters take all k. While more
    than half the centroids move, every row takes all k, which is cheaper
    than gathering the rows of moved clusters. Candidates are ranked by
    ‖x‖² − 2·x·cᵀ + ‖c‖² (see ``_rank``), and rows whose two best estimates
    are near-tied are recomputed by the broadcast over the same candidates.
    ``x_sq`` is ``(features**2).sum(axis=1)``, computed once by the caller,
    and ``work`` its reused buffers (see ``_rank``).
    """
    n, d = features.shape
    k = centroids.shape[0]
    c_sq = (centroids**2).sum(axis=1)
    every = np.arange(k)
    if moved is None or 2 * np.count_nonzero(moved) > k:
        cols, rest, stay = every, every[:0], np.zeros(n, dtype=bool)
    elif not moved.any():
        return prev.copy(), prev_d2.copy()
    else:
        cols, rest, stay = np.flatnonzero(moved), np.flatnonzero(~moved), ~moved[prev]
    ids, first, second = _rank(features, x_sq, None, centroids, c_sq, cols, work)
    if rest.size:
        # a staying row's own centroid, at its d² from the last assignment
        own = (prev, np.where(stay, prev_d2, np.inf), np.inf)
        ids, first, second = _merge_two((ids, first, second), own)
        # rows of moved clusters: the unmoved centroids too
        full = np.flatnonzero(~stay)
        if full.size:
            more = _rank(features, x_sq, full, centroids, c_sq, rest, work)
            ids[full], first[full], second[full] = _merge_two((ids[full], first[full], second[full]), more)
    # written as "not above" so NaN gaps take the exact path too
    for i in np.flatnonzero(~(second - first > _rtol(d) * (x_sq + c_sq.max()))):
        pool = np.sort(np.append(cols, prev[i])) if stay[i] else every
        exact = ((features[i] - centroids[pool]) ** 2).sum(axis=1)
        ids[i], first[i] = pool[exact.argmin()], exact.min()
    return ids, first


def _sq_diff(
    features: np.ndarray, centroids: np.ndarray, assignment: np.ndarray, rows: slice, buf: np.ndarray
) -> np.ndarray:
    """``(features[rows] − centroids[assignment[rows]])**2`` to the bit, in
    the front of the flat reused buffer ``buf``."""
    x = features[rows]
    out = buf[: x.size].reshape(x.shape)
    np.take(centroids, assignment[rows], axis=0, out=out, mode="clip")
    np.subtract(x, out, out=out)
    np.square(out, out=out)
    return out


def _inertia(features: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    """``((features − centroids[assignment])**2).sum()`` to the bit.

    numpy sums the n·d entries pairwise: a range of more than 128 entries is
    split at half its length, rounded down to a multiple of 8, and the two
    halves' sums are added. The same split, stopped at ranges of at most
    ``_INERTIA_LEAF`` entries, fills the rows under each leaf with (x − c)²
    in one small reused buffer, sums the leaf's range with numpy and adds
    the sums back up the tree.
    """
    n, d = features.shape
    if not features.size:
        return 0.0
    buf = np.empty(_INERTIA_LEAF + 2 * d)  # the rows under any leaf

    def tree(lo: int, size: int) -> float:
        if size > _INERTIA_LEAF:
            half = size // 2 - size // 2 % 8
            return tree(lo, half) + tree(lo + half, size - half)
        r0 = lo // d
        _sq_diff(features, centroids, assignment, slice(r0, -(-(lo + size) // d)), buf)
        return buf[lo - r0 * d : lo - r0 * d + size].sum()

    return float(tree(0, n * d))


def _row_d2(features: np.ndarray, rows: np.ndarray, centroid: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``((features[rows] − centroid)**2).sum(axis=1)`` to the bit, through
    the reused buffer ``buf`` a block of rows at a time."""
    out = np.empty(rows.size)
    for lo in range(0, rows.size, buf.shape[0]):
        part = rows[lo : lo + buf.shape[0]]
        diff = buf[: part.size]
        np.take(features, part, axis=0, out=diff, mode="clip")
        diff -= centroid
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[lo : lo + part.size])
    return out


def kmeans(features: np.ndarray, k: int, seed: int = 0, max_iters: int = 100) -> ClusterModel:
    """Seeded k-means++ plus Lloyd iterations to an assignment fixpoint.

    Empty clusters are re-seeded with the point currently farthest from its
    centroid. Seeding estimates every row's squared distance to each new
    centre with one matrix-vector product; only the rows that estimate
    cannot rule out (within ``_assign``'s rounding tolerance) are recomputed
    with the exact squared difference, so every d² has the bits of the full
    recomputation and the picks are the same. Assignment is a blocked matrix
    product with an exact recheck of near-ties; from the second one on, a
    row whose centroid kept its bits is only ranked against that centroid
    and the ones that moved (see ``_assign``). The inertia is summed leaf by
    leaf of numpy's own summation tree (see ``_inertia``). Each centroid
    whose members changed is the mean of its members in index order, taken
    through one stable sort of the assignment; the others keep their bits.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise EmptyInput("kmeans needs at least one feature")
    if k > n:
        raise KTooLarge(k, n)
    if k < 1:
        raise ValueError("k must be >= 1")

    d = features.shape[1]
    rng = np.random.default_rng(seed)
    # one block of rows and its estimates against every centroid, reused throughout
    step = min(n, max(1, _ASSIGN_BLOCK_ELEMS // max(k, d)))
    buf = np.empty((step, d))
    work = (buf, np.empty(step * k))
    x_sq = np.empty(n)  # (features**2).sum(axis=1), a block of rows at a time
    for lo in range(0, n, step):
        np.square(features[lo : lo + step], out=buf[: min(step, n - lo)]).sum(axis=1, out=x_sq[lo : lo + step])
    rtol = _rtol(d)
    centroids = np.empty((k, d))
    centroids[0] = features[int(rng.integers(n))]
    d2 = _row_d2(features, np.arange(n), centroids[0], buf)
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
        d2[rows] = np.minimum(d2[rows], _row_d2(features, rows, centroid, buf))

    assignment = np.full(n, -1, dtype=np.int64)
    moved = nearest_d2 = None
    history: list[float] = []
    converged = False
    reseeds = 0
    for _ in range(max_iters):
        new_assignment, nearest_d2 = _assign(features, centroids, x_sq, assignment, moved, nearest_d2, work)
        history.append(_inertia(features, centroids, new_assignment))
        changed = new_assignment != assignment
        if not changed.any():
            converged = True
            break
        touched = np.unique(np.concatenate([assignment[changed], new_assignment[changed]]))
        assignment = new_assignment
        before = centroids.copy()
        counts = np.bincount(assignment, minlength=k)
        # every cluster's members in index order: the rows of features[assignment == c]
        order = np.argsort(assignment, kind="stable")
        ends = np.cumsum(counts)
        for c in touched[touched >= 0]:
            if counts[c]:
                centroids[c] = features[order[ends[c] - counts[c] : ends[c]]].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # re-seed emptied clusters with the globally farthest points
            dists = np.empty(n)  # ((features − centroids[assignment])**2).sum(axis=1)
            for lo in range(0, n, step):
                blk = _sq_diff(features, centroids, assignment, slice(lo, lo + step), buf.ravel())
                blk.sum(axis=1, out=dists[lo : lo + step])
            centroids[empty] = features[np.argsort(-dists, kind="stable")[: empty.size]]
            reseeds += int(empty.size)
        moved = (centroids.view(np.int64) != before.view(np.int64)).any(axis=1)
    if not converged:
        # hit the iteration cap mid-update: re-anchor to the final centroids
        assignment, _ = _assign(features, centroids, x_sq, assignment, moved, nearest_d2, work)
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
    −2, which no threshold in [−1, 1] can exceed. The cluster's Gram matrix
    is taken in row blocks, so memory grows with its size, not its square.
    """
    features = np.asarray(features, dtype=np.float64)
    scores = np.full(features.shape[0], SINGLETON_SENTINEL)
    for c in range(model.k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        # two gathers: x @ x.T of one array is a syrk, which rounds unlike gemm
        x, y = features[members], features[members]
        rows = max(1, _ASSIGN_BLOCK_ELEMS // members.size)
        for lo in range(0, members.size, rows):
            sims = x[lo : lo + rows] @ y.T
            ix = np.arange(sims.shape[0])
            sims[ix, lo + ix] = -np.inf
            scores[members[lo : lo + rows]] = sims.max(axis=1)
    return scores


def _keep_one_drops(
    ds: Dataset, chunks: Chunks, features: np.ndarray, model: ClusterModel, thresholds: np.ndarray
) -> np.ndarray:
    """(thresholds, chunks) drop flags of the greedy keep-one rule, replayed
    for every threshold together and through many clusters at once.

    Members are visited in descending distance from their centroid, ties
    broken by (traj_id, start); a chunk drops iff its cosine to a chunk kept
    so far at that threshold exceeds it. Clusters are grouped, largest
    first, so that a group's Gram matrices, padded to its largest cluster,
    fit ``_ASSIGN_BLOCK_ELEMS``; a cluster too large for that alone is taken
    in row blocks. A chunk whose best cosine to an earlier member lies
    clearly below the lowest threshold is kept at every threshold. The
    others step in visiting order, the s-th of every cluster in the group at
    step s, each matched against the chunks kept so far at every threshold.
    Where the best kept one lies within rounding of a threshold, or is NaN,
    the decision is recomputed with the per-chunk rule's own
    ``features[i] @ features[kept].T`` over that threshold's kept list, so
    it is that rule's to the bit.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n, d = features.shape
    drop = np.zeros((thresholds.size, n), dtype=bool)
    # distances to the centroid and norms, a block of rows at a time
    dists, norms = np.empty(n), np.empty(n)
    step = max(1, _INERTIA_LEAF // max(d, 1))
    buf = np.empty(min(n, step) * d)
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        _sq_diff(features, model.centroids, model.assignment, blk, buf).sum(axis=1, out=dists[blk])
        x = features[blk]
        np.sqrt(np.square(x, out=buf[: x.size].reshape(x.shape)).sum(axis=1), out=norms[blk])
    # each trajectory's position in id order
    id_rank = np.empty(len(ds.trajectories), dtype=np.int64)
    id_rank[sorted(range(id_rank.size), key=lambda i: ds.trajectories[i].id)] = np.arange(id_rank.size)
    # every cluster's members in visiting order, one cluster after another
    order = np.lexsort((chunks.start, id_rank[chunks.traj], -dists, model.assignment))
    sizes = np.bincount(model.assignment, minlength=model.k)
    first = np.cumsum(sizes) - sizes
    norm_max = np.zeros(model.k)
    norm_max[sizes > 0] = np.maximum.reduceat(norms[order], first[sizes > 0])
    rtol, low = _rtol(d), thresholds.min()

    by_size = np.flatnonzero(sizes >= 2)
    by_size = by_size[np.argsort(-sizes[by_size], kind="stable")]
    at = 0
    while at < by_size.size:
        m = sizes[by_size[at]]
        group = by_size[at : at + max(1, _ASSIGN_BLOCK_ELEMS // (m * m))]
        at += group.size
        g_size, g_first = sizes[group], first[group]
        # (cluster, position) → chunk index; positions past a cluster's end
        # hold its last member and are never real
        real = np.arange(m) < g_size[:, None]
        members = order[np.minimum(g_first[:, None] + np.arange(m), g_first[:, None] + g_size[:, None] - 1)]
        tol = rtol * np.where(real, norms[members], 0.0) * norm_max[group][:, None]
        # 0 where a chunk is kept at a threshold so far, −inf where it drops
        penalty = np.zeros((group.size, thresholds.size, m))
        alone = features[members[0]] if group.size == 1 else None
        rows = max(1, _ASSIGN_BLOCK_ELEMS // (group.size * m))
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            gram = np.full((group.size, hi - lo, hi), -np.inf)
            for g, size in enumerate(g_size.tolist()):
                if size > lo:
                    x = alone if alone is not None else features[members[g, :size]]
                    end = min(size, hi)
                    gram[g, : end - lo, :end] = x[lo:end] @ x[:end].T
            gram[:, np.arange(hi) >= np.arange(lo, hi)[:, None]] = -np.inf  # earlier chunks only
            # rows whose best earlier cosine is clearly below every threshold stay kept
            g_act, r_act = np.nonzero(~(low - gram.max(axis=2) > tol[:, lo:hi]))
            # step s takes the s-th of these rows in every cluster
            step_of = np.arange(g_act.size) - np.searchsorted(g_act, g_act)
            for s in range(step_of.max(initial=-1) + 1):
                g, r = g_act[step_of == s], r_act[step_of == s]
                p = lo + r
                best = (gram[g, r, None, : p.max()] + penalty[g, :, : p.max()]).max(axis=2)
                gap = best - thresholds
                hit = gap > 0
                for i, t in zip(*np.nonzero(~(np.abs(gap) > tol[g, p][:, None]))):  # NaN gaps too
                    kept = members[g[i], : p[i]][penalty[g[i], t, : p[i]] == 0]
                    exact = features[members[g[i], p[i]]] @ features[kept].T
                    hit[i, t] = (exact > thresholds[t]).any()
                penalty[g, :, p] = np.where(hit, -np.inf, 0.0)
        drop[:, members[real]] = penalty.transpose(1, 0, 2)[:, real] < 0
    return drop


def duplicate_mask(
    ds: Dataset,
    chunks: Chunks,
    scores: np.ndarray,
    features: np.ndarray,
    model: ClusterModel,
    epsilon_d: float,
    drop_all_over_threshold: bool = False,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-chunk drop flags, and per-frame ones for each trajectory in
    dataset order.

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
        chunk_drop = _keep_one_drops(ds, chunks, features, model, np.array([epsilon_d]))[0]
    return chunk_drop, _per_frame(ds, chunks, chunk_drop, False)


def cluster_dataset(
    ds: Dataset, cfg: DedupConfig, precomputed: np.ndarray | None = None
) -> tuple[Chunks, np.ndarray, ClusterModel, np.ndarray]:
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
    _, frame_drop = duplicate_mask(
        ds, chunks, scores, features, model, cfg.epsilon_d, cfg.drop_all_over_threshold,
    )
    sims = _per_frame(ds, chunks, scores, UNCHUNKED_SENTINEL)
    mask = CurationMask(masks={
        traj.id: TrajectoryMask(traj.id, keep=~drop, reason=drop * DUPLICATE,
                                subopt_score=np.zeros(traj.num_frames), dup_similarity=sim)
        for traj, drop, sim in zip(ds.trajectories, frame_drop, sims)
    })
    return mask, dedup_report(chunks, model, scores, mask)


def dedup_report(
    chunks: Chunks, model: ClusterModel, scores: np.ndarray, mask: CurationMask
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
