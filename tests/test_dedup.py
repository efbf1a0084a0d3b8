"""Chunking, embeddings, k-means, and duplicate masking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trajcurate import dedup
from trajcurate.calibrate import dedup_ratio_curve
from trajcurate.dedup import (
    Chunks,
    ClusterModel,
    DedupConfig,
    chunk_dataset,
    cluster_dataset,
    compute_features,
    dedup_dataset,
    default_k,
    duplicate_mask,
    embed_chunk,
    kmeans,
    load_chunk_embeddings,
    save_chunk_embeddings,
    similarity_scores,
    subsample_indices,
)
from trajcurate.errors import (
    DimensionMismatch,
    EmptyInput,
    IoFailure,
    KTooLarge,
    NonFiniteValue,
)
from trajcurate.trajstore import Dataset, seconds_to_frames

from conftest import make_dataset, make_trajectory


# --- oracles -------------------------------------------------------------------


def oracle_similarity(assignment, features):
    """Exhaustive pairwise max-cosine within each cluster; singletons -2."""
    n = features.shape[0]
    out = np.full(n, -2.0)
    for i in range(n):
        best = -np.inf
        for j in range(n):
            if i != j and assignment[i] == assignment[j]:
                best = max(best, float(np.dot(features[i], features[j])))
        if np.isfinite(best):
            out[i] = best
    return out


def oracle_chunks(ds, cfg):
    """(trajectory index, start, span) of every chunk: each trajectory tiled
    from frame 0 by a per-trajectory range loop."""
    out = []
    for i, traj in enumerate(ds.trajectories):
        w = seconds_to_frames(cfg.chunk_seconds, traj.fps)
        out += [(i, start, w) for start in range(0, traj.num_frames - w + 1, w)]
    return out


def oracle_keep_one(ds, chunks, features, model, eps):
    """The per-threshold keep-one loop: each cluster visited by descending
    distance from its centroid, ties by (traj_id, start), a chunk dropped
    when its cosine to an already-kept chunk exceeds ``eps``."""
    drop = np.zeros(len(chunks), dtype=bool)
    dists = ((features - model.centroids[model.assignment]) ** 2).sum(axis=1)
    key = [(ds.trajectories[chunks.traj[j]].id, chunks.start[j]) for j in range(len(chunks))]
    for c in range(model.k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        order = sorted(members, key=lambda i: (-dists[i], *key[i]))
        kept = []
        for i in order:
            if kept and (features[i] @ features[kept].T > eps).any():
                drop[i] = True
            else:
                kept.append(i)
    return drop


def oracle_ratio_curve(ds, chunks, thresholds, chunk_drop_at):
    """(threshold, deletion ratio) per sorted threshold, from per-frame
    flags set under every chunk that ``chunk_drop_at(threshold)`` drops."""
    points = []
    for t in sorted(float(t) for t in thresholds):
        frames = {traj.id: np.zeros(traj.num_frames, dtype=bool) for traj in ds.trajectories}
        for j, dropped in enumerate(chunk_drop_at(t)):
            if dropped:
                start = chunks.start[j]
                frames[ds.trajectories[chunks.traj[j]].id][start : start + chunks.span[j]] = True
        points.append((t, sum(int(f.sum()) for f in frames.values()) / ds.total_frames))
    return points


def oracle_kmeans(features, k, seed=0, max_iters=100):
    """k-means++ seeding with every row's d² recomputed in full for each new
    centre, then Lloyd iterations with the brute-force argmin, masked-row
    centroid means and the broadcast inertia; emptied clusters re-seeded
    with the globally farthest points. Returns (centroids, assignment,
    inertia history, reseeds)."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]

    def nearest(centroids):
        return ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, features.shape[1]))
    centroids[0] = features[int(rng.integers(n))]
    d2 = ((features - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centroids[c] = features[pick]
        d2 = np.minimum(d2, ((features - centroids[c]) ** 2).sum(axis=1))

    assignment = np.full(n, -1, dtype=np.int64)
    history = []
    converged = False
    reseeds = 0
    for _ in range(max_iters):
        new_assignment = nearest(centroids)
        history.append(float(((features - centroids[new_assignment]) ** 2).sum()))
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        counts = np.bincount(assignment, minlength=k)
        for c in np.flatnonzero(counts):
            centroids[c] = features[assignment == c].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            dists = ((features - centroids[assignment]) ** 2).sum(axis=1)
            centroids[empty] = features[np.argsort(-dists, kind="stable")[: empty.size]]
            reseeds += int(empty.size)
    if not converged:
        assignment = nearest(centroids)
        history.append(float(((features - centroids[assignment]) ** 2).sum()))
    return centroids, assignment, history, reseeds


def random_unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# --- config / chunking ------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"chunk_seconds": 0.0},
    {"n_subsample": 1},
    {"epsilon_d": -1.5},
    {"action_weight": -1.0},
    {"target_cluster_size": 0},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        DedupConfig(**kw)


def test_subsample_indices_pin():
    np.testing.assert_array_equal(
        subsample_indices(20, 8), [0, 2, 5, 8, 10, 13, 16, 19]
    )
    np.testing.assert_array_equal(subsample_indices(8, 8), np.arange(8))
    np.testing.assert_array_equal(subsample_indices(30, 2), [0, 29])


@given(span=st.integers(2, 200), n=st.integers(2, 32))
def test_subsample_indices_properties(span, n):
    idx = subsample_indices(span, n)
    assert idx[0] == 0 and idx[-1] == span - 1
    assert (np.diff(idx) >= 0).all()
    assert (idx < span).all()


def test_chunk_dataset_tiling():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, num_traj=2, n=45, fps=10.0)  # W = 20
    chunks = chunk_dataset(ds, DedupConfig())
    # 5-frame tails are left unchunked
    assert list(zip(chunks.traj.tolist(), chunks.start.tolist(), chunks.span.tolist())) == [
        (0, 0, 20), (0, 20, 20), (1, 0, 20), (1, 20, 20),
    ]
    assert all(a.dtype == np.int64 for a in (chunks.traj, chunks.start, chunks.span))


def test_chunk_dataset_short_trajectories_skipped():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng, num_traj=1, n=12, fps=10.0)
    chunks = chunk_dataset(ds, DedupConfig())
    assert len(chunks) == 0


@given(
    trajs=st.lists(
        st.tuples(st.integers(1, 90), st.sampled_from([5.0, 10.0, 15.0, 30.0, 50.0])),
        max_size=6,
    ),
    chunk_seconds=st.sampled_from([0.1, 0.5, 1.0, 1.3, 2.0, 4.0]),
)
@settings(max_examples=60, deadline=None)
def test_chunk_dataset_matches_oracle(trajs, chunk_seconds):
    """Mixed fps, trajectories shorter than one chunk and any chunk length
    tile as the per-trajectory range loop does."""
    rng = np.random.default_rng(0)
    ds = Dataset(
        trajectories=[make_trajectory(rng, f"t{i}", n=n, fps=fps) for i, (n, fps) in enumerate(trajs)],
        obs_dim=6,
        action_dim=3,
    )
    cfg = DedupConfig(chunk_seconds=chunk_seconds)
    chunks = chunk_dataset(ds, cfg)
    got = list(zip(chunks.traj.tolist(), chunks.start.tolist(), chunks.span.tolist()))
    assert got == oracle_chunks(ds, cfg)


# --- features -----------------------------------------------------------------------


def test_embed_chunk_layout():
    obs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 8.0]])
    actions = np.array([[1.0], [0.0], [-1.0]])
    raw = np.concatenate([
        [3.0, 14.0 / 3.0],          # column means
        [2.0, 2.0, 2.0, 4.0],       # consecutive diffs, row-major
        [2.0, 0.0, -2.0],           # actions * lambda
    ])
    got = embed_chunk(obs, actions, action_weight=2.0)
    np.testing.assert_allclose(got, raw / np.linalg.norm(raw), rtol=1e-15)
    assert np.linalg.norm(got) == pytest.approx(1.0)


def test_embed_chunk_zero_stays_zero():
    z = embed_chunk(np.zeros((3, 2)), np.zeros((3, 1)), 1.0)
    np.testing.assert_array_equal(z, np.zeros(2 + 4 + 3))


def test_embed_chunk_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        embed_chunk(np.zeros((3, 2)), np.zeros((4, 1)), 1.0)


def test_auto_action_weight_balances_rms():
    # constant obs c and constant action a: rms_v = c/sqrt(N), rms_a = a
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, num_traj=1, n=40, obs_dim=3, action_dim=2, fps=10.0)
    ds.trajectories[0].obs[:] = 4.0
    ds.trajectories[0].actions[:] = 0.5
    cfg = DedupConfig()
    chunks = chunk_dataset(ds, cfg)
    lam = compute_features(ds, chunks, cfg)[1]
    assert lam == pytest.approx(4.0 / (np.sqrt(8) * 0.5), rel=1e-12)


def test_explicit_action_weight_wins():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, num_traj=1, n=40)
    cfg = DedupConfig(action_weight=3.5)
    assert compute_features(ds, chunk_dataset(ds, cfg), cfg)[1] == 3.5


def test_compute_features_threads_agree():
    # the stage runs on one thread; two calls must agree bit for bit
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, num_traj=3, n=60)
    cfg = DedupConfig()
    f1, lam1 = compute_features(ds, chunk_dataset(ds, cfg), cfg)
    f2, lam2 = compute_features(ds, chunk_dataset(ds, cfg), cfg)
    assert lam1 == lam2
    assert f1.tobytes() == f2.tobytes()


def _rows(chunks, rows):
    """The chunks at ``rows``, an ascending index, so still in dataset order."""
    return Chunks(traj=chunks.traj[rows], start=chunks.start[rows], span=chunks.span[rows])


def _embed_each(ds, chunks, cfg, lam):
    """``embed_chunk`` of every chunk, one at a time."""
    feats = []
    for j in range(len(chunks)):
        traj = ds.trajectories[chunks.traj[j]]
        frames = chunks.start[j] + subsample_indices(chunks.span[j], cfg.n_subsample)
        feats.append(embed_chunk(traj.obs[frames], traj.actions[frames], lam))
    return np.stack(feats)


def test_compute_features_matches_embed_chunk():
    rng = np.random.default_rng(16)
    ds = make_dataset(rng, num_traj=2, n=60, fps=10.0)          # W = 20
    ds.trajectories.append(make_trajectory(rng, "t002", n=95, fps=15.0))  # W = 30
    ds.trajectories[0].obs[20:40] = 0.0                         # an all-zero chunk
    ds.trajectories[0].actions[20:40] = 0.0
    cfg = DedupConfig()
    chunks = chunk_dataset(ds, cfg)
    subset = _rows(chunks, [0, 1, 4, 6, 7])
    for chosen in (chunks, subset):
        feats, lam = compute_features(ds, chosen, cfg)
        assert lam == compute_features(ds, chosen, cfg)[1]
        np.testing.assert_array_equal(feats, _embed_each(ds, chosen, cfg, lam))
    assert chunks.span.tolist() == [20, 20, 20, 20, 20, 20, 30, 30, 30]
    np.testing.assert_array_equal(compute_features(ds, chunks, cfg)[0][1], 0.0)


def test_compute_features_matches_embed_chunk_in_any_block_and_order():
    """Any row block, any order of the dataset's trajectories and any subset
    of its chunks give ``embed_chunk``'s bits."""
    rng = np.random.default_rng(17)
    ds = make_dataset(rng, num_traj=3, n=80, fps=10.0)          # W = 20
    ds.trajectories.append(make_trajectory(rng, "t003", n=95, fps=15.0))  # W = 30
    shuffled = Dataset(trajectories=[ds.trajectories[i] for i in rng.permutation(4)], obs_dim=6, action_dim=3)
    cfg = DedupConfig()
    for data in (ds, shuffled):
        chunks = chunk_dataset(data, cfg)
        for chosen in (chunks, _rows(chunks, np.flatnonzero(rng.random(len(chunks)) < 0.5))):
            for block_rows in (1, 3, dedup._FEATURE_ROWS):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(dedup, "_FEATURE_ROWS", block_rows)
                    feats, lam = compute_features(data, chosen, cfg)
                assert feats.tobytes() == _embed_each(data, chosen, cfg, lam).tobytes()
                # the row block does not change λ's bits
                assert lam == compute_features(data, chosen, cfg)[1]


def _traced_peak(fn):
    """(result, bytes still allocated, peak bytes) of one call under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_compute_features_memory_is_its_output_plus_a_block():
    """No (chunks, N, D) gathers and no second (n, d) array: the traced peak
    stays within the features plus the sums' row block and one trajectory's
    frames."""
    ds = make_dataset(np.random.default_rng(18), num_traj=30, n=400, obs_dim=32, action_dim=4)
    cfg = DedupConfig()
    chunks = chunk_dataset(ds, cfg)
    (feats, _), _, peak = _traced_peak(lambda: compute_features(ds, chunks, cfg))
    block = dedup._FEATURE_ROWS * feats.shape[1] * 8
    one_traj = 3 * (len(chunks) // len(ds)) * 8 * (32 + 4) * 8
    assert len(chunks) == 600
    assert peak < feats.nbytes + block + one_traj + (1 << 17)  # index lists, ufunc buffers


def test_kmeans_memory_above_features_does_not_grow_with_n_times_d():
    """Doubling n at fixed k and d adds only per-row vectors to k-means'
    traced peak, far less than another (n, d) array such as the squares."""
    rng = np.random.default_rng(19)
    d, k = 128, 8
    peaks = []
    for n in (4000, 8000):
        feats = random_unit_rows(rng, n, d)
        _, _, peak = _traced_peak(lambda: kmeans(feats, k, seed=0, max_iters=4))
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 0.25 * 4000 * d * 8


# --- k-means --------------------------------------------------------------------------


def test_default_k_rule():
    assert default_k(3000) == 60
    assert default_k(49) == 1
    assert default_k(100) == 2
    assert default_k(1) == 1


def test_kmeans_pinned_two_blobs():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    model = kmeans(pts, k=2, seed=0)
    got = {tuple(c) for c in np.round(model.centroids, 9)}
    assert got == {(0.0, 0.5), (10.0, 10.5)}
    # pairs land together regardless of cluster numbering
    assert model.assignment[0] == model.assignment[1]
    assert model.assignment[2] == model.assignment[3]
    assert model.assignment[0] != model.assignment[2]
    assert model.inertia == pytest.approx(1.0)


def test_kmeans_k_equals_n_is_exact():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 3))
    model = kmeans(pts, k=6, seed=1)
    assert sorted(model.assignment) == list(range(6))
    assert model.inertia == pytest.approx(0.0, abs=1e-24)


def test_kmeans_input_validation():
    with pytest.raises(EmptyInput):
        kmeans(np.empty((0, 2)), 1)
    with pytest.raises(KTooLarge):
        kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0)


def test_kmeans_deterministic_and_thread_invariant():
    # k-means runs on one thread; two seeded calls must agree bit for bit
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(100, 5))
    a = kmeans(pts, 7, seed=3)
    b = kmeans(pts, 7, seed=3)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.inertia_history == b.inertia_history


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 60),
    d=st.integers(1, 6),
    k=st.integers(1, 8),
    offset=st.sampled_from([0.0, 1e4]),
    duplicated=st.booleans(),
)
@settings(max_examples=60, deadline=None)
# near-ties that the matrix-product distances alone can assign differently
@example(seed=1591, n=60, d=2, k=7, offset=0.0, duplicated=True)
@example(seed=1059, n=39, d=3, k=5, offset=1e4, duplicated=True)
def test_kmeans_invariants(seed, n, d, k, offset, duplicated):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    if duplicated:
        # integer lattice: exactly repeated rows, and points equidistant
        # from two centroids; k stays within the distinct rows
        pts = np.round(pts)
        k = min(k, len(np.unique(pts, axis=0)))
    # a large common offset costs ‖x‖² − 2x·c + ‖c‖² most of its precision
    pts += offset
    model = kmeans(pts, k, seed=seed)
    # the assignment is a fixpoint of the final centroids
    d2 = ((pts[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(model.assignment, d2.argmin(axis=1))
    # inertia never increases between Lloyd iterations
    hist = np.array(model.inertia_history)
    assert (np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1])).all()
    assert model.inertia == hist[-1]
    # no cluster is left empty
    assert set(model.assignment.tolist()) == set(range(k))
    assert np.bincount(model.assignment, minlength=k).min() >= 1


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 80),
    d=st.integers(1, 8),
    k=st.integers(1, 12),
    offset=st.sampled_from([0.0, 1e4]),
    scale=st.sampled_from([1.0, 1e-6]),
    duplicated=st.booleans(),
    max_iters=st.sampled_from([1, 2, 12, 100]),
)
@settings(max_examples=80, deadline=None)
# eight clusters over four distinct lattice rows: four emptied clusters re-seeded
@example(seed=0, n=30, d=1, k=8, offset=0.0, scale=1.0, duplicated=True, max_iters=100)
# a tiny spread under a large offset: the matrix-vector estimates round far
# apart from the exact d², so the seeding filter must fall back to it
@example(seed=7, n=80, d=5, k=6, offset=1e4, scale=1e-6, duplicated=False, max_iters=12)
# clusters of a few hundred rows: centroid means need the stable member order
@example(seed=11, n=400, d=3, k=3, offset=0.0, scale=1.0, duplicated=False, max_iters=2)
def test_kmeans_matches_oracle_bit_for_bit(seed, n, d, k, offset, scale, duplicated, max_iters):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    if duplicated:
        # exactly repeated rows and points equidistant from two centroids
        pts = np.round(pts)
    pts = pts * scale + offset
    model = kmeans(pts, k, seed=seed, max_iters=max_iters)
    centroids, assignment, history, reseeds = oracle_kmeans(pts, k, seed, max_iters)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.assignment.tobytes() == assignment.tobytes()
    assert np.array(model.inertia_history).tobytes() == np.array(history).tobytes()
    assert model.inertia == history[-1]
    assert model.reseeds == reseeds


def _assert_kmeans_matches_oracle(pts, k, seed, max_iters):
    model = kmeans(pts, k, seed=seed, max_iters=max_iters)
    centroids, assignment, history, reseeds = oracle_kmeans(pts, k, seed, max_iters)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.assignment.tobytes() == assignment.tobytes()
    assert np.array(model.inertia_history).tobytes() == np.array(history).tobytes()
    assert model.inertia == history[-1]
    assert model.reseeds == reseeds
    return model


def _spy_on_moved_centroid_assignments(monkeypatch):
    """Per ``_assign`` call: None when every row is ranked against every
    centroid; otherwise the set of exact nearest-centroid ties between a
    moved and an unmoved centroid, on rows of unmoved clusters, named by
    which of the two has the lower index."""
    calls = []
    assign = dedup._assign

    def spy(features, centroids, x_sq, prev, moved, prev_d2, work):
        if moved is None or not moved.any() or 2 * moved.sum() > len(moved):
            calls.append(None)
        else:
            d2 = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            at_min = d2 == d2.min(axis=1)[:, None]
            calls.append({
                "moved" if np.flatnonzero(at_min[i] & moved)[0] < np.flatnonzero(at_min[i] & ~moved)[0]
                else "unmoved"
                for i in np.flatnonzero(~moved[prev])
                if (at_min[i] & moved).any() and (at_min[i] & ~moved).any()
            })
        return assign(features, centroids, x_sq, prev, moved, prev_d2, work)

    monkeypatch.setattr(dedup, "_assign", spy)
    return calls


def test_kmeans_pinned_only_some_centroids_move(monkeypatch):
    calls = _spy_on_moved_centroid_assignments(monkeypatch)
    _assert_kmeans_matches_oracle(np.random.default_rng(7).normal(size=(18, 3)), 8, 7, 5)
    assert any(call is not None for call in calls)


@pytest.mark.parametrize("seed,n,d,k,lower", [(645, 33, 2, 9, "moved"), (16, 28, 1, 4, "unmoved")])
def test_kmeans_pinned_tie_between_moved_and_unmoved_takes_lower_index(monkeypatch, seed, n, d, k, lower):
    calls = _spy_on_moved_centroid_assignments(monkeypatch)
    pts = np.round(np.random.default_rng(seed).normal(size=(n, d)) * 2)
    _assert_kmeans_matches_oracle(pts, k, seed, 100)
    assert any(lower in call for call in calls if call)


def test_kmeans_pinned_reseed_then_few_centroids_move(monkeypatch):
    calls = _spy_on_moved_centroid_assignments(monkeypatch)
    pts = np.round(np.random.default_rng(6).normal(size=(33, 1)))
    model = _assert_kmeans_matches_oracle(pts, 10, 6, 5)
    assert model.reseeds > 0 and calls[-1] is not None


def test_kmeans_pinned_iteration_cap_reanchors_few_moved(monkeypatch):
    calls = _spy_on_moved_centroid_assignments(monkeypatch)
    pts = np.round(np.random.default_rng(25).normal(size=(44, 2)))
    model = _assert_kmeans_matches_oracle(pts, 6, 25, 5)
    # five Lloyd iterations, then the re-anchor to the final centroids
    assert len(model.inertia_history) == 6 and calls[-1] is not None


# --- similarity ------------------------------------------------------------------------


def test_similarity_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    feats = random_unit_rows(rng, 40, 6)
    assignment = rng.integers(0, 4, size=40)
    model = ClusterModel(
        k=4, centroids=np.zeros((4, 6)), assignment=assignment, inertia=0.0
    )
    got = similarity_scores(model, feats)
    want = oracle_similarity(assignment, feats)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_similarity_memory_grows_with_cluster_size_not_its_square():
    # one 3000-member cluster: its full Gram matrix alone would take 72 MB
    feats = random_unit_rows(np.random.default_rng(10), 3000, 16)
    model = ClusterModel(
        k=1, centroids=np.zeros((1, 16)), assignment=np.zeros(3000, dtype=np.int64), inertia=0.0
    )
    tracemalloc.start()
    try:
        similarity_scores(model, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_similarity_singleton_sentinel():
    feats = np.eye(3)
    model = ClusterModel(
        k=2, centroids=np.zeros((2, 3)),
        assignment=np.array([0, 0, 1]), inertia=0.0,
    )
    scores = similarity_scores(model, feats)
    assert scores[2] == -2.0
    assert scores[0] == pytest.approx(0.0)


def test_similarity_identical_rows_score_one():
    feats = np.tile(np.array([[0.6, 0.8]]), (3, 1))
    model = ClusterModel(
        k=1, centroids=feats[:1], assignment=np.zeros(3, dtype=np.int64), inertia=0.0
    )
    np.testing.assert_allclose(similarity_scores(model, feats), 1.0, atol=1e-12)


def test_similarity_threads_agree():
    # the stage runs on one thread; two calls must agree bit for bit
    rng = np.random.default_rng(8)
    feats = random_unit_rows(rng, 60, 5)
    assignment = rng.integers(0, 5, size=60)
    model = ClusterModel(
        k=5, centroids=np.zeros((5, 5)), assignment=assignment, inertia=0.0
    )
    assert similarity_scores(model, feats).tobytes() == similarity_scores(model, feats).tobytes()


@given(
    seed=st.integers(0, 2**16), n=st.integers(1, 30), k=st.integers(1, 5),
    block_elems=st.sampled_from([1, 64, 1 << 18]),
)
@settings(max_examples=40, deadline=None)
def test_similarity_oracle_property(seed, n, k, block_elems):
    rng = np.random.default_rng(seed)
    feats = random_unit_rows(rng, n, 4)
    assignment = rng.integers(0, k, size=n)
    model = ClusterModel(k=k, centroids=np.zeros((k, 4)), assignment=assignment, inertia=0.0)
    # Gram blocks of one row, of a few rows, and of whole clusters
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dedup, "_ASSIGN_BLOCK_ELEMS", block_elems)
        got = similarity_scores(model, feats)
    np.testing.assert_allclose(got, oracle_similarity(assignment, feats), atol=1e-12)


# --- duplicate masking -------------------------------------------------------------------


def _curve_dataset(traj_ids):
    """A dataset with one 20-frame chunk per entry of ``traj_ids`` on that
    trajectory, plus a 5-frame tail. Trajectories are listed in reverse id
    order, so list order and id order differ once there are two."""
    rng = np.random.default_rng(0)
    names = sorted(set(traj_ids), reverse=True)
    trajs = [make_trajectory(rng, tid, n=20 * traj_ids.count(tid) + 5, fps=10.0) for tid in names]
    return Dataset(trajectories=trajs, obs_dim=6, action_dim=3)


def _cluster_fixture(features, assignment, k, traj_ids=None):
    """(dataset, chunks, features, model, scores) for one chunk per row of
    ``features``, all on "t0" unless ``traj_ids`` names each row's
    trajectory. The chunks come from ``chunk_dataset`` (2 s at 10 fps, so 20
    frames), and rows are reordered with them: by trajectory in dataset
    order, then in their given order."""
    traj_ids = list(traj_ids or ["t0"] * len(features))
    ds = _curve_dataset(traj_ids)
    position = {t.id: i for i, t in enumerate(ds.trajectories)}
    rows = sorted(range(len(traj_ids)), key=lambda i: position[traj_ids[i]])
    features, assignment = features[rows], assignment[rows]
    chunks = chunk_dataset(ds, DedupConfig())
    assert len(chunks) == len(features)
    centroids = np.stack([
        features[assignment == c].mean(axis=0) if (assignment == c).any() else np.zeros(features.shape[1])
        for c in range(k)
    ])
    model = ClusterModel(k=k, centroids=centroids, assignment=assignment, inertia=0.0)
    scores = similarity_scores(model, features)
    return ds, chunks, features, model, scores


def test_keep_one_drops_all_but_one_twin():
    base = np.array([0.6, 0.8, 0.0])
    feats = np.stack([base, base, base, [0.0, 0.0, 1.0]])
    assignment = np.zeros(4, dtype=np.int64)
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, k=1)
    chunk_drop, frame_drop = duplicate_mask(ds, chunks, scores, feats, model, epsilon_d=0.99)
    assert chunk_drop.sum() == 2
    # the orthogonal chunk is never dropped
    assert not chunk_drop[3]
    # dropped chunks blank exactly their frame spans; the 5-frame tail stays
    expected = np.zeros(85, bool)
    for i in np.flatnonzero(chunk_drop):
        expected[20 * i : 20 * i + 20] = True
    assert len(frame_drop) == 1
    np.testing.assert_array_equal(frame_drop[0], expected)


def test_keep_one_strict_threshold():
    feats = np.eye(2)  # cosine exactly 0 between the two chunks
    ds, chunks, feats, model, scores = _cluster_fixture(feats, np.zeros(2, dtype=np.int64), k=1)
    chunk_drop, _ = duplicate_mask(ds, chunks, scores, feats, model, epsilon_d=0.0)
    assert not chunk_drop.any()  # ties at the threshold survive


def test_drop_all_mode_is_score_threshold():
    rng = np.random.default_rng(9)
    feats = random_unit_rows(rng, 12, 4)
    assignment = rng.integers(0, 3, size=12)
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, k=3)
    eps = float(np.median(scores[scores > -1.5]))
    chunk_drop, _ = duplicate_mask(ds, chunks, scores, feats, model, eps, drop_all_over_threshold=True)
    np.testing.assert_array_equal(chunk_drop, scores > eps)


@given(seed=st.integers(0, 2**16), n=st.integers(2, 40), eps=st.floats(-1.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_keep_one_is_subset_of_drop_all(seed, n, eps):
    rng = np.random.default_rng(seed)
    feats = random_unit_rows(rng, n, 3)
    k = max(1, n // 8)
    assignment = rng.integers(0, k, size=n)
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, k=k)
    keep_one, _ = duplicate_mask(ds, chunks, scores, feats, model, eps)
    drop_all, _ = duplicate_mask(ds, chunks, scores, feats, model, eps, drop_all_over_threshold=True)
    # a chunk dropped by keep-one matched a kept neighbor above eps, so its
    # own best-in-cluster similarity exceeds eps too
    assert not (keep_one & ~drop_all).any()


@given(
    seed=st.integers(0, 2**16),
    eps_a=st.floats(-1.0, 1.0),
    eps_b=st.floats(-1.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_drop_all_monotone_in_threshold(seed, eps_a, eps_b):
    lo, hi = sorted([eps_a, eps_b])
    rng = np.random.default_rng(seed)
    feats = random_unit_rows(rng, 24, 3)
    assignment = rng.integers(0, 3, size=24)
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, k=3)
    drop_hi, _ = duplicate_mask(ds, chunks, scores, feats, model, hi, True)
    drop_lo, _ = duplicate_mask(ds, chunks, scores, feats, model, lo, True)
    assert not (drop_hi & ~drop_lo).any()


def _assert_matches_oracles(ds, chunks, scores, feats, model, thresholds):
    for t in thresholds:
        chunk_drop, _ = duplicate_mask(ds, chunks, scores, feats, model, float(t))
        np.testing.assert_array_equal(chunk_drop, oracle_keep_one(ds, chunks, feats, model, float(t)))
    clustered = (chunks, feats, model, scores)
    curve = dedup_ratio_curve(ds, DedupConfig(), thresholds, clustered)
    assert curve.points == oracle_ratio_curve(
        ds, chunks, thresholds, lambda t: oracle_keep_one(ds, chunks, feats, model, t)
    )
    curve = dedup_ratio_curve(ds, DedupConfig(drop_all_over_threshold=True), thresholds, clustered)
    assert curve.points == oracle_ratio_curve(ds, chunks, thresholds, lambda t: scores > t)


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    copies=st.integers(0, 12),
    k=st.integers(1, 4),
    d=st.sampled_from([3, 8, 40]),
    per_kind=st.integers(1, 6),
    block_elems=st.sampled_from([1, 64, 1 << 18]),
)
@settings(max_examples=60, deadline=None)
def test_keep_one_replay_matches_per_threshold_oracle(seed, n, copies, k, d, per_kind, block_elems):
    rng = np.random.default_rng(seed)
    feats = random_unit_rows(rng, n, d)
    # exact copies tie on centroid distance and match each other at cosine 1
    feats = np.concatenate([feats, feats[rng.integers(0, n, size=copies)]])
    assignment = rng.integers(0, k, size=len(feats))
    # ids whose string order is not their numeric order, on a dataset that
    # lists them t2, t10, t1: not in id order either
    traj_ids = rng.choice(["t2", "t10", "t1"], size=len(feats)).tolist()
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, k, traj_ids)
    # thresholds on Gram entries bit for bit, on the scores, and anywhere
    thresholds = np.concatenate([
        rng.choice((feats @ feats.T).ravel(), per_kind),
        rng.choice(scores, per_kind),
        rng.uniform(-1.0, 1.0, per_kind),
    ])
    # Gram blocks of one row, of a few rows, and of whole clusters
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dedup, "_ASSIGN_BLOCK_ELEMS", block_elems)
        _assert_matches_oracles(ds, chunks, scores, feats, model, thresholds)


@pytest.mark.parametrize("seed", [1, 5])
def test_keep_one_replay_exact_where_gemm_and_gemv_round_apart(seed):
    """Two 8-d chunks whose cosine a (1, 8) × (8, 2) product rounds one ulp
    below (seed 1) or two ulps above (seed 5) the per-chunk product, as
    measured with OpenBLAS: with thresholds on the cosines and a few ulps
    around them, a replay that trusted the Gram entries flips a decision."""
    rng = np.random.default_rng(seed)
    feats = random_unit_rows(rng, 2, 8)
    ds, chunks, feats, model, scores = _cluster_fixture(feats, np.zeros(2, dtype=np.int64), k=1)
    cosines = [(feats[0] @ feats[[1]].T)[0], (feats[1] @ feats[[0]].T)[0], *scores]
    thresholds = np.unique([c + ulps * np.spacing(c) for c in cosines for ulps in range(-4, 5)])
    _assert_matches_oracles(ds, chunks, scores, feats, model, thresholds)


def test_keep_one_replay_pinned_cluster_beyond_gram_budget():
    """A 40-member cluster next to small ones, with a budget that fits no
    40 × 40 Gram matrix: that cluster is taken alone in row blocks."""
    rng = np.random.default_rng(3)
    base = random_unit_rows(rng, 10, 6)
    # near copies: many cosines close to each other and to 1
    feats = base[rng.integers(0, 10, size=52)] + 1e-3 * rng.normal(size=(52, 6))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    assignment = np.concatenate([np.zeros(40, dtype=np.int64), rng.integers(1, 4, size=12)])
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, 4)
    thresholds = np.concatenate([np.quantile(scores, np.linspace(0, 1, 9)), [0.999, 0.9999]])
    for block_elems in (64, 40 * 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dedup, "_ASSIGN_BLOCK_ELEMS", block_elems)
            _assert_matches_oracles(ds, chunks, scores, feats, model, thresholds)


def test_keep_one_replay_pinned_mixed_sizes_in_one_group():
    """Clusters of 17, 9, 4 and 2 members share one padded Gram block."""
    rng = np.random.default_rng(4)
    feats = random_unit_rows(rng, 32, 4)
    assignment = rng.permutation(np.repeat(np.arange(4), [17, 9, 4, 2]))
    largest = np.flatnonzero(assignment == 0)
    feats[largest[1:5]] = feats[largest[0]]  # exact copies
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, 4)
    thresholds = np.concatenate([rng.choice(scores, 6), [-1.0, 0.0, 1.0]])
    _assert_matches_oracles(ds, chunks, scores, feats, model, thresholds)


def test_keep_one_replay_pinned_single_threshold():
    rng = np.random.default_rng(5)
    feats = random_unit_rows(rng, 30, 3)
    feats[10:15] = feats[0]
    ds, chunks, feats, model, scores = _cluster_fixture(feats, rng.integers(0, 3, size=30), 3)
    for t in (float(np.median(scores)), 0.99, scores.max()):
        _assert_matches_oracles(ds, chunks, scores, feats, model, np.array([t]))


def test_keep_one_replay_pinned_ties_in_visiting_order():
    """Exact copies on trajectories listed t2, t10, t1, so their ids sort
    apart from the dataset's order: equal centroid distances, so
    (traj_id, start) decides the visit."""
    rng = np.random.default_rng(6)
    base = random_unit_rows(rng, 3, 5)
    feats = base[[0, 1, 0, 2, 0, 1, 0, 2, 1, 0]]
    traj_ids = ["t10", "t2", "t1", "t10", "t2", "t1", "t10", "t2", "t1", "t2"]
    ds, chunks, feats, model, scores = _cluster_fixture(feats, np.zeros(10, dtype=np.int64), 1, traj_ids)
    cosines = np.unique(feats @ feats.T)
    thresholds = np.unique(np.concatenate([cosines, np.nextafter(cosines, -2.0), [-1.0]]))
    _assert_matches_oracles(ds, chunks, scores, feats, model, thresholds)


def test_dedup_dataset_breaks_ties_by_id_not_list_order():
    """Exact-copy chunks across trajectories listed t2, t10, t1: copies tie
    on their centroid distance, so the copy on the trajectory first in id
    order (t1, listed last) is the one kept, as ``oracle_keep_one`` says."""
    rng = np.random.default_rng(21)
    ds = Dataset(
        trajectories=[make_trajectory(rng, tid, n=65, fps=10.0) for tid in ("t2", "t10", "t1")],
        obs_dim=6,
        action_dim=3,
    )
    t2, t10, t1 = ds.trajectories
    for target, a, source, b in ((t2, 20, t1, 40), (t10, 0, t1, 40), (t10, 40, t1, 0)):
        target.obs[a : a + 20] = source.obs[b : b + 20]
        target.actions[a : a + 20] = source.actions[b : b + 20]
    cfg = DedupConfig(k=1)
    mask, _ = dedup_dataset(ds, cfg)
    chunks, feats, model, _ = cluster_dataset(ds, cfg)
    want = oracle_keep_one(ds, chunks, feats, model, cfg.epsilon_d)
    dropped = {(ds.trajectories[chunks.traj[j]].id, int(chunks.start[j])) for j in np.flatnonzero(want)}
    assert dropped == {("t2", 20), ("t10", 0), ("t10", 40)}
    for j in range(len(chunks)):
        frames = slice(chunks.start[j], chunks.start[j] + chunks.span[j])
        assert (mask[ds.trajectories[chunks.traj[j]].id].keep[frames] == (not want[j])).all()
    assert all(m.keep[60:].all() for m in mask.masks.values())  # the unchunked tails


def test_keep_one_always_keeps_a_representative():
    rng = np.random.default_rng(10)
    feats = random_unit_rows(rng, 30, 4)
    assignment = rng.integers(0, 3, size=30)
    ds, chunks, feats, model, scores = _cluster_fixture(feats, assignment, k=3)
    chunk_drop, _ = duplicate_mask(ds, chunks, scores, feats, model, -1.0)
    # even at an impossible threshold every cluster keeps >= 1 chunk
    for c in range(3):
        members = assignment == c
        if members.any():
            assert (~chunk_drop[members]).any()


# --- dataset-level pipeline ----------------------------------------------------------------


def test_dedup_dataset_sentinels_and_report():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng, num_traj=3, n=45, fps=10.0)  # 2 chunks + 5-frame tail
    mask, report = dedup_dataset(ds, DedupConfig(k=2))
    for traj in ds.trajectories:
        m = mask[traj.id]
        # tail frames carry the unchunked sentinel
        assert (m.dup_similarity[40:] == -1.0).all()
        assert (m.dup_similarity[:40] >= -2.0).all()
    assert report["format_version"] == 1
    assert report["num_chunks"] == 6
    assert report["k"] == 2
    assert sum(c for _, c in report["cluster_size_histogram"]) == 2
    assert sum(report["similarity_histogram"]["counts"]) == 6 - report["num_singletons"]
    assert report["deletion_ratio"] == mask.deletion_ratio()


def test_dedup_dataset_drops_planted_twin():
    rng = np.random.default_rng(12)
    ds = make_dataset(rng, num_traj=4, n=40, fps=10.0)
    # make trajectory 3 an exact copy of trajectory 0
    ds.trajectories[3].obs = ds.trajectories[0].obs.copy()
    ds.trajectories[3].actions = ds.trajectories[0].actions.copy()
    mask, _ = dedup_dataset(ds, DedupConfig(k=2))
    pair_drops = [
        mask["t000"].keep[:40].all(),
        mask["t003"].keep[:40].all(),
    ]
    # exactly one of the two copies survives
    assert sorted(pair_drops) == [False, True]
    # untouched trajectories survive
    assert mask["t001"].keep.all() and mask["t002"].keep.all()


def test_cluster_dataset_precomputed_embeddings():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng, num_traj=2, n=40, fps=10.0)
    pre = rng.normal(size=(4, 5)) * 3.0
    chunks, feats, model, scores = cluster_dataset(ds, DedupConfig(k=1), precomputed=pre)
    assert len(chunks) == 4
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(feats, pre / np.linalg.norm(pre, axis=1, keepdims=True), rtol=1e-12)
    with pytest.raises(DimensionMismatch):
        cluster_dataset(ds, DedupConfig(k=1), precomputed=rng.normal(size=(5, 4)))


def test_dedup_threads_agree():
    # dedup runs on one thread; two calls must agree bit for bit
    rng = np.random.default_rng(14)
    ds = make_dataset(rng, num_traj=5, n=60, fps=10.0)
    cfg = DedupConfig(k=3)
    mask1, rep1 = dedup_dataset(ds, cfg)
    mask2, rep2 = dedup_dataset(ds, cfg)
    assert rep1 == rep2
    for tid in mask1.masks:
        np.testing.assert_array_equal(mask1[tid].keep, mask2[tid].keep)
        assert mask1[tid].dup_similarity.tobytes() == mask2[tid].dup_similarity.tobytes()


# --- packed embedding file -------------------------------------------------------------------


def test_chunk_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    emb = rng.normal(size=(7, 12)).astype(np.float32)
    path = tmp_path / "chunk_embeddings.bin"
    save_chunk_embeddings(path, emb)
    back = load_chunk_embeddings(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back.astype(np.float32), emb)
    raw = path.read_bytes()
    assert raw[:4] == b"CEMB"
    assert len(raw) == 12 + 7 * 12 * 4


def test_chunk_embeddings_errors(tmp_path):
    with pytest.raises(IoFailure):
        load_chunk_embeddings(tmp_path / "missing.bin")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IoFailure):
        load_chunk_embeddings(bad)
    good = tmp_path / "trunc.bin"
    save_chunk_embeddings(good, np.zeros((3, 4), dtype=np.float32))
    good.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(IoFailure):
        load_chunk_embeddings(good)
    with pytest.raises(DimensionMismatch):
        save_chunk_embeddings(tmp_path / "x.bin", np.zeros(5))
    for value in (np.nan, np.inf, -np.inf):
        emb = np.zeros((3, 4), dtype=np.float32)
        emb[2, 1] = value
        save_chunk_embeddings(good, emb)
        with pytest.raises(NonFiniteValue, match="chunk 2 contains NaN/Inf"):
            load_chunk_embeddings(good)
