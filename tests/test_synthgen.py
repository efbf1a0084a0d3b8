"""Synthetic benchmark generator and its ground-truth evaluation helpers."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate import synthgen
from trajcurate.errors import MaskShapeMismatch
from trajcurate.synthgen import (
    ANOMALY_TYPES,
    GroundTruth,
    SynthConfig,
    auroc,
    evaluate_masks,
    generate,
    separation_self_check,
)
from trajcurate.trajstore import Dataset, Trajectory, load_dataset, save_dataset, seconds_to_frames, write_json

from conftest import frame_tags, make_mask


SMALL = SynthConfig(
    num_traj=24,
    frames_per_traj=200,
    obs_dim=24,
    anomaly_rates={t: 0.125 for t in ANOMALY_TYPES},
    duplicate_rate=0.05,
    seed=3,
)


@pytest.fixture(scope="module")
def small_benchmark(tmp_path_factory):
    return generate(SMALL, tmp_path_factory.mktemp("small_benchmark"))


@pytest.fixture(scope="module")
def small_phi():
    """The small benchmark's φ by trajectory id, from the oracle, whose blobs and
    ground truth generate's equal byte for byte."""
    return oracle_generate(SMALL)[2]


def kind_of(gt, tid):
    segs = gt.anomaly_segments[tid]
    return segs[0][2] if segs else "clean"


def _traj(ds, tid):
    return next(t for t in ds.trajectories if t.id == tid)


def oracle_generate(cfg, copies=None):
    """The specification of ``generate``, in memory: every trajectory built whole,
    then each planted group copied in group order into the built frames. Returns the
    dataset, its ground truth and each trajectory's task phase φ, which a planted copy
    takes from its source. ``copies``, when given, collects each group's (source,
    destination) trajectory index."""
    n, fps = cfg.frames_per_traj, cfg.fps
    w = seconds_to_frames(cfg.chunk_seconds, fps)
    latent_dim = 4 + cfg.context_dim
    proj = np.random.default_rng([cfg.seed, synthgen._PROJ_STREAM]).normal(
        size=(cfg.obs_dim, latent_dim)
    )
    if cfg.obs_dim >= latent_dim:
        # Orthonormal columns: the lift preserves latent angles and norms
        # exactly, so similarity structure survives the embedding.
        proj = np.linalg.qr(proj)[0]
    else:
        proj /= np.sqrt(latent_dim)
    global_rng = np.random.default_rng([cfg.seed, synthgen._GLOBAL_STREAM])

    counts = {t: int(round(cfg.anomaly_rates.get(t, 0.0) * cfg.num_traj)) for t in ANOMALY_TYPES}
    order = global_rng.permutation(cfg.num_traj)
    kind_of = {}
    cursor = 0
    for t in ANOMALY_TYPES:
        for i in order[cursor : cursor + counts[t]]:
            kind_of[int(i)] = t
        cursor += counts[t]

    trajectories: list[Trajectory] = []
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
        context = rng.uniform(-0.65, 0.65, cfg.context_dim)  # appearance: half-width 0.65

        deltas = np.full(n - 1, 1.0 / (n - 1))
        kind = kind_of.get(i)
        seg = (0, 0)
        if kind:
            deltas, seg = synthgen._anomaly_increments(deltas, kind, n, fps, rng)
        phi = np.concatenate([[0.0], np.cumsum(deltas)])

        pos = synthgen._path_position(phi, start, goal, amp, cycles, phase0)
        theta = 2.0 * np.pi * 0.8 * (phi - 0.5)  # the arc sweeps 0.8 of a circle
        arc = cfg.phase_gain * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        latent = np.concatenate([pos, arc, np.tile(context, (n, 1))], axis=1)
        obs = latent @ proj.T + cfg.noise_sigma * rng.normal(size=(n, cfg.obs_dim))

        actions = np.zeros((n, cfg.action_dim))
        disp = np.diff(pos, axis=0)
        actions[:-1, : min(2, cfg.action_dim)] = disp[:, : min(2, cfg.action_dim)]

        segments[tid] = [(seg[0], seg[1], kind)] if kind and seg[1] > seg[0] else []
        phi_by_id[tid] = phi
        trajectories.append(
            Trajectory(id=tid, fps=fps, obs=obs.astype(np.float32), actions=actions.astype(np.float32))
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
            if copies is not None:
                copies.append((src_idx, dst_idx))
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
        frame_counts={t.id: t.num_frames for t in trajectories},
        chunk_groups=chunk_groups,
        chunk_span=w,
        anomaly_segments=segments,
    )
    return ds, gt, phi_by_id


def oracle_auroc(scores, labels):
    """Pair-counting Mann-Whitney estimate, ties at half credit."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    if not pos or not neg:
        return float("nan")
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


# --- config -------------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"num_traj": 0},
    {"frames_per_traj": 1},
    {"fps": 0.0},
    {"obs_dim": 0},
    {"action_dim": 0},
    {"noise_sigma": -0.1},
    {"chunk_seconds": 0.0},
    {"duplicate_rate": 1.5},
    {"anomaly_rates": {"pause": -0.1}},
    {"anomaly_rates": {"teleport": 0.1}},
    {"anomaly_rates": {t: 0.3 for t in ANOMALY_TYPES}},  # sums to 1.2
    {"phase_gain": 0.0},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SynthConfig(**kw)


def test_default_config_is_clean():
    cfg = SynthConfig()
    assert all(v == 0.0 for v in cfg.anomaly_rates.values())
    assert cfg.duplicate_rate == 0.05


# --- determinism and shape ---------------------------------------------------------


def test_generate_deterministic(tmp_path):
    ds1, gt1 = generate(SMALL, tmp_path / "a")
    ds2, gt2 = generate(SMALL, tmp_path / "b")
    for a, b in zip(ds1.trajectories, ds2.trajectories):
        assert a.id == b.id
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)
    assert gt1.to_dict() == gt2.to_dict()


def test_generate_seed_changes_data(tmp_path):
    ds1, _ = generate(SMALL, tmp_path / "a")
    ds2, _ = generate(SynthConfig(**{**SMALL.__dict__, "seed": 4}), tmp_path / "b")
    assert not np.array_equal(ds1.trajectories[0].obs, ds2.trajectories[0].obs)


# anomalies, a chunk grid with a tail, obs_dim below the latent's 20 dims, and a third of
# the chunks planted: from earlier, later and the same trajectory
PLANTED_BOTH_WAYS = SynthConfig(num_traj=30, frames_per_traj=150, obs_dim=12, action_dim=3,
                                anomaly_rates={"pause": 0.1, "failure_retry": 0.1}, duplicate_rate=0.3, seed=5)


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cfg", [SMALL, PLANTED_BOTH_WAYS], ids=["small", "planted_both_ways"])
def test_generate_writes_the_in_memory_specification_saved(cfg, tmp_path):
    """generate builds and writes one trajectory at a time. A copy whose source comes
    later is planted once every blob is written: the destination's blob is read, patched
    and written again, and then the manifest is written again. Its blobs, manifest and
    ground truth equal the saved in-memory specification's byte for byte, and the dataset
    it returns reads the container it wrote."""
    copies = []
    want_ds, want_gt, _ = oracle_generate(cfg, copies)
    assert {(src > dst) - (src < dst) for src, dst in copies} == {-1, 0, 1}
    save_dataset(want_ds, tmp_path / "want")
    ds, gt = generate(cfg, tmp_path / "got")
    for root, truth in ((tmp_path / "want", want_gt), (tmp_path / "got", gt)):
        write_json(root / "ground_truth.json", truth.to_dict())
    assert _files(tmp_path / "got") == _files(tmp_path / "want")
    loaded = load_dataset(tmp_path / "got")
    assert [(t.id, t.fps, t.num_frames, t.path, t.crc32) for t in ds.trajectories] == [
        (t.id, t.fps, t.num_frames, t.path, t.crc32) for t in loaded.trajectories]
    assert (ds.obs_dim, ds.action_dim, ds.meta) == (loaded.obs_dim, loaded.action_dim, loaded.meta)


def test_generate_memory_is_one_trajectory_plus_the_planted_share(tmp_path):
    """generate holds no dataset of frames: its traced peak is one trajectory's float64
    work arrays, the planted copies waiting for their destination, the planted noise
    and a few entries a trajectory, below the float32 frames it writes."""
    cfg = dataclasses.replace(SMALL, num_traj=80)
    generate(cfg, tmp_path / "warm")  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        ds, gt = generate(cfg, tmp_path / "data")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, d, a, w = cfg.frames_per_traj, cfg.obs_dim, cfg.action_dim, gt.chunk_span
    groups = len(gt.groups())
    frames = len(ds) * n * (d + a) * 4
    # the latent, its lift, the noise draw, their sum and a few n-vectors
    one_traj = 6 * n * max(d, 4 + cfg.context_dim) * 8
    planted = groups * w * 4 * (d + a)  # a copy's obs and actions
    noise = groups * w * d * 8
    assert groups == 40 and frames > 1.6e6
    assert peak <= one_traj + planted + noise + 2048 * len(ds) < frames


def test_generate_shapes(small_benchmark):
    ds, gt = small_benchmark
    assert len(ds) == 24
    assert ds.obs_dim == 24 and ds.action_dim == 2
    for traj in ds.trajectories:
        assert traj.num_frames == 200
        assert traj.fps == 10.0
        assert traj.obs.dtype == np.float32
    assert gt.frame_counts == {traj.id: traj.num_frames for traj in ds.trajectories}
    assert gt.chunk_span == 20
    assert all(len(g) == 10 for g in gt.chunk_groups.values())


def test_anomaly_counts_match_rates(small_benchmark):
    _, gt = small_benchmark
    by_kind = {}
    for tid in gt.frame_counts:
        k = kind_of(gt, tid)
        by_kind[k] = by_kind.get(k, 0) + 1
    # 12.5% of 24 = 3 per type
    assert all(by_kind[t] == 3 for t in ANOMALY_TYPES)
    assert by_kind["clean"] == 12


# --- phase semantics -----------------------------------------------------------------


def _segments_by_kind(gt):
    out = {t: [] for t in ANOMALY_TYPES}
    for tid, segs in gt.anomaly_segments.items():
        for a, b, kind in segs:
            out[kind].append((tid, a, b))
    return out


def test_clean_phase_strictly_increasing(small_benchmark, small_phi):
    # planted chunks rewrite φ over their span (the content really is the
    # source's moment), so end-to-end strictness holds for clean
    # trajectories that carry no planted chunk
    ds, gt = small_benchmark
    unplanted = 0
    for traj in ds.trajectories:
        if kind_of(gt, traj.id) != "clean" or any(gt.chunk_groups[traj.id]):
            continue
        unplanted += 1
        phi = small_phi[traj.id]
        assert phi[0] == 0.0
        assert phi[-1] == pytest.approx(1.0, abs=1e-9)
        assert (np.diff(phi) > 0).all()
    assert unplanted > 0


def test_clean_phase_strictly_increasing_outside_planted_spans(small_benchmark, small_phi):
    ds, gt = small_benchmark
    w = gt.chunk_span
    for traj in ds.trajectories:
        if kind_of(gt, traj.id) != "clean":
            continue
        phi = small_phi[traj.id]
        planted = np.zeros(traj.num_frames, bool)
        for c, gid in enumerate(gt.chunk_groups[traj.id]):
            if gid:
                planted[c * w : (c + 1) * w] = True
        # a diff is untouched when neither endpoint is inside a planted span
        diffs = np.diff(phi)
        clean_diff = ~planted[:-1] & ~planted[1:]
        assert (diffs[clean_diff] > 0).all()


def test_tags_cover_exactly_the_segments(small_benchmark):
    _, gt = small_benchmark
    for tid, tags in frame_tags(gt).items():
        expected = ["clean"] * len(tags)
        for a, b, kind in gt.anomaly_segments[tid]:
            assert 0 <= a < b <= len(tags)
            for f in range(a, b):
                expected[f] = kind
        assert tags == expected


def test_pause_freezes_phase_and_actions(small_benchmark, small_phi):
    ds, gt = small_benchmark
    segs = _segments_by_kind(gt)["pause"]
    assert segs
    for tid, a, b in segs:
        phi = small_phi[tid]
        np.testing.assert_array_equal(phi[a:b], phi[a])
        # frozen φ means frozen position, so the planted actions are zero
        actions = _traj(ds, tid).actions
        np.testing.assert_array_equal(actions[a : b - 1], 0.0)


def test_slow_halves_progress(small_benchmark, small_phi):
    _, gt = small_benchmark
    segs = _segments_by_kind(gt)["slow"]
    assert segs
    base = 1.0 / 199
    for tid, a, b in segs:
        phi = small_phi[tid]
        m = b - a - 1
        assert phi[b - 1] - phi[a] == pytest.approx(0.5 * m * base, rel=1e-9)


def test_back_and_forth_never_runs_ahead(small_benchmark, small_phi):
    _, gt = small_benchmark
    segs = _segments_by_kind(gt)["back_and_forth"]
    assert segs
    for tid, a, b in segs:
        phi = small_phi[tid]
        # zero net progress across the oscillation
        assert phi[b - 1] == pytest.approx(phi[a], abs=1e-12)
        # and it retreats first, so φ stays at or below its entry value
        assert phi[a:b].max() <= phi[a] + 1e-12
        assert phi[a:b].min() < phi[a]


def test_failure_retry_slides_back(small_benchmark, small_phi):
    _, gt = small_benchmark
    segs = _segments_by_kind(gt)["failure_retry"]
    assert segs
    for tid, a, b in segs:
        phi = small_phi[tid]
        # the tagged slip gives back 0.2 of φ ...
        assert phi[b - 1] - phi[a] == pytest.approx(-0.2, abs=1e-9)
        # ... without ever dipping below the task start
        assert phi.min() >= 0.0
        # recovery runs at base rate afterwards, so the retry costs progress
        assert phi[-1] < 1.0
        # slips are short: 0.5-1 s
        assert 0.5 * 10 <= b - a <= 10 + 1


def test_anomalous_phase_never_negative(small_phi):
    for phi in small_phi.values():
        assert phi.min() >= 0.0


# --- planted duplicates -----------------------------------------------------------


def test_duplicate_groups_are_clean_pairs(small_benchmark):
    ds, gt = small_benchmark
    groups = gt.groups()
    assert groups
    for members in groups.values():
        assert len(members) == 2
        for tid, start in members:
            assert kind_of(gt, tid) == "clean"
            assert start % gt.chunk_span == 0


def test_duplicate_content_copied(small_benchmark, small_phi):
    ds, gt = small_benchmark
    w = gt.chunk_span
    for members in gt.groups().values():
        (tid_a, a), (tid_b, b) = members
        traj_a, traj_b = _traj(ds, tid_a), _traj(ds, tid_b)
        obs_a = traj_a.obs[a : a + w].astype(np.float64).ravel()
        obs_b = traj_b.obs[b : b + w].astype(np.float64).ravel()
        cos = obs_a @ obs_b / (np.linalg.norm(obs_a) * np.linalg.norm(obs_b))
        assert cos > 0.999
        # actions are copied verbatim
        np.testing.assert_array_equal(
            traj_a.actions[a : a + w], traj_b.actions[b : b + w]
        )
        # and the target's ground-truth phase now mirrors the source's
        np.testing.assert_array_equal(
            small_phi[tid_a][a : a + w], small_phi[tid_b][b : b + w]
        )


def _dense_separation_check(ds, gt, phi_by_id):
    """Reference: the same extremes from full chunks × chunks matrices."""
    from trajcurate.dedup import DedupConfig, chunk_dataset, compute_features

    cfg = DedupConfig(chunk_seconds=gt.chunk_span / ds.trajectories[0].fps)
    chunks = chunk_dataset(ds, cfg)
    features, lam = compute_features(ds, chunks, cfg)
    gid_of = {}
    for tid, gids in gt.chunk_groups.items():
        for c, gid in enumerate(gids):
            gid_of[(tid, c * gt.chunk_span)] = gid
    tids = [ds.trajectories[i].id for i in chunks.traj]
    ids = np.array([gid_of.get((tid, start), 0) for tid, start in zip(tids, chunks.start.tolist())])

    sims = features @ features.T
    np.fill_diagonal(sims, -np.inf)
    same_group = (ids[:, None] == ids[None, :]) & (ids[:, None] > 0)
    np.fill_diagonal(same_group, False)
    planted_min = float(sims[same_group].min()) if same_group.any() else float("nan")
    others = np.where(same_group, -np.inf, sims)
    others_max = float(others.max())

    phases = []
    for tid, start, span in zip(tids, chunks.start, chunks.span):
        phi = phi_by_id.get(tid)
        mid = start + span // 2
        phases.append(phi[mid] if phi is not None else np.nan)
    phases = np.array(phases)
    far_phase = np.abs(phases[:, None] - phases[None, :]) > 0.3
    far_max = float(others[far_phase].max()) if far_phase.any() else float("nan")
    return {
        "action_weight": lam,
        "num_chunks": len(chunks),
        "planted_min_similarity": planted_min,
        "nonplanted_max_similarity": others_max,
        "distinct_phase_max_similarity": far_max,
        "group_sizes": np.unique(ids[ids > 0], return_counts=True)[1],
    }


def _assert_check_matches_dense(got, want):
    assert set(got) == {"action_weight", "num_chunks", "planted_min_similarity"}
    assert got["num_chunks"] == want["num_chunks"]
    # a stacked (groups, s, d) product may round differently from the full one
    for key in ("action_weight", "planted_min_similarity"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12, nan_ok=True)


def test_planted_geometry(small_benchmark, small_phi):
    """The generator's promise, read off the dense oracle: planted twins sit
    above the 0.99 decision threshold, every other chunk pair below it, and
    chunks of distant phases far below."""
    check = _dense_separation_check(*small_benchmark, small_phi)
    assert check["num_chunks"] == 24 * 10
    assert check["planted_min_similarity"] > 0.99 > check["nonplanted_max_similarity"]
    assert check["distinct_phase_max_similarity"] < 0.9
    assert check["action_weight"] > 0


def test_separation_self_check(small_benchmark, small_phi):
    got, want = separation_self_check(*small_benchmark), _dense_separation_check(*small_benchmark, small_phi)
    _assert_check_matches_dense(got, want)
    assert got["planted_min_similarity"] > 0.99


def test_separation_self_check_matches_dense_off_the_planted_grid(small_benchmark, small_phi):
    """A copy of a planted trajectory at 1.5× its fps has 1.5× longer chunks,
    so only every other one starts on the planted grid (slots 0, 3 and 6):
    that one takes the group planted there, the others none, as in the
    per-chunk lookup. A group planted on one of those slots gains a third
    member."""
    ds, gt = small_benchmark
    src = next(t for t in ds.trajectories if any(gt.chunk_groups[t.id][:9:3]))
    fast = Trajectory(id="zz-fast", fps=1.5 * src.fps, obs=src.obs.copy(), actions=src.actions.copy())
    mixed = Dataset(trajectories=[*ds.trajectories, fast], obs_dim=ds.obs_dim, action_dim=ds.action_dim)
    truth = dataclasses.replace(
        gt,
        chunk_groups={**gt.chunk_groups, fast.id: gt.chunk_groups[src.id]},
    )
    phi = {**small_phi, fast.id: small_phi[src.id]}
    got, want = separation_self_check(mixed, truth), _dense_separation_check(mixed, truth, phi)
    assert got["num_chunks"] == 240 + 6
    assert set(want["group_sizes"].tolist()) == {2, 3}
    _assert_check_matches_dense(got, want)


def test_separation_self_check_without_planted_groups_is_nan(small_benchmark, small_phi):
    ds, gt = small_benchmark
    # group 1 keeps one member only: a lone chunk is no planted pair either
    (tid, start), _ = gt.groups()[1]
    solo = {t: [0] * len(g) for t, g in gt.chunk_groups.items()}
    solo[tid][start // gt.chunk_span] = 1
    for groups in ({t: [0] * len(g) for t, g in gt.chunk_groups.items()}, solo):
        truth = dataclasses.replace(gt, chunk_groups=groups)
        got, want = separation_self_check(ds, truth), _dense_separation_check(ds, truth, small_phi)
        assert np.isnan(got["planted_min_similarity"])
        _assert_check_matches_dense(got, want)


def test_separation_self_check_memory_is_the_features_plus_planted_members(tmp_path):
    """The check embeds planted members only: its traced peak is O(chunks)
    scalars, a few d-rows a planted member and one trajectory's raw block,
    with no (chunks, d) feature matrix. On 800 chunks that matrix alone
    (1.3 MB) is more than the whole budget."""
    from trajcurate.dedup import DedupConfig, chunk_dataset

    ds, gt = generate(dataclasses.replace(SMALL, num_traj=80), tmp_path)
    chunks = chunk_dataset(ds, DedupConfig(chunk_seconds=2.0))
    separation_self_check(ds, gt)  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        separation_self_check(ds, gt)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    members = sum(len(m) for m in gt.groups().values())
    row = 8 * (ds.obs_dim + ds.action_dim) * 8  # one float64 feature row
    assert len(chunks) == 800 and members == 80 and len(chunks) * row > 1.3e6
    # chunking, group ids and the two sums of squares take 48 bytes a chunk;
    # the member rows, their gather per group size and the group bookkeeping
    # a few rows a member; a trajectory's frame gathers and squares a few
    # rows a chunk of it
    assert check_peak <= 48 * len(chunks) + 3 * members * row + 4 * (len(chunks) // len(ds)) * row


# --- ground truth round trips --------------------------------------------------------


def test_ground_truth_round_trip(small_benchmark, tmp_path):
    _, gt = small_benchmark
    write_json(tmp_path / "ground_truth.json", gt.to_dict())
    back = GroundTruth.load(tmp_path / "ground_truth.json")
    assert back.frame_counts == gt.frame_counts
    assert back.chunk_groups == gt.chunk_groups
    assert back.chunk_span == gt.chunk_span
    assert back.anomaly_segments == gt.anomaly_segments


# --- auroc ----------------------------------------------------------------------------


def test_auroc_pins():
    assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auroc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert auroc(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5
    assert np.isnan(auroc(np.array([0.5, 0.5]), np.array([1, 1])))


@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    ties=st.booleans(),
)
@settings(max_examples=60)
def test_auroc_matches_pair_counting(n, seed, ties):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores)  # heavy ties
    labels = rng.random(n) < 0.5
    got = auroc(scores, labels)
    want = oracle_auroc(scores.tolist(), labels.tolist())
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-12)


def _unique_ranking_auroc(scores, labels):
    """AUROC from ``np.unique`` tie groups: each score's average 1-based rank
    through ``return_inverse`` and ``return_counts``, positives summed in
    index order."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    ranks = (0.5 * (2 * last - counts + 1) + 1.0)[inverse.ravel()]
    n_pos = int(labels.sum())
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (labels.size - n_pos)))


@given(n=st.integers(2, 300), seed=st.integers(0, 2**16), block=st.sampled_from([1, 5, 1 << 14]))
@settings(max_examples=60, deadline=None)
def test_auroc_equals_unique_ranking_on_signed_zero_ties(n, seed, block):
    """Heavy ties, with 0.0 and -0.0 one tie group: the binary-search ranks
    give the bits of the ``np.unique`` ranking, for any block of positives."""
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=n))
    scores[rng.random(n) < 0.3] = 0.0
    scores[rng.random(n) < 0.3] = -0.0
    labels = rng.random(n) < rng.random()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthgen, "_RANK_BLOCK", block)
        got = auroc(scores, labels)
    if labels.all() or not labels.any():
        assert np.isnan(got)
        return
    assert got == _unique_ranking_auroc(scores, labels)
    assert got == pytest.approx(oracle_auroc(scores.tolist(), labels.tolist()), abs=1e-12)


def test_auroc_memory_is_a_sorted_copy_plus_the_positives():
    """One sorted copy of the scores, the positives' ranks and a block of
    binary searches: at most 26 bytes a score, where ``np.unique``'s inverse
    and counts took 41 to 65."""
    rng = np.random.default_rng(23)
    n = 200_000
    scores, labels = rng.normal(size=n), rng.random(n) < 0.5
    auroc(scores[:10], labels[:10])
    tracemalloc.start()
    try:
        auroc(scores, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * n
    assert peak <= 8 * n + 8 * int(labels.sum()) + 4 * 8 * synthgen._RANK_BLOCK


# --- mask evaluation ------------------------------------------------------------------


def _tiny_gt():
    """Two 10-frame trajectories; t0 frames 2-5 paused; chunks of 5 frames
    with (t0 chunk 1, t1 chunk 0) planted as duplicate group 1."""
    return GroundTruth(
        frame_counts={"t0": 10, "t1": 10},
        chunk_groups={"t0": [0, 1], "t1": [1, 0]},
        chunk_span=5,
        anomaly_segments={"t0": [(2, 6, "pause")], "t1": []},
    )


def _mask_for(gt, drops_by_tid, reason, scores_by_tid=None):
    parts = {}
    for tid, n in gt.frame_counts.items():
        drops = drops_by_tid.get(tid, [False] * n)
        scores = (scores_by_tid or {}).get(tid, [0.0] * n)
        parts[tid] = ([not d for d in drops], [reason if d else "" for d in drops], scores, [-1.0] * n)
    return make_mask(parts)


def _string_tag_anomaly_metrics(mask, gt):
    """Reference: evaluate_masks' anomaly metrics from the per-frame string tags."""
    by_id = frame_tags(gt)
    tags = np.concatenate([np.array(by_id[t]) for t in mask.ids])
    drop, anomaly = mask.dropped(("suboptimal", "both")), tags != "clean"
    n_dropped, tp = int(drop.sum()), int((drop & anomaly).sum())
    return {
        "auroc": auroc(mask.subopt_score, anomaly),
        "precision": 1.0 if n_dropped == 0 else tp / n_dropped,
        "recall": tp / int(anomaly.sum()),
        "fpr_clean": float((drop & ~anomaly).sum() / max(1, int((~anomaly).sum()))),
        "per_type_recall": {t: float(drop[tags == t].mean()) for t in ANOMALY_TYPES},
        "no_drops": n_dropped == 0,
    }


@pytest.mark.parametrize("order", [1, -1])
def test_evaluate_masks_tag_codes_match_string_tags(small_benchmark, order):
    """Every anomaly type, random drops of every reason, in dataset order and
    reversed: the same metrics, to the byte, as from the string tags."""
    ds, gt = small_benchmark
    rng = np.random.default_rng(5)
    parts = {}
    for traj in ds.trajectories[::order]:
        reasons = rng.choice(["", "", "suboptimal", "duplicate", "both"], traj.num_frames).tolist()
        parts[traj.id] = ([r == "" for r in reasons], reasons, rng.random(traj.num_frames).tolist(),
                          [-1.0] * traj.num_frames)
    mask = make_mask(parts)
    got = evaluate_masks(mask, gt)["anomaly"]
    assert set(got["per_type_recall"]) == set(ANOMALY_TYPES)
    assert json.dumps(got) == json.dumps(_string_tag_anomaly_metrics(mask, gt))


def test_evaluate_masks_perfect_detection():
    gt = _tiny_gt()
    anomaly = [t != "clean" for t in frame_tags(gt)["t0"]]
    mask = _mask_for(
        gt,
        {"t0": anomaly},
        "suboptimal",
        scores_by_tid={"t0": [float(a) for a in anomaly], "t1": [0.0] * 10},
    )
    metrics = evaluate_masks(mask, gt)
    assert metrics["anomaly"]["precision"] == 1.0
    assert metrics["anomaly"]["recall"] == 1.0
    assert metrics["anomaly"]["auroc"] == 1.0
    assert metrics["anomaly"]["fpr_clean"] == 0.0
    assert metrics["anomaly"]["per_type_recall"]["pause"] == 1.0
    assert np.isnan(metrics["anomaly"]["per_type_recall"]["slow"])
    assert metrics["anomaly"]["no_drops"] is False


def test_evaluate_masks_follows_ids_not_layout():
    """A mask laid out t1 then t0 scores as the one laid out t0 then t1."""
    gt = _tiny_gt()
    drops = {"t0": [i % 3 == 0 for i in range(10)], "t1": [i >= 5 for i in range(10)]}
    scores = {tid: np.random.default_rng(i).random(10).tolist() for i, tid in enumerate(gt.frame_counts)}
    for reason in ("suboptimal", "duplicate"):
        mask = _mask_for(gt, drops, reason, scores)
        reversed_gt = dataclasses.replace(gt, frame_counts=dict(reversed(gt.frame_counts.items())))
        flipped = _mask_for(reversed_gt, drops, reason, scores)
        assert flipped.ids == ("t1", "t0")
        assert json.dumps(evaluate_masks(flipped, gt)) == json.dumps(evaluate_masks(mask, gt))


def test_evaluate_masks_no_drops_convention():
    gt = _tiny_gt()
    metrics = evaluate_masks(_mask_for(gt, {}, "suboptimal"), gt)
    assert metrics["anomaly"]["precision"] == 1.0
    assert metrics["anomaly"]["no_drops"] is True
    assert metrics["anomaly"]["recall"] == 0.0
    assert metrics["duplicates"]["precision"] == 1.0
    assert metrics["duplicates"]["no_drops"] is True


def test_evaluate_masks_false_positives_counted():
    gt = _tiny_gt()
    # drop two clean frames and two anomalous ones
    drops = [True, True, True, True] + [False] * 6
    metrics = evaluate_masks(_mask_for(gt, {"t0": drops}, "suboptimal"), gt)
    assert metrics["anomaly"]["precision"] == 0.5
    assert metrics["anomaly"]["recall"] == 0.5
    assert metrics["anomaly"]["fpr_clean"] == pytest.approx(2 / 16)


def test_evaluate_masks_duplicate_metrics():
    gt = _tiny_gt()
    # dropping exactly one member of the planted pair: precision 1, recall 1
    one_member = {"t1": [True] * 5 + [False] * 5}
    metrics = evaluate_masks(_mask_for(gt, one_member, "duplicate"), gt)
    assert metrics["duplicates"]["precision"] == 1.0
    assert metrics["duplicates"]["recall"] == 1.0
    assert metrics["duplicates"]["num_groups"] == 1
    assert metrics["duplicates"]["num_dropped_chunks"] == 1

    # dropping an unplanted chunk costs precision
    extra = {"t1": [True] * 10}
    metrics = evaluate_masks(_mask_for(gt, extra, "duplicate"), gt)
    assert metrics["duplicates"]["precision"] == 0.5
    assert metrics["duplicates"]["recall"] == 1.0

    # dropping both members still recovers the group only once
    both = {"t0": [False] * 5 + [True] * 5, "t1": [True] * 5 + [False] * 5}
    metrics = evaluate_masks(_mask_for(gt, both, "duplicate"), gt)
    assert metrics["duplicates"]["precision"] == 1.0
    assert metrics["duplicates"]["recall"] == 1.0


def test_evaluate_masks_partial_chunk_not_counted():
    gt = _tiny_gt()
    # four of five frames dropped: the chunk does not count as removed
    partial = {"t1": [True] * 4 + [False] * 6}
    metrics = evaluate_masks(_mask_for(gt, partial, "duplicate"), gt)
    assert metrics["duplicates"]["num_dropped_chunks"] == 0
    assert metrics["duplicates"]["recall"] == 0.0


def test_evaluate_masks_reason_attribution():
    gt = _tiny_gt()
    # duplicate-reason drops do not count toward anomaly detection
    drops = {"t0": [t != "clean" for t in frame_tags(gt)["t0"]]}
    metrics = evaluate_masks(_mask_for(gt, drops, "duplicate"), gt)
    assert metrics["anomaly"]["recall"] == 0.0
    assert metrics["anomaly"]["no_drops"] is True


def _kept(n):
    return [True] * n, [""] * n, [0.0] * n, [-1.0] * n


def test_evaluate_masks_shape_errors():
    gt = _tiny_gt()
    with pytest.raises(MaskShapeMismatch):
        evaluate_masks(make_mask({"t0": _kept(10)}), gt)
    with pytest.raises(MaskShapeMismatch):
        evaluate_masks(make_mask({"t0": _kept(10), "t1": _kept(9)}), gt)
