"""Temporal bins, pair sampling, and the progress estimate."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate import progress
from trajcurate.errors import (
    DimensionMismatch,
    EmptyTrainingSet,
)
from trajcurate.nn import TrainConfig, forward, init_mlp
from trajcurate.progress import (
    SamplingConfig,
    TemporalBins,
    _bounded,
    _gap_range,
    default_bins,
    progress_from_deltas,
    sample_training_pairs,
    train_progress_model,
)
from trajcurate.trajstore import Dataset, load_dataset, save_dataset

from conftest import make_dataset, make_trajectory
from oracles import bin_of


# --- bins ---------------------------------------------------------------------


def test_default_bins():
    bins = default_bins()
    assert bins.edges == (0.0, 0.5, 1.0, 2.0, 5.0)
    assert bins.representatives == (0.25, 0.75, 1.5, 3.5, 7.5)
    assert bins.num_bins == 5


def test_default_bins_cap_moves_last_representative():
    assert default_bins(dt_cap=21.0).representatives[-1] == 13.0
    with pytest.raises(ValueError):
        default_bins(dt_cap=5.0)


@pytest.mark.parametrize("dt,expected", [
    (0.0, 0), (0.49, 0),
    (0.5, 1), (0.99, 1),
    (1.0, 2), (1.99, 2),
    (2.0, 3), (4.99, 3),
    (5.0, 4), (100.0, 4),
])
def test_bin_of_pins(dt, expected):
    assert bin_of(default_bins(), dt) == expected


def test_bin_of_rejects_negative():
    with pytest.raises(ValueError):
        bin_of(default_bins(), -0.1)


@given(a=st.floats(0, 50, allow_nan=False), b=st.floats(0, 50, allow_nan=False))
def test_bin_of_monotone(a, b):
    bins = default_bins()
    lo, hi = sorted([a, b])
    assert bin_of(bins, lo) <= bin_of(bins, hi)


def test_custom_bins_validation():
    with pytest.raises(ValueError):
        TemporalBins(edges=(0.0, 1.0, 0.5), representatives=(0.1, 0.7, 1.0))
    with pytest.raises(ValueError):
        TemporalBins(edges=(0.0, 1.0), representatives=(0.5,))
    with pytest.raises(ValueError):
        # representative outside its bin
        TemporalBins(edges=(0.0, 1.0, 2.0), representatives=(1.5, 1.5, 2.5))
    # three-bin variant: the machinery is not hardwired to five bins
    b3 = TemporalBins(edges=(0.0, 1.0, 2.0), representatives=(0.5, 1.5, 2.5))
    assert b3.num_bins == 3
    assert bin_of(b3, 5.0) == 2


# --- pair sampling ---------------------------------------------------------------


def oracle_pairs(ds, bins, pairs_per_traj=100, dt_cap=10.0, seed=0):
    """The specification: one pair at a time, as ``(x, label, trajectory
    index, anchor, dt)`` tuples, drawing from the same per-trajectory
    streams in the same order."""
    children = np.random.SeedSequence(seed).spawn(len(ds.trajectories))
    out = []
    for k, (traj, child) in enumerate(zip(ds.trajectories, children)):
        n = traj.num_frames
        if n < 2:
            continue
        rng = np.random.default_rng(child)
        ranges = []
        for b in range(bins.num_bins):
            lo = max(1, math.ceil(bins.edges[b] * traj.fps - 1e-9))
            if b < bins.num_bins - 1:
                hi = math.ceil(bins.edges[b + 1] * traj.fps - 1e-9) - 1
            else:
                hi = math.floor(dt_cap * traj.fps + 1e-9)
            ranges.append((lo, hi))
        obs = traj.obs.astype(np.float64)
        for _ in range(pairs_per_traj):
            i = int(rng.integers(0, n - 1))
            feasible = [
                (b, lo, min(hi, n - 1 - i))
                for b, (lo, hi) in enumerate(ranges)
                if lo <= min(hi, n - 1 - i)
            ]
            if not feasible:
                continue
            b, lo, hi = feasible[int(rng.integers(0, len(feasible)))]
            g = int(rng.integers(lo, hi + 1))
            out.append((obs[i + g] - obs[i], b, k, i, g / traj.fps))
    return out


@given(
    seed=st.integers(0, 2**16),
    # 0.05 fps is below 1 / dt_cap: even a one-frame gap exceeds the cap
    shapes=st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 9, 40, 130]),
                  st.sampled_from([0.05, 1.0, 3.0, 10.0, 30.0])),
        max_size=5,
    ),
    pairs_per_traj=st.integers(1, 40),
    dt_cap=st.sampled_from([6.0, 10.0]),
)
@settings(max_examples=60, deadline=None)
def test_pairs_match_oracle_bit_for_bit(seed, shapes, pairs_per_traj, dt_cap):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        trajectories=[make_trajectory(rng, f"t{i}", n, fps=fps) for i, (n, fps) in enumerate(shapes)],
        obs_dim=6, action_dim=3,
    )
    bins = default_bins(dt_cap)
    pairs = sample_training_pairs(ds, bins, pairs_per_traj, dt_cap, seed)
    expected = oracle_pairs(ds, bins, pairs_per_traj, dt_cap, seed)
    assert len(pairs) == len(expected)
    assert pairs.x.shape == (len(expected), ds.obs_dim) and pairs.x.dtype == np.float64
    assert pairs.x.tobytes() == b"".join(e[0].tobytes() for e in expected)
    for j, name in enumerate(("label", "traj", "t"), start=1):
        column = getattr(pairs, name)
        assert column.dtype == np.int64
        assert column.tolist() == [e[j] for e in expected]
    assert pairs.dt.dtype == np.float64
    assert pairs.dt.tobytes() == np.array([e[4] for e in expected], dtype=np.float64).tobytes()


def test_bounded_draw_decodes_scalar_integers_through_rejections_and_refills():
    """``_bounded`` gives what scalar ``Generator.integers(0, r)`` calls give
    from the same seed, rows together or alone. At r = 3 * 2**30 + 1 about a
    quarter of all draws are rejected, seed 40's first four in a row; a range
    of one value takes no draw; and a buffer of 7 draws refills, the first
    time from PCG64's cached upper half."""
    r = 3 * 2**30 + 1
    first = np.random.default_rng(40).integers(0, 2**32, size=4, dtype=np.uint32).astype(np.uint64)
    assert ((first * r) % 2**32 < (2**32 - r) % r).all()
    seeds = (40, 26)
    calls = [((0, 1), (r, r)), ((1,), (r,)), ((0,), (1,)), ((0, 1), (5, r)), ((0, 1), (1, 1))] * 12
    scalars = [np.random.default_rng(s) for s in seeds]
    expected = [[int(scalars[k].integers(0, v)) for k, v in zip(rows, ranges)] for rows, ranges in calls]
    gens = [np.random.default_rng(s) for s in seeds]
    draws = np.stack([rng.integers(0, 2**32, size=7, dtype=np.uint32) for rng in gens])
    pos = np.zeros(len(seeds), dtype=np.int64)
    got = [_bounded(draws, pos, np.array(rows), np.array(ranges), gens).tolist() for rows, ranges in calls]
    assert got == expected


def _matches_oracle(ds, bins, pairs_per_traj, dt_cap, seed):
    """The sampler's pairs, after checking them against ``oracle_pairs``."""
    pairs = sample_training_pairs(ds, bins, pairs_per_traj, dt_cap, seed)
    expected = oracle_pairs(ds, bins, pairs_per_traj, dt_cap, seed)
    assert pairs.x.tobytes() == b"".join(e[0].tobytes() for e in expected)
    for j, name in enumerate(("label", "traj", "t"), start=1):
        assert getattr(pairs, name).tolist() == [e[j] for e in expected]
    assert pairs.dt.tolist() == [e[4] for e in expected]
    return pairs


def _dataset(shapes, seed=0):
    rng = np.random.default_rng(seed)
    trajs = [make_trajectory(rng, f"t{i}", n, fps=fps) for i, (n, fps) in enumerate(shapes)]
    return Dataset(trajectories=trajs, obs_dim=6, action_dim=3)


def test_pairs_at_3_fps_take_no_draw_for_a_single_gap_bin():
    bins = default_bins()
    assert _gap_range(bins, 0, 3.0, 10.0) == (1, 1)
    pairs = _matches_oracle(_dataset([(40, 3.0), (25, 3.0)]), bins, 60, 10.0, 3)
    assert 0 in pairs.label.tolist()


def test_pairs_from_anchors_that_reach_one_bin():
    # 12 frames at 10 fps: from anchor 7 on, only gaps of at most 4 frames
    # (bin 0) remain, so the bin is chosen without a draw
    pairs = _matches_oracle(_dataset([(12, 10.0), (12, 10.0)]), default_bins(), 50, 10.0, 4)
    late = pairs.t >= 7
    assert late.any() and (pairs.label[late] == 0).all()


def test_pairs_on_trajectories_shorter_than_the_cap():
    pairs = _matches_oracle(_dataset([(30, 10.0), (9, 30.0)]), default_bins(), 50, 10.0, 5)
    assert pairs.dt.max() < 3.0


def test_pairs_with_a_non_default_cap():
    pairs = _matches_oracle(_dataset([(120, 10.0), (200, 30.0)]), default_bins(7.5), 60, 7.5, 6)
    assert 5.0 < pairs.dt[pairs.label == 4].max() <= 7.5


@pytest.mark.parametrize("pairs_per_traj", [1, 7, 13])
def test_pairs_with_an_odd_pair_count(pairs_per_traj):
    """3 draws a pair: an odd count leaves PCG64's upper half cached."""
    _matches_oracle(_dataset([(50, 10.0), (2, 10.0), (80, 3.0)]), default_bins(), pairs_per_traj, 10.0, 7)


@pytest.mark.parametrize("block_draws", [1, 60, 130])
def test_pairs_over_several_decode_blocks(monkeypatch, block_draws):
    """Blocks of one, two and four trajectories, with trajectories that give
    no pair (one frame, or no bin that holds a gap at 0.05 fps), and bins
    from 0.5 s, so that anchors near the end give no pair either."""
    monkeypatch.setattr(progress, "_BLOCK_DRAWS", block_draws)
    bins = TemporalBins(edges=(0.5, 1.0, 2.0), representatives=(0.75, 1.5, 3.0))
    shapes = [(30, 10.0), (1, 10.0), (40, 0.05), (12, 10.0), (60, 3.0), (8, 10.0), (45, 10.0)]
    pairs = _matches_oracle(_dataset(shapes, seed=8), bins, 10, 4.0, 9)
    assert 0 < np.bincount(pairs.traj, minlength=len(shapes))[5] < 10


def test_pair_sampler_memory_is_bounded_by_x():
    """No per-pair Python objects and no second copy of ``x``: beyond ``x``
    the sampler holds 40 bytes a pair (four int64 columns and ``dt``), one
    trajectory's draws and gathers, and numpy's bounded cast buffer. On
    1000-frame trajectories most anchors are int objects of their own, so a
    dataset-wide list of draws would take about 90 bytes a pair."""
    ds = make_dataset(np.random.default_rng(8), num_traj=40, n=1000, obs_dim=4)
    sample_training_pairs(ds, default_bins(), pairs_per_traj=10, seed=0)
    tracemalloc.start()
    try:
        pairs = sample_training_pairs(ds, default_bins(), pairs_per_traj=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_traj = 1000 * ds.obs_dim * 4
    assert len(pairs) == 8000
    assert peak <= pairs.x.nbytes + 40 * len(pairs) + one_traj + (1 << 17)


def test_pair_sampler_on_a_loaded_dataset_reads_one_trajectory_at_a_time(tmp_path):
    """Loading and sampling together trace the pairs, one read buffer of one
    trajectory's frames, that trajectory's gathers and the manifest's entries:
    no dataset-wide frames."""
    ds = make_dataset(np.random.default_rng(8), num_traj=40, n=1000, obs_dim=4)
    save_dataset(ds, tmp_path / "data")
    sample_training_pairs(load_dataset(tmp_path / "data"), default_bins(), pairs_per_traj=10, seed=0)
    tracemalloc.start()
    try:
        pairs = sample_training_pairs(load_dataset(tmp_path / "data"), default_bins(), pairs_per_traj=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    read_buffer = 1000 * (ds.obs_dim + ds.action_dim) * 4
    assert len(pairs) == 8000
    assert peak <= pairs.x.nbytes + 40 * len(pairs) + read_buffer + 1000 * ds.obs_dim * 4 + (1 << 17)


def test_pairs_labels_match_bins_exactly():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, num_traj=5, n=80, fps=10.0)
    bins = default_bins()
    pairs = sample_training_pairs(ds, bins, pairs_per_traj=50, seed=1)
    assert pairs
    for label, dt in zip(pairs.label, pairs.dt):
        assert label == bin_of(bins, dt)
        assert 0.0 < dt <= 10.0
    assert pairs.x.shape == (len(pairs), ds.obs_dim)


def test_pair_geometry_is_consistent():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng, num_traj=3, n=60, fps=10.0)
    pairs = sample_training_pairs(ds, default_bins(), pairs_per_traj=40, seed=2)
    for j in range(len(pairs)):
        traj, t = ds.trajectories[pairs.traj[j]], int(pairs.t[j])
        g = round(pairs.dt[j] * traj.fps)
        assert 0 <= t and t + g <= traj.num_frames - 1
        expected = traj.obs[t + g].astype(np.float64) - traj.obs[t].astype(np.float64)
        np.testing.assert_array_equal(pairs.x[j], expected)


def test_pair_sampling_deterministic():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, num_traj=4, n=50)
    a = sample_training_pairs(ds, default_bins(), pairs_per_traj=20, seed=5)
    b = sample_training_pairs(ds, default_bins(), pairs_per_traj=20, seed=5)
    c = sample_training_pairs(ds, default_bins(), pairs_per_traj=20, seed=6)
    for name in ("traj", "t", "dt", "label"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert list(zip(a.t, a.dt)) != list(zip(c.t, c.dt))


def test_pair_sampling_covers_all_bins_on_long_trajectories():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, num_traj=3, n=150, fps=10.0)
    pairs = sample_training_pairs(ds, default_bins(), pairs_per_traj=200, seed=0)
    assert set(pairs.label.tolist()) == {0, 1, 2, 3, 4}


def test_pair_sampling_short_trajectory():
    rng = np.random.default_rng(4)
    # 8 frames at 10 fps: only gaps up to 0.7 s exist, so bins 2+ infeasible
    ds = make_dataset(rng, num_traj=1, n=8, fps=10.0)
    pairs = sample_training_pairs(ds, default_bins(), pairs_per_traj=30, seed=0)
    assert pairs
    assert set(pairs.label.tolist()) <= {0, 1}
    # a single frame yields nothing at all
    ds1 = make_dataset(rng, num_traj=1, n=1)
    assert len(sample_training_pairs(ds1, default_bins(), pairs_per_traj=10)) == 0


def test_pair_sampling_rejects_low_cap():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, num_traj=1, n=20)
    with pytest.raises(ValueError):
        sample_training_pairs(ds, default_bins(), dt_cap=4.0)


@given(seed=st.integers(0, 2**16), fps=st.sampled_from([5.0, 10.0, 30.0]))
@settings(max_examples=20, deadline=None)
def test_pair_label_invariant_property(seed, fps):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng, num_traj=2, n=64, fps=fps)
    bins = default_bins()
    pairs = sample_training_pairs(ds, bins, pairs_per_traj=25, seed=seed)
    for label, dt in zip(pairs.label, pairs.dt):
        assert label == bin_of(bins, dt)


# --- training and validation split --------------------------------------------------


def test_split_is_by_trajectory():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, num_traj=20, n=40)
    sampling, train_cfg = SamplingConfig(pairs_per_traj=10), TrainConfig(epochs=1)
    # the train seed draws the pairs as well as the split
    pairs = sample_training_pairs(ds, default_bins(), 10, sampling.dt_cap, train_cfg.seed)
    _, report = train_progress_model(ds, default_bins(), train_cfg, sampling, hidden_sizes=(8,))
    # 10% of 20 trajectories -> 2 held out
    per_traj = np.bincount(pairs.traj)
    assert report.pairs_train + report.pairs_val == len(pairs)
    # val count must be exactly the pair mass of some 2-trajectory subset
    counts = sorted(per_traj[per_traj > 0].tolist())
    feasible = {a + b for a in counts for b in counts}
    assert report.pairs_val in feasible


def test_train_progress_model_reports_confusion():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, num_traj=12, n=60)
    model, report = train_progress_model(
        ds, default_bins(), TrainConfig(epochs=2), SamplingConfig(pairs_per_traj=30),
        hidden_sizes=(8,),
    )
    assert model.layer_sizes == (ds.obs_dim, 8, 5)
    confusion = np.array(report.confusion)
    assert confusion.shape == (5, 5)
    assert confusion.sum() == report.pairs_val
    assert 0.0 <= report.accuracy <= 1.0


def test_train_progress_model_empty_dataset():
    ds = Dataset(trajectories=[], obs_dim=4, action_dim=2)
    with pytest.raises(EmptyTrainingSet):
        train_progress_model(ds, default_bins(), TrainConfig(epochs=1))


# --- progress estimates ---------------------------------------------------------


def test_progress_expectation_is_probability_weighted():
    bins = default_bins()
    m = init_mlp([6, 5], seed=3)
    deltas = np.random.default_rng(0).normal(size=(7, 6))
    probs = forward(m, deltas)
    expected = probs @ np.array(bins.representatives)
    np.testing.assert_allclose(progress_from_deltas(m, bins, deltas), expected, rtol=1e-12)


def test_progress_argmax_returns_representatives():
    bins = default_bins()
    m = init_mlp([6, 5], seed=4)
    deltas = np.random.default_rng(1).normal(size=(9, 6))
    out = progress_from_deltas(m, bins, deltas, mode="argmax")
    assert set(out) <= set(bins.representatives)


def test_progress_bounds():
    """Expectation of bin representatives can never leave their range."""
    bins = default_bins()
    m = init_mlp([6, 10, 5], seed=5)
    deltas = np.random.default_rng(2).normal(scale=10.0, size=(50, 6))
    out = progress_from_deltas(m, bins, deltas)
    assert (out >= 0.25).all() and (out <= 7.5).all()


def test_progress_mode_and_shape_errors():
    bins = default_bins()
    m = init_mlp([6, 5], seed=0)
    with pytest.raises(ValueError):
        progress_from_deltas(m, bins, np.zeros((1, 6)), mode="median")
    m4 = init_mlp([6, 4], seed=0)  # wrong class count for five bins
    with pytest.raises(DimensionMismatch):
        progress_from_deltas(m4, bins, np.zeros((1, 6)))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=25)
def test_progress_range_property(seed):
    bins = default_bins()
    m = init_mlp([4, 6, 5], seed=seed)
    deltas = np.random.default_rng(seed).normal(scale=3.0, size=(10, 4))
    for mode in ("expectation", "argmax"):
        out = progress_from_deltas(m, bins, deltas, mode)
        assert (out >= min(bins.representatives)).all()
        assert (out <= max(bins.representatives)).all()
