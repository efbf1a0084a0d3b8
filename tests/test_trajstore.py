"""Container format, frame/second conversion, and curation-mask round trips."""

import json
import os
import shutil
import struct
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajcurate.dedup import DedupConfig, dedup_dataset
from trajcurate.errors import (
    CurationError,
    DimensionMismatch,
    InvalidManifest,
    IoFailure,
    MaskShapeMismatch,
    MissingManifest,
    NonFiniteValue,
    TruncatedBlob,
)
from trajcurate.nn import init_mlp
from trajcurate.progress import default_bins, sample_training_pairs
from trajcurate.subopt import SuboptConfig, score_dataset
from trajcurate.trajstore import (
    REASONS,
    CurationMask,
    Dataset,
    Trajectory,
    load_dataset,
    read_masks,
    save_dataset,
    seconds_to_frames,
    write_masks,
)

from conftest import make_dataset, make_mask, make_trajectory


# --- frame/second conversion ----------------------------------------------------


def test_seconds_to_frames_pins():
    assert seconds_to_frames(2.0, 10.0) == 20
    assert seconds_to_frames(1.0, 30.0) == 30
    # rounds half up
    assert seconds_to_frames(0.25, 10.0) == 3
    assert seconds_to_frames(0.24, 10.0) == 2
    # never below one frame
    assert seconds_to_frames(0.01, 10.0) == 1


@pytest.mark.parametrize("seconds,fps", [(0.0, 10.0), (-1.0, 10.0), (1.0, 0.0), (1.0, -5.0)])
def test_seconds_to_frames_rejects_nonpositive(seconds, fps):
    with pytest.raises(ValueError):
        seconds_to_frames(seconds, fps)


@given(
    seconds=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    fps=st.floats(min_value=0.1, max_value=240.0, allow_nan=False),
)
def test_seconds_to_frames_matches_round_half_up(seconds, fps):
    w = seconds_to_frames(seconds, fps)
    assert w >= 1
    assert w == max(1, int(np.floor(seconds * fps + 0.5)))


# --- dataset container -------------------------------------------------------------


def test_dataset_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    ds = make_dataset(rng, num_traj=3, n=17)
    save_dataset(ds, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert len(back) == 3
    assert back.obs_dim == ds.obs_dim and back.action_dim == ds.action_dim
    for a, b in zip(ds.trajectories, back.trajectories):
        assert a.id == b.id and a.fps == b.fps
        assert a.obs.dtype == b.obs.dtype == np.float32
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)


def test_dataset_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, num_traj=2, n=9)
    save_dataset(ds, tmp_path / "a")
    save_dataset(ds, tmp_path / "b")
    for name in ["manifest.json", "trajectories/t000.bin"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_dataset_threads_match(tmp_path):
    # loading runs on one thread; two loads must agree bit for bit
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, num_traj=6, n=12)
    save_dataset(ds, tmp_path / "data")
    one = load_dataset(tmp_path / "data")
    two = load_dataset(tmp_path / "data")
    assert [t.id for t in one.trajectories] == [t.id for t in two.trajectories]
    for a, b in zip(one.trajectories, two.trajectories):
        assert a.obs.tobytes() == b.obs.tobytes()
        assert a.actions.tobytes() == b.actions.tobytes()


def test_missing_manifest(tmp_path):
    with pytest.raises(MissingManifest):
        load_dataset(tmp_path / "nope")


def test_invalid_manifest_json(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "manifest.json").write_text("{not json")
    with pytest.raises(InvalidManifest, match="unreadable manifest"):
        load_dataset(root)


def test_manifest_missing_key(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"format_version": 1, "obs_dim": 2}))
    with pytest.raises(InvalidManifest, match="missing 'action_dim'"):
        load_dataset(root)


def _saved_dataset(tmp_path, **kw):
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, **kw)
    save_dataset(ds, tmp_path / "data")
    return tmp_path / "data"


def test_truncated_blob(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    blob = root / "trajectories" / "t000.bin"
    blob.write_bytes(blob.read_bytes()[:-7])
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_bad_magic(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    blob = root / "trajectories" / "t000.bin"
    raw = bytearray(blob.read_bytes())
    raw[:4] = b"XXXX"
    blob.write_bytes(bytes(raw))
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_missing_blob(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    (root / "trajectories" / "t000.bin").unlink()
    with pytest.raises(TruncatedBlob):
        load_dataset(root)


def test_frame_count_mismatch(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trajectories"][0]["num_frames"] = 11
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TruncatedBlob, match="blob declares 10 frames, manifest 11"):
        load_dataset(root)


def test_frame_count_beyond_memory_is_truncated_blob(tmp_path):
    """The load's read buffer is sized from the manifest; a frame count no
    buffer can hold still ends in the blob's own size check."""
    root = _saved_dataset(tmp_path, num_traj=2, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trajectories"][1]["num_frames"] = 10**12
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TruncatedBlob, match="manifest 1000000000000"):
        load_dataset(root)


def test_row_width_mismatch_is_dimension_error(tmp_path):
    # blob written with 6+3 floats per row, manifest claims 5+3
    root = _saved_dataset(tmp_path, num_traj=1, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["obs_dim"] = 5
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DimensionMismatch, match="rows have 9 floats, manifest declares 8"):
        load_dataset(root)


def test_nonfinite_rejected(tmp_path):
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, num_traj=1, n=10)
    ds.trajectories[0].obs[3, 1] = np.nan
    with pytest.raises(NonFiniteValue) as err:
        save_dataset(ds, tmp_path / "data")
    assert "frame 3" in str(err.value)


def test_unsafe_id_rejected(tmp_path):
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, num_traj=1, n=4)
    ds.trajectories[0].id = "../evil"
    with pytest.raises(IoFailure):
        save_dataset(ds, tmp_path / "data")


@pytest.mark.parametrize("bad_id", ["../outside", "..", ".", "a/b", "x\n"])
def test_unsafe_manifest_id_rejected(tmp_path, bad_id):
    root = _saved_dataset(tmp_path, num_traj=2, n=10)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["trajectories"][0]["id"] = bad_id
    (root / "manifest.json").write_text(json.dumps(manifest))
    # a blob where the id points, so only the id check can refuse the load
    target = root / "trajectories" / f"{bad_id}.bin"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes((root / "trajectories" / "t000.bin").read_bytes())
    with pytest.raises(InvalidManifest, match="plain file name"):
        load_dataset(root)
    ds = make_dataset(np.random.default_rng(8), num_traj=1, n=4)
    ds.trajectories[0].id = bad_id
    with pytest.raises(IoFailure):
        save_dataset(ds, tmp_path / "saved")


def test_trajectory_validate_errors():
    rng = np.random.default_rng(9)
    traj = make_trajectory(rng, n=5, obs_dim=4, action_dim=2)
    with pytest.raises(DimensionMismatch):
        traj.validate(obs_dim=3, action_dim=2)
    traj2 = make_trajectory(rng, n=5)
    traj2.fps = 0.0
    with pytest.raises(InvalidManifest):
        traj2.validate(6, 3)


def test_blob_header_layout(tmp_path):
    """The on-disk layout is magic, u32 version, u32 count, then f32 rows."""
    root = _saved_dataset(tmp_path, num_traj=1, n=4, obs_dim=2, action_dim=1)
    raw = (root / "trajectories" / "t000.bin").read_bytes()
    assert raw[:4] == b"TRJC"
    version, count = struct.unpack("<II", raw[4:12])
    assert (version, count) == (1, 4)
    assert len(raw) == 12 + 4 * 3 * 4
    ds = load_dataset(root)
    flat = np.frombuffer(raw[12:], dtype="<f4").reshape(4, 3)
    np.testing.assert_array_equal(flat[:, :2], ds.trajectories[0].obs)


@given(
    n=st.integers(1, 20),
    obs_dim=st.integers(1, 8),
    action_dim=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_property(tmp_path_factory, n, obs_dim, action_dim, seed):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng, num_traj=2, n=n, obs_dim=obs_dim, action_dim=action_dim)
    root = tmp_path_factory.mktemp("rt")
    save_dataset(ds, root)
    back = load_dataset(root)
    for a, b in zip(ds.trajectories, back.trajectories):
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)


def test_manifest_records_each_blobs_crc32(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=3, n=10)
    for entry in json.loads((root / "manifest.json").read_text())["trajectories"]:
        assert entry["crc32"] == zlib.crc32((root / "trajectories" / f"{entry['id']}.bin").read_bytes())


def _flip_last_mantissa_bit(blob: Path, at: int = 12) -> None:
    """Change one float of a blob's payload into another finite float."""
    raw = bytearray(blob.read_bytes())
    raw[at] ^= 1
    blob.write_bytes(bytes(raw))


def test_changed_payload_fails_the_crc32(tmp_path):
    root = _saved_dataset(tmp_path, num_traj=2, n=10)
    _flip_last_mantissa_bit(root / "trajectories" / "t001.bin")
    with pytest.raises(TruncatedBlob, match="crc32"):
        load_dataset(root)


def test_loaded_trajectories_hold_no_frames(tmp_path):
    """Once ``load_dataset`` returns, what it traced is far below the frame
    bytes; ``obs`` and ``actions`` are owned copies read from the blob."""
    rng = np.random.default_rng(10)
    ds = make_dataset(rng, num_traj=20, n=1000, obs_dim=32, action_dim=4)
    save_dataset(ds, tmp_path / "data")
    tracemalloc.start()
    try:
        back = load_dataset(tmp_path / "data")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    frame_bytes = 20 * 1000 * (32 + 4) * 4
    assert held < frame_bytes / 10
    obs = back.trajectories[3].obs
    assert obs.flags.owndata and obs.flags.c_contiguous and obs.dtype == np.float32
    assert obs.tobytes() == ds.trajectories[3].obs.tobytes()
    assert back.trajectories[3].actions.tobytes() == ds.trajectories[3].actions.tobytes()


def _delete(blob: Path, other: Path) -> None:
    blob.unlink()


def _truncate(blob: Path, other: Path) -> None:
    blob.write_bytes(blob.read_bytes()[:-5])


def _rewrite(blob: Path, other: Path) -> None:
    shutil.copyfile(other, blob)  # valid frames of another dataset, same frame count


_STAGES = {
    "dedup_dataset": lambda ds: dedup_dataset(ds, DedupConfig(chunk_seconds=1.0)),
    "score_dataset": lambda ds: score_dataset(ds, init_mlp([6, 8, 5], seed=0), default_bins(), SuboptConfig()),
    "sample_training_pairs": lambda ds: sample_training_pairs(ds, default_bins(), pairs_per_traj=10),
}


@pytest.mark.parametrize("stage", sorted(_STAGES))
@pytest.mark.parametrize("change", [_delete, _truncate, _rewrite])
def test_blob_changed_after_load_is_a_curation_error(tmp_path, stage, change):
    """The frames are read again by every pass, so a blob deleted, truncated
    or replaced by other valid frames since ``load_dataset`` is a typed error."""
    root = _saved_dataset(tmp_path, num_traj=3, n=40)
    save_dataset(make_dataset(np.random.default_rng(99), num_traj=3, n=40), tmp_path / "other")
    ds = load_dataset(root)
    _STAGES[stage](ds)
    change(root / "trajectories" / "t001.bin", tmp_path / "other" / "trajectories" / "t001.bin")
    with pytest.raises(CurationError) as err:
        _STAGES[stage](ds)
    assert isinstance(err.value, TruncatedBlob) and err.value.traj_id == "t001"


def test_blob_is_hashed_again_only_when_its_identity_changes(tmp_path, monkeypatch):
    """The load hashes every blob. A later read skips the crc32 while the
    blob's (inode, size, mtime, ctime) is the checked one and more than 2 s
    old, and hashes again once it changes; a blob changed in the last 2 s,
    where a rewrite could keep its timestamps, is hashed at every read."""
    root = _saved_dataset(tmp_path, num_traj=3, n=40)
    save_dataset(make_dataset(np.random.default_rng(99), num_traj=3, n=40), tmp_path / "other")
    hashed, crc32 = [], zlib.crc32
    monkeypatch.setattr(zlib, "crc32", lambda data, value=0: hashed.append(len(data)) or crc32(data, value))

    def payloads():
        return sum(size > 12 for size in hashed)  # not the 12-byte headers

    written, now = (root / "trajectories" / "t000.bin").stat().st_ctime_ns, time.time_ns
    monkeypatch.setattr(time, "time_ns", lambda: written)  # the blobs were just written
    ds = load_dataset(root)
    _STAGES["score_dataset"](ds)
    assert payloads() == 6  # the load and the pass each hash all three

    monkeypatch.setattr(time, "time_ns", lambda: now() + 3 * 10**9)  # the blobs are 3 s old
    hashed.clear()
    ds = load_dataset(root)
    _STAGES["score_dataset"](ds)
    _STAGES["dedup_dataset"](ds)
    assert payloads() == 3  # the load's

    blob = root / "trajectories" / "t001.bin"
    mtime = blob.stat().st_mtime_ns
    shutil.copyfile(tmp_path / "other" / "trajectories" / "t001.bin", blob)
    os.utime(blob, ns=(mtime, mtime - 10**9))  # a mtime that no clock granularity can repeat
    with pytest.raises(TruncatedBlob) as err:
        _STAGES["score_dataset"](ds)
    assert err.value.traj_id == "t001" and payloads() == 4  # t000 unhashed, t001 hashed


# --- curation masks ----------------------------------------------------------------


def _fields(keep=(1, 0, 1), reason=("", "suboptimal", "")):
    n = len(keep)
    return np.array(keep, dtype=bool), list(reason), np.linspace(0, 1, n), np.full(n, -1.0)


def _masks(ids):
    return make_mask({t: _fields() for t in ids})


def _part(mask, traj_id):
    """One trajectory's (keep, reason, subopt_score, dup_similarity)."""
    part = dict(mask.frames())[traj_id]
    return mask.keep[part], mask.reason[part], mask.subopt_score[part], mask.dup_similarity[part]


def test_mask_shape_validation():
    with pytest.raises(MaskShapeMismatch):
        make_mask({"t0": (np.ones(3, bool), [""] * 2, np.zeros(3), np.zeros(3))})
    keep, _, subopt, dup = _fields()
    for reason in ([0, len(REASONS), 0], [0, -1, 0], ["", "suboptimal", ""]):  # codes only
        with pytest.raises(MaskShapeMismatch):
            CurationMask(("t0",), [0, 3], keep, reason, subopt, dup)


@pytest.mark.parametrize("ids, bounds", [
    (("a", "b"), [0, 2]),
    (("a", "b"), [0, 2, 4, 6]),
    (("a", "b"), [1, 3, 6]),
    (("a", "b"), [0, 7, 6]),
    (("a", "b"), [0, 2, 5]),
    (("a", "a"), [0, 2, 6]),
], ids=["one_offset_short", "one_offset_too_many", "not_from_frame_0", "falling",
        "short_of_the_frames", "repeated_id"])
def test_mask_rejects_inconsistent_bounds(ids, bounds):
    good = CurationMask(("a", "b"), [0, 2, 6], np.ones(6, bool), np.zeros(6, np.uint8),
                        np.zeros(6), np.zeros(6))
    assert good.frames() == [("a", slice(0, 2)), ("b", slice(2, 6))]
    with pytest.raises(MaskShapeMismatch):
        CurationMask(ids, bounds, good.keep, good.reason, good.subopt_score, good.dup_similarity)


def test_mask_frames_are_in_id_order():
    mask = make_mask({"t2": _fields(), "t10": _fields((1,), ("",)), "t1": _fields((0, 0), ("both",) * 2)})
    assert mask.frames() == [("t1", slice(4, 6)), ("t10", slice(3, 4)), ("t2", slice(0, 3))]


def test_curation_mask_counting():
    cm = make_mask({
        "a": _fields(keep=(1, 0, 0), reason=("", "suboptimal", "duplicate")),
        "b": _fields(keep=(0, 1, 1), reason=("both", "", "")),
    })
    assert cm.total_frames == 6
    assert cm.reason_counts().tolist() == [0, 1, 1, 1]
    assert cm.dropped_frames() == 3
    assert cm.dropped_frames(reasons=("suboptimal", "both")) == 2
    assert cm.dropped_frames(reasons=("duplicate",)) == 1
    assert cm.deletion_ratio() == pytest.approx(0.5)
    assert [REASONS[r] for r in cm.reason] == ["", "suboptimal", "duplicate", "both", "", ""]


@given(
    frames=st.lists(
        st.lists(st.tuples(st.booleans(), st.sampled_from(REASONS)), max_size=20),
        max_size=4,
    ),
    reasons=st.none() | st.lists(st.sampled_from([*REASONS, "bogus"]), max_size=4).map(tuple),
)
@settings(max_examples=200, deadline=None)
def test_dropped_frames_matches_frame_walk(frames, reasons):
    cm = make_mask({
        f"t{i}": ([k for k, _ in fr], [r for _, r in fr], np.zeros(len(fr)), np.zeros(len(fr)))
        for i, fr in enumerate(frames)
    })
    if reasons is None:
        expected = sum(1 for fr in frames for k, _ in fr if not k)
    else:
        expected = sum(1 for fr in frames for k, r in fr if not k and r in reasons)
    assert cm.dropped_frames(reasons) == expected


def test_empty_mask_ratio_is_zero():
    assert make_mask({}).deletion_ratio() == 0.0


def test_mask_round_trip(tmp_path):
    cm = make_mask({
        "a": _fields(),
        "b": _fields(keep=(0, 0, 1, 1), reason=("both", "duplicate", "", "")),
    })
    write_masks(cm, tmp_path)
    assert (tmp_path / "masks" / "a.json").is_file()
    back = read_masks(tmp_path / "masks")
    assert back.ids == ("a", "b") and back.bounds.tolist() == [0, 3, 7]
    for field in ("keep", "reason", "subopt_score", "dup_similarity"):
        assert getattr(back, field).dtype == getattr(cm, field).dtype
        np.testing.assert_array_equal(getattr(back, field), getattr(cm, field))


def test_mask_files_are_valid_sorted_json(tmp_path):
    write_masks(_masks("a"), tmp_path)
    text = (tmp_path / "masks" / "a.json").read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert doc["format_version"] == 1


@pytest.mark.parametrize("field, value", [
    ("subopt_score", np.nan), ("subopt_score", -np.inf), ("dup_similarity", np.inf),
])
def test_nonfinite_mask_is_rejected_before_writing(tmp_path, field, value):
    bad = _masks("b")
    getattr(bad, field)[1] = value
    with pytest.raises(NonFiniteValue, match="mask of trajectory 'b' frame 1"):
        write_masks(bad, tmp_path)
    assert not (tmp_path / "masks" / "b.json").exists()


@given(
    keep=st.lists(st.booleans(), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_mask_round_trip_property(tmp_path_factory, keep, seed):
    rng = np.random.default_rng(seed)
    n = len(keep)
    reasons = ["" if k else rng.choice(["suboptimal", "duplicate", "both"]) for k in keep]
    cm = make_mask({"t": (np.array(keep), reasons, rng.normal(size=n), rng.uniform(-2, 1, n))})
    root = tmp_path_factory.mktemp("masks")
    write_masks(cm, root)
    back = read_masks(root / "masks")
    np.testing.assert_array_equal(back.keep, cm.keep)
    np.testing.assert_array_equal(back.reason, cm.reason)
    # JSON float text round-trips IEEE doubles exactly
    np.testing.assert_array_equal(back.subopt_score, cm.subopt_score)
    np.testing.assert_array_equal(back.dup_similarity, cm.dup_similarity)


def json_dumps_masks(mask):
    """The mask files as the ``json`` encoder writes them: the byte-level
    reference for ``write_masks``' token-built text."""
    docs = {}
    for traj_id, part in mask.frames():
        keep, reason, subopt_score, dup_similarity = _part(mask, traj_id)
        docs[traj_id] = json.dumps({
            "format_version": 1,
            "id": traj_id,
            "keep": keep.astype(int).tolist(),
            "reason": [REASONS[c] for c in reason.tolist()],
            "subopt_score": subopt_score.tolist(),
            "dup_similarity": dup_similarity.tolist(),
        }, sort_keys=True, allow_nan=False) + "\n"
    return docs


_BOUNDARY_FLOATS = [
    0.0, -0.0, 1.0, -1.0, -2.0, 0.1, 1e16, 9999999999999998.0, 1e-5, 1.0000000000000002e-05,
    9.999999999999999e-06, 1e15, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
]
_mask_floats = st.lists(
    st.sampled_from(_BOUNDARY_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
    max_size=40,
)


@given(
    columns=st.lists(st.tuples(_mask_floats, st.integers(0, 2**16)), min_size=1, max_size=3),
    ids=st.lists(st.sampled_from(["t0", "plain-id_1.x", "..."]),
                 min_size=3, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_write_masks_equals_json_encoder_bytes(tmp_path_factory, columns, ids):
    parts = {}
    for traj_id, (values, seed) in zip(ids, columns):
        rng = np.random.default_rng(seed)
        n, scores = len(values), np.array(values, dtype=np.float64)
        # the dup column repeats at most three of the values, as chunk similarities do
        dup = scores[rng.integers(0, max(1, min(3, n)), size=n)]
        parts[traj_id] = (rng.random(n) < 0.5, rng.integers(0, 4, size=n), scores, dup)
    mask = make_mask(parts)
    root = tmp_path_factory.mktemp("masks")
    write_masks(mask, root)
    written = {p.stem: p.read_bytes() for p in (root / "masks").iterdir()}
    assert written == {k: v.encode() for k, v in json_dumps_masks(mask).items()}


def test_rewritten_masks_hold_only_the_new_run(tmp_path):
    write_masks(_masks("abcdef"), tmp_path)
    assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == [f"{t}.json" for t in "abcdef"]
    write_masks(_masks("wxyz"), tmp_path)
    assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == [f"{t}.json" for t in "wxyz"]
    assert [p.name for p in tmp_path.iterdir()] == ["masks"]  # no staging or retired directory
    assert read_masks(tmp_path / "masks").ids == tuple("wxyz")


def test_failed_mask_write_keeps_the_previous_masks(tmp_path, monkeypatch):
    write_masks(_masks("abc"), tmp_path)
    before = {p.name: p.read_bytes() for p in (tmp_path / "masks").iterdir()}
    write_text = Path.write_text

    def fail_on_y(path, *args, **kwargs):
        if path.name == "y.json":
            raise OSError(28, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_y)
    with pytest.raises(IoFailure, match="No space left"):
        write_masks(_masks("xyz"), tmp_path)
    assert {p.name: p.read_bytes() for p in (tmp_path / "masks").iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["masks"]


def test_failed_undo_keeps_the_previous_masks_in_the_staging_directory(tmp_path, monkeypatch):
    """The new masks/ fails to move in after the old one was set aside, and the
    undo fails too: nothing is deleted, the old masks stay in the staging directory."""
    write_masks(_masks("abc"), tmp_path)
    before = {p.name: p.read_bytes() for p in (tmp_path / "masks").iterdir()}
    replace, calls = os.replace, []

    def fail_from_the_second(src, dst):  # the first sets the old masks/ aside
        calls.append(src)
        if len(calls) >= 2:
            raise OSError(5, "Input/output error")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_from_the_second)
    with pytest.raises(IoFailure, match="Input/output error"):
        write_masks(_masks("xyz"), tmp_path)
    assert len(calls) == 3 and not (tmp_path / "masks").exists()
    (kept,) = (tmp_path / f".trajcurate-{os.getpid()}").glob("*/masks")
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


@pytest.mark.parametrize("unsafe", ["../escaped", ".", "..", "sub/ok", "", 'q"uote\\slé中'])
def test_mask_of_an_unsafe_id_writes_nothing(tmp_path, unsafe):
    """An id is a file name under masks/: one that is no plain file name is an
    IoFailure before anything is written, inside out/ or next to it."""
    out = tmp_path / "out"
    with pytest.raises(IoFailure, match="not filename-safe"):
        write_masks(make_mask({unsafe: _fields(), "ok": _fields()}), out)
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_mask_writes_no_file_of_any_mask(tmp_path):
    bad = _masks("ab")
    bad.dup_similarity[3 + 2] = np.nan
    with pytest.raises(NonFiniteValue, match="mask of trajectory 'b' frame 2"):
        write_masks(bad, tmp_path)
    assert not (tmp_path / "masks").exists()


@pytest.mark.parametrize("corrupt, error", [
    ("repeated_id", InvalidManifest),
    ("nan_score", NonFiniteValue),
    ("infinite_similarity", NonFiniteValue),
    ("overflowing_score", NonFiniteValue),
    ("numeric_reason", InvalidManifest),
    ("unknown_reason", InvalidManifest),
    ("short_reason", MaskShapeMismatch),
    ("string_keep", InvalidManifest),
    ("null_keep", InvalidManifest),
    ("float_keep", InvalidManifest),
    ("two_keep", InvalidManifest),
    ("kept_with_a_reason", InvalidManifest),
    ("dropped_without_a_reason", InvalidManifest),
])
def test_read_masks_rejects_corrupt_files(tmp_path, corrupt, error):
    """b.json holds keep (1, 0, 1) and reasons ("", "suboptimal", "") until one is corrupted."""
    write_masks(_masks("ab"), tmp_path)
    masks = tmp_path / "masks"
    doc = json.loads((masks / "b.json").read_text())
    if corrupt == "repeated_id":
        (masks / "z.json").write_text((masks / "a.json").read_text())
    elif corrupt in ("nan_score", "infinite_similarity", "overflowing_score"):
        token = {"nan_score": "NaN", "infinite_similarity": "-Infinity", "overflowing_score": "1e999"}
        text = (masks / "b.json").read_text()
        field = "dup_similarity" if corrupt == "infinite_similarity" else "subopt_score"
        head, rest = text.split(f'"{field}": [', 1)
        (masks / "b.json").write_text(f'{head}"{field}": [{token[corrupt]}, {rest.split(", ", 1)[1]}')
    elif corrupt.endswith("_keep"):
        doc["keep"] = {"string_keep": ["x", 0, 1], "null_keep": [None, 0, 1], "float_keep": [1.0, 0, 1],
                       "two_keep": [2, 0, 1]}[corrupt]
        (masks / "b.json").write_text(json.dumps(doc))
    else:
        doc["reason"] = {"numeric_reason": [0, 1, 0], "unknown_reason": ["", "bogus", ""],
                         "short_reason": [""], "kept_with_a_reason": ["duplicate", "suboptimal", ""],
                         "dropped_without_a_reason": ["", "", ""]}[corrupt]
        (masks / "b.json").write_text(json.dumps(doc))
    with pytest.raises(error, match="b.json" if corrupt != "repeated_id" else None):
        read_masks(masks)
