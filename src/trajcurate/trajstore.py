"""Trajectory dataset model, on-disk container, and curation masks.

Container layout::

    <root>/manifest.json
    <root>/trajectories/<id>.bin

``manifest.json`` carries ``format_version`` (=1), ``obs_dim``, ``action_dim``
and a ``trajectories`` index of ``{id, fps, num_frames, labels?}``. Each blob
is ``TRJC`` magic, u32 LE format version, u32 LE frame count, then one record
per frame: ``obs_dim`` f32 LE followed by ``action_dim`` f32 LE, no padding.

Per-frame curation masks (written by the scoring/dedup stages) live in
``<out>/masks/<id>.json``; see :class:`TrajectoryMask`.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    InvalidManifest,
    IoFailure,
    MaskShapeMismatch,
    MissingManifest,
    NonFiniteValue,
    TruncatedBlob,
)

FORMAT_VERSION = 1
BLOB_MAGIC = b"TRJC"

# Trajectory ids name files, so they must be plain file names: not "." or "..".
_ID_RE = re.compile(r"(?!\.\.?$)[A-Za-z0-9._-]+")


@dataclass
class Trajectory:
    """Ordered frames at a fixed control frequency.

    ``obs`` is (n, D) float32 and ``actions`` is (n, A) float32; frame ``i``
    occurs at wall-clock time ``i / fps`` seconds.
    """

    id: str
    fps: float
    obs: np.ndarray
    actions: np.ndarray
    labels: list[str] | None = None

    def __len__(self) -> int:
        return self.obs.shape[0]

    @property
    def num_frames(self) -> int:
        return self.obs.shape[0]

    def validate(self, obs_dim: int, action_dim: int) -> None:
        if not 0 < self.fps < math.inf:
            raise InvalidManifest(f"trajectory '{self.id}': fps must be positive and finite, got {self.fps}")
        if self.num_frames == 0:
            raise InvalidManifest(f"trajectory '{self.id}': empty trajectory")
        if self.obs.shape != (self.num_frames, obs_dim):
            raise DimensionMismatch(
                f"obs shape {self.obs.shape} != ({self.num_frames}, {obs_dim})", self.id
            )
        if self.actions.shape != (self.num_frames, action_dim):
            raise DimensionMismatch(
                f"action shape {self.actions.shape} != ({self.num_frames}, {action_dim})", self.id
            )
        for name, arr in (("obs", self.obs), ("action", self.actions)):
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                raise NonFiniteValue(f"trajectory '{self.id}'", int(np.argmin(finite)))
        if self.labels is not None and len(self.labels) != self.num_frames:
            raise InvalidManifest(
                f"trajectory '{self.id}': {len(self.labels)} labels for {self.num_frames} frames"
            )


@dataclass
class Dataset:
    """A collection of trajectories with uniform obs/action dimensions."""

    trajectories: list[Trajectory]
    obs_dim: int
    action_dim: int
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def total_frames(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def validate(self) -> None:
        seen: set[str] = set()
        for traj in self.trajectories:
            if traj.id in seen:
                raise InvalidManifest(f"duplicate trajectory id '{traj.id}'")
            seen.add(traj.id)
            traj.validate(self.obs_dim, self.action_dim)


def seconds_to_frames(seconds: float, fps: float) -> int:
    """Convert a duration to a frame count, rounding half up, floor 1. A
    count beyond int64 is a ``ConfigError``."""
    if seconds <= 0 or fps <= 0:
        raise ValueError("seconds and fps must be positive")
    frames = seconds * fps + 0.5
    if not frames < 2**63:
        raise ConfigError(f"{seconds} s at {fps} fps is more frames than can be counted")
    return max(1, int(math.floor(frames)))


# --- container i/o ------------------------------------------------------------


def _write_blob(path: Path, traj: Trajectory) -> None:
    payload = np.concatenate(
        [traj.obs.astype(np.float32, copy=False), traj.actions.astype(np.float32, copy=False)],
        axis=1,
    )
    with open(path, "wb") as fh:
        fh.write(BLOB_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, traj.num_frames))
        fh.write(payload.astype("<f4").tobytes())


def _read_blob(path: Path, traj_id: str, obs_dim: int, action_dim: int, num_frames: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise TruncatedBlob(traj_id, "blob file missing")
    if len(raw) < 12 or raw[:4] != BLOB_MAGIC:
        raise TruncatedBlob(traj_id, "bad or missing TRJC header")
    version, n = struct.unpack("<II", raw[4:12])
    if version != FORMAT_VERSION:
        raise TruncatedBlob(traj_id, f"unsupported blob format_version {version}")
    if n != num_frames:
        raise TruncatedBlob(traj_id, f"blob declares {n} frames, manifest {num_frames}")
    payload = raw[12:]
    row = obs_dim + action_dim
    expected = num_frames * row * 4
    if len(payload) != expected:
        # A whole number of same-width rows of the wrong width is a dimension
        # problem; anything else is truncation/corruption.
        if (
            num_frames > 0
            and len(payload) % (4 * num_frames) == 0
            and len(payload) // (4 * num_frames) != row
        ):
            raise DimensionMismatch(
                f"blob rows have {len(payload) // (4 * num_frames)} floats, manifest "
                f"declares {row}",
                traj_id,
            )
        raise TruncatedBlob(traj_id, f"payload {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f4").reshape(num_frames, row)
    obs = np.ascontiguousarray(flat[:, :obs_dim])
    actions = np.ascontiguousarray(flat[:, obs_dim:])
    return obs, actions


def save_dataset(ds: Dataset, root_path: str | os.PathLike) -> None:
    """Write the manifest + one blob per trajectory; round-trips bit-exactly."""
    ds.validate()
    root = Path(root_path)
    try:
        (root / "trajectories").mkdir(parents=True, exist_ok=True)
        index = []
        for traj in ds.trajectories:
            if not _ID_RE.fullmatch(traj.id):
                raise IoFailure(f"trajectory id '{traj.id}' is not filename-safe")
            entry = {"id": traj.id, "fps": traj.fps, "num_frames": traj.num_frames}
            if traj.labels is not None:
                entry["labels"] = traj.labels
            index.append(entry)
            _write_blob(root / "trajectories" / f"{traj.id}.bin", traj)
        manifest = {
            "format_version": FORMAT_VERSION,
            "obs_dim": ds.obs_dim,
            "action_dim": ds.action_dim,
            "meta": ds.meta,
            "trajectories": index,
        }
        with open(root / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _number(entry: dict, key: str, kind: type):
    """``kind(entry[key])``; a value it does not take is an ``InvalidManifest``."""
    try:
        return kind(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidManifest(f"manifest '{key}' is not a number: {entry[key]!r}") from exc


def load_dataset(root_path: str | os.PathLike) -> Dataset:
    """Load and validate a dataset container: rejects dimension mismatches,
    truncated blobs and non-finite values."""
    root = Path(root_path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise MissingManifest(str(root))
    seen: dict[str, str] = {}

    def share_labels(entry: dict) -> dict:
        # one string per distinct label, shared as each entry is parsed
        labels = entry.get("labels")
        if isinstance(labels, list) and set(map(type, labels)) <= {str}:
            entry["labels"] = list(map(seen.setdefault, labels, labels))
        return entry

    try:
        manifest = json.loads(manifest_path.read_text(), object_hook=share_labels)
    except (json.JSONDecodeError, OSError) as exc:
        raise InvalidManifest(f"unreadable manifest: {exc}") from exc
    for key in ("format_version", "obs_dim", "action_dim", "trajectories"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise InvalidManifest(f"manifest missing '{key}'")
    if manifest["format_version"] != FORMAT_VERSION:
        raise InvalidManifest(f"unsupported format_version {manifest['format_version']}")
    obs_dim = _number(manifest, "obs_dim", int)
    action_dim = _number(manifest, "action_dim", int)
    if obs_dim <= 0 or action_dim <= 0:
        raise InvalidManifest("obs_dim and action_dim must be positive")
    if not isinstance(manifest["trajectories"], list):
        raise InvalidManifest("manifest 'trajectories' is not a list")

    def load_one(entry: dict) -> Trajectory:
        for key in ("id", "fps", "num_frames"):
            if not isinstance(entry, dict) or key not in entry:
                raise InvalidManifest(f"trajectory entry missing '{key}'")
        traj_id = str(entry["id"])
        if not _ID_RE.fullmatch(traj_id):
            raise InvalidManifest(f"trajectory id '{traj_id}' is not a plain file name")
        num_frames, fps = _number(entry, "num_frames", int), _number(entry, "fps", float)
        if num_frames <= 0:
            raise InvalidManifest(f"trajectory '{traj_id}': num_frames must be positive")
        labels = entry.get("labels")
        if labels is not None and not (isinstance(labels, list) and set(map(type, labels)) <= {str}):
            raise InvalidManifest(f"trajectory '{traj_id}': labels must be a list of strings")
        obs, actions = _read_blob(
            root / "trajectories" / f"{traj_id}.bin", traj_id, obs_dim, action_dim, num_frames
        )
        return Trajectory(id=traj_id, fps=fps, obs=obs, actions=actions, labels=labels)

    ds = Dataset(
        trajectories=[load_one(e) for e in manifest["trajectories"]],
        obs_dim=obs_dim,
        action_dim=action_dim,
        meta=manifest.get("meta", {}),
    )
    ds.validate()
    return ds


# --- curation masks -----------------------------------------------------------

# A frame's reason code is its index here: the bit-or of SUBOPTIMAL and
# DUPLICATE, 0 for a kept frame.
REASONS = ("", "suboptimal", "duplicate", "both")
SUBOPTIMAL = 1
DUPLICATE = 2
_REASON_NAMES = np.array(REASONS)


def _reason_codes(reason, traj_id: str) -> np.ndarray:
    """uint8 codes of per-frame reasons given as names or as codes."""
    given = np.asarray(reason)
    if given.dtype.kind in "US":
        match = given[..., None] == _REASON_NAMES
        bad, codes = ~match.any(axis=-1), match.argmax(axis=-1)
    elif given.dtype.kind in "iu" or given.size == 0:
        bad, codes = (given < 0) | (given >= len(REASONS)), given
    else:
        raise MaskShapeMismatch(f"trajectory '{traj_id}': reasons of dtype {given.dtype}")
    if bad.any():
        raise MaskShapeMismatch(
            f"trajectory '{traj_id}': invalid reasons {sorted(set(given[bad].tolist()))}"
        )
    return codes.astype(np.uint8, copy=False)


@dataclass
class TrajectoryMask:
    """Per-frame keep/drop decisions with provenance for one trajectory.

    ``reason`` may be given as names from ``REASONS`` or as their codes and
    is stored as a uint8 code array. ``dup_similarity`` is −1 on frames not
    covered by any chunk and −2 on frames whose chunk sits alone in its
    cluster.
    """

    traj_id: str
    keep: np.ndarray
    reason: np.ndarray
    subopt_score: np.ndarray
    dup_similarity: np.ndarray

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)
        self.reason = _reason_codes(self.reason, self.traj_id)
        self.subopt_score = np.asarray(self.subopt_score, dtype=np.float64)
        self.dup_similarity = np.asarray(self.dup_similarity, dtype=np.float64)
        arrays = (self.keep, self.reason, self.subopt_score, self.dup_similarity)
        if any(a.ndim != 1 for a in arrays) or len({a.shape[0] for a in arrays}) != 1:
            raise MaskShapeMismatch(
                f"trajectory '{self.traj_id}': mask fields must be lists of one length"
            )

    @classmethod
    def keep_all(cls, traj_id: str, n: int) -> "TrajectoryMask":
        return cls(
            traj_id=traj_id,
            keep=np.ones(n, dtype=bool),
            reason=np.zeros(n, dtype=np.uint8),
            subopt_score=np.zeros(n),
            dup_similarity=np.full(n, -1.0),
        )

    def dropped(self, reasons: tuple[str, ...] | None = None) -> np.ndarray:
        """Per-frame drop flags, limited to drops whose reason is named in
        ``reasons`` when it is given."""
        drop = ~self.keep
        if reasons is not None:
            drop &= np.isin(_REASON_NAMES, reasons)[self.reason]
        return drop


@dataclass
class CurationMask:
    """Masks for a whole dataset, keyed by trajectory id."""

    masks: dict[str, TrajectoryMask]

    def __getitem__(self, traj_id: str) -> TrajectoryMask:
        return self.masks[traj_id]

    @property
    def total_frames(self) -> int:
        return sum(m.keep.shape[0] for m in self.masks.values())

    def reason_counts(self) -> np.ndarray:
        """Dropped frames per reason code, in ``REASONS`` order, over every
        trajectory."""
        counts = np.zeros(len(REASONS), dtype=np.int64)
        for m in self.masks.values():
            counts += np.bincount(m.reason[~m.keep], minlength=len(REASONS))
        return counts

    def dropped_frames(self, reasons: tuple[str, ...] | None = None) -> int:
        counts = self.reason_counts()
        return int((counts if reasons is None else counts[np.isin(_REASON_NAMES, reasons)]).sum())

    def deletion_ratio(self, reasons: tuple[str, ...] | None = None) -> float:
        total = self.total_frames
        return self.dropped_frames(reasons) / total if total else 0.0


_REASON_TOKENS = tuple(map(json.dumps, REASONS))


def _json_list(index: np.ndarray, tokens=None) -> str:
    """JSON text of ``[tokens[i] for i in index]``, or of a finite float64 ``index``
    whose distinct bit patterns are each formatted once by json's ``float.__repr__``."""
    if tokens is None:
        bits, index = np.unique(index.view(np.uint64), return_inverse=True)
        tokens = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return "[" + ", ".join(map(tokens.__getitem__, index.tolist())) + "]"


def write_masks(mask: CurationMask, out_dir: str | os.PathLike) -> None:
    """Write one ``masks/<id>.json`` per trajectory under ``out_dir``, and no other.

    The text is ``json.dumps(doc, sort_keys=True, allow_nan=False)`` of the fields
    as lists, built by ``_json_list``. A NaN or Inf score raises ``NonFiniteValue``
    before any file is written: JSON has no token for either. The files go into a
    sibling directory that then replaces ``masks/``, so a re-run leaves no mask of
    an earlier run, and a failed write leaves the previous ``masks/`` as it was.
    """
    for traj_id, m in sorted(mask.masks.items()):
        finite = np.isfinite(m.subopt_score) & np.isfinite(m.dup_similarity)
        if not finite.all():
            raise NonFiniteValue(f"mask of trajectory '{traj_id}'", int(np.argmin(finite)))
    out = Path(out_dir)
    masks_dir, staging = out / "masks", out / f".masks-{os.getpid()}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(staging, ignore_errors=True)  # left by a killed run with the same pid
        (staging / "new").mkdir(parents=True)
        for traj_id, m in sorted(mask.masks.items()):
            (staging / "new" / f"{traj_id}.json").write_text(
                f'{{"dup_similarity": {_json_list(m.dup_similarity)}, "format_version": '
                f'{FORMAT_VERSION}, "id": {json.dumps(traj_id)}, "keep": '
                f'{_json_list(m.keep, ("0", "1"))}, "reason": {_json_list(m.reason, _REASON_TOKENS)}, '
                f'"subopt_score": {_json_list(m.subopt_score)}}}\n'
            )
        if masks_dir.exists():
            masks_dir.rename(staging / "old")
        (staging / "new").rename(masks_dir)
    except OSError as exc:
        if (staging / "old").exists() and not masks_dir.exists():
            (staging / "old").rename(masks_dir)
        raise IoFailure(str(exc)) from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def read_masks(masks_dir: str | os.PathLike) -> CurationMask:
    """Load every ``*.json`` mask in a directory."""
    masks: dict[str, TrajectoryMask] = {}
    for path in sorted(Path(masks_dir).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            m = TrajectoryMask(
                traj_id=doc["id"],
                keep=np.array(doc["keep"], dtype=bool),
                reason=np.array(doc["reason"], dtype=str),
                subopt_score=np.array(doc["subopt_score"], dtype=np.float64),
                dup_similarity=np.array(doc["dup_similarity"], dtype=np.float64),
            )
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidManifest(f"{path}: malformed mask: {exc!r}") from exc
        masks[m.traj_id] = m
    return CurationMask(masks=masks)
