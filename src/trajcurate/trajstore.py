"""Trajectory dataset model, on-disk container, and curation masks.

Container layout::

    <root>/manifest.json
    <root>/trajectories/<id>.bin

``manifest.json`` carries ``format_version`` (=1), ``obs_dim``, ``action_dim``
and a ``trajectories`` index of ``{id, fps, num_frames, crc32}``, where ``crc32``
is ``zlib.crc32`` of the whole blob (an entry without it is an ``InvalidManifest``).
Each blob is ``TRJC`` magic, u32 LE format version, u32 LE frame count, then one
record per frame: ``obs_dim`` f32 LE followed by ``action_dim`` f32 LE, no padding.

A loaded dataset holds no frames: each pass reads a trajectory's blob into
fresh arrays when it needs the frames.

Per-frame curation masks (written by the scoring/dedup stages) live in
``<out>/masks/<id>.json``; in memory they are one :class:`CurationMask`
of dataset-wide arrays.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import struct
import tempfile
import time
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
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
_HEADER = struct.Struct("<4sII")  # magic, format version, frame count

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

    def __len__(self) -> int:
        return self.num_frames

    @property
    def num_frames(self) -> int:
        return self.obs.shape[0]

    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """``(obs, actions)`` for one pass. A stored trajectory reads them from its blob
        into one fresh array that the caller owns."""
        return self.obs, self.actions

    def validate(self, obs_dim: int, action_dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Checks fps and the frames, which it returns (``frames()``)."""
        if not 0 < self.fps < math.inf:
            raise InvalidManifest(f"trajectory '{self.id}': fps must be positive and finite, got {self.fps}")
        if self.num_frames == 0:
            raise InvalidManifest(f"trajectory '{self.id}': empty trajectory")
        obs, actions = self.frames()
        if obs.shape != (self.num_frames, obs_dim):
            raise DimensionMismatch(f"obs shape {obs.shape} != ({self.num_frames}, {obs_dim})", self.id)
        if actions.shape != (self.num_frames, action_dim):
            raise DimensionMismatch(f"action shape {actions.shape} != ({self.num_frames}, {action_dim})", self.id)
        for arr in (obs, actions):
            if not np.isfinite(arr).all():  # a whole-array test: ten times faster than by frame
                raise NonFiniteValue(f"trajectory '{self.id}'", int(np.argmin(np.isfinite(arr).all(axis=1))))
        return obs, actions


class StoredTrajectory(Trajectory):
    """A loaded trajectory whose frames stay in its blob. Every read checks the blob
    against the manifest (a ``TruncatedBlob`` or ``DimensionMismatch``); its crc32 is
    skipped while the file's identity is the one a read found it to match (``_read_blob``).
    ``obs`` and ``actions`` each read an owned copy."""

    def __init__(self, id: str, fps: float, num_frames: int, path: Path, dims: tuple[int, int], crc32: int):
        self.id, self.fps, self.path, self.dims, self.crc32 = id, fps, path, dims, crc32
        self._num_frames, self._checked = num_frames, None

    num_frames = property(lambda self: self._num_frames)
    obs = property(lambda self: self.frames()[0].copy())
    actions = property(lambda self: self.frames()[1].copy())

    def __repr__(self) -> str:
        return f"StoredTrajectory(id={self.id!r}, fps={self.fps!r}, num_frames={self.num_frames}, path={self.path!r})"

    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            with open(self.path, "rb", buffering=0) as fh:
                flat, self._checked = _read_blob(fh, self.id, self.num_frames, self.dims, self.crc32, self._checked)
        except OSError as exc:
            raise TruncatedBlob(self.id, f"unreadable blob file: {exc.strerror}") from exc
        return flat[:, : self.dims[0]], flat[:, self.dims[0] :]

    def write(self, obs: np.ndarray, actions: np.ndarray) -> None:
        """Replace the blob's frames, recording its new crc32 (the next read checks it)."""
        self.crc32, self._checked = _write_blob(self.path, obs, actions), None


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

    def frame_bounds(self) -> np.ndarray:
        """int64 offset of each trajectory's first frame in dataset order, then the total."""
        return np.cumsum([0, *(t.num_frames for t in self.trajectories)], dtype=np.int64)

    def checked(self) -> Iterator[tuple[Trajectory, np.ndarray, np.ndarray]]:
        """Each trajectory with its frames, checked by ``Trajectory.validate``, one at a time;
        a repeated id is an ``InvalidManifest``."""
        seen: set[str] = set()
        for traj in self.trajectories:
            if traj.id in seen:
                raise InvalidManifest(f"duplicate trajectory id '{traj.id}'")
            seen.add(traj.id)
            yield traj, *traj.validate(self.obs_dim, self.action_dim)

    def validate(self) -> None:
        """Checks ids, fps and every trajectory's frames, reading each blob once."""
        for _ in self.checked():
            pass


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


def _write_blob(path: Path, obs: np.ndarray, actions: np.ndarray) -> int:
    """Write one trajectory's blob; returns its crc32."""
    header = _HEADER.pack(BLOB_MAGIC, FORMAT_VERSION, obs.shape[0])
    payload = np.concatenate([obs, actions], axis=1, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return zlib.crc32(payload, zlib.crc32(header))


def _read_blob(fh, traj_id: str, num_frames: int, dims: tuple[int, int], crc: int,
               checked: tuple | None = None) -> tuple[np.ndarray, tuple | None]:
    """A blob's (frames, obs_dim + action_dim) f32 rows, read from the open file ``fh`` into
    an array made once the file's size matches the manifest, and the file's identity (inode,
    size, mtime, ctime) for a later read to pass as ``checked``: the crc32 is skipped while
    the identity is that one. An identity changed in the last 2 s is not returned, as a
    rewrite within the file system's timestamp granularity could keep it."""
    row, header, st = sum(dims), bytearray(_HEADER.size), os.fstat(fh.fileno())
    expected, identity = num_frames * row * 4, (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    size = st.st_size - _HEADER.size
    got = fh.readinto(header) - _HEADER.size
    if size == expected and got == 0:
        payload = np.empty(size, np.uint8)
        got = fh.readinto(payload)
    if got < 0 or header[:4] != BLOB_MAGIC:
        raise TruncatedBlob(traj_id, "bad or missing TRJC header")
    _, version, n = _HEADER.unpack(header)
    if version != FORMAT_VERSION:
        raise TruncatedBlob(traj_id, f"unsupported blob format_version {version}")
    if n != num_frames:
        raise TruncatedBlob(traj_id, f"blob declares {n} frames, manifest {num_frames}")
    if size != expected and size % (4 * num_frames) == 0:
        # A whole number of same-width rows of the wrong width is a dimension
        # problem; anything else is truncation/corruption.
        raise DimensionMismatch(f"blob rows have {size // (4 * num_frames)} floats, manifest declares {row}", traj_id)
    if size == expected:
        size = got  # short if the blob shrank since the fstat
    if size != expected:
        raise TruncatedBlob(traj_id, f"payload {size} bytes, expected {expected}")
    if identity != checked and zlib.crc32(payload, zlib.crc32(header)) != crc:
        raise TruncatedBlob(traj_id, "frames do not match the manifest's crc32")
    return payload.view("<f4").reshape(num_frames, row), identity if time.time_ns() - st.st_ctime_ns > 2e9 else None


def save_dataset(ds: Dataset, root_path: str | os.PathLike) -> Dataset:
    """Write the manifest + one blob per trajectory, staged, reading, checking and writing
    one trajectory at a time; round-trips bit-exactly. Returns the saved dataset, whose
    trajectories are read from ``root_path`` (``StoredTrajectory``)."""
    blobs, dims = Path(root_path).absolute() / "trajectories", (ds.obs_dim, ds.action_dim)
    saved = Dataset([], ds.obs_dim, ds.action_dim, ds.meta)
    with staged_outputs(root_path) as stage:
        (stage / "trajectories").mkdir()
        for traj, obs, actions in ds.checked():
            if not _ID_RE.fullmatch(traj.id):
                raise IoFailure(f"trajectory id '{traj.id}' is not filename-safe")
            crc = _write_blob(stage / "trajectories" / f"{traj.id}.bin", obs, actions)
            saved.trajectories.append(StoredTrajectory(traj.id, traj.fps, traj.num_frames, blobs / f"{traj.id}.bin",
                                                       dims, crc))
        write_manifest(stage, saved)
    return saved


def write_manifest(root_path: str | os.PathLike, ds: Dataset) -> None:
    """``manifest.json`` in ``root_path`` for a dataset stored there with each blob's crc32."""
    write_json(Path(root_path) / "manifest.json", {
        "format_version": FORMAT_VERSION,
        "obs_dim": ds.obs_dim,
        "action_dim": ds.action_dim,
        "meta": ds.meta,
        "trajectories": [{"id": t.id, "fps": t.fps, "num_frames": t.num_frames, "crc32": t.crc32}
                         for t in ds.trajectories],
    })


def _number(entry: dict, key: str, kind: type):
    """``kind(entry[key])``; a value it does not take is an ``InvalidManifest``."""
    try:
        return kind(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidManifest(f"manifest '{key}' is not a number: {entry[key]!r}") from exc


def load_dataset(root_path: str | os.PathLike) -> Dataset:
    """Load and validate a dataset container, reading each blob once: rejects dimension
    mismatches, truncated or changed blobs and non-finite values. The trajectories hold
    no frames (``StoredTrajectory``)."""
    root = Path(root_path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise MissingManifest(str(root))
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, OSError) as exc:  # a JSONDecodeError or UnicodeDecodeError is a ValueError
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

    blobs = root.absolute() / "trajectories"  # the reads come later, maybe from another cwd

    def load_one(entry: dict) -> StoredTrajectory:
        for key in ("id", "fps", "num_frames"):
            if not isinstance(entry, dict) or key not in entry:
                raise InvalidManifest(f"trajectory entry missing '{key}'")
        traj_id = str(entry["id"])
        if not _ID_RE.fullmatch(traj_id):
            raise InvalidManifest(f"trajectory id '{traj_id}' is not a plain file name")
        num_frames, fps = _number(entry, "num_frames", int), _number(entry, "fps", float)
        if num_frames <= 0:
            raise InvalidManifest(f"trajectory '{traj_id}': num_frames must be positive")
        if "crc32" not in entry:
            raise InvalidManifest(f"trajectory '{traj_id}' records no crc32: re-run gen to rewrite the dataset")
        return StoredTrajectory(traj_id, fps, num_frames, blobs / f"{traj_id}.bin", (obs_dim, action_dim),
                                _number(entry, "crc32", int))

    ds = Dataset(
        trajectories=[load_one(e) for e in manifest["trajectories"]],
        obs_dim=obs_dim,
        action_dim=action_dim,
        meta=manifest.get("meta", {}),
    )
    ds.validate()
    return ds


# --- output commits -------------------------------------------------------------


def write_json(path: str | os.PathLike, payload: dict) -> None:
    """``payload`` as JSON with sorted keys, two-space indents and a final newline, streamed:
    the indenting encoder's pieces of a large manifest take several times its text. Write
    inside ``staged_outputs``, which makes an ``OSError`` an ``IoFailure``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextmanager
def staged_outputs(root_path: str | os.PathLike) -> Iterator[Path]:
    """Yield an empty staging directory ``root/.trajcurate-<pid>``; on a clean exit,
    move each entry written there into ``root`` in place of the entry of that name.

    A staged file whose target is a directory, or the reverse, raises ``IoFailure``
    before anything moves. Replaced entries are set aside in the staging directory. If a
    move fails, the moves made are undone, so ``root`` holds all of the new entries or all
    of the old ones. ``OSError`` becomes ``IoFailure``. The staging directory goes on every
    path but one: an undo that fails too leaves it, with what it could not put back.
    """
    root = Path(root_path)
    stage, undone = root / f".trajcurate-{os.getpid()}", True
    try:
        root.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(stage, ignore_errors=True)  # left by a killed run with the same pid
        stage.mkdir()
        yield stage
        moves, retired = [], Path(tempfile.mkdtemp(dir=stage))
        for name in sorted(set(os.listdir(stage)) - {retired.name}):
            if os.path.lexists(root / name):
                if (root / name).is_dir() != (stage / name).is_dir():
                    raise IoFailure(f"{root / name} is {'' if (root / name).is_dir() else 'not '}a directory")
                moves.append((root / name, retired / name))
            moves.append((stage / name, root / name))
        done = 0
        try:
            for done, (source, target) in enumerate(moves):
                os.replace(source, target)
        except OSError:
            undone = False
            for source, target in reversed(moves[:done]):
                os.replace(target, source)
            undone = True
            raise
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    finally:
        if undone:
            shutil.rmtree(stage, ignore_errors=True)


# --- curation masks -----------------------------------------------------------

# A frame's reason code is its index here: the bit-or of SUBOPTIMAL and
# DUPLICATE, 0 for a kept frame.
REASONS = ("", "suboptimal", "duplicate", "both")
SUBOPTIMAL = 1
DUPLICATE = 2
_REASON_NAMES = np.array(REASONS)
_REASON_CODES = {name: code for code, name in enumerate(REASONS)}
_MASK_FLOATS_AND_FLAGS = (("keep", bool), ("subopt_score", np.float64), ("dup_similarity", np.float64))
# dup_similarity values that are no cosine, as CurationMask defines them
UNCHUNKED_SENTINEL = -1.0
SINGLETON_SENTINEL = -2.0


def _reason_codes(reason) -> np.ndarray:
    """Per-frame reasons as uint8; they must be integer codes into ``REASONS``."""
    given = np.asarray(reason)
    if given.dtype.kind not in "iu" and given.size:
        raise MaskShapeMismatch(f"mask reasons of dtype {given.dtype}: codes into REASONS are needed")
    bad = (given < 0) | (given >= len(REASONS))
    if bad.any():
        raise MaskShapeMismatch(f"invalid mask reasons {sorted(set(given[bad].tolist()))}")
    return given.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class CurationMask:
    """Per-frame keep/drop decisions with provenance for a whole dataset, as
    parallel arrays: trajectory ``ids[i]`` owns frames ``bounds[i]`` to
    ``bounds[i + 1]`` of each per-frame array. ``reason`` holds codes into
    ``REASONS``. ``dup_similarity`` is ``UNCHUNKED_SENTINEL`` (−1) on frames not
    covered by any chunk and ``SINGLETON_SENTINEL`` (−2) on frames whose chunk
    sits alone in its cluster.
    """

    ids: tuple[str, ...]         # unique, in dataset order
    bounds: np.ndarray           # (len(ids) + 1,) int64 frame offsets from 0
    keep: np.ndarray             # (frames,) bool
    reason: np.ndarray           # (frames,) uint8 code into REASONS
    subopt_score: np.ndarray     # (frames,) float64
    dup_similarity: np.ndarray   # (frames,) float64

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "reason", _reason_codes(self.reason))
        for name, kind in (("bounds", np.int64), *_MASK_FLOATS_AND_FLAGS):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=kind))
        b, frames = self.bounds, (self.keep, self.reason, self.subopt_score, self.dup_similarity)
        if (len(set(self.ids)) != len(self.ids) or b.shape != (len(self.ids) + 1,) or b[0] != 0
                or (np.diff(b) < 0).any() or any(a.shape != (b[-1],) for a in frames)):
            raise MaskShapeMismatch(f"mask of {len(self.ids)} trajectories: the ids must be unique, "
                                    f"the bounds rise from 0 to each field's frame count")

    @property
    def total_frames(self) -> int:
        return self.keep.shape[0]

    def frames(self) -> list[tuple[str, slice]]:
        """``(id, slice of the per-frame arrays)`` per trajectory, in id order."""
        b = self.bounds.tolist()
        return sorted(zip(self.ids, map(slice, b, b[1:])))

    def dropped(self, reasons: tuple[str, ...] | None = None) -> np.ndarray:
        """Per-frame drop flags, limited to drops whose reason is named in
        ``reasons`` when it is given."""
        drop = ~self.keep
        if reasons is not None:
            drop &= np.isin(_REASON_NAMES, reasons)[self.reason]
        return drop

    def reason_counts(self) -> np.ndarray:
        """Dropped frames per reason code, in ``REASONS`` order."""
        return np.bincount(self.reason[~self.keep], minlength=len(REASONS))

    def dropped_frames(self, reasons: tuple[str, ...] | None = None) -> int:
        return int(self.dropped(reasons).sum())

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

    The text is ``json.dumps(doc, sort_keys=True, allow_nan=False)`` of the trajectory's
    slice of each field as a list, built by ``_json_list``. Before any file is written, an
    id that is no plain file name raises ``IoFailure``, since it names a file, and a NaN
    or Inf score ``NonFiniteValue``, since JSON has no token for either. ``masks/``
    is committed whole through ``staged_outputs``, so a re-run leaves no mask of an
    earlier run, and a failed write leaves the previous ``masks/`` as it was.
    """
    unsafe = next((t for t in mask.ids if not _ID_RE.fullmatch(t)), None)
    if unsafe is not None:
        raise IoFailure(f"trajectory id '{unsafe}' is not filename-safe")
    finite = np.isfinite(mask.subopt_score) & np.isfinite(mask.dup_similarity)
    if not finite.all():
        traj_id, part = next((t, p) for t, p in mask.frames() if not finite[p].all())
        raise NonFiniteValue(f"mask of trajectory '{traj_id}'", int(np.argmin(finite[part])))
    with staged_outputs(out_dir) as stage:
        (stage / "masks").mkdir()
        for traj_id, part in mask.frames():
            (stage / "masks" / f"{traj_id}.json").write_text(
                f'{{"dup_similarity": {_json_list(mask.dup_similarity[part])}, "format_version": '
                f'{FORMAT_VERSION}, "id": {json.dumps(traj_id)}, "keep": '
                f'{_json_list(mask.keep[part], ("0", "1"))}, "reason": '
                f'{_json_list(mask.reason[part], _REASON_TOKENS)}, '
                f'"subopt_score": {_json_list(mask.subopt_score[part])}}}\n'
            )


def read_masks(masks_dir: str | os.PathLike) -> CurationMask:
    """Load every ``*.json`` mask in a directory, in file-name order. Two files
    with one id, a ``keep`` entry other than 0, 1, true or false, or a reason that is
    not ``""`` exactly on the kept frames are an ``InvalidManifest``, a NaN or Inf score
    a ``NonFiniteValue``."""
    files: dict[str, Path] = {}  # id -> the file that holds it
    columns = ([], [], [], [])   # keep, subopt_score, dup_similarity, reason codes
    for path in sorted(Path(masks_dir).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            # keep is read in its JSON types, so that an entry other than 0 or 1 shows below
            fields = [np.array(doc[key], dtype=kind) for key, kind in (("keep", None), *_MASK_FLOATS_AND_FLAGS[1:])]
            # names to codes through one dict lookup at C speed; an unknown name is a KeyError
            fields.append(np.fromiter(map(_REASON_CODES.__getitem__, doc["reason"]), np.uint8))
            if files.setdefault(doc["id"], path) != path:
                raise InvalidManifest(f"{path}: id {doc['id']!r} repeats the id of {files[doc['id']]}")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidManifest(f"{path}: malformed mask: {exc!r}") from exc
        if any(a.shape != fields[3].shape for a in fields):
            raise MaskShapeMismatch(f"{path}: mask fields must be lists of one length")
        keep = fields[0]
        if keep.size and (keep.dtype.kind not in "biu" or ((keep != 0) & (keep != 1)).any()):
            raise InvalidManifest(f"{path}: keep entries must be 0, 1, true or false")
        fields[0] = keep = keep.astype(bool)
        if ((fields[3] == 0) != keep).any():
            raise InvalidManifest(f'{path}: the reason must be "" on exactly the kept frames')
        finite = np.isfinite(fields[1]) & np.isfinite(fields[2])
        if not finite.all():
            raise NonFiniteValue(f"mask {path}", int(np.argmin(finite)))
        for column, a in zip(columns, fields):
            column.append(a)
    keep, subopt, dup, reason = (np.concatenate([np.empty(0, kind), *column])
                                 for column, kind in zip(columns, (bool, np.float64, np.float64, np.uint8)))
    return CurationMask(tuple(files), np.cumsum([0, *map(len, columns[0])]), keep, reason, subopt, dup)
