"""Exception hierarchy shared across the curation pipeline.

``ConfigError`` maps to CLI exit code 1 (usage/configuration problems);
every other ``CurationError`` maps to exit code 2 (data problems).
"""

from __future__ import annotations


class CurationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CurationError):
    """Invalid configuration: unknown keys, out-of-range values, bad types."""


# --- dataset container -------------------------------------------------------

class MissingManifest(CurationError):
    def __init__(self, root: str):
        super().__init__(f"no manifest.json under {root}")
        self.root = root


class InvalidManifest(CurationError):
    """Manifest present but structurally invalid."""


class TruncatedBlob(CurationError):
    def __init__(self, traj_id: str, detail: str = "payload shorter than declared"):
        super().__init__(f"trajectory blob '{traj_id}': {detail}")
        self.traj_id = traj_id


class DimensionMismatch(CurationError):
    """Vector length disagrees with the declared dataset dimensions."""

    def __init__(self, detail: str, traj_id: str | None = None):
        super().__init__(detail if traj_id is None else f"trajectory '{traj_id}': {detail}")
        self.traj_id = traj_id


class NonFiniteValue(CurationError):
    """NaN or Inf where only finite values are valid: ``where`` names the
    trajectory, mask or file, ``index`` its first bad frame or row."""

    def __init__(self, where: str, index: int, unit: str = "frame"):
        super().__init__(f"{where} {unit} {index} contains NaN/Inf")


class IoFailure(CurationError):
    pass


# --- classifier ---------------------------------------------------------------

class InvalidArchitecture(CurationError):
    pass


class LabelOutOfRange(CurationError):
    pass


class EmptyTrainingSet(CurationError):
    pass


# --- dedup --------------------------------------------------------------------

class EmptyInput(CurationError):
    pass


class KTooLarge(CurationError):
    def __init__(self, k: int, n: int):
        super().__init__(f"k={k} not in [1, {n}] (number of points)")
        self.k = k
        self.n = n


# --- calibration / evaluation -------------------------------------------------

class EmptyScores(CurationError):
    pass


class MaskShapeMismatch(CurationError):
    pass

