"""Strict JSON pipeline configuration.

One file configures every subcommand; sections map onto the per-stage
config dataclasses. Unknown keys are rejected rather than ignored, so a
typo cannot silently fall back to a default. Command-line flags override
file values.

The top level takes ``data``, ``out`` and ``seed``. Each section takes the
fields of its dataclass: ``subopt`` those of ``SuboptConfig``, ``dedup`` of
``DedupConfig``, ``synth`` of ``SynthConfig`` except ``_UNEXPOSED_SYNTH``, and
``train`` those of ``TrainConfig`` and ``SamplingConfig`` plus
``hidden_sizes``. All keys are optional; defaults are in docs/config.md.

A top-level ``seed`` fills in any section seed that the file leaves unset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dedup import DedupConfig
from .errors import ConfigError
from .nn import TrainConfig
from .progress import SamplingConfig
from .subopt import SuboptConfig
from .synthgen import SynthConfig

# Generator geometry that the config file does not expose.
_UNEXPOSED_SYNTH = {"phase_turns", "context_scale"}


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


# The train section's seed is TrainConfig's; sampling takes the same value.
_SAMPLING_KEYS = _field_names(SamplingConfig) - {"seed"}
_SECTION_KEYS = {
    "subopt": _field_names(SuboptConfig),
    "dedup": _field_names(DedupConfig),
    "train": _field_names(TrainConfig) | _SAMPLING_KEYS | {"hidden_sizes"},
    "synth": _field_names(SynthConfig) - _UNEXPOSED_SYNTH,
}


@dataclass
class PipelineConfig:
    data: str | None = None
    out: str | None = None
    seed: int = 0
    subopt: SuboptConfig = field(default_factory=SuboptConfig)
    dedup: DedupConfig = field(default_factory=DedupConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    hidden_sizes: tuple[int, ...] = (64, 64)


def _section(raw: dict, name: str) -> dict:
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = set(sec) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
    return dict(sec)


def _build(cls, kwargs: dict, name: str):
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid '{name}' config: {exc}") from exc


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed_top = {"data", "out", "seed", *_SECTION_KEYS}
    unknown = set(raw) - allowed_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("'seed' must be an integer")

    subopt_kw = _section(raw, "subopt")
    dedup_kw = _section(raw, "dedup")
    train_kw = _section(raw, "train")
    synth_kw = _section(raw, "synth")

    dedup_kw.setdefault("seed", seed)
    train_kw.setdefault("seed", seed)
    synth_kw.setdefault("seed", seed)

    hidden = train_kw.pop("hidden_sizes", [64, 64])
    if not (isinstance(hidden, (list, tuple)) and hidden
            and all(isinstance(h, int) and h > 0 for h in hidden)):
        raise ConfigError("'train.hidden_sizes' must be a list of positive integers")
    sampling_kw = {k: train_kw.pop(k) for k in _SAMPLING_KEYS if k in train_kw}
    sampling_kw["seed"] = train_kw.get("seed", seed)

    data = raw.get("data")
    out = raw.get("out")
    for key, value in (("data", data), ("out", out)):
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"'{key}' must be a string path")

    return PipelineConfig(
        data=data,
        out=out,
        seed=seed,
        subopt=_build(SuboptConfig, subopt_kw, "subopt"),
        dedup=_build(DedupConfig, dedup_kw, "dedup"),
        train=_build(TrainConfig, train_kw, "train"),
        sampling=_build(SamplingConfig, sampling_kw, "train"),
        synth=_build(SynthConfig, synth_kw, "synth"),
        hidden_sizes=tuple(hidden),
    )


def load_config(path: str | Path | None) -> PipelineConfig:
    """Parse a config file, or produce all-defaults when no path is given."""
    if path is None:
        return PipelineConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
