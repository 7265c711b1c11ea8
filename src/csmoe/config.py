"""Experiment configuration: every knob and every seed in one place.

All randomness in a run flows from the named seeds here; the configuration
hash covers exactly the fields that affect numerics, so two configs with the
same hash produce bit-identical runs. ``out_dir`` is cosmetic (where results
land) and is excluded from the hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Mapping

__all__ = [
    "VARIANTS",
    "StageSettings",
    "ExperimentConfig",
    "config_to_dict",
    "config_from_dict",
    "numeric_fields",
    "config_hash",
    "config_diff",
]

VARIANTS = ("full", "no-moe", "no-aux-losses", "conventional-balance")
# variants whose stages 2-3 add the language and balance routing penalties
ROUTING_LOSS_VARIANTS = ("full", "conventional-balance")

# fields that do not change any computed number; excluded from the hash
COSMETIC_FIELDS = ("out_dir",)
# fields the dataset splits are drawn from: the world, the dataset sizes and their seeds
DATA_FIELDS = ("num_languages", "d_in", "separation", "noise_sigma", "vocab_per_lang",
               "token_margin", "utterance_length", "cs_switches", "train_utterances",
               "val_utterances", "world_seed", "data_seed")

# the largest accepted value of each positive float field, at least 10x below
# the lowest value at which training failed in a one-field-at-a-time sweep.
# Under the logit-space language loss, `separation` 1e4 alone fails (the
# balance backward's `denom * denom` underflows to 0 and its gradient turns
# NaN) while 1e3 trains, and `noise_sigma` up to 1e3, `token_margin` up to 1e5
# and each weight up to 1e15 train clean; the bounds stay as they are until
# they are re-derived with that underflow mended
UPPER_BOUNDS = {"separation": 100.0, "noise_sigma": 0.5, "token_margin": 20.0,
                "lang_weight": 1e6, "balance_weight": 1e6}


def _store_floats(config) -> None:
    """Store each integer given to a float field of ``config`` as a float.

    1 and 1.0 compare equal, so they must hash and serialize equal too.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and isinstance(value, numbers.Integral) and not isinstance(value, bool):
            try:
                object.__setattr__(config, f.name, float(value))
            except OverflowError:
                raise ValueError(f"config field {f.name} must be finite, got an integer too "
                                 f"large for a float") from None


@dataclass(frozen=True)
class StageSettings:
    total_batches: int
    batch_size: int
    learning_rate: float

    def __post_init__(self) -> None:
        _store_floats(self)
        if self.total_batches < 1:
            raise ValueError(f"total_batches must be >= 1, got {self.total_batches}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class ExperimentConfig:
    # synthetic world
    num_languages: int = 2
    d_in: int = 16
    separation: float = 6.0
    noise_sigma: float = 0.1
    vocab_per_lang: int = 64
    token_margin: float = 3.0
    utterance_length: int = 12
    cs_switches: int = 1
    # dataset sizes (per language for ASR/ST; total for CS)
    train_utterances: int = 400
    val_utterances: int = 64
    # model
    d_model: int = 32
    num_layers: int = 3
    experts_per_group: int = 3
    top_k: int = 3
    prompt_len: int = 4
    # per-stage training settings; a long stage 1 builds strong per-language
    # projectors whose transfer the later stages exploit
    stage1: StageSettings = field(default_factory=lambda: StageSettings(200, 8, 3e-3))
    stage2: StageSettings = field(default_factory=lambda: StageSettings(150, 8, 3e-3))
    stage3: StageSettings = field(default_factory=lambda: StageSettings(100, 8, 3e-3))
    stage4: StageSettings = field(default_factory=lambda: StageSettings(60, 8, 3e-3))
    # behavior
    variant: str = "full"
    # "mixed" only; kept while perfbench/workloads.py reads it (ROADMAP item 1 drops that read)
    transition_mode: str = "mixed"
    lang_weight: float = 1.0
    balance_weight: float = 10.0
    # seeds (world geometry, dataset draws, initialization + batch order)
    world_seed: int = 0
    data_seed: int = 0
    train_seed: int = 0
    # cosmetic
    out_dir: str = "runs/default"

    def __post_init__(self) -> None:
        _store_floats(self)
        # JSON admits NaN and Infinity, which no field can use
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        values += [(f"{name}.learning_rate", value.learning_rate)
                   for name, value in values if isinstance(value, StageSettings)]
        for name, value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config field {name} must be finite, got {value!r}")
        if self.num_languages < 2:
            raise ValueError(f"num_languages must be >= 2, got {self.num_languages}")
        for name in ("train_utterances", "val_utterances", "d_in", "d_model", "num_layers",
                     "experts_per_group", "top_k", "prompt_len", "vocab_per_lang", "cs_switches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name, upper in UPPER_BOUNDS.items():
            if not 0 < getattr(self, name) <= upper:
                raise ValueError(
                    f"{name} must be positive and at most {upper:g}, got {getattr(self, name)}"
                )
        if self.d_in < self.num_languages:
            raise ValueError(
                f"d_in={self.d_in} must be >= num_languages={self.num_languages}"
            )
        if self.top_k > self.total_experts:
            raise ValueError(f"top_k={self.top_k} out of range for {self.total_experts} experts")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.top_k == 1 and self.variant in ROUTING_LOSS_VARIANTS:
            # with one selected expert S∖i is empty, so the language loss
            # lse(z_S) − lse(z_S∖i) is infinite when i is outside the group
            raise ValueError(
                f"top_k=1 is incompatible with variant {self.variant!r}: its "
                f"language-specific loss needs top_k >= 2"
            )
        if self.transition_mode != "mixed":
            raise ValueError(f"transition_mode accepts only 'mixed', got {self.transition_mode!r}")
        if self.utterance_length < self.cs_switches + 1:
            raise ValueError(
                f"utterance_length={self.utterance_length} too short for "
                f"cs_switches={self.cs_switches}"
            )
        for name in ("world_seed", "data_seed", "train_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.out_dir:  # "" would put every output in the working directory
            raise ValueError("out_dir must name a directory, got ''")

    @property
    def total_experts(self) -> int:
        return self.num_languages * self.experts_per_group

    @property
    def target_vocab_size(self) -> int:
        return (self.num_languages + 1) * self.vocab_per_lang

    def stage_settings(self, stage_id: int) -> StageSettings:
        return {1: self.stage1, 2: self.stage2, 3: self.stage3, 4: self.stage4}[stage_id]


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


# the values each field annotation admits; bool is not a number here
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
                "StageSettings": (StageSettings,)}


def _from_mapping(cls, data: Mapping, prefix: str = ""):
    """``cls(**data)`` with every float field a float, refusing unknown, missing and
    mistyped fields by name."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(f'{prefix}{n}' for n in unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind = types[name]
        if kind == "StageSettings" and isinstance(value, Mapping):
            value = _from_mapping(StageSettings, value, f"{name}.")
        if not isinstance(value, _FIELD_TYPES[kind]) or isinstance(value, bool) != (kind == "bool"):
            raise ValueError(f"config field {prefix}{name} must be {kind}, got {value!r}")
        if kind == "float":  # as _store_floats does, but naming a stage field by its path
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"config field {prefix}{name} must be finite, got an "
                                 f"integer too large for a float") from None
        kwargs[name] = value
    missing = [f.name for f in fields(cls)
               if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing config fields: {[prefix + n for n in missing]}")
    return cls(**kwargs)


def config_from_dict(data: Mapping) -> ExperimentConfig:
    return _from_mapping(ExperimentConfig, data)


def numeric_fields(config: ExperimentConfig) -> dict:
    """``config_to_dict`` without the cosmetic fields: what the hash, diff and checkpoints see."""
    return {k: v for k, v in config_to_dict(config).items() if k not in COSMETIC_FIELDS}


def config_hash(config: ExperimentConfig) -> str:
    """Hex digest over every numerics-affecting field, in canonical order."""
    text = json.dumps(numeric_fields(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_diff(a: ExperimentConfig, b: ExperimentConfig) -> list[str]:
    """Human-readable list of non-cosmetic fields on which two configs differ."""
    da, db = numeric_fields(a), numeric_fields(b)
    lines = []
    for name in sorted(da):
        if da[name] != db[name]:
            lines.append(f"{name}: {da[name]!r} != {db[name]!r}")
    return lines
