"""Checkpoint persistence: a JSON manifest plus raw float64 tensor payloads.

A checkpoint directory holds ``manifest.json`` and one ``params/<name>.bin``
file per parameter of a ``TrainState``, containing the raw little-endian
float64 bytes in C order. Raw bytes — not JSON floats — make the round-trip
bit-exact by construction. The manifest has four keys: ``stage``, ``config``
(cosmetic fields dropped), ``config_hash`` and ``params``, the name, shape and
file of every parameter in order. Saving removes any earlier manifest first
and writes the new one last, so loading refuses an interrupted save.

The config and the stage determine the parameter layout: loading starts from
``stages.blank_state(config, stage)`` and reads each payload into it. Loading
refuses a checkpoint whose config hash differs from the loading run's config
(cosmetic fields excluded), and reports exactly which fields differ. A
manifest that cannot be read, is not a JSON object, lacks one of its four
keys, records a stage that is not an integer in 1..4, records a config that
is not an object (or, when the hashes differ, not a valid config) or does
not list exactly that state's parameters is refused by name.
"""

from __future__ import annotations

from itertools import zip_longest
from pathlib import Path

from .config import (
    COSMETIC_FIELDS,
    ExperimentConfig,
    config_diff,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from .dataio import float64_array, float64_bytes, read_json_object, write_json
from .stages import TrainState, blank_state

__all__ = ["save_checkpoint", "load_checkpoint"]

_MANIFEST = "manifest.json"
_PARAMS_DIR = "params"


def _param_entries(params) -> list[dict]:
    return [{"name": p.name, "shape": list(p.value.data.shape),
             "file": f"{_PARAMS_DIR}/{p.name}.bin"} for p in params]


def save_checkpoint(directory, config: ExperimentConfig, state: TrainState) -> Path:
    """Persist a training state to a directory."""
    directory = Path(directory)
    params = state.parameters()
    # cosmetic fields (output paths) are dropped so that runs differing only
    # in where they write produce byte-identical checkpoint directories
    saved_config = {
        k: v for k, v in config_to_dict(config).items() if k not in COSMETIC_FIELDS
    }
    manifest = {
        "stage": state.stage,
        "config": saved_config,
        "config_hash": config_hash(config),
        "params": _param_entries(params),
    }
    (directory / _PARAMS_DIR).mkdir(parents=True, exist_ok=True)
    # removed before any payload, rewritten after all: a cut-off overwrite has no manifest
    (directory / _MANIFEST).unlink(missing_ok=True)
    for p in params:
        (directory / _PARAMS_DIR / f"{p.name}.bin").write_bytes(float64_bytes(p.value.data))
    write_json(directory / _MANIFEST, manifest)
    return directory


def _read_manifest(path: Path) -> dict:
    """The manifest, refused naming its file unless its keys and their values are sound."""
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint manifest at {path}")
    manifest = read_json_object(path, "checkpoint manifest")
    missing = {"stage", "config", "config_hash", "params"} - manifest.keys()
    if missing:
        raise ValueError(f"checkpoint manifest {path} lacks {sorted(missing)}")
    stage = manifest["stage"]
    if type(stage) is not int or not 1 <= stage <= 4:  # a bool is no stage
        raise ValueError(f"checkpoint manifest {path} records stage {stage!r}, "
                         f"not an integer in 1..4")
    if not isinstance(manifest["params"], list):
        raise ValueError(f"checkpoint manifest {path} must list its params")
    if not isinstance(manifest["config"], dict):
        raise ValueError(f"checkpoint manifest {path} must hold its config as an object")
    return manifest


def load_checkpoint(directory, config: ExperimentConfig) -> TrainState:
    """Restore a checkpoint, refusing if it was written under a different config.

    The state takes its layout from ``blank_state(config, stage)``; the
    manifest must list exactly that state's parameter names, shapes and files.
    """
    directory = Path(directory)
    path = directory / _MANIFEST
    manifest = _read_manifest(path)
    if manifest["config_hash"] != config_hash(config):
        try:
            saved = config_from_dict(manifest["config"])
        except ValueError as err:
            raise ValueError(f"checkpoint manifest {path} records no valid config: "
                             f"{err}") from None
        diff = config_diff(saved, config)
        detail = "; ".join(diff) if diff else "hash mismatch"
        raise ValueError(
            f"checkpoint at {directory} was written under a different "
            f"configuration: {detail}"
        )
    state = blank_state(config, manifest["stage"])
    params = state.parameters()
    for i, (got, want) in enumerate(zip_longest(manifest["params"], _param_entries(params))):
        if got != want:
            raise ValueError(f"checkpoint manifest {path} does not list the stage-{state.stage} "
                             f"parameters of this config: entry {i} is {got!r}, "
                             f"expected {want!r}")
    for p in params:
        file = f"{_PARAMS_DIR}/{p.name}.bin"
        raw = (directory / file).read_bytes()
        p.value.data[...] = float64_array(raw, p.value.data.shape, f"payload {file}")
    return state
