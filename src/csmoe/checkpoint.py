"""Checkpoint persistence: a JSON manifest plus raw float64 tensor payloads.

A checkpoint directory holds ``manifest.json`` (config, config hash, stage,
model geometry, and a shape-checked parameter listing) and one
``params/<name>.bin`` file per named parameter containing the raw
little-endian float64 bytes in C order. Raw bytes — not JSON floats — make
the round-trip bit-exact by construction.

Loading refuses a checkpoint whose config hash differs from the loading
run's config (cosmetic fields excluded), and reports exactly which fields
differ. A manifest that is not a JSON object, lacks a key the loader reads
or names a parameter file other than ``params/<name>.bin`` is refused by name.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union

from .autodiff import Parameter, Tensor
from .config import (
    COSMETIC_FIELDS,
    ExperimentConfig,
    config_diff,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from .dataio import float64_array, float64_bytes
from .projector import MlpProjector, MoeLayer, MoeProjector, ProjectorConfig
from .stages import TrainState
from .world import ToyDecoder

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_stage"]

_MANIFEST = "manifest.json"
_PARAMS_DIR = "params"


def _param_entries(params: Sequence[Parameter]) -> list[dict]:
    entries = []
    for p in params:
        entries.append({
            "name": p.name,
            "shape": list(p.value.data.shape),
            "file": f"{_PARAMS_DIR}/{p.name}.bin",
        })
    return entries


def _write_params(directory: Path, params: Sequence[Parameter]) -> None:
    (directory / _PARAMS_DIR).mkdir(parents=True, exist_ok=True)
    for p in params:
        (directory / _PARAMS_DIR / f"{p.name}.bin").write_bytes(float64_bytes(p.value.data))


def save_checkpoint(
    directory,
    config: ExperimentConfig,
    stage: int,
    model: Union[TrainState, Sequence[MlpProjector]],
) -> Path:
    """Persist a training state (or the stage-1 projector list) to a directory."""
    directory = Path(directory)
    if isinstance(model, TrainState):
        kind = "state"
        params = model.parameters()
        projector_type = "moe" if isinstance(model.projector, MoeProjector) else "mlp"
        extra = {"projector_type": projector_type}
        if projector_type == "moe":
            extra["num_languages"] = model.projector.num_languages
    else:
        mlps = list(model)
        if not mlps or any(not isinstance(p, MlpProjector) for p in mlps):
            raise ValueError("expected a TrainState or a non-empty list of MLP projectors")
        kind = "projectors"
        params = [p for mlp in mlps for p in mlp.parameters()]
        extra = {"num_languages": len(mlps)}
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate parameter names cannot be checkpointed: {names}")

    # cosmetic fields (output paths) are dropped so that runs differing only
    # in where they write produce byte-identical checkpoint directories
    saved_config = {
        k: v for k, v in config_to_dict(config).items() if k not in COSMETIC_FIELDS
    }
    manifest = {
        "kind": kind,
        "stage": int(stage),
        "config": saved_config,
        "config_hash": config_hash(config),
        "params": _param_entries(params),
        **extra,
    }
    directory.mkdir(parents=True, exist_ok=True)
    _write_params(directory, params)
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (directory / _MANIFEST).write_text(text)
    return directory


def _read_manifest(directory: Path) -> dict:
    """The manifest, refused naming its file unless it holds every key the loader reads."""
    path = directory / _MANIFEST
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"checkpoint manifest {path} is not valid JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint manifest {path} must hold a JSON object")
    keys = {"kind", "stage", "config", "config_hash", "params"}
    if manifest.get("kind") == "projectors" or manifest.get("projector_type") == "moe":
        keys.add("num_languages")
    if manifest.get("kind") != "projectors":
        keys.add("projector_type")
    if keys - manifest.keys():
        raise ValueError(f"checkpoint manifest {path} lacks {sorted(keys - manifest.keys())}")
    if not isinstance(manifest["params"], list):
        raise ValueError(f"checkpoint manifest {path} must list its params")
    for entry in manifest["params"]:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not (isinstance(name, str) and "/" not in name
                and isinstance(entry.get("shape"), list) and entry.get("file") == f"{_PARAMS_DIR}/{name}.bin"):
            raise ValueError(f"checkpoint manifest {path} lists a parameter without a "
                             f"name, shape and {_PARAMS_DIR}/<name>.bin file: {entry!r}")
    return manifest


def checkpoint_stage(directory) -> int:
    """Stage recorded in a checkpoint without loading its tensors."""
    return int(_read_manifest(Path(directory))["stage"])


def _load_param_data(directory: Path, manifest: dict) -> dict:
    loaded = {}
    for entry in manifest["params"]:
        shape = tuple(int(s) for s in entry["shape"])
        raw = (directory / entry["file"]).read_bytes()
        loaded[entry["name"]] = float64_array(raw, shape, f"payload {entry['file']}")
    return loaded


def _take(loaded: dict, name: str) -> Parameter:
    if name not in loaded:
        raise ValueError(f"checkpoint is missing parameter {name!r}")
    return Parameter(name, Tensor(loaded.pop(name)))


def load_checkpoint(
    directory, config: ExperimentConfig
) -> Union[TrainState, tuple]:
    """Restore a checkpoint, refusing if it was written under a different config."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest["config_hash"] != config_hash(config):
        saved = config_from_dict(manifest["config"])
        diff = config_diff(saved, config)
        detail = "; ".join(diff) if diff else "hash mismatch"
        raise ValueError(
            f"checkpoint at {directory} was written under a different "
            f"configuration: {detail}"
        )
    pcfg = ProjectorConfig(config.d_in, config.d_model, config.num_layers)
    loaded = _load_param_data(directory, manifest)
    stage = int(manifest["stage"])

    if manifest["kind"] == "projectors":
        m = int(manifest["num_languages"])
        mlps = []
        for g in range(m):
            layers = [_take(loaded, f"lang{g}.mlp.layer{l}")
                      for l in range(pcfg.num_layers)]
            mlps.append(MlpProjector(pcfg, layers))
        _check_consumed(loaded)
        return tuple(mlps)

    if manifest["projector_type"] == "moe":
        m = int(manifest["num_languages"])
        n = config.experts_per_group
        layers = []
        for l in range(pcfg.num_layers):
            experts = [_take(loaded, f"moe.layer{l}.expert{i}") for i in range(m * n)]
            router = _take(loaded, f"moe.layer{l}.router")
            layers.append(MoeLayer(experts, router))
        projector = MoeProjector(pcfg, m, n, config.top_k, layers)
    else:
        projector = MlpProjector(
            pcfg, [_take(loaded, f"mlp.layer{l}") for l in range(pcfg.num_layers)]
        )
    decoder = ToyDecoder(_take(loaded, "decoder.prompt"), _take(loaded, "decoder.head"))
    _check_consumed(loaded)
    return TrainState(projector=projector, decoder=decoder, stage=stage, metrics=[])


def _check_consumed(loaded: dict) -> None:
    if loaded:
        raise ValueError(f"checkpoint holds unexpected parameters: {sorted(loaded)}")
