"""Checkpoint persistence: one ``dataio`` container per training state.

A checkpoint directory holds one file, ``checkpoint.bin``, of kind
``checkpoint``. Its header records ``stage``, ``config`` (cosmetic fields
dropped), ``config_hash``, ``metrics_sha256`` (of the run's metrics rows up
to its stage, or null) and the name and shape of every parameter; its body
is their float64 values in ``TrainState.parameters()`` order.

The config and the stage determine the parameter layout: loading starts from
``stages.blank_state(config, stage)`` and copies each array into it. Loading
refuses a checkpoint whose config hash differs from the loading run's config
(cosmetic fields excluded), and reports exactly which fields differ. A
header that records a stage that is not an integer in 1..4, records no
valid config when the hashes differ, or does not list exactly that state's
parameters is refused naming the file.
"""

from __future__ import annotations

from itertools import zip_longest
from pathlib import Path

from .config import ExperimentConfig, config_diff, config_from_dict, config_hash, numeric_fields
from .dataio import load_container, metrics_sha256, save_container
from .stages import TrainState, blank_state

__all__ = ["save_checkpoint", "load_checkpoint"]

_FILE = "checkpoint.bin"


def save_checkpoint(directory, config: ExperimentConfig, state: TrainState,
                    metrics=None) -> Path:
    """Persist a training state to a directory, with the digest of ``metrics`` if given."""
    directory = Path(directory)
    digest = None if metrics is None else metrics_sha256(metrics, state.stage)
    # cosmetic fields (output paths) are dropped so that runs differing only
    # in where they write produce byte-identical checkpoints
    save_container(directory / _FILE, "checkpoint",
                   {"stage": state.stage, "config": numeric_fields(config),
                    "config_hash": config_hash(config), "metrics_sha256": digest},
                   {p.name: p.value.data for p in state.parameters()})
    return directory


def load_checkpoint(directory, config: ExperimentConfig, metrics=None) -> TrainState:
    """Restore a checkpoint, refusing if it was written under a different config or,
    given the ``metrics`` file, after other rows of its stage and earlier.

    The state takes its layout from ``blank_state(config, stage)``; the
    header must list exactly that state's parameter names and shapes.
    """
    directory = Path(directory)
    path = directory / _FILE
    header, arrays = load_container(path, "checkpoint")
    stage = header.get("stage")
    if type(stage) is not int or not 1 <= stage <= 4:  # a bool is no stage
        raise ValueError(f"checkpoint {path} records stage {stage!r}, not an integer in 1..4")
    if header.get("config_hash") != config_hash(config):
        try:
            saved = config_from_dict(header.get("config"))
        except (ValueError, TypeError) as err:
            raise ValueError(f"checkpoint {path} records no valid config: {err}") from None
        diff = config_diff(saved, config)
        detail = "; ".join(diff) if diff else "hash mismatch"
        raise ValueError(
            f"checkpoint at {directory} was written under a different "
            f"configuration: {detail}"
        )
    state = blank_state(config, stage)
    params = state.parameters()
    want = [[p.name, list(p.value.data.shape)] for p in params]
    for i, (got, entry) in enumerate(zip_longest(header["arrays"], want)):
        if got != entry:
            raise ValueError(f"checkpoint {path} does not list the stage-{stage} parameters "
                             f"of this config: entry {i} is {got!r}, expected {entry!r}")
    if metrics is not None and (not Path(metrics).is_file() or
                                header.get("metrics_sha256") != metrics_sha256(metrics, stage)):
        raise ValueError(f"{metrics} does not hold the rows of stages 1-{stage} that checkpoint "
                         f"{path} was saved after; a resume would lose or mix rows")
    for p, array in zip(params, arrays):
        p.value.data[...] = array
    return state
