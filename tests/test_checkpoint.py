"""Checkpoint round-trip tests.

Oracles: bit-exact parameter equality after save/load, forward-pass equality
on a probe batch, and refusal semantics on config mismatch.
"""

import json

import numpy as np
import pytest

from csmoe.checkpoint import checkpoint_stage, load_checkpoint, save_checkpoint
from csmoe.config import ExperimentConfig, StageSettings
from csmoe.projector import MlpProjector, MoeProjector, ProjectorConfig
from csmoe.stages import (
    TrainState,
    generate_datasets,
    run_stage1,
    run_stage2,
)
from csmoe.world import TASK_ASR, gen_dataset


def tiny_config(**overrides):
    defaults = dict(
        num_languages=2,
        d_in=8,
        vocab_per_lang=8,
        utterance_length=6,
        train_utterances=24,
        val_utterances=8,
        d_model=16,
        num_layers=2,
        experts_per_group=2,
        top_k=2,
        prompt_len=2,
        stage1=StageSettings(6, 4, 3e-3),
        stage2=StageSettings(6, 4, 3e-3),
        stage3=StageSettings(6, 4, 3e-3),
        stage4=StageSettings(6, 4, 3e-3),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def trained():
    config = tiny_config()
    world, bundle = generate_datasets(config)
    mlps, _ = run_stage1(bundle.asr_train, config)
    state = run_stage2(mlps, bundle.asr_train, config)
    return config, world, bundle, mlps, state


def test_state_round_trip_bit_exact(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    path = save_checkpoint(tmp_path / "ck", config, state.stage, state)
    assert (path / "manifest.json").exists()
    loaded = load_checkpoint(tmp_path / "ck", config)
    assert isinstance(loaded, TrainState)
    assert loaded.stage == 2
    assert isinstance(loaded.projector, MoeProjector)
    originals = {p.name: p.value.data for p in state.parameters()}
    restored = {p.name: p.value.data for p in loaded.parameters()}
    assert originals.keys() == restored.keys()
    for name in originals:
        assert np.array_equal(originals[name], restored[name]), name


def test_forward_matches_after_round_trip(tmp_path, trained):
    from csmoe.stages import evaluate_dataset

    config, world, bundle, mlps, state = trained
    save_checkpoint(tmp_path / "ck", config, state.stage, state)
    loaded = load_checkpoint(tmp_path / "ck", config)
    probe = bundle.asr_val[:4]
    assert evaluate_dataset(state, probe) == evaluate_dataset(loaded, probe)


def test_projector_list_round_trip(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    save_checkpoint(tmp_path / "ck1", config, 1, mlps)
    assert checkpoint_stage(tmp_path / "ck1") == 1
    loaded = load_checkpoint(tmp_path / "ck1", config)
    assert isinstance(loaded, tuple) and len(loaded) == 2
    for orig, back in zip(mlps, loaded):
        assert isinstance(back, MlpProjector)
        for a, b in zip(orig.parameters(), back.parameters()):
            assert a.name == b.name
            assert np.array_equal(a.value.data, b.value.data)


def test_mlp_state_round_trip(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    from csmoe.projector import init_mlp
    from csmoe.world import init_decoder

    mlp_state = TrainState(
        projector=init_mlp(ProjectorConfig(config.d_in, config.d_model, config.num_layers), 5),
        decoder=init_decoder(config.d_model, config.target_vocab_size, config.prompt_len, 6),
        stage=2,
    )
    save_checkpoint(tmp_path / "ck", config, 2, mlp_state)
    loaded = load_checkpoint(tmp_path / "ck", config)
    assert isinstance(loaded.projector, MlpProjector)
    for a, b in zip(mlp_state.parameters(), loaded.parameters()):
        assert a.name == b.name and np.array_equal(a.value.data, b.value.data)


def test_load_refuses_mismatched_config(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    save_checkpoint(tmp_path / "ck", config, state.stage, state)
    other = tiny_config(train_seed=9, separation=4.0)
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path / "ck", other)
    message = str(err.value)
    assert "train_seed" in message and "separation" in message


def test_load_accepts_cosmetic_differences(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    save_checkpoint(tmp_path / "ck", config, state.stage, state)
    moved = tiny_config(out_dir="elsewhere/and/deeper")
    loaded = load_checkpoint(tmp_path / "ck", moved)
    assert loaded.stage == 2


def test_load_rejects_corrupted_payload(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    save_checkpoint(tmp_path / "ck", config, state.stage, state)
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    victim = tmp_path / "ck" / manifest["params"][0]["file"]
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ck", config)


def test_save_twice_identical_bytes(tmp_path, trained):
    config, world, bundle, mlps, state = trained
    save_checkpoint(tmp_path / "a", config, state.stage, state)
    save_checkpoint(tmp_path / "b", config, state.stage, state)
    ma = (tmp_path / "a" / "manifest.json").read_bytes()
    mb = (tmp_path / "b" / "manifest.json").read_bytes()
    assert ma == mb
    manifest = json.loads(ma)
    for entry in manifest["params"]:
        assert (tmp_path / "a" / entry["file"]).read_bytes() == (
            tmp_path / "b" / entry["file"]
        ).read_bytes()
