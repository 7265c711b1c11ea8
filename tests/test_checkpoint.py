"""Checkpoint round-trip tests.

Oracles: bit-exact parameter equality after save/load for every stage of
every variant, forward-pass equality on a probe batch, and refusal semantics
on config mismatch.
"""

import errno
from pathlib import Path

import numpy as np
import pytest

from csmoe.checkpoint import load_checkpoint, save_checkpoint
from csmoe.config import VARIANTS, ExperimentConfig, StageSettings
from csmoe.projector import MlpProjector, MoeProjector, ProjectorConfig
from csmoe.stages import (
    TrainState,
    generate_datasets,
    run_pipeline,
    run_stage1,
    run_stage2,
)
from csmoe.world import TASK_ASR, gen_dataset
from oracles import reseal, unseal


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
    stage1 = run_stage1(bundle.asr_train, config)
    state = run_stage2(stage1, bundle.asr_train, config)
    return config, world, bundle, stage1, state


def test_state_round_trip_bit_exact(tmp_path, trained):
    config, world, bundle, stage1, state = trained
    path = save_checkpoint(tmp_path / "ck", config, state)
    assert [f.name for f in path.iterdir()] == ["checkpoint.bin"]
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

    config, world, bundle, stage1, state = trained
    save_checkpoint(tmp_path / "ck", config, state)
    loaded = load_checkpoint(tmp_path / "ck", config)
    probe = bundle.asr_val[:4]
    assert evaluate_dataset(state, probe) == evaluate_dataset(loaded, probe)


def test_projector_list_round_trip(tmp_path, trained):
    config, world, bundle, stage1, state = trained
    save_checkpoint(tmp_path / "ck1", config, stage1)
    loaded = load_checkpoint(tmp_path / "ck1", config)
    assert loaded.stage == 1 and loaded.decoder is None
    assert isinstance(loaded.projector, tuple) and len(loaded.projector) == 2
    for orig, back in zip(stage1.projector, loaded.projector):
        assert isinstance(back, MlpProjector)
        for a, b in zip(orig.parameters(), back.parameters()):
            assert a.name == b.name
            assert np.array_equal(a.value.data, b.value.data)


def test_mlp_state_round_trip(tmp_path):
    from csmoe.projector import init_mlp
    from csmoe.world import init_decoder

    config = tiny_config(variant="no-moe")
    mlp_state = TrainState(
        projector=init_mlp(ProjectorConfig(config.d_in, config.d_model, config.num_layers), 5),
        decoder=init_decoder(config.d_model, config.target_vocab_size, config.prompt_len, 6),
        stage=2,
    )
    save_checkpoint(tmp_path / "ck", config, mlp_state)
    loaded = load_checkpoint(tmp_path / "ck", config)
    assert isinstance(loaded.projector, MlpProjector)
    for a, b in zip(mlp_state.parameters(), loaded.parameters()):
        assert a.name == b.name and np.array_equal(a.value.data, b.value.data)


def test_load_refuses_mismatched_config(tmp_path, trained):
    config, world, bundle, stage1, state = trained
    save_checkpoint(tmp_path / "ck", config, state)
    other = tiny_config(train_seed=9, separation=4.0)
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path / "ck", other)
    message = str(err.value)
    assert "train_seed" in message and "separation" in message


def test_load_accepts_cosmetic_differences(tmp_path, trained):
    config, world, bundle, stage1, state = trained
    save_checkpoint(tmp_path / "ck", config, state)
    moved = tiny_config(out_dir="elsewhere/and/deeper")
    loaded = load_checkpoint(tmp_path / "ck", moved)
    assert loaded.stage == 2


@pytest.mark.parametrize("sealed,message", [(False, "sha256"), (True, "body of")])
def test_load_rejects_a_truncated_body(tmp_path, trained, sealed, message):
    config, world, bundle, stage1, state = trained
    path = save_checkpoint(tmp_path / "ck", config, state) / "checkpoint.bin"
    raw = path.read_bytes()[:-8]
    path.write_bytes(reseal(unseal(raw)) if sealed else raw)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(tmp_path / "ck", config)


def test_save_twice_identical_bytes(tmp_path, trained):
    config, world, bundle, stage1, state = trained
    save_checkpoint(tmp_path / "a", config, state)
    save_checkpoint(tmp_path / "b", config, state)
    raw = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    assert raw == (tmp_path / "b" / "checkpoint.bin").read_bytes()
    # the body is every parameter's float64 bytes, in parameters() order
    body = unseal(unseal(raw))
    assert body == b"".join(p.value.data.astype("<f8").tobytes() for p in state.parameters())


def test_interrupted_save_leaves_the_previous_checkpoint(tmp_path, trained, monkeypatch):
    # a second save into the same directory fails halfway through its write
    config, world, bundle, stage1, state = trained
    path = save_checkpoint(tmp_path / "ck", config, state)
    before = _tree_bytes(path)
    changed = load_checkpoint(path, config)
    for p in changed.parameters():
        p.value.data += 1.0
    write_bytes = Path.write_bytes

    def failing_write_bytes(self, data):
        write_bytes(self, data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
    with pytest.raises(OSError):
        save_checkpoint(path, config, changed)
    monkeypatch.undo()
    assert _tree_bytes(path) == before
    loaded = load_checkpoint(path, config)
    assert [p.value.data.tobytes() for p in loaded.parameters()] == [
        p.value.data.tobytes() for p in state.parameters()]


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_stage_state_round_trips_in_its_layout(tmp_path, variant):
    # pins blank_state to the layout each stage of each variant trains into
    short = StageSettings(2, 4, 3e-3)
    config = tiny_config(variant=variant, stage1=short, stage2=short, stage3=short, stage4=short)
    _, bundle = generate_datasets(config)
    saved = {}

    def after_stage(stage, state, rows):
        save_checkpoint(tmp_path / f"stage{stage}", config, state)
        saved[stage] = [(p.name, p.value.data.tobytes()) for p in state.parameters()]

    run_pipeline(config, bundle, after_stage=after_stage)
    assert sorted(saved) == [1, 2, 3, 4]
    for stage, params in saved.items():
        loaded = load_checkpoint(tmp_path / f"stage{stage}", config)
        assert loaded.stage == stage
        assert [(p.name, p.value.data.tobytes()) for p in loaded.parameters()] == params
