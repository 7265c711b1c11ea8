"""Tests for experiment configuration, hashing, and serialization."""

import pytest

from csmoe.config import (
    ExperimentConfig,
    StageSettings,
    config_diff,
    config_from_dict,
    config_hash,
    config_to_dict,
)


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    assert cfg.total_experts == 6
    assert cfg.target_vocab_size == 192
    assert cfg.stage_settings(3) is cfg.stage3


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(num_languages=1)
    with pytest.raises(ValueError):
        ExperimentConfig(top_k=7)  # 2 groups x 3 experts = 6
    with pytest.raises(ValueError):
        ExperimentConfig(variant="fancy")
    with pytest.raises(ValueError):
        ExperimentConfig(transition_mode="linear")
    with pytest.raises(ValueError):
        ExperimentConfig(train_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(utterance_length=1)
    with pytest.raises(ValueError):
        ExperimentConfig(num_languages=17, d_in=16)
    with pytest.raises(ValueError):
        StageSettings(0, 8, 1e-3)
    with pytest.raises(ValueError):
        StageSettings(10, 8, 0.0)


def test_config_round_trips_through_dict():
    cfg = ExperimentConfig(num_languages=3, d_in=20, variant="no-moe", train_seed=5)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_from_dict_rejects_unknown_fields():
    data = config_to_dict(ExperimentConfig())
    data["dropout"] = 0.5
    with pytest.raises(ValueError) as exc:
        config_from_dict(data)
    assert "dropout" in str(exc.value)


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert config_hash(a) == config_hash(b)
    c = ExperimentConfig(train_seed=1)
    assert config_hash(a) != config_hash(c)
    d = ExperimentConfig(stage2=StageSettings(201, 8, 3e-3))
    assert config_hash(a) != config_hash(d)


def test_config_hash_ignores_cosmetic_fields():
    a = ExperimentConfig(out_dir="runs/a")
    b = ExperimentConfig(out_dir="runs/b")
    assert config_hash(a) == config_hash(b)
    assert config_diff(a, b) == []


def test_config_diff_lists_changed_fields():
    a = ExperimentConfig()
    b = ExperimentConfig(train_seed=9, separation=2.0)
    diff = config_diff(a, b)
    assert len(diff) == 2
    assert any("train_seed" in line for line in diff)
    assert any("separation" in line for line in diff)


@pytest.mark.parametrize("variant", ["full", "conventional-balance"])
def test_top1_rejected_with_language_loss(variant):
    with pytest.raises(ValueError, match="top_k"):
        ExperimentConfig(top_k=1, variant=variant)
