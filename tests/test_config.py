"""Tests for experiment configuration, hashing, and serialization."""

import re

import pytest

from csmoe.config import (
    UPPER_BOUNDS,
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
    for mode in ("linear", "sampled"):
        with pytest.raises(ValueError, match="transition_mode accepts only 'mixed'"):
            ExperimentConfig(transition_mode=mode)
    with pytest.raises(ValueError):
        ExperimentConfig(train_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(utterance_length=1)
    with pytest.raises(ValueError):
        ExperimentConfig(num_languages=17, d_in=16)
    # a stage's settings are plain data, checked once placed in a config
    with pytest.raises(ValueError, match=r"^stage1\.total_batches must be >= 1, got 0$"):
        ExperimentConfig(stage1=StageSettings(0, 8, 1e-3))
    with pytest.raises(ValueError, match=r"^stage2\.learning_rate must be positive, got 0.0$"):
        ExperimentConfig(stage2=StageSettings(10, 8, 0.0))


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


def test_equal_configs_hash_equal_whether_floats_are_given_as_ints():
    a = ExperimentConfig(lang_weight=1, separation=6, stage1=StageSettings(200, 8, 3e-3))
    b = ExperimentConfig(stage3=StageSettings(100, 8, 1), noise_sigma=0.1)
    for given, want in ((a, ExperimentConfig()),
                        (b, ExperimentConfig(stage3=StageSettings(100, 8, 1.0)))):
        assert given == want
        assert config_hash(given) == config_hash(want)
        assert config_diff(given, want) == []
        assert config_to_dict(given) == config_to_dict(want)
    assert type(a.lang_weight) is float and type(b.stage3.learning_rate) is float
    assert config_from_dict(config_to_dict(a)) == a
    with pytest.raises(ValueError, match="lang_weight"):
        ExperimentConfig(lang_weight=10**400)


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


@pytest.mark.parametrize("overrides, field", [
    ({"cs_switches": 0}, "cs_switches"),
    ({"cs_switches": -1, "utterance_length": 0}, "cs_switches"),
    ({"separation": 0.0}, "separation"),
    ({"separation": -6.0}, "separation"),
    ({"noise_sigma": 0.0}, "noise_sigma"),
    ({"noise_sigma": -0.1}, "noise_sigma"),
    ({"token_margin": 0.0}, "token_margin"),
    ({"token_margin": -3.0}, "token_margin"),
    ({"experts_per_group": 0}, "experts_per_group"),
    ({"train_seed": -1}, "train_seed"),
    ({"stage3": StageSettings(0, 8, 3e-3)}, "stage3.total_batches"),
    ({"stage2": StageSettings(150, 0, 3e-3)}, "stage2.batch_size"),
    ({"stage4": StageSettings(60, 8, 0)}, "stage4.learning_rate"),
    # the sizes the world, projector and decoder builders take as given
    ({"num_languages": 1}, "num_languages"),
    ({"d_in": 0}, "d_in"),
    ({"d_model": 0}, "d_model"),
    ({"num_layers": 0}, "num_layers"),
    ({"prompt_len": 0}, "prompt_len"),
    ({"vocab_per_lang": 0}, "vocab_per_lang"),
    ({"top_k": 0}, "top_k"),
    ({"train_utterances": 0}, "train_utterances"),
], ids=["cs-switches-0", "cs-switches-negative-length-0", "separation-0",
        "separation-negative", "noise-sigma-0", "noise-sigma-negative", "token-margin-0",
        "token-margin-negative", "experts-per-group-0", "train-seed-negative",
        "stage3-total-batches-0", "stage2-batch-size-0", "stage4-learning-rate-0",
        "num-languages-1", "d-in-0", "d-model-0", "num-layers-0", "prompt-len-0",
        "vocab-per-lang-0", "top-k-0", "train-utterances-0"])
def test_config_refuses_a_bad_value_naming_its_field(overrides, field):
    with pytest.raises(ValueError, match="^" + re.escape(f"{field} must be")):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("field, upper", sorted(UPPER_BOUNDS.items()))
def test_config_bounds_each_positive_float_field(field, upper):
    ExperimentConfig(**{field: upper})
    with pytest.raises(ValueError, match="^" + re.escape(f"{field} must be positive and at most {upper:g},")):
        ExperimentConfig(**{field: upper * 1.5})

