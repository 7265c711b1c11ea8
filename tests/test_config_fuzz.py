"""Config fuzz: a config is refused naming one of its fields, or it trains.

Hypothesis draws configs jointly over the sizes, the stage budgets, the
geometry, the seeds, the variant and the five bounded fields, the two weights
among them (each at its bound or its default), every value in its accepted
range, and then puts out-of-range values into up to two fields: 0 and
negative sizes, budgets and learning rates, 1.5x a field's upper bound, NaN,
inf, a value of the wrong type. Each config goes through
``config_from_dict``, the gate every command's config file passes. It must
either be refused with a ``ValueError`` whose message starts with one of its
field paths (``stage<N>.<field>`` for a stage's), or generate its datasets
and run all four stages to finite losses, with no ``NonFiniteLossError``; a
config with an out-of-range value must be refused. Sizes and budgets are
tiny, so an accepted config trains a few steps. The examples are
derandomized, so every run checks the same cases.
"""

import math
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmoe.config import (
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    VARIANTS,
    ExperimentConfig,
    config_from_dict,
)
from csmoe.stages import generate_datasets, run_pipeline

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

STAGES = ("stage1", "stage2", "stage3", "stage4")
STAGE_FIELDS = ("total_batches", "batch_size", "learning_rate")
DEFAULTS = ExperimentConfig()
# the paths a refusal may name: each top-level scalar field and each stage's three
PATHS = ([name for name in vars(DEFAULTS) if name not in STAGES]
         + [f"{stage}.{name}" for stage in STAGES for name in STAGE_FIELDS])
REFUSAL = re.compile(
    r"(config field )?(" + "|".join(map(re.escape, sorted(PATHS, key=len, reverse=True))) + r")\b")

# each scalar field's accepted values: tiny sizes and budgets, each bounded
# field at its bound or its default; cross-field checks may still refuse a mix
ACCEPTED = {
    "num_languages": st.integers(2, 3), "d_in": st.integers(2, 6),
    "vocab_per_lang": st.integers(1, 4), "utterance_length": st.integers(2, 5),
    "cs_switches": st.integers(1, 2), "train_utterances": st.integers(1, 4),
    "val_utterances": st.integers(1, 2), "d_model": st.integers(1, 6),
    "num_layers": st.integers(1, 2), "experts_per_group": st.integers(1, 3),
    "top_k": st.integers(1, 4), "prompt_len": st.integers(1, 2),
    "variant": st.sampled_from(VARIANTS), "transition_mode": st.just("mixed"),
    "out_dir": st.just("runs/fuzz"),
    **{name: st.sampled_from([upper, getattr(DEFAULTS, name)])
       for name, upper in UPPER_BOUNDS.items()},
    **{seed: st.integers(0, 3) for seed in ("world_seed", "data_seed", "train_seed")},
    **{f"{stage}.total_batches": st.integers(1, 2) for stage in STAGES},
    **{f"{stage}.batch_size": st.integers(1, 3) for stage in STAGES},
    **{f"{stage}.learning_rate": st.sampled_from([3e-3, 1.0]) for stage in STAGES},
}
assert sorted(ACCEPTED) == sorted(PATHS)


def _refused(path: str) -> list:
    """Values of the field at ``path`` that the gate must refuse."""
    name = path.rpartition(".")[2]
    if name in ("variant", "transition_mode", "out_dir"):
        return ["fancy", "", 3] if name != "out_dir" else ["", 3]
    if name == "utterance_length":  # cs_switches >= 1 needs two tokens at least
        return [1, 0, True]
    if name in LOWER_BOUNDS:
        return sorted({LOWER_BOUNDS[name] - 1, -1}) + [True, 2.0]
    bad = [0.0, -3e-3, math.nan, math.inf, -math.inf, "1", True]
    return bad + ([1.5 * UPPER_BOUNDS[name]] if name in UPPER_BOUNDS else [])


@st.composite
def configs(draw):
    values = {path: draw(ACCEPTED[path]) for path in PATHS}
    faults = draw(st.lists(st.sampled_from(PATHS), max_size=2, unique=True))
    for path in faults:
        values[path] = draw(st.sampled_from(_refused(path)))
    data = {}
    for path, value in values.items():
        stage, _, name = path.rpartition(".")
        if stage:
            data.setdefault(stage, {})[name] = value
        else:
            data[name] = value
    return data, bool(faults)


# small model and data sizes, as the CLI tests' config holds them
TINY = {"num_languages": 2, "d_in": 8, "vocab_per_lang": 8, "utterance_length": 6,
        "train_utterances": 6, "val_utterances": 2, "d_model": 8, "num_layers": 2,
        "experts_per_group": 2, "top_k": 2, "prompt_len": 2,
        **{stage: {"total_batches": 2, "batch_size": 2, "learning_rate": 3e-3}
           for stage in STAGES}}
# the default model sizes, on the same tiny data and budgets
MODEL = {name: getattr(DEFAULTS, name)
         for name in ("d_in", "vocab_per_lang", "d_model", "num_layers", "experts_per_group",
                      "top_k", "prompt_len")}
SATURATING = {"separation": 100.0, "noise_sigma": 0.5, "token_margin": 20.0}
# a stage-2 batch in which no token routes into its own group, so the
# intra-group balance sums no cell and reads 0
NO_BALANCE_CELL = {"num_languages": 3, "d_in": 6, "vocab_per_lang": 2, "utterance_length": 5,
                   "cs_switches": 2, "train_utterances": 2, "val_utterances": 1, "d_model": 2,
                   "num_layers": 1, "experts_per_group": 2, "top_k": 2, "prompt_len": 2,
                   "variant": "full", "world_seed": 2, "data_seed": 0, "train_seed": 3,
                   "stage1": {"total_batches": 1, "batch_size": 1, "learning_rate": 3e-3},
                   "stage2": {"total_batches": 2, "batch_size": 1, "learning_rate": 3e-3},
                   **{stage: {"total_batches": 1, "batch_size": 2, "learning_rate": 3e-3}
                      for stage in ("stage3", "stage4")}}


@FUZZ
@given(configs())
@example(({**TINY, **SATURATING}, False))
# the all-five corner: the saturating triple and both weights at 1e6
@example(({**TINY, **UPPER_BOUNDS}, False))
@example(({**TINY, **MODEL, **UPPER_BOUNDS}, False))
@example((NO_BALANCE_CELL, False))
def test_a_config_is_refused_by_a_field_path_or_trains(drawn):
    data, faulted = drawn
    try:
        config = config_from_dict(data)
    except ValueError as err:
        assert REFUSAL.match(str(err)), str(err)
        return
    assert not faulted, data
    _, bundle = generate_datasets(config)
    metrics = run_pipeline(config, bundle).metrics  # a NonFiniteLossError fails the case
    assert metrics[-1]["stage"] == 4
    assert all(math.isfinite(row["total"]) for row in metrics)
