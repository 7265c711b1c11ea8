"""Tests for the four-stage training scheduler.

Oracles: the stage loss-set contracts read off the metric rows, bit-exact
determinism comparisons, λ-schedule recomputation, endpoint bit-equality of
the transition blend, and training-run assertions (losses fall, validation
improves) on a deliberately tiny world.
"""

import copy
import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import csmoe.cli
from csmoe import autodiff, losses, projector, stages, world
from csmoe.autodiff import Tape, Tensor, _Node, cross_entropy, mul
from csmoe.cli import main
from csmoe.config import (ROUTING_LOSS_VARIANTS, VARIANTS, ExperimentConfig, StageSettings,
                          config_to_dict)
from csmoe.projector import MlpProjector, MoeProjector, moe_forward
from csmoe.stages import (
    DatasetBundle,
    TrainState,
    evaluate_dataset,
    generate_datasets,
    routing_probe,
    run_pipeline,
    run_stage1,
    run_stage2,
    run_stage3,
    run_stage4,
    split_table,
)
from csmoe.world import (
    TASK_ASR,
    TASK_CS_ST,
    TASK_ST,
    decode,
    gen_dataset,
    gen_utterance,
    gen_world,
)


def tiny_config(**overrides):
    defaults = dict(
        num_languages=2,
        d_in=8,
        separation=6.0,
        noise_sigma=0.1,
        vocab_per_lang=8,
        utterance_length=6,
        train_utterances=60,
        val_utterances=16,
        d_model=16,
        num_layers=2,
        experts_per_group=2,
        top_k=2,
        prompt_len=2,
        stage1=StageSettings(30, 4, 3e-3),
        stage2=StageSettings(40, 4, 3e-3),
        stage3=StageSettings(30, 4, 3e-3),
        stage4=StageSettings(30, 4, 3e-3),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def budget(batches):
    return StageSettings(batches, 4, 3e-3)


@pytest.fixture(scope="module")
def setup():
    config = tiny_config()
    world, bundle = generate_datasets(config)
    return config, world, bundle


# ------------------------------------------------------------------ run_stage1


def test_stage1_returns_per_language_projectors(setup):
    config, world, bundle = setup
    state = run_stage1(bundle.asr_train, config)
    mlps, metrics = state.projector, state.metrics
    assert state.stage == 1 and state.decoder is None
    assert len(mlps) == 2
    assert all(isinstance(m, MlpProjector) for m in mlps)
    assert len(metrics) == 2 * 30
    # training reduces the objective: early mean vs late mean, per language
    for lang in range(2):
        ce = [row["ce"] for row in metrics if row["language"] == lang]
        assert np.mean(ce[-8:]) < np.mean(ce[:8])


def test_stage1_deterministic(setup):
    _, _, bundle = setup
    config = tiny_config(stage1=budget(10), train_seed=3)
    a = run_stage1(bundle.asr_train, config).projector
    b = run_stage1(bundle.asr_train, config).projector
    for ma, mb in zip(a, b):
        for la, lb in zip(ma.layers, mb.layers):
            assert np.array_equal(la.value.data, lb.value.data)
    c = run_stage1(bundle.asr_train, replace(config, train_seed=4)).projector
    assert not np.array_equal(a[0].layers[0].value.data, c[0].layers[0].value.data)


def test_stage1_three_languages():
    config = tiny_config(num_languages=3, top_k=2, stage1=budget(5))
    world, bundle = generate_datasets(config)
    assert len(run_stage1(bundle.asr_train, config).projector) == 3


def test_stage1_rejects_bad_datasets(setup):
    config, world, bundle = setup
    with pytest.raises(ValueError):
        run_stage1([bundle.asr_train[0]], config)  # m = 1
    with pytest.raises(ValueError):
        run_stage1([bundle.asr_train[0], ()], config)  # empty


# ------------------------------------------------------------------ run_stage2


@pytest.fixture(scope="module")
def stage2_state(setup):
    config, world, bundle = setup
    return run_stage2(run_stage1(bundle.asr_train, config), bundle.asr_train, config)


def test_stage2_builds_and_trains_moe(stage2_state):
    state = stage2_state
    assert isinstance(state.projector, MoeProjector)
    assert state.stage == 2
    rows = [r for r in state.metrics if r.get("stage") == 2 and "step" in r]
    assert len(rows) == 40
    assert {"ce", "lang", "balance", "total"} <= set(rows[0])
    lang_vals = [r["lang"] for r in rows]
    assert np.mean(lang_vals[-8:]) < np.mean(lang_vals[:8])


def test_stage2_experts_specialize_apart(stage2_state):
    # same-group experts start as bit-identical copies and must diverge
    moe = stage2_state.projector
    for layer in moe.layers:
        w0 = layer.expert_weights[0].value.data
        w1 = layer.expert_weights[1].value.data
        assert not np.array_equal(w0, w1)


def test_stage2_deterministic(setup):
    _, _, bundle = setup
    config = tiny_config(stage1=budget(8), stage2=budget(8), train_seed=1)
    stage1 = run_stage1(bundle.asr_train, config)
    a = run_stage2(stage1, bundle.asr_train, config)
    b = run_stage2(stage1, bundle.asr_train, config)
    for la, lb in zip(a.projector.layers, b.projector.layers):
        assert np.array_equal(la.router_weights.value.data, lb.router_weights.value.data)
        for ea, eb in zip(la.expert_weights, lb.expert_weights):
            assert np.array_equal(ea.value.data, eb.value.data)
    assert a.metrics == b.metrics


def test_stage2_no_aux_variant_omits_metric_fields(setup):
    _, _, bundle = setup
    config = tiny_config(stage1=budget(5), stage2=budget(5), train_seed=2,
                         variant="no-aux-losses")
    state = run_stage2(run_stage1(bundle.asr_train, config), bundle.asr_train, config)
    rows = [r for r in state.metrics if r.get("stage") == 2 and "step" in r]
    assert all("lang" not in r and "balance" not in r for r in rows)


def test_stage2_conventional_balance_mode(setup):
    _, _, bundle = setup
    config = tiny_config(stage1=budget(5), stage2=budget(5), train_seed=2,
                         variant="conventional-balance")
    state = run_stage2(run_stage1(bundle.asr_train, config), bundle.asr_train, config)
    rows = [r for r in state.metrics if r.get("stage") == 2 and "step" in r]
    assert all("balance" in r for r in rows)


# ------------------------------------------------------- run_stage3/run_stage4


def test_stage3_lambda_schedule_and_endpoint(setup, stage2_state):
    config, world, bundle = setup
    state = copy.deepcopy(stage2_state)
    B = 12
    state = run_stage3(state, bundle.asr_pooled, bundle.st_train, tiny_config(stage3=budget(B)))
    rows = [r for r in state.metrics if r.get("stage") == 3 and "step" in r]
    assert len(rows) == B
    lams = [r["lam"] for r in rows]
    assert lams == [b / B for b in range(1, B + 1)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert lams[-1] == 1.0
    # at b=B the blend weight on the source is exactly zero
    assert rows[-1]["transition"] == rows[-1]["ce_target"]
    # at b=1 the blend is (1-1/B) source + (1/B) target
    expected = (1 - 1 / B) * rows[0]["ce_source"] + (1 / B) * rows[0]["ce_target"]
    assert abs(rows[0]["transition"] - expected) < 1e-12


def test_stage3_improves_translation(setup, stage2_state):
    config, world, bundle = setup
    state = copy.deepcopy(stage2_state)
    before = evaluate_dataset(state, bundle.st_val)["ce"]
    state = run_stage3(state, bundle.asr_pooled, bundle.st_train, config)
    after = evaluate_dataset(state, bundle.st_val)["ce"]
    assert after < before
    assert state.stage == 3


def test_stages_refuse_inputs_they_cannot_continue(setup, stage2_state):
    config, world, bundle = setup
    stage1 = run_stage1(bundle.asr_train, tiny_config(stage1=budget(1)))
    with pytest.raises(ValueError, match="non-empty"):
        run_stage2(stage1, [bundle.asr_train[0], ()], config)
    with pytest.raises(ValueError, match="pretrained projectors"):
        run_stage2(replace(stage1, projector=stage1.projector[:1]), bundle.asr_train, config)
    with pytest.raises(ValueError, match="stage-1 TrainState"):
        run_stage2(stage1, bundle.asr_train, tiny_config(variant="no-moe"))
    with pytest.raises(ValueError, match="stage-1 TrainState"):
        run_stage2(copy.deepcopy(stage2_state), bundle.asr_train, config)
    with pytest.raises(ValueError, match="stage-3 state"):
        run_stage4(copy.deepcopy(stage2_state), bundle.st_train, bundle.cs_train, config)
    with pytest.raises(ValueError, match="non-empty"):
        run_stage3(copy.deepcopy(stage2_state), (), bundle.st_train, config)
    # a plain MLP has no routing trace for the full variant's stage-3 penalties
    no_moe = tiny_config(variant="no-moe", stage1=budget(1), stage2=budget(1))
    state = run_stage2(run_stage1(bundle.asr_train, no_moe), bundle.asr_train, no_moe)
    with pytest.raises(ValueError, match="routing trace"):
        run_stage3(state, bundle.asr_pooled, bundle.st_train, config)


def test_stage4_transition_only_and_improves_cs(setup, stage2_state):
    config, world, bundle = setup
    state = copy.deepcopy(stage2_state)
    state = run_stage3(state, bundle.asr_pooled, bundle.st_train, config)
    before = evaluate_dataset(state, bundle.cs_val)["ce"]
    state = run_stage4(state, bundle.st_train, bundle.cs_train, config)
    after = evaluate_dataset(state, bundle.cs_val)["ce"]
    assert after < before
    rows = [r for r in state.metrics if r.get("stage") == 4 and "step" in r]
    assert len(rows) == 30
    assert all("lang" not in r and "balance" not in r for r in rows)
    lams3 = [r["lam"] for r in state.metrics if r.get("stage") == 3 and "step" in r]
    lams4 = [r["lam"] for r in rows]
    assert lams4 == lams3  # same schedule shape for equal B


@pytest.mark.parametrize("variant", VARIANTS)
def test_transition_rows_blend_their_two_cross_entropies(setup, variant):
    # every step row of stages 3-4 holds the blend of that step's two
    # cross-entropies by λ = b/B, names no task, and adds the routing terms
    # only at stage 3 under the routing-loss variants
    _, _, bundle = setup
    B = 5
    config = tiny_config(variant=variant, stage1=budget(3), stage2=budget(3),
                         stage3=budget(B), stage4=budget(B))
    metrics = run_pipeline(config, bundle).metrics
    blend = {"stage", "step", "lam", "ce_source", "ce_target", "transition", "total"}
    for stage in (3, 4):
        rows = [r for r in metrics if r.get("stage") == stage and "step" in r]
        routed = stage == 3 and variant in ROUTING_LOSS_VARIANTS
        assert [set(r) for r in rows] == [blend | ({"lang", "balance"} if routed else set())] * B
        assert [r["lam"] for r in rows] == [b / B for b in range(1, B + 1)]
        for r in rows:
            expected = (1 - r["lam"]) * r["ce_source"] + r["lam"] * r["ce_target"]
            assert abs(r["transition"] - expected) < 1e-12
        assert rows[-1]["transition"] == rows[-1]["ce_target"]  # λ = 1 drops the source
        if not routed:
            assert all(r["total"] == r["transition"] for r in rows)


def test_stage_boundary_is_a_pure_function_of_state(setup, stage2_state):
    # running stage 3 twice from copies of the same state gives identical bits
    _, _, bundle = setup
    config = tiny_config(stage3=budget(8), train_seed=7)
    a = run_stage3(copy.deepcopy(stage2_state), bundle.asr_pooled, bundle.st_train, config)
    b = run_stage3(copy.deepcopy(stage2_state), bundle.asr_pooled, bundle.st_train, config)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value.data, pb.value.data)
    ra = [r for r in a.metrics if r.get("stage") == 3]
    rb = [r for r in b.metrics if r.get("stage") == 3]
    assert ra == rb


# ---------------------------------------------------------------- run_pipeline


def test_pipeline_full_variant(setup):
    config, world, bundle = setup
    result = run_pipeline(config, bundle=bundle)
    assert isinstance(result.state.projector, MoeProjector)
    stages_seen = {r["stage"] for r in result.metrics if "step" in r}
    assert stages_seen == {1, 2, 3, 4}


def test_pipeline_bit_exact_reproducibility(setup):
    config, world, bundle = setup
    a = run_pipeline(config, bundle=bundle)
    b = run_pipeline(config, bundle=bundle)
    assert a.metrics == b.metrics
    for pa, pb in zip(a.state.parameters(), b.state.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value.data, pb.value.data)


def test_pipeline_no_moe_variant(setup):
    config, world, bundle = setup
    result = run_pipeline(tiny_config(variant="no-moe"), bundle=bundle)
    assert isinstance(result.state.projector, MlpProjector)
    step_rows = [r for r in result.metrics if "step" in r]
    assert all("lang" not in r and "balance" not in r for r in step_rows)
    stages_seen = {r["stage"] for r in step_rows}
    assert stages_seen == {1, 2, 3, 4}  # stage-2 budget consumed as plain CE


def test_pipeline_no_aux_variant(setup):
    config, world, bundle = setup
    result = run_pipeline(tiny_config(variant="no-aux-losses"), bundle=bundle)
    assert isinstance(result.state.projector, MoeProjector)
    rows = [r for r in result.metrics if r.get("stage") in (2, 3) and "step" in r]
    assert rows and all("lang" not in r and "balance" not in r for r in rows)


def test_pipeline_conventional_balance_variant(setup):
    config, world, bundle = setup
    result = run_pipeline(tiny_config(variant="conventional-balance"), bundle=bundle)
    rows = [r for r in result.metrics if r.get("stage") == 2 and "step" in r]
    assert rows and all("balance" in r and "lang" in r for r in rows)


def _inf(result):
    """``result`` with its first value, or its own value, scaled by inf."""
    if isinstance(result, tuple):
        return (_inf(result[0]), *result[1:])
    return mul(result, np.inf) if isinstance(result, Tensor) else result * np.inf


def test_pipeline_callbacks(setup, tmp_path, monkeypatch):
    config, world, bundle = setup
    seen = []

    def after_stage(stage, state, rows):
        seen.append((stage, list(rows)))
        rows.append({"stage": stage, "appended": True})

    result = run_pipeline(config, bundle, after_stage=after_stage)
    assert [stage for stage, _ in seen] == [1, 2, 3, 4]
    expected = []
    for stage, rows in seen:  # exactly the stage's step rows, then what the hook appended
        assert rows and all(r["stage"] == stage and "step" in r for r in rows)
        assert rows == [r for r in result.state.metrics if r["stage"] == stage]
        expected += rows + [{"stage": stage, "appended": True}]
    assert result.metrics == expected

    # under train, a stage's rows are streamed before its checkpoint, which
    # records their digest; a stage-3 failure keeps the rows and checkpoints of 1-2
    short = tiny_config(stage1=budget(2), stage2=budget(2), stage3=budget(2), stage4=budget(2))
    cfg_path, out = tmp_path / "config.json", tmp_path / "run"
    cfg_path.write_text(json.dumps(config_to_dict(short)))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    streamed, real_append = [], csmoe.cli.append_metrics

    def append_metrics(path, stage, rows):
        saved = out / "checkpoints" / f"stage{stage}" / "checkpoint.bin"
        streamed.append((stage, [r["stage"] for r in rows], saved.exists()))
        real_append(path, stage, rows)

    monkeypatch.setattr(csmoe.cli, "append_metrics", append_metrics)
    real_transition = stages.mixed_transition
    monkeypatch.setattr(stages, "mixed_transition", lambda *a: _inf(real_transition(*a)))
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert [(stage, set(row_stages), saved) for stage, row_stages, saved in streamed] == [
        (1, {1}, False), (2, {2}, False)]
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["stage1", "stage2"]
    lines = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert [r["stage"] for r in lines] == [s for _, row_stages, _ in streamed for s in row_stages]
    assert "probe" in lines[-1]


def test_run_ablation_equals_its_parts_and_hooks_in_seed_variant_stage_order():
    config = tiny_config(stage1=budget(3), stage2=budget(3), stage3=budget(3), stage4=budget(3))
    variants, seeds = ("no-aux-losses", "full"), (4, 1)
    calls = []

    def hook(variant, seed, bundle, stage, state, rows):
        calls.append((seed, variant, stage, bundle.cs_val[0].features.tobytes()))
        assert state.stage == stage and rows == state.metrics[-len(rows):]

    runs = list(stages.run_ablation(config, variants, seeds, after_stage=hook))
    assert [(run.variant, run.seed, run.error) for run in runs] == [
        (v, s, None) for s in seeds for v in variants]
    assert [call[:3] for call in calls] == [
        (s, v, stage) for s in seeds for v in variants for stage in (1, 2, 3, 4)]
    for run in runs:
        seeded = replace(config, world_seed=run.seed, data_seed=run.seed, train_seed=run.seed)
        _, bundle = generate_datasets(seeded)
        state = run_pipeline(replace(seeded, variant=run.variant), bundle).state
        assert run.cs == evaluate_dataset(state, bundle.cs_val)
        assert run.mono == evaluate_dataset(state, bundle.st_val)
        assert {call[3] for call in calls if call[0] == run.seed} == {
            bundle.cs_val[0].features.tobytes()}


@pytest.mark.parametrize("variant,expected", [
    ("full", (7, 18, 18, 13)),
    ("no-aux-losses", (7, 13, 13, 13)),
    ("conventional-balance", (7, 18, 18, 13)),
    ("no-moe", (7, 7, 7, 7)),
])
def test_default_config_op_nodes_per_step(monkeypatch, variant, expected):
    # A MoE layer's expert products and their mix are one tape node, and so
    # is the decoder. Each routing loss is one tape node: stages 2-3 add lang,
    # balance, the balance weight and two adds to the 13 nodes of no-aux-losses. A
    # transition step scores the mixed batch by one fused node, as many as
    # the cross-entropy of a step that scores one batch.
    budget = StageSettings(2, 8, 3e-3)
    config = replace(ExperimentConfig(), train_utterances=8, val_utterances=2,
                     stage1=budget, stage2=budget, stage3=budget, stage4=budget,
                     variant=variant)
    counts, current = {}, {}
    real_backward = stages.backward

    def counting_backward(loss):
        nodes = loss._tape.nodes
        ops = sum(node.backward is not None for node in nodes)
        counts.setdefault(current["stage"], set()).add(ops)
        return real_backward(loss)

    monkeypatch.setattr(stages, "backward", counting_backward)
    for s in (1, 2, 3, 4):
        def entered(*args, _s=s, _run=getattr(stages, f"run_stage{s}"), **kwargs):
            current["stage"] = _s
            return _run(*args, **kwargs)

        monkeypatch.setattr(stages, f"run_stage{s}", entered)
    run_pipeline(config, generate_datasets(config)[1])
    assert counts == {s: {n} for s, n in zip((1, 2, 3, 4), expected)}


@pytest.mark.parametrize("stage,variant,module,patched,component", [
    (1, "full", stages, "cross_entropy", "ce"),
    (1, "no-moe", stages, "cross_entropy", "ce"),
    (2, "full", stages, "cross_entropy", "ce"),
    (3, "full", stages, "mixed_transition", "transition"),
    (4, "full", stages, "mixed_transition", "transition"),
    # a non-finite cross-entropy inside the blend is named by its first field
    (3, "full", losses, "token_nll", "ce_source"),
    (4, "full", losses, "token_nll", "ce_source"),
], ids=["stage1-per-language", "stage1-no-moe", "stage2", "stage3", "stage4",
        "stage3-cross-entropy", "stage4-cross-entropy"])
def test_infinite_loss_raises_naming_stage_step_and_component(
        setup, monkeypatch, stage, variant, module, patched, component):
    _, _, bundle = setup
    config = tiny_config(variant=variant, stage1=budget(2),
                         stage2=budget(2), stage3=budget(2), stage4=budget(2))
    earlier = []
    if stage > 1:
        run_pipeline(config, bundle, stages=range(1, stage),
                     after_stage=lambda s, model, rows: earlier.append(model))
    real = getattr(module, patched)
    monkeypatch.setattr(module, patched, lambda *args: _inf(real(*args)))
    with pytest.raises(stages.NonFiniteLossError) as caught:
        run_pipeline(config, bundle, stages=(stage,), initial=earlier[-1] if earlier else None)
    assert str(caught.value) == f"stage {stage} step 1: {component} is inf"


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_each_stage_leaves_no_tape_for_the_cyclic_collector(setup, stage):
    # Leaves carry no tape, op nodes no tensor and backward closures no tensor
    # either, so every step's tape is freed by refcount: with the collector
    # off, none outlives the stage.
    _, _, bundle = setup
    config = tiny_config(stage1=budget(2), stage2=budget(3), stage3=budget(3),
                         stage4=budget(3))
    earlier = []
    if stage > 1:
        run_pipeline(config, bundle, stages=range(1, stage),
                     after_stage=lambda s, model, rows: earlier.append(model))
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, (Tape, _Node))}
    gc.disable()
    try:
        result = run_pipeline(config, bundle, stages=(stage,),
                              initial=earlier[-1] if earlier else None)
        left = [o for o in gc.get_objects()
                if isinstance(o, (Tape, _Node)) and id(o) not in before]
    finally:
        gc.enable()
    steps = 2 * 2 if stage == 1 else 3  # stage 1 trains each of the two languages
    assert len(result.metrics) == steps
    assert left == []


def test_no_backward_closure_writes_into_the_gradient_it_is_handed(monkeypatch):
    # backward stores gradients as the closures return them and shares one
    # array between nodes, so a closure that wrote into its g would change
    # another node's gradient. One default-config step of each stage, with
    # every closure handed a read-only g, gives the leaf gradients of an
    # unguarded run bit for bit.
    one = StageSettings(1, 8, 3e-3)
    config = replace(ExperimentConfig(), train_utterances=8, val_utterances=2,
                     stage1=one, stage2=one, stage3=one, stage4=one)
    _, bundle = generate_datasets(config)
    real_backward, real_record = stages.backward, autodiff._record

    def run():
        grads = []

        def recording_backward(loss):
            real_backward(loss)
            grads.append([n.tensor.grad.tobytes() for n in loss._tape.nodes
                          if n.backward is None])

        with monkeypatch.context() as patch:
            patch.setattr(stages, "backward", recording_backward)
            run_pipeline(config, bundle)
        return grads

    def read_only(out, parents, backward_fn):
        def guarded(g):
            g.flags.writeable = False
            return backward_fn(g)

        return real_record(out, parents, guarded)

    unguarded = run()
    for module in (autodiff, losses, projector, world):
        monkeypatch.setattr(module, "_record", read_only)
    guarded = run()
    assert len(guarded) == 2 + 1 + 1 + 1  # stage 1 steps each of its two languages
    assert guarded == unguarded


# ----------------------------------------------------- datasets and evaluation


def test_generate_datasets_shapes(setup):
    config, world, bundle = setup
    assert len(bundle.asr_train) == 2
    assert len(bundle.asr_train[0]) == config.train_utterances
    assert len(bundle.st_train) == 2 * config.train_utterances
    assert len(bundle.cs_train) == config.train_utterances
    assert len(bundle.asr_pooled) == 2 * config.train_utterances
    assert len(bundle.st_val) == 2 * config.val_utterances
    assert len(bundle.cs_val) == config.val_utterances
    assert all(u.task == TASK_CS_ST for u in bundle.cs_train)
    assert all(u.task == TASK_ASR for u in bundle.asr_train[0])
    assert all(u.task == TASK_ST for u in bundle.st_train)


def test_generate_datasets_deterministic():
    config = tiny_config()
    _, a = generate_datasets(config)
    _, b = generate_datasets(config)
    assert np.array_equal(a.cs_train[0].features, b.cs_train[0].features)
    assert np.array_equal(a.st_val[-1].targets, b.st_val[-1].targets)


def _same_utterances(a, b):
    return len(a) == len(b) and all(
        np.array_equal(u.features, v.features)
        and np.array_equal(u.targets, v.targets)
        and np.array_equal(u.source_tokens, v.source_tokens)
        and (u.task, u.language, u.segments) == (v.task, v.language, v.segments)
        for u, v in zip(a, b)
    )


@pytest.mark.parametrize("config", [
    ExperimentConfig(),
    tiny_config(num_languages=3, world_seed=3, data_seed=7, cs_switches=2),
], ids=["default", "three-languages"])
def test_generating_the_scored_splits_alone_equals_the_full_bundle(config):
    _, bundle = generate_datasets(config)
    scored = [e for e in split_table(config) if e.split == "val" and e.task != TASK_ASR]
    _, part = generate_datasets(config, scored)
    assert _same_utterances(part.st_val, bundle.st_val)
    assert _same_utterances(part.cs_val, bundle.cs_val)
    assert part.asr_train == part.st_train == part.cs_train == part.asr_val == ()


def test_evaluate_dataset_matches_manual_recomputation(setup, stage2_state):
    config, world, bundle = setup
    subset = bundle.asr_val[:6]
    report = evaluate_dataset(stage2_state, subset)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["tokens"] == sum(u.length for u in subset)
    # token-weighted mean assembled from per-utterance sums
    assert abs(report["ce"] - report["ce_sum"] / report["tokens"]) < 1e-12
    again = evaluate_dataset(stage2_state, subset)
    assert report == again


def _per_utterance_report(state, utts):
    """Oracle: ``(ce_sum, correct, tokens)`` from one forward pass and one
    ``cross_entropy`` call per utterance."""
    ce_sum, correct, tokens = 0.0, 0, 0
    for u in utts:
        h, _ = moe_forward(state.projector, Tensor(u.features), u.training_labels())
        logits = decode(state.decoder, h)
        ce_sum += cross_entropy(logits, u.targets).item() * u.length
        correct += int((logits.data.argmax(axis=1) == u.targets).sum())
        tokens += u.length
    return ce_sum, correct, tokens


def test_evaluate_dataset_batched_equals_per_utterance_loop(setup, stage2_state):
    config, world, bundle = setup
    utts = bundle.cs_val + bundle.st_val
    report = evaluate_dataset(stage2_state, utts)
    assert (report["ce_sum"], report["correct"], report["tokens"]) == \
        _per_utterance_report(stage2_state, utts)


def test_evaluate_dataset_equals_the_loop_across_row_blocks(setup, stage2_state):
    _, world, _ = setup
    lengths = [1, 5, 12, 7, 30, 2, 19] * 8
    rng = np.random.default_rng(21)
    utts = [gen_utterance(world, i % 2, TASK_ST, length=n, rng=rng)
            for i, n in enumerate(lengths)]
    edges = np.cumsum([0] + lengths)
    block = stages._EVAL_BLOCK
    assert edges[-1] > 2 * block
    assert any(lo < block < hi for lo, hi in zip(edges, edges[1:]))  # straddles an edge
    report = evaluate_dataset(stage2_state, utts)
    assert (report["ce_sum"], report["correct"], report["tokens"]) == \
        _per_utterance_report(stage2_state, utts)


@pytest.mark.parametrize("low", [True, False], ids=["minus-one", "vocab-size"])
def test_evaluate_dataset_refuses_out_of_range_targets(setup, stage2_state, low):
    config, _, bundle = setup
    bad = bundle.st_val[1]
    targets = bad.targets.copy()
    targets[2] = -1 if low else config.target_vocab_size
    with pytest.raises(ValueError, match="out of range"):
        evaluate_dataset(stage2_state, (bundle.st_val[0], replace(bad, targets=targets)))


def test_evaluate_dataset_memory_is_bounded_at_default_size():
    import tracemalloc

    config = ExperimentConfig()
    scored = [e for e in split_table(config) if e.split == "val" and e.task == TASK_ST]
    _, bundle = generate_datasets(config, scored)
    assert sum(u.length for u in bundle.st_val) == 1536
    state = stages.blank_state(config, 4)
    tracemalloc.start()
    try:
        evaluate_dataset(state, bundle.st_val)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The batched forward peaks at 4.2 MB; the softmax of all 1,536 × 192
    # logits at once would take the peak to 7.4 MB.
    assert peak < 6 * 2**20


@pytest.mark.parametrize("variant", ["no-aux-losses", "no-moe"])
def test_pipeline_top1_trains_to_finite_losses(setup, variant):
    _, _, bundle = setup
    tiny = StageSettings(3, 4, 3e-3)
    config = tiny_config(top_k=1, variant=variant,
                         stage1=tiny, stage2=tiny, stage3=tiny, stage4=tiny)
    result = run_pipeline(config, bundle=bundle)
    losses = [v for row in result.metrics for k, v in row.items()
              if k not in ("stage", "step", "language", "task", "probe")]
    assert losses and all(math.isfinite(v) for v in losses)


def test_routing_probe_reports_stats(setup, stage2_state):
    config, world, bundle = setup
    probe = routing_probe(stage2_state, bundle.asr_val[:8])
    assert "top1_in_group" in probe and len(probe["top1_in_group"]) == 2
    assert "group_ratio" in probe
    # plain-MLP states yield an empty probe
    no_moe = run_pipeline(tiny_config(variant="no-moe", stage1=StageSettings(2, 4, 3e-3),
                                      stage2=StageSettings(2, 4, 3e-3),
                                      stage3=StageSettings(2, 4, 3e-3),
                                      stage4=StageSettings(2, 4, 3e-3)),
                          bundle=bundle)
    assert routing_probe(no_moe.state, bundle.asr_val[:8]) == {}
