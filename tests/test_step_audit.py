"""Audit of the gradient that a training step applies, end to end.

``csmoe grad-check`` audits stage objectives that it assembles from the
shared pieces on its own tiny MoE. This test audits the step itself:
``run_stage2``, ``run_stage3`` or ``run_stage4`` runs from a deep copy of
the previous stage's state, under every variant, so the stage's batch
draw, its score closure, the split of the mixed batch, the routing terms
and the optimizer's parameter arena are all inside the audit. The
transition stages are audited at λ = 1/2 and, run for one step, at the
endpoint λ = 1, where the blend must equal the target cross-entropy.

Oracles: the analytic gradient is Adam's grad arena at the stage's first
``step``, which lists the new state's ``TrainState.parameters()`` in order;
the loss is the first step row's ``total``, recomputed by running the stage
from perturbed parameters. Stage 2 builds its MoE from the stage-1 MLPs, so
it perturbs those, and an MLP layer's analytic gradient is the sum of its
expert copies' arena gradients. Along three seeded random unit directions,
central differences at two step sizes must agree with each other, or the
direction crosses a ReLU kink or a top-k flip and is refused
(deterministically: the refusal reads only loss values); an accepted
direction must match the analytic directional derivative within
grad-check's 1e-4 relative tolerance. In a transition stage the row's
``ce_source`` and ``ce_target`` must also equal ``evaluate_dataset`` on the
drawn source and target batches, which pins where the mixed batch is
split. Central
differences cannot see a scale applied to a term's value and gradient
alike, so from the same state and draws each step row's ``total`` must be
its core loss plus each routing term times its config weight, and the
terms themselves must not move with the weights.
"""

import copy
import re

import numpy as np
import pytest

from csmoe import autodiff, stages
from csmoe.config import ROUTING_LOSS_VARIANTS, VARIANTS, ExperimentConfig, StageSettings
from csmoe.stages import (evaluate_dataset, generate_datasets, run_pipeline, run_stage2,
                          run_stage3, run_stage4)

TOL = 1e-4  # grad-check's tolerance
STEP = 1e-5  # central-difference step; each direction is also probed at 2 * STEP
DIRECTIONS = 3

# two steps per stage, so the audited first step of a transition blends at λ = 1/2;
# top-3 of 4 experts, so tokens select two experts of one group: with one, a
# group's in-group shares are constant and the balance term has no gradient
_TWO = StageSettings(2, 2, 3e-3)
TINY = dict(num_languages=2, d_in=4, vocab_per_lang=4, utterance_length=4,
            train_utterances=6, val_utterances=2, d_model=6, num_layers=2,
            experts_per_group=2, top_k=3, prompt_len=1,
            stage1=_TWO, stage2=_TWO, stage3=_TWO, stage4=_TWO)
# a one-step transition stage audits its first step at λ = 1, where the
# source cross-entropy's weight is exactly 0
_ONE = StageSettings(1, 2, 3e-3)
CASES = ([(stage, variant, False) for stage in (2, 3, 4) for variant in VARIANTS]
         + [(stage, variant, True) for stage in (3, 4) for variant in VARIANTS])


def _case_id(case) -> str:
    stage, variant, endpoint = case
    return f"{stage}-{variant}" + ("-endpoint" if endpoint else "")


def _config(stage: int, variant: str, endpoint: bool, **weights) -> ExperimentConfig:
    """The audited config; at the endpoint the audited stage runs one step."""
    budget = {f"stage{stage}": _ONE} if endpoint else {}
    return ExperimentConfig(**{**TINY, **budget}, variant=variant, **weights)


@pytest.fixture(scope="module")
def bundle():
    return generate_datasets(ExperimentConfig(**TINY))[1]


@pytest.fixture(scope="module")
def trained(bundle):
    """``config -> {stage: state}`` for stages 2 and 3, trained once per config."""
    cache = {}

    def states(config):
        if config not in cache:
            kept = {}
            run_pipeline(config, bundle, last=3,
                         after_stage=lambda s, state, rows: kept.update({s: copy.deepcopy(state)}))
            cache[config] = kept
        return cache[config]

    return states


def _flat(state) -> np.ndarray:
    return np.concatenate([p.value.data.ravel() for p in state.parameters()])


def _assign(state, theta: np.ndarray) -> None:
    start = 0
    for p in state.parameters():
        end = start + p.value.data.size
        p.value.data[...] = theta[start:end].reshape(p.value.data.shape)
        start = end


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-5)  # grad-check's floor


def _stage1_gradient(prev, after, arena: np.ndarray, config) -> np.ndarray:
    """Stage 2's arena gradient on the stage-1 parameters, in ``prev``'s order.

    A grouped variant's MLP layer gets the sum over its expert copies, the
    shared MLP under ``no-moe`` its own, and the discarded stage-1 head none.
    """
    slices, start = {}, 0
    for p in after.parameters():
        slices[p.name] = arena[start:start + p.value.data.size]
        start += p.value.data.size
    projectors = prev.projector if isinstance(prev.projector, tuple) else (prev.projector,)
    copied = {p.name for projector in projectors for p in projector.parameters()}
    n = config.experts_per_group
    grad = []
    for p in prev.parameters():
        if p.name not in copied:
            grad.append(np.zeros(p.value.data.size))
        elif config.variant == "no-moe":
            grad.append(slices[p.name])
        else:
            g, l = map(int, re.fullmatch(r"lang(\d+)\.mlp\.layer(\d+)", p.name).groups())
            grad.append(sum(slices[f"moe.layer{l}.expert{g * n + j}"] for j in range(n)))
    return np.concatenate(grad)


def _stage_run(bundle, stage):
    """The stage's function, bound to the datasets the pipeline passes it."""
    if stage == 2:
        return lambda state, config: run_stage2(state, bundle.asr_train, config)
    if stage == 3:
        return lambda state, config: run_stage3(state, bundle.asr_pooled, bundle.st_train, config)
    return lambda state, config: run_stage4(state, bundle.st_train, bundle.cs_train, config)


@pytest.mark.parametrize("stage, variant, endpoint", CASES, ids=map(_case_id, CASES))
def test_first_step_gradient_matches_central_differences(
        monkeypatch, bundle, trained, stage, variant, endpoint):
    config = _config(stage, variant, endpoint)
    prev = trained(config)[stage - 1]
    run = _stage_run(bundle, stage)

    arenas, drawn = [], []
    real_step, real_sample = autodiff.Adam.step, stages._sample

    def step(self):
        if self.t == 0:
            arenas.append(self._grad.copy())
        real_step(self)

    def sample(*args):
        drawn.append(real_sample(*args))
        return drawn[-1]

    monkeypatch.setattr(autodiff.Adam, "step", step)
    monkeypatch.setattr(stages, "_sample", sample)

    def first_run(theta):
        """The stage run from ``prev`` with its parameters set to ``theta``."""
        state = copy.deepcopy(prev)
        _assign(state, theta)
        arenas.clear()
        drawn.clear()
        return run(state, config)

    def first_row(theta):
        return first_run(theta).metrics[len(prev.metrics)]

    theta = _flat(prev)
    after = first_run(theta)
    row = after.metrics[len(prev.metrics)]
    grad = arenas[0] if stage > 2 else _stage1_gradient(prev, after, arenas[0], config)
    if stage > 2:  # the first two draws are step 1's source and target
        assert row["ce_source"] == pytest.approx(evaluate_dataset(prev, drawn[0])["ce"],
                                                 rel=1e-12, abs=0.0)
        assert row["ce_target"] == pytest.approx(evaluate_dataset(prev, drawn[1])["ce"],
                                                 rel=1e-12, abs=0.0)
        assert row["lam"] == (1.0 if endpoint else 0.5)
    if endpoint:
        assert row["transition"] == row["ce_target"]

    # the two 0s keep the directions each case has always probed: the seed's
    # third entry was the transition mode's index, 0 for the mixed blend, and
    # its fourth a loss-normalization flag, 0 for its off case
    rng = np.random.default_rng([stage, VARIANTS.index(variant), 0, 0])
    errors, refused = [], 0
    for _ in range(DIRECTIONS):
        u = rng.normal(size=theta.size)
        u /= np.linalg.norm(u)
        fd = [(first_row(theta + h * u)["total"] - first_row(theta - h * u)["total"]) / (2 * h)
              for h in (STEP, 2 * STEP)]
        if _rel(*fd) >= TOL:  # the two steps disagree: a kink or a flip lies within reach
            refused += 1
            continue
        errors.append(_rel(fd[0], float(grad @ u)))
    assert errors, f"all {DIRECTIONS} directions refused"
    assert max(errors) < TOL, (f"worst relative error {max(errors):.3e} over "
                               f"{len(errors)} directions ({refused} refused)")


# the stages and variants that add routing terms
WEIGHTED = [case for case in CASES if case[0] < 4 and case[1] in ROUTING_LOSS_VARIANTS]


@pytest.mark.parametrize("stage, variant, endpoint", WEIGHTED, ids=map(_case_id, WEIGHTED))
def test_routing_weights_scale_only_their_terms_in_the_total(bundle, trained, stage, variant,
                                                             endpoint):
    default = _config(stage, variant, endpoint)  # weights 1 and 10
    weighted = _config(stage, variant, endpoint, lang_weight=0.5, balance_weight=2.0)
    prev = trained(default)[stage - 1]
    run = _stage_run(bundle, stage)
    # the same state and seeds, so the same draws; step 1 runs before any update
    rows = [run(copy.deepcopy(prev), config).metrics[len(prev.metrics)]
            for config in (default, weighted)]
    core = "ce" if stage == 2 else "transition"
    assert rows[0]["lang"] > 0.0 and rows[0]["balance"] > 0.0
    for name in (core, "lang", "balance"):
        assert rows[1][name] == rows[0][name], name
    for row, config in zip(rows, (default, weighted)):
        assert row["total"] == (row[core] + config.lang_weight * row["lang"]
                                + config.balance_weight * row["balance"])
