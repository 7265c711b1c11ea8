"""Audit of the gradient that a training step applies, end to end.

``csmoe grad-check`` audits stage objectives that it assembles from the
shared pieces on its own tiny MoE. This test audits the step itself:
``run_stage3`` or ``run_stage4`` runs from a deep copy of the previous
stage's state, under every variant, transition mode and ``normalize_aux``,
so the stage's batch draw, its score closure, the split of the mixed batch,
the routing terms with their normalization and the optimizer's parameter
arena are all inside the audit.

Oracles: the analytic gradient is Adam's grad arena at the stage's first
``step``, which lists ``TrainState.parameters()`` in order; the loss is the
first step row's ``total``, recomputed by running the stage from perturbed
parameters. Along three seeded random unit directions, central differences
at two step sizes must agree with each other, or the direction crosses a
ReLU kink or a top-k flip and is refused (deterministically: the refusal
reads only loss values); an accepted direction must match the analytic
directional derivative within grad-check's 1e-4 relative tolerance. In mixed
mode the row's ``ce_source`` and ``ce_target`` must also equal
``evaluate_dataset`` on the drawn source and target batches, which pins
where the mixed batch is split.
"""

import copy

import numpy as np
import pytest

from csmoe import autodiff, stages
from csmoe.config import TRANSITION_MODES, VARIANTS, ExperimentConfig, StageSettings
from csmoe.stages import evaluate_dataset, generate_datasets, run_pipeline, run_stage3, run_stage4

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
CASES = [(stage, variant, mode, normalize) for stage in (3, 4) for variant in VARIANTS
         for mode in TRANSITION_MODES for normalize in (False, True)]


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
            run_pipeline(config, bundle, stages=(1, 2, 3),
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


@pytest.mark.parametrize("stage, variant, mode, normalize", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_first_step_gradient_matches_central_differences(
        monkeypatch, bundle, trained, stage, variant, mode, normalize):
    config = ExperimentConfig(**TINY, variant=variant, transition_mode=mode,
                              normalize_aux=normalize)
    prev = trained(config)[stage - 1]
    datasets = ((bundle.asr_pooled, bundle.st_train) if stage == 3
                else (bundle.st_train, bundle.cs_train))
    run = run_stage3 if stage == 3 else run_stage4

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

    def first_row(theta):
        """The stage's first step row, run from ``prev`` with its parameters set to ``theta``."""
        state = copy.deepcopy(prev)
        _assign(state, theta)
        arenas.clear()
        drawn.clear()
        return run(state, *datasets, config).metrics[len(prev.metrics)]

    theta = _flat(prev)
    row = first_row(theta)
    grad = arenas[0]
    if mode == "mixed":  # the first two draws are step 1's source and target batches
        assert row["ce_source"] == pytest.approx(evaluate_dataset(prev, drawn[0])["ce"],
                                                 rel=1e-12, abs=0.0)
        assert row["ce_target"] == pytest.approx(evaluate_dataset(prev, drawn[1])["ce"],
                                                 rel=1e-12, abs=0.0)

    rng = np.random.default_rng([stage, VARIANTS.index(variant),
                                 TRANSITION_MODES.index(mode), int(normalize)])
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
