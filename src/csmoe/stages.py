"""Four-stage training scheduler for the grouped-mixture projector.

Stage 1 pretrains one MLP projector per language on that language's ASR-proxy
data. Stage 2 assembles the grouped MoE from those MLPs and trains it on
pooled multilingual ASR batches with the routing penalties. Stage 3 blends
ASR into monolingual translation through the transition loss, and stage 4
blends monolingual translation into code-switched translation with the
transition term alone (code-switched tokens carry no language label, so the
routing penalties do not apply).

The config is each stage's recipe: its budget (``stage_settings``), whether
stages 2-3 add the routing penalties and in which balance form (the
variant) and the loss weights; stages 3-4 blend the source and target
cross-entropies of one forward by λ = b/B. All four stages train
through one step loop, ``_fit``: a stage supplies only how step b's batch is
drawn and how its core loss (cross-entropy, or the transition blend) is read
off the logits. ``routing_terms`` gives the routing penalties the stage and
the variant call for, and ``losses.compose_stage_loss`` adds them to the core
loss; the gradient audit builds its stage objectives through the same two
functions. Every stage derives its randomness from ``(train_seed,
stage, ...)`` streams and resets optimizer moments at the stage boundary, so
resuming from a stage checkpoint reproduces the remaining stages bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .analysis import expert_load, routing_accuracy
from .autodiff import Adam, Parameter, Tape, Tensor, backward, cross_entropy, token_nll
from .config import ROUTING_LOSS_VARIANTS, ExperimentConfig, StageSettings
from .losses import (
    compose_stage_loss,
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
    mixed_transition,
)
from .projector import (
    MlpProjector,
    MoeProjector,
    ProjectorConfig,
    RoutingTrace,
    build_moe_from_pretrained,
    init_mlp,
    mlp_forward,
    moe_forward,
)
from .world import (
    TASK_ASR,
    TASK_CS_ST,
    TASK_ST,
    ToyDecoder,
    Utterance,
    World,
    decode,
    gen_dataset,
    gen_world,
    init_decoder,
)

__all__ = [
    "NonFiniteLossError",
    "TrainState",
    "blank_state",
    "SplitEntry",
    "DatasetBundle",
    "PipelineResult",
    "split_table",
    "build_world",
    "generate_splits",
    "generate_datasets",
    "run_stage1",
    "run_stage2",
    "run_stage3",
    "run_stage4",
    "run_pipeline",
    "AblationRun",
    "run_ablation",
    "routing_terms",
    "evaluate_dataset",
    "token_report",
    "routing_probe",
    "routing_summary",
]

class NonFiniteLossError(FloatingPointError):
    """A training step left the finite floats, named by its stage and step.

    A loss turned infinite or NaN, or the optimizer's arithmetic overflowed.
    """


@dataclass
class TrainState:
    """The model after ``stage`` plus the step rows of the stages run to reach it.

    After stage 1 of the grouped variants, ``projector`` is the tuple of
    per-language MLPs that stage 2 assembles the MoE from, and ``decoder`` is
    None (their heads are discarded). Otherwise the projector (the shared MLP
    under ``no-moe``, else the MoE) trains on under ``decoder``.
    """

    projector: Union[MlpProjector, MoeProjector, tuple]
    decoder: Optional[ToyDecoder]
    stage: int
    metrics: list = field(default_factory=list)

    def parameters(self) -> list[Parameter]:
        projectors = self.projector if isinstance(self.projector, tuple) else (self.projector,)
        params = [p for projector in projectors for p in projector.parameters()]
        return params + (self.decoder.parameters() if self.decoder is not None else [])


def _stage1_projectors(config: ExperimentConfig):
    """Stage 1's untrained projectors.

    One shared MLP under ``no-moe``; otherwise a tuple of one MLP per language,
    each parameter name prefixed ``lang{g}.``.
    """
    shape = ProjectorConfig(config.d_in, config.d_model, config.num_layers)
    if config.variant == "no-moe":
        return init_mlp(shape, [config.train_seed, 1, 0, 0])
    mlps = tuple(init_mlp(shape, [config.train_seed, 1, g, 0])
                 for g in range(config.num_languages))
    for g, mlp in enumerate(mlps):
        for p in mlp.parameters():
            p.name = f"lang{g}.{p.name}"
    return mlps


def blank_state(config: ExperimentConfig, stage: int) -> TrainState:
    """An untrained state with the parameters that ``stage`` leaves under the config.

    Names, shapes and order are those training produces; the values are
    placeholders drawn from the config's seeds, for a checkpoint to overwrite.
    """
    projector = _stage1_projectors(config)
    if isinstance(projector, tuple):
        if stage == 1:
            return TrainState(projector, None, stage)
        projector = build_moe_from_pretrained(projector, config.experts_per_group,
                                              config.top_k, [config.train_seed, 2, 0])
    decoder = init_decoder(config.d_model, config.target_vocab_size, config.prompt_len,
                           [config.train_seed, stage, 1])
    return TrainState(projector, decoder, stage)


# --------------------------------------------------------------------- data


class SplitEntry(NamedTuple):
    """One dataset split: its file name, task, language (None if code-switched) and split."""

    filename: str
    task: str
    language: Optional[int]
    split: str


_TASK_CODE = {TASK_ASR: 0, TASK_ST: 1, TASK_CS_ST: 2}
_SPLIT_CODE = {"train": 0, "val": 1}


def split_table(config: ExperimentConfig) -> tuple[SplitEntry, ...]:
    """Every dataset split of a run, in the order ``gen-data`` writes them.

    ASR and ST have a train and a validation split per language; the
    code-switched task has one of each over all languages.
    """
    per_language = tuple(
        SplitEntry(f"{prefix}_lang{g}.{split}.bin", task, g, split)
        for g in range(config.num_languages)
        for prefix, task in (("asr", TASK_ASR), ("st", TASK_ST))
        for split in _SPLIT_CODE
    )
    return per_language + tuple(
        SplitEntry(f"cs.{split}.bin", TASK_CS_ST, None, split) for split in _SPLIT_CODE
    )


def build_world(config: ExperimentConfig) -> World:
    return gen_world(config.num_languages, config.d_in, config.separation, config.noise_sigma,
                     config.vocab_per_lang, config.world_seed, token_margin=config.token_margin)


def generate_splits(config: ExperimentConfig, world: World,
                    entries: Iterable[SplitEntry]) -> Iterator[tuple[SplitEntry, tuple]]:
    """``(entry, utterances)`` for each entry, drawn on the entry's own seed stream.

    The stream is ``[data_seed, task code, language code, split code]``, with
    language code ``m`` for code-switched data and split code 0 train, 1
    validation, so any subset of entries draws what the full table draws.
    """
    for entry in entries:
        count = config.train_utterances if entry.split == "train" else config.val_utterances
        language_code = config.num_languages if entry.language is None else entry.language
        stream = [config.data_seed, _TASK_CODE[entry.task], language_code,
                  _SPLIT_CODE[entry.split]]
        yield entry, gen_dataset(world, entry.task, entry.language, count,
                                 config.utterance_length, stream,
                                 num_switches=config.cs_switches)


def _pooled(datasets) -> tuple:
    return tuple(u for ds in datasets for u in ds)


@dataclass(frozen=True)
class DatasetBundle:
    """All train/validation splits one experiment needs, generated once."""

    asr_train: tuple  # one tuple of Utterances per language
    st_train: tuple  # pooled over languages
    cs_train: tuple
    asr_val: tuple  # pooled over languages
    st_val: tuple
    cs_val: tuple

    @classmethod
    def from_splits(cls, splits: Iterable[tuple[SplitEntry, Sequence]]) -> "DatasetBundle":
        """Pool ``(entry, utterances)`` pairs in their order; absent splits are empty."""
        parts: dict = {}
        for entry, utterances in splits:
            parts.setdefault((entry.task, entry.split), []).append(tuple(utterances))

        def pooled(task, split):
            return _pooled(parts.get((task, split), ()))

        return cls(tuple(parts.get((TASK_ASR, "train"), ())), pooled(TASK_ST, "train"),
                   pooled(TASK_CS_ST, "train"), pooled(TASK_ASR, "val"),
                   pooled(TASK_ST, "val"), pooled(TASK_CS_ST, "val"))

    @property
    def asr_pooled(self) -> tuple:
        """Stage-3 source view: all languages' ASR training utterances."""
        return _pooled(self.asr_train)


def generate_datasets(
    config: ExperimentConfig, entries: Optional[Iterable[SplitEntry]] = None
) -> tuple[World, DatasetBundle]:
    """The world and a bundle of ``entries`` (default: every split) from the config's seeds."""
    world = build_world(config)
    splits = generate_splits(config, world, split_table(config) if entries is None else entries)
    return world, DatasetBundle.from_splits(splits)


# ----------------------------------------------------------- training loops


def _batch_arrays(utts: Sequence[Utterance]):
    feats = np.concatenate([u.features for u in utts], axis=0)
    targets = np.concatenate([u.targets for u in utts])
    labels = np.concatenate([u.training_labels() for u in utts])
    return feats, targets, labels


def _sample(dataset, rng: np.random.Generator, batch_size: int):
    return [dataset[i] for i in rng.integers(len(dataset), size=batch_size)]


def _forward(projector, decoder: ToyDecoder, feats: np.ndarray, labels):
    x = Tensor(feats)
    if isinstance(projector, MoeProjector):
        h, trace = moe_forward(projector, x, labels)
    else:
        h, trace = mlp_forward(projector, x), None
    return decode(decoder, h), trace


def routing_terms(config: ExperimentConfig, stage: int, trace: Optional[RoutingTrace],
                  lang: Optional[Tensor] = None) -> dict:
    """The routing penalties ``stage`` adds to its core loss under the config.

    Stages 2-3 of the routing-loss variants add ``lang`` and ``balance`` (the
    conventional term under ``conventional-balance``, else the intra-group
    one), read off the MoE's trace, which carries the expert groups and the
    token labels; every other stage and variant adds ``{}``. A given
    ``lang`` is the language term already computed on this trace, used in
    place of computing it again.
    """
    if stage not in (2, 3) or config.variant not in ROUTING_LOSS_VARIANTS:
        return {}
    if trace is None:
        raise ValueError(
            f"variant {config.variant!r} adds routing losses in stage {stage} but the "
            f"projector produces no routing trace; plain MLP projectors train without them"
        )
    balance = (conventional_balance_loss if config.variant == "conventional-balance"
               else intra_group_balance_loss)
    return {"lang": language_specific_loss(trace) if lang is None else lang,
            "balance": balance(trace)}


def _ce_step(utts: Sequence[Utterance], **fixed):
    """A step that scores ``utts`` by cross-entropy, logged as ``ce`` next to ``fixed``."""
    feats, targets, labels = _batch_arrays(utts)

    def score(logits):
        ce = cross_entropy(logits, targets)
        return ce, {**fixed, "ce": ce.item()}

    return feats, labels, score


def _fit(config: ExperimentConfig, stage: int, settings: StageSettings, projector,
         decoder: ToyDecoder, draw: Callable) -> list:
    """Train ``projector`` and ``decoder`` for the stage's batches; return the step rows.

    ``draw(b)`` gives step b's ``(features, labels, score)``; ``score(logits)``
    gives the core loss and the row fields read from it. A non-finite loss or
    update raises ``NonFiniteLossError`` naming the stage and step.
    """
    opt = Adam(list(projector.parameters()) + list(decoder.parameters()),
               lr=settings.learning_rate)
    rows = []
    try:
        for b in range(1, settings.total_batches + 1):
            feats, labels, score = draw(b)
            opt.zero_grad()
            with Tape():
                logits, trace = _forward(projector, decoder, feats, labels)
                core, fields = score(logits)
                terms = routing_terms(config, stage, trace)
                total = compose_stage_loss(config, core, terms)
            row = {"stage": stage, "step": b, **fields, "total": total.item(),
                   **{name: term.item() for name, term in terms.items()}}
            for name, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise FloatingPointError(f"{name} is {value}")
            rows.append(row)
            backward(total)
            opt.step()
    except FloatingPointError as err:
        raise NonFiniteLossError(f"stage {stage} step {b}: {err}") from err
    return rows


def _train_ce_stage(config: ExperimentConfig, stage: int, settings: StageSettings,
                    projector, dataset, stream, **fixed):
    """Train ``projector`` under a new decoder head; return the head and the step rows.

    Each row carries ``fixed``. The head is drawn from seed stream
    ``[*stream, 1]`` and the batch order from ``[*stream, 2]``.
    """
    decoder = init_decoder(config.d_model, config.target_vocab_size,
                           config.prompt_len, [*stream, 1])
    rng = np.random.default_rng([*stream, 2])
    rows = _fit(config, stage, settings, projector, decoder,
                lambda b: _ce_step(_sample(dataset, rng, settings.batch_size), **fixed))
    return decoder, rows


def run_stage1(asr_datasets, config: ExperimentConfig) -> TrainState:
    """Pretrain one MLP projector per language on its own ASR-proxy data.

    Each language trains independently with its own throwaway decoder head
    for the config's stage-1 budget; the heads are discarded, so the state
    holds the tuple of projectors and no decoder. Under ``no-moe`` one shared
    MLP trains instead on the pooled languages for m× the stage-1 batches (the
    grouped budget), and the state keeps its head.
    """
    datasets = [tuple(ds) for ds in asr_datasets]
    if len(datasets) != config.num_languages:
        raise ValueError(f"need one ASR dataset per language ({config.num_languages}), "
                         f"got {len(datasets)}")
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    seed, settings = config.train_seed, config.stage_settings(1)
    projector = _stage1_projectors(config)
    if config.variant == "no-moe":
        pooled = replace(settings, total_batches=len(datasets) * settings.total_batches)
        head, rows = _train_ce_stage(config, 1, pooled, projector, _pooled(datasets),
                                     [seed, 1, 0])
        return TrainState(projector, head, 1, rows)
    rows = []
    for g, (mlp, ds) in enumerate(zip(projector, datasets)):
        rows.extend(_train_ce_stage(config, 1, settings, mlp, ds, [seed, 1, g], language=g)[1])
    return TrainState(projector, None, 1, rows)


def run_stage2(state: TrainState, asr_datasets, config: ExperimentConfig) -> TrainState:
    """Assemble the grouped MoE from the pretrained MLPs and specialize it.

    Trains on pooled multilingual ASR batches whose tokens carry their
    utterance's language label, with a fresh shared decoder head (the pooled
    target space differs from the per-language stage-1 setup). Under
    ``no-moe`` the stage-1 state's shared MLP trains on under a fresh head.
    """
    datasets = [tuple(ds) for ds in asr_datasets]
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    projector = state.projector
    if state.stage != 1 or isinstance(projector, tuple) == (config.variant == "no-moe"):
        raise ValueError("stage 2 continues the stage-1 TrainState: its shared MLP under "
                         "no-moe and its per-language projectors otherwise")
    seed = config.train_seed
    if isinstance(projector, tuple):
        if len(datasets) != len(projector):
            raise ValueError(
                f"got {len(projector)} pretrained projectors but {len(datasets)} datasets"
            )
        projector = build_moe_from_pretrained(
            projector, config.experts_per_group, config.top_k, [seed, 2, 0]
        )
    decoder, rows = _train_ce_stage(config, 2, config.stage_settings(2), projector,
                                    _pooled(datasets), [seed, 2])
    return TrainState(projector, decoder, 2, state.metrics + rows)


def _run_transition_stage(state: TrainState, source_ds, target_ds,
                          config: ExperimentConfig, stage: int) -> TrainState:
    if state.stage != stage - 1:
        raise ValueError(f"stage {stage} requires a stage-{stage - 1} state, "
                         f"got stage {state.stage}")
    source_ds, target_ds = tuple(source_ds), tuple(target_ds)
    if not source_ds or not target_ds:
        raise ValueError("transition stages need non-empty source and target datasets")
    settings = config.stage_settings(stage)
    rng = np.random.default_rng([config.train_seed, stage])

    def draw(b):
        lam = b / settings.total_batches
        source = _sample(source_ds, rng, settings.batch_size)
        target = _sample(target_ds, rng, settings.batch_size)
        feats, targets, labels = _batch_arrays(source + target)  # one forward for both
        n_src = sum(u.length for u in source)

        def score(logits):
            trans, ce_src, ce_tgt = mixed_transition(logits, targets, n_src, lam)
            return trans, {"lam": lam, "ce_source": float(ce_src),
                           "ce_target": float(ce_tgt), "transition": trans.item()}

        return feats, labels, score

    state.metrics.extend(_fit(config, stage, settings, state.projector, state.decoder, draw))
    state.stage = stage
    return state


def run_stage3(state: TrainState, source_dataset, target_dataset,
               config: ExperimentConfig) -> TrainState:
    """Carry the model from ASR to monolingual translation.

    Every step draws one mini-batch from each dataset; both run through a
    single forward pass, their cross-entropies are blended by λ = b/B, and
    the routing penalties (under the routing-loss variants) cover all tokens
    of both halves.
    """
    return _run_transition_stage(state, source_dataset, target_dataset, config, 3)


def run_stage4(state: TrainState, source_dataset, target_dataset,
               config: ExperimentConfig) -> TrainState:
    """Carry the model from monolingual to code-switched translation.

    Transition term only: code-switched tokens are unlabeled, so no variant
    adds the language-aware penalties here.
    """
    return _run_transition_stage(state, source_dataset, target_dataset, config, 4)


# ----------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class PipelineResult:
    state: TrainState
    metrics: list


def _validate_stages(stages, initial):
    stages = tuple(stages) if stages is not None else (1, 2, 3, 4)
    if not stages or any(s not in (1, 2, 3, 4) for s in stages):
        raise ValueError(f"stages must be drawn from 1..4, got {stages}")
    if len(set(stages)) != len(stages) or list(stages) != sorted(stages):
        raise ValueError(f"stages must be strictly increasing, got {stages}")
    if any(b - a != 1 for a, b in zip(stages, stages[1:])):
        raise ValueError(f"stages must be contiguous, got {stages}")
    if stages[0] == 1 and initial is not None:
        raise ValueError("starting from stage 1 admits no initial state")
    if stages[0] > 1 and initial is None:
        raise ValueError(f"starting at stage {stages[0]} requires the "
                         f"stage-{stages[0] - 1} state to resume from")
    if initial is not None and initial.stage != stages[0] - 1:
        raise ValueError(f"initial state is at stage {initial.stage}; "
                         f"cannot resume at stage {stages[0]}")
    return stages


def run_pipeline(
    config: ExperimentConfig,
    bundle: DatasetBundle,
    *,
    stages=None,
    initial=None,
    after_stage: Optional[Callable] = None,
) -> PipelineResult:
    """Run the staged curriculum for the config's variant.

    ``stages`` selects a contiguous run of 1..4 (default all); starting past
    stage 1 requires ``initial``, the previous stage's TrainState. After each
    stage, ``after_stage(stage, state, rows)`` receives the state and a list
    of the stage's step rows; rows it appends (a probe, say) join the run's
    metrics after that stage's steps, and it may persist the state or stream
    the rows. The result holds the last stage's state and every row of this
    run, appended ones included.

    Variants: ``no-moe`` keeps one shared MLP throughout — ``run_stage1`` and
    ``run_stage2`` never build the mixture and spend the same batch budget
    (m× the stage-1 batches on pooled data, then the stage-2 budget) on plain
    cross-entropy, so stagewise comparisons are compute-matched.
    ``no-aux-losses`` strips the routing penalties from stages 2–3.
    ``conventional-balance`` swaps the within-group balance penalty for the
    group-agnostic one.
    """
    stages = _validate_stages(stages, initial)
    state = initial
    metrics: list = []
    for stage in stages:
        done = len(state.metrics) if state is not None else 0
        if stage == 1:
            state = run_stage1(bundle.asr_train, config)
        elif stage == 2:
            state = run_stage2(state, bundle.asr_train, config)
        elif stage == 3:
            state = run_stage3(state, bundle.asr_pooled, bundle.st_train, config)
        else:
            state = run_stage4(state, bundle.st_train, bundle.cs_train, config)
        rows = state.metrics[done:]
        if after_stage is not None:
            after_stage(stage, state, rows)
        metrics.extend(rows)
    return PipelineResult(state=state, metrics=metrics)


class AblationRun(NamedTuple):
    """One run of ``run_ablation``: its CS and mono eval records, or the message it raised."""

    variant: str
    seed: int
    cs: Optional[dict]
    mono: Optional[dict]
    error: Optional[str] = None


def run_ablation(config: ExperimentConfig, variants: Sequence[str], seeds: Iterable[int],
                 after_stage: Optional[Callable] = None) -> Iterator[AblationRun]:
    """Run every variant on every seed through the four stages, one record per run.

    Per seed, ``world_seed``, ``data_seed`` and ``train_seed`` are set to it and the
    world and datasets are drawn once, so the variants that then run on them, in the
    given order, are paired. Each finished state is scored on ``cs_val`` and
    ``st_val``. ``after_stage(variant, seed, bundle, stage, state, rows)`` is the
    run's ``run_pipeline`` hook. A run that raises is recorded by its message and
    the runs after it still run. The runs happen as the records are drawn.
    """
    for seed in seeds:
        seeded = replace(config, world_seed=seed, data_seed=seed, train_seed=seed)
        _, bundle = generate_datasets(seeded)
        for variant in variants:
            hook = None if after_stage is None else partial(after_stage, variant, seed, bundle)
            try:
                state = run_pipeline(replace(seeded, variant=variant), bundle,
                                     after_stage=hook).state
                run = AblationRun(variant, seed, evaluate_dataset(state, bundle.cs_val),
                                  evaluate_dataset(state, bundle.st_val))
            except Exception as err:  # recorded, never silently dropped
                run = AblationRun(variant, seed, None, None, str(err))
            yield run


# --------------------------------------------------------------- evaluation

_EVAL_BLOCK = 256  # logit rows whose softmax evaluate_dataset holds at once


def token_report(ce_sum: float, correct: int, tokens: int) -> dict:
    """Token-weighted cross-entropy and accuracy from summed per-token counts."""
    return {
        "ce": ce_sum / tokens,
        "accuracy": correct / tokens,
        "ce_sum": ce_sum,
        "tokens": tokens,
        "correct": correct,
    }


def evaluate_dataset(state: TrainState, utterances) -> dict:
    """Token cross-entropy and accuracy over a dataset, assembled exactly.

    All utterances go through one batched forward pass (every op is
    row-wise, so each utterance's logits equal those of its own pass). The
    per-token losses come from ``token_nll``, the definition and target
    checks ``cross_entropy`` uses, over ``_EVAL_BLOCK`` rows at a time, so
    the softmax temporaries stay at one block. ``ce`` is the token-weighted
    mean: each utterance's mean loss times its length is accumulated in
    utterance order and divided by the total token count, so a report over a
    concatenation of datasets equals the record-weighted combination of the
    parts' reports, and the sums equal those of one ``cross_entropy`` call
    per utterance bit for bit.
    """
    utts = tuple(utterances)
    if not utts:
        raise ValueError("cannot evaluate an empty dataset")
    feats, targets, labels = _batch_arrays(utts)
    logits, _ = _forward(state.projector, state.decoder, feats, labels)
    zd = logits.data
    nll = np.empty(len(zd))
    for start in range(0, len(zd), _EVAL_BLOCK):
        rows = slice(start, start + _EVAL_BLOCK)
        nll[rows] = token_nll(zd[rows], targets[rows])[0]
    ce_sum = 0.0
    tokens = 0
    for u in utts:
        ce_sum += float(nll[tokens:tokens + u.length].mean()) * u.length
        tokens += u.length
    correct = int((zd.argmax(axis=1) == targets).sum())
    return token_report(ce_sum, correct, tokens)


def routing_summary(trace: RoutingTrace) -> dict:
    """Routing accuracy and expert load of a labeled trace, in one record."""
    return {**routing_accuracy(trace), **expert_load(trace)}


def routing_probe(state: TrainState, utterances) -> dict:
    """Routing-quality summary on a probe set; empty for plain-MLP states.

    Uses true per-token language labels (code-switched segments resolved),
    since the probe asks where tokens of each language actually route.
    """
    if not isinstance(state.projector, MoeProjector):
        return {}
    utts = tuple(utterances)
    if not utts:
        raise ValueError("routing probe needs at least one utterance")
    feats = np.concatenate([u.features for u in utts], axis=0)
    labels = np.concatenate([u.token_languages() for u in utts])
    _, trace = moe_forward(state.projector, Tensor(feats), labels)
    return routing_summary(trace)
