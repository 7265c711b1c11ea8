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
variant), the transition mode and the loss weights. Every stage derives its
randomness from ``(train_seed, stage, ...)`` streams and resets optimizer
moments at the stage boundary, so resuming from a stage checkpoint
reproduces the remaining stages bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .analysis import expert_load, routing_accuracy
from .autodiff import Adam, Parameter, Tape, Tensor, backward, cross_entropy, take
from .config import ROUTING_LOSS_VARIANTS, ExperimentConfig, StageSettings
from .losses import (
    _STAGE_COMPONENTS,
    LossBundle,
    TransitionState,
    compose_stage_loss,
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
    transition_loss,
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
    "evaluate_dataset",
    "token_report",
    "routing_probe",
    "routing_summary",
]

class NonFiniteLossError(FloatingPointError):
    """A training step produced an infinite or NaN loss value."""


def _finite_row(row: dict) -> dict:
    """``row`` itself, once every loss value in it is finite."""
    for name, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteLossError(
                f"stage {row['stage']} step {row['step']}: {name} is {value}"
            )
    return row


@dataclass
class TrainState:
    """Mutable model-plus-history carried across stages."""

    projector: Union[MlpProjector, MoeProjector]
    decoder: ToyDecoder
    stage: int
    metrics: list = field(default_factory=list)

    def parameters(self) -> list[Parameter]:
        return list(self.projector.parameters()) + list(self.decoder.parameters())


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
        SplitEntry(f"{prefix}_lang{g}.{split}.jsonl", task, g, split)
        for g in range(config.num_languages)
        for prefix, task in (("asr", TASK_ASR), ("st", TASK_ST))
        for split in _SPLIT_CODE
    )
    return per_language + tuple(
        SplitEntry(f"cs.{split}.jsonl", TASK_CS_ST, None, split) for split in _SPLIT_CODE
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


# transition stage -> (source task, target task); sampled-mode rows name the batch's task
_TRANSITION_TASKS = {3: (TASK_ASR, TASK_ST), 4: (TASK_ST, TASK_CS_ST)}


def _routing_losses(config: ExperimentConfig, stage: int) -> bool:
    """Whether ``stage`` adds the language and balance penalties under the config's variant."""
    return "lang" in _STAGE_COMPONENTS[stage] and config.variant in ROUTING_LOSS_VARIANTS


def _routing_groups(projector, config: ExperimentConfig, stage: int):
    """The projector's expert-group map; routing losses without one are refused."""
    if isinstance(projector, MoeProjector):
        return projector.group_of
    if _routing_losses(config, stage):
        raise ValueError(
            f"variant {config.variant!r} adds routing losses in stage {stage} but the "
            f"projector produces no routing trace; plain MLP projectors train without them"
        )
    return None


def _aux_terms(config: ExperimentConfig, stage: int, trace, group_of) -> dict:
    if not _routing_losses(config, stage):
        return {}
    normalize = config.normalize_aux
    out = {"lang": language_specific_loss(trace, None, group_of, normalize=normalize)}
    if config.variant == "conventional-balance":
        out["balance"] = conventional_balance_loss(trace, normalize=normalize)
    else:
        out["balance"] = intra_group_balance_loss(trace, group_of, normalize=normalize)
    return out


def _compose(config: ExperimentConfig, stage: int, *, ce=None, transition=None,
             aux: dict) -> LossBundle:
    if "lang" in _STAGE_COMPONENTS[stage] and not aux:
        # the variant drops the routing penalties: the stage runs on its core term alone
        return LossBundle(stage=stage, total=ce if transition is None else transition,
                          ce=ce, transition=transition)
    return compose_stage_loss(
        stage,
        ce=ce,
        transition=transition,
        lang=aux.get("lang"),
        balance=aux.get("balance"),
        lang_weight=config.lang_weight,
        balance_weight=config.balance_weight,
    )


def _train_ce_stage(config: ExperimentConfig, stage: int, settings: StageSettings,
                    projector, dataset, stream, *, language=None):
    """Train ``projector`` under a new decoder head; return the head and the step rows.

    The loss is cross-entropy plus the stage's routing penalties, if the
    variant has them. The head is drawn from seed stream ``[*stream, 1]``
    and the batch order from ``[*stream, 2]``.
    """
    dataset = tuple(dataset)
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    group_of = _routing_groups(projector, config, stage)
    decoder = init_decoder(config.d_model, config.target_vocab_size,
                           config.prompt_len, [*stream, 1])
    rng = np.random.default_rng([*stream, 2])
    opt = Adam(list(projector.parameters()) + list(decoder.parameters()),
               lr=settings.learning_rate)
    rows = []
    for b in range(1, settings.total_batches + 1):
        feats, targets, labels = _batch_arrays(_sample(dataset, rng, settings.batch_size))
        opt.zero_grad()
        with Tape():
            logits, trace = _forward(projector, decoder, feats, labels)
            ce = cross_entropy(logits, targets)
            aux = _aux_terms(config, stage, trace, group_of)
            bundle = _compose(config, stage, ce=ce, aux=aux)
        row = {"stage": stage, "step": b, "ce": ce.item(), "total": bundle.total.item()}
        if language is not None:
            row["language"] = language
        for name, term in aux.items():
            row[name] = term.item()
        rows.append(_finite_row(row))
        backward(bundle.total)
        opt.step()
    return decoder, rows


def run_stage1(asr_datasets, config: ExperimentConfig):
    """Pretrain one MLP projector per language on its own ASR-proxy data.

    Each language trains independently with its own throwaway decoder head
    for the config's stage-1 budget; the heads are discarded and the
    projectors returned together with the per-step metric rows. Under
    ``no-moe`` one shared MLP trains instead on the pooled languages for m×
    the stage-1 batches (the grouped budget) and is returned with its head
    as a stage-1 TrainState.
    """
    datasets = [tuple(ds) for ds in asr_datasets]
    if len(datasets) < 2:
        raise ValueError(f"need one ASR dataset per language (>= 2), got {len(datasets)}")
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    seed, settings = config.train_seed, config.stage_settings(1)
    shape = ProjectorConfig(config.d_in, config.d_model, config.num_layers)
    if config.variant == "no-moe":
        mlp = init_mlp(shape, [seed, 1, 0, 0])
        pooled = replace(settings, total_batches=len(datasets) * settings.total_batches)
        head, rows = _train_ce_stage(config, 1, pooled, mlp, _pooled(datasets), [seed, 1, 0])
        return TrainState(mlp, head, 1, list(rows)), rows
    mlps, metrics = [], []
    for g, ds in enumerate(datasets):
        mlp = init_mlp(shape, [seed, 1, g, 0])
        for p in mlp.parameters():
            p.name = f"lang{g}.{p.name}"
        metrics.extend(_train_ce_stage(config, 1, settings, mlp, ds, [seed, 1, g],
                                       language=g)[1])
        mlps.append(mlp)
    return tuple(mlps), metrics


def run_stage2(stage1, asr_datasets, config: ExperimentConfig) -> TrainState:
    """Assemble the grouped MoE from the pretrained MLPs and specialize it.

    Trains on pooled multilingual ASR batches whose tokens carry their
    utterance's language label, with a fresh shared decoder head (the pooled
    target space differs from the per-language stage-1 setup). Under
    ``no-moe``, ``stage1`` is the stage-1 TrainState and its shared MLP
    trains on under a fresh head.
    """
    datasets = [tuple(ds) for ds in asr_datasets]
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    if isinstance(stage1, TrainState) != (config.variant == "no-moe"):
        raise ValueError("stage 2 continues the stage-1 TrainState under no-moe "
                         "and the stage-1 projector list otherwise")
    seed = config.train_seed
    if isinstance(stage1, TrainState):
        projector, metrics = stage1.projector, list(stage1.metrics)
    else:
        mlps = list(stage1)
        if len(datasets) != len(mlps):
            raise ValueError(
                f"got {len(mlps)} pretrained projectors but {len(datasets)} datasets"
            )
        projector = build_moe_from_pretrained(
            mlps, config.experts_per_group, config.top_k, [seed, 2, 0]
        )
        metrics = []
    decoder, rows = _train_ce_stage(config, 2, config.stage_settings(2), projector,
                                    _pooled(datasets), [seed, 2])
    return TrainState(projector=projector, decoder=decoder, stage=2, metrics=metrics + rows)


def _run_transition_stage(state: TrainState, source_ds, target_ds,
                          config: ExperimentConfig, stage: int) -> TrainState:
    if state.stage != stage - 1:
        raise ValueError(f"stage {stage} requires a stage-{stage - 1} state, "
                         f"got stage {state.stage}")
    source_ds, target_ds = tuple(source_ds), tuple(target_ds)
    if not source_ds or not target_ds:
        raise ValueError("transition stages need non-empty source and target datasets")
    group_of = _routing_groups(state.projector, config, stage)
    settings = config.stage_settings(stage)
    rng = np.random.default_rng([config.train_seed, stage])
    opt = Adam(state.parameters(), lr=settings.learning_rate)
    B = settings.total_batches
    for b in range(1, B + 1):
        ts = TransitionState(b, B)
        src_batch = _sample(source_ds, rng, settings.batch_size)
        tgt_batch = _sample(target_ds, rng, settings.batch_size)
        opt.zero_grad()
        if config.transition_mode == "mixed":
            feats_s, tg_s, lab_s = _batch_arrays(src_batch)
            feats_t, tg_t, lab_t = _batch_arrays(tgt_batch)
            feats = np.concatenate([feats_s, feats_t], axis=0)
            labels = np.concatenate([lab_s, lab_t])
            n_src = feats_s.shape[0]
            with Tape():
                logits, trace = _forward(state.projector, state.decoder, feats, labels)
                ce_src = cross_entropy(take(logits, np.arange(n_src)), tg_s)
                ce_tgt = cross_entropy(
                    take(logits, np.arange(n_src, feats.shape[0])), tg_t
                )
                trans = transition_loss(ce_src, ce_tgt, ts)
                aux = _aux_terms(config, stage, trace, group_of)
                bundle = _compose(config, stage, transition=trans, aux=aux)
            row = {"stage": stage, "step": b, "lam": ts.lam,
                   "ce_source": ce_src.item(), "ce_target": ce_tgt.item(),
                   "transition": trans.item(), "total": bundle.total.item()}
        else:  # sampled: one batch from the target with probability λ
            use_target = rng.random() < ts.lam
            feats, targets, labels = _batch_arrays(tgt_batch if use_target else src_batch)
            with Tape():
                logits, trace = _forward(state.projector, state.decoder, feats, labels)
                ce = cross_entropy(logits, targets)
                aux = _aux_terms(config, stage, trace, group_of)
                bundle = _compose(config, stage, transition=ce, aux=aux)
            row = {"stage": stage, "step": b, "lam": ts.lam,
                   "task": _TRANSITION_TASKS[stage][use_target],
                   "transition": ce.item(), "total": bundle.total.item()}
        for name, term in aux.items():
            row[name] = term.item()
        state.metrics.append(_finite_row(row))
        backward(bundle.total)
        opt.step()
    state.stage = stage
    return state


def run_stage3(state: TrainState, source_dataset, target_dataset,
               config: ExperimentConfig) -> TrainState:
    """Carry the model from ASR to monolingual translation.

    Every step draws one mini-batch from each dataset; in mixed mode both
    run through a single forward pass, their cross-entropies are blended by
    λ = b/B, and the routing penalties (under the routing-loss variants)
    cover all tokens of both halves.
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
    state: Optional[TrainState]
    metrics: list
    variant: str


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
    if initial is not None:
        resumed = initial.stage if isinstance(initial, TrainState) else 1
        if resumed != stages[0] - 1:
            raise ValueError(f"initial state is at stage {resumed}; "
                             f"cannot resume at stage {stages[0]}")
    return stages


def run_pipeline(
    config: ExperimentConfig,
    bundle: DatasetBundle,
    *,
    stages=None,
    initial=None,
    probe: Optional[Callable] = None,
    checkpoint_cb: Optional[Callable] = None,
    metrics_cb: Optional[Callable] = None,
) -> PipelineResult:
    """Run the staged curriculum for the config's variant.

    ``stages`` selects a contiguous run of 1..4 (default all); starting past
    stage 1 requires ``initial`` — the stage-1 projector list when resuming
    at stage 2 under the grouped variants, otherwise the previous stage's
    TrainState. After each stage, ``probe(model, stage)`` may contribute a
    metrics row, ``checkpoint_cb(stage, model)`` may persist the model, and
    then ``metrics_cb(rows)`` receives the stage's metric rows (its probe row
    last); ``model`` is the projector list after stage 1 of a grouped run and
    the TrainState everywhere else.

    Variants: ``no-moe`` keeps one shared MLP throughout — ``run_stage1`` and
    ``run_stage2`` never build the mixture and spend the same batch budget
    (m× the stage-1 batches on pooled data, then the stage-2 budget) on plain
    cross-entropy, so stagewise comparisons are compute-matched.
    ``no-aux-losses`` strips the routing penalties from stages 2–3.
    ``conventional-balance`` swaps the within-group balance penalty for the
    group-agnostic one.
    """
    stages = _validate_stages(stages, initial)
    model = initial
    metrics: list = []
    for stage in stages:
        done = len(model.metrics) if isinstance(model, TrainState) else 0
        if stage == 1:
            model, rows = run_stage1(bundle.asr_train, config)
        else:
            if stage == 2:
                model = run_stage2(model, bundle.asr_train, config)
            elif stage == 3:
                model = run_stage3(model, bundle.asr_pooled, bundle.st_train, config)
            else:
                model = run_stage4(model, bundle.st_train, bundle.cs_train, config)
            rows = model.metrics[done:]
        rows = list(rows)
        if probe is not None:
            probe_row = probe(model, stage)
            if probe_row:
                rows.append({"stage": stage, "probe": dict(probe_row)})
        metrics.extend(rows)
        if checkpoint_cb is not None:
            checkpoint_cb(stage, model)
        if metrics_cb is not None:
            metrics_cb(rows)
    state = model if isinstance(model, TrainState) else None
    return PipelineResult(state=state, metrics=metrics, variant=config.variant)


# --------------------------------------------------------------- evaluation


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
    row-wise, so each utterance's logits equal those of its own pass).
    ``ce`` is the token-weighted mean: per-utterance cross-entropy sums are
    accumulated and divided by the total token count, so a report over a
    concatenation of datasets equals the record-weighted combination of the
    parts' reports.
    """
    utts = tuple(utterances)
    if not utts:
        raise ValueError("cannot evaluate an empty dataset")
    feats, _, labels = _batch_arrays(utts)
    logits, _ = _forward(state.projector, state.decoder, feats, labels)
    ce_sum = 0.0
    correct = 0
    tokens = 0
    for u in utts:
        z = logits.data[tokens:tokens + u.length]
        ce_sum += cross_entropy(z, u.targets).item() * u.length
        correct += int((z.argmax(axis=1) == u.targets).sum())
        tokens += u.length
    return token_report(ce_sum, correct, tokens)


def routing_summary(trace: RoutingTrace, group_of: np.ndarray) -> dict:
    """Routing accuracy and expert load of a labeled trace, as plain tuples."""
    stats = routing_accuracy(trace, group_of)
    load = expert_load(trace, group_of)
    return {
        "top1_in_group": tuple(float(x) for x in stats.top1_in_group),
        "topk_mass_in_group": tuple(float(x) for x in stats.topk_mass_in_group),
        "topk_count_in_group": tuple(float(x) for x in stats.topk_count_in_group),
        "expert_shares": tuple(float(x) for x in load.shares),
        "group_ratio": tuple(float(x) for x in load.group_ratio),
    }


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
    return routing_summary(trace, state.projector.group_of)
