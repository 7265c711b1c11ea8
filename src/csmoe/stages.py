"""Four-stage training scheduler for the grouped-mixture projector.

Stage 1 pretrains one MLP projector per language on that language's ASR-proxy
data. Stage 2 assembles the grouped MoE from those MLPs and trains it on
pooled multilingual ASR batches with the routing penalties. Stage 3 blends
ASR into monolingual translation through the transition loss, and stage 4
blends monolingual translation into code-switched translation with the
transition term alone (code-switched tokens carry no language label, so the
routing penalties do not apply).

Every stage derives its randomness from ``(seed, stage, ...)`` streams and
resets optimizer moments at the stage boundary, so resuming from a stage
checkpoint reproduces the remaining stages bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .analysis import expert_load, routing_accuracy
from .autodiff import Adam, Parameter, Tape, Tensor, backward, cross_entropy, take
from .config import ROUTING_LOSS_VARIANTS, TRANSITION_MODES, ExperimentConfig, StageSettings
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
    _TASKS,
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
    "StagePlan",
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


@dataclass(frozen=True)
class StagePlan:
    """Training recipe for one stage.

    ``loss_set`` defaults to the stage's canonical composition — stage 1
    {ce}, stage 2 {ce, lang, balance}, stage 3 {transition, lang, balance},
    stage 4 {transition} — and may be reduced to the core term alone for
    ablations; any other combination is rejected. Stages 1–2 train on a
    single dataset, stages 3–4 transition between a source and a target
    task and must name both.
    """

    stage_id: int
    total_batches: int
    batch_size: int
    learning_rate: float
    loss_set: Optional[tuple[str, ...]] = None
    source_task: Optional[str] = None
    target_task: Optional[str] = None
    transition_mode: str = "mixed"
    balance_mode: str = "intra"
    normalize_aux: bool = False
    lang_weight: float = 1.0
    balance_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.stage_id not in _STAGE_COMPONENTS:
            raise ValueError(f"stage_id must be 1..4, got {self.stage_id}")
        StageSettings(self.total_batches, self.batch_size, self.learning_rate)
        canonical = _STAGE_COMPONENTS[self.stage_id]
        core_only = canonical[:1]
        if self.loss_set is None:
            object.__setattr__(self, "loss_set", canonical)
        elif set(self.loss_set) == set(canonical):
            object.__setattr__(self, "loss_set", canonical)
        elif tuple(self.loss_set) == core_only:
            object.__setattr__(self, "loss_set", core_only)
        else:
            raise ValueError(
                f"stage {self.stage_id} admits loss sets {canonical} or "
                f"{core_only}, got {tuple(self.loss_set)}"
            )
        if self.stage_id <= 2:
            if self.source_task is not None or self.target_task is not None:
                raise ValueError(
                    f"stage {self.stage_id} trains on one dataset; source/target "
                    f"tasks belong to the transition stages 3-4"
                )
        else:
            if self.source_task is None or self.target_task is None:
                raise ValueError(
                    f"stage {self.stage_id} transitions between tasks and needs "
                    f"both source_task and target_task"
                )
            for role, task in (("source_task", self.source_task),
                               ("target_task", self.target_task)):
                if task not in _TASKS:
                    raise ValueError(f"{role} {task!r} is not one of {_TASKS}")
            if self.source_task == self.target_task:
                raise ValueError("source_task and target_task must differ")
        if self.transition_mode not in TRANSITION_MODES:
            raise ValueError(f"transition_mode must be one of {TRANSITION_MODES}, "
                             f"got {self.transition_mode!r}")
        if self.balance_mode not in ("intra", "conventional"):
            raise ValueError(f"balance_mode must be 'intra' or 'conventional', "
                             f"got {self.balance_mode!r}")
        if not self.lang_weight > 0 or not self.balance_weight > 0:
            raise ValueError("auxiliary loss weights must be positive")

    @property
    def uses_aux(self) -> bool:
        return "lang" in self.loss_set or "balance" in self.loss_set


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


def _routing_groups(projector, plan: StagePlan):
    """The projector's expert-group map; routing losses without one are refused."""
    if isinstance(projector, MoeProjector):
        return projector.group_of
    if plan.uses_aux:
        raise ValueError(
            "plan includes routing losses but the projector produces no routing "
            "trace; use a core-only loss set with plain MLP projectors"
        )
    return None


def _aux_terms(plan: StagePlan, trace, group_of) -> dict:
    out = {}
    if "lang" in plan.loss_set:
        out["lang"] = language_specific_loss(
            trace, None, group_of, normalize=plan.normalize_aux
        )
    if "balance" in plan.loss_set:
        if plan.balance_mode == "intra":
            out["balance"] = intra_group_balance_loss(
                trace, group_of, normalize=plan.normalize_aux
            )
        else:
            out["balance"] = conventional_balance_loss(trace, normalize=plan.normalize_aux)
    return out


def _compose(plan: StagePlan, *, ce=None, transition=None, aux=None) -> LossBundle:
    aux = aux or {}
    if plan.loss_set == _STAGE_COMPONENTS[plan.stage_id]:
        return compose_stage_loss(
            plan.stage_id,
            ce=ce,
            transition=transition,
            lang=aux.get("lang"),
            balance=aux.get("balance"),
            lang_weight=plan.lang_weight,
            balance_weight=plan.balance_weight,
        )
    # ablation: the stage runs on its core term alone
    core = ce if _STAGE_COMPONENTS[plan.stage_id][0] == "ce" else transition
    if core is None:
        raise ValueError(f"stage {plan.stage_id} core loss term missing")
    return LossBundle(
        stage=plan.stage_id,
        total=core,
        ce=ce,
        transition=transition if plan.stage_id >= 3 else None,
    )


def _train_ce_stage(projector, dataset, plan, config, stream, *, language=None):
    """Train ``projector`` under a new decoder head; return the head and the step rows.

    The loss is cross-entropy plus any planned routing penalties. The head is
    drawn from seed stream ``[*stream, 1]`` and the batch order from
    ``[*stream, 2]``.
    """
    dataset = tuple(dataset)
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    group_of = _routing_groups(projector, plan)
    decoder = init_decoder(config.d_model, config.target_vocab_size,
                           config.prompt_len, [*stream, 1])
    rng = np.random.default_rng([*stream, 2])
    opt = Adam(list(projector.parameters()) + list(decoder.parameters()),
               lr=plan.learning_rate)
    rows = []
    for b in range(1, plan.total_batches + 1):
        feats, targets, labels = _batch_arrays(_sample(dataset, rng, plan.batch_size))
        opt.zero_grad()
        with Tape():
            logits, trace = _forward(projector, decoder, feats, labels)
            ce = cross_entropy(logits, targets)
            aux = _aux_terms(plan, trace, group_of)
            bundle = _compose(plan, ce=ce, aux=aux)
        row = {"stage": plan.stage_id, "step": b, "ce": ce.item(),
               "total": bundle.total.item()}
        if language is not None:
            row["language"] = language
        for name, term in aux.items():
            row[name] = term.item()
        rows.append(_finite_row(row))
        backward(bundle.total)
        opt.step()
    return decoder, rows


def run_stage1(asr_datasets, plan: StagePlan, config: ExperimentConfig, seed: int):
    """Pretrain one MLP projector per language on its own ASR-proxy data.

    Each language trains independently with its own throwaway decoder head;
    the heads are discarded and the projectors returned together with the
    per-step metric rows. Under ``no-moe`` one shared MLP trains instead on
    the pooled languages for m× the plan's batches (the grouped budget) and
    is returned with its head as a stage-1 TrainState.
    """
    if plan.stage_id != 1:
        raise ValueError(f"expected a stage-1 plan, got stage {plan.stage_id}")
    datasets = [tuple(ds) for ds in asr_datasets]
    if len(datasets) < 2:
        raise ValueError(f"need one ASR dataset per language (>= 2), got {len(datasets)}")
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    shape = ProjectorConfig(config.d_in, config.d_model, config.num_layers)
    if config.variant == "no-moe":
        mlp = init_mlp(shape, [seed, 1, 0, 0])
        pooled_plan = replace(plan, total_batches=len(datasets) * plan.total_batches)
        head, rows = _train_ce_stage(mlp, _pooled(datasets), pooled_plan, config, [seed, 1, 0])
        return TrainState(mlp, head, 1, list(rows)), rows
    mlps, metrics = [], []
    for g, ds in enumerate(datasets):
        mlp = init_mlp(shape, [seed, 1, g, 0])
        for p in mlp.parameters():
            p.name = f"lang{g}.{p.name}"
        metrics.extend(_train_ce_stage(mlp, ds, plan, config, [seed, 1, g], language=g)[1])
        mlps.append(mlp)
    return tuple(mlps), metrics


def run_stage2(stage1, asr_datasets, plan: StagePlan, config: ExperimentConfig,
               seed: int) -> TrainState:
    """Assemble the grouped MoE from the pretrained MLPs and specialize it.

    Trains on pooled multilingual ASR batches whose tokens carry their
    utterance's language label, with a fresh shared decoder head (the pooled
    target space differs from the per-language stage-1 setup). Under
    ``no-moe``, ``stage1`` is the stage-1 TrainState and its shared MLP
    trains on under a fresh head.
    """
    if plan.stage_id != 2:
        raise ValueError(f"expected a stage-2 plan, got stage {plan.stage_id}")
    datasets = [tuple(ds) for ds in asr_datasets]
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    if isinstance(stage1, TrainState) != (config.variant == "no-moe"):
        raise ValueError("stage 2 continues the stage-1 TrainState under no-moe "
                         "and the stage-1 projector list otherwise")
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
    decoder, rows = _train_ce_stage(projector, _pooled(datasets), plan, config, [seed, 2])
    return TrainState(projector=projector, decoder=decoder, stage=2, metrics=metrics + rows)


def _run_transition_stage(state: TrainState, source_ds, target_ds,
                          plan: StagePlan, seed: int) -> TrainState:
    stage = plan.stage_id
    if state.stage != stage - 1:
        raise ValueError(f"stage {stage} requires a stage-{stage - 1} state, "
                         f"got stage {state.stage}")
    source_ds, target_ds = tuple(source_ds), tuple(target_ds)
    if not source_ds or not target_ds:
        raise ValueError("transition stages need non-empty source and target datasets")
    group_of = _routing_groups(state.projector, plan)
    rng = np.random.default_rng([seed, stage])
    opt = Adam(state.parameters(), lr=plan.learning_rate)
    B = plan.total_batches
    for b in range(1, B + 1):
        ts = TransitionState(b, B)
        src_batch = _sample(source_ds, rng, plan.batch_size)
        tgt_batch = _sample(target_ds, rng, plan.batch_size)
        opt.zero_grad()
        if plan.transition_mode == "mixed":
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
                aux = _aux_terms(plan, trace, group_of)
                bundle = _compose(plan, transition=trans, aux=aux)
            row = {"stage": stage, "step": b, "lam": ts.lam,
                   "ce_source": ce_src.item(), "ce_target": ce_tgt.item(),
                   "transition": trans.item(), "total": bundle.total.item()}
        else:  # sampled: one batch from the target with probability λ
            use_target = rng.random() < ts.lam
            feats, targets, labels = _batch_arrays(tgt_batch if use_target else src_batch)
            with Tape():
                logits, trace = _forward(state.projector, state.decoder, feats, labels)
                ce = cross_entropy(logits, targets)
                aux = _aux_terms(plan, trace, group_of)
                bundle = _compose(plan, transition=ce, aux=aux)
            row = {"stage": stage, "step": b, "lam": ts.lam,
                   "task": plan.target_task if use_target else plan.source_task,
                   "transition": ce.item(), "total": bundle.total.item()}
        for name, term in aux.items():
            row[name] = term.item()
        state.metrics.append(_finite_row(row))
        backward(bundle.total)
        opt.step()
    state.stage = stage
    return state


def run_stage3(state: TrainState, source_dataset, target_dataset,
               plan: StagePlan, seed: int) -> TrainState:
    """Carry the model from ASR to monolingual translation.

    Every step draws one mini-batch from each dataset; in mixed mode both
    run through a single forward pass, their cross-entropies are blended by
    λ = b/B, and the routing penalties (when planned) cover all tokens of
    both halves.
    """
    if plan.stage_id != 3:
        raise ValueError(f"expected a stage-3 plan, got stage {plan.stage_id}")
    return _run_transition_stage(state, source_dataset, target_dataset, plan, seed)


def run_stage4(state: TrainState, source_dataset, target_dataset,
               plan: StagePlan, seed: int) -> TrainState:
    """Carry the model from monolingual to code-switched translation.

    Transition term only: code-switched tokens are unlabeled, so the
    language-aware penalties are rejected at plan construction.
    """
    if plan.stage_id != 4:
        raise ValueError(f"expected a stage-4 plan, got stage {plan.stage_id}")
    return _run_transition_stage(state, source_dataset, target_dataset, plan, seed)


# ----------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class PipelineResult:
    state: Optional[TrainState]
    metrics: list
    variant: str


def _stage_plans(config: ExperimentConfig):
    strip = config.variant not in ROUTING_LOSS_VARIANTS
    balance_mode = ("conventional" if config.variant == "conventional-balance"
                    else "intra")
    aux = dict(balance_mode=balance_mode, normalize_aux=config.normalize_aux,
               lang_weight=config.lang_weight, balance_weight=config.balance_weight)
    s1, s2, s3, s4 = (config.stage_settings(i) for i in (1, 2, 3, 4))
    plan1 = StagePlan(1, s1.total_batches, s1.batch_size, s1.learning_rate)
    plan2 = StagePlan(2, s2.total_batches, s2.batch_size, s2.learning_rate,
                      loss_set=("ce",) if strip else None, **aux)
    plan3 = StagePlan(3, s3.total_batches, s3.batch_size, s3.learning_rate,
                      loss_set=("transition",) if strip else None,
                      source_task=TASK_ASR, target_task=TASK_ST,
                      transition_mode=config.transition_mode, **aux)
    plan4 = StagePlan(4, s4.total_batches, s4.batch_size, s4.learning_rate,
                      source_task=TASK_ST, target_task=TASK_CS_ST,
                      transition_mode=config.transition_mode)
    return plan1, plan2, plan3, plan4


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
    (m× the stage-1 plan on pooled data, then the stage-2 plan) on plain
    cross-entropy, so stagewise comparisons are compute-matched.
    ``no-aux-losses`` strips the routing penalties from stages 2–3.
    ``conventional-balance`` swaps the within-group balance penalty for the
    group-agnostic one.
    """
    stages = _validate_stages(stages, initial)
    plan1, plan2, plan3, plan4 = _stage_plans(config)
    seed = config.train_seed

    model = initial
    metrics: list = []
    for stage in stages:
        done = len(model.metrics) if isinstance(model, TrainState) else 0
        if stage == 1:
            model, rows = run_stage1(bundle.asr_train, plan1, config, seed)
        else:
            if stage == 2:
                model = run_stage2(model, bundle.asr_train, plan2, config, seed)
            elif stage == 3:
                model = run_stage3(model, bundle.asr_pooled, bundle.st_train, plan3, seed)
            else:
                model = run_stage4(model, bundle.st_train, bundle.cs_train, plan4, seed)
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
