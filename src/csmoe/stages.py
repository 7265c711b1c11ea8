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

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analysis import expert_load, routing_accuracy
from .autodiff import Adam, Parameter, Tape, Tensor, backward, cross_entropy, take
from .config import ROUTING_LOSS_VARIANTS, ExperimentConfig
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
    MoeLayer,
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
    "ModelSpec",
    "StagePlan",
    "TrainState",
    "DatasetBundle",
    "PipelineResult",
    "generate_datasets",
    "generate_eval_splits",
    "run_stage1",
    "run_stage2",
    "run_stage3",
    "run_stage4",
    "run_pipeline",
    "evaluate_dataset",
    "routing_probe",
    "routing_summary",
]

_TASK_CODE = {TASK_ASR: 0, TASK_ST: 1, TASK_CS_ST: 2}


@dataclass(frozen=True)
class ModelSpec:
    """Geometry of the projector and toy decoder, independent of any data."""

    d_in: int
    d_model: int
    num_layers: int
    experts_per_group: int
    top_k: int
    prompt_len: int
    target_vocab_size: int

    def __post_init__(self) -> None:
        for name in ("d_in", "d_model", "num_layers", "experts_per_group",
                     "top_k", "prompt_len", "target_vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def projector_config(self) -> ProjectorConfig:
        return ProjectorConfig(self.d_in, self.d_model, self.num_layers)

    @staticmethod
    def from_config(config: ExperimentConfig) -> "ModelSpec":
        return ModelSpec(
            d_in=config.d_in,
            d_model=config.d_model,
            num_layers=config.num_layers,
            experts_per_group=config.experts_per_group,
            top_k=config.top_k,
            prompt_len=config.prompt_len,
            target_vocab_size=config.target_vocab_size,
        )


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
        if self.total_batches < 1:
            raise ValueError(f"total_batches must be >= 1, got {self.total_batches}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
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
        if self.transition_mode not in ("mixed", "sampled"):
            raise ValueError(f"transition_mode must be 'mixed' or 'sampled', "
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

    def clone(self) -> "TrainState":
        """Deep copy: training the clone leaves this state untouched."""
        return TrainState(
            projector=_copy_projector(self.projector),
            decoder=ToyDecoder(
                _copy_param(self.decoder.prompt_embedding),
                _copy_param(self.decoder.output_head),
            ),
            stage=self.stage,
            metrics=[dict(row) for row in self.metrics],
        )


def _copy_param(p: Parameter) -> Parameter:
    return Parameter(p.name, Tensor(p.value.data.copy()))


def _copy_projector(proj: Union[MlpProjector, MoeProjector]):
    if isinstance(proj, MlpProjector):
        return MlpProjector(proj.config, [_copy_param(w) for w in proj.layers])
    layers = [
        MoeLayer(
            [_copy_param(e) for e in layer.expert_weights],
            _copy_param(layer.router_weights),
        )
        for layer in proj.layers
    ]
    return MoeProjector(proj.config, proj.num_languages, proj.experts_per_group,
                        proj.top_k, layers)


# --------------------------------------------------------------------- data


@dataclass(frozen=True)
class DatasetBundle:
    """All train/validation splits one experiment needs, generated once."""

    asr_train: tuple  # one tuple of Utterances per language
    st_train: tuple  # pooled over languages
    cs_train: tuple
    asr_val: tuple  # pooled over languages
    st_val: tuple
    cs_val: tuple

    @property
    def asr_pooled(self) -> tuple:
        """Stage-3 source view: all languages' ASR training utterances."""
        return tuple(u for ds in self.asr_train for u in ds)


def _split_maker(config: ExperimentConfig, max_workers: int):
    """The world plus ``make(task, language, count, split_code)``.

    ``make`` is the one place a split's seed stream is derived:
    ``[data_seed, task code, language code, split code]``, with language
    code ``m`` for code-switched data and split code 0 train, 1 validation.
    """
    world = gen_world(config.num_languages, config.d_in, config.separation, config.noise_sigma,
                      config.vocab_per_lang, config.world_seed, token_margin=config.token_margin)

    def make(task, language, count, split_code):
        lang_code = config.num_languages if language is None else language
        return gen_dataset(world, task, language, count, config.utterance_length,
                           [config.data_seed, _TASK_CODE[task], lang_code, split_code],
                           num_switches=config.cs_switches, max_workers=max_workers)

    return world, make


def generate_datasets(
    config: ExperimentConfig, max_workers: int = 1
) -> tuple[World, DatasetBundle]:
    """Build the world and every split from the config's named seeds.

    Each (task, language, split) gets its own seed stream derived from
    ``data_seed``, so any one dataset can be regenerated independently and
    the result never depends on generation order or worker count.
    """
    world, make = _split_maker(config, max_workers)
    m = config.num_languages
    n_train, n_val = config.train_utterances, config.val_utterances
    asr_train = tuple(make(TASK_ASR, g, n_train, 0) for g in range(m))
    asr_val = tuple(u for g in range(m) for u in make(TASK_ASR, g, n_val, 1))
    st_train = tuple(u for g in range(m) for u in make(TASK_ST, g, n_train, 0))
    st_val = tuple(u for g in range(m) for u in make(TASK_ST, g, n_val, 1))
    cs_train = make(TASK_CS_ST, None, n_train, 0)
    cs_val = make(TASK_CS_ST, None, n_val, 1)
    return world, DatasetBundle(asr_train, st_train, cs_train, asr_val, st_val, cs_val)


def generate_eval_splits(config: ExperimentConfig, max_workers: int = 1) -> tuple[tuple, tuple]:
    """``(st_val, cs_val)`` as ``generate_datasets`` builds them, without the other splits."""
    _, make = _split_maker(config, max_workers)
    n_val = config.val_utterances
    st_val = tuple(u for g in range(config.num_languages) for u in make(TASK_ST, g, n_val, 1))
    return st_val, make(TASK_CS_ST, None, n_val, 1)


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


def _aux_terms(plan: StagePlan, trace, group_of) -> dict:
    wanted = [name for name in ("lang", "balance") if name in plan.loss_set]
    if not wanted:
        return {}
    if trace is None or group_of is None:
        raise ValueError(
            "plan includes routing losses but the projector produces no routing "
            "trace; use a core-only loss set with plain MLP projectors"
        )
    out = {}
    if "lang" in wanted:
        out["lang"] = language_specific_loss(
            trace, None, group_of, normalize=plan.normalize_aux
        )
    if "balance" in wanted:
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


def _train_ce_stage(projector, decoder, dataset, plan, rng, *, language=None) -> list:
    """Plain cross-entropy loop (plus any planned routing penalties)."""
    dataset = tuple(dataset)
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    group_of = projector.group_of if isinstance(projector, MoeProjector) else None
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
            backward(bundle.total)
        opt.step()
        row = {"stage": plan.stage_id, "step": b, "ce": ce.item(),
               "total": bundle.total.item()}
        if language is not None:
            row["language"] = language
        for name, term in aux.items():
            row[name] = term.item()
        rows.append(row)
    return rows


def run_stage1(asr_datasets, plan: StagePlan, model: ModelSpec, seed: int):
    """Pretrain one MLP projector per language on its own ASR-proxy data.

    Each language trains independently with its own throwaway decoder head;
    the heads are discarded and the projectors returned together with the
    per-step metric rows.
    """
    if plan.stage_id != 1:
        raise ValueError(f"expected a stage-1 plan, got stage {plan.stage_id}")
    datasets = [tuple(ds) for ds in asr_datasets]
    if len(datasets) < 2:
        raise ValueError(f"need one ASR dataset per language (>= 2), got {len(datasets)}")
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    mlps, metrics = [], []
    for g, ds in enumerate(datasets):
        mlp = init_mlp(model.projector_config(), [seed, 1, g, 0])
        for p in mlp.parameters():
            p.name = f"lang{g}.{p.name}"
        head = init_decoder(model.d_model, model.target_vocab_size,
                            model.prompt_len, [seed, 1, g, 1])
        rng = np.random.default_rng([seed, 1, g, 2])
        metrics.extend(_train_ce_stage(mlp, head, ds, plan, rng, language=g))
        mlps.append(mlp)
    return tuple(mlps), metrics


def run_stage2(mlps, asr_datasets, plan: StagePlan, model: ModelSpec, seed: int) -> TrainState:
    """Assemble the grouped MoE from the pretrained MLPs and specialize it.

    Trains on pooled multilingual ASR batches whose tokens carry their
    utterance's language label, with a fresh shared decoder head (the pooled
    target space differs from the per-language stage-1 setup).
    """
    if plan.stage_id != 2:
        raise ValueError(f"expected a stage-2 plan, got stage {plan.stage_id}")
    mlps = list(mlps)
    datasets = [tuple(ds) for ds in asr_datasets]
    if len(datasets) != len(mlps):
        raise ValueError(
            f"got {len(mlps)} pretrained projectors but {len(datasets)} datasets"
        )
    if any(not ds for ds in datasets):
        raise ValueError("every language's ASR dataset must be non-empty")
    moe = build_moe_from_pretrained(
        mlps, model.experts_per_group, model.top_k, [seed, 2, 0]
    )
    decoder = init_decoder(model.d_model, model.target_vocab_size,
                           model.prompt_len, [seed, 2, 1])
    rng = np.random.default_rng([seed, 2, 2])
    pooled = tuple(u for ds in datasets for u in ds)
    rows = _train_ce_stage(moe, decoder, pooled, plan, rng)
    return TrainState(projector=moe, decoder=decoder, stage=2, metrics=rows)


def _run_transition_stage(state: TrainState, source_ds, target_ds,
                          plan: StagePlan, seed: int) -> TrainState:
    stage = plan.stage_id
    if state.stage != stage - 1:
        raise ValueError(f"stage {stage} requires a stage-{stage - 1} state, "
                         f"got stage {state.stage}")
    source_ds, target_ds = tuple(source_ds), tuple(target_ds)
    if not source_ds or not target_ds:
        raise ValueError("transition stages need non-empty source and target datasets")
    if plan.uses_aux and not isinstance(state.projector, MoeProjector):
        raise ValueError(
            "plan includes routing losses but the projector produces no routing "
            "trace; use a core-only loss set with plain MLP projectors"
        )
    group_of = (state.projector.group_of
                if isinstance(state.projector, MoeProjector) else None)
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
                backward(bundle.total)
            opt.step()
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
                backward(bundle.total)
            opt.step()
            row = {"stage": stage, "step": b, "lam": ts.lam,
                   "task": plan.target_task if use_target else plan.source_task,
                   "transition": ce.item(), "total": bundle.total.item()}
        for name, term in aux.items():
            row[name] = term.item()
        state.metrics.append(row)
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
    world: Optional[World] = None


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
    return stages


def run_pipeline(
    config: ExperimentConfig,
    bundle: Optional[DatasetBundle] = None,
    *,
    stages=None,
    initial=None,
    probe: Optional[Callable] = None,
    checkpoint_cb: Optional[Callable] = None,
) -> PipelineResult:
    """Run the staged curriculum for the config's variant.

    ``stages`` selects a contiguous run of 1..4 (default all); starting past
    stage 1 requires ``initial`` — the stage-1 projector list when resuming
    at stage 2 under the grouped variants, otherwise the previous stage's
    TrainState. After each stage, ``probe(model, stage)`` may contribute a
    metrics row and ``checkpoint_cb(stage, model)`` may persist the model;
    ``model`` is the projector list after stage 1 of a grouped run and the
    TrainState everywhere else.

    Variants: ``no-moe`` keeps one shared MLP throughout — it never builds
    the mixture and spends the same batch budget (m× the stage-1 plan on
    pooled data, then the stage-2 plan) on plain cross-entropy, so stagewise
    comparisons are compute-matched. ``no-aux-losses`` strips the routing
    penalties from stages 2–3. ``conventional-balance`` swaps the
    within-group balance penalty for the group-agnostic one.
    """
    stages = _validate_stages(stages, initial)
    world = None
    if bundle is None:
        world, bundle = generate_datasets(config)
    model = ModelSpec.from_config(config)
    plan1, plan2, plan3, plan4 = _stage_plans(config)
    seed = config.train_seed
    m = config.num_languages
    no_moe = config.variant == "no-moe"

    state: Optional[TrainState] = None
    mlps = None
    if initial is not None:
        if isinstance(initial, TrainState):
            state = initial
            if state.stage != stages[0] - 1:
                raise ValueError(f"initial state is at stage {state.stage}; "
                                 f"cannot resume at stage {stages[0]}")
        else:
            if stages[0] != 2 or no_moe:
                raise ValueError("a projector list can only resume a grouped "
                                 "run at stage 2")
            mlps = tuple(initial)

    metrics: list = []
    for stage in stages:
        if stage == 1:
            if no_moe:
                mlp = init_mlp(model.projector_config(), [seed, 1, 0, 0])
                head = init_decoder(model.d_model, model.target_vocab_size,
                                    model.prompt_len, [seed, 1, 0, 1])
                rng = np.random.default_rng([seed, 1, 0, 2])
                pooled_plan = replace(plan1, total_batches=m * plan1.total_batches)
                rows = _train_ce_stage(mlp, head, bundle.asr_pooled, pooled_plan, rng)
                state = TrainState(mlp, head, 1, rows)
            else:
                mlps, rows = run_stage1(bundle.asr_train, plan1, model, seed)
        elif stage == 2:
            if no_moe:
                head = init_decoder(model.d_model, model.target_vocab_size,
                                    model.prompt_len, [seed, 2, 1])
                rng = np.random.default_rng([seed, 2, 2])
                rows = _train_ce_stage(state.projector, head, bundle.asr_pooled,
                                       plan2, rng)
                state.decoder = head
                state.stage = 2
                state.metrics.extend(rows)
            else:
                if mlps is None:
                    raise ValueError("stage 2 needs the stage-1 projectors")
                state = run_stage2(mlps, bundle.asr_train, plan2, model, seed)
                rows = list(state.metrics)
        elif stage == 3:
            n0 = len(state.metrics)
            state = run_stage3(state, bundle.asr_pooled, bundle.st_train, plan3, seed)
            rows = state.metrics[n0:]
        else:
            n0 = len(state.metrics)
            state = run_stage4(state, bundle.st_train, bundle.cs_train, plan4, seed)
            rows = state.metrics[n0:]
        metrics.extend(rows)
        current = state if state is not None else mlps
        if probe is not None:
            probe_row = probe(current, stage)
            if probe_row:
                metrics.append({"stage": stage, "probe": dict(probe_row)})
        if checkpoint_cb is not None:
            checkpoint_cb(stage, current)
    return PipelineResult(state=state, metrics=metrics, variant=config.variant,
                          world=world)


# --------------------------------------------------------------- evaluation


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
    return {
        "ce": ce_sum / tokens,
        "accuracy": correct / tokens,
        "ce_sum": ce_sum,
        "tokens": tokens,
        "correct": correct,
    }


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
