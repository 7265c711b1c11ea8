"""Training objectives for the grouped mixture projector.

Three auxiliary losses shape the router during training, and a blended
objective carries the model across task transitions:

* ``language_specific_loss`` pushes routing probability mass off experts that
  belong to other languages' groups.
* ``intra_group_balance_loss`` spreads load evenly *within* each language's
  expert group, one term per (layer, language) cell.
* ``conventional_balance_loss`` is the classic differentiable load-balancing
  penalty over all experts jointly, kept as an ablation baseline.
* ``transition_loss`` linearly anneals between a source-task and a
  target-task loss over the course of a stage.

All losses are sums (not means) over tokens and layers unless the
``normalize`` flag is set, and all are differentiable through the routing
probabilities: assignment counts are treated as constants (gradients flow
only through the probability factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, add, div, log, matmul, mul, sub, tsum
from .projector import CS_UNLABELED, RoutingTrace

__all__ = [
    "TransitionState",
    "LossBundle",
    "language_specific_loss",
    "intra_group_balance_loss",
    "conventional_balance_loss",
    "transition_loss",
    "compose_stage_loss",
]


def _resolve_labels(trace: RoutingTrace, lang: Optional[int], num_groups: int) -> np.ndarray:
    """Per-token language labels, validated to be concrete and in range."""
    if lang is not None:
        lang = int(lang)
        if lang == CS_UNLABELED:
            raise ValueError(
                "language must be a concrete label; unlabeled segments cannot "
                "be scored by language-aware losses"
            )
        if not 0 <= lang < num_groups:
            raise ValueError(f"language {lang} out of range for {num_groups} groups")
        return np.full(trace.num_tokens, lang, dtype=np.intp)
    if trace.token_language is None:
        raise ValueError("trace carries no token language labels; pass lang explicitly")
    labels = np.asarray(trace.token_language, dtype=np.intp)
    if np.any(labels == CS_UNLABELED):
        raise ValueError(
            "trace contains unlabeled (code-switched) tokens; language-aware "
            "losses require a concrete label per token"
        )
    if labels.min() < 0 or labels.max() >= num_groups:
        raise ValueError(f"token language labels out of range for {num_groups} groups")
    return labels


def _group_layout(group_of: np.ndarray) -> tuple[np.ndarray, int, int]:
    group_of = np.asarray(group_of, dtype=np.intp)
    if group_of.ndim != 1 or group_of.size == 0:
        raise ValueError("group_of must be a non-empty 1-D array")
    m = int(group_of.max()) + 1
    counts = np.bincount(group_of, minlength=m)
    if group_of.min() < 0 or np.any(counts == 0) or len(set(counts)) != 1:
        raise ValueError("group_of must assign every expert to equally sized groups 0..m-1")
    return group_of, m, int(counts[0])


def _in_group_wins(probs: np.ndarray, labels: np.ndarray, group_of: np.ndarray,
                   m: int, n: int) -> np.ndarray:
    """[m × n] in-group argmax winners of one layer's probabilities.

    Row j counts, over language j's tokens, which of group j's experts holds
    the largest probability (ties to the lowest expert index, matching the
    routing tie-break); tokens with no mass inside their group are skipped.
    """
    wins = np.zeros((m, n))
    for j in range(m):
        in_group = probs[labels == j][:, group_of == j]  # [T_j × n]
        has_mass = in_group.sum(axis=1) > 0.0
        if has_mass.any():
            wins[j] = np.bincount(in_group[has_mass].argmax(axis=1), minlength=n)
    return wins


def language_specific_loss(
    trace: RoutingTrace,
    lang: Optional[int],
    group_of: np.ndarray,
    *,
    normalize: bool = False,
) -> Tensor:
    """Penalty on routing mass assigned outside each token's language group.

    For token t with language l and per-expert probabilities p, the
    contribution is ``-sum_{i not in group l} log(1 - p_i)``, summed over all
    tokens and layers. Zero exactly when every token routes entirely within
    its own group. ``lang`` overrides the trace's per-token labels with one
    label for all tokens; when ``None`` the trace labels are used and must be
    concrete for every token.
    """
    group_of, m, _ = _group_layout(group_of)
    labels = _resolve_labels(trace, lang, m)
    # out_mask[t, i] = 1.0 when expert i is outside token t's language group
    out_mask = (group_of[None, :] != labels[:, None]).astype(float)
    total: Optional[Tensor] = None
    for layer in trace.layers:
        # p ⊙ mask zeroes in-group entries, so log(1 - ·) is 0 there and the
        # sum reduces to the out-group terms without a second masking pass.
        masked = mul(layer.probs, Tensor(out_mask))
        term = mul(tsum(log(sub(1.0, masked))), -1.0)
        total = term if total is None else add(total, term)
    assert total is not None
    if normalize:
        total = div(total, float(trace.num_tokens))
    return total


def intra_group_balance_loss(
    trace: RoutingTrace,
    group_of: np.ndarray,
    *,
    lang: Optional[int] = None,
    normalize: bool = False,
) -> Tensor:
    """Load-balance penalty applied within each language's expert group.

    For each layer and each language j present in the batch, over that
    language's tokens: f_i is the fraction whose in-group argmax falls on
    expert i (a constant), and P_i is the language-mean routing probability
    renormalized over the group's experts (differentiable). The cell term is
    ``sum_i f_i * P_i``; cells are summed over layers and languages.

    Tokens with zero probability mass inside their own group have no in-group
    argmax and are excluded from f; languages with no tokens (or no tokens
    carrying in-group mass) contribute nothing.
    """
    group_of, m, n = _group_layout(group_of)
    labels = _resolve_labels(trace, lang, m)
    num_experts = group_of.size
    total: Optional[Tensor] = None
    for layer in trace.layers:
        wins = _in_group_wins(layer.probs.data, labels, group_of, m, n)
        for j in range(m):
            if wins[j].sum() == 0:
                continue
            gmask = group_of == j
            # f: constant assignment fractions from in-group argmax
            f = wins[j] / wins[j].sum()
            # P: differentiable language-mean probabilities renormalized over
            # the group — built from column sums so gradients reach the
            # denominator too
            sel_row = Tensor((labels == j).astype(float)[None, :])  # [1 × T]
            colsums = matmul(sel_row, layer.probs)  # [1 × N]
            f_row = np.zeros(num_experts)
            f_row[gmask] = f
            numer = tsum(mul(colsums, Tensor(f_row[None, :])))
            denom = tsum(mul(colsums, Tensor(gmask.astype(float)[None, :])))
            term = div(numer, denom)
            total = term if total is None else add(total, term)
    if total is None:
        raise ValueError("no token carries in-group probability mass; balance undefined")
    if normalize:
        total = div(total, float(m * trace.num_layers))
    return total


def conventional_balance_loss(trace: RoutingTrace, *, normalize: bool = False) -> Tensor:
    """Classic load-balance penalty over all experts jointly, per layer.

    f'_i is the fraction of tokens whose global argmax falls on expert i
    (constant); P'_i is the token-mean probability of expert i
    (differentiable). Each layer contributes ``sum_i f'_i * P'_i``; layers are
    summed. Language labels and grouping play no role.
    """
    total: Optional[Tensor] = None
    for layer in trace.layers:
        pdata = layer.probs.data
        num_tokens, num_experts = pdata.shape
        winners = pdata.argmax(axis=1)
        counts = np.bincount(winners, minlength=num_experts).astype(float)
        f = counts / num_tokens
        ones_row = Tensor(np.full((1, num_tokens), 1.0 / num_tokens))
        colmeans = matmul(ones_row, layer.probs)  # [1 × N]
        term = tsum(mul(colmeans, Tensor(f[None, :])))
        total = term if total is None else add(total, term)
    assert total is not None
    if normalize:
        total = div(total, float(trace.num_layers))
    return total


@dataclass(frozen=True)
class TransitionState:
    """Position within a transition stage: batch ``b`` of ``B`` (1-based)."""

    b: int
    B: int

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValueError("total batch count B must be >= 1")
        if not 1 <= self.b <= self.B:
            raise ValueError(f"batch index b={self.b} outside 1..{self.B}")

    @property
    def lam(self) -> float:
        """Blend weight λ = b/B, reaching exactly 1.0 on the final batch."""
        return self.b / self.B


def transition_loss(ce_source: Tensor, ce_target: Tensor, ts: TransitionState) -> Tensor:
    """Linear blend ``(1-λ)·source + λ·target`` with λ = b/B.

    At b = B the source weight is exactly 0.0, so the result equals the
    target loss bit-for-bit (0·x + y = y in IEEE arithmetic for finite x).
    """
    lam = ts.lam
    return add(mul(ce_source, 1.0 - lam), mul(ce_target, lam))


@dataclass(frozen=True)
class LossBundle:
    """Composed stage objective with its constituent terms.

    ``total`` is always the exact sum of the non-None components (after any
    weighting); components not used by the stage are None.
    """

    stage: int
    total: Tensor
    ce: Optional[Tensor] = None
    lang: Optional[Tensor] = None
    balance: Optional[Tensor] = None
    transition: Optional[Tensor] = None


# stage -> loss terms; the first is the core term ablations keep alone
_STAGE_COMPONENTS = {
    1: ("ce",),
    2: ("ce", "lang", "balance"),
    3: ("transition", "lang", "balance"),
    4: ("transition",),
}


def compose_stage_loss(
    stage: int,
    *,
    ce: Optional[Tensor] = None,
    lang: Optional[Tensor] = None,
    balance: Optional[Tensor] = None,
    transition: Optional[Tensor] = None,
    lang_weight: float = 1.0,
    balance_weight: float = 1.0,
) -> LossBundle:
    """Assemble the training objective for one stage.

    Stage 1: task cross-entropy alone. Stage 2: cross-entropy plus the
    language-specific and intra-group balance penalties. Stage 3: the
    transition blend plus both penalties. Stage 4: the transition blend
    alone. Components a stage does not use are ignored; components it
    requires must be provided. Auxiliary weights scale the lang/balance
    terms (1.0 leaves them untouched).
    """
    if stage not in _STAGE_COMPONENTS:
        raise ValueError(f"stage must be 1..4, got {stage}")
    provided = {"ce": ce, "lang": lang, "balance": balance, "transition": transition}
    needed = _STAGE_COMPONENTS[stage]
    missing = [name for name in needed if provided[name] is None]
    if missing:
        raise ValueError(f"stage {stage} loss requires {missing}")

    def weighted(name: str) -> Tensor:
        t = provided[name]
        if name == "lang" and lang_weight != 1.0:
            t = mul(t, lang_weight)
        if name == "balance" and balance_weight != 1.0:
            t = mul(t, balance_weight)
        return t

    parts = [weighted(name) for name in needed]
    total = parts[0]
    for part in parts[1:]:
        total = add(total, part)
    kept = {name: provided[name] for name in needed}
    return LossBundle(stage=stage, total=total, **kept)
