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

The two group-aware losses read the expert groups and the per-token labels
off the trace: ``RoutingTrace.group_of`` is the projector's layout, and
``concrete_labels`` and ``in_group_wins`` are the definitions that
``analysis`` shares.

``compose_stage_loss`` adds the routing terms a stage uses (which ones is
``stages.routing_terms``'s rule) to its core loss; training and the
gradient audit both build every stage objective through it.

All losses are sums (not means) over tokens and layers unless the
``normalize`` flag is set, and all are differentiable through the routing
probabilities: assignment counts are treated as constants (gradients flow
only through the probability factors).

Each routing loss records one tape node whose parents are the layers'
``probs`` through one recorder, ``_routing_node``, which also applies the
``normalize`` division to the value and to the upstream gradient. Its
forward evaluates the numpy expressions of the op-by-op chain (mul, sub,
log, tsum, matmul, div, add; the tests keep it as their oracle) in the same
order, and its hand-written backward repeats that chain's backward
arithmetic, so values and gradients are bit-identical to it. The backward
closures hold numpy arrays and floats only, never a tensor or the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _record, add, mul
from .config import ExperimentConfig
from .projector import RoutingTrace

__all__ = [
    "LogDomainError",
    "TransitionState",
    "language_specific_loss",
    "intra_group_balance_loss",
    "conventional_balance_loss",
    "transition_loss",
    "compose_stage_loss",
]


class LogDomainError(FloatingPointError, ValueError):
    """A routing probability saturated to 1, so ``log(1 - p)`` left its domain."""


def _lang_backward(g: np.ndarray, ones_minus: list, out_mask: np.ndarray) -> tuple:
    """Per-layer ∂(lang)/∂probs for upstream ``g``: −(g·−1 / (1 − p⊙mask))⊙mask.

    ``ones_minus`` holds each layer's 1 − p⊙mask; the operations are those
    of the mul → sub → log → tsum → scale chain this op stands for.
    """
    gs = g * -1.0
    return tuple(-(gs / x) * out_mask for x in ones_minus)


def _routing_node(trace: RoutingTrace, total: float, backward, scale) -> Tensor:
    """The node of a routing loss whose value is ``total`` and whose backward is
    ``backward(g)``, both divided by ``scale`` unless it is None (not normalized)."""
    return _record(Tensor(total if scale is None else total / scale),
                   tuple(layer.probs for layer in trace.layers),
                   lambda g: backward(g if scale is None else g / scale))


def language_specific_loss(trace: RoutingTrace, *, normalize: bool = False) -> Tensor:
    """Penalty on routing mass assigned outside each token's language group.

    For token t with language l and per-expert probabilities p, the
    contribution is ``-sum_{i not in group l} log(1 - p_i)``, summed over all
    tokens and layers. Zero exactly when every token routes entirely within
    its own group. The trace's labels must be concrete for every token.
    """
    labels = trace.concrete_labels()
    # out_mask[t, i] = 1.0 when expert i is outside token t's language group
    out_mask = (trace.group_of[None, :] != labels[:, None]).astype(float)
    ones_minus = []
    total = None
    for layer in trace.layers:
        # p ⊙ mask zeroes in-group entries, so log(1 - ·) is 0 there and the
        # sum reduces to the out-group terms without a second masking pass.
        x = 1.0 - layer.probs.data * out_mask
        if not (x > 0.0).all():
            raise LogDomainError("log requires strictly positive input")
        ones_minus.append(x)
        term = np.log(x).sum() * -1.0
        total = term if total is None else total + term
    assert total is not None
    return _routing_node(trace, total, lambda g: _lang_backward(g, ones_minus, out_mask),
                         float(trace.num_tokens) if normalize else None)


def intra_group_balance_loss(trace: RoutingTrace, *, normalize: bool = False) -> Tensor:
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
    group_of, m = trace.group_of, trace.num_groups
    labels = trace.concrete_labels()
    num_experts = group_of.size
    cells = []  # per layer: [(sel_row, f_row, gmask_row, numer, denom)] in j order
    total = None
    for layer in trace.layers:
        probs = layer.probs.data
        wins = trace.in_group_wins(probs, labels)
        layer_cells = []
        for j in range(m):
            if wins[j].sum() == 0:
                continue
            gmask = group_of == j
            # f: constant assignment fractions from in-group argmax
            f = wins[j] / wins[j].sum()
            # P: language-mean probabilities renormalized over the group,
            # from column sums so gradients reach the denominator too
            sel_row = (labels == j).astype(float)[None, :]  # [1 × T]
            colsums = sel_row @ probs  # [1 × N]
            f_row = np.zeros(num_experts)
            f_row[gmask] = f
            f_row = f_row[None, :]
            gmask_row = gmask.astype(float)[None, :]
            numer = (colsums * f_row).sum()
            denom = (colsums * gmask_row).sum()
            term = numer / denom
            total = term if total is None else total + term
            layer_cells.append((sel_row, f_row, gmask_row, numer, denom))
        cells.append(layer_cells)
    if total is None:
        raise ValueError("no token carries in-group probability mass; balance undefined")

    def bw(g):
        grads = []
        # each cell the div → tsum → mul → matmul chain, summed in the order
        # the tape visits them (descending j); a cell's rows are its own
        # language's tokens, so the sum is exact in any order
        for layer_cells in cells:
            acc = None
            for sel_row, f_row, gmask_row, numer, denom in reversed(layer_cells):
                g_numer = g / denom
                g_denom = -g * numer / (denom * denom)
                g_cols = g_denom * gmask_row
                g_cols += g_numer * f_row
                cell = sel_row.T @ g_cols
                if acc is None:
                    acc = cell
                else:
                    acc += cell
            grads.append(acc)
        return tuple(grads)

    return _routing_node(trace, total, bw, float(m * trace.num_layers) if normalize else None)


def conventional_balance_loss(trace: RoutingTrace, *, normalize: bool = False) -> Tensor:
    """Classic load-balance penalty over all experts jointly, per layer.

    f'_i is the fraction of tokens whose global argmax falls on expert i
    (constant); P'_i is the token-mean probability of expert i
    (differentiable). Each layer contributes ``sum_i f'_i * P'_i``; layers are
    summed. Language labels and grouping play no role.
    """
    rows = []  # per layer: (ones_row, f_row)
    total = None
    for layer in trace.layers:
        pdata = layer.probs.data
        num_tokens, num_experts = pdata.shape
        winners = pdata.argmax(axis=1)
        counts = np.bincount(winners, minlength=num_experts).astype(float)
        f_row = (counts / num_tokens)[None, :]
        ones_row = np.full((1, num_tokens), 1.0 / num_tokens)
        colmeans = ones_row @ pdata  # [1 × N]
        term = (colmeans * f_row).sum()
        total = term if total is None else total + term
        rows.append((ones_row, f_row))
    assert total is not None
    return _routing_node(trace, total,
                         lambda g: tuple(ones_row.T @ (g * f_row) for ones_row, f_row in rows),
                         float(trace.num_layers) if normalize else None)


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


def compose_stage_loss(config: ExperimentConfig, core: Tensor, terms: dict) -> Tensor:
    """A stage's objective: ``core`` plus its routing ``terms``, weighted by the config.

    ``core`` is the task cross-entropy or the transition blend; ``terms`` is
    what ``stages.routing_terms`` returns, so ``{}`` or ``lang`` and
    ``balance``. A term whose weight is not 1.0 is scaled by one ``mul``.
    With no terms the objective is ``core`` itself.
    """
    total = core
    for name, weight in (("lang", config.lang_weight), ("balance", config.balance_weight)):
        if name in terms:
            term = terms[name]
            total = add(total, term if weight == 1.0 else mul(term, weight))
    return total
