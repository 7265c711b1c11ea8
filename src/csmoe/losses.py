"""Training objectives for the grouped mixture projector.

Three auxiliary losses shape the router during training, and a blended
objective carries the model across task transitions:

* ``language_specific_loss`` pushes routing probability mass off experts that
  belong to other languages' groups.
* ``intra_group_balance_loss`` spreads load evenly *within* each language's
  expert group, one term per (layer, language) cell.
* ``conventional_balance_loss`` is the classic differentiable load-balancing
  penalty over all experts jointly, kept as an ablation baseline: the
  intra-group loss over the trace's one-group view.
* ``transition_loss`` linearly anneals between a source-task and a
  target-task loss over the course of a stage.

The two group-aware losses read the expert groups and the per-token labels
off the trace: ``RoutingTrace.group_of`` is the projector's layout, the
trace checks its ``labels`` once, and ``in_group_wins`` (all groups in one
pass) is the definition that ``analysis`` shares.

``compose_stage_loss`` adds the routing terms a stage uses (which ones is
``stages.routing_terms``'s rule) to its core loss; training and the
gradient audit both build every stage objective through it.

All losses are sums (not means) over tokens and layers; the config's
weights set their scale. The language loss is differentiable through the
router logits, the balance losses through the routing probabilities, with
assignment counts treated as constants.

Each routing loss records one tape node, whose parents are the layers'
``logits`` (language) or ``probs`` (balance). Its forward evaluates the
numpy expressions of an op-by-op tape chain (the tests keep it as their
oracle) and adds in the chain's order, and its hand-written backward
repeats that chain's backward arithmetic, so values and gradients are
bit-identical to it. The backward closures hold numpy arrays and floats
only, never a tensor or the trace.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _record, add, mul
from .config import ExperimentConfig
from .projector import RoutingTrace

__all__ = [
    "language_specific_loss",
    "intra_group_balance_loss",
    "conventional_balance_loss",
    "transition_loss",
    "compose_stage_loss",
]


def language_specific_loss(trace: RoutingTrace) -> Tensor:
    """Penalty on routing mass assigned outside each token's language group.

    For token t with language l, router logits z and selected experts S, each
    selected expert i outside group l contributes ``lse(z_S) − lse(z_S∖i)``
    = ``−log(1 − p_i)``, summed over all tokens and layers; it stays finite
    however far the router saturates. Zero exactly when every token routes
    entirely within its own group. The trace's labels must be concrete for
    every token, and S∖i must not be empty (top-k ≥ 2).
    """
    labels = trace.labels
    # slots first, all layers at once: z[a, l, t] is the logit of token t's
    # slot-a expert at layer l, and out[a, l, t] marks it outside t's group;
    # laid out so in memory too, the slot sums add in sequence, as the chain's do
    sel = np.array([layer.selected for layer in trace.layers]).transpose(2, 0, 1).copy()
    k, L, T = sel.shape
    at = (np.arange(L)[:, None], np.arange(T), sel)
    z = np.array([layer.logits.data for layer in trace.layers])[at]
    out = (trace.group_of[sel] != labels).astype(float)
    # row a < k of sets is S without slot a, row k is S; lse over the slot axis
    sets = np.where((np.arange(k + 1)[:, None] != np.arange(k))[..., None, None], z, -np.inf)
    top = sets.max(axis=1)
    e = np.exp(sets - top[:, None])
    s = e.sum(axis=1)
    lse = top + np.log(s)
    # token sums, added layer by layer in slot order (cumsum adds in sequence)
    total = ((lse[k] - lse[:k]) * out).sum(axis=2).T.cumsum()[-1]
    shape = (L, T, trace.group_of.size)

    def bw(g):
        # g·Σ_a out_a (p − q⁽ᵃ⁾), the slots summed in descending order as in the
        # chain; row a < k of soft is q⁽ᵃ⁾, the softmax over S∖a, and row k is p
        rev, soft = np.arange(k)[::-1], e / s[:, None]
        g_out = g * out[rev]
        g_z = np.zeros(shape)
        g_z[at] = (-g_out[:, None] * soft[rev]).sum(axis=0) + g_out.sum(axis=0) * soft[k]
        return tuple(g_z)

    return _record(Tensor(total), tuple(layer.logits for layer in trace.layers), bw)


def intra_group_balance_loss(trace: RoutingTrace) -> Tensor:
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
    labels = trace.labels
    # per language: its tokens as a [1 × T] row and its experts as a [1 × N] row
    langs = [((labels == j).astype(float)[None, :], (group_of == j).astype(float)[None, :])
             for j in range(m)]
    cells = []  # per layer: [(sel_row, f_row, gmask_row, numer, denom)] in j order
    total = None
    for l, layer in enumerate(trace.layers):
        probs = layer.probs.data
        wins = trace.in_group_wins(l)
        counts = wins.sum(axis=1)
        layer_cells = []
        for j, (sel_row, gmask_row) in enumerate(langs):
            if counts[j] == 0:
                continue
            # f: constant assignment fractions from in-group argmax, laid out
            # [m × n] as the experts are
            f_row = np.zeros_like(wins)
            f_row[j] = wins[j] / counts[j]
            f_row = f_row.reshape(1, -1)
            # P: language-mean probabilities renormalized over the group,
            # from column sums so gradients reach the denominator too
            colsums = sel_row @ probs  # [1 × N]
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
                acc = cell if acc is None else acc + cell
            grads.append(acc)
        return tuple(grads)

    return _record(Tensor(total), tuple(layer.probs for layer in trace.layers), bw)


def conventional_balance_loss(trace: RoutingTrace) -> Tensor:
    """Classic load-balance penalty over all experts jointly, per layer.

    The intra-group loss over ``trace.one_group``: each layer contributes
    ``sum_i f'_i * P'_i`` with f'_i the share of tokens whose argmax is
    expert i and P'_i its token-mean probability; labels play no role.
    """
    return intra_group_balance_loss(trace.one_group)


def transition_loss(ce_source: Tensor, ce_target: Tensor, lam: float) -> Tensor:
    """Linear blend ``(1-λ)·source + λ·target``; a stage passes λ = b/B at batch b of B.

    At λ = 1.0 (b = B) the source weight is exactly 0.0, so the result equals
    the target loss bit-for-bit (0·x + y = y in IEEE arithmetic for finite x).
    """
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
