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
  target-task loss over a stage; ``mixed_transition`` is the same blend as
  one tape node over the logits of a stage 3-4 step, given the step's
  targets and its source row count.

The two group-aware losses read the expert groups and the per-token labels
off the trace: ``RoutingTrace.group_of`` is the projector's layout, the
trace's ``layout`` (made once, shared by ``over``) holds its checked labels
and what depends only on them, and ``in_group_wins`` (every layer and
group in one pass) is the definition that ``analysis`` shares.

Each of them is one array program over all its cells: (layer, slot) for the
language loss, (layer, language) for the balance. The balance keeps one
``[1 × T] @ [T × N]`` gemv per cell for its column sums, as the chain
computes them, on purpose: a single ``[m × T] @ [T × N]`` product per layer
is one call, but BLAS rounds it differently in the last bits.

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

from .autodiff import Tensor, _record, add, mul, token_nll
from .config import ExperimentConfig
from .projector import RoutingTrace

__all__ = [
    "language_specific_loss",
    "intra_group_balance_loss",
    "conventional_balance_loss",
    "transition_loss",
    "mixed_transition",
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
    layout = trace.layout
    # slots first, all layers at once: z[a, l, t] is the logit of token t's
    # slot-a expert at layer l, and out[a, l, t] marks it outside t's group;
    # laid out so in memory too, the slot sums add in sequence, as the chain's do
    sel = np.array([layer.selected for layer in trace.layers]).transpose(2, 0, 1).copy()
    k, L, T = sel.shape
    at = (layout.layers, layout.tokens, sel)
    z = np.array([layer.logits.data for layer in trace.layers])[at]
    out = (trace.group_of[sel] != layout.labels).astype(float)
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
    carrying in-group mass) contribute nothing. A trace with no cell at all
    scores 0 with no gradient.
    """
    layout, probs = trace.layout, trace.probs
    # per language: its tokens as a [1 × T] row, and its experts as a [1 × N] row
    m, sel, gmask = layout.num_groups, layout.rows, layout.columns
    wins = trace.in_group_wins()  # [L × m × n]
    counts = wins.sum(axis=2)
    live = counts > 0  # the (layer, language) cells that score
    # f: constant assignment fractions from in-group argmax, laid out [1 × N]
    # per cell as the experts are, zero outside group j's block
    share = wins / np.maximum(counts, 1.0)[..., None]
    f = (share[:, :, None] * gmask.reshape(m, m, -1)).reshape(*live.shape, -1)
    # P: language-mean probabilities renormalized over the group, from column
    # sums so gradients reach the denominator too; one gemv per cell
    colsums = (sel[None] @ probs[:, None])[:, :, 0]  # [L × m × N]
    numer = (colsums * f).sum(axis=2)
    denom = (colsums * gmask).sum(axis=2)
    # the cell terms added in (l, j) order, as the chain adds them after its
    # 0.0 start; a cell that does not score holds 0.0, which adds nothing
    total = np.divide(numer, denom, out=np.zeros_like(numer), where=live).cumsum()[-1]

    def bw(g):
        # each cell the div → tsum → mul → matmul chain, summed in the order
        # the tape visits them (descending j); a cell's rows are its own
        # language's tokens, so the sum is exact in any order
        cells = np.argwhere(live)
        g_numer = (g / denom[live])[:, None]
        g_cols = -g_numer * (numer[live] / denom[live])[:, None] * gmask[cells[:, 1]]
        g_cols += g_numer * f[live]
        grads = [None] * len(probs)
        for c in range(len(cells) - 1, -1, -1):
            l, j = cells[c]
            cell = sel[j].T @ g_cols[c:c + 1]
            grads[l] = cell if grads[l] is None else grads[l] + cell
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


def mixed_transition(logits: Tensor, targets: np.ndarray, n_source: int,
                     lam: float) -> tuple[Tensor, float, float]:
    """``(transition, ce_source, ce_target)`` of logits whose first ``n_source`` rows are
    the source batch and the rest the target batch; ``targets`` covers both.

    One node over one ``token_nll`` pass: each half's cross-entropy is its
    row slice's mean, blended as ``transition_loss`` blends them, and comes
    back as a float; the backward reuses the forward's softmax.
    """
    n, n_tgt = n_source, len(targets) - n_source
    for half, rows in (("source", n), ("target", n_tgt)):
        if rows <= 0:
            raise ValueError(f"mixed_transition: the {half} half has no rows")
    nll, e, s = token_nll(logits.data, targets)
    ce_src, ce_tgt = nll[:n].sum() / n, nll[n:].sum() / n_tgt

    def bw(g):
        # each half's (softmax − onehot) · (g·w / rows), w its blend weight
        p = e / s[:, None]
        p[np.arange(n + n_tgt), targets] -= 1.0
        p[:n] *= g * (1.0 - lam) / n
        p[n:] *= g * lam / n_tgt
        return (p,)

    return _record(Tensor(ce_src * (1.0 - lam) + ce_tgt * lam), (logits,), bw), ce_src, ce_tgt


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
