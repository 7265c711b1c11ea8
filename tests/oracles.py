"""Reference paths the tests compare the library against.

No command runs these, so they live with the tests: the op-by-op tape
chain behind the fused language loss and the tape ops that it and the
balance chains are built from, the row-take and cross-entropy chain behind
the fused mixed transition, the expert matmuls and ``mix`` behind a MoE
layer's mixture node and the four ops behind the decode node, the subset softmax of a single logit
vector, the single-token routing and mixture path that the batched MoE
forward must agree with, a routing trace built from explicit
probabilities, the plain block loop behind the silhouette's distance
sums, readers of the world and metrics files the commands write, and the
digest line a container writer would give damaged bytes.
"""

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from csmoe.analysis import _BLOCK
from csmoe.autodiff import (Tensor, _binary, _coerce, _record, add, masked_softmax, matmul, mul,
                            token_nll)
from csmoe.losses import transition_loss
from csmoe.projector import LayerRouting, RoutingTrace, _topk_rows
from csmoe.world import LanguageSpec, World


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y, lambda g, x, y: (g, -g))


def div(a, b) -> Tensor:
    return _binary(
        a, b, "div", lambda x, y: x / y, lambda g, x, y: (g / y, -(g / y) * (x / y))
    )


def log(x) -> Tensor:
    x = _coerce(x)
    if not (x.data > 0.0).all():
        raise ValueError("log requires strictly positive input")
    xd = x.data
    return _record(Tensor(np.log(xd)), (x,), lambda g: (g / xd,))


def tsum(x) -> Tensor:
    """Full reduction to a scalar."""
    x = _coerce(x)
    shape = x.data.shape
    return _record(Tensor(x.data.sum()), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def take(x, indices) -> Tensor:
    """Select rows (2-D) or elements (1-D) by index along the first axis."""
    x = _coerce(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"take indices must be 1-D, got shape {idx.shape}")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"take index out of range for first axis of size {n}")
    shape = x.data.shape

    def bw(g):
        buf = np.zeros(shape)
        if np.bincount(idx).max(initial=0) <= 1:  # unique indices
            buf[idx] += g
        else:
            np.add.at(buf, idx, g)
        return (buf,)

    return _record(Tensor(x.data[idx]), (x,), bw)


def recompute_cross_entropy(logits, targets) -> Tensor:
    """``cross_entropy`` whose backward computes the softmax again from the logits."""
    z = _coerce(logits)
    zd, tg = z.data, np.asarray(targets)
    t_count = zd.shape[0]

    def bw(g):
        p = np.exp(zd - zd.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(t_count), tg] -= 1.0
        return (p * (g / t_count),)

    return _record(Tensor(token_nll(zd, tg)[0].sum() / t_count), (z,), bw)


def chain_mixed_transition(logits, src_targets, tgt_targets, lam: float):
    """The fused mixed transition as a tape chain: each half's rows taken out,
    scored by ``recompute_cross_entropy`` and blended by ``transition_loss``."""
    n_src = len(src_targets)
    ce_src = recompute_cross_entropy(take(logits, np.arange(n_src)), src_targets)
    ce_tgt = recompute_cross_entropy(take(logits, np.arange(n_src, logits.shape[0])),
                                     tgt_targets)
    return transition_loss(ce_src, ce_tgt, lam), ce_src, ce_tgt


def mix(probs, outputs: Sequence) -> Tensor:
    """Probability-weighted sum Σ_i outputs[i] · probs[:, i] of N [T × d] tensors.

    One tape node for the whole mixture. Terms are added in expert order,
    so an exactly-zero probability drops its term bit for bit, and the
    gradient into outputs[i] is exactly zero on those rows.
    """
    p = probs if isinstance(probs, Tensor) else _coerce(probs)
    ys = [y if isinstance(y, Tensor) else _coerce(y) for y in outputs]
    pd, yds = p.data, [y.data for y in ys]
    if pd.ndim != 2 or pd.shape[1] != len(yds) or not yds:
        raise ValueError(f"mix: probs shape {pd.shape} does not match {len(yds)} outputs")
    shape = yds[0].shape
    if len(shape) != 2 or shape[0] != pd.shape[0] or len({yd.shape for yd in yds}) != 1:
        raise ValueError(
            f"mix: outputs {[yd.shape for yd in yds]} must share one [{pd.shape[0]} × d] shape"
        )
    acc = yds[0] * pd[:, 0, None]
    for i in range(1, len(yds)):
        acc = acc + yds[i] * pd[:, i, None]
    out = Tensor(acc)

    def bw(g):
        gp = np.empty_like(pd)
        for i, yd in enumerate(yds):
            gp[:, i] = (g * yd).sum(axis=1)
        return (gp,) + tuple(g * pd[:, i, None] for i in range(len(yds)))

    return _record(out, (p, *ys), bw)


def chain_expert_mixture(h, probs, weights) -> Tensor:
    """A MoE layer's mixture as a tape chain: one taped ``matmul`` per expert
    weight, then one taped ``mix`` of the products by ``probs``."""
    return mix(probs, [matmul(h, w) for w in weights])


def chain_decode(decoder, h_s) -> Tensor:
    """``world.decode`` as its four taped ops: the prompt mean-pooled by one matmul,
    tiled over the rows by a ones matmul, added to ``h_s`` and mapped through the head."""
    prompt = decoder.prompt_embedding.value
    prompt_len = prompt.data.shape[0]
    pool = Tensor(np.full((1, prompt_len), 1.0 / prompt_len))
    tiled = matmul(Tensor(np.ones((h_s.data.shape[0], 1))), matmul(pool, prompt))
    return matmul(add(h_s, tiled), decoder.output_head.value)


def slot_logits(z, selected) -> Tensor:
    """[k × T]: row a holds each token's [T × N] logit ``z`` at its slot-a expert."""
    z = _coerce(z)
    rows, shape = np.arange(selected.shape[0])[:, None], z.shape

    def bw(g):
        buf = np.zeros(shape)
        buf[rows, selected] = g.T
        return (buf,)

    return _record(Tensor(z.data[rows, selected].T), (z,), bw)


def logsumexp(x, keep) -> Tensor:
    """Per column of [k × T] ``x``: log Σ exp over the rows that ``keep`` marks."""
    x = _coerce(x)
    xm = np.where(np.asarray(keep, dtype=bool)[:, None], x.data, -np.inf)
    top = xm.max(axis=0)
    e = np.exp(xm - top)
    s = e.sum(axis=0)
    soft = e / s
    return _record(Tensor(top + np.log(s)), (x,), lambda g: (g * soft,))


def chain_language_specific_loss(trace) -> Tensor:
    """The language loss as a tape chain over the router logits.

    Per layer and slot a: Σ_t out_a · (lse(z_S) − lse(z_S∖a)), where S is
    token t's selected set and out_a marks its slot-a expert outside t's
    group; the terms add layer by layer in slot order.
    """
    labels = trace.layout.labels
    total = None
    for layer in trace.layers:
        k = layer.selected.shape[1]
        z = slot_logits(layer.logits, layer.selected)
        out = (trace.group_of[layer.selected] != labels[:, None]).astype(float)
        whole = logsumexp(z, np.ones(k))
        for a in range(k):
            rest = logsumexp(z, np.arange(k) != a)
            term = tsum(mul(sub(whole, rest), Tensor(out[:, a])))
            total = term if total is None else add(total, term)
    return total


def softmax(logits, subset=None) -> Tensor:
    """Softmax of a 1-D logit vector, optionally restricted to ``subset``.

    Probabilities are normalized over the subset only; entries outside it are
    exactly zero.
    """
    z = _coerce(logits)
    if z.data.ndim != 1:
        raise ValueError(f"softmax expects a 1-D logit vector, got shape {z.shape}")
    n = z.data.shape[0]
    if subset is None:
        mask = np.ones(n, dtype=bool)
    else:
        idx = np.asarray(list(subset), dtype=np.intp)
        if idx.size == 0:
            raise ValueError("softmax subset is empty")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError("softmax subset has duplicate indices")
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"softmax subset index out of range for {n} logits")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
    return masked_softmax(z, mask)


def route(layer, h_t: Tensor, k: int) -> tuple[np.ndarray, Tensor]:
    """Dispatch one token: top-k expert indices and subset-normalized probs."""
    n = len(layer.expert_weights)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} experts")
    if h_t.data.ndim != 1:
        raise ValueError(f"route expects a 1-D token activation, got shape {h_t.shape}")
    logits = (h_t.data[None, :] @ layer.router_weights.value.data)[0]
    idx = _topk_rows(logits[None, :], k)[0]
    return idx, softmax(Tensor(logits), subset=idx)


def moe_layer_forward(layer, h_t: Tensor, k: int):
    """Single-token mixture: Σ probs_i · expert_i(h_t) over the selected set."""
    idx, probs = route(layer, h_t, k)
    row = h_t.data[None, :]
    stacked = np.concatenate([row @ layer.expert_weights[i].value.data for i in idx])
    mixed = probs.data[idx][None, :] @ stacked  # [1 × k] @ [k × d_out]
    return Tensor(mixed[0]), (idx, probs)


def make_trace(prob_rows_per_layer, labels=None, *, groups=1) -> RoutingTrace:
    """RoutingTrace from explicit per-layer [T × N] probability arrays.

    The N experts form ``groups`` equal consecutive groups, laid out as
    ``MoeProjector`` lays them out. Each token's selected experts are its
    nonzero entries, padded to a rectangular array with its lowest-index
    zero-probability experts, so no row selects an expert twice. The logits
    are ``log p``, whose softmax over the selected entries gives back p; a
    padded expert's logit is −inf, so it adds nothing to either loss. The
    language loss needs two finite selected logits per row.
    """
    layers = []
    for rows in prob_rows_per_layer:
        rows = np.asarray(rows, dtype=float)
        sel_rows = []
        for r in rows:
            nz = np.flatnonzero(r > 0.0)
            sel_rows.append(nz if nz.size else np.array([0]))
        k = max(len(s) for s in sel_rows)
        sel = np.stack([
            np.sort(np.concatenate([s, np.setdiff1d(np.arange(rows.shape[1]), s)[:k - len(s)]]))
            for s in sel_rows
        ]).astype(np.intp)
        with np.errstate(divide="ignore"):  # log 0 = -inf off the nonzero entries
            logits = np.log(rows)
        layers.append(LayerRouting(Tensor(logits), sel, Tensor(rows)))
    num_experts = layers[0].probs.shape[1]
    group_of = np.repeat(np.arange(groups), num_experts // groups)
    return RoutingTrace(layers, group_of, None if labels is None else np.asarray(labels))


def block_distance_sums(xc, onehot) -> np.ndarray:
    """``analysis._label_distance_sums`` as a fresh-array loop over each block.

    Per block: the broadcast norms |a|² + |b|², the Gram distances, and a
    scan of every entry for d² ≤ 1e-12·norms; those entries are recomputed
    from the differences before the square root.
    """
    n = len(xc)
    sq = (xc**2).sum(axis=1)
    sums = np.empty((n, onehot.shape[1]))
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        norms = sq[rows, None] + sq
        d2 = (-2.0 * xc[rows]) @ xc.T
        d2 += norms
        near_r, near_c = np.divmod(np.flatnonzero(d2 <= 1e-12 * norms), n)
        d2[near_r, near_c] = ((xc[start + near_r] - xc[near_c]) ** 2).sum(axis=1)
        sums[rows] = np.sqrt(d2, out=d2) @ onehot
    return sums


def load_world(path) -> World:
    data = json.loads(Path(path).read_text())
    languages = tuple(
        LanguageSpec(
            language_index=int(lang["language_index"]),
            centroid=np.asarray(lang["centroid"], dtype=np.float64),
            noise_sigma=float(lang["noise_sigma"]),
            vocab_start=int(lang["vocab_start"]),
            vocab_size=int(lang["vocab_size"]),
            token_embeddings=np.asarray(lang["token_embeddings"], dtype=np.float64),
            st_bijection=np.asarray(lang["st_bijection"], dtype=np.intp),
        )
        for lang in data["languages"]
    )
    return World(
        languages=languages,
        d_in=int(data["d_in"]),
        separation=float(data["separation"]),
        noise_sigma=float(data["noise_sigma"]),
        vocab_per_lang=int(data["vocab_per_lang"]),
        token_margin=float(data["token_margin"]),
        seed=int(data["seed"]),
    )


def read_metrics(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def reseal(sealed: bytes) -> bytes:
    """A container holding ``sealed`` (its header line and body) under a matching digest line.

    Damage to a container's header or body, once resealed, passes the digest
    and so reaches the checks behind it.
    """
    return hashlib.sha256(sealed).hexdigest().encode() + b"\n" + sealed


def unseal(raw: bytes) -> bytes:
    """The header line and body of a container: every byte after its digest line."""
    return raw[raw.index(b"\n") + 1:]
