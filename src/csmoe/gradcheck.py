"""Finite-difference audit of every loss composition's backward pass.

For each of a set of tiny random model instances, compares reverse-mode
gradients against central finite differences for each loss and each stage
objective, and reports the worst relative error per loss.

The stage objectives are built as training builds them, by
``stages.routing_terms`` and ``losses.compose_stage_loss``, under an
instance's config (intra-group balance) and its ``conventional-balance``
copy.

All ten losses share one sweep. An instance runs three MoE forwards
(batch 1, batch 2 and the mixed batch 1 + 2), reads the routing terms off
their traces once, and decodes them into the ten values; the analytic
gradients come from one tape, one ``backward`` per loss. Each perturbed
coordinate is evaluated once for all ten losses (``fd_gradient`` with a
vector-valued function), and each evaluation recomputes only what the
coordinate can change. The MoE reads no decoder parameter, so a decoder
coordinate reuses the unperturbed forwards and routing terms. A parameter
of MoE layer l changes nothing below layer l, so the forwards restart at
layer l from the unperturbed layer inputs and routing records. The router
of layer l reads only the layer's input, never an expert's output, so an
expert of layer l also keeps its layer's routing record and the other
experts' products: it recomputes its own product and the one ``mix``, and
the layers above run through ``moe_layer``. No router reads a last-layer
expert's output, so such an expert reuses the unperturbed routing terms.
The sweep of an instance (60 coordinates in layer 0, 48 of them in
experts; 80 in layer 1, 64 of them in experts) evaluates 528 MoE layers
and 672 single-expert re-mixes, and the instance reads the routing terms
153 times; each read computes the language term once per trace, and the
two objectives that score that trace share it.

Finite differences are only meaningful where the objective is locally
smooth, so candidate instances are screened: any instance whose routing
logits sit near a top-k tie, whose argmax assignments sit near a flip,
whose in-group probability mass sits near the exclusion threshold, or whose
pre-ReLU activations sit near a kink is replaced by the next candidate (the
losses treat assignment counts as constants, but a finite-difference probe
re-evaluates them on both sides of the step). The screen reads the forwards
of batch 1 and batch 2 that ``moe_layer`` keeps: each layer's record holds
its router logits and probabilities, and the kept input of layer l + 1 is
the pre-activation of layer l. Screening thresholds are far above the probe
step, so accepted instances are deterministic and safe.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autodiff import Tape, Tensor, backward, cross_entropy, fd_gradient, matmul, mix, relu
from .config import ExperimentConfig
from .losses import compose_stage_loss, transition_loss
from .projector import (ProjectorConfig, RoutingTrace, build_moe_from_pretrained, init_mlp,
                        moe_layer)
from .stages import mixed_transition, routing_terms
from .world import decode, init_decoder

__all__ = ["GRAD_LOSSES", "grad_check_report"]

# stage objective -> (index of the instance config, stage); stage 2 scores
# batch 1 and stages 3-4 the mixed batch, as the stages train them
_OBJECTIVES = {"stage2_total": (0, 2), "stage3_total": (0, 3), "stage4_total": (0, 4),
               "stage2_total_conventional": (1, 2), "stage3_total_conventional": (1, 3)}
GRAD_LOSSES = ("ce", "lang", "balance", "conventional", "transition", *_OBJECTIVES)
_MOE_ONLY = frozenset({"lang", "balance", "conventional"})  # scored on MoE parameters only

# tiny instance geometry: 2 languages x 2 experts, top-2 of 4, 2 layers
_M, _N, _K, _L = 2, 2, 2, 2
_D_IN, _D_MODEL, _VOCAB, _PROMPT, _TOKENS = 3, 4, 7, 2, 4

_EPS = 1e-5  # central-difference step
_TOL = 1e-4  # largest relative error a passing loss may show
_MARGIN = 1e-3  # clearance required around every selection/argmax boundary
_MASS_FLOOR = 1e-3  # in-group probability mass must be 0 or above this


def _screen(moe, forward) -> bool:
    """True when every discrete choice of a kept ``(layer inputs, trace)`` has clearance."""
    inputs, trace = forward
    k = moe.top_k
    for l, record in enumerate(trace.layers):
        s = np.sort(record.logits.data, axis=1)[:, ::-1]
        if k < s.shape[1] and (s[:, k - 1] - s[:, k]).min() < _MARGIN:
            return False
        # the argmax over all experts is the in-group argmax of the one-group view
        for view in (trace.one_group, trace):
            in_group = view.own_group_probs(l)
            mass = in_group.sum(axis=1)
            if ((mass > 0.0) & (mass < _MASS_FLOOR)).any():
                return False
            active = in_group[mass > 0.0]
            if active.shape[0]:
                si = np.sort(active, axis=1)[:, ::-1]
                if (si[:, 0] - si[:, 1]).min() < _MARGIN:
                    return False
        # the kept input of layer l + 1 is layer l's pre-activation
        if l + 1 < len(inputs) and np.abs(inputs[l + 1].data).min() < 10.0 * _EPS:
            return False
    return True


def _make_instance(seed: int, candidate: int):
    base = [seed, candidate]
    pcfg = ProjectorConfig(_D_IN, _D_MODEL, _L)
    mlps = [init_mlp(pcfg, [*base, g]) for g in range(_M)]
    moe = build_moe_from_pretrained(mlps, _N, _K, [*base, 10])
    decoder = init_decoder(_D_MODEL, _VOCAB, _PROMPT, [*base, 11])
    rng = np.random.default_rng([*base, 12])
    batches = []
    for _ in range(2):
        feats = rng.normal(size=(_TOKENS, _D_IN))
        labels = rng.integers(0, _M, size=_TOKENS)
        targets = rng.integers(0, _VOCAB, size=_TOKENS)
        batches.append((feats, labels, targets))
    lam = 2 / 3  # batch 2 of 3
    # odd candidates exercise non-unit auxiliary weights; the second config
    # trains stages 2-3 with the conventional balance term
    lang_w, bal_w = (1.0, 1.0) if candidate % 2 == 0 else (0.5, 2.0)
    config = ExperimentConfig(lang_weight=lang_w, balance_weight=bal_w)
    return moe, decoder, batches, lam, (config, replace(config, variant="conventional-balance"))


def _inputs(moe, batches):
    """Batch 1, batch 2 and the mixed batch 1 + 2 as ``(layer inputs, trace)`` before layer 0."""
    (f1, l1, _), (f2, l2, _) = batches
    return [([Tensor(feats)], RoutingTrace([], moe.group_of, labels))
            for feats, labels in ((f1, l1), (f2, l2),
                                  (np.concatenate([f1, f2], axis=0), np.concatenate([l1, l2])))]


def _rerun(moe, forwards, start: int, expert: int | None = None, kept=None):
    """Run MoE layers ``start``.. of each forward from its kept layer input.

    Each forward is ``(layer inputs, trace)``; its inputs of layers up to
    ``start`` and its routing records below ``start`` are kept as they are.
    With ``expert`` set, layer ``start`` also keeps its routing record and
    the other experts' products, read from ``kept`` (``_kept_products`` of
    the same forwards), and recomputes only that expert's product and the
    mixture. Returns the outputs and the forwards with every layer's input
    and record. Nothing here reads a decoder parameter.
    """
    outs, rerun = [], []
    for f, (inputs, trace) in enumerate(forwards):
        inputs, records = inputs[:start + 1], trace.layers[:start]
        first = start
        if expert is not None:
            x, ys = kept[f][start]
            ys = list(ys)
            ys[expert] = matmul(x, moe.layers[start].expert_weights[expert].value)
            record = trace.layers[start]
            inputs.append(mix(record.probs, ys))
            records.append(record)
            first += 1
        for l in range(first, moe.config.num_layers):
            h, record = moe_layer(moe, l, inputs[l])
            inputs.append(h)
            records.append(record)
        outs.append(inputs.pop())
        rerun.append((inputs, RoutingTrace(records, trace.group_of, trace.token_language)))
    return outs, rerun


def _kept_products(moe, forwards) -> list:
    """Per forward and layer, the expert input and the N expert products ``moe_layer`` mixes."""
    kept = []
    for inputs, _ in forwards:
        layers = []
        for l, (h, layer) in enumerate(zip(inputs, moe.layers)):
            x = relu(h) if l > 0 else h  # moe_layer's ReLU on the previous layer's output
            layers.append((x, [matmul(x, ew.value) for ew in layer.expert_weights]))
        kept.append(layers)
    return kept


def _routing_terms(forwards, configs) -> dict:
    """Each stage objective's ``routing_terms``, read off batch 1 (stage 2) or the mixed batch.

    The objectives that read one trace share its language term: it is
    computed once per trace.
    """
    (_, trace1), _, (_, trace_mix) = forwards
    terms, lang = {}, {}  # id(trace) -> its language term
    for name, (c, stage) in _OBJECTIVES.items():
        trace = trace1 if stage == 2 else trace_mix
        terms[name] = routing_terms(configs[c], stage, trace, lang=lang.get(id(trace)))
        if "lang" in terms[name]:
            lang.setdefault(id(trace), terms[name]["lang"])
    return terms


def _losses(outs, terms, decoder, batches, lam, configs) -> tuple:
    """Decode the MoE outputs; the losses in ``GRAD_LOSSES`` order."""
    h1, h2, h_mix = outs
    (_, _, t1), (_, _, t2) = batches
    ce = cross_entropy(decode(decoder, h1), t1)
    ce2 = cross_entropy(decode(decoder, h2), t2)
    mixed, _, _ = mixed_transition(decode(decoder, h_mix), t1, t2, lam)
    on_batch1 = terms["stage2_total"]
    return (ce, on_batch1["lang"], on_batch1["balance"],
            terms["stage2_total_conventional"]["balance"], transition_loss(ce, ce2, lam),
            *(compose_stage_loss(configs[c], ce if stage == 2 else mixed, terms[name])
              for name, (c, stage) in _OBJECTIVES.items()))


def _rel_err(fd: np.ndarray, analytic: np.ndarray) -> float:
    # The denominator floor turns the ratio into an absolute test for
    # near-zero gradients: central differences carry cancellation noise of
    # order |loss|*1e-16/(2*eps) per entry, which would otherwise dominate
    # the ratio exactly where both sides agree the gradient vanishes.
    denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-5)
    return float(np.linalg.norm(fd - analytic) / denom)


def _instance_errors(moe, decoder, batches, lam, configs, eps: float) -> dict:
    """Worst relative error of each loss over every coordinate of one instance."""
    params = moe.parameters() + decoder.parameters()
    with Tape():
        outs, forwards = _rerun(moe, _inputs(moe, batches), 0)
        terms = _routing_terms(forwards, configs)
        losses = _losses(outs, terms, decoder, batches, lam, configs)
    analytic = []  # [loss][param]
    for loss in losses:
        for p in params:
            p.zero_grad()
        backward(loss)
        analytic.append([p.grad.copy() for p in params])

    # MoE parameter -> (its layer, its expert index or None for the router,
    # whether it reaches a router): a layer-l parameter changes nothing below
    # layer l, an expert leaves its layer's routing record as it is, and no
    # router reads the output of a last-layer expert
    last = moe.config.num_layers - 1
    reach = {}
    for l, layer in enumerate(moe.layers):
        for i, ew in enumerate(layer.expert_weights):
            reach[id(ew)] = (l, i, l < last)
        reach[id(layer.router_weights)] = (l, None, True)
    kept = _kept_products(moe, forwards)
    worst = dict.fromkeys(GRAD_LOSSES, 0.0)
    for j, p in enumerate(params):
        start, expert, routes = reach.get(id(p), (None, None, False))

        def f(t, _p=p, _start=start, _expert=expert, _routes=routes):
            old = _p.value.data.copy()
            _p.value.data[...] = t.data
            try:
                if _start is None:  # the MoE forward reads no decoder parameter
                    o, r = outs, terms
                else:
                    o, rerun = _rerun(moe, forwards, _start, _expert, kept)
                    r = _routing_terms(rerun, configs) if _routes else terms
                return np.array([v.item() for v in _losses(o, r, decoder, batches, lam, configs)])
            finally:
                _p.value.data[...] = old

        fd = fd_gradient(f, Tensor(p.value.data.copy()), eps=eps).data
        for i, name in enumerate(GRAD_LOSSES):
            if start is not None or name not in _MOE_ONLY:
                worst[name] = max(worst[name], _rel_err(fd[..., i], analytic[i][j]))
    return worst


def grad_check_report(*, seed: int = 0, instances: int = 20) -> dict:
    """Compare backward against central differences for every loss form.

    Returns a report with the worst relative error per loss over all
    accepted instances at the step ``_EPS``; ``pass`` is True when every
    loss stays within ``_TOL``. The report records both, as ``eps`` and ``tol``.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")

    worst = {name: 0.0 for name in GRAD_LOSSES}
    accepted = 0
    skipped = 0
    candidate = 0
    while accepted < instances:
        moe, decoder, batches, lam, configs = _make_instance(seed, candidate)
        candidate += 1
        _, forwards = _rerun(moe, _inputs(moe, batches)[:2], 0)  # batch 1 and batch 2
        if not all(_screen(moe, forward) for forward in forwards):
            skipped += 1
            continue
        try:
            errors = _instance_errors(moe, decoder, batches, lam, configs, _EPS)
        except ValueError:
            # e.g. a draw where some language carries no in-group mass at all
            skipped += 1
            continue
        for name in GRAD_LOSSES:
            worst[name] = max(worst[name], errors[name])
        accepted += 1

    losses = {
        name: {"max_rel_err": worst[name], "pass": worst[name] < _TOL}
        for name in GRAD_LOSSES
    }
    return {
        "seed": seed,
        "instances": instances,
        "skipped_candidates": skipped,
        "eps": _EPS,
        "tol": _TOL,
        "losses": losses,
        "pass": all(entry["pass"] for entry in losses.values()),
    }
