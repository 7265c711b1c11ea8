"""Finite-difference audit of every loss composition's backward pass.

For each of a set of tiny random model instances, compares reverse-mode
gradients against central finite differences for each loss and each stage
objective, and reports the worst relative error per loss.

The stage objectives are built as training builds them, by
``stages.routing_terms`` and ``losses.compose_stage_loss``, under an
instance's config (intra-group balance) and its ``conventional-balance``
copy.

All ten losses share one sweep. The analytic gradients come from one tape
holding the three MoE forwards as training builds them (batch 1, batch 2
and the mixed batch 1 + 2), one ``backward`` per loss. Each perturbed
coordinate is evaluated once for all ten losses by one MoE forward and one
decode of the mixed batch, whose row halves are batch 1 and batch 2
(outputs, logits and the stage-2 routing trace): every op of the MoE and
the decoder is row-wise, which a test and the artifact digest check bit for
bit. So one ``mixed_transition`` of the decoded logits gives every core
value: its source and target cross-entropies are batch 1's and batch 2's,
and its blend is both the transition loss and the stage 3-4 core. An
evaluation recomputes only what its coordinate can change. The MoE
reads no decoder parameter, so a decoder coordinate reuses the unperturbed
forward and routing terms. A parameter of MoE layer l changes nothing below
layer l, so the forward restarts there from the unperturbed layer inputs
and routing records. The router of layer l reads only the layer's input,
never an expert's output, so an expert of layer l also keeps its layer's
routing record and the other experts' products: it recomputes its own
product and the one ``mix``, and the layers above run through
``moe_layer``. No router reads a last-layer expert's output, so such an
expert reuses the unperturbed routing terms. A perturbed trace is made
``over`` the mixed trace, and its batch-1 rows (the only half read) over
the batch-1 trace, so the sweep builds no token layout. Per instance, the
sweep (60 coordinates in layer 0, 48 in experts; 80 in layer 1, 64 in
experts; 36 in the decoder) evaluates 176 MoE layers, 224 expert re-mixes, 352 decodes
and 352 ``mixed_transition`` nodes, and reads the routing terms 153 times,
each read computing a trace's language term once for the two objectives
that score it.

Finite differences are only meaningful where the objective is locally
smooth, so candidate instances are screened: any instance whose routing
logits sit near a top-k tie, whose argmax assignments sit near a flip,
whose in-group probability mass sits near the exclusion threshold, or whose
pre-ReLU activations sit near a kink is replaced by the next candidate (the
losses treat assignment counts as constants, but a finite-difference probe
re-evaluates them on both sides of the step). The screen tests each token
alone, so it reads the untaped mixed forward as ``moe_layer`` keeps it: a
layer's record holds its router logits and probabilities, and the kept
input of layer l + 1 is layer l's pre-activation. Screening thresholds are
far above the probe step, so accepted instances are deterministic and safe.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autodiff import Tape, Tensor, backward, cross_entropy, fd_gradient, matmul, relu
from .config import ExperimentConfig
from .losses import compose_stage_loss, mixed_transition, transition_loss
from .projector import (LayerRouting, ProjectorConfig, RoutingTrace, build_moe_from_pretrained,
                        init_mlp, mix, moe_layer)
from .stages import routing_terms
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
    # the argmax over all experts is the in-group argmax of the one-group view
    owns = [view.own_group_probs() for view in (trace.one_group, trace)]
    for l, record in enumerate(trace.layers):
        s = np.sort(record.logits.data, axis=1)[:, ::-1]
        if k < s.shape[1] and (s[:, k - 1] - s[:, k]).min() < _MARGIN:
            return False
        for in_group in (own[l] for own in owns):
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
            ys[expert] = matmul(x, moe.layers[start].expert_weights[expert].value).data
            record = trace.layers[start]
            inputs.append(Tensor(mix(record.probs.data, ys)))
            records.append(record)
            first += 1
        for l in range(first, moe.config.num_layers):
            h, record = moe_layer(moe, l, inputs[l])
            inputs.append(h)
            records.append(record)
        outs.append(inputs.pop())
        rerun.append((inputs, trace.over(records)))
    return outs, rerun


def _kept_products(moe, forwards) -> list:
    """Per forward and layer, the expert input and the N expert products ``moe_layer`` mixes."""
    kept = []
    for inputs, _ in forwards:
        layers = []
        for l, (h, layer) in enumerate(zip(inputs, moe.layers)):
            x = relu(h) if l > 0 else h  # moe_layer's ReLU on the previous layer's output
            layers.append((x, [matmul(x, ew.value).data for ew in layer.expert_weights]))
        kept.append(layers)
    return kept


def _batch1(trace: RoutingTrace, n: int, like: RoutingTrace) -> tuple:
    """Rows ``:n`` of ``trace``'s records as the forward of ``like``'s tokens, with no inputs."""
    return None, like.over([LayerRouting(Tensor(r.logits.data[:n]), r.selected[:n],
                                         Tensor(r.probs.data[:n])) for r in trace.layers])


def _routing_terms(forwards, configs) -> dict:
    """Each stage objective's ``routing_terms``, read off batch 1 (stage 2, the first of
    ``forwards``) or the mixed batch (the last).

    The objectives that read one trace share its language term: it is
    computed once per trace.
    """
    (_, trace1), *_, (_, trace_mix) = forwards
    terms, lang = {}, {}  # id(trace) -> its language term
    for name, (c, stage) in _OBJECTIVES.items():
        trace = trace1 if stage == 2 else trace_mix
        terms[name] = routing_terms(configs[c], stage, trace, lang=lang.get(id(trace)))
        if "lang" in terms[name]:
            lang.setdefault(id(trace), terms[name]["lang"])
    return terms


def _losses(ce, transition, mixed, terms, configs) -> tuple:
    """The losses in ``GRAD_LOSSES`` order from batch 1's cross-entropy ``ce``, the
    ``transition`` from batch 1 to batch 2 and the ``mixed`` batch's transition.

    A stage's objectives under equal weights add their balance to one ``core + lang``.
    """
    on_batch1, partial, objectives = terms["stage2_total"], {}, []
    for name, (c, stage) in _OBJECTIVES.items():
        config, core, routing = configs[c], ce if stage == 2 else mixed, terms[name]
        if routing:
            key = (stage, config.lang_weight, config.balance_weight)
            if key not in partial:
                partial[key] = compose_stage_loss(config, core, {"lang": routing["lang"]})
            core, routing = partial[key], {"balance": routing["balance"]}
        objectives.append(compose_stage_loss(config, core, routing))
    return (ce, on_batch1["lang"], on_batch1["balance"],
            terms["stage2_total_conventional"]["balance"], transition, *objectives)


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
    (_, _, t1), (_, _, t2) = batches
    targets, n1 = np.concatenate([t1, t2]), len(t1)  # the mixed batch's; rows :n1 are batch 1
    with Tape():
        outs, forwards = _rerun(moe, _inputs(moe, batches), 0)
        terms = _routing_terms(forwards, configs)
        logits1, logits2, logits_mix = (decode(decoder, h) for h in outs)
        ce = cross_entropy(logits1, t1)
        losses = _losses(ce, transition_loss(ce, cross_entropy(logits2, t2), lam),
                         mixed_transition(logits_mix, targets, n1, lam)[0], terms, configs)
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
    trace1, mixed = forwards[0][1], forwards[2]
    kept = _kept_products(moe, [mixed])
    worst = dict.fromkeys(GRAD_LOSSES, 0.0)
    for j, p in enumerate(params):
        start, expert, routes = reach.get(id(p), (None, None, False))

        def f(t, _p=p, _start=start, _expert=expert, _routes=routes):
            old = _p.value.data.copy()
            _p.value.data[...] = t.data
            try:
                if _start is None:  # the MoE forward reads no decoder parameter
                    h, r = outs[2], terms
                else:
                    (h,), (rerun,) = _rerun(moe, [mixed], _start, _expert, kept)
                    r = (_routing_terms([_batch1(rerun[1], n1, trace1), rerun], configs)
                         if _routes else terms)
                # batch 1's and batch 2's cross-entropies and their blend are
                # the mixed batch's halves and its transition, bit for bit
                blend, ce1, _ = mixed_transition(decode(decoder, h), targets, n1, lam)
                return np.array([v.item() for v in _losses(Tensor(ce1), blend, blend, r, configs)])
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
    candidate = 0
    while accepted < instances:
        moe, decoder, batches, lam, configs = _make_instance(seed, candidate)
        candidate += 1
        _, (mixed,) = _rerun(moe, _inputs(moe, batches)[2:], 0)  # the mixed batch 1 + 2
        if not _screen(moe, mixed):
            continue
        errors = _instance_errors(moe, decoder, batches, lam, configs, _EPS)
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
        "skipped_candidates": candidate - accepted,
        "eps": _EPS,
        "tol": _TOL,
        "losses": losses,
        "pass": all(entry["pass"] for entry in losses.values()),
    }
