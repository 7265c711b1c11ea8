"""Tests for the finite-difference gradient audit harness.

Oracles: the report covers every loss composition, a clean run passes at the
default tolerance, the harness is deterministic, and a deliberately corrupted
backward rule is caught (sensitivity check — a harness that cannot fail
verifies nothing). The shared sweep must reproduce, float for float, a
per-loss sweep that builds each loss on its own tape and perturbs each
coordinate once per loss.
"""

import time

import numpy as np
import pytest

import csmoe.gradcheck as gradcheck
from csmoe import losses, projector, stages
from csmoe.autodiff import Tape, Tensor, backward, cross_entropy, fd_gradient
from csmoe.gradcheck import GRAD_LOSSES, grad_check_report
from csmoe.losses import (
    compose_stage_loss,
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
    transition_loss,
)
from csmoe.projector import LayerRouting, RoutingTrace, moe_forward, moe_layer
from csmoe.world import decode
from oracles import chain_mixed_transition


EXPECTED = {
    "ce", "lang", "balance", "conventional", "transition",
    "stage2_total", "stage3_total", "stage4_total",
    "stage2_total_conventional", "stage3_total_conventional",
}


def test_loss_coverage_constant():
    assert set(GRAD_LOSSES) == EXPECTED


def test_clean_run_passes():
    report = grad_check_report(seed=0, instances=5)
    assert set(report["losses"]) == EXPECTED
    for name, entry in report["losses"].items():
        assert entry["pass"], (name, entry)
        assert entry["max_rel_err"] < 1e-4
    assert report["pass"] is True
    assert report["instances"] == 5


def test_deterministic():
    a = grad_check_report(seed=3, instances=3)
    b = grad_check_report(seed=3, instances=3)
    assert a == b


def crooked(loss):
    """``loss``, whose tape node's backward is made wrong by a factor of 1.5."""
    if loss._tape is not None:
        node = loss._tape.nodes[loss.node_id]
        real_backward = node.backward
        node.backward = lambda g: tuple(d * 1.5 for d in real_backward(g))
    return loss


def test_corrupted_backward_is_caught(monkeypatch):
    real_language = stages.language_specific_loss
    monkeypatch.setattr(stages, "language_specific_loss",
                        lambda trace, **kwargs: crooked(real_language(trace, **kwargs)))
    report = grad_check_report(seed=0, instances=3)
    assert report["pass"] is False
    assert not report["losses"]["lang"]["pass"]
    # paths that never touch the corrupted rule still pass
    assert report["losses"]["ce"]["pass"]
    assert report["losses"]["conventional"]["pass"]


def test_corrupted_conventional_backward_is_caught(monkeypatch):
    real_conventional = stages.conventional_balance_loss

    monkeypatch.setattr(stages, "conventional_balance_loss",
                        lambda trace, **kwargs: crooked(real_conventional(trace, **kwargs)))
    losses = grad_check_report(seed=0, instances=3)["losses"]
    for name in ("conventional", "stage2_total_conventional", "stage3_total_conventional"):
        assert not losses[name]["pass"], name
    # the intra-group objectives never touch the corrupted rule
    for name in ("ce", "stage2_total", "stage3_total"):
        assert losses[name]["pass"], name


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grad_check_report(instances=0)


# ------------------------------------------------- per-loss sweep (oracle)


def _oracle_builders(moe, decoder, batches, lam, configs):
    """One closure per loss, each running its own MoE forwards."""
    (f1, l1, t1), (f2, l2, t2) = batches
    intra, conventional = configs

    def fwd(feats, labels):
        return moe_forward(moe, Tensor(feats), labels)

    def ce_of(feats, labels, targets):
        h, trace = fwd(feats, labels)
        return cross_entropy(decode(decoder, h), targets), trace

    def mixed():
        feats = np.concatenate([f1, f2], axis=0)
        h, trace = fwd(feats, np.concatenate([l1, l2]))
        return chain_mixed_transition(decode(decoder, h), t1, t2, lam)[0], trace

    def intra_balance(trace):
        return intra_group_balance_loss(trace)

    def routed(config, balance, core_and_trace):
        core, trace = core_and_trace
        terms = {"lang": language_specific_loss(trace), "balance": balance(trace)}
        return compose_stage_loss(config, core, terms)

    moe_params = moe.parameters()
    all_params = moe_params + decoder.parameters()
    return {
        "ce": (lambda: ce_of(f1, l1, t1)[0], all_params),
        "lang": (lambda: language_specific_loss(fwd(f1, l1)[1]), moe_params),
        "balance": (lambda: intra_balance(fwd(f1, l1)[1]), moe_params),
        "conventional": (lambda: conventional_balance_loss(fwd(f1, l1)[1]), moe_params),
        "transition": (lambda: transition_loss(ce_of(f1, l1, t1)[0],
                                               ce_of(f2, l2, t2)[0], lam), all_params),
        "stage2_total": (lambda: routed(intra, intra_balance, ce_of(f1, l1, t1)), all_params),
        "stage3_total": (lambda: routed(intra, intra_balance, mixed()), all_params),
        "stage4_total": (lambda: mixed()[0], all_params),
        "stage2_total_conventional": (
            lambda: routed(conventional, conventional_balance_loss, ce_of(f1, l1, t1)),
            all_params),
        "stage3_total_conventional": (
            lambda: routed(conventional, conventional_balance_loss, mixed()), all_params),
    }


def _oracle_max_rel_err(build_loss, params, eps):
    for p in params:
        p.zero_grad()
    with Tape():
        backward(build_loss())
    worst = 0.0
    for p in params:
        analytic = p.grad.copy()

        def f(t, _p=p):
            old = _p.value.data.copy()
            _p.value.data[...] = t.data
            try:
                return build_loss()
            finally:
                _p.value.data[...] = old

        fd = fd_gradient(f, Tensor(p.value.data.copy()), eps=eps).data
        denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-5)
        worst = max(worst, float(np.linalg.norm(fd - analytic) / denom))
    return worst


def _oracle_instance_errors(moe, decoder, batches, lam, configs, eps):
    builders = _oracle_builders(moe, decoder, batches, lam, configs)
    return {name: _oracle_max_rel_err(build, params, eps)
            for name, (build, params) in builders.items()}


@pytest.mark.parametrize("seed", [0, 7])
def test_shared_sweep_equals_per_loss_sweep_exactly(seed, monkeypatch):
    shared = grad_check_report(seed=seed, instances=2)
    monkeypatch.setattr(gradcheck, "_instance_errors", _oracle_instance_errors)
    oracle = grad_check_report(seed=seed, instances=2)
    assert shared == oracle  # floats compared exactly


def test_sweep_runs_one_moe_forward_per_perturbation(monkeypatch):
    # An instance has 60 coordinates in MoE layer 0, 48 of them in experts,
    # and 80 in layer 1, 64 of them in experts, and 36 decoder coordinates.
    # On both sides of its step, a coordinate reruns the mixed forward only:
    # a router coordinate of layer l from layer l, and an expert coordinate
    # of layer l re-mixes layer l and reruns the layers above it:
    # 48·2·1 + 12·2·2 + 16·2·1 + 64·0 = 176 layer evaluations and
    # (48 + 64)·2 = 224 re-mixes in the sweep. Each of its 2·(140 + 36) = 352
    # evaluations decodes the mixed output once and reads batch 1 and batch 2
    # as its rows.
    # The routing terms are read once unperturbed and on both sides of every
    # coordinate that reaches a router: 1 + 2·(140 − 64) = 153 times, each
    # time for five objectives. Four of them add the language-specific loss,
    # computed once for each of the two traces they read (153·2 = 306), and
    # two the intra-group balance loss. Each evaluation scores its decoded
    # logits by one fused mixed transition, 352 in the sweep, whose one
    # token_nll pass gives both cross-entropies, and whose blend is also the
    # batches' transition: no cross_entropy or transition_loss call is left.
    counts = dict.fromkeys(("layers", "remixes", "decodes", "routing_terms", "lang",
                            "balance", "cross_entropy", "transition", "mixed_transition",
                            "token_nll"), 0)
    in_sweep = [False]

    def counted(module, name, key, sweep_only=False):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if in_sweep[0] or not sweep_only:
                counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def sweep(*args, **kwargs):
        in_sweep[0] = True
        try:
            return fd_gradient(*args, **kwargs)
        finally:
            in_sweep[0] = False

    counted(gradcheck, "moe_layer", "layers", sweep_only=True)
    counted(gradcheck, "mix", "remixes", sweep_only=True)
    counted(gradcheck, "decode", "decodes", sweep_only=True)
    counted(gradcheck, "routing_terms", "routing_terms")
    counted(stages, "language_specific_loss", "lang")
    counted(stages, "intra_group_balance_loss", "balance")
    for module in (gradcheck, stages):
        counted(module, "cross_entropy", "cross_entropy", sweep_only=True)
    for module in (gradcheck, losses):
        counted(module, "transition_loss", "transition", sweep_only=True)
    counted(gradcheck, "mixed_transition", "mixed_transition", sweep_only=True)
    counted(losses, "token_nll", "token_nll", sweep_only=True)
    monkeypatch.setattr(gradcheck, "fd_gradient", sweep)
    moe, decoder = gradcheck._make_instance(0, 0)[:2]
    assert [sum(p.value.data.size for p in (*layer.expert_weights, layer.router_weights))
            for layer in moe.layers] == [60, 80]
    assert sum(p.value.data.size for p in moe.layers[-1].expert_weights) == 64
    assert sum(p.value.data.size for p in decoder.parameters()) == 36
    instances = 2
    grad_check_report(seed=0, instances=instances)
    assert counts == {"layers": instances * 176, "remixes": instances * 224,
                      "decodes": instances * 352, "routing_terms": instances * 5 * 153,
                      "lang": instances * 306, "balance": instances * 306,
                      "cross_entropy": 0, "transition": 0,
                      "mixed_transition": instances * 352, "token_nll": instances * 352}


def test_an_instance_builds_its_token_layouts_once_per_read_trace(monkeypatch):
    # the taped forward's batch-1 and mixed traces each build their layout
    # and their one-group layout when the routing terms first read them;
    # every perturbed trace of the sweep, batch 1's rows included, is made
    # over one of them and shares both, so the sweep's 153 routing reads
    # build none
    builds, where = {"taped": 0, "sweep": 0}, [None]

    class CountedLayout(projector.TokenLayout):
        def __init__(self, *args):
            if where[0]:
                builds[where[0]] += 1
            super().__init__(*args)

    def within(name, real):
        def wrapper(*args, **kwargs):
            outer, where[0] = where[0], name
            try:
                return real(*args, **kwargs)
            finally:
                where[0] = outer
        return wrapper

    monkeypatch.setattr(projector, "TokenLayout", CountedLayout)
    monkeypatch.setattr(gradcheck, "_instance_errors",
                        within("taped", gradcheck._instance_errors))
    monkeypatch.setattr(gradcheck, "fd_gradient", within("sweep", gradcheck.fd_gradient))
    instances = 2
    grad_check_report(seed=0, instances=instances)
    assert builds == {"taped": instances * 4, "sweep": 0}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_batches_are_the_row_halves_of_the_mixed_forward(seed):
    # the sweep runs and screens the mixed forward only and reads batch 1 and
    # batch 2 as its row halves; that holds bit for bit while every op of the
    # MoE and the decoder works row by row, screened-out candidates included.
    # So the mixed transition's cross-entropies are the batches' own, and its
    # blend is their transition
    for candidate in range(10):
        moe, decoder, batches, lam, _ = gradcheck._make_instance(seed, candidate)
        outs, forwards = gradcheck._rerun(moe, gradcheck._inputs(moe, batches), 0)
        n1 = len(batches[0][0])
        (_, mixed_trace), mixed_logits = forwards[2], decode(decoder, outs[2]).data
        (_, _, t1), (_, _, t2) = batches
        blend, ce_source, ce_target = stages.mixed_transition(
            Tensor(mixed_logits), np.concatenate([t1, t2]), n1, lam)
        ce = cross_entropy(decode(decoder, outs[0]), t1)
        ce2 = cross_entropy(decode(decoder, outs[1]), t2)
        assert ce.item() == ce_source.item(), (seed, candidate)
        assert ce2.item() == ce_target.item(), (seed, candidate)
        assert transition_loss(ce, ce2, lam).item() == blend.item(), (seed, candidate)
        for rows, out, (inputs, trace) in zip((slice(None, n1), slice(n1, None)),
                                              outs[:2], forwards[:2], strict=True):
            where = (seed, candidate, rows)
            assert np.array_equal(outs[2].data[rows], out.data), where
            assert np.array_equal(mixed_logits[rows], decode(decoder, out).data), where
            for a, b in zip(forwards[2][0], inputs, strict=True):
                assert np.array_equal(a.data[rows], b.data), where
            for a, b in zip(mixed_trace.layers, trace.layers, strict=True):
                assert np.array_equal(a.logits.data[rows], b.logits.data), where
                assert np.array_equal(a.selected[rows], b.selected), where
                assert np.array_equal(a.probs.data[rows], b.probs.data), where
        assert gradcheck._screen(moe, forwards[2]) == (
            gradcheck._screen(moe, forwards[0]) and gradcheck._screen(moe, forwards[1]))


def _layer_states(moe, feats):
    """The input and the routing record of every MoE layer of one forward."""
    h, states = Tensor(feats), []
    for l in range(moe.config.num_layers):
        h_in = h.data.copy()
        h, record = moe_layer(moe, l, h)
        states.append((h_in, record.selected.copy(), record.probs.data.copy()))
    return states


@pytest.mark.parametrize("candidate", range(4))
def test_a_perturbation_changes_no_layer_below_its_own(candidate):
    # the facts the sweep's reuse rests on: a layer-l parameter leaves the
    # inputs and records below layer l as they are, and an expert of any
    # layer l leaves layer l's record as it is (so a last-layer expert
    # changes no routing record); a router does change its layer's records
    moe, _, ((f1, _, _), (f2, _, _)), _, _ = gradcheck._make_instance(0, candidate)
    feats = np.concatenate([f1, f2], axis=0)
    base = _layer_states(moe, feats)
    rng = np.random.default_rng(candidate)
    for l, layer in enumerate(moe.layers):
        for p in (*layer.expert_weights, layer.router_weights):
            old = p.value.data.copy()
            p.value.data += 1e-3 * rng.normal(size=old.shape)
            try:
                states = _layer_states(moe, feats)
            finally:
                p.value.data[...] = old
            for below in range(l):
                for a, b in zip(states[below], base[below]):
                    assert np.array_equal(a, b), (p.name, below)
            assert np.array_equal(states[l][0], base[l][0]), p.name
            if p is layer.router_weights:
                assert not (np.array_equal(states[l][1], base[l][1])
                            and np.array_equal(states[l][2], base[l][2])), p.name
            else:
                assert np.array_equal(states[l][1], base[l][1]), p.name
                assert np.array_equal(states[l][2], base[l][2]), p.name


@pytest.mark.parametrize("candidate", range(4))
def test_expert_remix_equals_rerunning_its_layer(candidate):
    # the restart at (layer l, expert i) keeps layer l's routing record and
    # the other experts' products; it must give what rerunning layer l gives
    moe, _, batches, _, _ = gradcheck._make_instance(0, candidate)
    base, forwards = gradcheck._rerun(moe, gradcheck._inputs(moe, batches), 0)
    kept = gradcheck._kept_products(moe, forwards)
    rng = np.random.default_rng(candidate)
    moved = 0
    for l, layer in enumerate(moe.layers):
        for i, p in enumerate(layer.expert_weights):
            old = p.value.data.copy()
            p.value.data.reshape(-1)[rng.integers(old.size)] += 1e-3
            try:
                remixed = gradcheck._rerun(moe, forwards, l, i, kept)
                rerun = gradcheck._rerun(moe, forwards, l)
            finally:
                p.value.data[...] = old
            for a, b, unperturbed in zip(remixed[0], rerun[0], base):
                assert np.array_equal(a.data, b.data), p.name
                moved += not np.array_equal(a.data, unperturbed.data)
            for (inputs_a, trace_a), (inputs_b, trace_b) in zip(remixed[1], rerun[1]):
                for a, b in zip(inputs_a, inputs_b, strict=True):
                    assert np.array_equal(a.data, b.data), p.name
                for a, b in zip(trace_a.layers, trace_b.layers, strict=True):
                    assert np.array_equal(a.logits.data, b.logits.data), p.name
                    assert np.array_equal(a.selected, b.selected), p.name
                    assert np.array_equal(a.probs.data, b.probs.data), p.name
    assert moved  # the perturbations reach the outputs


def test_an_instance_that_raises_fails_the_report(monkeypatch):
    # an error inside an accepted instance's sweep is a fault, not a skip: the
    # report raises it at once rather than drawing candidates without end
    calls = []

    def raising(*args):
        calls.append(args)
        if len(calls) > 1:
            raise AssertionError("the first instance's ValueError was swallowed")
        raise ValueError("sweep fault")

    monkeypatch.setattr(gradcheck, "_instance_errors", raising)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="sweep fault"):
        grad_check_report(seed=0, instances=3)
    assert len(calls) == 1
    assert time.perf_counter() - start < 5.0


def _out_of_group(trace):
    """``trace`` with each token's two picks moved to the experts outside its own group.

    Every token of the 2 x 2 layout gets logits 7 and 5 on the other group's
    experts and 1 and 0 on its own, so no token has in-group mass at any layer.
    """
    labels = trace.layout.labels
    other = 1 - labels
    logits = np.zeros((trace.num_tokens, 4))
    logits[np.arange(trace.num_tokens), 2 * other + 1] = 7.0
    logits[np.arange(trace.num_tokens), 2 * other] = 5.0
    logits[np.arange(trace.num_tokens), 2 * labels] = 1.0
    selected = np.sort(np.stack([2 * other, 2 * other + 1], axis=1), axis=1)
    probs = np.zeros_like(logits)
    picked = np.exp([5.0, 7.0])
    probs[np.arange(trace.num_tokens)[:, None], selected] = picked / picked.sum()
    records = [LayerRouting(Tensor(logits), selected, Tensor(probs)) for _ in trace.layers]
    return RoutingTrace(records, trace.group_of, trace.token_language)


def test_a_batch_one_with_no_in_group_mass_scores_within_tolerance(monkeypatch):
    # seed 0's first accepted candidate is 2; with batch 1's trace made to put
    # no mass in any token's own group, the routing terms read a balance of 0
    # with no gradient, and the sweep agrees with it: no screen is needed
    assert (gradcheck._M, gradcheck._N, gradcheck._K) == (2, 2, 2)  # _out_of_group's layout
    real_terms, balances = gradcheck._routing_terms, []

    def crafted_terms(forwards, configs):
        (inputs, trace), *rest = forwards
        terms = real_terms([(inputs, _out_of_group(trace)), *rest], configs)
        balances.append(terms["stage2_total"]["balance"].item())
        return terms

    monkeypatch.setattr(gradcheck, "_routing_terms", crafted_terms)
    errors = gradcheck._instance_errors(*gradcheck._make_instance(0, 2), gradcheck._EPS)
    assert balances and set(balances) == {0.0}
    assert errors["balance"] < gradcheck._TOL
    assert all(err < gradcheck._TOL for err in errors.values()), errors


# candidates among 0-59 that the screen turns away, at harness seeds 0 and 7
SCREENED_OUT = {
    0: [0, 1, 3, 4, 5, 7, 8, 9, 11, 16, 19, 21, 22, 24, 25, 26, 27, 28, 31, 32, 33, 35, 38,
        40, 43, 45, 46, 48, 51, 53, 54, 55, 58],
    7: [1, 4, 8, 11, 13, 14, 16, 19, 20, 27, 28, 31, 36, 37, 38, 40, 42, 44, 45, 46, 47, 49,
        52, 53, 54, 55, 56, 58, 59],
}


@pytest.mark.parametrize("seed", sorted(SCREENED_OUT))
def test_screen_turns_away_the_known_candidates(seed, monkeypatch):
    # only a candidate that passes the report's screen reaches _instance_errors,
    # here a stub that accepts it without a sweep
    state = {"current": None, "accepted": []}
    real_make = gradcheck._make_instance

    def make(seed, candidate):
        state["current"] = candidate
        return real_make(seed, candidate)

    def accept(*args):
        state["accepted"].append(state["current"])
        return dict.fromkeys(GRAD_LOSSES, 0.0)

    monkeypatch.setattr(gradcheck, "_make_instance", make)
    monkeypatch.setattr(gradcheck, "_instance_errors", accept)
    screened = SCREENED_OUT[seed]
    grad_check_report(seed=seed, instances=60 - len(screened) + 1)  # one past candidate 59
    assert [c for c in range(60) if c not in state["accepted"]] == screened
