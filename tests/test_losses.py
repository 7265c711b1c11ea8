"""Tests for the training objectives.

Oracles: hand evaluations of the loss closed forms (exact dyadic-rational
constructions where exactness is asserted), naive per-token recomputations,
and finite differences through the router chain.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csmoe import stages
from csmoe.autodiff import (
    Parameter,
    Tape,
    Tensor,
    add,
    backward,
    cross_entropy,
    fd_gradient,
    matmul,
    mul,
    take,
)
from csmoe.config import ExperimentConfig
from csmoe.losses import (
    LossBundle,
    TransitionState,
    _group_layout,
    _in_group_wins,
    _resolve_labels,
    compose_stage_loss,
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
    transition_loss,
)
from csmoe.projector import (
    CS_UNLABELED,
    LayerRouting,
    ProjectorConfig,
    RoutingTrace,
    build_moe_from_pretrained,
    init_mlp,
    moe_forward,
)
from csmoe.world import init_decoder
from oracles import div, log, sub, tsum


def make_trace(prob_rows_per_layer, labels=None):
    """Build a RoutingTrace from explicit per-layer [T×N] probability arrays."""
    layers = []
    for rows in prob_rows_per_layer:
        rows = np.asarray(rows, dtype=float)
        sel_rows = []
        for r in rows:
            nz = np.flatnonzero(r > 0.0)
            if nz.size == 0:
                nz = np.array([0])
            sel_rows.append(nz)
        # pad ragged selections (unused by the losses) to a rectangular array
        k = max(len(s) for s in sel_rows)
        sel = np.stack(
            [np.concatenate([s, np.full(k - len(s), s[-1], dtype=s.dtype)]) for s in sel_rows]
        ).astype(np.intp)
        layers.append(LayerRouting(sel, Tensor(rows)))
    lab = None if labels is None else np.asarray(labels)
    return RoutingTrace(layers, lab)


GROUPS_2x2 = np.array([0, 0, 1, 1])  # m=2, n=2


# -------------------------------------------------- language_specific_loss


def test_language_loss_zero_when_all_in_group():
    trace = make_trace([[[0.75, 0.25, 0.0, 0.0]]], labels=[0])
    loss = language_specific_loss(trace, None, GROUPS_2x2)
    assert loss.item() == 0.0


def test_language_loss_hand_value():
    # One token, one layer, one out-group expert holding p=0.2.
    trace = make_trace([[[0.5, 0.3, 0.2, 0.0]]], labels=[0])
    loss = language_specific_loss(trace, None, GROUPS_2x2)
    assert abs(loss.item() - (-math.log(0.8))) < 1e-9
    assert abs(loss.item() - 0.2231435513) < 1e-9


def test_language_loss_additive_over_tokens():
    row = [0.5, 0.3, 0.2, 0.0]
    trace = make_trace([[row, row]], labels=[0, 0])
    loss = language_specific_loss(trace, None, GROUPS_2x2)
    assert abs(loss.item() - 2 * (-math.log(0.8))) < 1e-9
    assert abs(loss.item() - 0.4462871026) < 1e-9


def test_language_loss_additive_over_layers():
    row = [0.5, 0.3, 0.2, 0.0]
    trace = make_trace([[row], [row]], labels=[0])
    loss = language_specific_loss(trace, None, GROUPS_2x2)
    assert abs(loss.item() - 2 * (-math.log(0.8))) < 1e-9


def test_language_loss_explicit_label_overrides():
    # Same probs, but evaluated as language 1: out-group experts are 0 and 1.
    trace = make_trace([[[0.5, 0.3, 0.2, 0.0]]])
    loss = language_specific_loss(trace, 1, GROUPS_2x2)
    expected = -math.log(1 - 0.5) - math.log(1 - 0.3)
    assert abs(loss.item() - expected) < 1e-9


def test_language_loss_rejects_cs_unlabeled():
    trace = make_trace([[[1.0, 0.0, 0.0, 0.0]]], labels=[CS_UNLABELED])
    with pytest.raises(ValueError):
        language_specific_loss(trace, None, GROUPS_2x2)
    with pytest.raises(ValueError):
        language_specific_loss(trace, CS_UNLABELED, GROUPS_2x2)


def test_language_loss_nonnegative_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p_out = rng.uniform(0.0, 0.6)
        trace = make_trace([[[1 - p_out - 0.1, 0.1, p_out, 0.0]]], labels=[0])
        base = language_specific_loss(trace, None, GROUPS_2x2).item()
        assert base >= 0.0
        bumped = make_trace([[[1 - p_out - 0.15, 0.1, p_out + 0.05, 0.0]]], labels=[0])
        higher = language_specific_loss(bumped, None, GROUPS_2x2).item()
        assert higher > base


def test_language_loss_sums_not_means():
    # Doubling the token count doubles the loss (no implicit averaging).
    row = [0.5, 0.3, 0.2, 0.0]
    one = language_specific_loss(make_trace([[row]], labels=[0]), None, GROUPS_2x2)
    four = language_specific_loss(
        make_trace([[row, row, row, row]], labels=[0, 0, 0, 0]), None, GROUPS_2x2
    )
    assert abs(four.item() - 4 * one.item()) < 1e-12


def test_language_loss_normalize_flag():
    row = [0.5, 0.3, 0.2, 0.0]
    trace = make_trace([[row, row]], labels=[0, 0])
    raw = language_specific_loss(trace, None, GROUPS_2x2).item()
    norm = language_specific_loss(trace, None, GROUPS_2x2, normalize=True).item()
    assert abs(norm - raw / 2) < 1e-12


# ----------------------------------------------- intra_group_balance_loss


def test_intra_balance_hand_value_balanced():
    # 1 layer, 1 language, n=2, argmax split 50/50, renormalized mean [.5, .5].
    # Dyadic probabilities keep every intermediate exact.
    rows = [[0.5625, 0.4375], [0.4375, 0.5625]]
    trace = make_trace([rows], labels=[0, 0])
    loss = intra_group_balance_loss(trace, np.array([0, 0]))
    assert abs(loss.item() - 0.5) < 1e-12


def test_intra_balance_hand_value_collapsed():
    # All tokens argmax to expert 0 with all mass there: f = P = [1, 0] → 1.0.
    rows = [[1.0, 0.0], [1.0, 0.0]]
    trace = make_trace([rows], labels=[0, 0])
    loss = intra_group_balance_loss(trace, np.array([0, 0]))
    assert loss.item() == 1.0


def test_intra_balance_uniform_point_closed_form():
    # m groups each uniform → L·m/n exactly.
    L, m, n = 3, 2, 2
    # Per language: two tokens with dyadic probs averaging to 1/2 per expert,
    # argmaxes split 1/1.
    lang0 = [[0.5625, 0.4375, 0.0, 0.0], [0.4375, 0.5625, 0.0, 0.0]]
    lang1 = [[0.0, 0.0, 0.5625, 0.4375], [0.0, 0.0, 0.4375, 0.5625]]
    rows = lang0 + lang1
    trace = make_trace([rows] * L, labels=[0, 0, 1, 1])
    loss = intra_group_balance_loss(trace, GROUPS_2x2)
    assert abs(loss.item() - L * m / n) < 1e-9


def test_intra_balance_one_hot_at_least_uniform():
    # Any all-to-one-expert assignment scores >= the uniform value 1/n per cell.
    rng = np.random.default_rng(1)
    for _ in range(20):
        winner = rng.integers(0, 2)
        rows = []
        for _t in range(4):
            p_win = rng.uniform(0.5, 1.0)
            row = [0.0, 0.0]
            row[winner] = p_win
            row[1 - winner] = 1.0 - p_win
            rows.append(row)
        trace = make_trace([rows], labels=[0] * 4)
        loss = intra_group_balance_loss(trace, np.array([0, 0]))
        assert loss.item() >= 0.5 - 1e-12


def test_intra_balance_absent_language_contributes_zero():
    # Only language 0 present in an m=2 world: total is language 0's term.
    rows = [[0.5625, 0.4375, 0.0, 0.0], [0.4375, 0.5625, 0.0, 0.0]]
    trace = make_trace([rows], labels=[0, 0])
    loss = intra_group_balance_loss(trace, GROUPS_2x2)
    assert abs(loss.item() - 0.5) < 1e-12


def test_intra_balance_skips_tokens_without_in_group_mass():
    # A language-0 token routed entirely out-group has no in-group argmax;
    # it is excluded from f and adds nothing to P.
    rows = [
        [0.5625, 0.4375, 0.0, 0.0],
        [0.4375, 0.5625, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],  # language-0 token, all mass in group 1
    ]
    trace = make_trace([rows], labels=[0, 0, 0])
    loss = intra_group_balance_loss(trace, GROUPS_2x2)
    # language-0 cell: f = P = [1/2, 1/2] → 0.5; the stray token also creates
    # mass in group 1's columns, but language 1 has no tokens → no group-1 term.
    assert abs(loss.item() - 0.5) < 1e-12


def test_intra_balance_requires_labels():
    trace = make_trace([[[1.0, 0.0, 0.0, 0.0]]], labels=[CS_UNLABELED])
    with pytest.raises(ValueError):
        intra_group_balance_loss(trace, GROUPS_2x2)


# --------------------------------------------- conventional_balance_loss


def test_conventional_uniform_point():
    # Uniform over N=4 experts, 1 layer → 0.25 (= 1/N).
    rows = [
        [0.3125, 0.25, 0.25, 0.1875],
        [0.1875, 0.3125, 0.25, 0.25],
        [0.25, 0.1875, 0.3125, 0.25],
        [0.25, 0.25, 0.1875, 0.3125],
    ]
    trace = make_trace([rows])
    loss = conventional_balance_loss(trace)
    assert abs(loss.item() - 0.25) < 1e-9


def test_conventional_collapsed_is_one():
    rows = [[1.0, 0.0, 0.0, 0.0]] * 3
    trace = make_trace([rows])
    assert conventional_balance_loss(trace).item() == 1.0


def test_conventional_single_expert_degenerate():
    trace = make_trace([[[1.0], [1.0]]])
    assert conventional_balance_loss(trace).item() == 1.0


def test_conventional_equals_intra_for_single_group():
    rng = np.random.default_rng(5)
    for _ in range(10):
        raw = rng.uniform(0.01, 1.0, size=(6, 3))
        rows = raw / raw.sum(axis=1, keepdims=True)
        conv = conventional_balance_loss(make_trace([rows])).item()
        intra = intra_group_balance_loss(
            make_trace([rows], labels=[0] * 6), np.array([0, 0, 0])
        ).item()
        assert abs(conv - intra) < 1e-12


# ----------------------------------------------------------- transition_loss


def test_transition_endpoint_is_exactly_target():
    src, tgt = Tensor(2.0), Tensor(4.0)
    out = transition_loss(src, tgt, TransitionState(b=4, B=4))
    assert out.item() == 4.0  # bit-exact endpoint


def test_transition_midpoint():
    out = transition_loss(Tensor(2.0), Tensor(4.0), TransitionState(b=2, B=4))
    assert abs(out.item() - 3.0) < 1e-15


def test_transition_hand_value():
    out = transition_loss(Tensor(2.0), Tensor(4.0), TransitionState(b=1, B=4))
    assert abs(out.item() - 2.5) < 1e-15


def test_transition_state_validation():
    with pytest.raises(ValueError):
        TransitionState(b=0, B=4)
    with pytest.raises(ValueError):
        TransitionState(b=5, B=4)
    with pytest.raises(ValueError):
        TransitionState(b=1, B=0)


def test_lambda_schedule_monotone_and_complete():
    B = 7
    lams = [TransitionState(b=b, B=B).lam for b in range(1, B + 1)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert lams[-1] == 1.0


def test_transition_gradient_weights():
    src = Parameter("s", Tensor(2.0))
    tgt = Parameter("t", Tensor(4.0))
    with Tape():
        out = transition_loss(src.value, tgt.value, TransitionState(b=1, B=4))
        backward(out)
    assert abs(src.grad - 0.75) < 1e-15
    assert abs(tgt.grad - 0.25) < 1e-15


# -------------------------------------------------------- compose_stage_loss


def test_compose_stage1():
    bundle = compose_stage_loss(1, ce=Tensor(0.9))
    assert abs(bundle.total.item() - 0.9) < 1e-15
    assert bundle.lang is None and bundle.balance is None


def test_compose_stage2_sum():
    bundle = compose_stage_loss(2, ce=Tensor(1.0), lang=Tensor(0.2), balance=Tensor(0.5))
    assert abs(bundle.total.item() - 1.7) < 1e-15


def test_compose_stage3_sum():
    bundle = compose_stage_loss(
        3, transition=Tensor(1.3), lang=Tensor(0.2), balance=Tensor(0.5)
    )
    assert abs(bundle.total.item() - 2.0) < 1e-15


def test_compose_stage4_ignores_aux():
    bundle = compose_stage_loss(4, transition=Tensor(1.3), lang=Tensor(9.9))
    assert bundle.total.item() == 1.3
    assert bundle.lang is None and bundle.balance is None


def test_compose_missing_component_rejected():
    with pytest.raises(ValueError):
        compose_stage_loss(2, ce=Tensor(1.0), lang=Tensor(0.2))  # no balance
    with pytest.raises(ValueError):
        compose_stage_loss(1)
    with pytest.raises(ValueError):
        compose_stage_loss(3, transition=Tensor(1.0), lang=Tensor(0.1))
    with pytest.raises(ValueError):
        compose_stage_loss(4, ce=Tensor(1.0))
    with pytest.raises(ValueError):
        compose_stage_loss(5, ce=Tensor(1.0))


def test_compose_stage2_weighted():
    bundle = compose_stage_loss(
        2,
        ce=Tensor(1.0),
        lang=Tensor(0.2),
        balance=Tensor(0.5),
        lang_weight=2.0,
        balance_weight=0.0,
    )
    assert abs(bundle.total.item() - 1.4) < 1e-15


# ----------------------------------------- gradients through the router chain


def router_chain_setup(seed):
    """A tiny MoE whose trace feeds the aux losses; returns closures for FD."""
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=2)
    mlps = [init_mlp(cfg, seed=seed + g) for g in range(2)]
    moe = build_moe_from_pretrained(mlps, n=2, k=2, seed=seed + 50)
    rng = np.random.default_rng(seed + 7)
    x = rng.normal(size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    return moe, x, labels


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_language_loss_gradient_through_router(seed):
    moe, x, labels = router_chain_setup(seed)

    def build_loss():
        _, trace = moe_forward(moe, Tensor(x), token_language=labels)
        return language_specific_loss(trace, None, moe.group_of)

    with Tape():
        backward(build_loss())

    for p in [layer.router_weights for layer in moe.layers]:
        def f(t, _p=p):
            old = _p.value.data.copy()
            _p.value.data[...] = t.data
            try:
                return build_loss()
            finally:
                _p.value.data[...] = old

        fd = fd_gradient(f, Tensor(p.value.data.copy()), eps=1e-5).data
        denom = max(np.linalg.norm(fd), np.linalg.norm(p.grad), 1e-12)
        assert np.linalg.norm(p.grad - fd) / denom < 1e-4, p.name


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_balance_losses_gradient_through_router(seed):
    moe, x, labels = router_chain_setup(seed)

    for loss_fn in (
        lambda tr: intra_group_balance_loss(tr, moe.group_of),
        conventional_balance_loss,
    ):
        def build_loss():
            _, trace = moe_forward(moe, Tensor(x), token_language=labels)
            return loss_fn(trace)

        with Tape():
            backward(build_loss())

        for p in [layer.router_weights for layer in moe.layers]:
            def f(t, _p=p):
                old = _p.value.data.copy()
                _p.value.data[...] = t.data
                try:
                    return build_loss()
                finally:
                    _p.value.data[...] = old

            fd = fd_gradient(f, Tensor(p.value.data.copy()), eps=1e-5).data
            denom = max(np.linalg.norm(fd), np.linalg.norm(p.grad), 1e-12)
            assert np.linalg.norm(p.grad - fd) / denom < 1e-4, p.name
            p.zero_grad()
        for p in moe.parameters():
            p.zero_grad()


# ------------------------------------- fused routing losses vs the tape chain
# Each routing loss is one tape node with a hand-written backward. The
# op-by-op tape chains below are what those nodes replace; the fused ops must
# reproduce their values and every parameter gradient bit for bit.


def chain_language_specific_loss(trace, lang, group_of, *, normalize=False):
    group_of, m, _ = _group_layout(group_of)
    labels = _resolve_labels(trace, lang, m)
    out_mask = (group_of[None, :] != labels[:, None]).astype(float)
    total = None
    for layer in trace.layers:
        masked = mul(layer.probs, Tensor(out_mask))
        term = mul(tsum(log(sub(1.0, masked))), -1.0)
        total = term if total is None else add(total, term)
    if normalize:
        total = div(total, float(trace.num_tokens))
    return total


def chain_intra_group_balance_loss(trace, group_of, *, lang=None, normalize=False):
    group_of, m, n = _group_layout(group_of)
    labels = _resolve_labels(trace, lang, m)
    total = None
    for layer in trace.layers:
        wins = _in_group_wins(layer.probs.data, labels, group_of, m, n)
        for j in range(m):
            if wins[j].sum() == 0:
                continue
            gmask = group_of == j
            sel_row = Tensor((labels == j).astype(float)[None, :])
            colsums = matmul(sel_row, layer.probs)
            f_row = np.zeros(group_of.size)
            f_row[gmask] = wins[j] / wins[j].sum()
            numer = tsum(mul(colsums, Tensor(f_row[None, :])))
            denom = tsum(mul(colsums, Tensor(gmask.astype(float)[None, :])))
            term = div(numer, denom)
            total = term if total is None else add(total, term)
    if total is None:
        raise ValueError("no token carries in-group probability mass; balance undefined")
    if normalize:
        total = div(total, float(m * trace.num_layers))
    return total


def chain_conventional_balance_loss(trace, *, normalize=False):
    total = None
    for layer in trace.layers:
        num_tokens, num_experts = layer.probs.shape
        counts = np.bincount(layer.probs.data.argmax(axis=1), minlength=num_experts)
        f = counts.astype(float) / num_tokens
        ones_row = Tensor(np.full((1, num_tokens), 1.0 / num_tokens))
        term = tsum(mul(matmul(ones_row, layer.probs), Tensor(f[None, :])))
        total = term if total is None else add(total, term)
    if normalize:
        total = div(total, float(trace.num_layers))
    return total


def fused_setup(seed, m, absent):
    """An m × 3-expert top-2 MoE, a decoder and two 12-token batches.

    In the first batch one token routes both layer-0 picks into one group g
    and is labelled with the next language, so it carries no in-group mass
    there. With ``absent`` that batch's language-g tokens are relabelled the
    same way, so language g has no cell.
    """
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=2)
    mlps = [init_mlp(cfg, seed=[seed, g]) for g in range(m)]
    moe = build_moe_from_pretrained(mlps, n=3, k=2, seed=[seed, 9])
    decoder = init_decoder(4, 7, 2, [seed, 10])
    rng = np.random.default_rng([seed, 11])
    batches = []
    for _ in range(2):
        feats = rng.normal(size=(12, 3))
        batches.append((feats, rng.integers(0, m, size=12), rng.integers(0, 7, size=12)))
    feats, labels, _ = batches[0]
    picked = moe.group_of[moe_forward(moe, Tensor(feats))[1].layers[0].selected]  # [T × 2]
    t = int(np.flatnonzero(picked[:, 0] == picked[:, 1])[0])
    g = picked[t, 0]
    labels[t] = (g + 1) % m
    if absent:
        labels[labels == g] = (g + 1) % m
    return moe, decoder, batches


def composed_step(moe, decoder, config, stage, batches):
    """The step's loss terms and every parameter's gradient, as the loops build them."""
    (f1, l1, t1), (f2, l2, t2) = batches
    params = moe.parameters() + decoder.parameters()
    for p in params:
        p.zero_grad()
    with Tape():
        if stage == 3 and config.transition_mode == "mixed":
            feats, labels = np.concatenate([f1, f2]), np.concatenate([l1, l2])
            logits, trace = stages._forward(moe, decoder, feats, labels)
            core = transition_loss(cross_entropy(take(logits, np.arange(12)), t1),
                                   cross_entropy(take(logits, np.arange(12, 24)), t2),
                                   TransitionState(1, 3))
        else:
            logits, trace = stages._forward(moe, decoder, f1, l1)
            core = cross_entropy(logits, t1)
        aux = stages._aux_terms(config, stage, trace, moe.group_of)
        core_name = "ce" if stage == 2 else "transition"
        bundle = stages._compose(config, stage, aux=aux, **{core_name: core})
    backward(bundle.total)
    values = {name: term.item() for name, term in aux.items()}
    values["total"] = bundle.total.item()
    return values, trace, [p.grad.copy() for p in params]


def use_chain_losses(monkeypatch):
    monkeypatch.setattr(stages, "language_specific_loss", chain_language_specific_loss)
    monkeypatch.setattr(stages, "intra_group_balance_loss", chain_intra_group_balance_loss)
    monkeypatch.setattr(stages, "conventional_balance_loss", chain_conventional_balance_loss)


# seed, languages, one language absent from the first batch; with three
# languages a layer sums up to three balance cells, so their order shows
@pytest.mark.parametrize("seed,m,absent", [(0, 2, False), (1, 3, False),
                                           (3, 2, True), (4, 3, True)])
@pytest.mark.parametrize("balance_mode", ["intra", "conventional"])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 2.0)])
@pytest.mark.parametrize("stage,mode", [(2, "mixed"), (3, "mixed"), (3, "sampled")])
def test_fused_routing_losses_equal_tape_chain_bit_for_bit(
        seed, m, absent, balance_mode, normalize, weights, stage, mode, monkeypatch):
    variant = "conventional-balance" if balance_mode == "conventional" else "full"
    config = ExperimentConfig(num_languages=m, variant=variant, transition_mode=mode,
                              normalize_aux=normalize, lang_weight=weights[0],
                              balance_weight=weights[1])
    moe, decoder, batches = fused_setup(seed, m, absent)
    fused, trace, fused_grads = composed_step(moe, decoder, config, stage, batches)
    use_chain_losses(monkeypatch)
    chain, _, chain_grads = composed_step(moe, decoder, config, stage, batches)
    assert fused == chain
    assert len(fused_grads) == len(chain_grads)
    for p, a, b in zip(moe.parameters() + decoder.parameters(), fused_grads, chain_grads):
        assert np.array_equal(a, b), p.name
    labels = trace.token_language
    if absent and (stage, mode) != (3, "mixed"):
        assert np.unique(labels).size == m - 1
    # some token routes no mass into its own group (balance skips it)
    in_group = moe.group_of[None, :] == labels[:, None]
    assert ((trace.layers[0].probs.data * in_group).sum(axis=1) == 0.0).any()


@pytest.mark.parametrize("loss_name", ["lang", "balance", "conventional"])
def test_routing_loss_call_adds_one_tape_node(loss_name):
    moe, _, batches = fused_setup(0, 2, absent=False)
    feats, labels, _ = batches[0]
    calls = {
        "lang": lambda tr: language_specific_loss(tr, None, moe.group_of, normalize=True),
        "balance": lambda tr: intra_group_balance_loss(tr, moe.group_of, normalize=True),
        "conventional": lambda tr: conventional_balance_loss(tr, normalize=True),
    }
    with Tape() as tape:
        _, trace = moe_forward(moe, Tensor(feats), labels)
        before = len(tape.nodes)
        calls[loss_name](trace)
        assert len(tape.nodes) == before + 1


def test_language_loss_keeps_log_domain_error():
    # an out-of-group probability of exactly 1 makes log(1 - p) undefined
    trace = make_trace([[[0.0, 0.0, 1.0, 0.0]]], labels=[0])
    with pytest.raises(ValueError, match="strictly positive"):
        language_specific_loss(trace, None, GROUPS_2x2)
