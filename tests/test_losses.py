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
    masked_softmax,
    matmul,
    mul,
)
from csmoe.config import VARIANTS, ExperimentConfig
from csmoe.losses import (
    compose_stage_loss,
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
    mixed_transition,
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
from oracles import (
    chain_language_specific_loss,
    chain_mixed_transition,
    div,
    make_trace,
    take,
    tsum,
)


# -------------------------------------------------- language_specific_loss


def test_language_loss_zero_when_all_in_group():
    trace = make_trace([[[0.75, 0.25, 0.0, 0.0]]], labels=[0], groups=2)
    loss = language_specific_loss(trace)
    assert loss.item() == 0.0


def test_language_loss_hand_value():
    # One token, one layer, one out-group expert holding p=0.2.
    trace = make_trace([[[0.5, 0.3, 0.2, 0.0]]], labels=[0], groups=2)
    loss = language_specific_loss(trace)
    assert abs(loss.item() - (-math.log(0.8))) < 1e-9
    assert abs(loss.item() - 0.2231435513) < 1e-9


def test_language_loss_additive_over_tokens():
    row = [0.5, 0.3, 0.2, 0.0]
    trace = make_trace([[row, row]], labels=[0, 0], groups=2)
    loss = language_specific_loss(trace)
    assert abs(loss.item() - 2 * (-math.log(0.8))) < 1e-9
    assert abs(loss.item() - 0.4462871026) < 1e-9


def test_language_loss_additive_over_layers():
    row = [0.5, 0.3, 0.2, 0.0]
    trace = make_trace([[row], [row]], labels=[0], groups=2)
    loss = language_specific_loss(trace)
    assert abs(loss.item() - 2 * (-math.log(0.8))) < 1e-9


def test_language_loss_rejects_a_trace_without_labels():
    trace = make_trace([[[0.5, 0.3, 0.2, 0.0]]], groups=2)
    with pytest.raises(ValueError, match="no token language labels"):
        language_specific_loss(trace)


def test_language_loss_rejects_cs_unlabeled():
    trace = make_trace([[[1.0, 0.0, 0.0, 0.0]]], labels=[CS_UNLABELED], groups=2)
    with pytest.raises(ValueError, match="unlabeled"):
        language_specific_loss(trace)


def test_language_loss_nonnegative_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p_out = rng.uniform(0.0, 0.6)
        trace = make_trace([[[1 - p_out - 0.1, 0.1, p_out, 0.0]]], labels=[0], groups=2)
        base = language_specific_loss(trace).item()
        assert base >= 0.0
        bumped = make_trace([[[1 - p_out - 0.15, 0.1, p_out + 0.05, 0.0]]], labels=[0],
                            groups=2)
        higher = language_specific_loss(bumped).item()
        assert higher > base


def test_language_loss_sums_not_means():
    # Doubling the token count doubles the loss (no implicit averaging).
    row = [0.5, 0.3, 0.2, 0.0]
    one = language_specific_loss(make_trace([[row]], labels=[0], groups=2))
    four = language_specific_loss(make_trace([[row, row, row, row]], labels=[0, 0, 0, 0],
                                             groups=2))
    assert abs(four.item() - 4 * one.item()) < 1e-12


def test_language_loss_reads_a_padded_slot_as_nothing():
    # the second token has two nonzero entries, so make_trace pads it with
    # expert 2 (out of group 0, logit −inf): that slot adds no penalty
    trace = make_trace([[[0.5, 0.3, 0.2, 0.0], [0.8, 0.2, 0.0, 0.0]]], labels=[0, 0], groups=2)
    assert trace.layers[0].selected.tolist() == [[0, 1, 2], [0, 1, 2]]
    assert abs(language_specific_loss(trace).item() - (-math.log(0.8))) < 1e-9


def test_language_loss_is_finite_with_an_fd_exact_gradient_at_a_saturated_router():
    # out-of-group expert 2 leads the selected logits by a gap of 45, so its
    # routing probability rounds to 1 and log(1 − p) would be log 0
    z0 = np.random.default_rng(0).normal(size=(3, 4))
    z0[:, 2] += 45.0
    sel = np.tile([0, 1, 2], (3, 1))
    mask = np.tile(np.arange(4) < 3, (3, 1))

    def loss_of(z):
        layer = LayerRouting(z, sel, masked_softmax(z, mask))
        trace = RoutingTrace([layer], np.array([0, 0, 1, 1]), np.zeros(3, dtype=np.intp))
        return language_specific_loss(trace)

    z = Parameter("z", Tensor(z0))
    with Tape():
        loss = loss_of(z.value)
        backward(loss)
    assert (masked_softmax(Tensor(z0), mask).data[:, 2] == 1.0).all()
    assert math.isfinite(loss.item()) and loss.item() > 3 * 40.0
    fd = fd_gradient(loss_of, Tensor(z0)).data
    assert np.linalg.norm(z.grad - fd) / np.linalg.norm(fd) < 1e-4


# ----------------------------------------------- intra_group_balance_loss


def test_intra_balance_hand_value_balanced():
    # 1 layer, 1 language, n=2, argmax split 50/50, renormalized mean [.5, .5].
    # Dyadic probabilities keep every intermediate exact.
    rows = [[0.5625, 0.4375], [0.4375, 0.5625]]
    trace = make_trace([rows], labels=[0, 0])
    loss = intra_group_balance_loss(trace)
    assert abs(loss.item() - 0.5) < 1e-12


def test_intra_balance_hand_value_collapsed():
    # All tokens argmax to expert 0 with all mass there: f = P = [1, 0] → 1.0.
    rows = [[1.0, 0.0], [1.0, 0.0]]
    trace = make_trace([rows], labels=[0, 0])
    loss = intra_group_balance_loss(trace)
    assert loss.item() == 1.0


def test_intra_balance_uniform_point_closed_form():
    # m groups each uniform → L·m/n exactly.
    L, m, n = 3, 2, 2
    # Per language: two tokens with dyadic probs averaging to 1/2 per expert,
    # argmaxes split 1/1.
    lang0 = [[0.5625, 0.4375, 0.0, 0.0], [0.4375, 0.5625, 0.0, 0.0]]
    lang1 = [[0.0, 0.0, 0.5625, 0.4375], [0.0, 0.0, 0.4375, 0.5625]]
    rows = lang0 + lang1
    trace = make_trace([rows] * L, labels=[0, 0, 1, 1], groups=m)
    loss = intra_group_balance_loss(trace)
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
        loss = intra_group_balance_loss(trace)
        assert loss.item() >= 0.5 - 1e-12


def test_intra_balance_absent_language_contributes_zero():
    # Only language 0 present in an m=2 world: total is language 0's term.
    rows = [[0.5625, 0.4375, 0.0, 0.0], [0.4375, 0.5625, 0.0, 0.0]]
    trace = make_trace([rows], labels=[0, 0], groups=2)
    loss = intra_group_balance_loss(trace)
    assert abs(loss.item() - 0.5) < 1e-12


def test_intra_balance_skips_tokens_without_in_group_mass():
    # A language-0 token routed entirely out-group has no in-group argmax;
    # it is excluded from f and adds nothing to P.
    rows = [
        [0.5625, 0.4375, 0.0, 0.0],
        [0.4375, 0.5625, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],  # language-0 token, all mass in group 1
    ]
    trace = make_trace([rows], labels=[0, 0, 0], groups=2)
    loss = intra_group_balance_loss(trace)
    # language-0 cell: f = P = [1/2, 1/2] → 0.5; the stray token also creates
    # mass in group 1's columns, but language 1 has no tokens → no group-1 term.
    assert abs(loss.item() - 0.5) < 1e-12


def test_intra_balance_requires_labels():
    trace = make_trace([[[1.0, 0.0, 0.0, 0.0]]], labels=[CS_UNLABELED], groups=2)
    with pytest.raises(ValueError):
        intra_group_balance_loss(trace)


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
        intra = intra_group_balance_loss(make_trace([rows], labels=[0] * 6)).item()
        assert conv == intra


@pytest.mark.parametrize("labels, seed, k", [
    pytest.param(labels, seed, k, id=labels + ("" if k == 2 else "-top3"))
    for seed, k in ((1, 2), (5, 3)) for labels in ("languages", "code-switched", "none")])
def test_conventional_is_intra_over_the_one_group_view(labels, seed, k):
    # value and every router gradient bit-equal; the trace's own groups and
    # labels (concrete, partly unlabeled or absent) play no role
    moe, _, batches = fused_setup(seed, 3, absent=False, k=k)
    feats, langs, _ = batches[0]
    langs = {"languages": langs, "none": None,
             "code-switched": np.where(np.arange(12) % 3 == 0, CS_UNLABELED, langs)}[labels]
    routers = [layer.router_weights for layer in moe.layers]
    results = []
    for loss_fn in (conventional_balance_loss,
                    lambda tr: intra_group_balance_loss(tr.one_group)):
        for p in moe.parameters():
            p.zero_grad()
        with Tape():
            _, trace = moe_forward(moe, Tensor(feats), langs)
            loss = loss_fn(trace)
            backward(loss)
        results.append((loss.item(), [p.grad.copy() for p in routers]))
    (conv, conv_grads), (intra, intra_grads) = results
    assert conv == intra
    for p, a, b in zip(routers, conv_grads, intra_grads):
        assert np.array_equal(a, b), p.name
        assert np.abs(a).max() > 0.0, p.name


# ----------------------------------------------------------- transition_loss


def test_transition_endpoint_is_exactly_target():
    src, tgt = Tensor(2.0), Tensor(4.0)
    out = transition_loss(src, tgt, 4 / 4)
    assert out.item() == 4.0  # bit-exact endpoint


def test_transition_midpoint():
    out = transition_loss(Tensor(2.0), Tensor(4.0), 2 / 4)
    assert abs(out.item() - 3.0) < 1e-15


def test_transition_hand_value():
    out = transition_loss(Tensor(2.0), Tensor(4.0), 1 / 4)
    assert abs(out.item() - 2.5) < 1e-15


def test_transition_gradient_weights():
    src = Parameter("s", Tensor(2.0))
    tgt = Parameter("t", Tensor(4.0))
    with Tape():
        out = transition_loss(src.value, tgt.value, 1 / 4)
        backward(out)
    assert abs(src.grad - 0.75) < 1e-15
    assert abs(tgt.grad - 0.25) < 1e-15


# ------------------------------------------ mixed_transition vs the tape chain


def _mixed_logits(n_src: int, n_tgt: int):
    """Logits of one mixed forward at the default vocabulary, and each half's targets."""
    rng = np.random.default_rng([n_src, n_tgt])
    vocab = ExperimentConfig().target_vocab_size
    logits = rng.normal(scale=4.0, size=(n_src + n_tgt, vocab))
    return logits, rng.integers(0, vocab, size=n_src), rng.integers(0, vocab, size=n_tgt)


# λ = 1/B at a default stage 3's first step, the midpoint, and the last step
FIRST_LAM = 1 / ExperimentConfig().stage_settings(3).total_batches


@pytest.mark.parametrize("lam", [FIRST_LAM, 1 / 2, 1.0], ids=["first", "half", "last"])
@pytest.mark.parametrize("halves", [(96, 96), (4, 4), (12, 36)], ids="{0[0]}-{0[1]}".format)
def test_mixed_transition_equals_its_chain_bit_for_bit(halves, lam):
    # one node for two row takes, two cross-entropies and the blend's mul,
    # mul and add: the same value and halves, and over repeated backward
    # calls on one tape, as grad-check makes them, the same logits gradient,
    # also where a stage objective's weight reaches the node as g != 1
    data, t1, t2 = _mixed_logits(*halves)
    targets, values, grads = np.concatenate([t1, t2]), [], []
    for op in (lambda z: mixed_transition(z, targets, len(t1), lam),
               lambda z: chain_mixed_transition(z, t1, t2, lam)):
        z = Tensor(data.copy(), requires_grad=True)
        with Tape():
            out, ce_src, ce_tgt = op(z)
            weighted = mul(out, 0.75)
        values.append((out.item(), ce_src.item(), ce_tgt.item()))
        grads.append([])
        for loss in (out, weighted, out, weighted):
            z.grad = None
            backward(loss)
            grads[-1].append(z.grad)
    assert values[0] == values[1]
    for fused, chain in zip(*grads):
        assert np.array_equal(fused, chain)
    fused = grads[0]
    assert np.array_equal(fused[0], fused[2]) and np.array_equal(fused[1], fused[3])
    free, ce_src, ce_tgt = mixed_transition(Tensor(data), targets, len(t1), lam)
    assert (free.item(), ce_src, ce_tgt) == values[0]
    assert free._tape is None and not free.requires_grad
    assert not isinstance(ce_src, Tensor) and isinstance(ce_src, float)


@pytest.mark.parametrize("half", ["source", "target"])
def test_mixed_transition_refuses_an_empty_half(half):
    data, t1, t2 = _mixed_logits(4, 4)
    both = np.concatenate([t1, t2])
    with pytest.raises(ValueError, match=f"the {half} half has no rows"):
        mixed_transition(Tensor(data), both, 0 if half == "source" else len(both), 0.5)


# -------------------------------------------------------- compose_stage_loss


UNIT_WEIGHTS = ExperimentConfig(balance_weight=1.0)


def test_compose_without_terms_is_the_core_itself():
    core = Tensor(0.9)
    assert compose_stage_loss(UNIT_WEIGHTS, core, {}) is core


def test_compose_stage2_sum():
    total = compose_stage_loss(UNIT_WEIGHTS, Tensor(1.0),
                               {"lang": Tensor(0.2), "balance": Tensor(0.5)})
    assert abs(total.item() - 1.7) < 1e-15


def test_compose_stage3_sum():
    total = compose_stage_loss(UNIT_WEIGHTS, Tensor(1.3),
                               {"lang": Tensor(0.2), "balance": Tensor(0.5)})
    assert abs(total.item() - 2.0) < 1e-15


def test_compose_stage2_weighted():
    config = ExperimentConfig(lang_weight=2.0, balance_weight=0.5)
    total = compose_stage_loss(config, Tensor(1.0), {"lang": Tensor(0.2), "balance": Tensor(0.5)})
    assert abs(total.item() - 1.65) < 1e-15


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
        return language_specific_loss(trace)

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
        intra_group_balance_loss,
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
# reproduce their values and every parameter gradient bit for bit. The
# conventional term is checked against the intra-group chain on the
# one-group view of the trace.


def chain_intra_group_balance_loss(trace):
    group_of, m = trace.group_of, trace.num_groups
    labels = trace.layout.labels
    total = Tensor(0.0)  # a trace with no cell scores 0
    for l, layer in enumerate(trace.layers):
        wins = trace.in_group_wins()[l]
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
            total = add(total, term)
    return total


def fused_setup(seed, m, absent, k=2, both=False):
    """An m × 3-expert top-k MoE, a decoder and two 12-token batches.

    In the first batch one token routes all k layer-0 picks into one group g
    and is labelled with the next language, so it carries no in-group mass
    there. With ``absent`` that batch's language-g tokens are relabelled the
    same way, so language g has no cell. With ``both`` the language-g tokens
    of both batches are, so g has no cell in the mixed batch 1 + 2 either.
    With ``absent="all"`` no token of the first batch (of either batch, with
    ``both``) selects an expert of its own language at any layer, so no
    language has a cell: the batch is drawn from a pool of tokens that leave
    some group unselected, each labelled with the lowest such group.
    """
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=2)
    mlps = [init_mlp(cfg, seed=[seed, g]) for g in range(m)]
    moe = build_moe_from_pretrained(mlps, n=3, k=k, seed=[seed, 9])
    decoder = init_decoder(4, 7, 2, [seed, 10])
    rng = np.random.default_rng([seed, 11])
    batches = []
    for _ in range(2):
        feats = rng.normal(size=(12, 3))
        batches.append((feats, rng.integers(0, m, size=12), rng.integers(0, 7, size=12)))
    if absent == "all":
        pool = rng.normal(size=(240, 3))
        chosen = np.zeros((240, m), dtype=bool)
        for layer in moe_forward(moe, Tensor(pool))[1].layers:
            chosen[np.arange(240)[:, None], moe.group_of[layer.selected]] = True
        keep = np.flatnonzero(~chosen.all(axis=1))
        assert keep.size >= 24
        for b in range(1 + both):
            rows = keep[12 * b:12 * (b + 1)]
            batches[b] = (pool[rows], (~chosen[rows]).argmax(axis=1), batches[b][2])
        return moe, decoder, batches
    feats, labels, _ = batches[0]
    picked = moe.group_of[moe_forward(moe, Tensor(feats))[1].layers[0].selected]  # [T × k]
    t = int(np.flatnonzero((picked == picked[:, :1]).all(axis=1))[0])
    g = picked[t, 0]
    labels[t] = (g + 1) % m
    if absent or both:
        labels[labels == g] = (g + 1) % m
    if both:
        second = batches[1][1]
        second[second == g] = (g + 1) % m
    return moe, decoder, batches


def composed_step(moe, decoder, config, stage, batches):
    """The step's loss terms and every parameter's gradient, as the loops build them."""
    (f1, l1, t1), (f2, l2, t2) = batches
    params = moe.parameters() + decoder.parameters()
    for p in params:
        p.zero_grad()
    with Tape():
        if stage == 3:
            feats, labels = np.concatenate([f1, f2]), np.concatenate([l1, l2])
            logits, trace = stages._forward(moe, decoder, feats, labels)
            core = transition_loss(cross_entropy(take(logits, np.arange(12)), t1),
                                   cross_entropy(take(logits, np.arange(12, 24)), t2),
                                   1 / 3)
        else:
            logits, trace = stages._forward(moe, decoder, f1, l1)
            core = cross_entropy(logits, t1)
        aux = stages.routing_terms(config, stage, trace)
        total = compose_stage_loss(config, core, aux)
    backward(total)
    values = {name: term.item() for name, term in aux.items()}
    values["total"] = total.item()
    return values, trace, [p.grad.copy() for p in params]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_routing_terms_follow_stage_and_variant(variant, stage):
    moe, _, batches = fused_setup(0, 2, absent=False)
    feats, labels, _ = batches[0]
    _, trace = moe_forward(moe, Tensor(feats), labels)
    terms = stages.routing_terms(ExperimentConfig(variant=variant), stage, trace)
    if stage not in (2, 3) or variant not in ("full", "conventional-balance"):
        assert terms == {}
        return
    assert set(terms) == {"lang", "balance"}
    assert terms["lang"].item() == language_specific_loss(trace).item()
    balance = (conventional_balance_loss(trace) if variant == "conventional-balance"
               else intra_group_balance_loss(trace))
    assert terms["balance"].item() == balance.item()


def use_chain_losses(monkeypatch):
    monkeypatch.setattr(stages, "language_specific_loss", chain_language_specific_loss)
    monkeypatch.setattr(stages, "intra_group_balance_loss", chain_intra_group_balance_loss)
    monkeypatch.setattr(stages, "conventional_balance_loss",
                        lambda trace: chain_intra_group_balance_loss(trace.one_group))


# seed, languages, one language absent from the first batch, top-k; with
# three languages a layer sums up to three balance cells, so their order
# shows, and at top-3 so does the order of each token's three slot terms.
# At top-3 with three languages, seeds 1 and 4 route no token's three picks
# into one group, which fused_setup needs, so those cases draw seeds 5 and 7
SETUPS = [pytest.param(seed, m, absent, k, id=f"{seed}-{m}-{absent}" + ("" if k == 2 else "-top3"))
          for k, seeds in ((2, (0, 1, 3, 4)), (3, (0, 5, 3, 7)))
          for seed, m, absent in zip(seeds, (2, 3, 2, 3), (False, False, True, True))]
# no token routes into its own group, so the balance sums no cell
SETUPS += [pytest.param(1, 3, "all", 2, id="1-3-no-cell"),
           pytest.param(5, 3, "all", 3, id="5-3-no-cell-top3")]


# weights: both terms unscaled, both scaled, and the config's own (1.0, 10.0)
@pytest.mark.parametrize("seed,m,absent,k", SETUPS)
@pytest.mark.parametrize("balance_mode", ["intra", "conventional"])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 2.0), (1.0, 10.0)])
# stage 2 scores the first batch and stage 3 the mixed batch 1 + 2; the last
# case drops one language from both halves, so the stage-3 objective skips its
# balance cells
@pytest.mark.parametrize("stage,both", [(2, False), (3, False), (3, True)],
                         ids=["stage2", "stage3", "stage3-absent-in-both"])
def test_fused_routing_losses_equal_tape_chain_bit_for_bit(
        seed, m, absent, k, balance_mode, weights, stage, both, monkeypatch):
    variant = "conventional-balance" if balance_mode == "conventional" else "full"
    config = ExperimentConfig(num_languages=m, variant=variant,
                              lang_weight=weights[0], balance_weight=weights[1])
    moe, decoder, batches = fused_setup(seed, m, absent, k, both)
    fused, trace, fused_grads = composed_step(moe, decoder, config, stage, batches)
    use_chain_losses(monkeypatch)
    chain, _, chain_grads = composed_step(moe, decoder, config, stage, batches)
    assert fused == chain
    assert len(fused_grads) == len(chain_grads)
    for p, a, b in zip(moe.parameters() + decoder.parameters(), fused_grads, chain_grads):
        assert np.array_equal(a, b), p.name
    if absent == "all":
        if balance_mode == "intra" and (stage == 2 or both):
            # the scored batch has no cell: the term is 0.0 and moves no parameter
            (f1, l1, _), (f2, l2, _) = batches
            feats, labels = (f1, l1) if stage == 2 else (np.concatenate([f1, f2]),
                                                         np.concatenate([l1, l2]))
            for p in moe.parameters():
                p.zero_grad()
            with Tape():
                balance = intra_group_balance_loss(moe_forward(moe, Tensor(feats), labels)[1])
            backward(balance)
            assert fused["balance"] == balance.item() == 0.0
            assert not any(p.grad.any() for p in moe.parameters())
        return
    labels = trace.token_language
    if (absent and stage == 2) or both:
        assert np.unique(labels).size == m - 1
    # some token routes no mass into its own group (balance skips it)
    in_group = moe.group_of[None, :] == labels[:, None]
    assert ((trace.layers[0].probs.data * in_group).sum(axis=1) == 0.0).any()


def test_language_loss_equals_its_chain_bit_for_bit_at_top_8():
    # the composed-step cases route top-2 or top-3; at top-8 the order of
    # the slot sums shows the more, and so does a slot axis that numpy
    # would sum pairwise
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=2)
    moe = build_moe_from_pretrained([init_mlp(cfg, seed=[5, g]) for g in range(3)],
                                    n=3, k=8, seed=[5, 9])
    rng = np.random.default_rng(5)
    feats, labels = rng.normal(size=(24, 3)), rng.integers(0, 3, size=24)
    routers = [layer.router_weights for layer in moe.layers]
    results = []
    for loss_fn in (language_specific_loss, chain_language_specific_loss):
        for p in routers:
            p.zero_grad()
        with Tape():
            _, trace = moe_forward(moe, Tensor(feats), labels)
            loss = loss_fn(trace)
            backward(loss)
        results.append((loss.item(), [p.grad.copy() for p in routers]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert fused == chain
    for p, a, b in zip(routers, fused_grads, chain_grads):
        assert np.array_equal(a, b), p.name


# the composed-step cases score 12- and 24-token batches; training scores 96
# tokens a batch (192 mixed) at the default geometry, m = 2, n = 3, three
# layers, top-3, and with three languages one [m × T] @ [T × N] gemm was seen
# to round a column sum differently from the chain's per-cell product from
# T = 24 on
@pytest.mark.parametrize("m,tokens", [(2, 96), (2, 192), (3, 24), (3, 48), (3, 96)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("view", ["intra", "one-group"])
def test_balance_equals_its_chain_bit_for_bit_at_training_size(m, tokens, seed, view):
    cfg = ProjectorConfig(d_in=16, d_model=32, num_layers=3)
    moe = build_moe_from_pretrained([init_mlp(cfg, seed=[seed, g]) for g in range(m)],
                                    n=3, k=3, seed=[seed, 9])
    rng = np.random.default_rng([seed, m, tokens])
    feats, labels = rng.normal(size=(tokens, 16)), rng.integers(0, m, size=tokens)
    _, trace = moe_forward(moe, Tensor(feats), labels)
    results = []
    for loss_fn in (intra_group_balance_loss, chain_intra_group_balance_loss):
        # each loss on its own leaf copy of the probabilities, so their
        # gradients land in .grad
        leaves = RoutingTrace([LayerRouting(r.logits, r.selected,
                                            Tensor(r.probs.data.copy(), requires_grad=True))
                               for r in trace.layers], trace.group_of, labels)
        with Tape():
            loss = loss_fn(leaves if view == "intra" else leaves.one_group)
            backward(loss)
        results.append((loss.item(), [r.probs.grad for r in leaves.layers]))
    (fused, fused_grads), (chain, chain_grads) = results
    assert fused == chain
    for l, (a, b) in enumerate(zip(fused_grads, chain_grads, strict=True)):
        assert a is not None and a.tobytes() == b.tobytes(), l  # signed zeros included


@pytest.mark.parametrize("loss_name", ["lang", "balance", "conventional"])
def test_routing_loss_call_adds_one_tape_node(loss_name):
    moe, _, batches = fused_setup(0, 2, absent=False)
    feats, labels, _ = batches[0]
    calls = {"lang": language_specific_loss, "balance": intra_group_balance_loss,
             "conventional": conventional_balance_loss}
    with Tape() as tape:
        _, trace = moe_forward(moe, Tensor(feats), labels)
        before = len(tape.nodes)
        calls[loss_name](trace)
        assert len(tape.nodes) == before + 1
