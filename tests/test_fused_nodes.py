"""The MoE layer's expert-mixture node and the decode node against their tape chains.

A MoE layer records its N expert products and their ``mix`` as one node,
and ``decode`` its pooling, add and head as one; ``oracles`` keeps the
op-by-op chains they replace. Over random shapes, a forward and backward
through the fused nodes gives the chain's values and every leaf gradient
bit for bit: the features (the layer-0 input), each expert and router, the
prompt and the head. The routing losses send gradient into the router
logits and probabilities too, as a stage 2-3 objective does, so the nodes'
gradients into ``probs`` and ``h`` meet that gradient in the chain's order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csmoe.autodiff import Tape, Tensor, add, backward, cross_entropy, masked_softmax, matmul, relu
from csmoe.losses import intra_group_balance_loss, language_specific_loss
from csmoe.projector import (
    LayerRouting,
    ProjectorConfig,
    RoutingTrace,
    _topk_rows,
    build_moe_from_pretrained,
    init_mlp,
    moe_forward,
)
from csmoe.world import decode, init_decoder
from oracles import chain_decode, chain_expert_mixture

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=60)
D_IN, D_MODEL, VOCAB, PROMPT = 5, 6, 7, 3


def _model(m, n, k, num_layers, seed):
    """A MoE whose experts differ (copies plus noise) and a decoder, both from ``seed``."""
    config = ProjectorConfig(d_in=D_IN, d_model=D_MODEL, num_layers=num_layers)
    moe = build_moe_from_pretrained([init_mlp(config, seed + g) for g in range(m)], n, k, seed)
    rng = np.random.default_rng(seed)
    for layer in moe.layers:
        for ew in layer.expert_weights:
            ew.value.data += rng.normal(scale=0.3, size=ew.value.data.shape)
    return moe, init_decoder(D_MODEL, VOCAB, PROMPT, seed)


def _chain_forward(moe, x, labels):
    """``moe_forward`` with each layer's experts and mix recorded as the chain."""
    h, records = x, []
    for l, layer in enumerate(moe.layers):
        if l > 0:
            h = relu(h)
        logits = matmul(h, layer.router_weights.value)
        sel = _topk_rows(logits.data, moe.top_k)
        mask = np.zeros(logits.shape, dtype=bool)
        mask[np.arange(sel.shape[0])[:, None], sel] = True
        probs = masked_softmax(logits, mask)
        h = chain_expert_mixture(h, probs, [ew.value for ew in layer.expert_weights])
        records.append(LayerRouting(logits, sel, probs))
    return h, RoutingTrace(records, moe.group_of, labels)


def _run(moe, decoder, x, labels, targets, routing, fused):
    """Bytes of the loss, the projector output, the logits and every leaf gradient."""
    params = moe.parameters() + decoder.parameters()
    for p in params:
        p.zero_grad()
    x.grad = None
    forward, dec = (moe_forward, decode) if fused else (_chain_forward, chain_decode)
    with Tape():
        h, trace = forward(moe, x, labels)
        logits = dec(decoder, h)
        loss = cross_entropy(logits, targets)
        if routing:
            if moe.top_k >= 2:  # the language loss needs two selected experts
                loss = add(loss, language_specific_loss(trace))
            loss = add(loss, intra_group_balance_loss(trace))
        backward(loss)
    arrays = [loss.data, h.data, logits.data, x.grad] + [p.grad for p in params]
    return [None if a is None else a.tobytes() for a in arrays]


def _check(m, n, k, num_layers, tokens, seed, input_grad, routing):
    moe, decoder = _model(m, n, k, num_layers, seed)
    rng = np.random.default_rng([seed, 1])
    x = Tensor(rng.normal(size=(tokens, D_IN)), requires_grad=input_grad)
    labels = rng.integers(0, m, size=tokens)
    targets = rng.integers(0, VOCAB, size=tokens)
    fused = _run(moe, decoder, x, labels, targets, routing, fused=True)
    chain = _run(moe, decoder, x, labels, targets, routing, fused=False)
    assert (fused[3] is None) == (not input_grad)
    assert fused == chain


@st.composite
def shapes(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(1, m * n))
    return (m, n, k, draw(st.integers(1, 3)), draw(st.integers(1, 12)),
            draw(st.integers(0, 2**16)))


@PROPERTIES
@given(shapes(), st.booleans(), st.booleans())
def test_fused_nodes_equal_their_chains_bit_for_bit(shape, input_grad, routing):
    _check(*shape, input_grad=input_grad, routing=routing)


def test_a_layer0_input_without_grad_gets_none_and_the_rest_equals_the_chain():
    _check(2, 3, 2, 3, 16, 5, input_grad=False, routing=False)


def test_routing_loss_gradient_into_logits_and_probs_meets_the_nodes_as_in_the_chain():
    # a stage 2-3 objective: the language loss adds into every layer's logits
    # and the balance loss into its probs before the mixture node runs
    _check(2, 3, 2, 3, 16, 5, input_grad=True, routing=True)
