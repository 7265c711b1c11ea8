"""Property tests of the routing trace's readers and of MoE routing over random shapes.

Hypothesis draws the layout (m languages, n experts each, top-k, L layers,
T tokens), a concrete label per token and a seed for sparse routing rows
whose entries are small integers over k experts, so exact ties, tokens
without in-group mass and absent languages all turn up. The examples are
derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmoe.analysis import expert_load
from csmoe.autodiff import Tape, Tensor, backward
from csmoe.gradcheck import _batch1
from csmoe.losses import (
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
)
from csmoe.projector import (
    CS_UNLABELED,
    ProjectorConfig,
    RoutingTrace,
    build_moe_from_pretrained,
    init_mlp,
    moe_forward,
    moe_layer,
)
from oracles import make_trace

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def layouts(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    k = draw(st.integers(1, m * n))
    num_layers, tokens = draw(st.integers(1, 3)), draw(st.integers(1, 24))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=tokens, max_size=tokens))
    return m, n, k, num_layers, np.array(labels), draw(st.integers(0, 2**32 - 1))


def sparse_rows(rng, tokens, experts, k):
    """[T × N] rows with k nonzero entries each, small integer weights normalized."""
    rows = np.zeros((tokens, experts))
    for row in rows:
        row[rng.choice(experts, size=k, replace=False)] = rng.integers(1, 4, size=k)
    return rows / rows.sum(axis=1, keepdims=True)


def zero_filled_own_group_probs(probs, labels, m):
    """Each token's probabilities over its group's experts, row by row into zeros."""
    own = np.zeros((len(labels), probs.shape[1] // m))
    for t, j in enumerate(labels):
        own[t] = probs.reshape(len(labels), m, -1)[t, j]
    return own


@PROPERTIES
@given(layouts())
def test_trace_readers_agree_with_their_references(layout):
    m, n, k, num_layers, labels, seed = layout
    rng = np.random.default_rng(seed)
    # int32 labels: a second check would convert them into a new intp array
    trace = make_trace([sparse_rows(rng, len(labels), m * n, k) for _ in range(num_layers)],
                       labels.astype(np.int32), groups=m)
    assert trace.layout is trace.layout
    assert trace.one_group is trace.one_group
    # the view shares the trace's stack, its one group's slice is that stack,
    # and its all-zero labels are read unchecked
    assert trace.one_group.probs is trace.probs
    assert trace.one_group.own_group_probs() is trace.probs
    labels_0 = trace.one_group.layout.labels
    assert labels_0.dtype == np.intp and not labels_0.any()
    for l, layer in enumerate(trace.layers):
        own = trace.own_group_probs()[l]
        want = zero_filled_own_group_probs(layer.probs.data, labels, m)
        assert own.dtype == want.dtype and np.array_equal(own, want)
        wins = trace.in_group_wins()[l]
        for j in range(m):
            counted = (labels == j) & (own.sum(axis=1) > 0.0)
            assert wins[j].sum() == counted.sum()
            assert np.array_equal(wins[j], np.bincount(own[counted].argmax(axis=1), minlength=n))
    assert abs(sum(expert_load(trace)["expert_shares"]) - 1.0) < 1e-12
    assert (conventional_balance_loss(trace).item()
            == intra_group_balance_loss(trace.one_group).item())
    unlabeled = labels.copy()
    unlabeled[rng.integers(len(labels))] = CS_UNLABELED
    with pytest.raises(ValueError, match="unlabeled"):
        make_trace([layer.probs.data for layer in trace.layers], unlabeled,
                   groups=m).in_group_wins()


@PROPERTIES
@given(layouts())
def test_moe_layer_probabilities_are_exactly_zero_off_the_selected_set(layout):
    m, n, k, num_layers, labels, seed = layout
    config = ProjectorConfig(d_in=3, d_model=4, num_layers=num_layers)
    moe = build_moe_from_pretrained([init_mlp(config, [seed, g]) for g in range(m)], n, k,
                                    [seed, m])
    h = Tensor(np.random.default_rng(seed).normal(size=(len(labels), 3)))
    for l in range(num_layers):
        h, record = moe_layer(moe, l, h)
        p = record.probs.data
        selected = np.zeros(p.shape, dtype=bool)
        np.put_along_axis(selected, record.selected, True, axis=1)
        assert (selected.sum(axis=1) == k).all()
        assert np.allclose(np.where(selected, p, 0.0).sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (p[selected] > 0.0).all() and (p[~selected] == 0.0).all()


ROUTING_LOSSES = (language_specific_loss, intra_group_balance_loss, conventional_balance_loss)


def scored(trace, loss):
    """``loss``'s value on ``trace`` and the bytes of its gradient on every record."""
    leaves = [t for record in trace.layers for t in (record.logits, record.probs)]
    for t in leaves:
        t.requires_grad, t.grad = True, None
    with Tape():
        value = loss(trace)
        backward(value)
    return value.item(), [None if t.grad is None else t.grad.tobytes() for t in leaves]


def fresh(trace):
    """A new trace over ``trace``'s records, tokens and groups, with nothing made yet."""
    return RoutingTrace(trace.layers, trace.group_of, trace.token_language)


def routed(layout):
    """An MoE of the drawn layout (top-2 at least, for the language loss), and a
    forward of batch 1, the same tokens moved a little, and the mixed batch 1 + 2."""
    m, n, k, num_layers, labels, seed = layout
    config = ProjectorConfig(d_in=3, d_model=4, num_layers=num_layers)
    moe = build_moe_from_pretrained([init_mlp(config, [seed, g]) for g in range(m)], n,
                                    max(k, 2), [seed, m])
    rng = np.random.default_rng(seed)
    f1, f2 = rng.normal(size=(len(labels), 3)), rng.normal(size=(len(labels), 3))
    moved = f1 + 0.1 * rng.normal(size=f1.shape)
    mixed_labels = np.concatenate([labels, rng.permutation(labels)])
    return [moe_forward(moe, Tensor(feats), batch_labels)[1] for feats, batch_labels in
            ((f1, labels), (moved, labels), (np.concatenate([moved, f2]), mixed_labels))]


@PROPERTIES
@given(layouts())
def test_shared_layouts_score_as_a_fresh_trace_bit_for_bit(layout):
    # a trace made over new records of the same tokens, and batch 1's rows of
    # the mixed forward as the gradient audit reads them, share the layouts
    # that batch 1's trace has made, and score every routing loss, value and
    # gradient, as a new trace over the same records does
    trace1, moved, mixed = routed(layout)
    for loss in ROUTING_LOSSES:
        loss(trace1)
    views = {"over": trace1.over(moved.layers),
             "batch 1 rows": _batch1(mixed, len(layout[4]), trace1)[1]}
    for name, view in views.items():
        assert view.layout is trace1.layout, name
        assert view.one_group.layout is trace1.one_group.layout, name
        for loss in ROUTING_LOSSES:
            assert scored(view, loss) == scored(fresh(view), loss), (name, loss.__name__)


@PROPERTIES
@given(layouts())
def test_an_over_to_another_layer_count_sizes_its_layer_arrays_anew(layout):
    trace1, moved, _ = routed(layout)
    for loss in ROUTING_LOSSES:
        loss(trace1)
    deeper = trace1.over([*moved.layers, moved.layers[0]])
    num_layers, tokens = trace1.num_layers + 1, trace1.num_tokens
    for mine, theirs in ((deeper.layout, trace1.layout),
                         (deeper.one_group.layout, trace1.one_group.layout)):
        assert mine.layers.shape == (num_layers, 1) and mine.cells.shape == (num_layers, tokens)
        assert mine.layers is not theirs.layers and mine.cells is not theirs.cells
    # a trace over no layers yet, as the audit's forwards start, counts no
    # tokens in its one-group view; a trace made over it must not inherit that
    empty = RoutingTrace([], trace1.group_of, trace1.token_language)
    assert empty.layout.cells.shape == (0, tokens) and empty.one_group.num_tokens == 0
    for loss in ROUTING_LOSSES:
        assert scored(deeper, loss) == scored(fresh(deeper), loss), loss.__name__
        grown = empty.over(moved.layers)
        assert scored(grown, loss) == scored(fresh(grown), loss), loss.__name__


@PROPERTIES
@given(layouts(), st.sampled_from(["unlabeled", "out of range"]))
def test_an_over_refuses_the_labels_its_trace_refuses(layout, flaw):
    trace1, moved, _ = routed(layout)
    labels = trace1.token_language.copy()
    labels[np.random.default_rng(layout[-1]).integers(len(labels))] = (
        CS_UNLABELED if flaw == "unlabeled" else trace1.num_groups)
    flawed = RoutingTrace(trace1.layers, trace1.group_of, labels)
    for loss in (language_specific_loss, intra_group_balance_loss):
        with pytest.raises(ValueError) as refused:
            loss(flawed)
        with pytest.raises(ValueError) as refused_over:
            loss(flawed.over(moved.layers))
        assert str(refused_over.value) == str(refused.value)
        assert flaw.split()[-1] in str(refused.value)
    # the one-group view reads no label
    assert (scored(flawed.over(moved.layers), conventional_balance_loss)
            == scored(fresh(moved), conventional_balance_loss))
