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
from csmoe.autodiff import Tensor
from csmoe.losses import conventional_balance_loss, intra_group_balance_loss
from csmoe.projector import (
    CS_UNLABELED,
    ProjectorConfig,
    build_moe_from_pretrained,
    init_mlp,
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
    assert trace.labels is trace.labels
    assert trace.one_group is trace.one_group
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
