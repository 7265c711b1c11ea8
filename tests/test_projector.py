"""Tests for the MLP and grouped-MoE projectors.

Oracles: hand-composed matmul/relu chains, dense-softmax enumeration of the
mixture, per-token replay of the batched forward, and finite differences.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csmoe.autodiff import Parameter, Tape, Tensor, backward, fd_gradient, tsum
from csmoe.projector import (
    MoeProjector,
    ProjectorConfig,
    build_moe_from_pretrained,
    init_mlp,
    mlp_forward,
    moe_forward,
    moe_layer_forward,
    route,
)


def tiny_moe(seed=0, m=2, n=2, k=2, d_in=3, d_model=4, L=2):
    cfg = ProjectorConfig(d_in=d_in, d_model=d_model, num_layers=L)
    mlps = [init_mlp(cfg, seed=seed + g) for g in range(m)]
    return build_moe_from_pretrained(mlps, n=n, k=k, seed=seed + 100)


# ---------------------------------------------------------------- init_mlp


def test_init_mlp_deterministic():
    cfg = ProjectorConfig(d_in=4, d_model=8, num_layers=3)
    a, b = init_mlp(cfg, seed=3), init_mlp(cfg, seed=3)
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa.value.data, wb.value.data)


def test_init_mlp_seeds_differ():
    cfg = ProjectorConfig(d_in=4, d_model=8, num_layers=3)
    a, b = init_mlp(cfg, seed=3), init_mlp(cfg, seed=4)
    assert any(
        not np.array_equal(wa.value.data, wb.value.data)
        for wa, wb in zip(a.layers, b.layers)
    )


def test_init_mlp_layer_shapes():
    cfg = ProjectorConfig(d_in=4, d_model=8, num_layers=3)
    proj = init_mlp(cfg, seed=0)
    assert [w.value.shape for w in proj.layers] == [(4, 8), (8, 8), (8, 8)]


def test_init_mlp_glorot_bound():
    cfg = ProjectorConfig(d_in=4, d_model=8, num_layers=1)
    w = init_mlp(cfg, seed=1).layers[0].value.data
    bound = np.sqrt(6.0 / (4 + 8))
    assert np.abs(w).max() <= bound


def test_projector_config_validation():
    with pytest.raises(ValueError):
        ProjectorConfig(d_in=0, d_model=8, num_layers=3)
    with pytest.raises(ValueError):
        ProjectorConfig(d_in=4, d_model=8, num_layers=0)


# ------------------------------------------------------------- mlp_forward


def test_mlp_forward_zero_features_zero_output():
    cfg = ProjectorConfig(d_in=4, d_model=8, num_layers=3)
    proj = init_mlp(cfg, seed=0)
    out = mlp_forward(proj, Tensor(np.zeros((5, 4))))
    assert_allclose(out.data, np.zeros((5, 8)), rtol=0, atol=0)


def test_mlp_forward_single_layer_is_one_matmul():
    cfg = ProjectorConfig(d_in=4, d_model=6, num_layers=1)
    proj = init_mlp(cfg, seed=2)
    x = np.random.default_rng(0).normal(size=(3, 4))
    out = mlp_forward(proj, Tensor(x))
    assert np.array_equal(out.data, x @ proj.layers[0].value.data)


def test_mlp_forward_matches_hand_composition():
    cfg = ProjectorConfig(d_in=4, d_model=6, num_layers=3)
    proj = init_mlp(cfg, seed=2)
    x = np.random.default_rng(1).normal(size=(5, 4))
    h = x
    for w in proj.layers[:-1]:
        h = np.maximum(h @ w.value.data, 0.0)
    h = h @ proj.layers[-1].value.data
    assert_allclose(mlp_forward(proj, Tensor(x)).data, h, rtol=1e-15)


def test_mlp_forward_width_mismatch():
    cfg = ProjectorConfig(d_in=4, d_model=6, num_layers=2)
    proj = init_mlp(cfg, seed=2)
    with pytest.raises(ValueError):
        mlp_forward(proj, Tensor(np.zeros((3, 5))))


# ------------------------------------------------- build_moe_from_pretrained


def test_build_moe_layout():
    moe = tiny_moe(m=2, n=3, k=3)
    assert moe.total_experts == 6
    assert moe.group_of.tolist() == [0, 0, 0, 1, 1, 1]


def test_build_moe_replicates_group_weights_bit_exactly():
    moe = tiny_moe(m=2, n=3, k=2)
    for layer in moe.layers:
        for g in range(2):
            first = layer.expert_weights[g * 3].value.data
            for j in range(1, 3):
                assert np.array_equal(first, layer.expert_weights[g * 3 + j].value.data)


def test_build_moe_copies_pretrained_layers():
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=2)
    mlps = [init_mlp(cfg, seed=g) for g in range(2)]
    moe = build_moe_from_pretrained(mlps, n=2, k=2, seed=9)
    for l, layer in enumerate(moe.layers):
        assert np.array_equal(layer.expert_weights[0].value.data, mlps[0].layers[l].value.data)
        assert np.array_equal(layer.expert_weights[2].value.data, mlps[1].layers[l].value.data)


def test_build_moe_default_geometry():
    # m=2 languages, n=3 experts per group, top-3 routing.
    moe = tiny_moe(m=2, n=3, k=3)
    assert (moe.total_experts, moe.top_k) == (6, 3)


def test_build_moe_rejects_heterogeneous_configs():
    a = init_mlp(ProjectorConfig(d_in=3, d_model=4, num_layers=2), seed=0)
    b = init_mlp(ProjectorConfig(d_in=3, d_model=5, num_layers=2), seed=0)
    with pytest.raises(ValueError):
        build_moe_from_pretrained([a, b], n=2, k=1, seed=0)


def test_build_moe_router_deterministic():
    a = tiny_moe(seed=5)
    b = tiny_moe(seed=5)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.router_weights.value.data, lb.router_weights.value.data)


# ------------------------------------------------------------------- route


def test_route_tie_break_toward_lower_index():
    moe = tiny_moe(m=2, n=2, k=2, d_in=3)
    layer = moe.layers[0]
    layer.router_weights.value.data[...] = 0.0  # all logits equal
    idx, probs = route(layer, Tensor([1.0, 2.0, 3.0]), k=2)
    assert idx.tolist() == [0, 1]
    assert_allclose(probs.data, [0.5, 0.5, 0.0, 0.0], rtol=0, atol=0)


def test_route_subset_closed_form():
    moe = tiny_moe(m=2, n=2, k=2, d_in=2)
    layer = moe.layers[0]
    # Craft router so logits([1, 0]) = [ln 1, ln 3, -50, -50].
    layer.router_weights.value.data[...] = 0.0
    layer.router_weights.value.data[0, :] = [np.log(1.0), np.log(3.0), -50.0, -50.0]
    idx, probs = route(layer, Tensor([1.0, 0.0]), k=2)
    assert idx.tolist() == [0, 1]
    assert_allclose(probs.data, [0.25, 0.75, 0.0, 0.0], atol=1e-15)


def test_route_k_equals_n_matches_dense_softmax():
    rng = np.random.default_rng(4)
    moe = tiny_moe(m=2, n=3, k=6, d_in=5)
    layer = moe.layers[0]
    for _ in range(10):
        h = rng.normal(size=5)
        idx, probs = route(layer, Tensor(h), k=6)
        z = h @ layer.router_weights.value.data
        dense = np.exp(z) / np.exp(z).sum()
        assert np.abs(probs.data - dense).max() < 1e-12
        assert sorted(idx.tolist()) == list(range(6))


def test_route_k_out_of_range():
    moe = tiny_moe(m=2, n=2, k=2)
    with pytest.raises(ValueError):
        route(moe.layers[0], Tensor([1.0, 0.0, 0.0]), k=5)
    with pytest.raises(ValueError):
        route(moe.layers[0], Tensor([1.0, 0.0, 0.0]), k=0)


def test_route_repeat_determinism():
    moe = tiny_moe(m=2, n=3, k=3, d_in=4)
    h = Tensor(np.random.default_rng(8).normal(size=4))
    a_idx, a_p = route(moe.layers[0], h, k=3)
    b_idx, b_p = route(moe.layers[0], h, k=3)
    assert np.array_equal(a_idx, b_idx)
    assert np.array_equal(a_p.data, b_p.data)


# ------------------------------------------------------- moe_layer_forward


def test_moe_layer_forward_k1_equals_argmax_expert_exactly():
    moe = tiny_moe(m=2, n=2, k=1, d_in=3, d_model=4)
    layer = moe.layers[0]
    h = np.random.default_rng(3).normal(size=3)
    out, (idx, probs) = moe_layer_forward(layer, Tensor(h), k=1)
    winner = idx[0]
    expected = h @ layer.expert_weights[winner].value.data
    assert np.array_equal(out.data, expected)
    assert probs.data[winner] == 1.0


def test_moe_layer_forward_identical_group_equals_mlp_layer():
    # At stage-2 init all experts of a group share weights; if the selected
    # set stays inside one group the mixture equals that group's MLP layer.
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=1)
    mlps = [init_mlp(cfg, seed=g) for g in range(2)]
    moe = build_moe_from_pretrained(mlps, n=3, k=2, seed=1)
    layer = moe.layers[0]
    # Force selection into group 0 by biasing router columns (h has a
    # positive sum, so in-group logits dominate).
    layer.router_weights.value.data[:, :3] = 5.0
    layer.router_weights.value.data[:, 3:] = -5.0
    h = np.abs(np.random.default_rng(9).normal(size=3)) + 0.1
    out, (idx, _) = moe_layer_forward(layer, Tensor(h), k=2)
    assert set(idx.tolist()) <= {0, 1, 2}
    assert_allclose(out.data, h @ mlps[0].layers[0].value.data, rtol=1e-12, atol=1e-12)


def test_moe_layer_forward_k_equals_n_matches_dense_enumeration():
    moe = tiny_moe(m=2, n=2, k=4, d_in=3, d_model=4)
    layer = moe.layers[0]
    h = np.random.default_rng(5).normal(size=3)
    out, _ = moe_layer_forward(layer, Tensor(h), k=4)
    z = h @ layer.router_weights.value.data
    p = np.exp(z) / np.exp(z).sum()
    dense = sum(p[i] * (h @ layer.expert_weights[i].value.data) for i in range(4))
    assert_allclose(out.data, dense, rtol=1e-12)


# ------------------------------------------------------------- moe_forward


def test_moe_forward_degenerates_to_mlp_bit_exactly():
    cfg = ProjectorConfig(d_in=3, d_model=4, num_layers=3)
    mlp = init_mlp(cfg, seed=7)
    moe = build_moe_from_pretrained([mlp], n=1, k=1, seed=0)
    x = np.random.default_rng(2).normal(size=(6, 3))
    moe_out, _ = moe_forward(moe, Tensor(x))
    mlp_out = mlp_forward(mlp, Tensor(x))
    assert np.array_equal(moe_out.data, mlp_out.data)


def test_moe_forward_trace_contract():
    moe = tiny_moe(m=2, n=3, k=3, d_in=3, d_model=4, L=2)
    x = np.random.default_rng(0).normal(size=(5, 3))
    _, trace = moe_forward(moe, Tensor(x))
    assert trace.num_layers == 2
    assert trace.num_tokens == 5
    for lr in trace.layers:
        assert lr.selected.shape == (5, 3)
        p = lr.probs.data
        assert p.shape == (5, 6)
        for t in range(5):
            sel = lr.selected[t]
            assert len(set(sel.tolist())) == 3
            assert abs(p[t, sel].sum() - 1.0) < 1e-9
            assert (p[t, sel] > 0.0).all()
            off = np.setdiff1d(np.arange(6), sel)
            assert (p[t, off] == 0.0).all()


def test_moe_forward_matches_per_token_replay():
    from csmoe.autodiff import relu

    moe = tiny_moe(m=2, n=2, k=2, d_in=3, d_model=4, L=3)
    x = np.random.default_rng(6).normal(size=(5, 3))
    out, trace = moe_forward(moe, Tensor(x))

    for t in range(5):
        h = Tensor(x[t])
        for l, layer in enumerate(moe.layers):
            idx, probs = route(layer, h, k=2)
            assert np.array_equal(idx, trace.layers[l].selected[t])
            assert_allclose(probs.data, trace.layers[l].probs.data[t], rtol=1e-12, atol=1e-14)
            h, _ = moe_layer_forward(layer, h, k=2)
            if l < 2:
                h = relu(h)
        assert_allclose(out.data[t], h.data, rtol=1e-12, atol=1e-14)


def test_moe_forward_group_symmetry_at_init():
    # Swapping two same-group experts and their router columns right after
    # the build leaves the forward output unchanged.
    moe = tiny_moe(m=2, n=3, k=3, d_in=3, d_model=4, L=2)
    x = np.random.default_rng(11).normal(size=(7, 3))
    base, _ = moe_forward(moe, Tensor(x))

    a, b = 3, 5  # both in group 1
    for layer in moe.layers:
        ew = layer.expert_weights
        ew[a], ew[b] = ew[b], ew[a]
        w = layer.router_weights.value.data
        w[:, [a, b]] = w[:, [b, a]]

    swapped, _ = moe_forward(moe, Tensor(x))
    assert_allclose(swapped.data, base.data, rtol=0, atol=1e-12)


def test_moe_forward_gradient_sparsity():
    # Single-token forward: every non-selected expert weight grad is exactly 0.
    moe = tiny_moe(m=2, n=2, k=2, d_in=3, d_model=4, L=2)
    x = np.random.default_rng(0).normal(size=(1, 3))
    with Tape():
        out, trace = moe_forward(moe, Tensor(x))
        backward(tsum(out))

    selected_per_layer = [set(lr.selected[0].tolist()) for lr in trace.layers]
    for l, layer in enumerate(moe.layers):
        for i, ew in enumerate(layer.expert_weights):
            if i not in selected_per_layer[l]:
                assert (ew.grad == 0.0).all(), f"layer {l} expert {i}"
            else:
                assert (ew.grad != 0.0).any()


@pytest.mark.parametrize("m,n,L", [(2, 2, 2), (2, 3, 3), (3, 1, 1)])
def test_moe_forward_tape_nodes_per_layer(m, n, L):
    # Per layer: router matmul, masked_softmax, N expert matmuls, one mix;
    # plus one relu between consecutive layers.
    moe = tiny_moe(m=m, n=n, k=2, d_in=3, d_model=4, L=L)
    x = np.random.default_rng(0).normal(size=(5, 3))
    with Tape() as tape:
        moe_forward(moe, Tensor(x))
    ops = sum(node.backward is not None for node in tape.nodes)
    assert ops == L * (m * n + 3) + (L - 1)


def test_moe_forward_width_mismatch():
    moe = tiny_moe(d_in=3)
    with pytest.raises(ValueError):
        moe_forward(moe, Tensor(np.zeros((2, 5))))


def test_composed_moe_loss_gradient_vs_fd():
    # Full backward through router + experts vs central differences.
    moe = tiny_moe(seed=21, m=2, n=2, k=2, d_in=3, d_model=4, L=2)
    x = np.random.default_rng(17).normal(size=(3, 3))

    def loss_value():
        out, _ = moe_forward(moe, Tensor(x))
        return tsum(out)

    params = moe.parameters()
    with Tape():
        backward(loss_value())

    for p in params:
        def f(t, _p=p):
            old = _p.value.data.copy()
            _p.value.data[...] = t.data
            try:
                return loss_value()
            finally:
                _p.value.data[...] = old

        fd = fd_gradient(f, Tensor(p.value.data.copy()), eps=1e-5).data
        denom = max(np.linalg.norm(fd), np.linalg.norm(p.grad), 1e-12)
        assert np.linalg.norm(p.grad - fd) / denom < 1e-5, p.name
