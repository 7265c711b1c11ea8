"""Tests for the reverse-mode autodiff core.

Oracles: hand-differentiated closed forms, naive reimplementations of
softmax/cross-entropy, the per-expert col/scale_rows/add chain that ``mix``
fuses, and central finite differences.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csmoe.autodiff import (
    Adam,
    Parameter,
    Tape,
    Tensor,
    add,
    _record,
    backward,
    concat,
    cross_entropy,
    div,
    exp,
    fd_gradient,
    log,
    matmul,
    mix,
    mul,
    relu,
    reshape,
    softmax,
    sub,
    take,
    tmean,
    tsum,
)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_annihilating_product():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[0.0, 0.0], [0.0, 1.0]])
    assert_allclose(matmul(a, b).data, np.zeros((2, 2)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    w = Parameter("a", Tensor(a0))
    with Tape():
        loss = tsum(matmul(w.value, Tensor(b0)))
        backward(loss)

    fd = fd_gradient(lambda t: tsum(matmul(t, Tensor(b0))), Tensor(a0), eps=1e-5)
    rel = np.abs(w.grad - fd.data).max() / np.abs(fd.data).max()
    assert rel < 1e-6


def test_relu_sign_cases():
    assert_allclose(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_concat_is_sequence_concatenation():
    out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
    assert_allclose(out.data, [1.0, 2.0, 3.0])


def test_grad_of_mean_relu():
    # d/dx mean(relu(x)) at [-1, 2] is [0, 0.5] by hand differentiation.
    w = Parameter("x", Tensor([-1.0, 2.0]))
    with Tape():
        backward(tmean(relu(w.value)))
    assert_allclose(w.grad, [0.0, 0.5])


def test_elementwise_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_scalar_operands_allowed():
    x = Tensor([1.0, -2.0])
    assert_allclose(mul(x, 3.0).data, [3.0, -6.0])
    assert_allclose(add(x, 1.0).data, [2.0, -1.0])
    assert_allclose(sub(1.0, x).data, [0.0, 3.0])


def test_log_domain_error():
    with pytest.raises(ValueError, match="positive"):
        log(Tensor([1.0, 0.0]))


def test_softmax_symmetry():
    assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_subset_closed_form():
    logits = Tensor([math.log(1.0), math.log(3.0), math.log(100.0)])
    out = softmax(logits, subset=[0, 1])
    assert_allclose(out.data, [0.25, 0.75, 0.0], atol=1e-15)
    assert out.data[2] == 0.0  # exactly zero off-subset


def test_softmax_matches_naive_formula():
    rng = np.random.default_rng(7)
    z = rng.normal(size=8)
    out = softmax(Tensor(z)).data
    naive = np.exp(z) / np.exp(z).sum()
    assert abs(out.sum() - 1.0) < 1e-12
    assert_allclose(out, naive, rtol=1e-12)


def test_softmax_empty_subset_rejected():
    with pytest.raises(ValueError, match="subset"):
        softmax(Tensor([1.0, 2.0]), subset=[])


def test_softmax_duplicate_subset_rejected():
    with pytest.raises(ValueError):
        softmax(Tensor([1.0, 2.0, 3.0]), subset=[1, 1])


def test_softmax_stable_for_huge_logits():
    out = softmax(Tensor([1000.0, 1000.0])).data
    assert np.isfinite(out).all()
    assert_allclose(out, [0.5, 0.5])


def test_cross_entropy_uniform_prediction():
    ce = cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert abs(ce.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_near_one_hot_correct():
    ce = cross_entropy(Tensor([[1000.0, 0.0]]), [0])
    assert ce.item() < 1e-9


def test_cross_entropy_matches_per_position_oracle():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 6))
    targets = rng.integers(0, 6, size=4)
    ce = cross_entropy(Tensor(z), targets).item()

    total = 0.0
    for t in range(4):
        p = np.exp(z[t]) / np.exp(z[t]).sum()
        total += -math.log(p[targets[t]])
    assert abs(ce - total / 4.0) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError, match="target"):
        cross_entropy(Tensor([[0.0, 0.0]]), [2])


def test_backward_linear_case():
    w = Parameter("w", Tensor([1.0, 2.0, 3.0]))
    with Tape():
        backward(tsum(w.value))
    assert_allclose(w.grad, [1.0, 1.0, 1.0])


def test_backward_unreachable_parameter_keeps_zero_grad():
    w = Parameter("w", Tensor([1.0, 2.0, 3.0]))
    u = Parameter("u", Tensor([5.0]))
    with Tape():
        backward(tsum(w.value))
    assert_allclose(u.grad, [0.0])


def test_backward_rejects_non_scalar():
    w = Parameter("w", Tensor([1.0, 2.0]))
    with Tape():
        y = mul(w.value, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)


def test_backward_twice_accumulates_exactly_double():
    w = Parameter("w", Tensor([[0.3, -1.2], [0.7, 2.0]]))
    with Tape():
        loss = tsum(relu(mul(w.value, w.value)))
        backward(loss)
        once = w.grad.copy()
        backward(loss)
    assert_allclose(w.grad, 2.0 * once, rtol=0, atol=0)


def test_empty_tape_backward_is_noop():
    # A loss that is just a constant leaf: nothing to propagate.
    with Tape():
        c = Tensor(2.5, requires_grad=True)
        backward(tsum(c))  # must not raise


def test_fd_gradient_quadratic():
    fd = fd_gradient(lambda t: mul(t, t), Tensor(3.0), eps=1e-5)
    assert abs(fd.item() - 6.0) < 1e-6


def test_fd_gradient_constant():
    fd = fd_gradient(lambda t: Tensor(1.0), Tensor([1.0, 2.0]), eps=1e-5)
    assert_allclose(fd.data, [0.0, 0.0])


def test_fd_gradient_requires_positive_eps():
    with pytest.raises(ValueError):
        fd_gradient(lambda t: tsum(t), Tensor([1.0]), eps=0.0)


def test_fd_gradient_rejects_nonfinite_evaluation():
    def f(t):
        return log(t)  # goes non-finite... log validates, so use raw inf

    with pytest.raises(ValueError):
        fd_gradient(lambda t: Tensor(float("nan")), Tensor([1.0]), eps=1e-5)


def test_cross_entropy_backward_matches_fd():
    rng = np.random.default_rng(11)
    z0 = rng.normal(size=(3, 5))
    targets = [0, 4, 2]

    w = Parameter("z", Tensor(z0))
    with Tape():
        backward(cross_entropy(w.value, targets))

    fd = fd_gradient(lambda t: cross_entropy(t, targets), Tensor(z0), eps=1e-5)
    rel = np.linalg.norm(w.grad - fd.data) / np.linalg.norm(fd.data)
    assert rel < 1e-5


@pytest.mark.parametrize("seed", range(20))
def test_backward_matches_fd_on_random_compositions(seed):
    """Composite forward touching every differentiable op family."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(3, 4))
    y0 = rng.normal(size=(4, 3))

    def forward(t):
        h = matmul(t, Tensor(y0))
        h = relu(h)
        h = add(h, 0.5)
        h = mul(h, h)
        h = div(h, add(tsum(exp(mul(t, 0.1))), 1.0))
        a = log(add(mul(h, h), 1.0))
        b = concat([reshape(a, (9,)), take(reshape(h, (9,)), np.array([0, 4]))], axis=0)
        return tmean(b)

    w = Parameter("x", Tensor(x0))
    with Tape():
        backward(forward(w.value))

    fd = fd_gradient(forward, Tensor(x0), eps=1e-5)
    rel = np.linalg.norm(w.grad - fd.data) / max(np.linalg.norm(fd.data), 1e-12)
    assert rel < 1e-4


def test_take_accumulates_duplicate_indices():
    w = Parameter("x", Tensor([1.0, 2.0, 3.0]))
    with Tape():
        backward(tsum(take(w.value, np.array([1, 1, 2]))))
    assert_allclose(w.grad, [0.0, 2.0, 1.0])


def test_take_unique_indices_gradient_scatters_once():
    w = Parameter("x", Tensor(np.arange(12.0).reshape(4, 3)))
    g = np.arange(6.0).reshape(2, 3) - 2.5
    with Tape():
        backward(tsum(mul(take(w.value, np.array([3, 0])), Tensor(g))))
    expected = np.zeros((4, 3))
    np.add.at(expected, np.array([3, 0]), g)
    assert np.array_equal(w.grad, expected)


def test_matmul_skips_gradient_of_constant_operand():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Parameter("w", Tensor(rng.normal(size=(4, 2))))
    with Tape():
        backward(tsum(matmul(x, w.value)))
    assert x.grad is None
    assert np.array_equal(w.grad, x.data.T @ np.ones((3, 2)))


# ------------------------------------------------------------------- mix


def _mix_instance(seed=0, tokens=8, experts=6, width=5):
    """Random sparse probabilities (two exact zeros per row) and expert outputs."""
    rng = np.random.default_rng(seed)
    p = rng.random((tokens, experts))
    for t in range(tokens):
        p[t, rng.choice(experts, size=2, replace=False)] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    ys = [rng.normal(size=(tokens, width)) for _ in range(experts)]
    return p, ys


def _mix_grads(combine, p0, ys0, weights):
    p = Parameter("p", Tensor(p0))
    ys = [Parameter(f"y{i}", Tensor(y)) for i, y in enumerate(ys0)]
    with Tape():
        out = combine(p.value, [y.value for y in ys])
        backward(tsum(mul(out, Tensor(weights))))
    return out.data, p.grad, [y.grad for y in ys]


def _col(x, j):
    """Column j of a 2-D tensor as a 1-D tape op (the oracle chain's gather)."""
    out = Tensor(x.data[:, j])
    shape = x.data.shape

    def bw(g):
        buf = np.zeros(shape)
        buf[:, j] = g
        return (buf,)

    return _record(out, (x,), bw)


def _scale_rows(x, s):
    """Row t of x times s[t] as a tape op (the oracle chain's product)."""
    out = Tensor(x.data * s.data[:, None])
    xd, sd = x.data, s.data

    def bw(g):
        return (g * sd[:, None], (g * xd).sum(axis=1))

    return _record(out, (x, s), bw)


def _chain(p, ys):
    """The per-expert col / scale_rows / add chain that mix replaces."""
    out = None
    for i, y in enumerate(ys):
        term = _scale_rows(y, _col(p, i))
        out = term if out is None else add(out, term)
    return out


def test_mix_is_bit_equal_to_scale_rows_add_chain():
    p0, ys0 = _mix_instance()
    weights = np.random.default_rng(1).normal(size=ys0[0].shape)
    out_a, gp_a, gys_a = _mix_grads(mix, p0, ys0, weights)
    out_b, gp_b, gys_b = _mix_grads(_chain, p0, ys0, weights)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(gp_a, gp_b)
    for ga, gb in zip(gys_a, gys_b):
        assert np.array_equal(ga, gb)


def test_mix_gradient_vs_finite_differences():
    p0, ys0 = _mix_instance(seed=2)
    weights = np.random.default_rng(3).normal(size=ys0[0].shape)
    _, gp, gys = _mix_grads(mix, p0, ys0, weights)

    def loss_of_p(t):
        return tsum(mul(mix(t, [Tensor(y) for y in ys0]), Tensor(weights)))

    fd = fd_gradient(loss_of_p, Tensor(p0), eps=1e-5)
    assert np.linalg.norm(gp - fd.data) / np.linalg.norm(fd.data) < 1e-4
    for i in range(len(ys0)):
        def loss_of_y(t, i=i):
            parts = [t if j == i else Tensor(y) for j, y in enumerate(ys0)]
            return tsum(mul(mix(Tensor(p0), parts), Tensor(weights)))

        fd = fd_gradient(loss_of_y, Tensor(ys0[i]), eps=1e-5)
        assert np.linalg.norm(gys[i] - fd.data) / np.linalg.norm(fd.data) < 1e-4


def test_mix_zero_probability_rows_get_exactly_zero_gradient():
    p0, ys0 = _mix_instance(seed=4)
    weights = np.random.default_rng(5).normal(size=ys0[0].shape)
    _, _, gys = _mix_grads(mix, p0, ys0, weights)
    for i, g in enumerate(gys):
        zero_rows = p0[:, i] == 0.0
        assert zero_rows.any()
        assert np.all(g[zero_rows] == 0.0)
        assert np.all(g[~zero_rows] != 0.0)


def test_mix_rejects_mismatched_shapes():
    p0, ys0 = _mix_instance()
    with pytest.raises(ValueError):
        mix(p0, ys0[:-1])  # one output too few for the probability columns
    with pytest.raises(ValueError):
        mix(p0, ys0[:-1] + [ys0[-1][:, :2]])  # widths differ
    with pytest.raises(ValueError):
        mix(p0[:-1], ys0)  # token counts differ
    with pytest.raises(ValueError):
        mix(p0[:, 0], ys0[:1])  # probabilities must be [T × N]


def test_adam_zero_grad_leaves_value_unchanged():
    p = Parameter("w", Tensor([1.0, 2.0]))
    opt = Adam([p])
    before = p.value.data.copy()
    opt.step()
    assert_allclose(p.value.data, before, rtol=0, atol=0)


def test_adam_first_step_magnitude_is_lr():
    # Bias-corrected Adam with constant gradient g: first update is
    # -lr * g / (|g| + eps') ≈ -lr * sign(g).
    p = Parameter("w", Tensor([1.0]))
    opt = Adam([p], lr=1e-3)
    p.grad[:] = 0.37
    opt.step()
    assert abs((1.0 - p.value.data[0]) - 1e-3) < 1e-6


def test_adam_deterministic_across_runs():
    def run():
        p = Parameter("w", Tensor([1.0, -2.0, 0.5]))
        opt = Adam([p], lr=1e-2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p.zero_grad()
            p.grad[:] = rng.normal(size=3)
            opt.step()
        return p.value.data.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_parameter_zero_grad():
    p = Parameter("w", Tensor([1.0, 2.0]))
    p.grad[:] = 5.0
    p.zero_grad()
    assert_allclose(p.grad, [0.0, 0.0])
    assert p.grad.shape == p.value.data.shape


def test_no_tape_means_plain_evaluation():
    # Ops outside a Tape context still compute values (evaluation mode).
    out = relu(add(Tensor([1.0, -1.0]), 1.0))
    assert_allclose(out.data, [2.0, 0.0])
    assert out.node_id is None


def test_forward_values_finite_on_finite_inputs():
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.normal(scale=50.0, size=6)
        assert np.isfinite(softmax(Tensor(z)).data).all()
        assert np.isfinite(cross_entropy(Tensor(z[None, :]), [0]).data).all()
