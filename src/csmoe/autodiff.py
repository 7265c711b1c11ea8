"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: a ``Tape`` records every differentiable operation executed
inside its ``with`` block, and ``backward`` replays the records in reverse to
accumulate gradients into leaf tensors. Outside a tape, the same operations
run as plain numpy evaluation. Everything is 64-bit; there is no broadcasting
beyond scalar operands, so shape mistakes surface as errors.
"""

from __future__ import annotations

import numbers
from typing import Callable, Sequence

import numpy as np

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """Dense float64 array (C-order) with optional gradient recording."""

    __slots__ = ("data", "requires_grad", "node_id", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.node_id: int | None = None
        self.grad: np.ndarray | None = None
        self._tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class _Node:
    __slots__ = ("parents", "backward", "tensor")

    def __init__(self, parents, backward, tensor):
        self.parents = parents  # tuple of node ids (None for grad-free operands)
        self.backward = backward  # None marks a leaf
        self.tensor = tensor


class Tape:
    """Ordered record of forward operations; parents always precede children."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._outer: "Tape | None" = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._outer = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._outer
        return False

    def _leaf_id(self, t: Tensor) -> int:
        if t._tape is not self:
            t._tape = self
            t.node_id = len(self.nodes)
            self.nodes.append(_Node((), None, t))
        return t.node_id


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out.requires_grad = any(p.requires_grad for p in parents)
    tape = _ACTIVE_TAPE
    if tape is None or not out.requires_grad:
        return out
    pids = tuple(tape._leaf_id(p) if p.requires_grad else None for p in parents)
    out._tape = tape
    out.node_id = len(tape.nodes)
    tape.nodes.append(_Node(pids, backward_fn, out))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        if loss.requires_grad:
            if loss.grad is None:
                loss.grad = np.zeros_like(loss.data)
            loss.grad += 1.0
        return
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for nid in range(loss.node_id, -1, -1):
        g = grads.pop(nid, None)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.backward is None:  # leaf
            t = node.tensor
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
            continue
        for pid, pg in zip(node.parents, node.backward(g)):
            if pid is None or pg is None:
                continue
            if pid in grads:
                grads[pid] += pg
            else:
                grads[pid] = np.array(pg)  # own the buffer; views may alias g


class Parameter:
    """Named trainable tensor with an eagerly allocated gradient buffer."""

    def __init__(self, name: str, value: Tensor):
        value.requires_grad = True
        if value.grad is None:
            value.grad = np.zeros_like(value.data)
        self.name = name
        self.value = value

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    def zero_grad(self) -> None:
        self.value.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (numbers.Number, np.ndarray, list, tuple)):
        return Tensor(x)
    raise TypeError(f"cannot use {type(x).__name__} as a tensor operand")


def _fit(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def _binary(a, b, name, fwd, bwd) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.shape != b.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(
            f"{name}: shapes {a.shape} and {b.shape} differ (only scalar operands broadcast)"
        )
    out = Tensor(fwd(a.data, b.data))
    ad, bd, ash, bsh = a.data, b.data, a.shape, b.shape

    def bw(g):
        ga, gb = bwd(g, ad, bd)
        return (_fit(ga, ash), _fit(gb, bsh))

    return _record(out, (a, b), bw)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y, lambda g, x, y: (g, g))


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", lambda x, y: x - y, lambda g, x, y: (g, -g))


def mul(a, b) -> Tensor:
    """Elementwise product; with a scalar operand this is the scale op."""
    return _binary(a, b, "mul", lambda x, y: x * y, lambda g, x, y: (g * y, g * x))


def div(a, b) -> Tensor:
    return _binary(
        a, b, "div", lambda x, y: x / y, lambda g, x, y: (g / y, -g * x / (y * y))
    )


def _unary(x, fwd, bwd) -> Tensor:
    x = _coerce(x)
    out = Tensor(fwd(x.data))
    xd, od = x.data, out.data

    def bw(g):
        return (bwd(g, xd, od),)

    return _record(out, (x,), bw)


def log(x) -> Tensor:
    x = _coerce(x)
    if not (x.data > 0.0).all():
        raise ValueError("log requires strictly positive input")
    return _unary(x, np.log, lambda g, xd, od: g / xd)


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, xd, od: g * od)


def relu(x) -> Tensor:
    return _unary(x, lambda d: np.maximum(d, 0.0), lambda g, xd, od: g * (xd > 0.0))


def tsum(x) -> Tensor:
    """Full reduction to a scalar."""
    x = _coerce(x)
    out = Tensor(x.data.sum())
    shape = x.data.shape

    def bw(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (x,), bw)


def tmean(x) -> Tensor:
    x = _coerce(x)
    n = x.data.size
    out = Tensor(x.data.sum() / n)
    shape = x.data.shape

    def bw(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _record(out, (x,), bw)


def reshape(x, shape) -> Tensor:
    x = _coerce(x)
    out = Tensor(x.data.reshape(shape))
    orig = x.data.shape

    def bw(g):
        return (g.reshape(orig),)

    return _record(out, (x,), bw)


def take(x, indices) -> Tensor:
    """Select rows (2-D) or elements (1-D) by index along the first axis."""
    x = _coerce(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"take indices must be 1-D, got shape {idx.shape}")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"take index out of range for first axis of size {n}")
    out = Tensor(x.data[idx])
    shape = x.data.shape
    unique = np.bincount(idx).max(initial=0) <= 1

    def bw(g):
        buf = np.zeros(shape)
        if unique:
            buf[idx] += g
        else:
            np.add.at(buf, idx, g)
        return (buf,)

    return _record(out, (x,), bw)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [_coerce(t) for t in tensors]
    if not parts:
        raise ValueError("concat of an empty sequence")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    cuts = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.array(piece) for piece in np.split(g, cuts, axis=axis))

    return _record(out, tuple(parts), bw)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (g @ bd.T if need_a else None, ad.T @ g if need_b else None)

    return _record(out, (a, b), bw)


def mix(probs, outputs: Sequence) -> Tensor:
    """Probability-weighted sum Σ_i outputs[i] · probs[:, i] of N [T × d] tensors.

    One tape node for the whole mixture. Terms are added in expert order,
    so an exactly-zero probability drops its term bit for bit, and the
    gradient into outputs[i] is exactly zero on those rows.
    """
    p = _coerce(probs)
    ys = [_coerce(y) for y in outputs]
    if p.data.ndim != 2 or p.shape[1] != len(ys) or not ys:
        raise ValueError(f"mix: probs shape {p.shape} does not match {len(ys)} outputs")
    rows = p.shape[0]
    if any(y.data.ndim != 2 or y.shape != ys[0].shape or y.shape[0] != rows for y in ys):
        raise ValueError(
            f"mix: outputs {[y.shape for y in ys]} must share one [{rows} × d] shape"
        )
    pd, yds = p.data, [y.data for y in ys]
    acc = yds[0] * pd[:, 0, None]
    for i in range(1, len(yds)):
        acc = acc + yds[i] * pd[:, i, None]
    out = Tensor(acc)

    def bw(g):
        gp = np.empty_like(pd)
        for i, yd in enumerate(yds):
            gp[:, i] = (g * yd).sum(axis=1)
        return (gp,) + tuple(g * pd[:, i, None] for i in range(len(yds)))

    return _record(out, (p, *ys), bw)


def masked_softmax(logits, mask: np.ndarray) -> Tensor:
    """Softmax over the True entries of ``mask`` along the last axis.

    Entries outside the mask are exactly zero; each row of the mask must
    select at least one entry. Stabilized by max-subtraction.
    """
    z = _coerce(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != z.shape:
        raise ValueError(f"mask shape {mask.shape} does not match logits shape {z.shape}")
    if not mask.any(axis=-1).all():
        raise ValueError("every row must have a non-empty subset")
    zm = np.where(mask, z.data, -np.inf)
    zm = zm - zm.max(axis=-1, keepdims=True)
    e = np.exp(zm)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _record(out, (z,), bw)


def softmax(logits, subset=None) -> Tensor:
    """Softmax of a 1-D logit vector, optionally restricted to ``subset``.

    Probabilities are normalized over the subset only; entries outside it are
    exactly zero.
    """
    z = _coerce(logits)
    if z.data.ndim != 1:
        raise ValueError(f"softmax expects a 1-D logit vector, got shape {z.shape}")
    n = z.data.shape[0]
    if subset is None:
        mask = np.ones(n, dtype=bool)
    else:
        idx = np.asarray(list(subset), dtype=np.intp)
        if idx.size == 0:
            raise ValueError("softmax subset is empty")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError("softmax subset has duplicate indices")
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"softmax subset index out of range for {n} logits")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
    return masked_softmax(z, mask)


def cross_entropy(logits, targets) -> Tensor:
    """Mean over positions of −log softmax(logits_t)[target_t]."""
    z = _coerce(logits)
    if z.data.ndim != 2:
        raise ValueError(f"cross_entropy expects [T, V] logits, got shape {z.shape}")
    t_count, vocab = z.shape
    tg = np.asarray(targets)
    if tg.ndim != 1 or tg.shape[0] != t_count:
        raise ValueError(f"targets length {tg.shape} does not match {t_count} positions")
    if not np.issubdtype(tg.dtype, np.integer):
        raise ValueError("targets must be integer token ids")
    if tg.size and (tg.min() < 0 or tg.max() >= vocab):
        raise ValueError(f"target id out of range [0, {vocab})")
    zd = z.data
    m = zd.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(zd - m).sum(axis=1))
    losses = lse - zd[np.arange(t_count), tg]
    out = Tensor(losses.mean())

    def bw(g):
        p = np.exp(zd - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(t_count), tg] -= 1.0
        return (p * (g / t_count),)

    return _record(out, (z,), bw)


def fd_gradient(f: Callable[[Tensor], "Tensor | float"], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    base = x.data.copy()
    grad = np.zeros_like(base)

    def evaluate(arr: np.ndarray) -> float:
        r = f(Tensor(arr))
        v = r.item() if isinstance(r, Tensor) else float(r)
        if not np.isfinite(v):
            raise ValueError("fd_gradient: non-finite function evaluation")
        return v

    flat = grad.reshape(-1)
    for i in range(base.size):
        hi = base.copy()
        hi.reshape(-1)[i] += eps
        lo = base.copy()
        lo.reshape(-1)[i] -= eps
        flat[i] = (evaluate(hi) - evaluate(lo)) / (2.0 * eps)
    return Tensor(grad)


class Adam:
    """Adam with bias correction; one moment pair per parameter."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.value.data) for p in self.params]
        self._v = [np.zeros_like(p.value.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.value.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
