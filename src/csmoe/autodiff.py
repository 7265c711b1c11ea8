"""Reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: a ``Tape`` records every differentiable operation executed
inside its ``with`` block, and ``backward`` replays the records in reverse to
accumulate gradients into leaf tensors. Outside a tape, the same operations
run as plain numpy evaluation: they record nothing and pay only for their
arithmetic and their input checks, and ``backward`` refuses a loss that
requires grad but that no tape recorded. Inside ``untaped()`` ops record
nothing even under a tape, so a fused node can make its forward from these
ops and record one node of its own. Everything is 64-bit; there is no
broadcasting beyond scalar operands, so shape mistakes surface as errors.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """Dense float64 array (C-order) with optional gradient recording."""

    __slots__ = ("data", "requires_grad", "node_id", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        # a float64, C-contiguous, at-least-1-D array is kept as it is: the
        # conversion below would return that same object
        if (type(data) is np.ndarray and data.dtype == np.float64 and data.ndim
                and data.flags.c_contiguous):
            self.data = data
        else:
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
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("parents", "backward", "tensor")

    def __init__(self, parents, backward, tensor):
        self.parents = parents  # tuple of node ids (None for grad-free operands)
        self.backward = backward  # None marks a leaf
        self.tensor = tensor  # leaves only; None on op nodes


class Tape:
    """Ordered record of forward operations; parents always precede children.

    Op outputs carry their tape and node id. Leaves are looked up by identity
    in the tape's own table and carry nothing, so a parameter never refers
    back to a tape: a finished tape is freed by refcount alone.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._leaves: dict[int, int] = {}  # id(leaf tensor) -> node id
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

    def _node_id(self, t: Tensor) -> int:
        if t._tape is self:
            return t.node_id
        nid = self._leaves.get(id(t))
        if nid is None:  # the leaf node holds t, so its id stays unique
            nid = self._leaves[id(t)] = len(self.nodes)
            self.nodes.append(_Node((), None, t))
        return nid


@contextmanager
def untaped():
    """Run the ops inside without recording them; the active tape comes back on exit."""
    global _ACTIVE_TAPE
    outer, _ACTIVE_TAPE = _ACTIVE_TAPE, None
    try:
        yield
    finally:
        _ACTIVE_TAPE = outer


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    for p in parents:
        if p.requires_grad:
            break
    else:
        return out  # nothing to differentiate: out.requires_grad stays False
    out.requires_grad = True
    tape = _ACTIVE_TAPE
    if tape is None:
        return out
    pids = tuple(tape._node_id(p) if p.requires_grad else None for p in parents)
    out._tape = tape
    out.node_id = len(tape.nodes)
    # Op nodes keep no tensor: backward writes grads into leaves only, and a
    # node -> tensor -> tape cycle would keep each finished tape alive until
    # the cyclic GC runs.
    tape.nodes.append(_Node(pids, backward_fn, None))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``; refuse an untaped loss.

    Gradients are stored as returned and added out of place, so nodes may
    share one array: a backward closure never writes into the ``g`` it is handed.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        if loss.requires_grad:
            raise ValueError("backward needs a loss computed inside `with Tape():` from "
                             "tensors that require grad; no tape recorded this one")
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
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg


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
    a = a if isinstance(a, Tensor) else _coerce(a)
    b = b if isinstance(b, Tensor) else _coerce(b)
    ad, bd = a.data, b.data
    ash, bsh = ad.shape, bd.shape
    if ash != bsh and ad.size != 1 and bd.size != 1:
        raise ValueError(
            f"{name}: shapes {ash} and {bsh} differ (only scalar operands broadcast)"
        )
    out = Tensor(fwd(ad, bd))

    def bw(g):
        ga, gb = bwd(g, ad, bd)
        return (_fit(ga, ash), _fit(gb, bsh))

    return _record(out, (a, b), bw)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", lambda x, y: x + y, lambda g, x, y: (g, g))


def mul(a, b) -> Tensor:
    """Elementwise product; with a scalar operand this is the scale op."""
    return _binary(a, b, "mul", lambda x, y: x * y, lambda g, x, y: (g * y, g * x))


def relu(x) -> Tensor:
    x = x if isinstance(x, Tensor) else _coerce(x)
    xd = x.data
    return _record(Tensor(np.maximum(xd, 0.0)), (x,), lambda g: (g * (xd > 0.0),))


def matmul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a)
    b = b if isinstance(b, Tensor) else _coerce(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    out = Tensor(ad @ bd)
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
    p = probs if isinstance(probs, Tensor) else _coerce(probs)
    ys = [y if isinstance(y, Tensor) else _coerce(y) for y in outputs]
    pd, yds = p.data, [y.data for y in ys]
    if pd.ndim != 2 or pd.shape[1] != len(yds) or not yds:
        raise ValueError(f"mix: probs shape {pd.shape} does not match {len(yds)} outputs")
    shape = yds[0].shape
    if len(shape) != 2 or shape[0] != pd.shape[0] or len({yd.shape for yd in yds}) != 1:
        raise ValueError(
            f"mix: outputs {[yd.shape for yd in yds]} must share one [{pd.shape[0]} × d] shape"
        )
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
    z = logits if isinstance(logits, Tensor) else _coerce(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != z.shape:
        raise ValueError(f"mask shape {mask.shape} does not match logits shape {z.shape}")
    if not mask.any(axis=-1).all():
        raise ValueError("every row must have a non-empty subset")
    zm = np.where(mask, z.data, -np.inf)
    zm -= zm.max(axis=-1, keepdims=True)
    p = np.exp(zm, out=zm)
    p /= p.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _record(out, (z,), bw)


def token_nll(zd: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position −log softmax(zd_t)[target_t] of [T, V] logits, ``e`` and ``s``.

    ``e / s[:, None]`` is the softmax: ``e`` holds exp(zd_t − max zd_t) and
    ``s`` its row sums. The targets must be T integer ids in [0, V). Row t's
    values depend on row t alone, so a row block's values equal the same
    rows of the whole array's.
    """
    if zd.ndim != 2:
        raise ValueError(f"cross_entropy expects [T, V] logits, got shape {zd.shape}")
    t_count, vocab = zd.shape
    tg = np.asarray(targets)
    if tg.ndim != 1 or tg.shape[0] != t_count:
        raise ValueError(f"targets length {tg.shape} does not match {t_count} positions")
    if tg.dtype.kind not in "iu":
        raise ValueError("targets must be integer token ids")
    if tg.size and (tg.min() < 0 or tg.max() >= vocab):
        raise ValueError(f"target id out of range [0, {vocab})")
    m = zd.max(axis=1, keepdims=True)
    e = zd - m
    s = np.exp(e, out=e).sum(axis=1)
    return m[:, 0] + np.log(s) - zd[np.arange(t_count), tg], e, s


def cross_entropy(logits, targets) -> Tensor:
    """Mean over positions of −log softmax(logits_t)[target_t]."""
    z = logits if isinstance(logits, Tensor) else _coerce(logits)
    zd, tg = z.data, np.asarray(targets)
    losses, e, s = token_nll(zd, tg)
    t_count = zd.shape[0]
    out = Tensor(losses.sum() / t_count)  # the reduction and division of mean()

    def bw(g):
        p = e / s[:, None]  # the forward's softmax
        p[np.arange(t_count), tg] -= 1.0
        return (p * (g / t_count),)

    return _record(out, (z,), bw)


def fd_gradient(f: Callable[[Tensor], "Tensor | float | np.ndarray"], x: Tensor,
                eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of ``f``, one coordinate at a time.

    A ``Tensor`` or float result is a scalar, and the gradient has ``x``'s
    shape. An ``np.ndarray`` result of n values gives the Jacobian, shaped
    ``x.shape + (n,)``, whose column i is bit-equal to the scalar sweep of
    component i. Every component of every evaluation must be finite.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    base = x.data.copy()

    def evaluate(arr: np.ndarray):
        r = f(Tensor(arr))
        if isinstance(r, np.ndarray):
            v = np.asarray(r, dtype=np.float64).reshape(-1)
        else:
            v = r.item() if isinstance(r, Tensor) else float(r)
        if not np.isfinite(v).all():
            raise ValueError("fd_gradient: non-finite function evaluation")
        return v

    cols = []
    for i in range(base.size):
        hi = base.copy()
        hi.reshape(-1)[i] += eps
        lo = base.copy()
        lo.reshape(-1)[i] -= eps
        cols.append((evaluate(hi) - evaluate(lo)) / (2.0 * eps))
    grad = np.array(cols, dtype=np.float64)
    return Tensor(grad.reshape(base.shape + grad.shape[1:]))


class Adam:
    """Adam with bias correction over one flat parameter arena.

    The constructor copies the parameters' values and gradients, in the
    given order, into two contiguous float64 buffers and rebinds each
    ``value.data`` and ``.grad`` as a view into them. ``step`` and
    ``zero_grad`` are then one pass each over the arena, with the same
    per-element operations a loop over the parameters would apply.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the usual moment decays and ε

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        seen = set()
        for p in self.params:
            if id(p.value) in seen:  # two views of one slot would drop an update
                raise ValueError(f"parameter {p.name!r} is listed twice")
            seen.add(id(p.value))
        size = sum(p.value.data.size for p in self.params)
        self._value = np.empty(size)
        self._grad = np.empty(size)
        start = 0
        for p in self.params:
            t = p.value
            end = start + t.data.size
            value, grad = self._value[start:end], self._grad[start:end]
            value[...] = t.data.reshape(-1)
            grad[...] = t.grad.reshape(-1)
            t.data, t.grad = value.reshape(t.data.shape), grad.reshape(t.data.shape)
            start = end
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # scratch for the update: fresh arena-sized temporaries are mapped
        # and page-faulted in again on every step
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self) -> None:
        # a NaN or inf gradient would be written into the parameters; it is
        # refused before anything is updated
        if not np.isfinite(self._grad).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise FloatingPointError(f"non-finite gradient of {bad.name}")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        g, m, v, a, b = self._grad, self._m, self._v, self._a, self._b
        # an overflowed moment would freeze its parameters silently (g/√inf = 0)
        with np.errstate(over="raise", invalid="raise"):
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
            # value -= lr·(m / c1) / (√(v / c2) + ε)
            update = np.multiply(np.divide(m, c1, out=a), self.lr, out=a)
            denom = np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
            self._value -= np.divide(update, denom, out=a)

    def zero_grad(self) -> None:
        self._grad[...] = 0.0
