"""Speech projectors: the plain MLP and the grouped sparse-MoE variant.

The MoE projector keeps N = n·m expert linear maps per layer — n experts per
language group — plus one linear router per layer. Each token is dispatched to
its top-k experts; probabilities are normalized over the selected set only and
are exactly zero elsewhere. ``moe_forward`` processes whole batches of tokens
at once through ``moe_layer``, the one MoE layer evaluation: each layer
applies the ReLU to the previous layer's output, multiplies the batch
through every expert and combines the N products by ``mix``, a numpy sum
weighted by the sparse probabilities, all as one tape node whose backward
repeats the taped chain the tests keep. Each layer's record keeps
its router logits, selection and probabilities. The forward's
``RoutingTrace`` carries the projector's expert groups (``group_of``) with
the routing records, and owns what the group-aware losses and statistics
share: the ``layout`` of its checked labels and the one-group view, each
made once per trace, and per layer the own-group slice and the one-pass
in-group winner count.
``RoutingTrace.over`` gives the same tokens new layer records and shares
the layouts already made, so a rerun forward builds none.
The tests hold a single-token reference path (``tests/oracles.py``) that
routes and mixes one token at a time; the batched forward agrees with it.

Sizes come from a checked ``ExperimentConfig``, which decides their ranges,
so ``ProjectorConfig`` is plain data; the functions here refuse only inputs
that do not fit the projector and an empty or mixed list of pretrained MLPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import Parameter, Tensor, _record, masked_softmax, matmul, relu, untaped

#: Per-token language value marking code-switched (unlabeled) tokens.
CS_UNLABELED = -1


@dataclass(frozen=True)
class ProjectorConfig:
    """Widths and depth shared by the MLP and MoE projectors (ReLU between layers)."""

    d_in: int
    d_model: int
    num_layers: int = 3

    def layer_shape(self, l: int) -> tuple[int, int]:
        return (self.d_in if l == 0 else self.d_model, self.d_model)


class MlpProjector:
    """Bias-free MLP: h ← relu(h·W) for layers 1..L−1, then a final linear map."""

    def __init__(self, config: ProjectorConfig, layers: list[Parameter]):
        self.config = config
        self.layers = layers

    def parameters(self) -> list[Parameter]:
        return list(self.layers)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_mlp(config: ProjectorConfig, seed: int) -> MlpProjector:
    """Fresh MLP with Glorot-uniform weights, deterministic per seed."""
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(config.num_layers):
        fan_in, fan_out = config.layer_shape(l)
        layers.append(Parameter(f"mlp.layer{l}", Tensor(_glorot(rng, fan_in, fan_out))))
    return MlpProjector(config, layers)


def _check_features(config: ProjectorConfig, features: Tensor) -> None:
    if features.data.ndim != 2 or features.shape[1] != config.d_in:
        raise ValueError(f"features shape {features.shape} does not match d_in={config.d_in}")


def mlp_forward(proj: MlpProjector, features: Tensor) -> Tensor:
    _check_features(proj.config, features)
    h = features
    last = proj.config.num_layers - 1
    for l, w in enumerate(proj.layers):
        h = matmul(h, w.value)
        if l < last:
            h = relu(h)
    return h


class MoeLayer:
    """One MoE layer: N expert weight matrices and a router matrix (width × N)."""

    def __init__(self, expert_weights: list[Parameter], router_weights: Parameter):
        self.expert_weights = expert_weights
        self.router_weights = router_weights


class MoeProjector:
    """Grouped sparse-MoE projector; experts [g·n, (g+1)·n) belong to language g."""

    def __init__(
        self,
        config: ProjectorConfig,
        num_languages: int,
        experts_per_group: int,
        top_k: int,
        layers: list[MoeLayer],
    ):
        self.config = config
        self.num_languages = num_languages
        self.experts_per_group = experts_per_group
        self.top_k = top_k
        self.layers = layers
        self.group_of = np.repeat(np.arange(num_languages), experts_per_group)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.expert_weights)
            params.append(layer.router_weights)
        return params


def build_moe_from_pretrained(
    mlps: list[MlpProjector], n: int, k: int, seed: int
) -> MoeProjector:
    """Assemble the grouped MoE from per-language pretrained MLPs.

    Expert j of group g at layer l starts as an exact copy of layer l of
    mlps[g]; routers are freshly initialized from ``seed``.
    """
    if not mlps:
        raise ValueError("need at least one pretrained projector")
    config = mlps[0].config
    if any(p.config != config for p in mlps):
        raise ValueError(f"projector configs differ: {[p.config for p in mlps]}")
    m = len(mlps)
    total = n * m

    rng = np.random.default_rng(seed)
    layers = []
    for l in range(config.num_layers):
        experts = []
        for g in range(m):
            src = mlps[g].layers[l].value.data
            for j in range(n):
                experts.append(
                    Parameter(f"moe.layer{l}.expert{g * n + j}", Tensor(src.copy()))
                )
        fan_in, _ = config.layer_shape(l)
        router = Parameter(f"moe.layer{l}.router", Tensor(_glorot(rng, fan_in, total)))
        layers.append(MoeLayer(experts, router))
    return MoeProjector(config, m, n, k, layers)


class LayerRouting:
    """Routing record of one layer: router logits, selected expert indices and sparse probs."""

    __slots__ = ("logits", "selected", "probs")

    def __init__(self, logits: Tensor, selected: np.ndarray, probs: Tensor):
        self.logits = logits  # [T × N] Tensor, the router matmul
        self.selected = selected  # [T × k] int, ascending per row
        self.probs = probs  # [T × N] Tensor, exact zeros off the selected set


class TokenLayout:
    """What depends only on a trace's labels, expert groups and layer count: ``tokens``
    and ``layers`` index an [L × T] stack, ``members`` [m × T] marks each language's
    tokens (``rows``, as [m × 1 × T] floats), ``columns`` [m × N] each group's experts,
    and ``cells`` [L × T] is each token's first in-group winner cell of an [L × m × n]
    count."""

    def __init__(self, labels: np.ndarray, group_of: np.ndarray, num_layers: int):
        self.labels, self.group_of = labels, group_of
        self.num_groups = int(group_of[-1]) + 1
        langs = np.arange(self.num_groups)[:, None]
        self.tokens = np.arange(len(labels))
        self.members = labels == langs
        self.rows = self.members.astype(float)[:, None, :]
        self.columns = (group_of == langs).astype(float)
        self.layers = np.arange(num_layers)[:, None]
        self.cells = (self.layers * self.num_groups + labels) * (group_of.size // self.num_groups)


class RoutingTrace:
    """Per-layer routing records for a batch of tokens, their expert groups and labels.

    ``group_of[i]`` is the language group of expert i, the layout of the
    projector that routed the batch: experts [g·n, (g+1)·n) belong to
    language g. ``token_language[t]`` is the language index of token t, or
    CS_UNLABELED for code-switched (unlabeled) tokens; None if no labels were
    supplied. The losses and statistics read both from here. ``layout``,
    ``one_group`` and ``probs`` are made on first read and kept, so the records
    must not change; ``over`` gives the same tokens new records and shares
    what their labels and groups decide.
    """

    def __init__(self, layers: list[LayerRouting], group_of: np.ndarray,
                 token_language: np.ndarray | None):
        self.layers = layers
        self.group_of = group_of
        self.token_language = token_language

    def over(self, layers: list[LayerRouting]) -> "RoutingTrace":
        """A trace of the same tokens over the layer records ``layers``, sharing the
        layouts this trace and its one-group view have made for as many layers; the
        rest is made on first read, as a new trace makes it."""
        trace = RoutingTrace(layers, self.group_of, self.token_language)
        for name in ("layout", "_one_group_layout"):
            made = vars(self).get(name)
            if made is not None and len(made.layers) == len(layers):
                setattr(trace, name, made)
        return trace

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_tokens(self) -> int:
        return self.layers[0].selected.shape[0] if self.layers else 0

    @property
    def num_groups(self) -> int:
        return int(self.group_of[-1]) + 1

    @cached_property
    def layout(self) -> TokenLayout:
        """The token layout of the checked labels, refused unless every token has one in range."""
        if self.token_language is None:
            raise ValueError("trace carries no token language labels")
        labels = np.asarray(self.token_language, dtype=np.intp)
        lowest = labels.min()
        if lowest < 0 and (labels == CS_UNLABELED).any():
            raise ValueError(
                "trace contains unlabeled (code-switched) tokens; language-aware "
                "losses require a concrete label per token"
            )
        if lowest < 0 or labels.max() >= self.num_groups:
            raise ValueError(f"token language labels out of range for {self.num_groups} groups")
        return TokenLayout(labels, self.group_of, self.num_layers)

    @cached_property
    def _one_group_layout(self) -> TokenLayout:
        return TokenLayout(np.zeros(self.num_tokens, np.intp), 0 * self.group_of,
                           self.num_layers)

    @cached_property
    def one_group(self) -> "RoutingTrace":
        """The same layer records with every expert in group 0 and every token labeled 0."""
        layout = self._one_group_layout
        view = RoutingTrace(self.layers, layout.group_of, layout.labels)
        # the same records, so the same stack; all-zero labels need no check
        view.probs, view.layout = self.probs, layout
        return view

    @cached_property
    def probs(self) -> np.ndarray:
        """[L × T × N] every layer's routing probabilities."""
        return np.array([layer.probs.data for layer in self.layers])

    def own_group_probs(self) -> np.ndarray:
        """[L × T × n] each token's probabilities over its own group's experts, per layer."""
        layout = self.layout
        if layout.num_groups == 1:  # one group's slice is the whole stack
            return self.probs
        grouped = self.probs.reshape(self.num_layers, self.num_tokens, layout.num_groups, -1)
        return grouped[:, layout.tokens, layout.labels]  # [L × T × n] of [L × T × m × n]

    def in_group_wins(self) -> np.ndarray:
        """[L × m × n] in-group argmax winners of every layer's probabilities, in one pass.

        Row j of layer l counts, over language j's tokens, which of group j's
        experts holds the largest probability (ties to the lowest index, as
        routing breaks them); tokens without mass in their group are skipped.
        """
        own, cells = self.own_group_probs(), self.layout.cells
        wins = np.bincount((cells + own.argmax(axis=2))[own.sum(axis=2) > 0.0],
                           minlength=own.shape[0] * self.group_of.size)
        return wins.reshape(own.shape[0], self.layout.num_groups, -1).astype(float)


def _topk_rows(logits: np.ndarray, k: int) -> np.ndarray:
    """Top-k column indices per row, ties broken toward the lower index."""
    order = np.argsort(-logits, axis=1, kind="stable")
    sel = order[:, :k]
    sel.sort(axis=1)
    return sel


def mix(probs: np.ndarray, products) -> np.ndarray:
    """Σ_i products[i] · probs[:, i] of N [T × d] arrays, added in expert order into one
    buffer, so an exactly-zero probability drops its term bit for bit."""
    out = products[0] * probs[:, 0, None]
    term = np.empty_like(out)
    for i in range(1, len(products)):
        out += np.multiply(products[i], probs[:, i, None], out=term)
    return out


def moe_layer(proj: MoeProjector, l: int, h: Tensor) -> tuple[Tensor, LayerRouting]:
    """Apply MoE layer ``l`` to the output ``h`` of layer ``l − 1`` (or the features).

    Past layer 0 the ReLU applies to the input, so the output is the layer's
    pre-activation mixture. Every expert multiplies the whole batch, and
    ``mix`` weights the N products by their (possibly exactly zero)
    probabilities: exact values, and exactly zero gradients for non-selected
    experts. The products, made untaped, and the mix record one tape node
    over ``h``, the probabilities and the expert weights; its backward
    closure holds arrays and flags only. The record keeps the router
    logits. Layer ``l`` reads only ``h`` and its own parameters, so a
    forward can restart here from a kept input.
    """
    if l > 0:
        h = relu(h)
    layer = proj.layers[l]
    logits = matmul(h, layer.router_weights.value)  # [T × N]
    sel = _topk_rows(logits.data, proj.top_k)
    mask = np.zeros(logits.shape, dtype=bool)
    mask[np.arange(sel.shape[0])[:, None], sel] = True
    probs = masked_softmax(logits, mask)
    weights = [ew.value for ew in layer.expert_weights]
    with untaped():
        yds = [matmul(h, w).data for w in weights]
    hd, pd, wds = h.data, probs.data, [w.data for w in weights]
    out = Tensor(mix(pd, yds))
    need_h = h.requires_grad

    def bw(g):
        # mix's backward, then each expert matmul's
        gp = np.empty_like(pd)
        for i, yd in enumerate(yds):
            gp[:, i] = (g * yd).sum(axis=1)
        gys = [g * pd[:, i, None] for i in range(len(yds))]
        gh = None
        if need_h:  # the experts from the last down, as the tape visits their nodes
            for gy, wd in zip(gys[::-1], wds[::-1]):
                gh = gy @ wd.T if gh is None else gh + gy @ wd.T
        return (gh, gp, *(hd.T @ gy for gy in gys))

    return _record(out, (h, probs, *weights), bw), LayerRouting(logits, sel, probs)


def moe_forward(
    proj: MoeProjector, features: Tensor, token_language: np.ndarray | None = None
) -> tuple[Tensor, RoutingTrace]:
    """Apply all MoE layers (ReLU between, none after the last); record routing."""
    _check_features(proj.config, features)
    if token_language is not None:
        token_language = np.asarray(token_language)
        if token_language.shape != (features.shape[0],):
            raise ValueError(
                f"token_language shape {token_language.shape} does not match "
                f"{features.shape[0]} tokens"
            )
    h, records = features, []
    for l in range(proj.config.num_layers):
        h, record = moe_layer(proj, l, h)
        records.append(record)
    return h, RoutingTrace(records, proj.group_of, token_language)
