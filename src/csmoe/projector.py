"""Speech projectors: the plain MLP and the grouped sparse-MoE variant.

The MoE projector keeps N = n·m expert linear maps per layer — n experts per
language group — plus one linear router per layer. Each token is dispatched to
its top-k experts; probabilities are normalized over the selected set only and
are exactly zero elsewhere. ``moe_forward`` processes whole batches of tokens
at once: each layer multiplies the batch through every expert and combines
the N products in one ``mix`` node weighted by the sparse probabilities.
``route`` / ``moe_layer_forward`` are the single-token reference path, and
both agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    masked_softmax,
    matmul,
    mix,
    relu,
    reshape,
    softmax,
    take,
)

#: Per-token language value marking code-switched (unlabeled) tokens.
CS_UNLABELED = -1


@dataclass(frozen=True)
class ProjectorConfig:
    """Widths and depth shared by the MLP and MoE projectors (ReLU between layers)."""

    d_in: int
    d_model: int
    num_layers: int = 3

    def __post_init__(self):
        if self.d_in < 1 or self.d_model < 1:
            raise ValueError(f"widths must be >= 1, got d_in={self.d_in}, d_model={self.d_model}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")

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


def mlp_forward(proj: MlpProjector, features: Tensor) -> Tensor:
    if features.data.ndim != 2 or features.shape[1] != proj.config.d_in:
        raise ValueError(
            f"features shape {features.shape} does not match d_in={proj.config.d_in}"
        )
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

    @property
    def num_experts(self) -> int:
        return len(self.expert_weights)


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

    @property
    def total_experts(self) -> int:
        return self.num_languages * self.experts_per_group

    def group_mask(self, g: int) -> np.ndarray:
        return self.group_of == g

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
    if n < 1:
        raise ValueError(f"experts per group must be >= 1, got {n}")
    m = len(mlps)
    total = n * m
    if not 1 <= k <= total:
        raise ValueError(f"top_k={k} out of range for {total} experts")

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
    """Routing record of one layer: selected expert indices and sparse probs."""

    __slots__ = ("selected", "probs")

    def __init__(self, selected: np.ndarray, probs: Tensor):
        self.selected = selected  # [T × k] int, ascending per row
        self.probs = probs  # [T × N] Tensor, exact zeros off the selected set


class RoutingTrace:
    """Per-layer routing records for a batch of tokens, plus optional labels.

    ``token_language[t]`` is the language index of token t, or CS_UNLABELED
    for code-switched (unlabeled) tokens; None if no labels were supplied.
    """

    def __init__(self, layers: list[LayerRouting], token_language: np.ndarray | None):
        self.layers = layers
        self.token_language = token_language

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_tokens(self) -> int:
        return self.layers[0].selected.shape[0] if self.layers else 0

    @property
    def num_experts(self) -> int:
        return self.layers[0].probs.shape[1] if self.layers else 0


def _topk_rows(logits: np.ndarray, k: int) -> np.ndarray:
    """Top-k column indices per row, ties broken toward the lower index."""
    order = np.argsort(-logits, axis=1, kind="stable")
    sel = order[:, :k]
    sel.sort(axis=1)
    return sel


def route(layer: MoeLayer, h_t: Tensor, k: int) -> tuple[np.ndarray, Tensor]:
    """Dispatch one token: top-k expert indices and subset-normalized probs."""
    n = layer.num_experts
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} experts")
    if h_t.data.ndim != 1:
        raise ValueError(f"route expects a 1-D token activation, got shape {h_t.shape}")
    w = layer.router_weights.value
    logits = reshape(matmul(reshape(h_t, (1, h_t.shape[0])), w), (n,))
    idx = _topk_rows(logits.data[None, :], k)[0]
    probs = softmax(logits, subset=idx)
    return idx, probs


def moe_layer_forward(layer: MoeLayer, h_t: Tensor, k: int):
    """Single-token mixture: Σ probs_i · expert_i(h_t) over the selected set."""
    idx, probs = route(layer, h_t, k)
    width = h_t.shape[0]
    row = reshape(h_t, (1, width))
    outs = [matmul(row, layer.expert_weights[i].value) for i in idx]
    if len(outs) == 1:
        stacked = outs[0]
    else:
        from .autodiff import concat

        stacked = concat(outs, axis=0)  # [k × d_out]
    p_sel = reshape(take(probs, idx), (1, k))
    mixed = reshape(matmul(p_sel, stacked), (stacked.shape[1],))
    return mixed, (idx, probs)


def _moe_layer_batch(layer: MoeLayer, h: Tensor, k: int):
    """Batched mixture over all tokens at once; equals the per-token path.

    Every expert multiplies the whole batch (one ``matmul`` each), and a
    single ``mix`` node weights the N products by their (possibly exactly
    zero) probabilities. That preserves exact values and exact gradient
    sparsity for non-selected experts.
    """
    logits = matmul(h, layer.router_weights.value)  # [T × N]
    sel = _topk_rows(logits.data, k)
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, sel, True, axis=1)
    probs = masked_softmax(logits, mask)
    out = mix(probs, [matmul(h, ew.value) for ew in layer.expert_weights])
    return out, sel, probs


def moe_forward(
    proj: MoeProjector, features: Tensor, token_language: np.ndarray | None = None
) -> tuple[Tensor, RoutingTrace]:
    """Apply all MoE layers (ReLU between, none after the last); record routing."""
    if features.data.ndim != 2 or features.shape[1] != proj.config.d_in:
        raise ValueError(
            f"features shape {features.shape} does not match d_in={proj.config.d_in}"
        )
    if token_language is not None:
        token_language = np.asarray(token_language)
        if token_language.shape != (features.shape[0],):
            raise ValueError(
                f"token_language shape {token_language.shape} does not match "
                f"{features.shape[0]} tokens"
            )
    h = features
    last = proj.config.num_layers - 1
    records = []
    for l, layer in enumerate(proj.layers):
        h, sel, probs = _moe_layer_batch(layer, h, proj.top_k)
        records.append(LayerRouting(sel, probs))
        if l < last:
            h = relu(h)
    return h, RoutingTrace(records, token_language)
