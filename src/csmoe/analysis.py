"""Routing and representation analytics.

Pure functions over routing traces and labeled feature sets: how often tokens
reach their own language's experts, how evenly load spreads inside each
group, how separated the language clusters are, and how ablation variants
compare. Every statistic is deterministic in its inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import VARIANTS
from .losses import _group_layout, _in_group_wins
from .projector import CS_UNLABELED, RoutingTrace

__all__ = [
    "RoutingStats",
    "ExpertLoad",
    "SeparationReport",
    "AblationRow",
    "AblationReport",
    "routing_accuracy",
    "expert_load",
    "separation_score",
    "ablation_report",
]

_BLOCK = 128  # distance-matrix rows held at once by separation_score


@dataclass(frozen=True)
class RoutingStats:
    """Per-language routing quality over all (token, layer) pairs.

    Entries are NaN for languages with no tokens in the trace.
    ``group_expert_share`` rows sum to 1 over each language's own experts
    (computed from in-group argmax assignments).
    """

    top1_in_group: np.ndarray  # [m] fraction of pairs whose argmax is in-group
    topk_mass_in_group: np.ndarray  # [m] mean in-group probability mass
    topk_count_in_group: np.ndarray  # [m] mean fraction of selected slots in-group
    group_expert_share: np.ndarray  # [m × n]


@dataclass(frozen=True)
class ExpertLoad:
    shares: np.ndarray  # [N] fraction of global-argmax assignments per expert
    group_ratio: np.ndarray  # [m] within-group max/min load (inf when an expert is dead)


@dataclass(frozen=True)
class SeparationReport:
    silhouette: float  # mean silhouette over samples, in [-1, 1]
    pair_ratios: np.ndarray  # [K × K] centroid distance over mean intra-cluster spread
    labels: tuple[int, ...]  # labels retained, in pair_ratios order
    excluded: tuple[int, ...]  # singleton labels dropped


def routing_accuracy(trace: RoutingTrace, group_of: np.ndarray) -> RoutingStats:
    """How faithfully tokens route to their own language's expert group."""
    group_of, m, n = _group_layout(group_of)
    if trace.token_language is None:
        raise ValueError("routing_accuracy requires a trace with token language labels")
    labels = np.asarray(trace.token_language, dtype=np.intp)
    if np.any(labels == CS_UNLABELED) or labels.min() < 0 or labels.max() >= m:
        raise ValueError("routing_accuracy requires a concrete in-range label per token")

    pairs = np.zeros(m)
    top1_hits = np.zeros(m)
    mass_sum = np.zeros(m)
    count_sum = np.zeros(m)
    own_mask = group_of[None, :] == labels[:, None]  # [T × N]

    for layer in trace.layers:
        p = layer.probs.data
        winners = p.argmax(axis=1)
        in_group_win = group_of[winners] == labels
        mass = (p * own_mask).sum(axis=1)
        count_frac = (group_of[layer.selected] == labels[:, None]).mean(axis=1)
        for j in range(m):
            rows = labels == j
            if not rows.any():
                continue
            pairs[j] += rows.sum()
            top1_hits[j] += in_group_win[rows].sum()
            mass_sum[j] += mass[rows].sum()
            count_sum[j] += count_frac[rows].sum()

    share_counts = sum((_in_group_wins(layer.probs.data, labels, group_of, m, n)
                        for layer in trace.layers), np.zeros((m, n)))
    with np.errstate(invalid="ignore", divide="ignore"):
        top1 = np.where(pairs > 0, top1_hits / pairs, np.nan)
        mass_frac = np.where(pairs > 0, mass_sum / pairs, np.nan)
        count = np.where(pairs > 0, count_sum / pairs, np.nan)
        totals = share_counts.sum(axis=1, keepdims=True)
        share = np.where(totals > 0, share_counts / np.maximum(totals, 1), np.nan)
    return RoutingStats(
        top1_in_group=top1,
        topk_mass_in_group=mass_frac,
        topk_count_in_group=count,
        group_expert_share=share,
    )


def expert_load(trace: RoutingTrace, group_of: np.ndarray) -> ExpertLoad:
    """Global expert usage shares plus the within-group load imbalance ratio.

    Shares count global-argmax assignments over all (token, layer) pairs.
    The per-group ratio divides the busiest by the quietest expert's in-group
    argmax count over that language's tokens; a dead expert yields ``inf``,
    and a language with no labeled tokens yields NaN.
    """
    group_of, m, n = _group_layout(group_of)
    num_experts = group_of.size
    if trace.num_tokens == 0 or trace.num_layers == 0:
        raise ValueError("expert_load requires a non-empty trace")
    labels = (
        np.full(trace.num_tokens, CS_UNLABELED, dtype=np.intp)
        if trace.token_language is None
        else np.asarray(trace.token_language, dtype=np.intp)
    )

    counts = np.zeros(num_experts)
    for layer in trace.layers:
        counts += np.bincount(layer.probs.data.argmax(axis=1), minlength=num_experts)
    group_counts = sum((_in_group_wins(layer.probs.data, labels, group_of, m, n)
                        for layer in trace.layers), np.zeros((m, n)))

    shares = counts / (counts.sum() if counts.sum() > 0 else 1.0)
    ratio = np.full(m, np.nan)
    for j in range(m):
        if group_counts[j].sum() == 0:
            continue
        low = group_counts[j].min()
        ratio[j] = np.inf if low == 0 else float(group_counts[j].max() / low)
    return ExpertLoad(shares=shares, group_ratio=ratio)


def separation_score(features: np.ndarray, labels: np.ndarray) -> SeparationReport:
    """Cluster-separation report: mean silhouette plus pairwise gap ratios.

    Labels with a single sample are excluded (with a warning); at least two
    populated labels must remain. Distances are Euclidean, making the score
    invariant under translation, rotation, and uniform scaling.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or len(features) != len(labels):
        raise ValueError("features must be [num_samples × dim] aligned with labels")
    unique, counts = np.unique(labels, return_counts=True)
    excluded = tuple(int(u) for u, c in zip(unique, counts) if c < 2)
    for u in excluded:
        warnings.warn(f"label {u} has a single sample; excluded from separation score")
    kept = [int(u) for u, c in zip(unique, counts) if c >= 2]
    if len(kept) < 2:
        raise ValueError("separation score requires at least 2 labels with >= 2 samples")
    mask = np.isin(labels, kept)
    x, y = features[mask], labels[mask]

    # Per-label distance sums, one block of rows at a time: memory is
    # O(block · n). Gram distances |a|² + |b|² − 2·a·b lose all precision
    # when d² is at rounding level against |a|² + |b|² (the diagonal, exact
    # duplicates), so those entries are recomputed from the differences.
    code = np.searchsorted(kept, y)
    onehot = (code[:, None] == np.arange(len(kept))).astype(float)
    xc = x - x.mean(axis=0)
    sq = (xc**2).sum(axis=1)
    sums = np.empty((len(xc), len(kept)))
    for start in range(0, len(xc), _BLOCK):
        rows = slice(start, start + _BLOCK)
        norms = sq[rows, None] + sq
        d2 = (-2.0 * xc[rows]) @ xc.T
        d2 += norms
        near_r, near_c = np.nonzero(d2 <= 1e-12 * norms)
        d2[near_r, near_c] = ((xc[start + near_r] - xc[near_c]) ** 2).sum(axis=1)
        sums[rows] = np.sqrt(d2, out=d2) @ onehot
    sizes = onehot.sum(axis=0)
    own = np.arange(len(xc)), code
    a = sums[own] / (sizes[code] - 1)
    means = sums / sizes
    means[own] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    sil = np.divide(b - a, top, out=np.zeros_like(top), where=top > 0.0)

    centroids = np.stack([x[y == u].mean(axis=0) for u in kept])
    spreads = np.array([np.linalg.norm(x[y == u] - c, axis=1).mean() for u, c in zip(kept, centroids)])
    k = len(kept)
    ratios = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            gap = np.linalg.norm(centroids[i] - centroids[j])
            spread = (spreads[i] + spreads[j]) / 2.0
            ratios[i, j] = ratios[j, i] = np.inf if spread == 0.0 else gap / spread
    return SeparationReport(
        silhouette=float(sil.mean()),
        pair_ratios=ratios,
        labels=tuple(kept),
        excluded=excluded,
    )


@dataclass(frozen=True)
class AblationRow:
    variant: str
    num_runs: int
    metrics: dict  # metric name → {"median": ..., "min": ..., "max": ...}


@dataclass(frozen=True)
class AblationReport:
    rows: tuple[AblationRow, ...]
    notices: tuple[str, ...]

    def as_table(self) -> str:
        metric_names = sorted({name for row in self.rows for name in row.metrics})
        header = ["variant", "runs"] + [
            f"{name} (median / min / max)" for name in metric_names
        ]
        lines = ["\t".join(header)]
        for row in self.rows:
            cells = [row.variant, str(row.num_runs)]
            for name in metric_names:
                stats = row.metrics.get(name)
                cells.append(
                    "-"
                    if stats is None
                    else f"{stats['median']:.6g} / {stats['min']:.6g} / {stats['max']:.6g}"
                )
            lines.append("\t".join(cells))
        for notice in self.notices:
            lines.append(f"# {notice}")
        return "\n".join(lines)


def ablation_report(results: Mapping[str, Sequence[Mapping[str, float]]]) -> AblationReport:
    """Summarize per-variant runs into seed-median / min / max rows.

    Rows follow the canonical variant order, then any extra variants
    alphabetically. Canonical variants without runs are omitted with a
    notice rather than silently dropped.
    """
    populated = {v: list(runs) for v, runs in results.items() if runs}
    if not populated:
        raise ValueError("ablation report requires at least one completed run")
    ordered = [v for v in VARIANTS if v in populated] + sorted(
        v for v in populated if v not in VARIANTS
    )
    rows = []
    for variant in ordered:
        runs = populated[variant]
        metric_names = sorted({name for run in runs for name in run})
        metrics = {}
        for name in metric_names:
            values = [float(run[name]) for run in runs if name in run]
            metrics[name] = {
                "median": float(np.median(values)),
                "min": float(min(values)),
                "max": float(max(values)),
            }
        rows.append(AblationRow(variant=variant, num_runs=len(runs), metrics=metrics))
    notices = tuple(
        f"variant '{v}' missing — row omitted" for v in VARIANTS if v not in populated
    )
    return AblationReport(rows=tuple(rows), notices=notices)
