"""Routing and representation analytics.

Pure functions over routing traces and labeled feature sets: how often tokens
reach their own language's experts, how evenly load spreads inside each
group, how separated the language clusters are, and how ablation variants
compare. Every statistic is deterministic in its inputs. The routing
statistics read the expert groups and token labels off the trace, through
the same ``RoutingTrace`` helpers the routing losses use.

Each function returns the record that the commands write, in plain Python
values, so the layout of every report is written here and nowhere else.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from .config import VARIANTS
from .projector import CS_UNLABELED, RoutingTrace

__all__ = [
    "routing_accuracy",
    "expert_load",
    "separation_score",
    "ablation_report",
    "ablation_cells",
    "ablation_table",
]

_BLOCK = 128  # distance-matrix rows held at once by separation_score


def _floats(values) -> tuple:
    return tuple(float(x) for x in values)


def routing_accuracy(trace: RoutingTrace) -> dict:
    """How faithfully tokens route to their own language's expert group.

    Per language over its (token, layer) pairs: the share whose argmax is
    in-group, the mean in-group mass and the mean in-group share of the
    selected slots; NaN for a language absent from the trace.
    """
    group_of, m = trace.group_of, trace.num_groups
    labels = trace.concrete_labels()

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

    with np.errstate(invalid="ignore", divide="ignore"):
        top1 = np.where(pairs > 0, top1_hits / pairs, np.nan)
        mass_frac = np.where(pairs > 0, mass_sum / pairs, np.nan)
        count = np.where(pairs > 0, count_sum / pairs, np.nan)
    return {"top1_in_group": _floats(top1), "topk_mass_in_group": _floats(mass_frac),
            "topk_count_in_group": _floats(count)}


def expert_load(trace: RoutingTrace) -> dict:
    """Global expert usage shares plus the within-group load imbalance ratio.

    ``expert_shares`` counts global-argmax assignments over all (token,
    layer) pairs. ``group_ratio`` divides, per language, the busiest by the
    quietest expert's in-group argmax count over that language's tokens; a
    dead expert yields ``inf``, and a language with no labeled tokens NaN.
    """
    m, num_experts = trace.num_groups, trace.group_of.size
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
    group_counts = sum(trace.in_group_wins(layer.probs.data, labels) for layer in trace.layers)

    shares = counts / (counts.sum() if counts.sum() > 0 else 1.0)
    ratio = np.full(m, np.nan)
    for j in range(m):
        if group_counts[j].sum() == 0:
            continue
        low = group_counts[j].min()
        ratio[j] = np.inf if low == 0 else float(group_counts[j].max() / low)
    return {"expert_shares": _floats(shares), "group_ratio": _floats(ratio)}


def separation_score(features: np.ndarray, labels: np.ndarray) -> dict:
    """Cluster-separation report: mean silhouette plus pairwise gap ratios.

    ``pair_ratios[i][j]`` divides the i-th and j-th retained labels' centroid
    gap by their mean spread. Labels with a single sample are excluded (with
    a warning); at least two populated labels must remain. Distances are
    Euclidean, making the score invariant under translation, rotation, and
    uniform scaling.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or len(features) != len(labels):
        raise ValueError("features must be [num_samples × dim] aligned with labels")
    unique, counts = np.unique(labels, return_counts=True)
    for u in unique[counts < 2]:
        warnings.warn(f"label {int(u)} has a single sample; excluded from separation score")
    kept = [int(u) for u in unique[counts >= 2]]
    if len(kept) < 2:
        raise ValueError("separation score requires at least 2 labels with >= 2 samples")
    mask = np.isin(labels, kept)
    x, y = features[mask], labels[mask]

    # Per-label distance sums, one block of rows at a time: memory is
    # O(block · n). Gram distances |a|² + |b|² − 2·a·b lose all precision
    # when d² is at rounding level against |a|² + |b|² (the diagonal, exact
    # duplicates), so those entries are recomputed from the differences.
    # They are found by one flat scan of the block, whose indices divmod
    # maps back to (row, column) in the row-major order of a 2-D nonzero.
    code = np.searchsorted(kept, y)
    onehot = (code[:, None] == np.arange(len(kept))).astype(float)
    xc = x - x.mean(axis=0)
    n = len(xc)
    sq = (xc**2).sum(axis=1)
    sums = np.empty((n, len(kept)))
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        norms = sq[rows, None] + sq
        d2 = (-2.0 * xc[rows]) @ xc.T
        d2 += norms
        near_r, near_c = np.divmod(np.flatnonzero(d2 <= 1e-12 * norms), n)
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
    return {"silhouette": float(sil.mean()), "pair_ratios": ratios.tolist()}


def ablation_report(results: Mapping[str, Sequence[Mapping[str, float]]]) -> dict:
    """Summarize per-variant runs into seed-median / min / max rows.

    ``results`` is keyed by names from ``VARIANTS``, and ``rows`` follow that
    order, each ``{variant, num_runs, metrics}`` with ``metrics`` mapping a
    metric name to its ``{median, min, max}``. Variants without runs are
    omitted with one line in ``notices`` rather than silently dropped.
    """
    populated = {v: list(runs) for v, runs in results.items() if runs}
    if not populated:
        raise ValueError("ablation report requires at least one completed run")
    rows = []
    for variant in (v for v in VARIANTS if v in populated):
        runs = populated[variant]
        metrics = {}
        for name in sorted({name for run in runs for name in run}):
            values = [float(run[name]) for run in runs if name in run]
            metrics[name] = {"median": float(np.median(values)), "min": min(values),
                             "max": max(values)}
        rows.append({"variant": variant, "num_runs": len(runs), "metrics": metrics})
    notices = [f"variant '{v}' missing — row omitted" for v in VARIANTS if v not in populated]
    return {"rows": rows, "notices": notices}


def ablation_cells(report: Mapping) -> tuple:
    """An ablation report's sorted metric names, and per row ``(variant, num_runs, cells)``."""
    names = sorted({name for row in report["rows"] for name in row["metrics"]})
    rows = [(row["variant"], row["num_runs"], [row["metrics"].get(name) for name in names])
            for row in report["rows"]]
    return names, rows


def ablation_table(report: Mapping) -> str:
    """``ablation_report``'s record as a tab-separated table, notices as comments."""
    names, rows = ablation_cells(report)
    header = ["variant", "runs"] + [f"{name} (median / min / max)" for name in names]
    lines = ["\t".join(header)]
    for variant, runs, cells in rows:
        line = [variant, str(runs)]
        for stats in cells:
            line.append("-" if stats is None else
                        f"{stats['median']:.6g} / {stats['min']:.6g} / {stats['max']:.6g}")
        lines.append("\t".join(line))
    lines.extend(f"# {notice}" for notice in report["notices"])
    return "\n".join(lines)
