"""Routing and representation analytics.

Pure functions over routing traces and labeled feature sets: how often tokens
reach their own language's experts, how evenly load spreads inside each
group, how separated the language clusters are, and how ablation variants
compare. Every statistic is deterministic in its inputs. The routing
statistics read the expert groups and the checked token labels off the
trace, through the same ``RoutingTrace`` layout and helpers the routing
losses use, so they refuse an unlabeled token as the losses do; the global
expert counts are the in-group winner count of the one-group view.

Each function returns the record that the commands write, in plain Python
values, so the layout of every report is written here and nowhere else.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from .config import VARIANTS
from .projector import RoutingTrace

__all__ = [
    "routing_accuracy",
    "expert_load",
    "separation_score",
    "ablation_report",
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
    group_of, layout = trace.group_of, trace.layout
    labels, members = layout.labels, layout.members  # [m × T] each language's tokens
    own_mask = layout.columns[labels]  # [T × N] each token's own group's experts
    sums = np.zeros((3, layout.num_groups))  # argmax hits, in-group mass, in-group slots
    for layer in trace.layers:
        p = layer.probs.data
        winners = p.argmax(axis=1)
        in_group_win = group_of[winners] == labels
        mass = (p * own_mask).sum(axis=1)
        count_frac = (group_of[layer.selected] == labels[:, None]).mean(axis=1)
        for j, rows in enumerate(members):
            sums[:, j] += (in_group_win[rows].sum(), mass[rows].sum(), count_frac[rows].sum())
    pairs = members.sum(axis=1) * trace.num_layers
    with np.errstate(invalid="ignore", divide="ignore"):
        top1, mass_frac, count = np.where(pairs > 0, sums / pairs, np.nan)
    return {"top1_in_group": _floats(top1), "topk_mass_in_group": _floats(mass_frac),
            "topk_count_in_group": _floats(count)}


def expert_load(trace: RoutingTrace) -> dict:
    """Global expert usage shares plus the within-group load imbalance ratio.

    ``expert_shares`` counts global-argmax assignments over all (token,
    layer) pairs. ``group_ratio`` divides, per language, the busiest by the
    quietest expert's in-group argmax count over that language's tokens; a
    dead expert yields ``inf``, and a language without an in-group winner NaN.
    """
    m = trace.num_groups
    if trace.num_tokens == 0 or trace.num_layers == 0:
        raise ValueError("expert_load requires a non-empty trace")
    counts = trace.one_group.in_group_wins()[:, 0].sum(axis=0)
    group_counts = trace.in_group_wins().sum(axis=0)

    shares = counts / (counts.sum() if counts.sum() > 0 else 1.0)
    ratio = np.full(m, np.nan)
    for j in range(m):
        if group_counts[j].sum() == 0:
            continue
        low = group_counts[j].min()
        ratio[j] = np.inf if low == 0 else float(group_counts[j].max() / low)
    return {"expert_shares": _floats(shares), "group_ratio": _floats(ratio)}


def _label_distance_sums(xc: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """[n × labels]: each row's summed Euclidean distance to every label's rows.

    One block of ``_BLOCK`` rows at a time, so memory is O(block · n), and
    the three ``[block × n]`` buffers (norms, distances, near mask) are made
    once and rewritten by each block. Gram distances |a|² + |b|² − 2·a·b
    lose all precision when d² is at rounding level against |a|² + |b|²
    (the diagonal, exact duplicates), so those entries, d² ≤ 1e-12·norms
    (negative Gram values among them), are recomputed from the differences
    before the square root. One compare against a scalar bound, 1e-12 ·
    (the block's largest |a|² + the largest |b|²), finds the candidates as
    flat indices into the block, and only they take the exact per-entry
    test. Rounding is monotone, so no entry that passes the exact test lies
    above the bound. The norms are added one row at a time; the sum is
    commutative, so they equal the broadcast |a|² + |b|² bit for bit, at
    half its cost.
    """
    n = len(xc)
    sq = (xc**2).sum(axis=1)
    top = sq.max()
    sums = np.empty((n, onehot.shape[1]))
    norms_buf, d2_buf = np.empty((2, min(_BLOCK, n), n))
    near_buf = np.empty(d2_buf.shape, dtype=bool)
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = sq[rows]
        norms, d2, near = norms_buf[:len(block)], d2_buf[:len(block)], near_buf[:len(block)]
        for i, s in enumerate(block):
            np.add(sq, s, out=norms[i])
        np.matmul(-2.0 * xc[rows], xc.T, out=d2)
        d2 += norms
        np.less_equal(d2, 1e-12 * (block.max() + top), out=near)
        cand = np.flatnonzero(near)
        cand = cand[d2.ravel()[cand] <= 1e-12 * norms.ravel()[cand]]
        near_r, near_c = np.divmod(cand, n)
        d2[near_r, near_c] = ((xc[start + near_r] - xc[near_c]) ** 2).sum(axis=1)
        sums[rows] = np.sqrt(d2, out=d2) @ onehot
    return sums


def separation_score(features: np.ndarray, labels: np.ndarray) -> dict:
    """Cluster-separation report: mean silhouette plus pairwise gap ratios.

    ``pair_ratios[i][j]`` divides the i-th and j-th retained labels' centroid
    gap by their mean spread. Labels with a single sample are excluded (with
    a warning); at least two populated labels must remain. Distances are
    Euclidean, making the score invariant under translation, rotation, and
    uniform scaling. The distance sums behind the silhouette come from
    ``_label_distance_sums``, one block of rows at a time in O(block ·
    samples) memory, with near-zero distances recomputed exactly.
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

    code = np.searchsorted(kept, y)
    onehot = (code[:, None] == np.arange(len(kept))).astype(float)
    xc = x - x.mean(axis=0)
    sums = _label_distance_sums(xc, onehot)
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


def ablation_table(report: Mapping) -> str:
    """``ablation_report``'s record as a tab-separated table, notices as comments."""
    names = sorted({name for row in report["rows"] for name in row["metrics"]})
    header = ["variant", "runs"] + [f"{name} (median / min / max)" for name in names]
    lines = ["\t".join(header)]
    for row in report["rows"]:
        line = [row["variant"], str(row["num_runs"])]
        for name in names:
            stats = row["metrics"].get(name)
            line.append("-" if stats is None else
                        f"{stats['median']:.6g} / {stats['min']:.6g} / {stats['max']:.6g}")
        lines.append("\t".join(line))
    lines.extend(f"# {notice}" for notice in report["notices"])
    return "\n".join(lines)
