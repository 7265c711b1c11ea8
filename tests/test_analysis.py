"""Tests for routing analytics, cluster separation, and ablation reporting.

Oracles: exact hand-built traces, Monte Carlo checks against symmetry
arguments (random routers route in-group at chance rate), and invariance
properties (relabeling permutations, rigid motions, uniform scaling).
"""

import warnings

import numpy as np
import pytest

from csmoe.analysis import (
    ablation_report,
    expert_load,
    routing_accuracy,
    separation_score,
)
from csmoe.autodiff import Tensor
from csmoe.projector import (
    CS_UNLABELED,
    LayerRouting,
    ProjectorConfig,
    RoutingTrace,
    build_moe_from_pretrained,
    init_mlp,
    moe_forward,
)
from csmoe.world import TASK_ASR, gen_utterance, gen_world


def make_trace(prob_rows_per_layer, labels):
    layers = []
    for rows in prob_rows_per_layer:
        rows = np.asarray(rows, dtype=float)
        sel_rows = []
        for r in rows:
            nz = np.flatnonzero(r > 0.0)
            if nz.size == 0:
                nz = np.array([0])
            sel_rows.append(nz)
        k = max(len(s) for s in sel_rows)
        sel = np.stack(
            [np.concatenate([s, np.full(k - len(s), s[-1], dtype=s.dtype)]) for s in sel_rows]
        ).astype(np.intp)
        layers.append(LayerRouting(sel, Tensor(rows)))
    return RoutingTrace(layers, np.asarray(labels))


GROUPS_2x2 = np.array([0, 0, 1, 1])


# ------------------------------------------------------------ routing_accuracy


def test_routing_accuracy_all_in_group():
    rows = [[0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]]
    trace = make_trace([rows, rows], labels=[0, 1])
    stats = routing_accuracy(trace, GROUPS_2x2)
    assert np.array_equal(stats.top1_in_group, [1.0, 1.0])
    assert np.array_equal(stats.topk_mass_in_group, [1.0, 1.0])
    assert np.array_equal(stats.topk_count_in_group, [1.0, 1.0])


def test_routing_accuracy_mixed_case_hand_value():
    # language-0 token argmaxes out-of-group in layer 2 with mass 0.25 in-group
    layer1 = [[0.75, 0.25, 0.0, 0.0]]
    layer2 = [[0.25, 0.0, 0.75, 0.0]]
    trace = make_trace([layer1, layer2], labels=[0])
    stats = routing_accuracy(trace, GROUPS_2x2)
    assert stats.top1_in_group[0] == 0.5  # 1 of 2 (token, layer) pairs
    assert abs(stats.topk_mass_in_group[0] - (1.0 + 0.25) / 2) < 1e-12
    # layer1 selects {0,1} (both in-group), layer2 selects {0,2} (half)
    assert abs(stats.topk_count_in_group[0] - (1.0 + 0.5) / 2) < 1e-12
    assert np.isnan(stats.top1_in_group[1])  # language 1 absent


def test_routing_accuracy_group_share_sums_to_one():
    rows = [
        [0.9, 0.1, 0.0, 0.0],
        [0.2, 0.8, 0.0, 0.0],
        [0.7, 0.3, 0.0, 0.0],
    ]
    trace = make_trace([rows], labels=[0, 0, 0])
    stats = routing_accuracy(trace, GROUPS_2x2)
    assert abs(stats.group_expert_share[0].sum() - 1.0) < 1e-12
    assert np.allclose(stats.group_expert_share[0], [2 / 3, 1 / 3])


def test_routing_accuracy_rejects_unlabeled():
    trace = make_trace([[[1.0, 0.0, 0.0, 0.0]]], labels=[CS_UNLABELED])
    with pytest.raises(ValueError):
        routing_accuracy(trace, GROUPS_2x2)


def test_random_router_routes_in_group_at_chance():
    # Untrained routers with m equal groups assign top-1 in-group at rate 1/m
    # on average. A single fixed router deviates by its own column geometry,
    # so the check averages over many independent router draws.
    cfg = ProjectorConfig(d_in=8, d_model=16, num_layers=2)
    mlps = [init_mlp(cfg, seed=g) for g in range(2)]
    rng = np.random.default_rng(0)
    fractions = []
    for router_seed in range(30):
        moe = build_moe_from_pretrained(mlps, n=3, k=3, seed=1000 + router_seed)
        x = rng.normal(size=(300, 8))
        labels = rng.integers(0, 2, size=300)
        _, trace = moe_forward(moe, Tensor(x), token_language=labels)
        stats = routing_accuracy(trace, moe.group_of)
        fractions.extend(stats.top1_in_group[np.isfinite(stats.top1_in_group)])
    assert abs(np.mean(fractions) - 0.5) < 0.05


def test_routing_accuracy_invariant_under_in_group_relabeling():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.01, 1.0, size=(8, 4))
    rows = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=8)
    perm = np.array([1, 0, 3, 2])  # swap within each group
    base = routing_accuracy(make_trace([rows], labels), GROUPS_2x2)
    swapped = routing_accuracy(make_trace([rows[:, perm]], labels), GROUPS_2x2)
    assert np.allclose(base.top1_in_group, swapped.top1_in_group)
    assert np.allclose(base.topk_mass_in_group, swapped.topk_mass_in_group)
    assert np.allclose(base.group_expert_share[:, ::-1], swapped.group_expert_share)


# ----------------------------------------------------------------- expert_load


def test_expert_load_uniform_three_experts():
    rows = [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
    trace = make_trace([rows], labels=[0, 0, 0])
    load = expert_load(trace, np.array([0, 0, 0]))
    assert np.allclose(load.shares, [1 / 3, 1 / 3, 1 / 3])
    assert load.group_ratio[0] == 1.0


def test_expert_load_dead_expert_reports_infinite_ratio():
    rows = [
        [0.9, 0.1, 0.0],
        [0.1, 0.9, 0.0],
    ]
    trace = make_trace([rows], labels=[0, 0])
    load = expert_load(trace, np.array([0, 0, 0]))
    assert load.group_ratio[0] == np.inf
    assert abs(load.shares.sum() - 1.0) < 1e-12


def test_expert_load_shares_use_global_argmax():
    # language-0 token whose global argmax sits in group 1 still counts toward
    # the global share of that expert
    rows = [[0.2, 0.0, 0.8, 0.0]]
    trace = make_trace([rows], labels=[0])
    load = expert_load(trace, GROUPS_2x2)
    assert np.allclose(load.shares, [0, 0, 1.0, 0])


# ------------------------------------------------------------ separation_score


def test_separation_point_masses_give_perfect_silhouette():
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
    labels = np.array([0, 0, 1, 1])
    report = separation_score(feats, labels)
    assert report.silhouette == 1.0
    assert report.pair_ratios.shape == (2, 2)


def test_separation_singleton_label_excluded_with_warning():
    feats = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [9.0, 9.0]])
    labels = np.array([0, 0, 1, 1, 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = separation_score(feats, labels)
    assert report.excluded == (2,)
    assert any("2" in str(w.message) for w in caught)
    assert report.labels == (0, 1)


def test_separation_requires_two_populated_labels():
    feats = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        separation_score(feats, np.array([0, 0, 0]))
    with pytest.raises(ValueError), pytest.warns(UserWarning, match="label 1"):
        separation_score(feats, np.array([0, 0, 1]))  # label 1 singleton


def test_separation_identical_distributions_near_zero():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(1000, 5))
    labels = np.arange(1000) % 2
    report = separation_score(feats, labels)
    assert abs(report.silhouette) < 0.05


def test_separation_invariant_under_rigid_motion_and_scale():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(60, 4)) + np.repeat(np.eye(4)[:2] * 3, 30, axis=0)
    labels = np.repeat([0, 1], 30)
    base = separation_score(feats, labels)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    moved = 2.7 * (feats @ q) + np.array([5.0, -3.0, 1.0, 0.0])
    other = separation_score(moved, labels)
    assert abs(base.silhouette - other.silhouette) < 1e-9
    assert np.allclose(base.pair_ratios, other.pair_ratios)


def test_separation_pair_ratios_symmetric():
    rng = np.random.default_rng(6)
    feats = np.concatenate([
        rng.normal(size=(20, 3)),
        rng.normal(size=(20, 3)) + 4.0,
        rng.normal(size=(20, 3)) - 4.0,
    ])
    labels = np.repeat([0, 1, 2], 20)
    report = separation_score(feats, labels)
    assert np.allclose(report.pair_ratios, report.pair_ratios.T)


def _silhouette_oracle(x, y):
    """Mean silhouette from the full pairwise-difference tensor, one sample at a time."""
    kept = np.unique(y)
    diffs = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    sil = np.empty(len(x))
    for i in range(len(x)):
        same = (y == y[i]) & (np.arange(len(x)) != i)
        a = dist[i, same].mean()
        b = min(dist[i, y == other].mean() for other in kept if other != y[i])
        top = max(a, b)
        sil[i] = 0.0 if top == 0.0 else (b - a) / top
    return float(sil.mean())


def _pair_ratios_oracle(x, y):
    kept = np.unique(y)
    centroids = np.stack([x[y == u].mean(axis=0) for u in kept])
    spreads = np.array([np.linalg.norm(x[y == u] - c, axis=1).mean() for u, c in zip(kept, centroids)])
    ratios = np.zeros((len(kept), len(kept)))
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            gap = np.linalg.norm(centroids[i] - centroids[j])
            spread = (spreads[i] + spreads[j]) / 2.0
            ratios[i, j] = ratios[j, i] = np.inf if spread == 0.0 else gap / spread
    return ratios


def _separation_case(seed):
    """2-4 labels, sizes at and around the 128-row block edges, a singleton
    label, far-from-origin data, exact duplicate rows and integer grids."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = (127, 128, 129, 256, 257)[seed] if seed < 5 else int(rng.integers(2 * k, 300))
    d = int(rng.integers(1, 9))
    y = np.concatenate([np.repeat(np.arange(k), 2), rng.integers(0, k, size=n - 2 * k)])
    x = rng.normal(size=(n, d)) + rng.uniform(0, 3) * rng.normal(size=(k, d))[y]
    if seed % 3 == 0:
        x = x * 1e3 + 1e4
    if seed % 4 == 0:
        x[rng.integers(0, n, size=n // 3)] = x[rng.integers(0, n, size=n // 3)]
    if seed % 5 == 0:
        x = np.round(x)
    if seed % 7 == 0:
        x, y = np.vstack([x, rng.normal(size=(1, d))]), np.append(y, k)
    order = rng.permutation(len(y))
    return x[order], y[order]


@pytest.mark.parametrize("seed", range(120))
def test_separation_matches_pairwise_oracle(seed):
    x, y = _separation_case(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singleton label
        report = separation_score(x, y)
    kept = np.isin(y, report.labels)
    assert abs(report.silhouette - _silhouette_oracle(x[kept], y[kept])) <= 1e-12
    assert np.array_equal(report.pair_ratios, _pair_ratios_oracle(x[kept], y[kept]))


def test_separation_memory_is_bounded_at_report_size():
    import tracemalloc

    rng = np.random.default_rng(10)
    x = rng.normal(size=(2304, 32))
    y = np.arange(2304) % 2
    tracemalloc.start()
    try:
        separation_score(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_separated_worlds_score_higher_than_overlapping_ones():
    # The constructed world's premise: separation 6 beats separation 0.5 in
    # every seeded trial.
    for seed in range(10):
        scores = {}
        for sep in (6.0, 0.5):
            w = gen_world(
                m=2, d_in=8, separation=sep, noise_sigma=0.1, vocab_per_lang=8, seed=seed
            )
            rng = np.random.default_rng(seed + 100)
            feats, labels = [], []
            for lang in range(2):
                for _ in range(10):
                    utt = gen_utterance(w, lang, TASK_ASR, length=10, rng=rng)
                    feats.append(utt.features)
                    labels.append(np.full(10, lang))
            scores[sep] = separation_score(
                np.concatenate(feats), np.concatenate(labels)
            ).silhouette
        assert scores[6.0] > scores[0.5], f"seed {seed}"


# ------------------------------------------------------------- ablation_report


def test_ablation_report_two_variants():
    results = {
        "full": [{"cs_ce": 1.0, "cs_accuracy": 0.9}, {"cs_ce": 1.2, "cs_accuracy": 0.85},
                 {"cs_ce": 1.1, "cs_accuracy": 0.88}],
        "no-moe": [{"cs_ce": 1.5, "cs_accuracy": 0.7}, {"cs_ce": 1.4, "cs_accuracy": 0.75},
                   {"cs_ce": 1.6, "cs_accuracy": 0.72}],
    }
    report = ablation_report(results)
    assert [r.variant for r in report.rows] == ["full", "no-moe"]
    full = report.rows[0]
    assert full.num_runs == 3
    assert full.metrics["cs_ce"]["median"] == 1.1
    assert full.metrics["cs_ce"]["min"] == 1.0
    assert full.metrics["cs_ce"]["max"] == 1.2
    # missing canonical variants are announced
    assert any("no-aux-losses" in n for n in report.notices)
    assert any("conventional-balance" in n for n in report.notices)


def test_ablation_report_canonical_row_order():
    results = {
        "conventional-balance": [{"cs_ce": 1.0}],
        "full": [{"cs_ce": 0.9}],
        "no-moe": [{"cs_ce": 1.1}],
        "no-aux-losses": [{"cs_ce": 1.05}],
    }
    report = ablation_report(results)
    assert [r.variant for r in report.rows] == [
        "full",
        "no-moe",
        "no-aux-losses",
        "conventional-balance",
    ]
    assert report.notices == ()


def test_ablation_report_rejects_empty():
    with pytest.raises(ValueError):
        ablation_report({})


def test_ablation_report_renders_table():
    results = {"full": [{"cs_ce": 1.0}], "no-moe": [{"cs_ce": 1.5}]}
    text = ablation_report(results).as_table()
    assert "full" in text and "no-moe" in text and "cs_ce" in text
