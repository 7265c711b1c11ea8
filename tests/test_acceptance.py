"""End-to-end acceptance checks for the training laboratory.

One test per advertised guarantee, each at its stated tolerance. Every test
prints a single ``ACCEPTANCE n: PASS/FAIL`` line with the measured values,
written straight to the terminal so the lines appear even while pytest
captures ordinary output. Heavy artifacts (multi-seed pipeline runs) are
shared through session-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csmoe.autodiff import Tensor
from csmoe.checkpoint import load_checkpoint, save_checkpoint
from csmoe.config import VARIANTS, ExperimentConfig
from csmoe.dataio import save_dataset, save_world
from csmoe.gradcheck import GRAD_LOSSES, grad_check_report
from csmoe.losses import (
    compose_stage_loss,
    conventional_balance_loss,
    intra_group_balance_loss,
    language_specific_loss,
    transition_loss,
)
from csmoe.projector import (
    ProjectorConfig,
    build_moe_from_pretrained,
    init_mlp,
    mlp_forward,
    moe_forward,
)
from csmoe.stages import (
    evaluate_dataset,
    generate_datasets,
    routing_probe,
    routing_terms,
    run_ablation,
    run_pipeline,
)
from oracles import make_trace, route

SEEDS = (0, 1, 2)


@pytest.fixture()
def report(capfd):
    """Print one ACCEPTANCE line per check, bypassing output capture."""

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)

    return _report


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


# --------------------------------------------------------- shared fixtures


@pytest.fixture(scope="session")
def ablation_runs():
    """Every variant and seed through all four stages, probed after stage 2.

    Returns ({(variant, seed): cs_ce}, metrics rows of the full-variant
    seed-0 run, total wall seconds for all twelve pipelines, {(variant,
    seed): stage-2 probe dict}, wall seconds of the full-variant runs up to
    their stage-2 probe, each with its seed's dataset generation). The probe
    evaluates routing on the entire validation set.
    """
    # full runs first in each seed, so its run starts with the seed's data generation
    assert VARIANTS[0] == "full"
    cs_ce, probes = {}, {}
    full_metrics = []
    full_elapsed = 0.0

    def probe(variant, seed, bundle, stage, state, rows):
        nonlocal full_elapsed
        if (variant, seed) == ("full", 0):
            full_metrics.extend(rows)
        if stage == 2:
            probes[(variant, seed)] = routing_probe(state, bundle.st_val + bundle.cs_val)
            if variant == "full":
                full_elapsed += time.perf_counter() - t_run

    t0 = t_run = time.perf_counter()
    for run in run_ablation(ExperimentConfig(), VARIANTS, SEEDS, after_stage=probe):
        assert run.error is None, f"{run.variant} seed {run.seed} failed: {run.error}"
        assert (run.variant, run.seed) in probes, "stage-2 probe did not run"
        cs_ce[(run.variant, run.seed)] = run.cs["ce"]
        t_run = time.perf_counter()  # the next run, or the next seed's data generation
    elapsed = time.perf_counter() - t0
    return cs_ce, full_metrics, elapsed, probes, full_elapsed


def _tiny_moe(m=2, n=3, k=3, d_in=4, d_model=4, L=2, seed=0):
    cfg = ProjectorConfig(d_in=d_in, d_model=d_model, num_layers=L)
    mlps = [init_mlp(cfg, seed=seed + g) for g in range(m)]
    return build_moe_from_pretrained(mlps, n=n, k=k, seed=seed + 100), mlps


# ------------------------------------------------------------------ checks


def test_criterion_1_gradients_match_finite_differences(report):
    t0 = time.perf_counter()
    result = grad_check_report(seed=0, instances=20)
    elapsed = time.perf_counter() - t0
    worst = max(entry["max_rel_err"] for entry in result["losses"].values())
    ok = (
        result["pass"]
        and set(result["losses"]) == set(GRAD_LOSSES)
        and result["instances"] == 20
        and (result["eps"], result["tol"]) == (1e-5, 1e-4)
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"{len(result['losses'])} losses x 20 instances, worst rel err "
        f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)",
    )
    assert result["pass"], f"gradient check failed: {result['losses']}"
    assert set(result["losses"]) == set(GRAD_LOSSES)
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_routing_matches_dense_softmax(report):
    worst = 0.0
    rng = np.random.default_rng(0)
    for m, n in ((2, 2), (2, 3), (3, 2)):
        moe, _ = _tiny_moe(m=m, n=n, k=m * n, d_in=5, d_model=4, L=1, seed=m * 10 + n)
        layer = moe.layers[0]
        for _ in range(20):
            h = rng.normal(size=5)
            idx, probs = route(layer, Tensor(h), k=m * n)
            z = h @ layer.router_weights.value.data
            dense = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            worst = max(worst, float(np.abs(probs.data - dense).max()))
            assert sorted(idx.tolist()) == list(range(m * n))

    # deterministic tie-break: equal logits select the lowest indices
    moe, _ = _tiny_moe(m=2, n=2, k=2, d_in=3, d_model=4, L=1, seed=3)
    tie_layer = moe.layers[0]
    tie_layer.router_weights.value.data[...] = 0.0
    idx, probs = route(tie_layer, Tensor([1.0, 2.0, 3.0]), k=2)
    tie_ok = idx.tolist() == [0, 1] and probs.data.tolist() == [0.5, 0.5, 0.0, 0.0]

    # subset normalization: softmax over the selected set, exact zeros outside
    sub_layer = moe.layers[0]
    sub_layer.router_weights.value.data[...] = 0.0
    sub_layer.router_weights.value.data[0, :] = [np.log(1.0), np.log(3.0), -50.0, -50.0]
    idx, probs = route(sub_layer, Tensor([1.0, 0.0, 0.0]), k=2)
    sub_ok = (
        idx.tolist() == [0, 1]
        and abs(probs.data[0] - 0.25) <= 1e-15
        and abs(probs.data[1] - 0.75) <= 1e-15
        and probs.data[2] == 0.0
        and probs.data[3] == 0.0
    )

    ok = worst < 1e-12 and tie_ok and sub_ok
    report(
        2,
        ok,
        f"k=N vs dense softmax max abs diff {worst:.2e} (< 1e-12), "
        f"tie-break exact: {tie_ok}, subset normalization exact: {sub_ok}",
    )
    assert worst < 1e-12
    assert tie_ok and sub_ok


def test_criterion_3_loss_closed_forms(report):
    # language loss: one token with out-group mass 0.2 -> -log(0.8)
    lang = language_specific_loss(
        make_trace([[[0.5, 0.3, 0.2, 0.0]]], labels=[0], groups=2)
    ).item()
    lang_err = abs(lang - (-math.log(0.8)))

    # intra-group balance at the uniform point: L * m / n
    L, m, n = 3, 2, 2
    lang0 = [[0.5625, 0.4375, 0.0, 0.0], [0.4375, 0.5625, 0.0, 0.0]]
    lang1 = [[0.0, 0.0, 0.5625, 0.4375], [0.0, 0.0, 0.4375, 0.5625]]
    intra = intra_group_balance_loss(make_trace([lang0 + lang1] * L, labels=[0, 0, 1, 1],
                                                groups=m)).item()
    intra_err = abs(intra - L * m / n)

    # conventional balance at the uniform point: 1/N per layer
    rows = [
        [0.3125, 0.25, 0.25, 0.1875],
        [0.1875, 0.3125, 0.25, 0.25],
        [0.25, 0.1875, 0.3125, 0.25],
        [0.25, 0.25, 0.1875, 0.3125],
    ]
    conv1 = conventional_balance_loss(make_trace([rows])).item()
    conv3 = conventional_balance_loss(make_trace([rows] * 3)).item()
    conv_err = max(abs(conv1 - 0.25), abs(conv3 - 0.75))

    # transition schedule endpoint: final blend weight is exactly 1 and the
    # blend then equals the target term bit-for-bit
    B = 7
    lams = [b / B for b in range(1, B + 1)]
    src, tgt = Tensor(1.7), Tensor(0.3)
    final = transition_loss(src, tgt, 1.0).item()
    endpoint_ok = (
        lams[-1] == 1.0
        and all(b < a for b, a in zip(lams, lams[1:]))
        and final == tgt.item()
    )

    ok = lang_err <= 1e-9 and intra_err <= 1e-9 and conv_err <= 1e-9 and endpoint_ok
    report(
        3,
        ok,
        f"language -log(0.8) err {lang_err:.1e}, intra uniform L*m/n err "
        f"{intra_err:.1e}, conventional uniform 1/N err {conv_err:.1e} "
        f"(all <= 1e-9), final blend weight exact: {endpoint_ok}",
    )
    assert lang_err <= 1e-9
    assert intra_err <= 1e-9
    assert conv_err <= 1e-9
    assert endpoint_ok


def test_criterion_4_stage2_routing_specialization(ablation_runs, report):
    _, _, _, probes, elapsed = ablation_runs
    m = ExperimentConfig().num_languages
    per_lang_medians = [
        _median([probes[("full", s)]["top1_in_group"][g] for s in SEEDS])
        for g in range(m)
    ]
    ok = min(per_lang_medians) >= 0.90 and elapsed < 180.0
    report(
        4,
        ok,
        f"per-language top-1 in-group medians "
        f"{['%.4f' % v for v in per_lang_medians]} (>= 0.90), "
        f"3-seed stages-1-2 wall time {elapsed:.1f}s (< 180s)",
    )
    assert min(per_lang_medians) >= 0.90
    assert elapsed < 180.0


def test_criterion_5_grouped_experts_beat_shared_mlp(ablation_runs, report):
    cs_ce, _, _, _, _ = ablation_runs
    med_full = _median([cs_ce[("full", s)] for s in SEEDS])
    med_shared = _median([cs_ce[("no-moe", s)] for s in SEEDS])
    ok = med_full <= med_shared
    report(
        5,
        ok,
        f"code-switch val CE median: grouped experts {med_full:.4f} <= "
        f"shared MLP {med_shared:.4f}",
    )
    assert med_full <= med_shared


def test_criterion_6_ablation_directions(ablation_runs, report):
    cs_ce, _, elapsed, _, _ = ablation_runs
    med = {v: _median([cs_ce[(v, s)] for s in SEEDS]) for v in VARIANTS}
    ok = (
        med["full"] < med["no-moe"]
        and med["full"] < med["no-aux-losses"]
        and med["full"] <= med["conventional-balance"]
        and elapsed < 1800.0
    )
    report(
        6,
        ok,
        f"median CS val CE: full {med['full']:.4f} < no-moe {med['no-moe']:.4f}, "
        f"full < no-aux-losses {med['no-aux-losses']:.4f}, full <= "
        f"conventional-balance {med['conventional-balance']:.4f}; suite "
        f"{elapsed:.0f}s (< 1800s)",
    )
    assert med["full"] < med["no-moe"]
    assert med["full"] < med["no-aux-losses"]
    assert med["full"] <= med["conventional-balance"]
    assert elapsed < 1800.0


def test_criterion_7_balance_restrains_within_group_load(ablation_runs, report):
    _, _, _, probes, _ = ablation_runs
    with_ratio = _median(
        [max(probes[("full", s)]["group_ratio"]) for s in SEEDS]
    )
    without_ratio = _median(
        [max(probes[("no-aux-losses", s)]["group_ratio"]) for s in SEEDS]
    )
    ok = with_ratio <= without_ratio and with_ratio <= 2.0
    report(
        7,
        ok,
        f"stage-2 within-group max/min load: with balance {with_ratio:.3f} <= "
        f"without {without_ratio:.3f}, and <= 2.0",
    )
    assert with_ratio <= without_ratio
    assert with_ratio <= 2.0


def test_criterion_8_schedule_and_stage_contracts(ablation_runs, report):
    _, full_metrics, _, _, _ = ablation_runs

    # blend weight strictly increasing to exactly 1 in both transition stages
    schedule_ok = True
    for stage in (3, 4):
        lams = [row["lam"] for row in full_metrics
                if row.get("stage") == stage and "lam" in row]
        B = len(lams)
        schedule_ok = schedule_ok and B > 0 and lams == [b / B for b in range(1, B + 1)]
        schedule_ok = schedule_ok and all(x < y for x, y in zip(lams, lams[1:]))
        schedule_ok = schedule_ok and lams[-1] == 1.0

    # the run's loss sets: stage 4 trains on the transition term alone and
    # stages 2-3 add both routing penalties
    steps = [row for row in full_metrics if "step" in row]
    stage4_pure = all("lang" not in row and "balance" not in row
                      and row["total"] == row["transition"]
                      for row in steps if row["stage"] == 4)
    routed = all("lang" in row and "balance" in row
                 for row in steps if row["stage"] in (2, 3))
    loss_sets_ok = (stage4_pure and routed
                    and {row["stage"] for row in steps} == {1, 2, 3, 4})

    # composed stage-4 objective is the transition term itself: stage 4 adds
    # no routing terms, and an objective without them is its core
    tr = Tensor(0.625)
    config = ExperimentConfig()
    compose_ok = (routing_terms(config, 4, None) == {}
                  and compose_stage_loss(config, tr, {}) is tr)

    # grouped-expert build: every same-group expert replicates its source
    # MLP layer bit-exactly
    moe, mlps = _tiny_moe(m=2, n=3, k=3, d_in=6, d_model=5, L=2, seed=21)
    replicate_ok = all(
        np.array_equal(
            layer.expert_weights[g * 3 + j].value.data, mlps[g].layers[l].value.data
        )
        for l, layer in enumerate(moe.layers)
        for g in range(2)
        for j in range(3)
    )

    # group symmetry: swapping same-group experts with their router columns
    # leaves the forward output unchanged
    x = np.random.default_rng(4).normal(size=(9, 6))
    base, _ = moe_forward(moe, Tensor(x))
    for layer in moe.layers:
        ew = layer.expert_weights
        ew[3], ew[5] = ew[5], ew[3]
        w = layer.router_weights.value.data
        w[:, [3, 5]] = w[:, [5, 3]]
    swapped, _ = moe_forward(moe, Tensor(x))
    symmetry_err = float(np.abs(swapped.data - base.data).max())

    # MLP equivalence: with routing confined to one group of replicas the
    # mixture output equals that group's source MLP
    moe2, mlps2 = _tiny_moe(m=2, n=3, k=3, d_in=6, d_model=5, L=2, seed=33)
    for layer in moe2.layers:
        layer.router_weights.value.data[:, :3] = 5.0
        layer.router_weights.value.data[:, 3:] = -5.0
    x2 = np.abs(np.random.default_rng(5).normal(size=(7, 6))) + 0.1
    moe_out, trace = moe_forward(moe2, Tensor(x2))
    mlp_out = mlp_forward(mlps2[0], Tensor(x2))
    in_group = all(
        set(np.unique(lr.selected)) <= {0, 1, 2} for lr in trace.layers
    )
    equiv_err = float(np.abs(moe_out.data - mlp_out.data).max())

    ok = (
        schedule_ok
        and loss_sets_ok
        and compose_ok
        and replicate_ok
        and symmetry_err <= 1e-12
        and in_group
        and equiv_err <= 1e-12
    )
    report(
        8,
        ok,
        f"blend schedule exact: {schedule_ok}, run loss sets (stage 4 transition "
        f"only, stages 2-3 routed): {loss_sets_ok}, stage-4 objective pure "
        f"transition: {compose_ok}, "
        f"replication bit-exact: {replicate_ok}, group-symmetry err "
        f"{symmetry_err:.1e}, MLP-equivalence err {equiv_err:.1e} (<= 1e-12)",
    )
    assert schedule_ok
    assert loss_sets_ok
    assert compose_ok
    assert replicate_ok
    assert symmetry_err <= 1e-12
    assert in_group and equiv_err <= 1e-12


def test_criterion_9_engineering_invariants(tmp_path, report):
    config = ExperimentConfig()
    _, bundle = generate_datasets(config)

    # bit-exact determinism across two identical pipeline runs
    a = run_pipeline(config, bundle)
    b = run_pipeline(config, bundle)
    params_equal = all(
        pa.name == pb.name and np.array_equal(pa.value.data, pb.value.data)
        for pa, pb in zip(a.state.parameters(), b.state.parameters())
    )
    metrics_equal = a.metrics == b.metrics

    # checkpoint round-trip: restored state reproduces a probe batch exactly
    save_checkpoint(tmp_path / "ckpt", config, a.state)
    restored = load_checkpoint(tmp_path / "ckpt", config)
    probe = tuple(bundle.cs_val[:8])
    before = evaluate_dataset(a.state, probe)
    after = evaluate_dataset(restored, probe)
    roundtrip_ok = before == after and all(
        np.array_equal(pa.value.data, pr.value.data)
        for pa, pr in zip(a.state.parameters(), restored.parameters())
    )

    # dataset regeneration writes byte-identical files
    world1, bundle1 = generate_datasets(config)
    world2, bundle2 = generate_datasets(config)
    save_world(tmp_path / "w1.json", world1)
    save_world(tmp_path / "w2.json", world2)
    save_dataset(tmp_path / "d1.jsonl", bundle1.cs_train)
    save_dataset(tmp_path / "d2.jsonl", bundle2.cs_train)
    regen_ok = (
        (tmp_path / "w1.json").read_bytes() == (tmp_path / "w2.json").read_bytes()
        and (tmp_path / "d1.jsonl").read_bytes() == (tmp_path / "d2.jsonl").read_bytes()
    )

    ok = params_equal and metrics_equal and roundtrip_ok and regen_ok
    report(
        9,
        ok,
        f"two-run determinism bit-exact: {params_equal and metrics_equal}, "
        f"checkpoint round-trip exact on probe batch: {roundtrip_ok}, "
        f"dataset regeneration byte-identical: {regen_ok}",
    )
    assert params_equal and metrics_equal
    assert roundtrip_ok
    assert regen_ok
