"""Tests of the benchmark's own arithmetic and of its tracing wrappers."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import figures  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (19, None),
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (499, 95.0),
    (500, 98.0),
    (705, 98.0),  # Adam step intervals in one default curriculum pass
    (999, 98.0),
    (1000, 99.0),
    (2000, 99.5),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert figures.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10 - 1e-9


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
    assert figures.percentile(values, 50) == 50
    assert figures.percentile(values, 98) == 98
    assert figures.percentile(values, 100) == 100
    assert figures.percentile([7.0], 98) == 7.0


def test_spread_is_interquartile_range_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = figures.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert figures.spread(values) == pytest.approx(5.5 / 5.5)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ["root", 0.0, 10.0, None, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["c", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 9.0, 0, "r"],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_run_figures_attributes_self_time_per_layer():
    rec = tracing.Recorder()
    rec.spans = [
        ["cli.cmd_train", 0.0, 10.0, None, "p"],
        ["stages.run_stage1", 1.0, 9.0, 0, "p"],
        ["autodiff.backward", 2.0, 5.0, 1, "p"],
        ["cli.cmd_eval", 0.0, 1.0, None, "other"],
    ]
    out = tracing.run_figures(rec, "p", wall_s=12.0)
    assert out["cli.self.ms"] == pytest.approx(2000.0)
    assert out["stages.self.ms"] == pytest.approx(5000.0)
    assert out["autodiff.self.ms"] == pytest.approx(3000.0)
    assert out["stages.stage1.s"] == pytest.approx(8.0)
    assert out["cli.train.ms"] == pytest.approx(10000.0)
    assert out["cli.eval.ms"] == 0.0
    assert out["trace.unattributed_share"] == pytest.approx(2.0 / 12.0)
    assert set(out) | {"trace.overhead_share"} == set(tracing.per_layer_names())


def _snapshot():
    import csmoe.autodiff

    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "csmoe" or name.startswith("csmoe.")}
    return spaces, dict(vars(csmoe.autodiff.Adam))


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_leave_every_csmoe_namespace_as_found():
    import csmoe.cli  # noqa: F401  (loads every layer)

    spaces, adam = _snapshot()
    patches = tracing.install(tracing.Recorder())
    try:
        stages = sys.modules["csmoe.stages"]
        assert stages.backward is not spaces["csmoe.autodiff"]["backward"]
        assert stages.moe_forward is sys.modules["csmoe.cli"].moe_forward
        assert sys.modules["csmoe.autodiff"].Adam.step is not adam["step"]
    finally:
        tracing.uninstall(patches)
    after, adam_after = _snapshot()
    assert after.keys() == spaces.keys()
    for name in spaces:
        assert _same(spaces[name], after[name]), name
    assert _same(adam, adam_after)


def test_wrapped_calls_return_what_the_originals_return():
    import numpy as np
    from csmoe.autodiff import Tensor
    from csmoe.projector import ProjectorConfig, build_moe_from_pretrained, init_mlp

    mlps = [init_mlp(ProjectorConfig(3, 4, 2), [0, g]) for g in range(2)]
    moe = build_moe_from_pretrained(mlps, 2, 2, [0, 9])
    feats = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    plain = sys.modules["csmoe.projector"].moe_forward(moe, feats)[0].data
    rec = tracing.Recorder()
    rec.run = "t"
    patches = tracing.install(rec)
    try:
        traced = sys.modules["csmoe.projector"].moe_forward(moe, feats)[0].data
    finally:
        tracing.uninstall(patches)
    assert np.array_equal(plain, traced)
    assert [s[0] for s in rec.spans] == ["projector.moe_forward"]
    assert rec.counts[("t", "projector.moe_forward.tokens")] == 5
    # dense mixture: every token meets all 4 experts in both layers, 2 selected
    assert rec.counts[("t", "projector.expert_rows_multiplied")] == 5 * 4 * 2
    assert rec.counts[("t", "projector.expert_rows_useful")] == 5 * 2 * 2


def test_benchmark_json_lists_what_the_runs_print():
    import json

    import run

    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, tracing.metric_unit(n)) for n in tracing.per_layer_names()]
