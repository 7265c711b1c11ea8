"""End-to-end tests of the command-line surface.

Oracles: enumeration of produced files, byte-identical regeneration, the
split-train-plus-resume stream matching a single full run byte for byte,
refusal semantics with the documented exit codes, and report recomputation
from independently loaded checkpoints.
"""

import json
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import csmoe.cli
import csmoe.config
import csmoe.gradcheck
import csmoe.stages
from csmoe.autodiff import mul
from csmoe.checkpoint import load_checkpoint
from csmoe.cli import main
from csmoe.config import UPPER_BOUNDS, config_from_dict, config_hash
from csmoe.dataio import load_dataset
from csmoe.gradcheck import GRAD_LOSSES
from csmoe.stages import evaluate_dataset, generate_datasets, routing_probe
from oracles import read_metrics

TINY = {
    "num_languages": 2,
    "d_in": 8,
    "vocab_per_lang": 8,
    "utterance_length": 6,
    "train_utterances": 40,
    "val_utterances": 12,
    "d_model": 16,
    "num_layers": 2,
    "experts_per_group": 2,
    "top_k": 2,
    "prompt_len": 2,
    "stage1": {"total_batches": 12, "batch_size": 4, "learning_rate": 3e-3},
    "stage2": {"total_batches": 16, "batch_size": 4, "learning_rate": 3e-3},
    "stage3": {"total_batches": 12, "batch_size": 4, "learning_rate": 3e-3},
    "stage4": {"total_batches": 12, "batch_size": 4, "learning_rate": 3e-3},
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ----------------------------------------------------------------- gen-data


def test_gen_data_writes_all_splits(tmp_path, cfg_path):
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
    expected = {
        "config.json", "world.json",
        "asr_lang0.train.bin", "asr_lang0.val.bin",
        "asr_lang1.train.bin", "asr_lang1.val.bin",
        "st_lang0.train.bin", "st_lang0.val.bin",
        "st_lang1.train.bin", "st_lang1.val.bin",
        "cs.train.bin", "cs.val.bin",
    }
    assert {p.name for p in out.iterdir()} == expected
    assert len(load_dataset(out / "asr_lang0.train.bin")) == TINY["train_utterances"]
    assert len(load_dataset(out / "cs.val.bin")) == TINY["val_utterances"]


def test_gen_data_byte_identical_regeneration(tmp_path, cfg_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen-data", "--config", cfg_path, "--out", str(a)])
    main(["gen-data", "--config", cfg_path, "--out", str(b)])
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    assert set(ta) == set(tb)
    for name in ta:
        if name == "config.json":
            continue  # records the out_dir, which differs by construction
        assert ta[name] == tb[name], name


# -------------------------------------------------------------------- train


def test_train_requires_datasets(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    rc = main(["train", "--config", cfg_path, "--out", str(out)])
    assert rc == 2
    assert "gen-data" in capsys.readouterr().err


def test_train_refuses_datasets_drawn_from_other_data_fields(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({**TINY, "data_seed": 5}))
    assert main(["gen-data", "--config", str(seeded), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    assert "data_seed" in capsys.readouterr().err
    assert not (out / "checkpoints").exists() and not (out / "metrics.jsonl").exists()
    (out / "config.json").unlink()  # counts as missing gen-data output
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    assert "config.json" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [("", "--stages '' names no stage"),
                                           ("4-3", "bad stage range '4-3'")],
                         ids=["empty", "descending"])
def test_train_refuses_empty_stages_flag(tmp_path, cfg_path, capsys, flag, message):
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out), "--stages", flag]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "checkpoints").exists() and not (out / "metrics.jsonl").exists()


def test_train_full_run(tmp_path, cfg_path):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_metrics(out / "metrics.jsonl")
    step_rows = [r for r in rows if "step" in r]
    assert {r["stage"] for r in step_rows} == {1, 2, 3, 4}
    B = TINY["stage3"]["total_batches"]
    lams = [r["lam"] for r in step_rows if r["stage"] == 3]
    assert lams == [b / B for b in range(1, B + 1)]
    assert lams[-1] == 1.0
    for stage in (1, 2, 3, 4):
        assert (out / "checkpoints" / f"stage{stage}" / "manifest.json").exists()
    probes = [r for r in rows if "probe" in r]
    assert any(r["stage"] == 2 and "top1_in_group" in r["probe"] for r in probes)


@pytest.mark.parametrize("variant", ["full", "no-moe"])
@pytest.mark.parametrize("after", [1, 2])
def test_train_split_and_resume_matches_full_run(tmp_path, cfg_path, after, variant):
    # splitting after stage 1 resumes a grouped run from the projector list
    # and a no-moe run from its stage-1 TrainState
    full, split = tmp_path / "full", tmp_path / "split"
    for out in (full, split):
        main(["gen-data", "--config", cfg_path, "--out", str(out)])
    train = ["train", "--config", cfg_path, "--variant", variant, "--out"]
    assert main([*train, str(full)]) == 0
    assert main([*train, str(split), "--stages", f"1-{after}"]) == 0
    assert main([*train, str(split), "--stages", f"{after + 1}-4",
                 "--resume", str(split / "checkpoints" / f"stage{after}")]) == 0
    assert (full / "metrics.jsonl").read_bytes() == (split / "metrics.jsonl").read_bytes()
    fa = _tree_bytes(full / "checkpoints" / "stage4")
    fb = _tree_bytes(split / "checkpoints" / "stage4")
    assert fa == fb


def test_train_again_replaces_the_rows_of_the_stages_it_runs(tmp_path, cfg_path):
    # a fresh run empties metrics.jsonl, a resume at stage s drops the rows of
    # stages >= s, so training twice or resuming twice leaves one run's rows
    once, again, resumed = tmp_path / "once", tmp_path / "again", tmp_path / "resumed"
    for out in (once, again, resumed):
        main(["gen-data", "--config", cfg_path, "--out", str(out)])
    train = ["train", "--config", cfg_path, "--out"]
    assert main([*train, str(once)]) == 0
    for _ in range(2):
        assert main([*train, str(again)]) == 0
    assert main([*train, str(resumed), "--stages", "1-2"]) == 0
    for _ in range(2):
        assert main([*train, str(resumed), "--resume",
                     str(resumed / "checkpoints" / "stage2")]) == 0
    expected = (once / "metrics.jsonl").read_bytes()
    assert (again / "metrics.jsonl").read_bytes() == expected
    assert (resumed / "metrics.jsonl").read_bytes() == expected


def test_train_resume_refuses_other_config(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    main(["train", "--config", cfg_path, "--out", str(out), "--stages", "1,2"])
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({**TINY, "train_seed": 7}))
    rc = main(["train", "--config", str(seeded), "--out", str(out), "--stages", "3-4",
               "--resume", str(out / "checkpoints" / "stage2")])
    assert rc == 2
    assert "train_seed" in capsys.readouterr().err


@pytest.mark.parametrize("stages", [None, "4"])
def test_train_resume_past_the_last_stage_names_it(tmp_path, cfg_path, trained_dir,
                                                    stages, capsys):
    before = _tree_bytes(trained_dir)
    argv = ["train", "--config", cfg_path, "--out", str(trained_dir),
            "--resume", str(trained_dir / "checkpoints" / "stage4")]
    capsys.readouterr()
    assert main(argv + (["--stages", stages] if stages else [])) == 2
    assert "already at stage 4, so no stage is left to run" in capsys.readouterr().err
    assert _tree_bytes(trained_dir) == before


def test_train_non_finite_loss_exits_3_and_writes_no_checkpoint(
        tmp_path, cfg_path, monkeypatch, capsys):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    real_ce = csmoe.stages.cross_entropy
    monkeypatch.setattr(csmoe.stages, "cross_entropy",
                        lambda logits, targets: mul(real_ce(logits, targets), np.inf))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage 1" in err and "step 1" in err and "ce" in err, err
    assert not (out / "checkpoints").exists()
    assert not (out / "metrics.jsonl").exists()


def test_train_non_finite_loss_in_stage3_keeps_stage_1_2_rows_and_checkpoints(
        tmp_path, cfg_path, monkeypatch, capsys):
    full = tmp_path / "full"
    main(["gen-data", "--config", cfg_path, "--out", str(full)])
    assert main(["train", "--config", cfg_path, "--out", str(full)]) == 0
    full_lines = (full / "metrics.jsonl").read_text().splitlines(keepends=True)
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    real_transition = csmoe.stages.transition_loss
    monkeypatch.setattr(csmoe.stages, "transition_loss",
                        lambda *args: mul(real_transition(*args), np.inf))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage 3" in err and "step 1" in err and "transition" in err, err
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["stage1", "stage2"]
    lines = (out / "metrics.jsonl").read_text().splitlines(keepends=True)
    stages_seen = [json.loads(line)["stage"] for line in lines]
    assert sorted(set(stages_seen)) == [1, 2]
    assert any("probe" in json.loads(line) for line in lines)
    assert lines == full_lines[:len(lines)]
    assert json.loads(full_lines[len(lines)])["stage"] == 3


@pytest.mark.parametrize("field", ["token_margin", "separation", "lang_weight"])
def test_train_numerical_failure_exits_3_and_keeps_no_later_checkpoint(
        tmp_path, field, monkeypatch, capsys):
    # with the field's upper bound lifted, a finite but huge value passes the
    # validator; its overflow must not pass for a usage error (2) or go
    # unnoticed (0)
    monkeypatch.setitem(csmoe.config.UPPER_BOUNDS, field, math.inf)
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({**TINY, field: 1e300}))
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    failed = re.search(r"stage (\d) step (\d+): ", err)
    assert failed, err
    checkpoints = out / "checkpoints"
    written = sorted(p.name for p in checkpoints.iterdir()) if checkpoints.exists() else []
    assert written == [f"stage{s}" for s in range(1, int(failed.group(1)))]


# the default geometry with the three input-scale fields at their bounds:
# the router saturates at the first MoE step, so routing probabilities round
# to 1 (the language loss once took log(1 − p) of them and exited 3 there)
SATURATING = {"separation": 100.0, "noise_sigma": 0.5, "token_margin": 20.0,
              "train_utterances": 40, "val_utterances": 12,
              **{f"stage{s}": {"total_batches": b, "batch_size": 8, "learning_rate": 3e-3}
                 for s, b in ((1, 1), (2, 2), (3, 2), (4, 2))}}


@pytest.mark.parametrize("weights", [{}, {"lang_weight": 1e6, "balance_weight": 1e6}],
                         ids=["default-weights", "weights-at-bounds"])
def test_train_with_a_saturated_router_exits_0_with_finite_losses(tmp_path, weights):
    cfg = tmp_path / "saturating.json"
    cfg.write_text(json.dumps({**SATURATING, **weights}))
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    steps = [row for row in read_metrics(out / "metrics.jsonl") if "step" in row]
    assert [row["stage"] for row in steps] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert all("lang" in row for row in steps if row["stage"] in (2, 3))
    for row in steps:
        assert all(math.isfinite(v) for v in row.values()), row


def _old_jsonl(raw: bytes, path: Path) -> bytes:
    """The same split in the earlier one-JSON-object-per-line format."""
    return "".join(json.dumps({
        "task": u.task, "language": u.language, "features": u.features.tolist(),
        "targets": u.targets.tolist(), "source_tokens": u.source_tokens.tolist(),
        "segments": (None if u.segments is None
                     else [[s.start, s.end, s.language] for s in u.segments]),
    }, sort_keys=True) + "\n" for u in load_dataset(path)).encode()


def _fewer_header_tokens(raw: bytes, path: Path) -> bytes:
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    header["utterances"][0]["targets"].pop()
    return json.dumps(header).encode() + b"\n" + body


def _tokens_moved_to_next_utterance(raw: bytes, path: Path) -> bytes:
    # the total token count still matches the body; utterance 0's segments
    # now run past its tokens and utterance 1's stop short of them
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    first, second = header["utterances"][:2]
    for key in ("targets", "source_tokens"):
        second[key].insert(0, first[key].pop())
    return json.dumps(header).encode() + b"\n" + body


def _first_utterance_emptied(raw: bytes, path: Path) -> bytes:
    # header and body agree, but utterance 0 has no tokens: its mean loss is NaN
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    first = header["utterances"][0]
    cut = len(first["targets"]) * header["d_in"] * 8
    first.update(targets=[], source_tokens=[], segments=None)
    return json.dumps(header).encode() + b"\n" + body[cut:]


def _first_utterance_labelled_language_0(raw: bytes, path: Path) -> bytes:
    # a well-formed split whose utterance 0 disagrees with the code-switched entry
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    header["utterances"][0]["language"] = 0
    return json.dumps(header).encode() + b"\n" + body


@pytest.mark.parametrize("damage", [
    lambda raw, path: raw[:-8],
    lambda raw, path: raw + bytes(8),
    _fewer_header_tokens,
    lambda raw, path: b"{not json" + raw[raw.index(b"\n"):],
    _old_jsonl,
    _tokens_moved_to_next_utterance,
    _first_utterance_emptied,
    _first_utterance_labelled_language_0,
], ids=["truncated-body", "trailing-bytes", "header-token-count", "header-not-json",
        "old-jsonl", "tokens-moved", "zero-token-utterance", "label-not-the-entrys"])
def test_train_refuses_damaged_dataset_by_name(tmp_path, cfg_path, damage, capsys):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    path = out / "cs.train.bin"
    path.write_bytes(damage(path.read_bytes(), path))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out / "checkpoints").exists()


def test_train_refuses_a_non_finite_feature_by_name(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    path = out / "cs.train.bin"
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + np.float64(np.inf).tobytes())  # the last feature
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "non-finite" in err
    assert not (out / "checkpoints").exists()


def test_disk_round_trip_is_invisible_to_training(tmp_path, cfg_path, monkeypatch):
    disk, memory = tmp_path / "disk", tmp_path / "memory"
    main(["gen-data", "--config", cfg_path, "--out", str(disk)])
    assert main(["train", "--config", cfg_path, "--out", str(disk)]) == 0
    monkeypatch.setattr(csmoe.cli, "_load_bundle",
                        lambda out, config: generate_datasets(config)[1])
    assert main(["train", "--config", cfg_path, "--out", str(memory)]) == 0
    assert (disk / "metrics.jsonl").read_bytes() == (memory / "metrics.jsonl").read_bytes()
    assert _tree_bytes(disk / "checkpoints") == _tree_bytes(memory / "checkpoints")


def test_train_variant_flag_reaches_config(tmp_path, cfg_path):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    assert main(["train", "--config", cfg_path, "--out", str(out),
                 "--variant", "no-moe"]) == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["variant"] == "no-moe"
    rows = [r for r in read_metrics(out / "metrics.jsonl") if "step" in r]
    assert all("lang" not in r and "balance" not in r for r in rows)


# --------------------------------------------------------------------- eval


@pytest.fixture()
def trained_dir(tmp_path, cfg_path):
    out = tmp_path / "run"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    main(["train", "--config", cfg_path, "--out", str(out)])
    return out


def test_eval_reports_all_three_splits(tmp_path, cfg_path, trained_dir):
    out = tmp_path / "eval"
    rc = main(["eval", "--config", cfg_path,
               "--checkpoint", str(trained_dir / "checkpoints" / "stage4"),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"cs", "mono", "both"}
    cs, mono, both = report["cs"], report["mono"], report["both"]
    # the Both split is exactly the record-weighted combination
    assert both["ce_sum"] == cs["ce_sum"] + mono["ce_sum"]
    assert both["tokens"] == cs["tokens"] + mono["tokens"]
    assert both["ce"] == both["ce_sum"] / both["tokens"]
    # and agrees with independently recomputed per-record outputs
    config = config_from_dict(json.loads(Path(cfg_path).read_text()))
    state = load_checkpoint(trained_dir / "checkpoints" / "stage4", config)
    _, bundle = generate_datasets(config)
    again = evaluate_dataset(state, tuple(bundle.cs_val) + tuple(bundle.st_val))
    assert abs(again["ce"] - both["ce"]) < 1e-12
    assert again["correct"] == both["correct"]


def test_eval_loads_a_checkpoint_under_integer_spelled_float_fields(tmp_path, trained_dir):
    # 3 and 3.0 give the same config, so they must give the same hash
    def rate(value):
        return config_from_dict({**TINY, "stage1": {**TINY["stage1"], "learning_rate": value}})

    assert config_hash(rate(3)) == config_hash(rate(3.0))
    cfg = tmp_path / "spelled.json"
    cfg.write_text(json.dumps({**TINY, "lang_weight": 1, "balance_weight": 10}))
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "eval"),
                 "--checkpoint", str(trained_dir / "checkpoints" / "stage4")]) == 0


def test_eval_identical_report_bytes(tmp_path, cfg_path, trained_dir):
    a, b = tmp_path / "e1", tmp_path / "e2"
    for out in (a, b):
        main(["eval", "--config", cfg_path,
              "--checkpoint", str(trained_dir / "checkpoints" / "stage4"),
              "--out", str(out)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def _entry_file(manifest, index, file):
    params = [dict(entry) for entry in manifest["params"]]
    params[index]["file"] = file
    return {**manifest, "params": params}


@pytest.fixture(scope="module")
def stage2_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("stage2")
    (root / "config.json").write_text(json.dumps(TINY))
    out = root / "run"
    main(["gen-data", "--config", str(root / "config.json"), "--out", str(out)])
    main(["train", "--config", str(root / "config.json"), "--out", str(out), "--stages", "1,2"])
    return out


@pytest.mark.parametrize("damage", [
    lambda m: {k: v for k, v in m.items() if k != "stage"},
    lambda m: {**m, "stage": [2]},
    lambda m: {**m, "stage": 7},
    lambda m: {**m, "stage": True},
    # a stage the config gives another layout: the listed parameters are not stage 1's
    lambda m: {**m, "stage": 1},
    lambda m: [1, 2],
    lambda m: {**m, "params": {}},
    lambda m: {**m, "params": [{**m["params"][0], "shape": 5}, *m["params"][1:]]},
    lambda m: {**m, "params": [{**m["params"][0], "shape": ["x", *m["params"][0]["shape"][1:]]},
                               *m["params"][1:]]},
    # one layer's expert files have the same shape, so this one used to load silently
    lambda m: _entry_file(m, 0, m["params"][1]["file"]),
    lambda m: _entry_file(m, 0, "../stage1/params/lang0.mlp.layer0.bin"),
    # a config is read only when the hashes differ, so these change the hash too
    lambda m: {**m, "config": 5, "config_hash": "0"},
    lambda m: {**m, "config": None, "config_hash": "0"},
    lambda m: {**m, "config": {"variant": "bogus"}, "config_hash": "0"},
    None,  # manifest.json is a directory
], ids=["no-stage", "stage-list", "stage-7", "stage-bool", "stage-1-layout", "list",
        "params-not-list", "shape-not-list", "shape-not-int", "other-param-file",
        "file-outside-params", "config-number", "config-null", "config-bad-variant",
        "directory"])
@pytest.mark.parametrize("command", ["eval", "train-resume"])
def test_damaged_checkpoint_manifest_exits_2_naming_it(
        tmp_path, cfg_path, stage2_dir, damage, command, capsys):
    run = tmp_path / "run"
    shutil.copytree(stage2_dir, run)
    checkpoint = run / "checkpoints" / "stage2"
    manifest = checkpoint / "manifest.json"
    if damage is None:
        manifest.unlink()
        manifest.mkdir()
    else:
        manifest.write_text(json.dumps(damage(json.loads(manifest.read_text()))))
    if command == "eval":
        argv = ["eval", "--config", cfg_path, "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "eval")]
    else:
        argv = ["train", "--config", cfg_path, "--out", str(run), "--resume", str(checkpoint)]
    before = _tree_bytes(run)
    capsys.readouterr()
    assert main(argv) == 2
    assert str(manifest) in capsys.readouterr().err
    assert _tree_bytes(run) == before


def test_eval_refuses_a_non_finite_checkpoint_payload_by_name(
        tmp_path, cfg_path, stage2_dir, capsys):
    run = tmp_path / "run"
    shutil.copytree(stage2_dir, run)
    checkpoint = run / "checkpoints" / "stage2"
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    payload = checkpoint / manifest["params"][0]["file"]
    payload.write_bytes(np.float64(np.nan).tobytes() + payload.read_bytes()[8:])
    capsys.readouterr()
    assert main(["eval", "--config", cfg_path, "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(payload) in err and "non-finite" in err
    assert not (tmp_path / "eval" / "report.json").exists()


@pytest.mark.parametrize("damaged", ["config-file", "manifest", "data-config"])
def test_json_input_that_is_not_utf8_exits_2_naming_it(
        tmp_path, cfg_path, stage2_dir, damaged, capsys):
    run = tmp_path / "run"
    shutil.copytree(stage2_dir, run)
    checkpoint = run / "checkpoints" / "stage2"
    if damaged == "config-file":
        path = tmp_path / "bad.json"
        argv = ["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]
    elif damaged == "manifest":
        path = checkpoint / "manifest.json"
        argv = ["eval", "--config", cfg_path, "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "eval")]
    else:
        path = run / "config.json"
        argv = ["train", "--config", cfg_path, "--out", str(run), "--resume", str(checkpoint)]
    path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark before "{}"
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


def test_eval_rejects_stage1_checkpoint(tmp_path, cfg_path, trained_dir, capsys):
    rc = main(["eval", "--config", cfg_path,
               "--checkpoint", str(trained_dir / "checkpoints" / "stage1"),
               "--out", str(tmp_path / "e")])
    assert rc == 2
    assert "stage" in capsys.readouterr().err.lower()


# --------------------------------------------------------- grad-check/ablate


def test_grad_check_command(tmp_path, capsys):
    out = tmp_path / "gc"
    rc = main(["grad-check", "--seed", "0", "--instances", "2", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert "stage3_total" in report["losses"]
    rows = [line for line in capsys.readouterr().out.splitlines() if "max_rel_err=" in line]
    assert [row.split()[0] for row in rows] == list(GRAD_LOSSES)
    # one column for every name, the longest included
    assert len({row.index(" max_rel_err=") for row in rows}) == 1


def test_grad_check_takes_no_config(tmp_path, capsys):
    # the harness draws its own instances, so a config file would go unread
    with pytest.raises(SystemExit) as err:
        main(["grad-check", "--config", str(tmp_path / "missing.json"), "--instances", "1"])
    assert err.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_grad_check_refuses_negative_seed_by_flag(monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(csmoe.gradcheck, "_make_instance",
                        lambda *args: drawn.append(args))
    assert main(["grad-check", "--seed", "-1", "--instances", "1"]) == 2
    assert "--seed -1" in capsys.readouterr().err
    assert drawn == []


@pytest.mark.parametrize("command", ["gen-data", "grad-check", "ablate", "eval", "routing-report"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, cfg_path, monkeypatch, capsys,
                                                   command):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    work = []
    monkeypatch.setattr(csmoe.gradcheck, "_make_instance", lambda *args: work.append(args))
    monkeypatch.setattr(csmoe.cli, "run_pipeline", lambda *args, **kw: work.append(args))
    monkeypatch.setattr(csmoe.cli, "load_checkpoint", lambda *args: work.append(args))
    checkpoint = ["--checkpoint", str(tmp_path / "checkpoint")]
    argv = {"gen-data": ["--config", cfg_path], "grad-check": ["--instances", "1"],
            "ablate": ["--config", cfg_path, "--seeds", "0,1"],
            "eval": ["--config", cfg_path, *checkpoint],
            "routing-report": ["--config", cfg_path, *checkpoint]}[command]
    assert main([command, *argv, "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "kept"
    assert work == []  # no sweep, pipeline or checkpoint load ran before the refusal


def test_ablate_two_variants(tmp_path, cfg_path, capsys):
    out = tmp_path / "ab"
    rc = main(["ablate", "--config", cfg_path, "--out", str(out),
               "--variants", "full,no-moe", "--seeds", "0"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"rows", "notices", "failures", "routing", "seeds"}
    assert all(set(row) == {"variant", "num_runs", "metrics"} for row in report["rows"])
    assert [row["variant"] for row in report["rows"]] == ["full", "no-moe"]
    assert report["failures"] == []
    csv_text = (out / "report.csv").read_text()
    assert csv_text.startswith("variant,")
    assert "no-moe" in csv_text
    stdout = capsys.readouterr().out
    assert "full" in stdout and "no-moe" in stdout


@pytest.mark.parametrize("flags, named", [
    (["--variants", "full,bogus", "--seeds", "0"],
     "--variants 'full,bogus': unknown variant 'bogus'"),
    (["--variants", "full", "--seeds", "x"], "--seeds 'x': 'x' is not"),
    (["--variants", "full", "--seeds", "0,-1"], "--seeds '0,-1': '-1' is not"),
    (["--variants", "full,full", "--seeds", "0"], "--variants 'full,full' names a value twice"),
    (["--variants", "full", "--seeds", "0,00"], "--seeds '0,00' names a value twice"),
    (["--variants", "", "--seeds", "0"], "--variants '' names no value"),
    (["--variants", "full", "--seeds", ""], "--seeds '' names no value"),
    (["--variants", " , ", "--seeds", "0"], "--variants ' , ' names no value"),
], ids=["unknown-variant", "seed-not-int", "negative-seed", "repeated-variant",
        "repeated-seed", "empty-variants", "empty-seeds", "blank-variants"])
def test_ablate_refuses_bad_flags_before_training(tmp_path, cfg_path, flags, named, capsys):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", cfg_path, "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "variant full seed" not in captured.out
    assert not (out / "report.json").exists()


def test_routing_report_command(tmp_path, cfg_path, trained_dir):
    out = tmp_path / "rr"
    rc = main(["routing-report", "--config", cfg_path,
               "--checkpoint", str(trained_dir / "checkpoints" / "stage4"),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"checkpoint_stage", "routing", "input", "projected"}
    assert set(report["input"]) == set(report["projected"]) == {"silhouette", "pair_ratios"}
    assert len(report["routing"]["top1_in_group"]) == 2
    assert -1.0 <= report["projected"]["silhouette"] <= 1.0
    assert -1.0 <= report["input"]["silhouette"] <= 1.0


def test_routing_report_on_a_no_moe_checkpoint_has_no_routing(tmp_path, capsys):
    cfg = tmp_path / "no-moe.json"
    cfg.write_text(json.dumps({**TINY, "variant": "no-moe"}))
    run, out = tmp_path / "run", tmp_path / "rr"
    main(["gen-data", "--config", str(cfg), "--out", str(run)])
    assert main(["train", "--config", str(cfg), "--out", str(run), "--stages", "1,2"]) == 0
    capsys.readouterr()
    assert main(["routing-report", "--config", str(cfg),
                 "--checkpoint", str(run / "checkpoints" / "stage2"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["routing"] is None
    assert '"routing": null' in (out / "report.json").read_text()
    stdout = capsys.readouterr().out
    assert "silhouette" in stdout and "in-group routing" not in stdout


def test_routing_report_runs_one_forward_over_the_scored_splits(
        tmp_path, cfg_path, trained_dir, monkeypatch):
    forwarded, generated = [], []
    forward, gen = csmoe.stages.moe_forward, csmoe.stages.gen_dataset

    def counted_forward(*args, **kwargs):
        forwarded.append(args[1].shape[0])
        return forward(*args, **kwargs)

    def counted_gen(*args, **kwargs):
        generated.append(args[1])
        return gen(*args, **kwargs)

    for module in (csmoe.cli, csmoe.stages):
        monkeypatch.setattr(module, "moe_forward", counted_forward)
    monkeypatch.setattr(csmoe.stages, "gen_dataset", counted_gen)
    out = tmp_path / "rr"
    checkpoint = trained_dir / "checkpoints" / "stage4"
    assert main(["routing-report", "--config", cfg_path, "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 0
    monkeypatch.undo()
    # only st_val (one file per language) and cs_val are regenerated
    assert generated == ["st", "st", "cs-st"]
    config = config_from_dict(json.loads(Path(cfg_path).read_text()))
    _, bundle = generate_datasets(config)
    probe_set = bundle.st_val + bundle.cs_val
    assert forwarded == [sum(u.length for u in probe_set)]
    report = json.loads((out / "report.json").read_text())
    probe = routing_probe(load_checkpoint(checkpoint, config), probe_set)
    assert report["routing"] == json.loads(json.dumps(probe))


# ------------------------------------------------------------ error surface


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["gen-data", "--config", ""], "--config"),
    (["gen-data", "--out", ""], "--out"),
    (["train", "--variant", ""], "--variant"),
    (["train", "--resume", ""], "--resume"),
    (["eval", "--checkpoint", ""], "--checkpoint"),
    (["grad-check", "--out", "", "--instances", "1"], "--out"),
], ids=["gen-data-config", "gen-data-out", "train-variant", "train-resume", "eval-checkpoint",
        "grad-check-out"])
def test_empty_flag_value_is_refused_before_any_work(tmp_path, cfg_path, monkeypatch, capsys,
                                                     argv, flag):
    # refused, not read as the flag left out (the default world, variant
    # full, out_dir runs/default, a fresh run); nothing is written
    monkeypatch.chdir(tmp_path)
    if argv[0] != "grad-check":  # the case's empty value comes last, so it wins
        argv = [argv[0], "--config", cfg_path, "--out", "o", *argv[1:]]
    assert main(argv) == 2
    assert f"{flag} is empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("data, field", [
    ({"num_langs": 3}, "num_langs"),
    ({"stage1": {**TINY["stage1"], "extra": 1}}, "stage1.extra"),
    ({"d_in": "16"}, "d_in"),
    ({"stage2": {"total_batches": 5}}, "stage2.batch_size"),
    ([{"a": 1}], "bad.json"),
    (3, "bad.json"),
    (None, "bad.json"),
    ({"normalize_aux": True}, "normalize_aux"),
], ids=["unknown", "unknown-stage-field", "mistyped", "missing-stage-field",
        "list-top-level", "number-top-level", "directory", "retired-normalize-aux"])
def test_bad_config_field_is_usage_error(tmp_path, capsys, data, field):
    bad = tmp_path / "bad.json"
    if data is None:
        bad.mkdir()
    else:
        bad.write_text(json.dumps(data))
    rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("d_model", 0), ("num_layers", 0), ("prompt_len", 0), ("cs_switches", 0),
    ("experts_per_group", 0),
    ("lang_weight", 0), ("balance_weight", -1),
    ("separation", float("nan")), ("separation", float("inf")),
    ("noise_sigma", float("inf")), ("token_margin", float("nan")),
    ("lang_weight", float("inf")), ("stage1.learning_rate", float("inf")),
    # an integer past the float range
    *(pytest.param(field, 10**400, id=f"{field}-10**400")
      for field in ("lang_weight", "stage1.learning_rate")),
    # finite but past the field's upper bound: gen-data used to exit 0, then train 3
    *((field, 1e300) for field in sorted(UPPER_BOUNDS)),
    # gen-data used to write every output into the working directory
    ("out_dir", ""),
])
def test_bad_config_value_is_rejected_before_training(tmp_path, capsys, field, value):
    stage, _, name = field.rpartition(".")
    data = {**TINY, stage: {**TINY[stage], name: value}} if stage else {**TINY, field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # non-finite floats as NaN / Infinity
    out = tmp_path / "o"
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "world.json").exists()


@pytest.mark.parametrize("command", ["eval", "routing-report", "ablate", "gen-data", "train"])
def test_seed_flag_is_rejected_where_nothing_reads_it(tmp_path, command, capsys):
    argv = [command, "--seed", "3", "--out", str(tmp_path / "o")]
    if command in ("eval", "routing-report"):
        argv += ["--checkpoint", str(tmp_path / "ck")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_train_refuses_the_retired_sampled_transition_mode(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    sampled = tmp_path / "sampled.json"
    sampled.write_text(json.dumps({**TINY, "transition_mode": "sampled"}))
    capsys.readouterr()
    assert main(["train", "--config", str(sampled), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "transition_mode" in err and "only 'mixed'" in err
    assert not (out / "checkpoints").exists()


def test_bad_variant_is_usage_error(tmp_path, cfg_path, capsys):
    out = tmp_path / "out"
    main(["gen-data", "--config", cfg_path, "--out", str(out)])
    rc = main(["train", "--config", cfg_path, "--out", str(out),
               "--variant", "fancy"])
    assert rc == 2
