"""Serialization round-trip tests for worlds, datasets, metrics, and reports.

Oracles: exact array equality after round-trips (JSON float text is
shortest-round-trip and dataset features are stored as raw float64, so both
survive bit for bit), byte-identical rewrites, structural fidelity of
segments and labels, containers that refuse a changed byte or another kind,
and writes that, cut off, leave the earlier file as it was.
"""

import errno
import re
from pathlib import Path

import numpy as np
import pytest

from csmoe.dataio import (
    append_metrics,
    load_container,
    load_dataset,
    save_container,
    save_dataset,
    save_world,
    write_json,
)
from csmoe.config import ExperimentConfig
from csmoe.stages import build_world, generate_splits, split_table
from csmoe.world import TASK_ASR, TASK_CS_ST, TASK_ST, gen_dataset, gen_world
from oracles import load_world, read_metrics, reseal, unseal


@pytest.fixture(scope="module")
def world():
    return gen_world(3, 12, 6.0, 0.1, 8, seed=5)


def test_world_round_trip_exact(tmp_path, world):
    save_world(tmp_path / "world.json", world)
    back = load_world(tmp_path / "world.json")
    assert back.d_in == world.d_in
    assert back.separation == world.separation
    assert back.seed == world.seed
    assert back.num_languages == world.num_languages
    for a, b in zip(world.languages, back.languages):
        assert np.array_equal(a.centroid, b.centroid)
        assert np.array_equal(a.token_embeddings, b.token_embeddings)
        assert np.array_equal(a.st_bijection, b.st_bijection)
        assert a.vocab_start == b.vocab_start
        assert a.noise_sigma == b.noise_sigma


def test_world_save_is_deterministic(tmp_path, world):
    save_world(tmp_path / "a.json", world)
    save_world(tmp_path / "b.json", world)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("task,language,switches", [
    (TASK_ASR, 1, 1),
    (TASK_ST, 0, 1),
    (TASK_CS_ST, None, 2),
])
def test_dataset_round_trip_exact(tmp_path, world, task, language, switches):
    data = gen_dataset(world, task, language, 5, 7, seed=[3, 1],
                       num_switches=switches)
    _assert_round_trip_exact(tmp_path, data)


def test_config_cs_split_round_trip_exact(tmp_path):
    config = ExperimentConfig(num_languages=3, train_utterances=6, val_utterances=4)
    (entry,) = [e for e in split_table(config) if e.task == TASK_CS_ST and e.split == "train"]
    ((_, data),) = generate_splits(config, build_world(config), [entry])
    assert all(u.segments for u in data)
    _assert_round_trip_exact(tmp_path, data)


def _assert_round_trip_exact(tmp_path, data):
    save_dataset(tmp_path / "d.bin", data)
    back = load_dataset(tmp_path / "d.bin")
    assert len(back) == len(data)
    for a, b in zip(data, back):
        assert np.array_equal(a.features, b.features)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.source_tokens, b.source_tokens)
        assert a.task == b.task and a.language == b.language
        assert a.segments == b.segments
        assert np.array_equal(a.training_labels(), b.training_labels())
        assert np.array_equal(a.token_languages(), b.token_languages())


def test_dataset_save_is_deterministic(tmp_path, world):
    data = gen_dataset(world, TASK_CS_ST, None, 4, 6, seed=9)
    save_dataset(tmp_path / "a.jsonl", data)
    save_dataset(tmp_path / "b.jsonl", data)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_metrics_append_and_read(tmp_path):
    path = tmp_path / "metrics.jsonl"
    append_metrics(path, 1, [{"stage": 1, "step": 1, "ce": 3.25},
                             {"stage": 1, "step": 2, "ce": 3.0}])
    append_metrics(path, 2, [{"stage": 2, "probe": {"x": 1.5}}])
    rows = read_metrics(path)
    assert rows == [
        {"stage": 1, "step": 1, "ce": 3.25},
        {"stage": 1, "step": 2, "ce": 3.0},
        {"stage": 2, "probe": {"x": 1.5}},
    ]


def test_append_metrics_replaces_its_stage_and_later_keeping_the_earlier_lines(tmp_path):
    path = tmp_path / "metrics.jsonl"
    append_metrics(path, 1, [])  # no file yet: an empty one
    assert path.read_text() == ""
    append_metrics(path, 1, [{"stage": 1, "step": 1, "ce": 0.1}, {"stage": 2, "step": 1},
                             {"stage": 2, "probe": {"x": 1.5}}, {"stage": 3, "step": 1}])
    lines = path.read_text().splitlines(keepends=True)
    append_metrics(path, 2, [])
    assert path.read_text() == lines[0]
    append_metrics(path, 2, [{"stage": 2, "step": 1}])
    assert path.read_text() == lines[0] + lines[1]
    append_metrics(path, 1, [])
    assert path.read_text() == ""
    path.write_text(lines[0] + "not json\n")
    with pytest.raises(ValueError, match=re.escape(f"metrics file {path} holds a line")):
        append_metrics(path, 2, [{"stage": 2, "step": 1}])
    assert path.read_text() == lines[0] + "not json\n"


def test_append_metrics_that_fails_mid_batch_keeps_the_earlier_bytes(tmp_path):
    # a row that cannot be serialised stands for a write cut off after the first row
    path = tmp_path / "metrics.jsonl"
    append_metrics(path, 1, [{"stage": 1, "step": 1, "ce": 0.5}])
    old = path.read_bytes()
    with pytest.raises(TypeError):
        append_metrics(path, 2, [{"stage": 2, "step": 1}, {"stage": 2, "step": 2, "ce": object()}])
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]


def test_write_json_stable_and_readable(tmp_path):
    payload = {"b": 2.5, "a": [1, 2], "nested": {"z": 0.1, "aa": -3}}
    write_json(tmp_path / "r.json", payload)
    write_json(tmp_path / "r2.json", payload)
    text = (tmp_path / "r.json").read_text()
    assert text == (tmp_path / "r2.json").read_text()
    assert text.endswith("\n")
    import json

    assert json.loads(text) == payload


def test_container_round_trip_and_layout(tmp_path):
    path = tmp_path / "c.bin"
    a, b = np.arange(6.0).reshape(2, 3), np.array([0.1, -2.5])
    save_container(path, "thing", {"note": [1, "x"]}, {"a": a, "b": b})
    digest, head, body = path.read_bytes().split(b"\n", 2)
    assert head == b'{"arrays":[["a",[2,3]],["b",[2]]],"kind":"thing","note":[1,"x"]}'
    assert body == a.tobytes() + b.tobytes()
    assert reseal(unseal(path.read_bytes())) == path.read_bytes()
    header, arrays = load_container(path, "thing")
    assert header["note"] == [1, "x"]
    assert [x.tobytes() for x in arrays] == [a.tobytes(), b.tobytes()]
    assert all(x.flags.writeable for x in arrays)


@pytest.mark.parametrize("at", [len(b"{"), -1], ids=["header", "body"])
def test_container_refuses_a_changed_byte_by_name(tmp_path, at):
    path = tmp_path / "c.bin"
    save_container(path, "thing", {}, {"a": np.ones(3)})
    raw = bytearray(path.read_bytes())
    at = raw.index(b"\n") + 1 + at if at > 0 else at
    raw[at] ^= 1
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(f"thing {path} does not match its sha256")):
        load_container(path, "thing")


def test_container_refuses_another_kind_by_name(tmp_path):
    path = tmp_path / "c.bin"
    save_container(path, "dataset", {}, {"a": np.ones(3)})
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} holds a 'dataset'")):
        load_container(path, "checkpoint")


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, {"new": 1}),
    lambda path: append_metrics(path, 2, [{"stage": 2, "step": 2}]),
    lambda path: save_dataset(path, gen_dataset(gen_world(2, 4, 6.0, 0.1, 4, seed=1),
                                                TASK_ASR, 0, 2, 3, seed=2)),
    lambda path: save_container(path, "thing", {}, {"a": np.ones(4)}),
], ids=["write_json", "append_metrics", "save_dataset", "save_container"])
def test_a_write_cut_off_leaves_the_old_bytes_and_no_temporary_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    old = b'{"stage":1,"step":1}\n{"stage":2,"step":1}\n'
    path.write_bytes(old)
    write_bytes = Path.write_bytes

    def failing_write_bytes(self, data):
        write_bytes(self, data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
