"""On-disk formats: world/report/config JSON, dataset splits and metrics JSON-lines.

``world.json`` is the ``World`` dataclass's own fields, its languages' too,
with arrays as nested lists; reports are the records ``analysis`` returns.
JSON is written with sorted keys and fixed separators, so rewriting the same
objects produces the same bytes; Python renders floats in shortest
round-trip form, so the floats in the world, metrics and reports load back
bit-exactly.

A dataset split is one file: a compact JSON header line holding ``d_in``
and, per utterance, its task, language, targets, source tokens and
code-switch segments; then, after the newline, one raw little-endian
float64 block ``[sum of T × d_in]`` holding every utterance's features in C
order, utterances in header order. Loading reads the file once, checks
that each utterance's targets and source tokens agree in length and that
its code-switch segments tile them, checks the body length against the
header's token counts and slices each utterance's features out of the
block. Checkpoint tensors use the same raw float64 encoding
(``float64_bytes``/``float64_array``), and both refuse a non-finite value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .world import Segment, Utterance, World

__all__ = [
    "save_world",
    "float64_bytes",
    "float64_array",
    "save_dataset",
    "load_dataset",
    "append_metrics",
    "drop_metrics_from",
    "write_json",
    "read_json_object",
]


def write_json(path, payload) -> None:
    """Write one JSON document: sorted keys, indented, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; ``what`` names the file in the ``ValueError`` refusing it."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ValueError(f"{what} {path} cannot be read: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{what} {path} is not UTF-8 text") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} {path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, not a {type(data).__name__}")
    return data


def _dump_line(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# -------------------------------------------------------------------- world


def _plain(items) -> dict:
    """An ``asdict`` field dict with its arrays as nested lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items}


def save_world(path, world: World) -> None:
    write_json(path, asdict(world, dict_factory=_plain))


# ---------------------------------------------------------- float64 blocks


def float64_bytes(array) -> bytes:
    """Raw little-endian float64 bytes of ``array`` in C order."""
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def float64_array(raw, shape, what: str) -> np.ndarray:
    """The writable finite array of ``shape`` that ``raw`` holds; ``what`` names it in errors.

    No writer stores a NaN or an infinity, so one is damage, and is refused
    here rather than carried into a report as a NaN metric.
    """
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise ValueError(
            f"{what} holds {len(raw)} bytes but shape {shape} requires {expected}"
        )
    array = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    bad = np.flatnonzero(~np.isfinite(array))
    if bad.size:
        raise ValueError(f"{what} holds {bad.size} non-finite value(s), "
                         f"the first {array.flat[bad[0]]} at element {bad[0]}")
    return array


# ----------------------------------------------------------------- datasets


def save_dataset(path, utterances: Iterable[Utterance]) -> None:
    """One split: a JSON header line, then every utterance's features as one block."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    utts = tuple(utterances)
    header = _dump_line({
        "d_in": utts[0].features.shape[1] if utts else 0,
        "utterances": [{
            "task": u.task,
            "language": int(u.language),
            "targets": u.targets.tolist(),
            "source_tokens": u.source_tokens.tolist(),
            "segments": (None if u.segments is None
                         else [[s.start, s.end, s.language] for s in u.segments]),
        } for u in utts],
    })
    body = float64_bytes(np.concatenate([u.features for u in utts])) if utts else b""
    path.write_bytes(header.encode() + b"\n" + body)


def _check_tokens(i: int, rec: dict) -> None:
    """Refuse utterance ``i`` unless its token arrays agree and its segments tile them."""
    length, segments = len(rec["targets"]), rec["segments"]
    if len(rec["source_tokens"]) != length:
        raise ValueError(f"utterance {i} has {length} targets but "
                         f"{len(rec['source_tokens'])} source tokens")
    ends = [s.end for s in segments or ()]
    if segments is not None and ([s.start for s in segments] != [0, *ends[:-1]]
                                 or ends[-1:] != [length]
                                 or any(s.start >= s.end for s in segments)):
        raise ValueError(f"utterance {i}'s segments do not tile its {length} tokens")


def load_dataset(path) -> tuple:
    """The utterances ``save_dataset`` wrote; a damaged file is refused by name."""
    path = Path(path)
    raw = path.read_bytes()
    cut = raw.find(b"\n")
    try:
        if cut < 0:
            raise ValueError("no header line")
        header = json.loads(raw[:cut])
        d_in = int(header["d_in"])
        records = [{
            "targets": np.asarray(rec["targets"], dtype=np.intp),
            "source_tokens": np.asarray(rec["source_tokens"], dtype=np.intp),
            "task": str(rec["task"]),
            "language": int(rec["language"]),
            "segments": None if rec["segments"] is None else tuple(
                Segment(start=int(s), end=int(e), language=int(g))
                for s, e, g in rec["segments"]),
        } for rec in header["utterances"]]
        for i, rec in enumerate(records):
            _check_tokens(i, rec)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise ValueError(f"dataset {path} has no valid header ({err!r}); "
                         f"run gen-data to rewrite it") from None
    bounds = np.cumsum([0] + [len(rec["targets"]) for rec in records]).tolist()
    features = float64_array(memoryview(raw)[cut + 1:], (bounds[-1], d_in),
                             f"dataset {path} body")
    return tuple(Utterance(features=features[a:b], **rec)
                 for a, b, rec in zip(bounds[:-1], bounds[1:], records))


# ------------------------------------------------------------------ metrics


def append_metrics(path, rows: Iterable[Mapping]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        for row in rows:
            fh.write(_dump_line(row) + "\n")


def drop_metrics_from(path, stage: int) -> None:
    """Remove a metrics file's rows of stage ``stage`` and later, if the file exists."""
    path = Path(path)
    if not path.exists():
        return
    try:
        kept = [line for line in path.read_text().splitlines(keepends=True)
                if json.loads(line)["stage"] < stage]
    except (ValueError, TypeError, KeyError):
        raise ValueError(f"metrics file {path} holds a line that is not a metrics row") from None
    path.write_text("".join(kept))
