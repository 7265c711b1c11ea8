"""On-disk formats: world/report/config JSON, float containers and metrics JSON-lines.

``world.json`` is the ``World`` dataclass's own fields, its languages' too,
with arrays as nested lists; reports are the records ``analysis`` returns.
JSON is written with sorted keys and fixed separators, so rewriting the same
objects produces the same bytes; Python renders floats in shortest
round-trip form, so the floats in the world, metrics and reports load back
bit-exactly.

Every float artifact (a dataset split, a checkpoint) is one container:
line 1 is the sha256 hex digest of every byte after it; line 2 is a
compact JSON header naming the file's ``kind`` and listing its ``arrays``
as ``[name, shape]`` pairs; then the arrays' raw little-endian float64
bytes in C order. The digest is checked before the header is parsed, so a
changed byte anywhere is refused naming the file. Every file is written to
a temporary file beside it and moved into place with ``os.replace``, so a
cut-off write leaves the earlier file as it was (no ``fsync``: the target
is an interrupted process, not power loss).

A dataset split's header adds ``d_in`` and each utterance's task, language,
targets, source tokens and code-switch segments; its one array, ``features``
``[sum of T × d_in]``, holds their features in header order. Loading checks
that each utterance has tokens, that its targets and source tokens agree in
length, that its segments tile them and that ``features`` has one row per token.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .world import Segment, Utterance, World

__all__ = [
    "save_world",
    "save_container",
    "load_container",
    "save_dataset",
    "load_dataset",
    "append_metrics",
    "metrics_sha256",
    "write_json",
    "read_json_object",
]


def _write_atomically(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then move it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:  # after an error, no temporary file is left behind
        tmp.unlink(missing_ok=True)


def write_json(path, payload) -> None:
    """Write one JSON document: sorted keys, indented, trailing newline."""
    _write_atomically(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


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


# --------------------------------------------------------------- containers


def save_container(path, kind: str, fields: Mapping, arrays: Mapping) -> None:
    """One container of ``kind``: ``fields`` and the listing of ``arrays`` (name -> array)."""
    blocks = {name: np.ascontiguousarray(a, dtype="<f8") for name, a in arrays.items()}
    head = _dump_line({**fields, "kind": kind,
                       "arrays": [[name, list(b.shape)] for name, b in blocks.items()]})
    sealed = head.encode() + b"\n" + b"".join(b.tobytes() for b in blocks.values())
    _write_atomically(path, hashlib.sha256(sealed).hexdigest().encode() + b"\n" + sealed)


def load_container(path, kind: str) -> tuple[dict, list]:
    """The header and arrays, in listing order, of the ``kind`` container at ``path``.

    No writer stores a NaN or an infinity, so one is damage, refused here
    rather than carried into a report as a NaN metric.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ValueError(f"{kind} {path} cannot be read: {err.strerror}") from None
    start = raw.find(b"\n") + 1
    if raw[:start] != hashlib.sha256(memoryview(raw)[start:]).hexdigest().encode() + b"\n":
        raise ValueError(f"{kind} {path} does not match its sha256 digest line: "
                         f"it is damaged or not a {kind} file")
    try:
        stop = raw.index(b"\n", start)
        header = json.loads(raw[start:stop].decode())
        found = header["kind"]
        shapes = [tuple(shape) for _, shape in header["arrays"]]
        if not all(type(n) is int and n >= 0 for shape in shapes for n in shape):
            raise ValueError("an array shape is not a list of sizes")
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{kind} {path} has no valid header ({err!r})") from None
    if found != kind:
        raise ValueError(f"{kind} {path} holds a {found!r}, not a {kind}")
    body = memoryview(raw)[stop + 1:]
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    if len(body) != 8 * ends[-1]:
        raise ValueError(f"{kind} {path} has a body of {len(body)} bytes, "
                         f"but its listed arrays require {8 * ends[-1]}")
    values = np.frombuffer(body, dtype="<f8").copy()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{kind} {path} holds {bad.size} non-finite value(s), "
                         f"the first {values[bad[0]]} at body element {bad[0]}")
    return header, [values[a:b].reshape(shape)
                    for a, b, shape in zip(ends[:-1], ends[1:], shapes)]


# ----------------------------------------------------------------- datasets


def save_dataset(path, utterances: Iterable[Utterance]) -> None:
    """One split: a ``dataset`` container whose one array holds every utterance's features."""
    utts = tuple(utterances)
    features = np.concatenate([u.features for u in utts])
    save_container(path, "dataset", {
        "d_in": features.shape[1],
        "utterances": [{
            "task": u.task,
            "language": int(u.language),
            "targets": u.targets.tolist(),
            "source_tokens": u.source_tokens.tolist(),
            "segments": (None if u.segments is None
                         else [[s.start, s.end, s.language] for s in u.segments]),
        } for u in utts],
    }, {"features": features})


def _check_tokens(i: int, rec: dict) -> None:
    """Refuse utterance ``i`` unless it has tokens, they agree and its segments tile them."""
    length, segments = len(rec["targets"]), rec["segments"]
    if not length:  # its mean loss would be NaN
        raise ValueError(f"utterance {i} has no tokens")
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
    header, arrays = load_container(path, "dataset")
    try:
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
        bounds = np.cumsum([0] + [len(rec["targets"]) for rec in records]).tolist()
        listing = [["features", [bounds[-1], header["d_in"]]]]
        if header["arrays"] != listing:
            raise ValueError(f"it lists {header['arrays']}, but its utterances need {listing}")
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise ValueError(f"dataset {path} has no valid header ({err!r}); "
                         f"run gen-data to rewrite it") from None
    (features,) = arrays
    return tuple(Utterance(features=features[a:b], **rec)
                 for a, b, rec in zip(bounds[:-1], bounds[1:], records))


# ------------------------------------------------------------------ metrics


def _lines_before(path: Path, stage: int) -> list[str]:
    """A metrics file's lines of the stages before ``stage``, as written; none if it is missing."""
    lines = path.read_text().splitlines(keepends=True) if path.exists() else []
    try:
        return [line for line in lines if json.loads(line)["stage"] < stage]
    except (ValueError, TypeError, KeyError):
        raise ValueError(f"metrics file {path} holds a line that is not a metrics row") from None


def append_metrics(path, stage: int, rows: Iterable[Mapping]) -> None:
    """Replace a metrics file's rows of stage ``stage`` and later with ``rows``, in one write."""
    path = Path(path)
    kept = _lines_before(path, stage) + [_dump_line(row) + "\n" for row in rows]
    _write_atomically(path, "".join(kept).encode())


def metrics_sha256(path, stage: int) -> str:
    """The sha256 hex digest of a metrics file's lines of stage ``stage`` and earlier."""
    return hashlib.sha256("".join(_lines_before(Path(path), stage + 1)).encode()).hexdigest()
