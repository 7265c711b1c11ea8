"""On-disk formats: world/report JSON, dataset and metrics JSON-lines.

Everything is plain JSON with sorted keys and fixed separators, so rewriting
the same objects produces the same bytes. Python renders floats in
shortest-round-trip form, so float64 arrays written as JSON numbers load
back bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .world import Segment, Utterance, World

__all__ = [
    "save_world",
    "save_dataset",
    "load_dataset",
    "append_metrics",
    "write_json",
]


def write_json(path, payload) -> None:
    """Write one JSON document: sorted keys, indented, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _dump_line(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# -------------------------------------------------------------------- world


def save_world(path, world: World) -> None:
    payload = {
        "d_in": world.d_in,
        "separation": world.separation,
        "noise_sigma": world.noise_sigma,
        "vocab_per_lang": world.vocab_per_lang,
        "token_margin": world.token_margin,
        "seed": world.seed,
        "languages": [
            {
                "language_index": lang.language_index,
                "centroid": lang.centroid.tolist(),
                "noise_sigma": lang.noise_sigma,
                "vocab_start": lang.vocab_start,
                "vocab_size": lang.vocab_size,
                "token_embeddings": lang.token_embeddings.tolist(),
                "st_bijection": lang.st_bijection.tolist(),
            }
            for lang in world.languages
        ],
    }
    write_json(path, payload)


# ----------------------------------------------------------------- datasets


def save_dataset(path, utterances: Iterable[Utterance]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for u in utterances:
        lines.append(_dump_line({
            "task": u.task,
            "language": int(u.language),
            "features": u.features.tolist(),
            "targets": u.targets.tolist(),
            "source_tokens": u.source_tokens.tolist(),
            "segments": (None if u.segments is None
                         else [[s.start, s.end, s.language] for s in u.segments]),
        }))
    path.write_text("".join(line + "\n" for line in lines))


def load_dataset(path) -> tuple:
    utterances = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            segments = rec["segments"]
            utterances.append(Utterance(
                features=np.asarray(rec["features"], dtype=np.float64),
                targets=np.asarray(rec["targets"], dtype=np.intp),
                source_tokens=np.asarray(rec["source_tokens"], dtype=np.intp),
                task=rec["task"],
                language=int(rec["language"]),
                segments=(None if segments is None else tuple(
                    Segment(start=int(s), end=int(e), language=int(g))
                    for s, e, g in segments
                )),
            ))
    return tuple(utterances)


# ------------------------------------------------------------------ metrics


def append_metrics(path, rows: Iterable[Mapping]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        for row in rows:
            fh.write(_dump_line(row) + "\n")
