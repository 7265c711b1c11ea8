"""The csmoe benchmark's workloads, their output checks and the run loop.

Every workload is a closed loop with one client: each ``csmoe`` command runs
in this process through ``csmoe.cli.main`` and starts when the previous one
has returned. A run sets up, then repeats the workload's pass (its command
sequence, in a fresh output directory) until the run's seconds are spent.
Every command and every output check counts as one op.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import csmoe.cli
from csmoe.config import config_from_dict

import tracing
from figures import median

SETUPS = 3  # set-ups per untraced run; setup_s adds the medians of both
IMPORTS = 7  # fresh interpreters importing csmoe per untraced run
AUDIT_INSTANCES = 3  # grad-check instances per audit pass


class HostSpeed:
    """Samples the speed of this process's CPU ten times a second.

    On a shared 2-CPU virtual machine the same pass ran up to 1.5 times
    slower for seconds to minutes at a time, independently on each CPU and
    with no steal time, so unscaled medians of ten runs spread by 36%. A
    thread on the same CPU (the process is pinned to one) times a fixed
    kernel in its own CPU time, which the main thread cannot inflate;
    ``factor`` rescales a timing taken meanwhile to a host on which the
    kernel takes ``REFERENCE_S``.
    """

    REFERENCE_S = 1.5e-3
    PERIOD_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a, self._w = rng.normal(size=(96, 32)), rng.normal(size=(32, 32))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.thread_time()
            for _ in range(150):
                b = self._a @ self._w
                np.maximum(b, 0.0, out=b)
                float(b.sum())
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Rescaling for a timing over [start, end]; the whole run's if no sample fell there."""
        window = [d for t, d in self.samples if start <= t <= end]
        return self.REFERENCE_S / median(window or [d for _, d in self.samples])


class Ops:
    """Commands and output checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}\n{detail}".rstrip(), file=sys.stderr)
        return ok


def run_cli(ops: Ops, argv: list[str]) -> float | None:
    """One csmoe command, in-process; its wall seconds, or None if it failed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = csmoe.cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    ok = ops.check(code == 0, f"csmoe {' '.join(argv)} (exit {code})", err.getvalue())
    return wall if ok else None


@dataclass
class Pass:
    wall_s: float  # all commands of the pass
    items: float  # units of work done by the pass's main command
    items_s: float  # wall of that command
    start: float = 0.0  # perf_counter around the pass
    end: float = 0.0
    host_factor: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # also in BENCHMARK.json
    items: str  # what items_per_s counts
    prepare: Callable  # (ops, directory, seed) -> context dict, or None on failure
    run_pass: Callable  # (ops, context, out, seed) -> Pass, or None on failure
    check: Callable  # (ops, context, out) -> None
    outputs: Callable  # (out) -> files that must repeat byte for byte


def _write_config(directory: Path, seed: int) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.json"
    path.write_text(json.dumps({"world_seed": seed, "data_seed": seed, "train_seed": seed}))
    return path


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _tree(*roots: Path) -> list[Path]:
    files = []
    for root in roots:
        files += [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    return files


def digest(files: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- curriculum
# Seed -> world_seed, data_seed and train_seed. Loads autodiff (backward is
# about half of the wall), projector, losses, stages, checkpoint writes and
# dataio writes; stage 1 (400 steps, MLP only) bypasses the MoE. Runs no
# analysis.separation_score, no checkpoint reads and no fd_gradient.


def _curriculum_prepare(ops, directory, seed):
    return {"config": _write_config(directory, seed)}


def _training_tokens(config_path: Path, rows: list[dict]) -> int:
    config = config_from_dict(json.loads(config_path.read_text()))
    tokens = 0
    for row in rows:
        if "step" in row:
            stage = row["stage"]
            per_batch = config.stage_settings(stage).batch_size * config.utterance_length
            mixed = stage >= 3 and config.transition_mode == "mixed"
            tokens += per_batch * (2 if mixed else 1)
    return tokens


def _curriculum_pass(ops, ctx, out, seed):
    cfg = str(ctx["config"])
    gen = run_cli(ops, ["gen-data", "--config", cfg, "--out", str(out)])
    train = gen is not None and run_cli(ops, ["train", "--config", cfg, "--out", str(out)])
    if not train:
        return None
    tokens = _training_tokens(ctx["config"], _read_jsonl(out / "metrics.jsonl"))
    return Pass(gen + train, tokens, train)


def _curriculum_check(ops, ctx, out):
    rows = _read_jsonl(out / "metrics.jsonl")
    losses = [v for row in rows if "step" in row for k, v in row.items()
              if k not in ("stage", "step", "language", "task", "lam")]
    ops.check(bool(losses) and all(math.isfinite(v) for v in losses),
              "every loss in metrics.jsonl is finite")
    probe = {row["stage"]: row["probe"] for row in rows if "probe" in row}
    cs_ce = [probe.get(s, {}).get("val_cs_ce", math.nan) for s in (3, 4)]
    ops.check(cs_ce[1] < cs_ce[0],
              "stage 4 lowers the code-switched validation CE of stage 3",
              f"stage 3 {cs_ce[0]}, stage 4 {cs_ce[1]}")
    ctx["val_cs_ce"] = cs_ce[1]


CURRICULUM = Workload(
    name="curriculum",
    why=("gen-data then all four training stages on the default config: loads autodiff, "
         "projector, losses, stages and artifact writes; no fd_gradient, analysis or reads"),
    items="training tokens per second of train",
    prepare=_curriculum_prepare,
    run_pass=_curriculum_pass,
    check=_curriculum_check,
    outputs=lambda out: _tree(out / "metrics.jsonl", out / "checkpoints"),
)


# --------------------------------------------------------------------- audit
# Seed -> the grad-check harness seed. Forward only, no tape, on 4-token
# instances: fd_gradient is about 99% of the wall and backward about 0.2%, so
# a change that speeds backward or large batches but adds per-op forward cost
# shows here. Bypasses stages, world data, checkpoints and analysis.


def _audit_prepare(ops, directory, seed):
    directory.mkdir(parents=True, exist_ok=True)
    return {}


def _audit_pass(ops, ctx, out, seed):
    wall = run_cli(ops, ["grad-check", "--seed", str(seed),
                         "--instances", str(AUDIT_INSTANCES), "--out", str(out)])
    if wall is None:
        return None
    report = json.loads((out / "report.json").read_text())
    return Pass(wall, report["instances"], wall)


def _audit_check(ops, ctx, out):
    report = json.loads((out / "report.json").read_text())
    ops.check(report["pass"] is True, "grad-check report passes", json.dumps(report["losses"]))


AUDIT = Workload(
    name="audit",
    why=("grad-check at a fixed instance count: autodiff, projector and losses forward only "
         "through fd_gradient, no tape; bypasses stages, datasets, checkpoints and analysis"),
    items="grad-check instances per second",
    prepare=_audit_prepare,
    run_pass=_audit_pass,
    check=_audit_check,
    outputs=lambda out: _tree(out / "report.json"),
)


# -------------------------------------------------------------------- report
# Seed -> world_seed, data_seed and train_seed; set-up runs gen-data and the
# full curriculum to the stage-4 checkpoint. Loads analysis
# (separation_score on all 2,304 validation tokens, which sets the peak RSS),
# checkpoint reads and dataset regeneration in world. Does no training.


def _report_prepare(ops, directory, seed):
    cfg = _write_config(directory, seed)
    data = directory / "data"
    for command in ("gen-data", "train"):
        if run_cli(ops, [command, "--config", str(cfg), "--out", str(data)]) is None:
            return None
    return {"config": cfg, "checkpoint": data / "checkpoints" / "stage4"}


def _report_pass(ops, ctx, out, seed):
    common = ["--config", str(ctx["config"]), "--checkpoint", str(ctx["checkpoint"])]
    ev = run_cli(ops, ["eval", *common, "--out", str(out / "eval")])
    rr = ev is not None and run_cli(ops, ["routing-report", *common, "--out", str(out / "routing")])
    if not rr:
        return None
    tokens = json.loads((out / "eval" / "report.json").read_text())["both"]["tokens"]
    return Pass(ev + rr, tokens, ev)


def _report_check(ops, ctx, out):
    ev = json.loads((out / "eval" / "report.json").read_text())
    cs, mono, both = ev["cs"], ev["mono"], ev["both"]
    tokens = cs["tokens"] + mono["tokens"]
    correct = cs["correct"] + mono["correct"]
    ce_sum = cs["ce_sum"] + mono["ce_sum"]
    ok = (both["tokens"] == tokens and both["correct"] == correct
          and math.isclose(both["ce_sum"], ce_sum, rel_tol=1e-12)
          and math.isclose(both["ce"], ce_sum / tokens, rel_tol=1e-12)
          and math.isclose(both["accuracy"], correct / tokens, rel_tol=1e-12))
    ops.check(ok, "eval 'both' row is the record-weighted combination of 'cs' and 'mono'",
              json.dumps(ev))
    rr = json.loads((out / "routing" / "report.json").read_text())
    sil = [rr["input"]["silhouette"], rr["projected"]["silhouette"]]
    ops.check(all(math.isfinite(s) for s in sil), "routing-report silhouettes are finite", str(sil))
    ctx["val_cs_ce"] = cs["ce"]


REPORT = Workload(
    name="report",
    why=("eval plus routing-report on the stage-4 checkpoint made in set-up: loads analysis "
         "(separation_score), checkpoint reads and dataset regeneration; no training"),
    items="eval tokens per second of eval",
    prepare=_report_prepare,
    run_pass=_report_pass,
    check=_report_check,
    outputs=lambda out: _tree(out / "eval" / "report.json", out / "routing" / "report.json"),
)

WORKLOADS = {w.name: w for w in (CURRICULUM, AUDIT, REPORT)}


# ------------------------------------------------------------------ the run


def _import_seconds(root: Path) -> float:
    """Wall of a fresh interpreter that imports csmoe.cli."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import csmoe.cli"], env=env, cwd=root,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def _one_pass(w: Workload, ops: Ops, ctx: dict, out: Path, seed: int, ref: list):
    """Run and check one pass; its outputs must equal the first pass's."""
    start = time.perf_counter()
    result = w.run_pass(ops, ctx, out, seed)
    if result is None:
        return None
    result.start, result.end = start, time.perf_counter()
    w.check(ops, ctx, out)
    d = digest(w.outputs(out), out)
    if not ref:
        ref.append(d)
    else:
        ops.check(d == ref[0], "pass outputs are byte-identical to the first pass")
        shutil.rmtree(out)
    return result


def run_untraced(w: Workload, seed: int, seconds: float, base: Path, root: Path):
    """End-to-end figures: set up several times, then passes for ``seconds``.

    Returns ``(ops, metrics or None, context, sample counts)``.
    """
    ops = Ops()
    imports = [_import_seconds(root) for _ in range(IMPORTS)]
    prepare_s, ctx = [], None
    passes, ref = [], []
    with HostSpeed() as host:
        for i in range(SETUPS):
            start = time.perf_counter()
            ctx = w.prepare(ops, base / f"setup{i}", seed)
            prepare_s.append(time.perf_counter() - start)
            if ctx is None:
                return ops, None, {}, {}
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            result = _one_pass(w, ops, ctx, base / f"pass{len(passes)}", seed, ref)
            if result is None:
                return ops, None, ctx, {}
            result.host_factor = host.factor(result.start, result.end)
            passes.append(result)
    setup_s = (median(imports) + median(prepare_s)) * host.factor()
    items_per_s = [p.items / p.items_s / p.host_factor for p in passes]
    pass_s = [p.wall_s * p.host_factor for p in passes]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": (ops.attempted - ops.failed) / ops.attempted,
        "items_per_s": median(items_per_s),
        "pass_s": median(pass_s),
    }
    return ops, metrics, ctx, {
        "setup_s": [IMPORTS, SETUPS],
        "items_per_s": [round(x, 2) for x in items_per_s],
        "pass_s": [round(x, 4) for x in pass_s],
        "host_factor": [round(p.host_factor, 4) for p in passes],
    }


def run_traced(w: Workload, seed: int, seconds: float, base: Path, spans_path: Path):
    """Per-layer figures: untraced and traced passes in alternating pairs.

    The untraced pass runs with every wrapper removed, so a pair gives the
    tracing overhead, and the traced pass's outputs must equal the untraced
    one's. Returns ``(ops, metrics or None, context, sample counts)``.
    """
    ops = Ops()
    rec = tracing.Recorder()
    rec.run = "setup"
    patches = tracing.install(rec)
    try:
        ctx = w.prepare(ops, base / "setup", seed)
    finally:
        tracing.uninstall(patches)
    if ctx is None:
        return ops, None, {}, {}
    figures, walls, ref = [], {True: [], False: []}, []
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            rec.run = f"pass{pair}{'t' if traced else 'u'}"
            patches = tracing.install(rec) if traced else []
            try:
                result = _one_pass(w, ops, ctx, base / rec.run, seed, ref)
            finally:
                tracing.uninstall(patches)
            if result is None:
                rec.write(spans_path)
                return ops, None, ctx, {}
            walls[traced].append(result.wall_s)
            if traced:
                figures.append(tracing.run_figures(rec, rec.run, result.wall_s))
                rec.measure_alloc = False
        pair += 1
    rec.write(spans_path)
    metrics = tracing.combine(figures, walls[True], walls[False])
    return ops, metrics, ctx, {"traced passes": len(figures)}
