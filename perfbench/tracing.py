"""Span recorder and layer wrappers for the traced benchmark run.

Tracing happens from outside the program: each wrapper times one public
function of a ``csmoe`` module. A wrapper is installed in every ``csmoe``
namespace that binds the function, because ``stages``, ``cli`` and
``gradcheck`` import names such as ``backward`` and ``moe_forward`` at import
time, and ``uninstall`` restores every original object. Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import tracemalloc
import weakref
from collections import defaultdict
from pathlib import Path

from figures import median, percentile, tail_percentile

# layer (csmoe module) -> public functions timed at its boundary
LAYERS = {
    "autodiff": ("backward", "cross_entropy", "fd_gradient", "Adam.step"),
    "projector": ("moe_forward", "mlp_forward"),
    "losses": ("language_specific_loss", "intra_group_balance_loss",
               "conventional_balance_loss", "transition_loss", "compose_stage_loss"),
    "stages": ("run_pipeline", "run_stage1", "run_stage2", "run_stage3", "run_stage4",
               "generate_datasets", "evaluate_dataset", "routing_probe"),
    "world": ("gen_world", "gen_dataset", "decode"),
    "analysis": ("separation_score", "routing_accuracy", "expert_load"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "dataio": ("save_world", "save_dataset", "load_dataset", "append_metrics", "write_json"),
    "gradcheck": ("grad_check_report",),
    "cli": ("cmd_gen_data", "cmd_train", "cmd_eval", "cmd_grad_check", "cmd_routing_report"),
}

# wrapped functions whose inclusive time is reported as ``<layer>.<name>.ms``
TIMED = {
    "autodiff": ("backward", "Adam.step", "cross_entropy", "fd_gradient"),
    "projector": ("moe_forward", "mlp_forward"),
    "losses": ("language_specific_loss", "intra_group_balance_loss",
               "transition_loss", "compose_stage_loss"),
    "stages": ("evaluate_dataset", "routing_probe"),
    "world": ("gen_dataset", "decode"),
    "analysis": ("separation_score", "routing_accuracy", "expert_load"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "dataio": ("save_dataset", "load_dataset", "append_metrics"),
    "cli": ("cmd_gen_data", "cmd_train", "cmd_eval", "cmd_grad_check", "cmd_routing_report"),
}
STAGES = (1, 2, 3, 4)


def metric_stem(layer: str, func: str) -> str:
    """``autodiff``/``Adam.step`` -> ``autodiff.adam_step``; ``cli``/``cmd_gen_data`` -> ``cli.gen-data``."""
    if layer == "cli":
        return "cli." + func.removeprefix("cmd_").replace("_", "-")
    return f"{layer}.{func.replace('.', '_').lower()}"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{metric_stem(layer, f)}.ms" for layer, funcs in TIMED.items() for f in funcs]
    names += [f"stages.stage{s}.s" for s in STAGES]
    names += [f"stages.stage{s}.step_ms.p50" for s in STAGES]
    names += ["stages.step_ms.p98"]
    names += [f"{layer}.self.ms" for layer in LAYERS]
    names += list(COUNT_UNITS)
    names += ["trace.overhead_share", "trace.unattributed_share"]
    return names


COUNT_UNITS = {
    "autodiff.backward.calls": "count",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.fd_evals": "count",
    "projector.moe_forward.tokens": "count",
    "projector.expert_rows_useful_ratio": "share",
    "world.gen_dataset.utterances": "count",
    "checkpoint.save_checkpoint.bytes": "bytes",
    "dataio.save_dataset.bytes": "bytes",
    "analysis.separation_score.peak_alloc_mb": "MB",
    "gradcheck.screened_share": "share",
}


def metric_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "ms"


class Recorder:
    """In-memory spans ``[name, start, end, parent, run]`` plus per-run counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = defaultdict(float)  # (run, key) -> value
        self.step_ms = defaultdict(list)  # (run, stage) -> Adam step intervals
        self.run = None
        self.stage = None
        # tracemalloc slows separation_score; set for one traced pass only
        self.measure_alloc = True
        self.expert_ids: frozenset = frozenset()
        self._stack: list[int] = []
        self._last_step = weakref.WeakKeyDictionary()
        self._main = threading.get_ident()

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end

    def add(self, key: str, value: float) -> None:
        self.counts[(self.run, key)] += value

    def step_done(self, optimizer, end: float) -> None:
        last = self._last_step.get(optimizer)
        if last is not None:
            self.step_ms[(self.run, self.stage)].append((end - last) * 1e3)
        self._last_step[optimizer] = end

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


# -------------------------------------------------------------------- hooks
# before(rec, args) may return replacement positional args;
# after(rec, args, result) runs once the span has closed, also on error
# (with result None).


def _backward_after(rec, args, result):
    tape = getattr(args[0], "_tape", None)
    rec.add("autodiff.backward.calls", 1)
    rec.add("autodiff.tape_nodes", len(tape.nodes) if tape is not None else 0)


def _fd_before(rec, args):
    f = args[0]

    def counted(x):
        rec.add("autodiff.fd_evals", 1)
        return f(x)

    return (counted, *args[1:])


def _moe_before(rec, args):
    rec.expert_ids = frozenset(id(e.value) for layer in args[0].layers
                               for e in layer.expert_weights)


def _moe_after(rec, args, result):
    rec.expert_ids = frozenset()
    if result is not None:
        rec.add("projector.moe_forward.tokens", args[1].shape[0])
        rec.add("projector.expert_rows_useful",
                sum(layer.selected.size for layer in result[1].layers))


def _stage_before(stage):
    def before(rec, args):
        rec.stage = stage
    return before


def _stage_after(rec, args, result):
    rec.stage = None


def _gen_dataset_after(rec, args, result):
    if result is not None:
        rec.add("world.gen_dataset.utterances", len(result))


def _save_dataset_after(rec, args, result):
    rec.add("dataio.save_dataset.bytes", Path(args[0]).stat().st_size)


def _save_checkpoint_after(rec, args, result):
    if result is not None:
        rec.add("checkpoint.save_checkpoint.bytes",
                sum(p.stat().st_size for p in Path(result).rglob("*") if p.is_file()))


def _separation_before(rec, args):
    if rec.measure_alloc:
        tracemalloc.start()


def _separation_after(rec, args, result):
    if not tracemalloc.is_tracing():
        return
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    key = (rec.run, "analysis.separation_score.peak_alloc_mb")
    rec.counts[key] = max(rec.counts[key], peak)


def _grad_check_after(rec, args, result):
    if result is not None:
        rec.add("gradcheck.skipped", result["skipped_candidates"])
        rec.add("gradcheck.tried", result["skipped_candidates"] + result["instances"])


HOOKS = {
    "autodiff.backward": (None, _backward_after),
    "autodiff.fd_gradient": (_fd_before, None),
    "projector.moe_forward": (_moe_before, _moe_after),
    **{f"stages.run_stage{s}": (_stage_before(s), _stage_after) for s in STAGES},
    "world.gen_dataset": (None, _gen_dataset_after),
    "dataio.save_dataset": (None, _save_dataset_after),
    "checkpoint.save_checkpoint": (None, _save_checkpoint_after),
    "analysis.separation_score": (_separation_before, _separation_after),
    "gradcheck.grad_check_report": (None, _grad_check_after),
}


def _wrap(rec: Recorder, name: str, fn):
    before, after = HOOKS.get(name, (None, None))
    is_step = name == "autodiff.Adam.step"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != rec._main:
            return fn(*args, **kwargs)
        if before is not None:
            args = before(rec, args) or args
        result = None
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = rec.exit(idx)
            if is_step:
                rec.step_done(args[0], end)
            if after is not None:
                after(rec, args, result)
        return result

    return wrapper


def _count_expert_rows(rec: Recorder, matmul):
    """``projector.matmul`` that counts rows multiplied by an expert weight."""

    @functools.wraps(matmul)
    def counted(a, b):
        if rec.expert_ids and id(b) in rec.expert_ids:
            rec.add("projector.expert_rows_multiplied", a.shape[0])
        return matmul(a, b)

    return counted


def _csmoe_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "csmoe" or n.startswith("csmoe.")]


def install(rec: Recorder) -> list[tuple]:
    """Install the wrappers; returns the patches that ``uninstall`` reverts."""
    for layer in LAYERS:
        importlib.import_module(f"csmoe.{layer}")
    modules = _csmoe_modules()
    patches = []
    for layer, funcs in LAYERS.items():
        mod = sys.modules[f"csmoe.{layer}"]
        for func in funcs:
            name = f"{layer}.{func}"
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(mod, cls_name)
                patches.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, _wrap(rec, name, cls.__dict__[meth]))
                continue
            original = getattr(mod, func)
            wrapper = _wrap(rec, name, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapper)
    projector = sys.modules["csmoe.projector"]
    patches.append((projector, "matmul", projector.matmul))
    projector.matmul = _count_expert_rows(rec, projector.matmul)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ------------------------------------------------------------------ figures


def run_figures(rec: Recorder, run, wall_s: float) -> dict:
    """Per-layer figures of one traced run (one workload pass)."""
    idx = [i for i, s in enumerate(rec.spans) if s[4] == run]
    spans = [rec.spans[i] for i in idx]
    local = {g: i for i, g in enumerate(idx)}
    spans = [[n, a, b, local.get(p), r] for n, a, b, p, r in spans]
    selfs = self_times(spans)
    total = defaultdict(float)
    layer_self = defaultdict(float)
    top = 0.0
    for (name, start, end, parent, _), own in zip(spans, selfs):
        total[name] += end - start
        layer_self[name.split(".")[0]] += own
        if parent is None:
            top += end - start

    def count(key):
        return rec.counts.get((run, key), 0.0)

    out = {}
    for layer, funcs in TIMED.items():
        for func in funcs:
            out[f"{metric_stem(layer, func)}.ms"] = total[f"{layer}.{func}"] * 1e3
    all_steps = []
    for s in STAGES:
        out[f"stages.stage{s}.s"] = total[f"stages.run_stage{s}"]
        steps = rec.step_ms.get((run, s), [])
        out[f"stages.stage{s}.step_ms.p50"] = percentile(steps, 50) if steps else 0.0
        all_steps += steps
    tail = tail_percentile(len(all_steps))
    # the name is fixed; the default curriculum has 705 step intervals per pass
    out["stages.step_ms.p98"] = (percentile(all_steps, 98.0)
                                 if tail is not None and tail >= 98.0 else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self.ms"] = layer_self[layer] * 1e3
    calls = count("autodiff.backward.calls")
    multiplied = count("projector.expert_rows_multiplied")
    tried = count("gradcheck.tried")
    out.update({
        "autodiff.backward.calls": calls,
        "autodiff.tape_nodes_per_step": count("autodiff.tape_nodes") / calls if calls else 0.0,
        "autodiff.fd_evals": count("autodiff.fd_evals"),
        "projector.moe_forward.tokens": count("projector.moe_forward.tokens"),
        "projector.expert_rows_useful_ratio":
            count("projector.expert_rows_useful") / multiplied if multiplied else 0.0,
        "world.gen_dataset.utterances": count("world.gen_dataset.utterances"),
        "checkpoint.save_checkpoint.bytes": count("checkpoint.save_checkpoint.bytes"),
        "dataio.save_dataset.bytes": count("dataio.save_dataset.bytes"),
        "analysis.separation_score.peak_alloc_mb":
            count("analysis.separation_score.peak_alloc_mb"),
        "gradcheck.screened_share": count("gradcheck.skipped") / tried if tried else 0.0,
        "trace.unattributed_share": (wall_s - top) / wall_s,
    })
    return out


def combine(per_run: list[dict], traced_walls, untraced_walls) -> dict:
    """Median of each per-run figure, plus the tracing overhead.

    The separation_score allocation peak is measured in the first run only.
    """
    out = {name: median([r[name] for r in per_run]) for name in per_run[0]}
    peak = "analysis.separation_score.peak_alloc_mb"
    out[peak] = per_run[0][peak]
    out["trace.overhead_share"] = median(traced_walls) / median(untraced_walls) - 1.0
    return out
