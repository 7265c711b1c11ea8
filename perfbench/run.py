"""Run one workload of the csmoe benchmark and print its figures.

    python3 perfbench/run.py --workload curriculum --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (spans are written to ``.perfbench_runs/spans-<workload>.jsonl``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Run it from a checkout of the
repository; the package is imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_share": "share",
    "items_per_s": "1/s",
    "pass_s": "s",
}


def _limit_threads() -> int:
    """One thread in this process, BLAS pool included; set before numpy loads.

    The matrices are tiny (width 32, about 96 tokens a batch), so a second
    BLAS thread does no useful work: it spins, doubles CPU time and made
    ``train`` 10-20% slower and noisier on a 2-CPU machine, with identical
    output bytes.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CSMOE_THREADS"):
        os.environ[var] = "1"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # see workloads.HostSpeed
    return len(cpus)


def _machine(nproc: int) -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    threads = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = line.split()[1]
    except OSError:
        pass
    return (f"machine: nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"process_threads={threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "csmoe" / "cli.py").is_file():
        print(f"error: no csmoe sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    nproc = _limit_threads()
    sys.path.insert(0, str(src))
    import tracing
    import workloads  # imports csmoe, and with it numpy

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    base = RUNS / f"{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        if args.trace:
            ops, metrics, ctx, samples = workloads.run_traced(
                w, args.seed, args.seconds, base, RUNS / f"spans-{w.name}.jsonl")
            units = {name: tracing.metric_unit(name) for name in metrics or {}}
        else:
            ops, metrics, ctx, samples = workloads.run_untraced(
                w, args.seed, args.seconds, base, ROOT)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if metrics is None:
        print(f"error: {w.name} did not complete; {ops.failed} of {ops.attempted} ops failed",
              file=sys.stderr)
        return 1

    print(_machine(nproc))
    print(f"workload {w.name} seed {args.seed}: items_per_s counts {w.items}; "
          f"samples per metric {json.dumps(samples)}")
    if "val_cs_ce" in ctx:
        print(f"val_cs_ce {ctx['val_cs_ce']!r} nats/token")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
