"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads curriculum,audit,report --seeds 0-9

Runs ``run.py`` once per workload and seed, one run at a time, with the run
length of ``BENCHMARK.json``. For each end-to-end metric it prints the
median, the quartiles and the spread: the distance between the first and
third quartile as a share of the median, next to a third of the metric's
bound. Results go to ``.perfbench_runs/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from figures import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="'lo-hi' or a comma-separated list")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                worst = 1
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
        (ROOT / ".perfbench_runs" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = "" if s < bound / 3 or name == "setup_s" else "  <-- above a third of the bound"
            print(f"  {workload:10s} {name:14s} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {s:.4f} (bound/3 {bound / 3:.4f}){flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
