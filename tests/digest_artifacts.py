"""Print the sha256 of every artifact the commands write, for a byte-identity check.

Usage: ``python tests/digest_artifacts.py WORK_DIR [--check LISTING]``

Runs ``gen-data``, ``train``, ``eval`` and ``routing-report`` for each of the
four variants on the default config and on one alternate config (other
seeds, sampled transition mode, normalized and reweighted routing losses),
and for ``full`` on one config whose router saturates (the three input-scale
fields at their upper bounds, small data and stage budgets), then
``grad-check --instances 3`` for harness seeds 0-3 and 7, then ``ablate
--seeds 0`` (all four variants) on the default config. The commands
run from the ``src`` next to this file, inside ``WORK_DIR`` with relative
paths, so the written ``config.json`` files do not depend on where
``WORK_DIR`` is. Prints one sorted ``sha256  path`` line per file. With ``--check``,
it compares that listing with the one saved in ``LISTING`` instead: it
prints each path that differs, is missing or is extra, and exits 1 if
there is any.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
VARIANTS = ("full", "no-aux-losses", "conventional-balance", "no-moe")
ALTERNATE = {"data_seed": 5, "train_seed": 5, "transition_mode": "sampled",
             "normalize_aux": True, "lang_weight": 0.5, "balance_weight": 2.0}
SATURATING = {"separation": 100.0, "noise_sigma": 0.5, "token_margin": 20.0,
              "train_utterances": 40, "val_utterances": 12,
              **{f"stage{s}": {"total_batches": b, "batch_size": 8, "learning_rate": 0.003}
                 for s, b in ((1, 1), (2, 2), (3, 2), (4, 2))}}
GRAD_CHECK_SEEDS = (0, 1, 2, 3, 7)


def run(work: Path, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "csmoe.cli", *args], cwd=work, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def write_artifacts(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    # the effective config gen-data writes holds every field at its default
    run(work, "gen-data", "--out", "defaults")
    default = json.loads((work / "defaults" / "config.json").read_text())
    for name, overrides, variants in (("default", {}, VARIANTS), ("alternate", ALTERNATE, VARIANTS),
                                      ("saturating", SATURATING, ("full",))):
        for variant in variants:
            run_dir = f"{name}/{variant}"
            cfg = work / f"{name}-{variant}.json"
            cfg.write_text(json.dumps({**default, **overrides, "variant": variant,
                                       "out_dir": run_dir}))
            stage4 = f"{run_dir}/checkpoints/stage4"
            run(work, "gen-data", "--config", cfg.name)
            run(work, "train", "--config", cfg.name)
            run(work, "eval", "--config", cfg.name, "--checkpoint", stage4,
                "--out", f"{run_dir}/eval")
            run(work, "routing-report", "--config", cfg.name, "--checkpoint", stage4,
                "--out", f"{run_dir}/routing-report")
    for seed in GRAD_CHECK_SEEDS:
        run(work, "grad-check", "--instances", "3", "--seed", str(seed),
            "--out", f"grad-check/seed{seed}")
    run(work, "ablate", "--seeds", "0", "--out", "ablate")


def listing(work: Path) -> dict:
    """``{path: sha256}`` of every file under ``work``, paths relative and sorted."""
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in work.rglob("*") if p.is_file())}


def read_listing(path: Path) -> dict:
    """The ``{path: sha256}`` of a listing this script printed."""
    want = {}
    for line in path.read_text().splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    return want


def differences(got: dict, want: dict) -> list:
    """One ``differs``/``missing``/``extra`` line per path on which the listings disagree."""
    lines = []
    for path in sorted(got.keys() | want.keys()):
        if path not in got:
            lines.append(f"missing  {path}")
        elif path not in want:
            lines.append(f"extra    {path}")
        elif got[path] != want[path]:
            lines.append(f"differs  {path}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("work", type=Path, metavar="WORK_DIR")
    parser.add_argument("--check", type=Path, metavar="LISTING",
                        help="compare with this saved listing instead of printing one")
    args = parser.parse_args(argv)
    want = None if args.check is None else read_listing(args.check)  # unreadable: fail first
    write_artifacts(args.work)
    got = listing(args.work)
    if want is None:
        for path, digest in got.items():
            print(f"{digest}  {path}")
        return 0
    lines = differences(got, want)
    print("\n".join(lines) if lines else f"{len(got)} files match {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
