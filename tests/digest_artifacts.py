"""Print the sha256 of every artifact the commands write, for a byte-identity check.

Usage: ``python tests/digest_artifacts.py WORK_DIR [--check [LISTING] | --write [LISTING]]``

Runs ``gen-data``, ``train``, ``eval`` and ``routing-report`` for each of the
four variants on the default config and on one alternate config (other
seeds, sampled transition mode, reweighted routing losses),
and for ``full`` on one config whose router saturates (the three input-scale
fields at their upper bounds, small data and stage budgets), then
``grad-check --instances 3`` for harness seeds 0-3 and 7, then ``ablate
--seeds 0`` (all four variants) on the default config. The commands
run from the ``src`` next to this file, inside ``WORK_DIR`` with relative
paths, so the written ``config.json`` files do not depend on where
``WORK_DIR`` is. Prints one sorted ``sha256  path`` line per file. With
``--write``, it saves that listing to ``LISTING`` (by default the committed
``tests/digest.txt``) under a ``#`` header that names numpy and its BLAS.
With ``--check``, it compares the listing with the one saved in
``LISTING`` (the same default) instead: it prints each path that differs,
is missing or is extra, and exits 1 if there is any.

``write_subset`` writes the cheap part of the listing (the default
config's ``full`` run and grad-check seed 0, the paths under ``SUBSET``)
that ``tests/test_digest_artifacts.py`` regenerates in tier-1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
DIGEST = Path(__file__).resolve().parent / "digest.txt"
VARIANTS = ("full", "no-aux-losses", "conventional-balance", "no-moe")
ALTERNATE = {"data_seed": 5, "train_seed": 5, "transition_mode": "sampled",
             "lang_weight": 0.5, "balance_weight": 2.0}
SATURATING = {"separation": 100.0, "noise_sigma": 0.5, "token_margin": 20.0,
              "train_utterances": 40, "val_utterances": 12,
              **{f"stage{s}": {"total_batches": b, "batch_size": 8, "learning_rate": 0.003}
                 for s, b in ((1, 1), (2, 2), (3, 2), (4, 2))}}
GRAD_CHECK_SEEDS = (0, 1, 2, 3, 7)
SUBSET = ("defaults/", "default-full.json", "default/full/", "grad-check/seed0/")


def run(work: Path, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "csmoe.cli", *args], cwd=work, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def write_defaults(work: Path) -> dict:
    """Run ``gen-data`` on the defaults; return the config it writes, every field at its default."""
    work.mkdir(parents=True, exist_ok=True)
    run(work, "gen-data", "--out", "defaults")
    return json.loads((work / "defaults" / "config.json").read_text())


def write_run(work: Path, default: dict, name: str, overrides: dict, variant: str) -> None:
    """``gen-data``, ``train``, ``eval`` and ``routing-report`` of one config and variant."""
    run_dir = f"{name}/{variant}"
    cfg = work / f"{name}-{variant}.json"
    cfg.write_text(json.dumps({**default, **overrides, "variant": variant, "out_dir": run_dir}))
    stage4 = f"{run_dir}/checkpoints/stage4"
    run(work, "gen-data", "--config", cfg.name)
    run(work, "train", "--config", cfg.name)
    run(work, "eval", "--config", cfg.name, "--checkpoint", stage4, "--out", f"{run_dir}/eval")
    run(work, "routing-report", "--config", cfg.name, "--checkpoint", stage4,
        "--out", f"{run_dir}/routing-report")


def write_grad_check(work: Path, seed: int) -> None:
    run(work, "grad-check", "--instances", "3", "--seed", str(seed),
        "--out", f"grad-check/seed{seed}")


def write_subset(work: Path) -> None:
    """The artifacts under ``SUBSET``: grad-check seed 0 and the default ``full`` run."""
    write_grad_check(work, 0)
    write_run(work, write_defaults(work), "default", {}, "full")


def write_artifacts(work: Path) -> None:
    default = write_defaults(work)
    for name, overrides, variants in (("default", {}, VARIANTS), ("alternate", ALTERNATE, VARIANTS),
                                      ("saturating", SATURATING, ("full",))):
        for variant in variants:
            write_run(work, default, name, overrides, variant)
    for seed in GRAD_CHECK_SEEDS:
        write_grad_check(work, seed)
    run(work, "ablate", "--seeds", "0", "--out", "ablate")


def fingerprint() -> str:
    """The numpy version and the BLAS it was built with, as a listing's header names them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


def listing(work: Path) -> dict:
    """``{path: sha256}`` of every file under ``work``, paths relative and sorted."""
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in work.rglob("*") if p.is_file())}


def read_listing(path: Path) -> tuple[str | None, dict]:
    """The header fingerprint (None if absent) and ``{path: sha256}`` of a printed listing."""
    header, want = None, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            header = line[2:]
            continue
        digest, name = line.split("  ", 1)
        want[name] = digest
    return header, want


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", type=Path, nargs="?", const=DIGEST, metavar="LISTING",
                      help="compare with this saved listing (default: tests/digest.txt) "
                           "instead of printing one")
    mode.add_argument("--write", type=Path, nargs="?", const=DIGEST, metavar="LISTING",
                      help="save the listing, under a header naming numpy and its BLAS, "
                           "to this file (default: tests/digest.txt)")
    args = parser.parse_args(argv)
    if args.check is not None:
        header, want = read_listing(args.check)  # unreadable: fail before the 30 s of work
    write_artifacts(args.work)
    got = listing(args.work)
    if args.write is not None:
        args.write.write_text("".join(f"{line}\n" for line in (
            f"# {fingerprint()}", *(f"{digest}  {path}" for path, digest in got.items()))))
        print(f"{len(got)} files listed in {args.write}")
        return 0
    if args.check is None:
        for path, digest in got.items():
            print(f"{digest}  {path}")
        return 0
    lines = differences(got, want)
    if lines and header not in (None, fingerprint()):
        print(f"note: {args.check} was written under {header}, this run under "
              f"{fingerprint()}: a different BLAS may move the last bits", file=sys.stderr)
    print("\n".join(lines) if lines else f"{len(got)} files match {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
