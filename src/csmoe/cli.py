"""Command-line experiment runner.

Subcommands: ``gen-data`` (write the synthetic world and every dataset
split), ``train`` (run training stages with checkpoints and metrics),
``eval`` (score a checkpoint on the CS / Mono / Both validation splits),
``grad-check`` (finite-difference audit of every loss), ``ablate`` (variant
comparison table over seeds), and ``routing-report`` (routing and
separation statistics for a checkpoint).

Exit codes: 0 success, 1 assertion/tolerance failure (a failed gradient
check or a failed ablation run), 2 usage or configuration errors (bad flags,
bad config files, missing inputs, checkpoint/config or dataset/config
mismatches, damaged or unreadable dataset and checkpoint files, a sha256
mismatch included; each raised as a ``ValueError``) and any ``OSError`` (an
``--out`` that names a file, say), 3 a numerical failure (a training loss that
turned infinite or NaN or an overflowed optimizer moment; the message names
the stage and step).
All randomness flows from the seeds named in the config file (no flag sets
one; ``grad-check`` takes no config and seeds its harness with ``--seed``),
so every command is deterministic. ``--out`` overrides the config's
``out_dir``. ``gen-data`` and ``train`` write the effective merged config
as ``config.json`` next to their outputs, ready to pass to the next
command; the other commands write their reports only.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import ablation_report, ablation_table, separation_score
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    DATA_FIELDS,
    VARIANTS,
    ExperimentConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from .dataio import (
    append_metrics,
    load_dataset,
    read_json_object,
    save_dataset,
    save_world,
    write_json,
)
from .gradcheck import GRAD_LOSSES, grad_check_report
from .projector import CS_UNLABELED, MoeProjector, mlp_forward, moe_forward
from .stages import (
    DatasetBundle,
    build_world,
    evaluate_dataset,
    generate_datasets,
    generate_splits,
    routing_probe,
    routing_summary,
    run_ablation,
    run_pipeline,
    split_table,
    token_report,
)
from .world import TASK_CS_ST, TASK_ST

__all__ = ["main"]

_PROBE_UTTERANCES = 16  # per split, for the fixed routing probe
_NAMED_FLAGS = ("config", "out", "resume", "checkpoint")  # each names a file or directory


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None) is not None:
        config = config_from_dict(read_json_object(args.config, "config file"))
    else:
        config = ExperimentConfig()
    if getattr(args, "out", None) is not None:
        config = replace(config, out_dir=args.out)
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    world = build_world(config)
    write_json(out / "config.json", config_to_dict(config))
    save_world(out / "world.json", world)
    for entry, data in generate_splits(config, world, split_table(config)):
        save_dataset(out / entry.filename, data)
        print(f"wrote {out / entry.filename} ({len(data)} utterances)")
    print(f"wrote {out / 'world.json'}")
    return 0


def _load_bundle(out: Path, config: ExperimentConfig) -> DatasetBundle:
    """The gen-data splits under ``out``, refused unless drawn from ``config``'s data fields,
    unless each utterance has the task and language of the split it is pooled as, and
    unless each code-switch segment's language is one of the config's languages."""
    entries = split_table(config)
    missing = [e.filename for e in entries if not (out / e.filename).exists()]
    if not (out / "config.json").exists():
        missing.insert(0, "config.json")
    if missing:
        raise ValueError(
            f"datasets not found under {out} (missing {missing[0]} and "
            f"{len(missing) - 1} more); run gen-data first"
        )
    written = read_json_object(out / "config.json", "config file")
    differing = [name for name in DATA_FIELDS if written.get(name) != getattr(config, name)]
    if differing:
        raise ValueError(
            f"datasets under {out} were generated with different {', '.join(differing)}; "
            f"run gen-data with this config first"
        )
    splits = [(e, load_dataset(out / e.filename)) for e in entries]
    for entry, utts in splits:
        want = (entry.task, CS_UNLABELED if entry.language is None else entry.language)
        bad = [(i, u.task, u.language) for i, u in enumerate(utts) if (u.task, u.language) != want]
        if bad:
            raise ValueError(f"dataset {out / entry.filename} utterance {bad[0][0]} has task and "
                             f"language {bad[0][1:]}, not the split's {want}; "
                             f"run gen-data to rewrite it")
        bad = [(i, s.language) for i, u in enumerate(utts) for s in u.segments or ()
               if not 0 <= s.language < config.num_languages]
        if bad:
            raise ValueError(f"dataset {out / entry.filename} utterance {bad[0][0]} has a segment "
                             f"of language {bad[0][1]}, not one of the config's "
                             f"{config.num_languages} languages; run gen-data to rewrite it")
    return DatasetBundle.from_splits(splits)


def _probe_set(bundle: DatasetBundle) -> tuple:
    """The fixed routing probe: the first validation utterances of each split."""
    return tuple(bundle.st_val[:_PROBE_UTTERANCES]) + tuple(bundle.cs_val[:_PROBE_UTTERANCES])


def _parse_stages(text: str) -> tuple:
    if not text.strip():
        raise ValueError(f"--stages {text!r} names no stage")
    stages = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                span = range(int(lo), int(hi) + 1)
            except ValueError:
                span = ()
            if not span:  # not two numbers, or a descending range
                raise ValueError(f"bad stage range {part!r}")
            stages.extend(span)
        else:
            try:
                stages.append(int(part))
            except ValueError:
                raise ValueError(f"bad stage number {part!r}")
    return tuple(stages)


def cmd_train(args) -> int:
    config = _load_config(args)
    out = _out_dir(config)
    bundle = _load_bundle(out, config)

    metrics = out / "metrics.jsonl"
    initial = None
    if args.resume is not None:
        initial = load_checkpoint(args.resume, config, metrics)
        if initial.stage == 4:
            raise ValueError(f"checkpoint {args.resume} is already at stage 4, "
                             f"so no stage is left to run")
        default_stages = tuple(range(initial.stage + 1, 5))
    else:
        default_stages = (1, 2, 3, 4)
    stages = _parse_stages(args.stages) if args.stages is not None else default_stages

    probe_set = _probe_set(bundle)

    def after_stage(stage, state, rows):
        if state.decoder is not None:
            probe = {**routing_probe(state, probe_set),
                     "val_mono_ce": evaluate_dataset(state, bundle.st_val)["ce"],
                     "val_cs_ce": evaluate_dataset(state, bundle.cs_val)["ce"]}
            rows.append({"stage": stage, "probe": probe})
        # the rows replace those of this stage and later an earlier run left;
        # the checkpoint after them records their digest, which a resume checks
        append_metrics(metrics, stage, rows)
        save_checkpoint(out / "checkpoints" / f"stage{stage}", config, state, metrics)

    run_pipeline(config, bundle, stages=stages, initial=initial, after_stage=after_stage)
    write_json(out / "config.json", config_to_dict(config))
    print(f"ran stages {','.join(str(s) for s in stages)} "
          f"(variant {config.variant}); metrics in {metrics}")
    return 0


def _checkpoint_and_val_splits(args):
    """Config, output directory, stage >= 2 state and the scored ``(st_val, cs_val)`` splits."""
    config = _load_config(args)
    out = _out_dir(config)
    state = load_checkpoint(args.checkpoint, config)
    if state.decoder is None:
        raise ValueError(
            f"checkpoint {args.checkpoint} holds stage-1 per-language projectors; "
            f"this command needs a stage >= 2 checkpoint with a decoder"
        )
    scored = [e for e in split_table(config)
              if e.split == "val" and e.task in (TASK_ST, TASK_CS_ST)]
    _, bundle = generate_datasets(config, scored)
    return config, out, state, bundle.st_val, bundle.cs_val


def cmd_eval(args) -> int:
    config, out, state, st_val, cs_val = _checkpoint_and_val_splits(args)
    cs = evaluate_dataset(state, cs_val)
    mono = evaluate_dataset(state, st_val)
    both = token_report(cs["ce_sum"] + mono["ce_sum"], cs["correct"] + mono["correct"],
                        cs["tokens"] + mono["tokens"])
    report = {
        "checkpoint_stage": state.stage,
        "config_hash": config_hash(config),
        "cs": cs,
        "mono": mono,
        "both": both,
    }
    write_json(out / "report.json", report)
    for name in ("cs", "mono", "both"):
        entry = report[name]
        print(f"{name}: ce={entry['ce']:.6f} accuracy={entry['accuracy']:.4f} "
              f"({entry['tokens']} tokens)")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_grad_check(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: the harness seed must be a non-negative integer")
    if args.instances < 1:
        raise ValueError(f"--instances {args.instances}: the audit needs at least one instance")
    if args.out is not None:  # before the sweep, so a bad --out costs nothing
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = grad_check_report(seed=args.seed, instances=args.instances)
    width = max(map(len, GRAD_LOSSES))
    for name, entry in report["losses"].items():
        status = "pass" if entry["pass"] else "FAIL"
        print(f"{name:{width}s} max_rel_err={entry['max_rel_err']:.3e} {status}")
    print(f"{'overall':{width}s} {'pass' if report['pass'] else 'FAIL'} "
          f"({report['instances']} instances, "
          f"{report['skipped_candidates']} screened out)")
    if args.out is not None:
        write_json(Path(args.out) / "report.json", report)
        print(f"wrote {Path(args.out) / 'report.json'}")
    return 0 if report["pass"] else 1


def _parse_csv(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_ablate(args) -> int:
    config = _load_config(args)
    variants = _parse_csv(args.variants) if args.variants is not None else list(VARIANTS)
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise ValueError(f"--variants {args.variants!r}: unknown variant {unknown[0]!r}, "
                         f"expected names from {', '.join(VARIANTS)}")
    seeds = _parse_csv(args.seeds) if args.seeds is not None else ["0", "1", "2"]
    bad = [s for s in seeds if not s.isdecimal()]
    if bad:
        raise ValueError(f"--seeds {args.seeds!r}: {bad[0]!r} is not a non-negative integer")
    seeds = [int(s) for s in seeds]
    for flag, text, values in (("--variants", args.variants, variants),
                               ("--seeds", args.seeds, seeds)):
        if not values:
            raise ValueError(f"{flag} {text!r} names no value")
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} {text!r} names a value twice")
    out = _out_dir(config)
    results = {v: [] for v in variants}
    probes = {v: [] for v in variants}
    probed = {}  # a run's probe joins the report only once its record shows it completed
    failures = []

    def probe(variant, seed, bundle, stage, state, rows):
        if stage == 4:
            probed[variant, seed] = routing_probe(state, _probe_set(bundle))

    for variant, seed, cs, mono, error in run_ablation(config, variants, seeds, probe):
        if error is not None:  # report, never silently drop
            failures.append({"variant": variant, "seed": seed, "error": error})
            print(f"variant {variant} seed {seed}: FAILED ({error})", file=sys.stderr)
            continue
        results[variant].append({"cs_ce": cs["ce"], "cs_accuracy": cs["accuracy"],
                                 "mono_ce": mono["ce"], "mono_accuracy": mono["accuracy"]})
        probes[variant].append({"seed": seed, **probed[variant, seed]})
        print(f"variant {variant} seed {seed}: cs_ce={cs['ce']:.4f} mono_ce={mono['ce']:.4f}")
    try:
        report = ablation_report(results)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    write_json(out / "report.json",
               {**report, "failures": failures, "routing": probes, "seeds": seeds})
    print(ablation_table(report))
    print(f"wrote {out / 'report.json'}")
    return 1 if failures else 0


def cmd_routing_report(args) -> int:
    _, out, state, st_val, cs_val = _checkpoint_and_val_splits(args)
    probe_set = st_val + cs_val
    feats = np.concatenate([u.features for u in probe_set], axis=0)
    labels = np.concatenate([u.token_languages() for u in probe_set])
    if isinstance(state.projector, MoeProjector):
        h, trace = moe_forward(state.projector, Tensor(feats), labels)
        routing = routing_summary(trace)
    else:
        h, routing = mlp_forward(state.projector, Tensor(feats)), None
    report = {"checkpoint_stage": state.stage, "routing": routing,
              "input": separation_score(feats, labels),
              "projected": separation_score(h.data, labels)}
    write_json(out / "report.json", report)
    print(f"input silhouette {report['input']['silhouette']:.4f} -> "
          f"projected {report['projected']['silhouette']:.4f}")
    if routing:
        frames = ", ".join(f"{x:.4f}" for x in routing["top1_in_group"])
        print(f"top-1 in-group routing per language: {frames}")
    print(f"wrote {out / 'report.json'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmoe",
        description="Desk-scale grouped mixture-of-experts training laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults apply otherwise)")
        p.add_argument("--out", help="output directory (overrides config out_dir)")

    p = sub.add_parser("gen-data", help="write the world and all dataset splits")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run training stages on generated datasets")
    common(p)
    p.add_argument("--stages", help="stage subset, e.g. '1,2' or '3-4' (default: all remaining)")
    p.add_argument("--resume", help="checkpoint directory to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on CS / Mono / Both splits")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.set_defaults(func=cmd_eval)

    # the harness draws its own instances; no config field reaches it
    p = sub.add_parser("grad-check", help="finite-difference audit of every loss")
    p.add_argument("--out", help="directory for report.json")
    p.add_argument("--seed", type=int, default=0, help="harness seed (default 0)")
    p.add_argument("--instances", type=int, default=20,
                   help="random instances per loss (default 20)")
    p.set_defaults(func=cmd_grad_check)

    # no abbreviations, or --seed would silently stand for --seeds
    p = sub.add_parser("ablate", help="run the pipeline per variant and seed", allow_abbrev=False)
    common(p)
    p.add_argument("--variants", help="comma-separated variants (default: all four)")
    p.add_argument("--seeds", help="comma-separated seeds (default: 0,1,2)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("routing-report", help="routing and separation statistics")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.set_defaults(func=cmd_routing_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        empty = [name for name in _NAMED_FLAGS if getattr(args, name, None) == ""]
        if empty:  # not a silent fall-back to the default
            raise ValueError(f"--{empty[0]} is empty; give a value or leave the flag out")
        return args.func(args)
    except FloatingPointError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
