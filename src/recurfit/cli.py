"""Command-line entry point.

Subcommands: surgery, train, eval, flops, schedule-dump, layer-scores.
Every run directory receives the fully resolved config so artifacts are
reproducible from the directory alone. Exit codes: 0 success, 2 config
error, 3 data/input error, 4 divergence abort or non-finite values,
5 checkpoint/plan format error, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint
from .config import load_config, resolved_config_json
from .data import eval_batch
from .errors import (ConfigError, ContractError, DivergenceError, FormatError,
                     InputError, NonFiniteError, PlanError)
from .evaluate import DEFAULT_RECURRENCES, eval_sweep
from .flops import param_split, train_flops
from .random import RandomStream
from .schedules import curriculum_mean, lr_at, window_at
from .surgery import (apply_surgery, block_influence_scores,
                      count_parameters, donor_layout, make_plan,
                      model_from_checkpoint)
from .train import initial_layout, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_FORMAT = 5


def _out_path(name: str) -> Path:
    """`name` under RECURFIT_OUT_ROOT, with its parent directory made; a
    path that names an existing directory is a ConfigError."""
    path = Path(os.environ.get("RECURFIT_OUT_ROOT", ".")) / name
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected integers, got {text!r}") from None


def _check_bounds(args, **least) -> None:
    """ConfigError naming the first given number flag that is not finite
    or is below its least value; an unset flag passes."""
    for name, low in least.items():
        value = getattr(args, name)
        if value is not None and not (math.isfinite(value) and value >= low):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite "
                              f"and >= {low}, got {value!r}")


def _parse_tuple(text: str) -> tuple:
    parts = _int_list(text)
    if len(parts) != 3:
        raise ConfigError(f"expected p,r,c tuple, got {text!r}")
    return tuple(parts)


def cmd_surgery(args) -> int:
    _check_bounds(args, noise_std=0)
    donor = Checkpoint.load(args.donor)
    plan = make_plan(_parse_tuple(args.plan_tuple), donor_layout(donor)[1])
    result = apply_surgery(donor, plan, args.adapter_init,
                           RandomStream(args.seed, "adapter"), args.noise_std)
    out = _out_path(args.out)
    plan_file = _out_path(args.plan_file) if args.plan_file else None
    result.save(out)
    if plan_file:
        plan_file.write_text(json.dumps(plan.to_dict(), indent=2))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set or [])
    summary = train(cfg, resume_from=args.resume)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = model_from_checkpoint(Checkpoint.load(args.checkpoint))
    recurrences = (_int_list(args.recurrences) if args.recurrences
                   else DEFAULT_RECURRENCES)
    out = _out_path(args.out) if args.out else None
    result = eval_sweep(model, args.dataset, recurrences,
                        s0_seed=args.s0_seed, n_items=args.items,
                        data_seed=args.data_seed)
    if out:
        result.to_csv(out)
    print(result.summary())
    return EXIT_OK


def cmd_flops(args) -> int:
    _check_bounds(args, mean_r=1, window=1, tokens=0)
    cfg = load_config(args.config, args.set or [])
    model_cfg, counts = initial_layout(cfg)
    n1, n2 = param_split(model_cfg, counts, args.mean_r, args.window)
    if len(counts) == 1:
        payload = {"model_kind": "fixed", "non_embedding_params": n1,
                   "tokens": args.tokens}
    else:
        report = count_parameters(model_cfg, counts)
        payload = {"model_kind": "recurrent",
                   "param_report": dataclasses.asdict(report),
                   "mean_r": args.mean_r, "window": args.window,
                   "tokens": args.tokens, "n1": n1, "n2": n2}
    payload["flops"] = train_flops(n1, n2, args.tokens)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_schedule_dump(args) -> int:
    _check_bounds(args, steps=0)
    cfg = load_config(args.config, args.set or [])
    steps = args.steps if args.steps is not None else cfg.total_steps
    rows = [(step, curriculum_mean(cfg.curriculum, step),
             window_at(cfg.window, step), f"{lr_at(cfg.lr, step):.10g}")
            for step in range(steps)]
    target = open(_out_path(args.out), "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["step", "mean", "window", "lr"])
        writer.writerows(rows)
    finally:
        if args.out:
            target.close()
    return EXIT_OK


def cmd_layer_scores(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    if ckpt.metadata["kind"] != "fixed":
        raise FormatError("layer-scores checkpoint must be a fixed-depth "
                          "checkpoint")
    inputs, _ = eval_batch(args.data_seed, args.dataset, args.items,
                           min(model.config.context_length, args.context))
    scores = block_influence_scores(model, inputs)
    for i, s in enumerate(scores):
        print(f"layer {i}: {s:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recurfit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surgery", help="cut a recurrent checkpoint from a donor")
    p.add_argument("--donor", required=True)
    p.add_argument("--plan-tuple", required=True, help="p,r,c")
    p.add_argument("--adapter-init", default="identity-pass",
                   choices=["identity-pass", "scaled-random"])
    p.add_argument("--noise-std", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--plan-file")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("train", help="run or resume a training config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--resume")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="sweep test-time recurrence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default="plain")
    p.add_argument("--recurrences", help="comma list, default 1,2,4,8,16,32")
    p.add_argument("--s0-seed", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=1234)
    p.add_argument("--items", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="training-FLOP accounting for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--mean-r", type=float, default=32.0)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--tokens", type=int, required=True)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("schedule-dump", help="emit step,mean,window,lr CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--steps", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_schedule_dump)

    p = sub.add_parser("layer-scores", help="block-influence scores of a donor")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default="plain")
    p.add_argument("--items", type=int, default=4)
    p.add_argument("--context", type=int, default=256)
    p.add_argument("--data-seed", type=int, default=1234)
    p.set_defaults(func=cmd_layer_scores)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, ContractError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NonFiniteError) as exc:
        print(f"non-finite: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FormatError, PlanError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
