"""End-to-end training loop.

Per optimizer step: advance the depth curriculum and backprop-window
schedules, sample one recurrence count shared across the global batch,
accumulate micro-batch gradients of mean next-token cross entropy, clip,
apply the optimizer at the scheduled rate, and meter FLOPs with the
step's curriculum mean. Non-finite losses skip the update and are
recorded in the metrics so divergence signatures stay observable;
repeated events abort the run.

Everything random is keyed by (seed, purpose, step), so reruns are
byte-identical and resuming from a checkpoint continues bit-exactly.

The model kind and plan come from the built model; the config's
`model_kind` and `plan_tuple` only steer `build_initial_model`.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tape
from .config import RunConfig, resolved_config_json
from .checkpoint import Checkpoint
from .data import step_batch
from .errors import DivergenceError, FormatError, NonFiniteError
from .fields import bounded, build, check
from .flops import FlopMeter, param_split
from .model import (FixedModel, RecurrenceRun, forward_fixed,
                    forward_recurrent, init_fixed, init_recurrent,
                    section_counts)
from .optim import build_optimizer, clip_global_norm
from .random import RandomStream
from .schedules import (DepthDistribution, curriculum_mean, lr_at,
                        sample_recurrence, window_at)
from .surgery import (apply_surgery, checkpoint_layout, donor_layout,
                      make_plan, model_from_checkpoint, model_to_checkpoint)

METRIC_COLUMNS = ("step", "loss", "lr", "curriculum_mean", "sampled_r",
                  "window", "tokens_seen", "cumulative_flops", "nonfinite")


def build_initial_model(cfg: RunConfig):
    """Model from init checkpoint, surgery on a donor, or scratch init."""
    dtype = np.dtype(cfg.dtype)
    if cfg.init_checkpoint:
        return model_from_checkpoint(Checkpoint.load(cfg.init_checkpoint),
                                     dtype=dtype)
    if cfg.donor_checkpoint:
        donor = Checkpoint.load(cfg.donor_checkpoint)
        plan = make_plan(tuple(cfg.plan_tuple), donor_layout(donor)[1])
        surgical = apply_surgery(donor, plan, cfg.adapter_init,
                                 RandomStream(cfg.seed, "adapter"),
                                 cfg.adapter_noise_std)
        return model_from_checkpoint(surgical, dtype=dtype)
    stream = RandomStream(cfg.seed, "init")
    if cfg.model_kind == "fixed":
        return init_fixed(cfg.model, cfg.fixed_depth, stream, cfg.emb_scale,
                          dtype=dtype)
    return init_recurrent(cfg.model, tuple(cfg.plan_tuple), stream,
                          cfg.emb_scale, dtype=dtype)


def initial_layout(cfg: RunConfig) -> tuple:
    """(ModelConfig, section counts) of the model `build_initial_model`
    builds, read without building its weights."""
    if cfg.init_checkpoint:
        return checkpoint_layout(Checkpoint.load(cfg.init_checkpoint).metadata)
    if cfg.donor_checkpoint:
        model_cfg, depth = donor_layout(Checkpoint.load(cfg.donor_checkpoint))
        return model_cfg, make_plan(tuple(cfg.plan_tuple), depth).tuple
    return cfg.model, ((cfg.fixed_depth,) if cfg.model_kind == "fixed"
                       else tuple(cfg.plan_tuple))


@dataclass
class TrainState:
    """A run's progress as its checkpoints record it, for resuming."""
    step: int = bounded(0)
    tokens_seen: int = bounded(0)
    cumulative_flops: float = bounded(0)

    def __post_init__(self):
        check(self)


def _save_checkpoint(path, model, optimizer, state: TrainState):
    ckpt = model_to_checkpoint(model, extra_metadata=asdict(state))
    for name, arr in optimizer.state_tensors().items():
        ckpt.tensors[f"optimizer.{name}"] = arr
    ckpt.save(path)


def _optimizer_state(ckpt: Checkpoint, params: dict, path) -> dict:
    """The checkpoint's `optimizer.*` tensors without that prefix, each
    checked: a step count (`t`, `fb.t`) is one integer >= 0, and any
    other tensor, keyed `<route>.<parameter>`, is a finite float moment
    or buffer of its parameter's shape."""
    shapes = {name: p.data.shape for name, p in params.items()}
    state = {}
    for key, arr in ckpt.tensors.items():
        if not key.startswith("optimizer."):
            continue
        name = key[len("optimizer."):]
        if name.split(".")[-1] == "t":
            if arr.dtype.kind not in "iu" or arr.shape != (1,) or arr[0] < 0:
                raise FormatError(f"{path}: optimizer step count {name} is "
                                  f"{arr!r}, not one integer >= 0")
        else:
            suffixes = (name.split(".", i)[-1]
                        for i in range(1, name.count(".") + 1))
            param = next((s for s in suffixes if s in shapes), None)
            if param is None:
                raise FormatError(f"{path}: optimizer state {name} names no "
                                  f"parameter")
            if arr.dtype.kind != "f" or arr.shape != shapes[param]:
                raise FormatError(
                    f"{path}: optimizer state {name} has shape {arr.shape} "
                    f"and dtype {arr.dtype}; parameter {param} has float "
                    f"shape {shapes[param]}")
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"{path}: optimizer state {name} is not "
                                     f"finite")
        state[name] = arr
    return state


def _micro_loss_and_grads(model, inputs, targets, run):
    with Tape() as tape:
        logits = (forward_fixed(model, inputs) if isinstance(model, FixedModel)
                  else forward_recurrent(model, inputs, run))
        loss = ag.cross_entropy_mean(logits, targets)
        del logits  # no backward reads the logits; free them before it runs
        grad_map = ag.backward(loss, tape)
    return loss.item(), grad_map


def train(cfg: RunConfig, resume_from: str | None = None) -> dict:
    """Run (or resume) training; returns a summary of artifacts."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(resolved_config_json(cfg))

    optimizer = build_optimizer(cfg.optimizer, cfg.optimizer_hyper)
    state = TrainState(0, 0, 0.0)
    if resume_from:
        ckpt = Checkpoint.load(resume_from)
        model = model_from_checkpoint(ckpt, dtype=np.dtype(cfg.dtype))
        state = build(TrainState, {k: v for k, v in ckpt.metadata.items()
                                   if k in TrainState.__annotations__},
                      "metadata", FormatError)
        try:
            optimizer.load_state_tensors(
                _optimizer_state(ckpt, model.params(), resume_from))
        except KeyError as exc:
            raise FormatError(f"{resume_from}: no optimizer state {exc} to "
                              f"resume from") from exc
    else:
        model = build_initial_model(cfg)
    start_step, tokens_seen = state.step, state.tokens_seen
    meter = FlopMeter(float(state.cumulative_flops))

    params = model.params()
    context = model.config.context_length
    n_micro = cfg.global_batch // cfg.micro_batch
    metrics_path = out_dir / "metrics.csv"
    kept_rows = []
    if resume_from and metrics_path.exists():
        # keep the complete rows logged below the checkpoint's step; later
        # rows, a torn last line among them, are logged again below
        steps = [[str(s)] for s in range(start_step)
                 if s % cfg.metric_interval == 0 or s == cfg.total_steps - 1]
        with open(metrics_path, newline="", errors="replace") as mf:
            kept_rows = list(csv.reader(mf))[1:1 + len(steps)]
        if [row[:1] for row in kept_rows
                if len(row) == len(METRIC_COLUMNS) and all(row)] != steps:
            raise FormatError(f"{metrics_path} lacks rows below step "
                              f"{start_step}")
    consecutive_bad = 0

    with open(metrics_path, "w", newline="") as mf, \
            np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        writer = csv.writer(mf)
        writer.writerow(METRIC_COLUMNS)
        writer.writerows(kept_rows)
        for step in range(start_step, cfg.total_steps):
            mean_r = curriculum_mean(cfg.curriculum, step)
            window = window_at(cfg.window, step)
            lr = lr_at(cfg.lr, step)
            if isinstance(model, FixedModel):
                sampled_r = 1
            else:
                sampled_r = sample_recurrence(
                    DepthDistribution(mean_r, cfg.depth_spread),
                    RandomStream(cfg.seed, f"depth/{step}"))
            inputs, targets, _ = step_batch(cfg.seed, step, cfg.phases,
                                            cfg.global_batch, context)
            grads: dict = {}
            loss_sum = 0.0
            for m in range(n_micro):
                sl = slice(m * cfg.micro_batch, (m + 1) * cfg.micro_batch)
                run = RecurrenceRun(sampled_r, window,
                                    RandomStream(cfg.seed, f"s0/{step}/{m}"))
                loss_val, grad_map = _micro_loss_and_grads(
                    model, inputs[sl], targets[sl], run)
                loss_sum += loss_val
                for name, p in params.items():
                    g = grad_map.get(p)
                    if g is None:
                        continue
                    contrib = g / n_micro
                    grads[name] = (contrib if name not in grads
                                   else grads[name] + contrib)
            loss_val = loss_sum / n_micro
            nonfinite = not np.isfinite(loss_val)
            if not nonfinite:
                try:
                    clipped = clip_global_norm(grads, cfg.grad_clip)
                    optimizer.step(params, clipped, lr)
                except NonFiniteError:
                    nonfinite = True
            tokens = cfg.global_batch * context
            tokens_seen += tokens
            meter.add(*param_split(model.config, section_counts(model),
                                   mean_r, window), tokens)
            if step % cfg.metric_interval == 0 or step == cfg.total_steps - 1:
                writer.writerow([step, f"{loss_val:.10g}", f"{lr:.10g}",
                                 mean_r, sampled_r, window, tokens_seen,
                                 f"{meter.cumulative:.10g}",
                                 int(nonfinite)])
            if nonfinite:
                consecutive_bad += 1
                if consecutive_bad > cfg.max_nonfinite:
                    raise DivergenceError(
                        f"{consecutive_bad} consecutive non-finite steps "
                        f"at step {step}")
            else:
                consecutive_bad = 0
            if (cfg.checkpoint_interval
                    and (step + 1) % cfg.checkpoint_interval == 0
                    and step + 1 < cfg.total_steps):
                mf.flush()  # rows below a checkpoint's step reach disk first
                _save_checkpoint(out_dir / f"ckpt_step{step + 1}.rfck",
                                 model, optimizer, TrainState(
                                     step + 1, tokens_seen, meter.cumulative))

    final_path = out_dir / "final.rfck"
    _save_checkpoint(final_path, model, optimizer, TrainState(
        cfg.total_steps, tokens_seen, meter.cumulative))
    return {"final_checkpoint": str(final_path),
            "metrics": str(metrics_path),
            "tokens_seen": tokens_seen,
            "cumulative_flops": meter.cumulative}
