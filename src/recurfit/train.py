"""End-to-end training loop.

`train` starts a run, or resumes one (`_resume`, the inverse of
`_save_checkpoint`), and loops `_step`, one optimizer step: advance the
depth curriculum and backprop-window schedules, sample one recurrence
count shared across the global batch, accumulate micro-batch gradients
of mean next-token cross entropy, clip, apply the optimizer at the
scheduled rate, and advance the run's `TrainState` counters, FLOPs
metered at the step's curriculum mean. Non-finite losses skip the
update and are recorded in the metrics so divergence signatures stay
observable; repeated events abort the run.

Everything random is keyed by (seed, purpose, step), so reruns are
byte-identical and resuming from a checkpoint continues bit-exactly.

The model kind and plan come from the built model; the config's
`model_kind` and `plan_tuple` only steer `build_initial_model`.
"""

from __future__ import annotations

import csv
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tape
from .config import RunConfig, resolved_config_json
from .checkpoint import Checkpoint
from .data import step_batch
from .errors import ConfigError, DivergenceError, FormatError, NonFiniteError
from .fields import bounded, build, checked_dataclass
from .flops import param_split, train_flops
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


@checked_dataclass
class TrainState:
    """A run's running counters, as its checkpoints record them."""
    step: int = bounded(0)
    tokens_seen: int = bounded(0)
    cumulative_flops: float = bounded(0)


def _save_checkpoint(path, model, optimizer, state: TrainState):
    ckpt = model_to_checkpoint(model, extra_metadata=asdict(state))
    for name, arr in optimizer.state_tensors().items():
        ckpt.tensors[f"optimizer.{name}"] = arr
    ckpt.save(path)


def _resume(path, cfg: RunConfig, optimizer) -> tuple:
    """(model, TrainState) from a checkpoint `_save_checkpoint` wrote,
    its optimizer state loaded into `optimizer`; a checkpoint past the
    run's `total_steps` is a ConfigError."""
    ckpt = Checkpoint.load(path)
    model = model_from_checkpoint(ckpt, dtype=np.dtype(cfg.dtype))
    state = build(TrainState, {k: v for k, v in ckpt.metadata.items()
                               if k in TrainState.__annotations__},
                  "metadata", FormatError)
    if state.step > cfg.total_steps:
        raise ConfigError(f"{path} is at step {state.step}, past the run's "
                          f"total_steps {cfg.total_steps}")
    optimizer.load_state_tensors(
        {k[len("optimizer."):]: v for k, v in ckpt.tensors.items()
         if k.startswith("optimizer.")}, model.params())
    state.cumulative_flops = float(state.cumulative_flops)
    return model, state


def _logged(cfg: RunConfig, step: int) -> bool:
    """Whether `metrics.csv` has a row for `step`."""
    return step % cfg.metric_interval == 0 or step == cfg.total_steps - 1


def _micro_loss_and_grads(model, inputs, targets, run):
    with Tape() as tape:
        logits = (forward_fixed(model, inputs) if isinstance(model, FixedModel)
                  else forward_recurrent(model, inputs, run))
        loss = ag.cross_entropy_mean(logits, targets)
        del logits  # no backward reads the logits; free them before it runs
        grad_map = ag.backward(loss, tape)
    return loss.item(), grad_map


def _step(model, params, optimizer, cfg: RunConfig, state: TrainState) -> list:
    """Optimizer step `state.step`: advances `state` and returns the step's
    metrics row, whose last entry flags a non-finite loss or update."""
    step = state.step
    mean_r = curriculum_mean(cfg.curriculum, step)
    window = window_at(cfg.window, step)
    lr = lr_at(cfg.lr, step)
    if isinstance(model, FixedModel):
        sampled_r = 1
    else:
        sampled_r = sample_recurrence(
            DepthDistribution(mean_r, cfg.depth_spread),
            RandomStream(cfg.seed, f"depth/{step}"))
    context = model.config.context_length
    inputs, targets, _ = step_batch(cfg.seed, step, cfg.phases,
                                    cfg.global_batch, context)
    n_micro = cfg.global_batch // cfg.micro_batch
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
            optimizer.step(params, clip_global_norm(grads, cfg.grad_clip), lr)
        except NonFiniteError:
            nonfinite = True
    tokens = cfg.global_batch * context
    state.step += 1
    state.tokens_seen += tokens
    state.cumulative_flops += train_flops(
        *param_split(model.config, section_counts(model), mean_r, window),
        tokens)
    return [step, f"{loss_val:.10g}", f"{lr:.10g}", mean_r, sampled_r, window,
            state.tokens_seen, f"{state.cumulative_flops:.10g}",
            int(nonfinite)]


def train(cfg: RunConfig, resume_from: str | None = None) -> dict:
    """Run (or resume) training; returns a summary of artifacts."""
    optimizer = build_optimizer(cfg.optimizer, cfg.optimizer_hyper)
    if resume_from:
        model, state = _resume(resume_from, cfg, optimizer)
    else:
        model, state = build_initial_model(cfg), TrainState(0, 0, 0.0)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(resolved_config_json(cfg))

    params = model.params()
    metrics_path = out_dir / "metrics.csv"
    kept_rows = []
    if resume_from and metrics_path.exists():
        # keep the complete rows logged below the checkpoint's step; later
        # rows, a torn last line among them, are logged again below
        steps = [[str(s)] for s in range(state.step) if _logged(cfg, s)]
        with open(metrics_path, newline="", errors="replace") as mf:
            kept_rows = list(csv.reader(mf))[1:1 + len(steps)]
        if [row[:1] for row in kept_rows
                if len(row) == len(METRIC_COLUMNS) and all(row)] != steps:
            raise FormatError(f"{metrics_path} lacks rows below step "
                              f"{state.step}")
    consecutive_bad = 0

    with open(metrics_path, "w", newline="") as mf, \
            np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        writer = csv.writer(mf)
        writer.writerow(METRIC_COLUMNS)
        writer.writerows(kept_rows)
        while state.step < cfg.total_steps:
            row = _step(model, params, optimizer, cfg, state)
            step, nonfinite = row[0], row[-1]
            if _logged(cfg, step):
                writer.writerow(row)
            consecutive_bad = consecutive_bad + 1 if nonfinite else 0
            if consecutive_bad > cfg.max_nonfinite:
                raise DivergenceError(f"{consecutive_bad} consecutive "
                                      f"non-finite steps at step {step}")
            if (cfg.checkpoint_interval
                    and state.step % cfg.checkpoint_interval == 0
                    and state.step < cfg.total_steps):
                mf.flush()  # rows below a checkpoint's step reach disk first
                _save_checkpoint(out_dir / f"ckpt_step{state.step}.rfck",
                                 model, optimizer, state)

    final_path = out_dir / "final.rfck"
    _save_checkpoint(final_path, model, optimizer, state)
    return {"final_checkpoint": str(final_path),
            "metrics": str(metrics_path),
            "tokens_seen": state.tokens_seen,
            "cumulative_flops": state.cumulative_flops}
