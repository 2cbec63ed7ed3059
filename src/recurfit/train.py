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
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tape
from .config import RunConfig, resolved_config_json
from .checkpoint import Checkpoint
from .data import step_batch
from .errors import DivergenceError, FormatError, NonFiniteError
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


def _save_checkpoint(path, model, optimizer, step, tokens_seen, flops):
    ckpt = model_to_checkpoint(model, extra_metadata={
        "step": step, "tokens_seen": tokens_seen, "cumulative_flops": flops})
    for name, arr in optimizer.state_tensors().items():
        ckpt.tensors[f"optimizer.{name}"] = arr
    ckpt.save(path)


def _micro_loss_and_grads(model, inputs, targets, run):
    with Tape() as tape:
        logits = (forward_fixed(model, inputs) if isinstance(model, FixedModel)
                  else forward_recurrent(model, inputs, run))
        loss = ag.cross_entropy_mean(logits, targets)
        grad_map = ag.backward(loss, tape)
    return loss.item(), grad_map


def train(cfg: RunConfig, resume_from: str | None = None) -> dict:
    """Run (or resume) training; returns a summary of artifacts."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(resolved_config_json(cfg))

    optimizer = build_optimizer(cfg.optimizer, cfg.optimizer_hyper)
    meter = FlopMeter()
    tokens_seen = 0
    start_step = 0
    if resume_from:
        ckpt = Checkpoint.load(resume_from)
        model = model_from_checkpoint(ckpt, dtype=np.dtype(cfg.dtype))
        try:
            start_step = int(ckpt.metadata["step"])
            tokens_seen = int(ckpt.metadata["tokens_seen"])
            meter.cumulative = float(ckpt.metadata["cumulative_flops"])
            optimizer.load_state_tensors(
                {k[len("optimizer."):]: v for k, v in ckpt.tensors.items()
                 if k.startswith("optimizer.")})
        except KeyError as exc:
            raise FormatError(f"{resume_from}: no training metadata or "
                              f"optimizer state {exc} to resume from") from exc
    else:
        model = build_initial_model(cfg)

    params = model.params()
    context = model.config.context_length
    n_micro = cfg.global_batch // cfg.micro_batch
    metrics_path = out_dir / "metrics.csv"
    kept_rows = []
    if resume_from and metrics_path.exists():
        # rows at or past the checkpoint step are logged again below
        with open(metrics_path, newline="") as mf:
            kept_rows = [row for row in list(csv.reader(mf))[1:]
                         if int(row[0]) < start_step]
    consecutive_bad = 0

    previous_check = ag.set_check_finite(False)
    try:
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
                        mf.flush()
                        raise DivergenceError(
                            f"{consecutive_bad} consecutive non-finite steps "
                            f"at step {step}")
                else:
                    consecutive_bad = 0
                if (cfg.checkpoint_interval
                        and (step + 1) % cfg.checkpoint_interval == 0
                        and step + 1 < cfg.total_steps):
                    _save_checkpoint(out_dir / f"ckpt_step{step + 1}.rfck",
                                     model, optimizer, step + 1, tokens_seen,
                                     meter.cumulative)
    finally:
        ag.set_check_finite(previous_check)

    final_path = out_dir / "final.rfck"
    _save_checkpoint(final_path, model, optimizer, cfg.total_steps,
                     tokens_seen, meter.cumulative)
    return {"final_checkpoint": str(final_path),
            "metrics": str(metrics_path),
            "tokens_seen": tokens_seen,
            "cumulative_flops": meter.cumulative}
