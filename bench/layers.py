"""Per-layer metrics from a traced run.

Names are ``<section>.<layer metric>``; the layer metric names are the
ones every later performance change is judged on (see README.md for the
end-to-end metric each should move). Conventions:

* ``*_ms`` / ``*_us`` of a named function: mean wall time per call;
* ``autograd.fwd_ms.<family>`` / ``autograd.bwd_ms.<family>`` and every
  count without ``per call`` in its description: total per section unit
  (training step, six-row sweep, FD forward, depth draw, batch); the
  ``fd`` backward rows are per taped backward;
* ``autograd.tape_nodes`` / ``autograd.tape_mb``: mean per backward call,
  ``tape_mb`` being the sum of ``nbytes`` over the tape's nodes;
* ``<section>.trace_overhead_s``: wall seconds of the traced round minus
  those of a mean untraced round.

`run.short_section_rates` adds the fd, draws and batches throughputs.
"""

from __future__ import annotations

import workloads as wl
from tracer import FAMILIES

MB = 1024.0 * 1024.0


def per_layer_metrics(tracer, bench, untraced, traced) -> dict:
    out: dict = {}

    def put(section, name, value, unit):
        out[f"{section}.{name}"] = (float(value), unit)

    def span(section, name):
        return tracer.span_stats.get((section, name), (0, 0.0, 0.0))

    def per_call_ms(section, name):
        count, total, _ = span(section, name)
        return 1e3 * total / count if count else 0.0

    def value(section, name):
        return tracer.values.get((section, name), (0, 0.0))

    def families(section, units, column, label):
        for family in FAMILIES:
            seconds = sum(stat[column]
                          for (sec, fam, _), stat in tracer.op_stats.items()
                          if sec == section and fam == family)
            put(section, f"{label}.{family}", 1e3 * seconds / units, "ms")

    def op_count(section):
        return sum(stat[0] for (sec, _, _), stat in tracer.op_stats.items()
                   if sec == section)

    def draws(section, units):
        count, seconds = value(section, "random.draw_s")
        put(section, "random.draw_calls", count / units, "count")
        put(section, "random.draw_us", 1e6 * seconds / count if count else 0.0,
            "us")

    def model_rows(section, units, with_count=True):
        put(section, "model.forward_ms",
            per_call_ms(section, "model.forward_recurrent"), "ms")
        put(section, "model.prelude_ms",
            per_call_ms(section, "model.prelude_forward"), "ms")
        put(section, "model.recurrent_step_ms",
            per_call_ms(section, "model.recurrent_step"), "ms")
        if with_count:
            put(section, "model.recurrent_steps",
                span(section, "model.recurrent_step")[0] / units, "count")

    def tape_rows(section):
        nodes, node_sum = value(section, "autograd.tape_nodes")
        _, byte_sum = value(section, "autograd.tape_bytes")
        put(section, "autograd.backward_ms",
            per_call_ms(section, "autograd.backward"), "ms")
        put(section, "autograd.tape_nodes", node_sum / nodes if nodes else 0,
            "count")
        put(section, "autograd.tape_mb", byte_sum / nodes / MB if nodes else 0,
            "MB")

    # set-up: one traced build of the start model
    put("setup", "surgery.apply_ms",
        per_call_ms("setup", "surgery.apply_surgery"), "ms")
    put("setup", "surgery.model_from_checkpoint_ms",
        per_call_ms("setup", "surgery.model_from_checkpoint"), "ms")
    put("setup", "checkpoint.save_ms",
        per_call_ms("setup", "checkpoint.Checkpoint.save"), "ms")
    put("setup", "checkpoint.load_ms",
        per_call_ms("setup", "checkpoint.Checkpoint.load"), "ms")
    put("setup", "checkpoint.bytes", bench.notes["start_bytes"], "B")

    # train: per training step
    steps = max(len(traced.steps), 1)
    families("train", steps, 1, "autograd.fwd_ms")
    families("train", steps, 2, "autograd.bwd_ms")
    tape_rows("train")
    put("train", "autograd.ops", op_count("train") / steps, "count")
    model_rows("train", steps)
    put("train", "schedules.sample_recurrence_us",
        1e3 * per_call_ms("train", "schedules.sample_recurrence"), "us")
    put("train", "schedules.sampled_r_mean", bench.notes["train_r_mean"],
        "count")
    draws("train", steps)
    put("train", "data.step_batch_ms", per_call_ms("train", "data.step_batch"),
        "ms")
    put("train", "optim.clip_ms",
        per_call_ms("train", "optim.clip_global_norm"), "ms")
    put("train", "optim.step_ms", per_call_ms("train", "optim.Muon.step"),
        "ms")
    put("train", "optim.newton_schulz_ms",
        per_call_ms("train", "optim.newton_schulz5"), "ms")
    put("train", "optim.newton_schulz_calls",
        span("train", "optim.newton_schulz5")[0] / steps, "count")
    put("train", "checkpoint.save_ms",
        per_call_ms("train", "checkpoint.Checkpoint.save"), "ms")
    put("train", "checkpoint.load_ms",
        per_call_ms("train", "checkpoint.Checkpoint.load"), "ms")
    put("train", "checkpoint.bytes", bench.notes["final_bytes"], "B")
    put("train", "surgery.model_from_checkpoint_ms",
        per_call_ms("train", "surgery.model_from_checkpoint"), "ms")
    count, _, self_s = span("train", "train.step")
    put("train", "train.step_self_ms", 1e3 * self_s / count if count else 0.0,
        "ms")

    # sweep: per six-row sweep
    sweeps = max(len(traced.samples["sweep"]), 1)
    families("sweep", sweeps, 1, "autograd.fwd_ms")
    put("sweep", "autograd.ops", op_count("sweep") / sweeps, "count")
    model_rows("sweep", sweeps, with_count=False)
    put("sweep", "evaluate.sweep_ms",
        per_call_ms("sweep", "evaluate.eval_sweep"), "ms")
    put("sweep", "evaluate.recurrent_steps_per_sweep",
        span("sweep", "model.recurrent_step")[0] / sweeps, "count")
    put("sweep", "data.eval_batch_ms", per_call_ms("sweep", "data.eval_batch"),
        "ms")
    put("sweep", "data.answer_mask_ms",
        per_call_ms("sweep", "data.answer_mask"), "ms")
    draws("sweep", sweeps)

    # fd: per value-mode forward, and per taped backward
    forwards = max(2 * wl.FD_CHUNK * len(traced.samples["fd"]), 1)
    families("fd", forwards, 1, "autograd.fwd_ms")
    put("fd", "autograd.ops", op_count("fd") / forwards, "count")
    model_rows("fd", forwards)
    draws("fd", forwards)
    families("fd_tape", 1, 2, "autograd.bwd_ms")
    tape_rows("fd_tape")
    for name in [n for n in out if n.startswith("fd_tape.")]:
        out["fd." + name[len("fd_tape."):]] = out.pop(name)

    # draws: per depth draw
    n_draws = max(wl.DRAW_CHUNK * len(traced.samples["draws"]), 1)
    put("draws", "schedules.sample_recurrence_us",
        1e3 * per_call_ms("draws", "schedules.sample_recurrence"), "us")
    put("draws", "schedules.sampled_r_mean",
        sum(bench.notes["draws"]) / len(bench.notes["draws"]), "count")
    draws("draws", n_draws)

    # batches: per 8x64 batch
    n_batches = max(wl.BATCH_CHUNK * len(traced.samples["batches"]), 1)
    put("batches", "data.step_batch_ms",
        per_call_ms("batches", "data.step_batch"), "ms")
    draws("batches", n_batches)

    share = traced.rounds / untraced.rounds
    for name in traced.seconds:
        put(name, "trace_overhead_s",
            traced.seconds[name] - share * untraced.seconds[name], "s")
    return out
