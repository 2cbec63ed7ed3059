"""Training-loop behavior: determinism, resume, accumulation, divergence."""

import csv
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recurfit.train as train_mod
from recurfit.checkpoint import Checkpoint
from recurfit.config import RunConfig, resolved_config_json
from recurfit.errors import DivergenceError, FormatError, NonFiniteError
from recurfit.evaluate import val_loss
from recurfit.flops import flops_fixed, flops_for_step
from recurfit.model import ModelConfig, init_fixed
from recurfit.random import RandomStream
from recurfit.schedules import CurriculumSpec, WindowSchedule, WsdSpec
from recurfit.surgery import (apply_surgery, count_fixed_params,
                              count_parameters, make_plan, model_to_checkpoint)
from recurfit.train import METRIC_COLUMNS, build_initial_model, train


def tiny_run(out_dir, steps, **overrides):
    cfg = ModelConfig(vocab_size=257, hidden=16, n_query_heads=2, n_kv_heads=1,
                      head_dim=8, ffn_width=16, context_length=24)
    base = dict(model=cfg, total_steps=steps, out_dir=str(out_dir),
                model_kind="recurrent", plan_tuple=[1, 1, 1],
                optimizer="adamw",
                curriculum=CurriculumSpec(shape="linear", target=4,
                                          warmup_steps=max(steps, 1)),
                window=WindowSchedule(shape="constant", target=8,
                                      warmup_steps=0),
                lr=WsdSpec(peak=1e-3, warmup_steps=2,
                           stable_steps=max(steps - 4, 1), decay_steps=2),
                micro_batch=4, global_batch=4, seed=11,
                phases=[{"datasets": ["plain"], "weights": [1.0],
                         "start": 0, "end": steps}])
    base.update(overrides)
    return RunConfig(**base)


def read_metrics(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# ---------------------------------------------------------------------------
# zero steps and artifacts


def test_zero_steps_writes_header_and_initial_weights(tmp_path):
    cfg = tiny_run(tmp_path / "run", 0)
    summary = train(cfg)
    rows = read_metrics(summary["metrics"])
    assert rows == [list(METRIC_COLUMNS)]
    assert summary["tokens_seen"] == 0
    ckpt = Checkpoint.load(summary["final_checkpoint"])
    initial = build_initial_model(cfg)
    for name, p in initial.params().items():
        assert ckpt.tensors[name].tobytes() == p.data.tobytes(), name
    assert (tmp_path / "run" / "config.json").exists()


def test_metrics_schema_and_types(tmp_path):
    summary = train(tiny_run(tmp_path / "run", 3))
    rows = read_metrics(summary["metrics"])
    assert rows[0] == list(METRIC_COLUMNS)
    assert len(rows) == 4
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert math.isfinite(float(row[1]))
        assert int(row[4]) >= 1            # sampled_r
        assert int(row[8]) == 0            # nonfinite flag
    tokens = [int(r[6]) for r in rows[1:]]
    assert tokens == sorted(tokens) and tokens[0] > 0
    flops = [float(r[7]) for r in rows[1:]]
    assert all(b > a for a, b in zip(flops, flops[1:]))


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_runs_are_byte_identical(tmp_path):
    s1 = train(tiny_run(tmp_path / "a", 4))
    s2 = train(tiny_run(tmp_path / "b", 4))
    assert Path(s1["metrics"]).read_bytes() == Path(s2["metrics"]).read_bytes()
    assert Path(s1["final_checkpoint"]).read_bytes() == \
        Path(s2["final_checkpoint"]).read_bytes()


def test_different_seed_changes_trajectory(tmp_path):
    s1 = train(tiny_run(tmp_path / "a", 4))
    s2 = train(tiny_run(tmp_path / "b", 4, seed=12))
    assert Path(s1["metrics"]).read_bytes() != Path(s2["metrics"]).read_bytes()


def test_sampled_r_varies_with_spread(tmp_path):
    cfg = tiny_run(tmp_path / "run", 12,
                   curriculum=CurriculumSpec(shape="constant", target=8,
                                             warmup_steps=0),
                   phases=[{"datasets": ["plain"], "weights": [1.0],
                            "start": 0, "end": 12}])
    summary = train(cfg)
    sampled = [int(r[4]) for r in read_metrics(summary["metrics"])[1:]]
    assert len(set(sampled)) > 1
    assert all(r >= 1 for r in sampled)


# ---------------------------------------------------------------------------
# gradient accumulation


def test_micro_batch_accumulation_matches_full_batch(tmp_path):
    """Fixed-depth runs have no per-micro randomness, so micro_batch 2 vs 4
    must agree to accumulation-order rounding."""
    common = dict(model_kind="fixed", fixed_depth=2, dtype="float64",
                  global_batch=4)
    s_full = train(tiny_run(tmp_path / "full", 3, micro_batch=4, **common))
    s_micro = train(tiny_run(tmp_path / "micro", 3, micro_batch=2, **common))
    a = Checkpoint.load(s_full["final_checkpoint"])
    b = Checkpoint.load(s_micro["final_checkpoint"])
    for name in a.tensors:
        if name.startswith("optimizer."):
            continue
        np.testing.assert_allclose(a.tensors[name], b.tensors[name],
                                   rtol=1e-6, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# resume


def test_resume_matches_uninterrupted_run(tmp_path):
    full = train(tiny_run(tmp_path / "full", 6))
    part_cfg = tiny_run(tmp_path / "part", 6, checkpoint_interval=3)
    train(part_cfg)
    mid = tmp_path / "part" / "ckpt_step3.rfck"
    assert mid.exists()
    resumed = train(tiny_run(tmp_path / "resumed", 6), resume_from=str(mid))
    assert Path(resumed["final_checkpoint"]).read_bytes() == \
        Path(full["final_checkpoint"]).read_bytes()
    # resumed metrics reproduce the tail of the full run
    tail = read_metrics(resumed["metrics"])[1:]
    assert tail == read_metrics(full["metrics"])[1 + 3:]


def test_resume_appends_metrics_in_place(tmp_path):
    out = tmp_path / "run"
    train(tiny_run(out, 6, checkpoint_interval=3))
    full_rows = read_metrics(out / "metrics.csv")
    # rewind the CSV to the first half, then resume into the same directory
    with open(out / "metrics.csv", "w", newline="") as f:
        csv.writer(f).writerows(full_rows[:1 + 3])
    train(tiny_run(out, 6), resume_from=str(out / "ckpt_step3.rfck"))
    assert read_metrics(out / "metrics.csv") == full_rows


def test_resume_in_place_drops_rows_past_the_checkpoint(tmp_path):
    """A run that logged past its last checkpoint (here: to the end) and is
    resumed into the same directory ends with the uninterrupted files."""
    out = tmp_path / "run"
    train(tiny_run(out, 4, checkpoint_interval=2))
    metrics = (out / "metrics.csv").read_bytes()
    final = (out / "final.rfck").read_bytes()
    train(tiny_run(out, 4, checkpoint_interval=2),
          resume_from=str(out / "ckpt_step2.rfck"))
    assert (out / "metrics.csv").read_bytes() == metrics
    assert (out / "final.rfck").read_bytes() == final


# Dies the way a killed process does, right after its second checkpoint.
KILLED_RUN = """
import os, sys
import recurfit.train as train_mod
from recurfit.config import load_config
save = train_mod._save_checkpoint
def save_then_die(path, *args):
    save(path, *args)
    if path.name == "ckpt_step6.rfck":
        os._exit(9)
train_mod._save_checkpoint = save_then_die
train_mod.train(load_config(sys.argv[1]))
"""


def test_kill_after_checkpoint_resumes_to_uninterrupted_run(tmp_path):
    full = train(tiny_run(tmp_path / "full", 12, checkpoint_interval=3))
    out = tmp_path / "run"
    cfg = tiny_run(out, 12, checkpoint_interval=3)
    (tmp_path / "config.json").write_text(resolved_config_json(cfg))
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    killed = subprocess.run([sys.executable, "-c", KILLED_RUN,
                             str(tmp_path / "config.json")], env=env)
    assert killed.returncode == 9 and not (out / "final.rfck").exists()
    train(cfg, resume_from=str(out / "ckpt_step6.rfck"))
    assert (out / "metrics.csv").read_bytes() == \
        Path(full["metrics"]).read_bytes()
    assert (out / "final.rfck").read_bytes() == \
        Path(full["final_checkpoint"]).read_bytes()


# Sends itself SIGKILL partway through step 5, between the backward and
# the optimizer update; the last checkpoint before it is ckpt_step3.
SIGKILLED_RUN = """
import os, signal, sys
import recurfit.train as train_mod
from recurfit.config import load_config
clip = train_mod.clip_global_norm
calls = []
def clip_then_die(grads, max_norm):
    calls.append(1)
    if len(calls) == 6:
        os.kill(os.getpid(), signal.SIGKILL)
    return clip(grads, max_norm)
train_mod.clip_global_norm = clip_then_die
train_mod.train(load_config(sys.argv[1]))
"""


def test_sigkill_mid_step_resumes_to_uninterrupted_run(tmp_path):
    full = train(tiny_run(tmp_path / "full", 12, checkpoint_interval=3))
    out = tmp_path / "run"
    cfg = tiny_run(out, 12, checkpoint_interval=3)
    (tmp_path / "config.json").write_text(resolved_config_json(cfg))
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    killed = subprocess.run([sys.executable, "-c", SIGKILLED_RUN,
                             str(tmp_path / "config.json")], env=env)
    assert killed.returncode == -signal.SIGKILL
    assert sorted(p.name for p in out.glob("*.rfck")) == ["ckpt_step3.rfck"]
    train(cfg, resume_from=str(out / "ckpt_step3.rfck"))
    assert (out / "metrics.csv").read_bytes() == \
        Path(full["metrics"]).read_bytes()
    assert (out / "final.rfck").read_bytes() == \
        Path(full["final_checkpoint"]).read_bytes()


def test_resume_drops_a_torn_last_line(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_run(out, 12, checkpoint_interval=3)
    train(cfg)
    metrics = (out / "metrics.csv").read_bytes()
    final = (out / "final.rfck").read_bytes()
    lines = metrics.splitlines(keepends=True)
    # killed after checkpoint 9 while writing the row of step 10
    (out / "metrics.csv").write_bytes(b"".join(lines[:1 + 10]) + b"1")
    train(cfg, resume_from=str(out / "ckpt_step9.rfck"))
    assert (out / "metrics.csv").read_bytes() == metrics
    assert (out / "final.rfck").read_bytes() == final
    # an earlier row that is missing, torn or not text is a format error
    for row in ([], [b"4,2\r\n"], [b"\xff\r\n"]):
        edit = lines[:1 + 4] + row + lines[1 + 5:]
        (out / "metrics.csv").write_bytes(b"".join(edit))
        with pytest.raises(FormatError, match="below step 9"):
            train(cfg, resume_from=str(out / "ckpt_step9.rfck"))


def _without_optimizer_state(ckpt):
    return Checkpoint(ckpt.metadata, {k: v for k, v in ckpt.tensors.items()
                                      if not k.startswith("optimizer.")})


def _fixed_donor():
    return model_to_checkpoint(init_fixed(tiny_run("unused", 1).model, 3,
                                          RandomStream(0, "init")))


def _surgery_output(_ckpt):
    return apply_surgery(_fixed_donor(), make_plan((1, 1, 1), 3),
                         "identity-pass", noise_std=0.0)


def _with_step(step):
    return lambda ckpt: Checkpoint(dict(ckpt.metadata, step=step),
                                   ckpt.tensors)


@pytest.mark.parametrize("make_bad,missing", [
    (_surgery_output, "'step'"), (_without_optimizer_state, "'t'"),
    (_with_step("x"), "step"), (_with_step(None), "step"),
    (_with_step(1.7), "step"), (_with_step(-5), "step")],
    ids=["surgery-output", "no-optimizer-state", "string-step", "null-step",
         "float-step", "negative-step"])
def test_resume_without_training_state_is_format_error(tmp_path, make_bad,
                                                       missing):
    train(tiny_run(tmp_path / "run", 2, checkpoint_interval=1))
    bad = tmp_path / "bad.rfck"
    make_bad(Checkpoint.load(tmp_path / "run" / "ckpt_step1.rfck")).save(bad)
    with pytest.raises(FormatError, match=missing):
        train(tiny_run(tmp_path / "resumed", 2), resume_from=str(bad))


@pytest.fixture(scope="module")
def muon_ckpt(tmp_path_factory):
    """The step-1 checkpoint of a 2-step Muon run, whose optimizer state
    holds buffers (`buf.*`) and an AdamW fallback (`fb.*`)."""
    out = tmp_path_factory.mktemp("muon") / "run"
    train(tiny_run(out, 2, optimizer="muon", checkpoint_interval=1))
    return out / "ckpt_step1.rfck"


@pytest.mark.parametrize("key,value,error,needle", [
    ("buf.adapter", np.zeros(3), FormatError, "buf.adapter has shape (3,)"),
    ("fb.t", np.zeros(0, np.int64), FormatError, "step count fb.t"),
    ("fb.m.embed", np.zeros((2, 2)), FormatError,
     "fb.m.embed has shape (2, 2)"),
    ("fb.v.embed", np.full((257, 16), np.nan), NonFiniteError,
     "fb.v.embed is not finite"),
    ("buf.nowhere", np.zeros(3), FormatError, "buf.nowhere names no parameter"),
], ids=["buffer-shape", "empty-step-count", "moment-shape", "nan-moment",
        "no-such-parameter"])
def test_resume_with_malformed_optimizer_state_is_rejected(
        tmp_path, muon_ckpt, key, value, error, needle):
    """The first three used to escape as a raw ValueError or IndexError,
    and the last two to train on, into NaN weights or carrying a buffer
    that no parameter reads."""
    ckpt = Checkpoint.load(muon_ckpt)
    ckpt.tensors[f"optimizer.{key}"] = value
    bad = tmp_path / "bad.rfck"
    ckpt.save(bad)
    with pytest.raises(error, match=re.escape(needle)):
        train(tiny_run(tmp_path / "resumed", 2, optimizer="muon"),
              resume_from=str(bad))


def test_donor_without_depth_is_format_error(tmp_path):
    donor = _fixed_donor()
    del donor.metadata["depth"]
    path = tmp_path / "donor.rfck"
    donor.save(path)
    with pytest.raises(FormatError, match="depth"):
        build_initial_model(tiny_run(tmp_path / "run", 1,
                                     donor_checkpoint=str(path)))


def test_training_from_donor_equals_training_from_its_surgery(tmp_path):
    """`donor_checkpoint` is surgery with the run's adapter settings and an
    `adapter` stream of the run seed, then training as from
    `init_checkpoint`."""
    donor = tmp_path / "donor.rfck"
    _fixed_donor().save(donor)
    common = dict(optimizer="muon", adapter_init="scaled-random")
    from_donor = tiny_run(tmp_path / "from_donor", 3,
                          donor_checkpoint=str(donor), **common)
    cut = tmp_path / "cut.rfck"
    apply_surgery(Checkpoint.load(donor), make_plan((1, 1, 1), 3),
                  "scaled-random", RandomStream(from_donor.seed, "adapter"),
                  from_donor.adapter_noise_std).save(cut)
    from_cut = tiny_run(tmp_path / "from_cut", 3, init_checkpoint=str(cut),
                        **common)
    a, b = train(from_donor), train(from_cut)
    for key in ("metrics", "final_checkpoint"):
        assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes(), key


# ---------------------------------------------------------------------------
# divergence handling


def test_nonfinite_steps_logged_then_abort(tmp_path, monkeypatch):
    monkeypatch.setattr(train_mod, "_micro_loss_and_grads",
                        lambda *a, **k: (float("nan"), {}))
    cfg = tiny_run(tmp_path / "run", 10, max_nonfinite=2)
    with pytest.raises(DivergenceError):
        train(cfg)
    rows = read_metrics(tmp_path / "run" / "metrics.csv")
    assert [int(r[8]) for r in rows[1:]] == [1, 1, 1]


def test_nonfinite_step_skips_update(tmp_path, monkeypatch):
    real = train_mod._micro_loss_and_grads
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            return float("inf"), {}
        return real(*args, **kwargs)

    monkeypatch.setattr(train_mod, "_micro_loss_and_grads", flaky)
    cfg = tiny_run(tmp_path / "run", 2, max_nonfinite=5)
    summary = train(cfg)
    rows = read_metrics(summary["metrics"])
    assert [int(r[8]) for r in rows[1:]] == [1, 0]


def test_nonfinite_gradient_norm_skips_update(tmp_path, monkeypatch):
    """A finite loss whose gradient norm is not finite marks the row and
    leaves the parameters as they were."""
    def nonfinite_norm(grads, max_norm):
        raise NonFiniteError("global gradient norm is inf")

    monkeypatch.setattr(train_mod, "clip_global_norm", nonfinite_norm)
    cfg = tiny_run(tmp_path / "run", 2)
    summary = train(cfg)
    rows = read_metrics(summary["metrics"])[1:]
    assert [int(r[8]) for r in rows] == [1, 1]
    assert all(math.isfinite(float(r[1])) for r in rows)
    ckpt = Checkpoint.load(summary["final_checkpoint"])
    for name, p in build_initial_model(cfg).params().items():
        assert ckpt.tensors[name].tobytes() == p.data.tobytes(), name


# ---------------------------------------------------------------------------
# learning regression


def test_copy_task_from_scratch_learns(tmp_path):
    """200 steps on the copy task must cut val loss to <= 0.8x the initial
    model's loss (observed ratio is far lower; the bound is a tripwire)."""
    cfg = ModelConfig(vocab_size=257, hidden=32, n_query_heads=2, n_kv_heads=1,
                      head_dim=16, ffn_width=64, context_length=48)
    run = RunConfig(model=cfg, total_steps=200, out_dir=str(tmp_path / "run"),
                    model_kind="recurrent", plan_tuple=[1, 1, 1],
                    optimizer="muon",
                    curriculum=CurriculumSpec(shape="linear", target=4,
                                              warmup_steps=100),
                    window=WindowSchedule(shape="constant", target=8,
                                          warmup_steps=0),
                    lr=WsdSpec(peak=2e-3, warmup_steps=20, stable_steps=140,
                               decay_steps=40),
                    micro_batch=8, global_batch=8, seed=5,
                    phases=[{"datasets": ["copy"], "weights": [1.0],
                             "start": 0, "end": 200}])
    before = val_loss(build_initial_model(run), "copy", r=4)
    summary = train(run)
    ckpt = Checkpoint.load(summary["final_checkpoint"])
    ckpt.tensors = {k: v for k, v in ckpt.tensors.items()
                    if not k.startswith("optimizer.")}
    from recurfit.surgery import model_from_checkpoint
    after = val_loss(model_from_checkpoint(ckpt), "copy", r=4)
    assert after <= 0.8 * before, (before, after)


# ---------------------------------------------------------------------------
# the model decides kind and plan


FLOP_CFG = ModelConfig(vocab_size=257, hidden=16, n_query_heads=2,
                       n_kv_heads=1, head_dim=8, ffn_width=16,
                       context_length=16)


def one_step_from(init_path, out_dir):
    """One step of batch 2x16 at target 4, w=8, default config plan."""
    run = RunConfig(model=FLOP_CFG, total_steps=1, out_dir=str(out_dir),
                    init_checkpoint=str(init_path),
                    curriculum=CurriculumSpec(shape="constant", target=4),
                    window=WindowSchedule(shape="constant", target=8),
                    micro_batch=2, global_batch=2)
    assert run.model_kind == "recurrent" and run.plan_tuple == [1, 2, 1]
    return read_metrics(train(run)["metrics"])[-1]


def test_flops_follow_the_checkpoint_plan(tmp_path):
    donor = model_to_checkpoint(init_fixed(FLOP_CFG, 6, RandomStream(0, "init")))
    init = tmp_path / "cut.rfck"
    apply_surgery(donor, make_plan((2, 2, 2), 6), "identity-pass",
                  noise_std=0.0).save(init)
    row = one_step_from(init, tmp_path / "run")
    expected = flops_for_step(count_parameters(FLOP_CFG, (2, 2, 2)), 4, 8, 32)
    assert expected == 4005888
    assert float(row[7]) == expected


def test_fixed_init_checkpoint_trains_as_fixed(tmp_path):
    init = tmp_path / "donor.rfck"
    model_to_checkpoint(init_fixed(FLOP_CFG, 3, RandomStream(0, "init"))).save(init)
    row = one_step_from(init, tmp_path / "run")
    assert int(row[4]) == 1  # sampled_r
    body = count_fixed_params(FLOP_CFG, 3)
    assert float(row[7]) == flops_fixed(body, 32)
