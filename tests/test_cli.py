"""Config loading and the command-line interface (run in-process)."""

import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from recurfit.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_FORMAT,
                          EXIT_OK, main)
from recurfit.checkpoint import Checkpoint
from recurfit.config import RunConfig, load_config
from recurfit.errors import ConfigError, ContractError, FormatError
from recurfit.fields import fits
from recurfit.flops import recurrent_split, train_flops
import recurfit.model as model_module
import recurfit.train as train_module
from recurfit.model import ModelConfig, init_fixed
from recurfit.random import RandomStream
from recurfit.schedules import (CurriculumSpec, WindowSchedule, WsdSpec,
                                curriculum_mean, lr_at, window_at)
from recurfit.surgery import (apply_surgery, count_fixed_params,
                              count_parameters, make_plan, model_to_checkpoint)
from recurfit.train import train

MODEL = {"vocab_size": 257, "hidden": 16, "n_query_heads": 2, "n_kv_heads": 1,
         "head_dim": 8, "ffn_width": 16, "context_length": 24}


def write_config(tmp_path, **extra):
    data = {"model": MODEL, "total_steps": 2, "out_dir": str(tmp_path / "run"),
            "plan_tuple": [1, 1, 1], "optimizer": "adamw",
            "curriculum": {"shape": "linear", "target": 4, "warmup_steps": 2},
            "lr": {"peak": 1e-3, "warmup_steps": 1, "stable_steps": 1,
                   "decay_steps": 1},
            "phases": [{"datasets": ["plain"], "weights": [1.0],
                        "start": 0, "end": 2}]}
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# config loading


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.model.hidden == 16
    assert cfg.model_kind == "recurrent"
    assert cfg.depth_spread == 0.5
    assert cfg.window.target == 8


def test_load_config_override_nested_key(tmp_path):
    # a value that is not JSON is a string; `window` is not in the file
    cfg = load_config(write_config(tmp_path), ["curriculum.target=16",
                                               "seed=7", "dtype=float64",
                                               "window.target=4"])
    assert cfg.curriculum.target == 16
    assert cfg.seed == 7
    assert cfg.dtype == "float64"
    assert cfg.window.target == 4


def test_load_config_unknown_key_names_the_key(tmp_path):
    with pytest.raises(ConfigError, match="curiculum"):
        load_config(write_config(tmp_path, curiculum={"target": 4}))
    with pytest.raises(ConfigError, match="curriculum.tgt"):
        load_config(write_config(tmp_path), ["curriculum.tgt=4"])


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, model_kind="hybrid"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, micro_batch=3, global_batch=8))
    with pytest.raises(ConfigError, match="model: hidden"):
        load_config(write_config(tmp_path, model=dict(MODEL, hidden=17)))
    with pytest.raises(ConfigError, match="curriculum.shape: 'cubic'"):
        load_config(write_config(tmp_path, curriculum={"shape": "cubic"}))


@pytest.mark.parametrize("extra,needle", [
    ({"optimizer": "sgd"}, "sgd"),
    ({"optimizer": "muon", "optimizer_hyper": {"bogus": 1}}, "bogus"),
    ({"adapter_init": "foo"}, "foo"),
], ids=["optimizer", "optimizer-hyper", "adapter-init"])
def test_unknown_optimizer_or_adapter_is_config_error(tmp_path, capsys, extra,
                                                      needle):
    path = write_config(tmp_path, **extra)
    with pytest.raises(ConfigError, match=needle):
        load_config(path)
    assert main(["train", "--config", str(path)]) == EXIT_CONFIG


def _raw_config(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("make,overrides,needle", [
    (lambda t: write_config(t, dtype="float16"), [], "dtype"),
    (lambda t: write_config(t, curriculum=4), [],
     "curriculum: expected an object"),
    (lambda t: _raw_config(t, "{"), [], "parse error"),
    (write_config, ["seed"], "key=value"),
    (write_config, ["optimizer.x=1"], "descends into a scalar"),
], ids=["dtype", "section-not-object", "parse-error", "override-no-equals",
        "override-into-scalar"])
def test_malformed_config_is_config_error(tmp_path, capsys, make, overrides,
                                          needle):
    path = make(tmp_path)
    with pytest.raises(ConfigError, match=needle):
        load_config(path, overrides)
    argv = ["train", "--config", str(path)]
    for text in overrides:
        argv += ["--set", text]
    assert main(argv) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [[], ["seed=1"]],
                         ids=["plain", "with-set"])
@pytest.mark.parametrize("command", [["train"], ["flops", "--tokens", "10"],
                                     ["schedule-dump"]],
                         ids=["train", "flops", "schedule-dump"])
@pytest.mark.parametrize("text", ["[]", "3", '"abc"'],
                         ids=["list", "number", "string"])
def test_non_object_config_is_config_error_naming_the_file(
        tmp_path, capsys, text, command, overrides):
    """A top level that is not an object is rejected before any override
    descends into it."""
    path = _raw_config(tmp_path, text)
    with pytest.raises(ConfigError, match="expected an object"):
        load_config(path, overrides)
    argv = command + ["--config", str(path)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == EXIT_CONFIG
    assert f"{path}: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("extra,needle", [
    ({"lr": {"peak": "a"}}, "lr.peak"),
    ({"grad_clip": "big"}, "grad_clip"),
    ({"optimizer_hyper": {"beta1": "x"}}, "optimizer_hyper"),
    ({"optimizer_hyper": {"beta1": None}}, "optimizer_hyper"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"total_steps": "2"}, "total_steps"),
    ({"plan_tuple": [1, True, 1]}, "plan_tuple"),
    ({"plan_tuple": "121"}, "plan_tuple"),
    ({"model": dict(MODEL, tie_embeddings=1)}, "model.tie_embeddings"),
    ({"curriculum": {"target": 4.5}}, "curriculum.target"),
    ({"init_checkpoint": 5}, "init_checkpoint"),
    ({"model_kind": "fixed", "fixed_depth": -1}, "fixed_depth"),
    ({"plan_tuple": [-1, 2, 1]}, "plan_tuple"),
    ({"model": dict(MODEL, n_kv_heads=0)}, "n_kv_heads"),
    ({"emb_scale": 0}, "emb_scale"),
    ({"grad_clip": 0}, "grad_clip"),
    ({"lr": {"peak": -1}}, "lr.peak"),
    ({"adapter_noise_std": -1}, "adapter_noise_std"),
    ({"curriculum": {"target": 4, "warmup_steps": -5}},
     "curriculum.warmup_steps"),
    ({"max_nonfinite": -3}, "max_nonfinite"),
    ({"lr": {"peak": 1e-3, "decay_steps": -2}}, "lr.decay_steps"),
], ids=["lr-peak-str", "grad-clip-str", "hyper-str", "hyper-null",
        "seed-float", "seed-bool", "steps-str", "plan-bool-entry",
        "plan-str", "tie-int", "target-float", "init-checkpoint-int",
        "negative-fixed-depth", "negative-plan-entry", "zero-kv-heads",
        "zero-emb-scale", "zero-grad-clip", "negative-lr-peak",
        "negative-adapter-noise", "negative-warmup", "negative-max-nonfinite",
        "negative-decay"])
def test_wrong_typed_or_negative_config_value_is_config_error(
        tmp_path, capsys, extra, needle):
    path = write_config(tmp_path, **extra)
    with pytest.raises(ConfigError, match=needle):
        load_config(path)
    assert main(["train", "--config", str(path)]) == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# Number fields that take any value of their type; every other int or
# float field of a config section declares a bound.
UNBOUNDED = {(RunConfig, "seed")}


@pytest.mark.parametrize("cls", [RunConfig, ModelConfig, CurriculumSpec,
                                 WindowSchedule, WsdSpec])
def test_every_number_field_declares_a_bound(cls):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if hints[f.name] in (int, float) and (cls, f.name) not in UNBOUNDED:
            assert f.metadata.get("least") is not None or \
                f.metadata.get("above") is not None, f.name


def test_config_types_accept_ints_for_floats_and_null_paths(tmp_path):
    cfg = load_config(write_config(
        tmp_path, lr={"peak": 1}, grad_clip=2, donor_checkpoint=None,
        optimizer_hyper={"beta1": 0, "beta2": 0.5},
        model=dict(MODEL, rope_base=500, tie_embeddings=True)))
    assert (cfg.lr.peak, cfg.grad_clip, cfg.model.rope_base) == (1, 2, 500)
    assert cfg.optimizer_hyper == {"beta1": 0, "beta2": 0.5}


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_float_fields_reject_non_finite_values(value):
    assert fits(1.5, float) and fits(2, float)
    assert not fits(value, float)
    assert not fits({"beta1": value}, dict[str, float])
    with pytest.raises(ContractError, match="not finite"):
        WsdSpec(peak=value, warmup_steps=1, stable_steps=1, decay_steps=1)


# ---------------------------------------------------------------------------
# CLI commands


@pytest.fixture
def donor_ckpt(tmp_path):
    cfg = ModelConfig(**MODEL)
    model = init_fixed(cfg, 4, RandomStream(0, "init"))
    path = tmp_path / "donor.rfck"
    model_to_checkpoint(model).save(path)
    return path


def test_cli_surgery_then_eval(tmp_path, donor_ckpt, capsys):
    out = tmp_path / "retro.rfck"
    code = main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple",
                 "1,2,1", "--out", str(out)])
    assert code == EXIT_OK
    assert Checkpoint.load(out).metadata["kind"] == "recurrent"
    code = main(["eval", "--checkpoint", str(out), "--dataset", "arithmetic",
                 "--recurrences", "1,2", "--items", "8",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("2 ")
    with open(tmp_path / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "r" and len(rows) == 3


def test_cli_surgery_scaled_random_is_seeded(tmp_path, donor_ckpt, capsys):
    def cut(name, seed):
        out = tmp_path / name
        assert main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple",
                     "1,2,1", "--adapter-init", "scaled-random", "--seed",
                     str(seed), "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    first = cut("a.rfck", 3)
    assert cut("b.rfck", 3) == first
    assert cut("c.rfck", 4) != first


def test_cli_surgery_plan_file_matches_checkpoint_plan(tmp_path, donor_ckpt,
                                                       capsys):
    out, plan_file = tmp_path / "retro.rfck", tmp_path / "plan.json"
    assert main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple",
                 "1,2,1", "--out", str(out), "--plan-file",
                 str(plan_file)]) == EXIT_OK
    written = json.loads(plan_file.read_text())
    assert written == make_plan((1, 2, 1), 4).to_dict()
    assert written == Checkpoint.load(out).metadata["plan"]


def test_cli_surgery_writes_both_files_under_out_root(tmp_path, donor_ckpt,
                                                     monkeypatch, capsys):
    root = tmp_path / "root"
    monkeypatch.setenv("RECURFIT_OUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple",
                 "1,2,1", "--out", "runs/cut.rfck", "--plan-file",
                 "runs/plan.json"]) == EXIT_OK
    cut = Checkpoint.load(root / "runs" / "cut.rfck")
    assert json.loads((root / "runs" / "plan.json").read_text()) == \
        cut.metadata["plan"]
    assert not (tmp_path / "runs").exists()


def test_cli_train_runs(tmp_path, capsys):
    code = main(["train", "--config", str(write_config(tmp_path))])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert summary["tokens_seen"] == 2 * 8 * 24


def test_cli_train_with_unknown_dataset_id_is_config_error(tmp_path, capsys):
    """A phase naming a dataset no generator makes exits 2 at load, before
    `config.json` is written, even at weight 0, where no step draws it."""
    path = write_config(tmp_path, phases=[{
        "datasets": ["plain", "arithmetik"], "weights": [1.0, 0.0],
        "start": 0, "end": 2}])
    assert main(["train", "--config", str(path)]) == EXIT_CONFIG
    assert "'arithmetik'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_resume_with_unpaired_moment_is_format_error(tmp_path, capsys):
    """An AdamW checkpoint that lost one `v.<p>` moment exits 5 at resume,
    not with a KeyError in the first resumed step."""
    path = write_config(tmp_path, checkpoint_interval=1)
    assert main(["train", "--config", str(path)]) == EXIT_OK
    ckpt = Checkpoint.load(tmp_path / "run" / "ckpt_step1.rfck")
    del ckpt.tensors["optimizer.v.prelude.0.wq"]
    bad = tmp_path / "bad.rfck"
    ckpt.save(bad)
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--resume",
                 str(bad)]) == EXIT_FORMAT
    assert "v.prelude.0.wq" in capsys.readouterr().err


def test_cli_resume_past_total_steps_is_config_error(tmp_path, capsys):
    """A step-4 checkpoint resumed into a 2-step run exits 2, naming both
    step counts, before it writes anything into the run directory."""
    assert main(["train", "--config", str(write_config(
        tmp_path, total_steps=4, phases=[{"datasets": ["plain"],
                                          "weights": [1.0], "start": 0,
                                          "end": 4}]))]) == EXIT_OK
    run = tmp_path / "run"
    before = {p: p.read_bytes() for p in run.rglob("*")}
    capsys.readouterr()
    assert main(["train", "--config", str(write_config(tmp_path)),
                 "--resume", str(run / "final.rfck")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "step 4" in err and "total_steps 2" in err
    assert {p: p.read_bytes() for p in run.rglob("*")} == before


def test_cli_flops_matches_library(tmp_path, capsys):
    code = main(["flops", "--config", str(write_config(tmp_path)),
                 "--mean-r", "32", "--window", "8", "--tokens", "1000"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    report = count_parameters(ModelConfig(**MODEL), (1, 1, 1))
    assert payload["flops"] == pytest.approx(
        train_flops(*recurrent_split(report, 32.0, 8), 1000))


def test_cli_fixed_model_flops_match_library(tmp_path, capsys):
    path = write_config(tmp_path, model_kind="fixed", fixed_depth=3)
    assert main(["flops", "--config", str(path), "--tokens", "1000"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    body = count_fixed_params(ModelConfig(**MODEL), 3)
    assert payload["model_kind"] == "fixed"
    assert payload["non_embedding_params"] == body
    assert payload["flops"] == train_flops(body, 0, 1000)


def _one_step_config(tmp_path, **extra):
    """One step of batch 2x24 at curriculum target 4 and window 2."""
    return write_config(
        tmp_path, total_steps=1, micro_batch=2, global_batch=2,
        curriculum={"shape": "constant", "target": 4},
        window={"shape": "constant", "target": 2},
        phases=[{"datasets": ["plain"], "weights": [1.0], "start": 0,
                 "end": 1}], **extra)


@pytest.mark.parametrize("source", ["fixed-init", "surgery-init", "donor",
                                    "scratch", "scratch-fixed"])
def test_cli_flops_equals_one_metered_train_step(tmp_path, capsys, source):
    """`flops` accounts the model `train` builds: kind, plan and model
    config come from the init checkpoint or donor when the config names
    one. The checkpoints use another ffn width than the config."""
    other = ModelConfig(**dict(MODEL, ffn_width=32))
    fixed = tmp_path / "fixed3.rfck"
    model_to_checkpoint(init_fixed(other, 3, RandomStream(0, "init"))).save(
        fixed)
    cut = tmp_path / "cut222.rfck"
    donor6 = model_to_checkpoint(init_fixed(other, 6, RandomStream(1, "init")))
    apply_surgery(donor6, make_plan((2, 2, 2), 6), "identity-pass",
                  noise_std=0.0).save(cut)
    extra = {"fixed-init": {"init_checkpoint": str(fixed)},
             "surgery-init": {"init_checkpoint": str(cut)},
             "donor": {"donor_checkpoint": str(fixed)},
             "scratch": {},
             "scratch-fixed": {"model_kind": "fixed", "fixed_depth": 2}}[source]
    path = _one_step_config(tmp_path, **extra)
    assert main(["flops", "--config", str(path), "--mean-r", "4", "--window",
                 "2", "--tokens", "48"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    summary = train(load_config(path))
    assert summary["tokens_seen"] == 48
    assert payload["flops"] == summary["cumulative_flops"]
    assert payload["model_kind"] == (
        "fixed" if source in ("fixed-init", "scratch-fixed") else "recurrent")


def test_cli_flops_builds_no_weights_for_a_scratch_config(tmp_path, capsys,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("flops built model weights")

    for module in (train_module, model_module):
        monkeypatch.setattr(module, "init_fixed", refuse)
        monkeypatch.setattr(module, "init_recurrent", refuse)
    for extra in ({}, {"model_kind": "fixed", "fixed_depth": 2}):
        path = write_config(tmp_path, **extra)
        assert main(["flops", "--config", str(path), "--tokens",
                     "10"]) == EXIT_OK


def test_cli_schedule_dump_matches_pointwise(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["schedule-dump", "--config", str(cfg_path), "--steps", "4",
                 "--out", str(tmp_path / "sched.csv")])
    assert code == EXIT_OK
    cfg = load_config(cfg_path)
    with open(tmp_path / "sched.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "mean", "window", "lr"]
    for row in rows[1:]:
        step = int(row[0])
        assert int(row[1]) == curriculum_mean(cfg.curriculum, step)
        assert int(row[2]) == window_at(cfg.window, step)
        assert float(row[3]) == pytest.approx(lr_at(cfg.lr, step))


def test_cli_layer_scores(tmp_path, donor_ckpt, capsys):
    code = main(["layer-scores", "--checkpoint", str(donor_ckpt),
                 "--items", "2", "--context", "16"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4 and lines[0].startswith("layer 0:")


def test_cli_layer_scores_on_recurrent_checkpoint_is_format_error(
        tmp_path, recurrent_ckpt, capsys):
    """It used to exit 1 with a raw AttributeError (no `blocks`)."""
    assert main(["layer-scores", "--checkpoint", str(recurrent_ckpt),
                 "--items", "2", "--context", "16"]) == EXIT_FORMAT
    assert "must be a fixed-depth checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "surgery"])
def test_cli_out_naming_a_directory_is_config_error(tmp_path, donor_ckpt,
                                                    monkeypatch, capsys,
                                                    command):
    """Both used to exit 1 with IsADirectoryError, surgery at the atomic
    rename of its temporary file onto the directory."""
    root = tmp_path / "root"
    (root / "taken").mkdir(parents=True)
    monkeypatch.setenv("RECURFIT_OUT_ROOT", str(root))
    source = ["--checkpoint", str(donor_ckpt), "--recurrences", "1",
              "--items", "1"] if command == "eval" else [
        "--donor", str(donor_ckpt), "--plan-tuple", "1,2,1"]
    assert main([command] + source + ["--out", "taken"]) == EXIT_CONFIG
    assert "is a directory" in capsys.readouterr().err
    assert list(root.rglob("*")) == [root / "taken"]


@pytest.mark.parametrize("command,flag,value", [
    ("flops", "--mean-r", "0.5"), ("flops", "--mean-r", "nan"),
    ("flops", "--mean-r", "inf"), ("flops", "--window", "-3"),
    ("flops", "--window", "0"), ("flops", "--tokens", "-5"),
    ("surgery", "--noise-std", "-1"), ("surgery", "--noise-std", "nan"),
    ("surgery", "--noise-std", "inf"), ("schedule-dump", "--steps", "-3"),
])
def test_cli_number_flag_out_of_bounds_is_config_error(
        tmp_path, donor_ckpt, monkeypatch, capsys, command, flag, value):
    """Each flag is bounded like the field it mirrors; these used to print
    negative or non-JSON numbers, or write a noise-free adapter with the
    bad value in its metadata."""
    root = tmp_path / "root"
    monkeypatch.setenv("RECURFIT_OUT_ROOT", str(root))
    base = {"flops": ["--config", str(write_config(tmp_path)), "--tokens",
                      "1000"],
            "surgery": ["--donor", str(donor_ckpt), "--plan-tuple", "1,2,1",
                        "--out", "cut.rfck"],
            "schedule-dump": ["--config", str(write_config(tmp_path))]}
    assert main([command] + base[command] + [flag, value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not root.exists()


@pytest.mark.parametrize("argv,code", [
    (["eval", "--checkpoint", "{dir}"], EXIT_FORMAT),
    (["surgery", "--donor", "{dir}", "--plan-tuple", "1,2,1", "--out",
      "cut.rfck"], EXIT_FORMAT),
    (["train", "--config", "{dir}"], EXIT_CONFIG),
], ids=["eval-checkpoint", "surgery-donor", "train-config"])
def test_cli_input_path_naming_a_directory_is_named(tmp_path, monkeypatch,
                                                    capsys, argv, code):
    """Each used to exit 1 with a raw IsADirectoryError."""
    monkeypatch.setenv("RECURFIT_OUT_ROOT", str(tmp_path / "root"))
    where = tmp_path / "dir"
    where.mkdir()
    assert main([arg.format(dir=where) for arg in argv]) == code
    assert f"{where}: cannot read" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [where]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_error(tmp_path, donor_ckpt, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == \
        EXIT_CONFIG
    bad = write_config(tmp_path, optimizr="adamw")
    assert main(["train", "--config", str(bad)]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple", "1,2",
                 "--out", "x.rfck"]) == EXIT_CONFIG
    assert "p,r,c" in capsys.readouterr().err
    for extra in ({"micro_batch": 0}, {"metric_interval": 0},
                  {"plan_tuple": [1, 1], "donor_checkpoint": str(donor_ckpt)},
                  {"phases": [5]}, {"micro_batch": -8},
                  {"checkpoint_interval": -1}, {"total_steps": -1},
                  {"depth_spread": -1}):
        path = write_config(tmp_path, **extra)
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG, extra
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("override,needle", [
    ("lr.peak=Infinity", "lr.peak"),
    ("optimizer_hyper.beta1=NaN", "optimizer_hyper"),
    ("grad_clip=-Infinity", "grad_clip"),
])
def test_non_finite_config_float_is_config_error(tmp_path, capsys, override,
                                                 needle):
    """JSON accepts NaN and Infinity; no float field does."""
    code = main(["train", "--config", str(write_config(tmp_path)),
                 "--set", override])
    assert code == EXIT_CONFIG
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_checkpoint_config_holding_nan_is_format_error(tmp_path, donor_ckpt,
                                                       capsys):
    ckpt = Checkpoint.load(donor_ckpt)
    ckpt.metadata["config"]["norm_eps"] = float("nan")
    path = tmp_path / "nan-config.rfck"
    ckpt.save(path)
    assert main(["layer-scores", "--checkpoint", str(path), "--items", "2",
                 "--context", "16"]) == EXIT_FORMAT
    assert "not finite" in capsys.readouterr().err


def test_exit_code_divergence(tmp_path, capsys):
    """A huge rate from step 0 makes step 1's loss non-finite."""
    code = main(["train", "--config", str(write_config(tmp_path)),
                 "--set", "lr.peak=1e10", "--set", "lr.warmup_steps=0",
                 "--set", "max_nonfinite=0"])
    assert code == EXIT_DIVERGENCE
    assert "1 consecutive non-finite steps at step 1" in \
        capsys.readouterr().err


def _nan_checkpoint(tmp_path, source, name):
    ckpt = Checkpoint.load(source)
    ckpt.tensors[name] = ckpt.tensors[name].copy()
    ckpt.tensors[name][0, 0] = np.nan
    path = tmp_path / "nan.rfck"
    ckpt.save(path)
    return path


def _overflow_checkpoint(tmp_path, source, name):
    """A finite float64 copy of `source` whose tensor `name` is all 1e308,
    so that the forward overflows."""
    ckpt = Checkpoint.load(source)
    ckpt.tensors = {k: v.astype(np.float64) for k, v in ckpt.tensors.items()}
    ckpt.tensors[name][...] = 1e308
    path = tmp_path / "overflow.rfck"
    ckpt.save(path)
    return path


def test_exit_code_nonfinite_checkpoint(tmp_path, donor_ckpt, capsys):
    cut = tmp_path / "retro.rfck"
    assert main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple",
                 "1,2,1", "--out", str(cut)]) == EXIT_OK
    recurrent = _nan_checkpoint(tmp_path, cut, "prelude.0.wq")
    assert main(["eval", "--checkpoint", str(recurrent), "--recurrences", "1",
                 "--items", "2"]) == EXIT_DIVERGENCE
    fixed = _nan_checkpoint(tmp_path, donor_ckpt, "layers.1.wq")
    assert main(["layer-scores", "--checkpoint", str(fixed), "--items", "2",
                 "--context", "16"]) == EXIT_DIVERGENCE
    assert "non-finite" in capsys.readouterr().err


def test_train_from_nonfinite_checkpoint_stops_before_any_step(
        tmp_path, donor_ckpt, capsys):
    nan = _nan_checkpoint(tmp_path, donor_ckpt, "layers.1.wq")
    config = write_config(tmp_path, init_checkpoint=str(nan))
    assert main(["train", "--config", str(config)]) == EXIT_DIVERGENCE
    assert "layers.1.wq is not finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_surgery_on_nonfinite_donor_writes_nothing(tmp_path, donor_ckpt,
                                                   capsys):
    nan = _nan_checkpoint(tmp_path, donor_ckpt, "layers.3.wq")
    out = tmp_path / "retro.rfck"
    assert main(["surgery", "--donor", str(nan), "--plan-tuple", "1,2,1",
                 "--out", str(out)]) == EXIT_DIVERGENCE
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_readout_of_overflowing_forward_is_nonfinite(tmp_path, donor_ckpt,
                                                     capsys):
    """Finite weights whose forward overflows: the eval loss and the layer
    scores are checked where they are read out."""
    unembed = _overflow_checkpoint(tmp_path, donor_ckpt, "unembed")
    assert main(["eval", "--checkpoint", str(unembed), "--recurrences", "1",
                 "--items", "2"]) == EXIT_DIVERGENCE
    assert "loss at r=1 is not finite" in capsys.readouterr().err
    w_down = _overflow_checkpoint(tmp_path, donor_ckpt, "layers.3.w_down")
    assert main(["layer-scores", "--checkpoint", str(w_down), "--items", "2",
                 "--context", "16"]) == EXIT_DIVERGENCE
    assert "scores" in capsys.readouterr().err


def test_overflowing_readout_exits_4_under_warnings_as_errors(tmp_path,
                                                             donor_ckpt):
    """Under `python -W error` numpy's overflow warnings in these forwards
    used to escape as a RuntimeWarning (exit 1)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    (tmp_path / "eval").mkdir()
    (tmp_path / "scores").mkdir()
    unembed = _overflow_checkpoint(tmp_path / "eval", donor_ckpt, "unembed")
    w_down = _overflow_checkpoint(tmp_path / "scores", donor_ckpt,
                                  "layers.3.w_down")
    for args in (["eval", "--checkpoint", str(unembed), "--recurrences", "1",
                  "--items", "16"],
                 ["layer-scores", "--checkpoint", str(w_down), "--items", "2",
                  "--context", "16"]):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "recurfit.cli", *args],
            env=env, capture_output=True, text=True)
        assert result.returncode == EXIT_DIVERGENCE, result.stderr


def test_overflowing_init_draw_exits_as_without_warnings_as_errors(
        tmp_path, donor_ckpt):
    """A draw whose std overflows gives inf weights under `python -W
    error` too: surgery and a donor run with adapter noise 1e308 stop on
    the non-finite adapter (exit 4), and a scratch run with emb_scale
    1e308 trains on, writing non-finite rows (exit 0), as each does
    without -W error. The overflow used to escape as a RuntimeWarning
    (exit 1)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for name in ("donor", "scratch"):
        (tmp_path / name).mkdir()
    donor_run = write_config(tmp_path / "donor",
                             donor_checkpoint=str(donor_ckpt),
                             adapter_noise_std=1e308)
    scratch_run = write_config(tmp_path / "scratch", emb_scale=1e308)
    cut = tmp_path / "cut.rfck"
    for args, code in (
            (["surgery", "--donor", str(donor_ckpt), "--plan-tuple", "1,2,1",
              "--noise-std", "1e308", "--out", str(cut)], EXIT_DIVERGENCE),
            (["train", "--config", str(donor_run)], EXIT_DIVERGENCE),
            (["train", "--config", str(scratch_run)], EXIT_OK)):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "recurfit.cli", *args],
            env=env, capture_output=True, text=True)
        assert result.returncode == code, result.stderr
    assert not cut.exists()
    with open(tmp_path / "scratch" / "run" / "metrics.csv", newline="") as f:
        assert [row["nonfinite"] for row in csv.DictReader(f)] == ["1", "1"]


def test_module_entry_point_exit_status(tmp_path):
    """`python -m recurfit.cli` exits with the code `main` returns."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def status(config):
        return subprocess.run(
            [sys.executable, "-m", "recurfit.cli", "flops", "--config",
             str(config), "--tokens", "1000"], env=env,
            capture_output=True).returncode

    assert status(write_config(tmp_path)) == EXIT_OK
    assert status(tmp_path / "nope.json") == EXIT_CONFIG


def test_exit_code_format_error(tmp_path, donor_ckpt, capsys):
    junk = tmp_path / "junk.rfck"
    junk.write_bytes(b"not a checkpoint")
    assert main(["eval", "--checkpoint", str(junk)]) == EXIT_FORMAT
    assert main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple",
                 "4,4,4", "--out", str(tmp_path / "x.rfck")]) == EXIT_FORMAT
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.rfck")]) == \
        EXIT_FORMAT
    short = tmp_path / "short.rfck"
    short.write_bytes(b"RFCK12")
    assert main(["eval", "--checkpoint", str(short)]) == EXIT_FORMAT
    ckpt = Checkpoint.load(donor_ckpt)
    ckpt.tensors["layers.0.wq"] = ckpt.tensors["layers.0.wq"][:, :8].copy()
    misshapen = tmp_path / "misshapen.rfck"
    ckpt.save(misshapen)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(misshapen)]) == EXIT_FORMAT
    assert "layers.0.wq has shape (16, 8)" in capsys.readouterr().err
    out = tmp_path / "surgical.rfck"
    assert main(["surgery", "--donor", str(misshapen), "--plan-tuple", "1,2,1",
                 "--out", str(out)]) == EXIT_FORMAT
    assert "layers.0.wq has shape (16, 8)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["surgery", "--plan-tuple", "1,x,1", "--out", "x.rfck"],
    ["eval", "--recurrences", "1,a"],
], ids=["plan-tuple", "recurrences"])
def test_exit_code_non_integer_comma_list(tmp_path, donor_ckpt, capsys, argv):
    flag = "--donor" if argv[0] == "surgery" else "--checkpoint"
    assert main(argv + [flag, str(donor_ckpt)]) == EXIT_CONFIG
    assert "expected integers" in capsys.readouterr().err


def _edited_checkpoint(tmp_path, source, edit):
    ckpt = Checkpoint.load(source)
    edit(ckpt.metadata)
    path = tmp_path / "edited.rfck"
    ckpt.save(path)
    return path


def test_exit_code_donor_without_depth(tmp_path, donor_ckpt, capsys):
    donor = _edited_checkpoint(tmp_path, donor_ckpt,
                               lambda meta: meta.pop("depth"))
    assert main(["surgery", "--donor", str(donor), "--plan-tuple", "1,2,1",
                 "--out", str(tmp_path / "x.rfck")]) == EXIT_FORMAT
    assert "depth" in capsys.readouterr().err


@pytest.fixture
def recurrent_ckpt(tmp_path, donor_ckpt):
    path = tmp_path / "recurrent.rfck"
    apply_surgery(Checkpoint.load(donor_ckpt), make_plan((1, 2, 1), 4),
                  "identity-pass", noise_std=0.0).save(path)
    return path


@pytest.mark.parametrize("source,edit", [
    ("donor", lambda m: m["config"].update(n_kv_heads=0)),
    ("donor", lambda m: m.update(depth=-1)),
    ("donor", lambda m: m.update(depth="4")),
    ("recurrent", lambda m: m["config"].update(n_kv_heads=0)),
    ("recurrent", lambda m: m.update(plan_tuple=[1, "a", 1])),
    ("recurrent", lambda m: m.update(plan_tuple=[1, 1.5, 1])),
    ("recurrent", lambda m: m.update(plan_tuple=[1, -1, 1])),
], ids=["fixed-zero-kv-heads", "negative-depth", "string-depth",
        "recurrent-zero-kv-heads", "string-plan-entry", "float-plan-entry",
        "negative-plan-entry"])
def test_exit_code_bad_checkpoint_layout(tmp_path, donor_ckpt, recurrent_ckpt,
                                         capsys, source, edit):
    bad = _edited_checkpoint(tmp_path, donor_ckpt if source == "donor"
                             else recurrent_ckpt, edit)
    assert main(["eval", "--checkpoint", str(bad), "--recurrences", "1",
                 "--items", "1"]) == EXIT_FORMAT
    if source == "donor":
        assert main(["surgery", "--donor", str(bad), "--plan-tuple", "1,1,1",
                     "--out", str(tmp_path / "x.rfck")]) == EXIT_FORMAT
        assert main(["layer-scores", "--checkpoint", str(bad)]) == EXIT_FORMAT


@pytest.mark.parametrize("dtype", ["<U8", "complex128"])
def test_exit_code_model_tensor_dtype(tmp_path, donor_ckpt, capsys, dtype):
    """A string embed used to exit 1 (numpy TypeError); a complex one
    exited 0 with its imaginary parts dropped."""
    ckpt = Checkpoint.load(donor_ckpt)
    ckpt.tensors["embed"] = ckpt.tensors["embed"].astype(dtype)
    bad = tmp_path / "bad.rfck"
    ckpt.save(bad)
    assert main(["eval", "--checkpoint", str(bad), "--recurrences", "1",
                 "--items", "1"]) == EXIT_FORMAT
    assert "embed has dtype" in capsys.readouterr().err


def test_exit_code_inconsistent_checkpoint_config(tmp_path, donor_ckpt,
                                                  capsys):
    bad = _edited_checkpoint(tmp_path, donor_ckpt,
                             lambda meta: meta["config"].update(hidden=17))
    assert main(["eval", "--checkpoint", str(bad)]) == EXIT_FORMAT
    assert "hidden (17)" in capsys.readouterr().err


def _rewritten_checkpoint(tmp_path, source, edit_header=None, version=1,
                          raw_header=None):
    """Copy of `source` with its directory edited in place, or with another
    format version or header bytes."""
    blob = source.read_bytes()
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16:16 + header_len])
    if edit_header:
        edit_header(header["tensors"])
    raw = raw_header or json.dumps(header).encode()
    bad = tmp_path / "bad.rfck"
    bad.write_bytes(blob[:4] + struct.pack("<IQ", version, len(raw)) + raw
                    + blob[16 + header_len:])
    return bad


def test_exit_code_bad_directory_entry(tmp_path, donor_ckpt, capsys):
    bad = _rewritten_checkpoint(tmp_path, donor_ckpt,
                                lambda d: d["embed"].pop("offset"))
    assert main(["eval", "--checkpoint", str(bad)]) == EXIT_FORMAT
    assert "embed" in capsys.readouterr().err


@pytest.mark.parametrize("rewrite,needle", [
    (dict(version=2), "unsupported format version 2"),
    (dict(raw_header=b"{\xff"), "corrupt header"),
    (dict(edit_header=lambda d: d["embed"].update(offset=1 << 40)),
     "tensor embed outside payload"),
    (dict(edit_header=lambda d: d["final_norm"].update(
        offset=d["embed"]["offset"])), "overlapping tensors"),
], ids=["version", "corrupt-header", "outside-payload", "overlap"])
def test_exit_code_corrupt_checkpoint(tmp_path, donor_ckpt, capsys, rewrite,
                                      needle):
    bad = _rewritten_checkpoint(tmp_path, donor_ckpt, **rewrite)
    with pytest.raises(FormatError, match=needle):
        Checkpoint.load(bad)
    assert main(["eval", "--checkpoint", str(bad)]) == EXIT_FORMAT
    assert needle in capsys.readouterr().err


def test_exit_code_data_error(tmp_path, donor_ckpt, capsys):
    out = tmp_path / "retro.rfck"
    main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple", "1,2,1",
          "--out", str(out)])
    assert main(["eval", "--checkpoint", str(out), "--dataset",
                 "wikipedia"]) == EXIT_DATA
    for items in ("0", "-1"):
        assert main(["eval", "--checkpoint", str(out), "--items",
                     items]) == EXIT_DATA
    for flag in ("--items", "--context"):
        assert main(["layer-scores", "--checkpoint", str(donor_ckpt), flag,
                     "0"]) == EXIT_DATA
