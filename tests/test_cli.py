"""Config loading and the command-line interface (run in-process)."""

import csv
import json

import pytest

from recurfit.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_FORMAT, EXIT_OK, main)
from recurfit.checkpoint import Checkpoint
from recurfit.config import load_config
from recurfit.errors import ConfigError
from recurfit.flops import flops_for_step
from recurfit.model import ModelConfig, init_fixed
from recurfit.random import RandomStream
from recurfit.schedules import curriculum_mean, lr_at, window_at
from recurfit.surgery import count_parameters, model_to_checkpoint

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
    cfg = load_config(write_config(tmp_path), ["curriculum.target=16",
                                               "seed=7"])
    assert cfg.curriculum.target == 16
    assert cfg.seed == 7


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


def test_cli_train_runs(tmp_path, capsys):
    code = main(["train", "--config", str(write_config(tmp_path))])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert summary["tokens_seen"] == 2 * 8 * 24


def test_cli_flops_matches_library(tmp_path, capsys):
    code = main(["flops", "--config", str(write_config(tmp_path)),
                 "--mean-r", "32", "--window", "8", "--tokens", "1000"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    report = count_parameters(ModelConfig(**MODEL), (1, 1, 1))
    assert payload["flops"] == pytest.approx(
        flops_for_step(report, 32.0, 8, 1000))


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


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == \
        EXIT_CONFIG
    bad = write_config(tmp_path, optimizr="adamw")
    assert main(["train", "--config", str(bad)]) == EXIT_CONFIG


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


def test_exit_code_data_error(tmp_path, donor_ckpt, capsys):
    out = tmp_path / "retro.rfck"
    main(["surgery", "--donor", str(donor_ckpt), "--plan-tuple", "1,2,1",
          "--out", str(out)])
    assert main(["eval", "--checkpoint", str(out), "--dataset",
                 "wikipedia"]) == EXIT_DATA
