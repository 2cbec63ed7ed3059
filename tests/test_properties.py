"""Property tests: arbitrary run configs and checkpoint bytes end in a
value or in the error taxonomy, never in a raw Python or numpy error."""

import copy
import dataclasses
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recurfit import cli
from recurfit.checkpoint import Checkpoint
from recurfit.config import RunConfig, load_config, resolved_config_json
from recurfit.errors import ConfigError, FormatError, NonFiniteError
from recurfit.model import (ModelConfig, init_fixed, init_recurrent,
                            recurrence_sweep)
from recurfit.random import RandomStream
from recurfit.schedules import CurriculumSpec, WsdSpec
from recurfit.surgery import model_from_checkpoint, model_to_checkpoint

# Capped so the three properties add about 3 s to the suite.
PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10)

MODEL = {"vocab_size": 257, "hidden": 16, "n_query_heads": 2, "n_kv_heads": 1,
         "head_dim": 8, "ffn_width": 16, "context_length": 8}
VALID_CONFIG = {
    "model": MODEL, "total_steps": 2, "out_dir": "run",
    "plan_tuple": [1, 1, 1], "optimizer": "adamw",
    "optimizer_hyper": {"beta1": 0.9},
    "curriculum": {"shape": "linear", "target": 4, "warmup_steps": 2},
    "window": {"target": 2},
    "lr": {"peak": 1e-3, "warmup_steps": 1},
    "phases": [{"datasets": ["plain"], "weights": [1.0], "start": 0,
                "end": 2}]}
SECTIONS = {"model": ModelConfig, "curriculum": CurriculumSpec,
            "window": CurriculumSpec, "lr": WsdSpec}


def field_names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


@st.composite
def run_config_objects(draw):
    """A JSON object: arbitrary, or a valid config with a few of its
    keys (top-level or nested) set to arbitrary JSON values."""
    if draw(st.booleans()):
        return draw(st.dictionaries(
            st.sampled_from(field_names(RunConfig)) | st.text(max_size=6),
            JSON, max_size=6))
    data = copy.deepcopy(VALID_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from([None, *SECTIONS]))
        if section is None or not isinstance(data.get(section), dict):
            key = draw(st.sampled_from(field_names(RunConfig) + ["bogus"]))
            data[key] = draw(JSON)
        else:
            key = draw(st.sampled_from(field_names(SECTIONS[section])))
            data[section][key] = draw(JSON)
    return data


@PROPERTY
@given(data=run_config_objects())
def test_any_json_object_is_a_run_config_or_a_config_error(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    json.loads(resolved_config_json(cfg))


ENTRY = st.fixed_dictionaries({}, optional={
    "shape": JSON | st.lists(st.integers(-2, 8), max_size=3),
    "dtype": JSON | st.sampled_from([
        "<f4", "<f8", "<U8", "|b1", "<c16", "V0", "S0", "O", "f4,f4",
        "(2,)f4", {"names": ["a"], "formats": ["<f4"], "offsets": [2 ** 70]}]),
    "offset": JSON | st.integers(-4, 80),
    "nbytes": JSON | st.integers(-4, 80)})


@st.composite
def checkpoint_bytes(draw):
    """Raw bytes: arbitrary, or the RFCK preamble followed by arbitrary
    bytes, or a framed header: JSON (often with a tensor directory) or
    text that no JSON parser takes."""
    kind = draw(st.sampled_from(["raw", "magic", "framed", "framed"]))
    if kind == "raw":
        return draw(st.binary(max_size=128))
    if kind == "magic":
        return b"RFCK" + draw(st.binary(max_size=64))
    header = draw(JSON | st.fixed_dictionaries({
        "metadata": JSON,
        "tensors": st.dictionaries(st.text(max_size=4), ENTRY, max_size=3)}))
    raw = draw(st.just(json.dumps(header).encode()) | st.sampled_from([
        b"[" * 100_000, b"1" * 5000, b"\xff{}"]) | st.binary(max_size=32))
    length = draw(st.just(len(raw)) | st.integers(0, 2 ** 64 - 1))
    version = draw(st.sampled_from([1, 1, 1, 0, 2]))
    return (b"RFCK" + struct.pack("<IQ", version, length) + raw
            + draw(st.binary(max_size=80)))


@PROPERTY
@given(blob=checkpoint_bytes())
def test_any_bytes_are_a_checkpoint_or_a_format_error(tmp_path, blob):
    path = tmp_path / "any.rfck"
    path.write_bytes(blob)
    try:
        ckpt = Checkpoint.load(path)
    except FormatError:
        return
    assert isinstance(ckpt, Checkpoint)


def _saved_blob(tmp_path_factory, model) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "valid.rfck"
    model_to_checkpoint(model, extra_metadata={"step": 1}).save(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    cfg = ModelConfig(**dict(MODEL, qk_norm=True))
    return [_saved_blob(tmp_path_factory, build) for build in (
        init_fixed(cfg, 2, RandomStream(0, "init")),
        init_recurrent(cfg, (1, 1, 1), RandomStream(0, "init")))]


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree, leaves and inner nodes."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


ODD_VALUES = st.sampled_from([0, -1, 1.5, "a", True, None, [], {}, 2 ** 40])


@st.composite
def mutated_headers(draw, header):
    """`header` with one to three of its values replaced, deleted or
    joined by a new key; half of the edits fall in the metadata."""
    header = copy.deepcopy(header)
    for _ in range(draw(st.integers(1, 3))):
        root = draw(st.sampled_from([header, header.get("metadata")]))
        paths = list(_paths(root))
        if not paths:
            continue
        prefix, key = draw(st.sampled_from(paths))
        parent = root
        for step in prefix:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "replace":
            parent[key] = draw(ODD_VALUES | st.integers(-3, 40) | JSON)
        elif action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(JSON)
    return header


@PROPERTY
@given(data=st.data())
def test_mutated_header_is_a_model_or_a_format_error(tmp_path, valid_blobs,
                                                     data):
    """A model that loads also runs a one-token forward; tensor bytes that
    an edited directory reads as NaN/Inf are a NonFiniteError."""
    blob = data.draw(st.sampled_from(valid_blobs))
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16:16 + header_len])
    raw = json.dumps(data.draw(mutated_headers(header))).encode()
    path = tmp_path / "mutated.rfck"
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw
                     + blob[16 + header_len:])
    try:
        model = model_from_checkpoint(Checkpoint.load(path))
    except (FormatError, NonFiniteError):
        return
    assert model.params()
    with np.errstate(all="ignore"):
        [(_, logits)] = recurrence_sweep(model, np.zeros((1, 1), dtype=int),
                                         [1], RandomStream(0, "s0"))
    assert logits.shape == (1, 1, model.config.vocab_size)



RESUME_CONFIG = dict(
    VALID_CONFIG, total_steps=3, checkpoint_interval=1,
    curriculum={"shape": "linear", "target": 4, "warmup_steps": 3},
    phases=[{"datasets": ["plain"], "weights": [1.0], "start": 0, "end": 3}])
# Each example loads a checkpoint and trains at most two tiny steps.
RESUME = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture,
                                         HealthCheck.too_slow])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The directory of an uninterrupted 3-step run through the CLI, with
    a checkpoint after each step; its config file sits beside it."""
    run = tmp_path_factory.mktemp("resume") / "run"
    config = run.parent / "config.json"
    config.write_text(json.dumps(dict(RESUME_CONFIG, out_dir=str(run))))
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    return run


@RESUME
@given(data=st.data())
def test_resume_from_a_damaged_checkpoint_ends_the_run_or_exits_with_its_code(
        tmp_path, finished_run, data):
    """Resuming in place from the step-1 checkpoint of a 3-step run, cut
    at any offset or saved again without any subset of its tensors, all
    optimizer state of one parameter, or any subset of its top-level
    metadata keys, either ends with the uninterrupted run's
    final.rfck and metrics.csv or exits with a code of the CLI's error
    taxonomy (2 to 5). An exception the CLI does not map would exit 1.
    Before the optimizers required state for every parameter after a
    step, a checkpoint without one parameter's moments resumed with exit
    0 to other bytes."""
    source = finished_run / "ckpt_step1.rfck"
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copy(finished_run / "metrics.csv", out)
    damaged = out / "damaged.rfck"
    damage = data.draw(st.sampled_from(["cut", "tensors", "state", "keys"]))
    if damage == "cut":
        blob = source.read_bytes()
        damaged.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    else:
        ckpt = Checkpoint.load(source)
        if damage == "tensors":
            doomed = data.draw(st.sets(st.sampled_from(sorted(ckpt.tensors))))
        elif damage == "state":  # all optimizer state of one parameter
            param = data.draw(st.sampled_from(sorted(
                k for k in ckpt.tensors if not k.startswith("optimizer."))))
            doomed = {k for k in ckpt.tensors
                      if k.startswith("optimizer.") and k.endswith(f".{param}")}
        else:
            doomed = data.draw(st.sets(st.sampled_from(sorted(ckpt.metadata))))
        for name in doomed:
            (ckpt.metadata if damage == "keys" else ckpt.tensors).pop(name)
        ckpt.save(damaged)
    code = cli.main(["train", "--config",
                     str(finished_run.parent / "config.json"), "--set",
                     f"out_dir={out}", "--resume", str(damaged)])
    if code == cli.EXIT_OK:
        for name in ("final.rfck", "metrics.csv"):
            assert (out / name).read_bytes() == \
                (finished_run / name).read_bytes()
    else:
        assert code in (cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_DIVERGENCE,
                        cli.EXIT_FORMAT)


# Each example runs one tiny command: eval reads at most 8 items (one
# micro-batch, so it does not fork) at r <= 4, and a dump at most 1000 steps.
CLI_RUN = settings(max_examples=80, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture,
                                          HealthCheck.too_slow])
# `{dir}` is each example's fresh directory, which holds the directory
# `taken` and the regular file `afile`.
OUT = st.sampled_from(["{dir}/new/out", "{dir}/taken", "{dir}/afile/out"])
DATASET = st.sampled_from(["plain", "arithmetic", "copy", "wikipedia"])


def number(low, high, kind=int):
    """A number flag's text: mostly in [low, high], else 0, negative, NaN
    or infinite."""
    small = (st.floats(low, high) if kind is float
             else st.integers(low, high)).map(str)
    return st.one_of(small, small, small, st.sampled_from(
        ["0", "-1", "-7", "nan", "inf", "-inf"]))


def int_list(low, high, size):
    """A comma list: mostly `size` ints in [low, high], else any length
    and 0 or negative entries."""
    return st.one_of(
        st.lists(st.integers(low, high), min_size=size, max_size=size),
        st.lists(st.integers(low, high), min_size=size, max_size=size),
        st.lists(st.integers(-1, high), min_size=1, max_size=size + 1)).map(
        lambda xs: ",".join(map(str, xs)))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Paths of a tiny fixed donor, a tiny recurrent checkpoint and a run
    config."""
    where = tmp_path_factory.mktemp("cli")
    cfg = ModelConfig(**MODEL)
    paths = {"donor": where / "donor.rfck",
             "recurrent": where / "recurrent.rfck",
             "config": where / "config.json"}
    model_to_checkpoint(init_fixed(cfg, 3, RandomStream(0, "init"))).save(
        paths["donor"])
    model_to_checkpoint(init_recurrent(cfg, (1, 1, 1), RandomStream(
        0, "init"))).save(paths["recurrent"])
    paths["config"].write_text(json.dumps(VALID_CONFIG))
    return {name: str(path) for name, path in paths.items()}


@st.composite
def cli_argvs(draw, inputs):
    """An argv of flops, schedule-dump, surgery, layer-scores or eval,
    each optional flag set or left out."""
    command = draw(st.sampled_from(["flops", "schedule-dump", "surgery",
                                    "layer-scores", "eval"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, draw(values)])

    checkpoint = st.sampled_from([inputs["donor"], inputs["recurrent"]])
    if command == "flops":
        argv += ["--config", inputs["config"], "--tokens",
                 draw(number(0, 10 ** 6))]
        maybe("--mean-r", number(1, 64, float))
        maybe("--window", number(1, 16))
    elif command == "schedule-dump":
        argv += ["--config", inputs["config"]]
        maybe("--steps", number(0, 1000))
        maybe("--out", OUT)
    elif command == "surgery":
        argv += ["--donor", inputs["donor"], "--plan-tuple",
                 draw(int_list(0, 2, 3)), "--out", draw(OUT)]
        maybe("--plan-file", OUT)
        maybe("--noise-std", number(0, 1, float))
        maybe("--seed", number(0, 9))
        maybe("--adapter-init", st.sampled_from(["identity-pass",
                                                 "scaled-random"]))
    elif command == "layer-scores":
        argv += ["--checkpoint", draw(checkpoint)]
        maybe("--items", number(1, 8))
        maybe("--context", number(1, 16))
        maybe("--data-seed", number(0, 9))
        maybe("--dataset", DATASET)
    else:
        argv += ["--checkpoint", draw(checkpoint), "--items", draw(number(1, 8)),
                 "--recurrences", draw(int_list(1, 4, 2))]
        maybe("--s0-seed", number(0, 9))
        maybe("--data-seed", number(0, 9))
        maybe("--dataset", DATASET)
        maybe("--out", OUT)
    return argv


@CLI_RUN
@given(data=st.data())
def test_cli_never_exits_1(tmp_path, cli_inputs, data):
    """Every argv of these commands ends in success or in a code of the
    error taxonomy (2 to 5); an argparse rejection counts as 2. An error
    the CLI does not map would exit 1. Output paths under a regular file
    used to."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "taken").mkdir()
    (work / "afile").write_text("")
    argv = [arg.replace("{dir}", str(work))
            for arg in data.draw(cli_argvs(cli_inputs))]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA,
                    cli.EXIT_DIVERGENCE, cli.EXIT_FORMAT), argv
