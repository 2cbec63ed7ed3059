"""Evaluation sweep over test-time recurrence counts."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from recurfit import autograd as ag
from recurfit import blas, evaluate
from recurfit.data import answer_mask, eval_batch
from recurfit.errors import ContractError, NonFiniteError
from recurfit.evaluate import (DEFAULT_RECURRENCES, eval_sweep, val_loss)
from recurfit.model import (FixedModel, ModelConfig, RecurrenceRun,
                            forward_fixed, forward_recurrent, init_fixed,
                            init_recurrent)
from recurfit.random import RandomStream
from recurfit.surgery import (apply_surgery, count_parameters, make_plan,
                              model_from_checkpoint, model_to_checkpoint,
                              pruned_donor)

CFG = ModelConfig(vocab_size=257, hidden=16, n_query_heads=2, n_kv_heads=1,
                  head_dim=8, ffn_width=16, context_length=24)


def fresh_recurrent(plan=(1, 1, 1), seed=0):
    return init_recurrent(CFG, plan, RandomStream(seed, "init"))


def test_zero_model_loss_is_log_vocab():
    """All-zero unembedding gives uniform logits, so mean cross entropy is
    exactly ln(vocab_size)."""
    model = fresh_recurrent()
    model.unembed.data = np.zeros_like(model.unembed.data)
    loss = val_loss(model, "plain", r=2, n_items=8)
    assert loss == pytest.approx(math.log(257), rel=1e-6)


def test_val_loss_deterministic():
    model = fresh_recurrent()
    a = val_loss(model, "arithmetic", r=2, n_items=8)
    b = val_loss(model, "arithmetic", r=2, n_items=8)
    assert a == b
    c = val_loss(model, "arithmetic", r=2, n_items=8, data_seed=999)
    assert a != c


def test_val_loss_rejects_bad_r():
    with pytest.raises(ContractError):
        val_loss(fresh_recurrent(), "plain", r=0)


def test_sweep_rows_and_effective_params():
    model = fresh_recurrent()
    result = eval_sweep(model, "plain", recurrences=(1, 4), n_items=8)
    assert [row.r for row in result.rows] == [1, 4]
    rep = count_parameters(CFG, (1, 1, 1))
    for row in result.rows:
        assert row.effective_params == (
            rep.prelude + rep.coda
            + row.r * (rep.recurrent_block + rep.adapter))
        assert row.flop_proxy == pytest.approx(2.0 * row.effective_params)
        assert math.isfinite(row.loss)
        assert 0.0 <= row.accuracy <= 1.0


def _per_r_oracle(model, dataset_id, r, s0_seed=0, n_items=8,
                  data_seed=1234, micro_batch=8):
    """(loss, accuracy) from one full `forward_recurrent` per micro-batch
    at r, restarting the recurrence from s0 for every r."""
    inputs, targets = eval_batch(data_seed, dataset_id, n_items,
                                 model.config.context_length)
    mask = answer_mask(dataset_id, targets)
    total_nll, total_tokens, hits, answer_total = 0.0, 0, 0, 0
    for b, lo in enumerate(range(0, inputs.shape[0], micro_batch)):
        sl = slice(lo, lo + micro_batch)
        if isinstance(model, FixedModel):
            logits = forward_fixed(model, inputs[sl]).data
        else:
            run = RecurrenceRun(r, window=r, s0_stream=RandomStream(
                s0_seed, f"eval_s0/{b}"))
            logits = forward_recurrent(model, inputs[sl], run).data
        zmax = logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(logits - zmax).sum(axis=-1)) + zmax[..., 0]
        picked = np.take_along_axis(logits, targets[sl][..., None],
                                    axis=-1)[..., 0]
        total_nll += float((lse - picked).sum())
        total_tokens += picked.size
        hits += int(((logits.argmax(axis=-1) == targets[sl]) & mask[sl]).sum())
        answer_total += int(mask[sl].sum())
    return total_nll / total_tokens, hits / max(answer_total, 1)


def test_one_pass_sweep_equals_per_r_oracle():
    """Unsorted, duplicated counts over two micro-batches: every row equals
    a fresh per-r forward exactly, duplicates included."""
    model = fresh_recurrent()
    result = eval_sweep(model, "arithmetic", recurrences=(4, 1, 3, 1),
                        s0_seed=5, n_items=12)
    assert [row.r for row in result.rows] == [1, 1, 3, 4]
    for row in result.rows:
        loss, accuracy = _per_r_oracle(model, "arithmetic", row.r, s0_seed=5,
                                       n_items=12)
        assert row.loss == loss and row.accuracy == accuracy


def test_fixed_model_sweep_and_val_loss_equal_oracle():
    donor = init_fixed(CFG, 2, RandomStream(3, "init"))
    result = eval_sweep(donor, "copy", recurrences=(2, 1), n_items=8)
    loss, accuracy = _per_r_oracle(donor, "copy", 1)
    assert [(row.r, row.loss, row.accuracy) for row in result.rows] == \
        [(1, loss, accuracy), (2, loss, accuracy)]
    assert val_loss(donor, "copy", r=1, n_items=8) == loss


def test_fixed_model_sweep_rejects_r0():
    donor = init_fixed(CFG, 2, RandomStream(3, "init"))
    with pytest.raises(ContractError):
        eval_sweep(donor, "plain", [0, 1], n_items=4)
    with pytest.raises(ContractError):
        val_loss(donor, "plain", r=0, n_items=4)


def test_val_loss_equals_per_r_oracle():
    model = fresh_recurrent()
    for r in (1, 3):
        assert val_loss(model, "copy", r=r, s0_seed=2, n_items=8) == \
            _per_r_oracle(model, "copy", r, s0_seed=2)[0]


def test_eval_records_nothing_on_callers_tape():
    model = fresh_recurrent()
    with ag.Tape() as tape:
        val_loss(model, "plain", r=2, n_items=8)
        eval_sweep(model, "plain", recurrences=(1, 2), n_items=8)
        assert ag.active_tape() is tape
    assert tape.nodes == []


def test_sweep_superset_contains_subset_rows():
    model = fresh_recurrent()
    small = eval_sweep(model, "arithmetic", recurrences=(2, 8), n_items=8)
    large = eval_sweep(model, "arithmetic", recurrences=(1, 2, 4, 8),
                       n_items=8)
    by_r = {row.r: row for row in large.rows}
    for row in small.rows:
        assert by_r[row.r].loss == row.loss
        assert by_r[row.r].accuracy == row.accuracy


def test_sweep_rejects_empty_list():
    with pytest.raises(ContractError):
        eval_sweep(fresh_recurrent(), "plain", recurrences=())


def test_default_recurrences():
    assert DEFAULT_RECURRENCES == (1, 2, 4, 8, 16, 32)


def test_sweep_csv_format(tmp_path):
    result = eval_sweep(fresh_recurrent(), "plain", recurrences=(1, 2),
                        n_items=8)
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["r", "loss", "accuracy", "effective_params",
                       "flop_proxy"]
    assert len(rows) == 3
    assert int(rows[1][0]) == 1 and math.isfinite(float(rows[1][1]))
    assert "loss" in result.summary()


def test_identity_surgery_r1_matches_pruned_donor():
    """With an identity-pass adapter and r=1, the retrofit model's eval loss
    equals the pruned donor's fixed-depth loss."""
    donor = init_fixed(CFG, 4, RandomStream(3, "init"))
    ckpt = model_to_checkpoint(donor)
    plan = make_plan((1, 2, 1), 4)
    retro = model_from_checkpoint(
        apply_surgery(ckpt, plan, "identity-pass", RandomStream(0, "a"), 0.0))
    # the (1,2,1) plan keeps every donor layer, so r=1 is the full donor
    a = val_loss(retro, "arithmetic", r=1, n_items=8)
    b = val_loss(donor, "arithmetic", r=1, n_items=8)
    assert a == pytest.approx(b, abs=1e-5)


# ---------------------------------------------------------------------------
# the forked worker: the last floor(m/2) micro-batches in a child process

forking = pytest.mark.skipif(
    not evaluate._two_processes(2),
    reason="needs os.fork, two usable CPUs and numpy's OpenBLAS thread setter")


@pytest.fixture
def forks(monkeypatch):
    """Calls of `os.fork` made in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _serial(monkeypatch):
    monkeypatch.setattr(evaluate, "_two_processes", lambda n_batches: False)


def _patched_sweep(monkeypatch, at, action):
    """Make `action(r, logits)` give micro-batch b's readout at r for each
    (b, r) in `at`; a patch made before the fork reaches the child."""
    sweep = evaluate.recurrence_sweep

    def patched(model, tokens, recurrences, stream):
        b = int(stream.label.rsplit("/", 1)[1])
        for r, logits in sweep(model, tokens, recurrences, stream):
            yield r, action(r, logits) if (b, r) in at else logits

    monkeypatch.setattr(evaluate, "recurrence_sweep", patched)


def _nan_logits(r, logits):
    return SimpleNamespace(data=np.full_like(logits.data, np.nan))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@forking
@pytest.mark.parametrize("n_items", [12, 16, 24], ids=["8+4", "even", "odd"])
@pytest.mark.parametrize("kind", ["recurrent", "fixed"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forked_rows_equal_serial_rows(monkeypatch, forks, n_items, kind,
                                       dtype):
    model = (init_recurrent(CFG, (1, 1, 1), RandomStream(0, "init"),
                            dtype=dtype) if kind == "recurrent"
             else init_fixed(CFG, 2, RandomStream(3, "init"), dtype=dtype))
    run = dict(recurrences=(4, 1, 3), s0_seed=5, n_items=n_items)
    forked = eval_sweep(model, "arithmetic", **run)
    forked_loss = val_loss(model, "copy", r=3, n_items=n_items)
    assert len(forks) == 2
    _serial(monkeypatch)
    assert forked.rows == eval_sweep(model, "arithmetic", **run).rows
    assert forked_loss == val_loss(model, "copy", r=3, n_items=n_items)
    assert len(forks) == 2


@forking
@pytest.mark.parametrize("at,r", [({(2, 3)}, 3), ({(2, 1), (1, 4)}, 4),
                                  ({(0, 4), (2, 1)}, 4)],
                         ids=["child-only", "parent-later-r",
                              "first-batch"])
def test_forked_nonfinite_loss_names_the_serial_r(monkeypatch, forks, at, r):
    """24 items: micro-batches 0 and 1 run here, 2 in the child. The error
    names the r at which the running sum over micro-batches in order first
    goes non-finite, wherever the NaN was computed."""
    model = fresh_recurrent()
    _patched_sweep(monkeypatch, at, _nan_logits)
    run = dict(recurrences=(1, 3, 4), n_items=24)
    with pytest.raises(NonFiniteError) as forked:
        eval_sweep(model, "plain", **run)
    assert forks == [1]
    _serial(monkeypatch)
    with pytest.raises(NonFiniteError) as serial:
        eval_sweep(model, "plain", **run)
    assert str(forked.value) == str(serial.value) == \
        f"loss at r={r} is not finite"


@forking
def test_child_error_is_raised_with_its_type_and_message(monkeypatch, forks):
    def fail(r, logits):
        raise ContractError(f"bad readout at r={r}")

    _patched_sweep(monkeypatch, {(1, 2)}, fail)
    with pytest.raises(ContractError, match="^bad readout at r=2$"):
        eval_sweep(fresh_recurrent(), "plain", recurrences=(1, 2), n_items=16)
    assert forks == [1] and _no_child_left()


@forking
def test_child_failure_alone_gives_the_serial_rows(monkeypatch, forks):
    """A readout that raises only in the child: the child sends nothing,
    and this process computes the child's half itself."""
    parent = os.getpid()

    def fail_in_child(r, logits):
        if os.getpid() != parent:
            raise ContractError(f"child readout at r={r}")
        return logits

    model = fresh_recurrent()
    run = dict(recurrences=(1, 2), n_items=16)
    _patched_sweep(monkeypatch, {(1, 2)}, fail_in_child)
    forked = eval_sweep(model, "plain", **run)
    assert forks == [1] and _no_child_left()
    _serial(monkeypatch)
    assert forked.rows == eval_sweep(model, "plain", **run).rows


@forking
def test_child_that_dies_without_a_result_names_its_exit_status(monkeypatch,
                                                                forks):
    _patched_sweep(monkeypatch, {(1, 1)}, lambda r, logits: os._exit(7))
    with pytest.raises(RuntimeError, match="exited with code 7"):
        val_loss(fresh_recurrent(), "plain", r=1, n_items=16)
    assert forks == [1] and _no_child_left()


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads, so that a count left at one shows."""
    set_threads, get_threads = blas._thread_functions()
    before = get_threads()
    set_threads(2)
    yield 2
    set_threads(before)


@forking
def test_fork_reaps_the_child_and_restores_blas_threads(monkeypatch, forks,
                                                        two_blas_threads):
    model = fresh_recurrent()
    eval_sweep(model, "plain", recurrences=(1, 2), n_items=16)
    assert _no_child_left() and blas.threads() == two_blas_threads

    def fail(r, logits):
        raise KeyError("parent half")

    _patched_sweep(monkeypatch, {(0, 2)}, fail)
    with pytest.raises(KeyError, match="parent half"):
        eval_sweep(model, "plain", recurrences=(1, 2), n_items=16)
    assert _no_child_left() and blas.threads() == two_blas_threads
    assert forks == [1, 1]


@forking
def test_failed_fork_raises_and_closes_the_pipe(monkeypatch, two_blas_threads):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(BlockingIOError):
        eval_sweep(fresh_recurrent(), "plain", recurrences=(1,), n_items=16)
    assert set(os.listdir("/proc/self/fd")) == fds
    assert blas.threads() == two_blas_threads


@pytest.mark.parametrize("case", ["one-micro-batch", "no-fork", "one-cpu",
                                  "no-affinity-call", "no-blas-setter"])
def test_serial_where_the_gate_is_closed(monkeypatch, forks, case):
    model = fresh_recurrent()
    n_items = 8 if case == "one-micro-batch" else 16
    expected = eval_sweep(model, "plain", recurrences=(1, 2),
                          n_items=n_items).rows
    forks.clear()
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    elif case == "no-affinity-call":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif case == "no-blas-setter":
        monkeypatch.setattr(blas, "_thread_functions", lambda: None)
        assert blas.threads() is None
    with blas.one_thread():
        assert eval_sweep(model, "plain", recurrences=(1, 2),
                          n_items=n_items).rows == expected
    assert forks == []


@pytest.mark.skipif(blas.threads() is None,
                    reason="needs numpy's OpenBLAS thread setter")
def test_library_without_thread_symbols_leaves_blas_alone(monkeypatch, forks,
                                                          two_blas_threads):
    """Where the bundled OpenBLAS lacks both thread functions, the count
    reads as None, pinning changes nothing and the sweep runs serially."""
    _, get_threads = blas._thread_functions()
    model = fresh_recurrent()
    expected = eval_sweep(model, "plain", recurrences=(1, 2), n_items=16).rows

    class NoThreadSymbols:
        def __init__(self, path):
            self.path = path

    monkeypatch.setattr(blas.ctypes, "CDLL", NoThreadSymbols)
    blas._thread_functions.cache_clear()
    try:
        assert blas._thread_functions() is None and blas.threads() is None
        with blas.one_thread():
            assert get_threads() == two_blas_threads
        forks.clear()
        assert eval_sweep(model, "plain", recurrences=(1, 2),
                          n_items=16).rows == expected
        assert forks == []
    finally:
        blas._thread_functions.cache_clear()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_csv_bytes_do_not_depend_on_blas_threads(tmp_path, dtype):
    """`recurfit eval --out` in fresh processes, with OpenBLAS on one
    thread and at its default, which forks a worker on two cores."""
    path = tmp_path / "model.rfck"
    model_to_checkpoint(init_recurrent(CFG, (1, 2, 1), RandomStream(4, "init"),
                                       dtype=dtype)).save(path)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               RECURFIT_OUT_ROOT=str(tmp_path))
    env.pop("OPENBLAS_NUM_THREADS", None)

    def csv_bytes(name, **extra):
        subprocess.run([sys.executable, "-m", "recurfit.cli", "eval",
                        "--checkpoint", str(path), "--dataset", "arithmetic",
                        "--recurrences", "1,2,4,8", "--items", "24",
                        "--out", name], env=dict(env, **extra), check=True,
                       capture_output=True)
        return (tmp_path / name).read_bytes()

    assert csv_bytes("one.csv", OPENBLAS_NUM_THREADS="1") == \
        csv_bytes("default.csv")
