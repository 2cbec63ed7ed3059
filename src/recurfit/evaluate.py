"""Evaluation across test-time recurrence counts.

`val_loss` measures mean next-token cross entropy at a fixed recurrence;
`eval_sweep` runs a list of recurrences (default [1, 2, 4, 8, 16, 32])
and reports loss, answer-position exact-match accuracy, the effective
parameter count N1 + N2 of `flops.param_split` at depth r, and a
per-token inference FLOP proxy (2x effective parameters). The initial
state is drawn from a reported evaluation seed so numbers are comparable
across runs.

Each micro-batch is run once: the recurrence iterates up to the largest
requested r and every requested r is read out on the way, so a sweep
costs max(r) recurrent passes per micro-batch, not sum(r). The forwards
run under `ag.no_record()` and never grow a caller's tape. A non-finite
loss, such as weights that overflow the forward give, raises; numpy's
floating-point warnings are off meanwhile, as in `train`.

With two or more micro-batches the work runs in two processes: a forked
child computes the last floor(m/2) micro-batches while this process
computes the first ceil(m/2). The child sends the per-(micro-batch, r)
sums of its whole half through a pipe, or nothing if one of them raised.
This process adds them in micro-batch order, as a single process would;
given nothing, it computes that half itself. So the results, and every
error with the r it names, do not depend on the split. The fork happens
only where the platform has `os.fork`, at least two CPUs are usable
(`os.sched_getaffinity`, else `os.cpu_count`) and `blas.one_thread` can
pin numpy's OpenBLAS to one thread, which it does in both processes for
the length of the call. Unpinned, OpenBLAS's fork handler would tear
down its thread pool, and both processes would rebuild and spin pools of
their own on the same two cores. The eval forward's results do not
depend on the thread count, so no result byte moves. Tracing that wraps
module functions (as `bench/tracer.py` does) sees only this process's
half.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import blas
from .data import answer_mask, eval_batch
from .errors import NonFiniteError
from .flops import param_split
from .model import recurrence_sweep, section_counts
from .random import RandomStream

DEFAULT_RECURRENCES = (1, 2, 4, 8, 16, 32)
MICRO_BATCH = 8


@dataclass
class SweepRow:
    r: int
    loss: float
    accuracy: float
    effective_params: int
    flop_proxy: float


@dataclass
class SweepResult:
    rows: list

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["r", "loss", "accuracy", "effective_params",
                             "flop_proxy"])
            for row in self.rows:
                writer.writerow([row.r, f"{row.loss:.10g}",
                                 f"{row.accuracy:.10g}", row.effective_params,
                                 f"{row.flop_proxy:.10g}"])

    def summary(self) -> str:
        lines = ["r loss accuracy effective_params flop_proxy"]
        for row in self.rows:
            lines.append(f"{row.r} {row.loss:.6f} {row.accuracy:.4f} "
                         f"{row.effective_params} {row.flop_proxy:.4g}")
        return "\n".join(lines)


def _two_processes(n_batches: int) -> bool:
    """Whether a forked worker should take half of `n_batches`
    micro-batches: there are two, the platform forks, two cores are
    usable and the OpenBLAS thread count can be pinned."""
    if n_batches < 2 or not hasattr(os, "fork"):
        return False
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return cores >= 2 and blas.threads() is not None


def _add_in_two_processes(batch_rows, add, n_batches: int) -> None:
    """`add(batch_rows(b))` for each micro-batch b in order: this process
    computes the first ceil(m/2), a forked child the rest, with OpenBLAS
    on one thread in both. The child sends the rows of its whole half, or
    nothing if one of them raised; then this process computes that half
    itself, and raises as a single process would. The child is always
    reaped; when this process's half raises, the child is killed and that
    error wins."""
    split = (n_batches + 1) // 2
    child_half = range(split, n_batches)
    with blas.one_thread():
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:  # leave through os._exit: no parent cleanup runs here
            try:
                os.close(read_fd)
                data = pickle.dumps([batch_rows(b) for b in child_half])
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                for b in range(split):
                    add(batch_rows(b))
                data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise RuntimeError(f"eval worker exited with code {status}")
    for rows in pickle.loads(data) if data else map(batch_rows, child_half):
        add(rows)


def _loss_and_accuracy(model, dataset_id: str, recurrences, s0_seed: int,
                       n_items: int, data_seed: int) -> dict:
    """r -> (loss, accuracy) on held-out items for each distinct r.

    Sums run over micro-batches in order, so each r's figures do not
    depend on which other counts share the sweep, nor on which process
    computed a micro-batch.
    """
    inputs, targets = eval_batch(data_seed, dataset_id, n_items,
                                 model.config.context_length)
    mask = answer_mask(dataset_id, targets)
    n_batches = -(-inputs.shape[0] // MICRO_BATCH)
    sums: dict = {}  # r -> [nll, tokens, answer hits, answer positions]

    def batch_rows(b: int) -> list:
        """(r, nll sum, tokens, answer hits, answer positions) of
        micro-batch b, one per distinct r, ascending."""
        sl = slice(b * MICRO_BATCH, (b + 1) * MICRO_BATCH)
        stream = RandomStream(s0_seed, f"eval_s0/{b}")
        rows = []
        for r, logits in recurrence_sweep(model, inputs[sl], recurrences,
                                          stream):
            nll, _ = ag.token_nll(logits.data, targets[sl])
            pred = logits.data.argmax(axis=-1)
            m = mask[sl]
            rows.append((r, float(nll.sum()), nll.size,
                         int(((pred == targets[sl]) & m).sum()),
                         int(m.sum())))
        return rows

    def add(rows: list) -> None:
        for r, nll, tokens, hits, answers in rows:
            acc = sums.setdefault(r, [0.0, 0, 0, 0])
            acc[0] += nll
            if not math.isfinite(acc[0]):
                raise NonFiniteError(f"loss at r={r} is not finite")
            acc[1] += tokens
            acc[2] += hits
            acc[3] += answers

    with ag.no_record(), np.errstate(all="ignore"):
        if _two_processes(n_batches):
            _add_in_two_processes(batch_rows, add, n_batches)
        else:
            for b in range(n_batches):
                add(batch_rows(b))
    return {r: (nll / tokens, hits / max(answers, 1))
            for r, (nll, tokens, hits, answers) in sums.items()}


def val_loss(model, dataset_id: str, r: int, s0_seed: int = 0,
             n_items: int = 16, data_seed: int = 1234) -> float:
    """Mean cross entropy on held-out items; no gradients recorded."""
    return _loss_and_accuracy(model, dataset_id, (r,), s0_seed, n_items,
                              data_seed)[r][0]


def eval_sweep(model, dataset_id: str,
               recurrences=DEFAULT_RECURRENCES, s0_seed: int = 0,
               n_items: int = 16, data_seed: int = 1234) -> SweepResult:
    """One row of loss/accuracy/size per test-time recurrence count."""
    recurrences = list(recurrences)
    results = _loss_and_accuracy(model, dataset_id, recurrences, s0_seed,
                                 n_items, data_seed)
    rows = []
    for r in sorted(recurrences):
        loss, accuracy = results[r]
        n_eff = sum(param_split(model.config, section_counts(model), r, r))
        rows.append(SweepRow(r, loss, accuracy, n_eff, 2.0 * n_eff))
    return SweepResult(rows)
