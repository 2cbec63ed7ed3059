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
loss, such as weights that overflow the forward give, raises.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from . import autograd as ag
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


def _loss_and_accuracy(model, dataset_id: str, recurrences, s0_seed: int,
                       n_items: int, data_seed: int) -> dict:
    """r -> (loss, accuracy) on held-out items for each distinct r.

    Sums run over micro-batches in order, so each r's figures do not
    depend on which other counts share the sweep.
    """
    inputs, targets = eval_batch(data_seed, dataset_id, n_items,
                                 model.config.context_length)
    mask = answer_mask(dataset_id, targets)
    sums: dict = {}  # r -> [nll, tokens, answer hits, answer positions]
    with ag.no_record():
        for b, lo in enumerate(range(0, inputs.shape[0], MICRO_BATCH)):
            sl = slice(lo, lo + MICRO_BATCH)
            stream = RandomStream(s0_seed, f"eval_s0/{b}")
            for r, logits in recurrence_sweep(model, inputs[sl], recurrences,
                                              stream):
                nll, _ = ag.token_nll(logits.data, targets[sl])
                pred = logits.data.argmax(axis=-1)
                m = mask[sl]
                acc = sums.setdefault(r, [0.0, 0, 0, 0])
                acc[0] += float(nll.sum())
                if not math.isfinite(acc[0]):
                    raise NonFiniteError(f"loss at r={r} is not finite")
                acc[1] += nll.size
                acc[2] += int(((pred == targets[sl]) & m).sum())
                acc[3] += int(m.sum())
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
