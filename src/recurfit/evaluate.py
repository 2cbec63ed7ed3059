"""Evaluation across test-time recurrence counts.

`val_loss` measures mean next-token cross entropy at a fixed recurrence;
`eval_sweep` runs a list of recurrences (default [1, 2, 4, 8, 16, 32])
and reports loss, answer-position exact-match accuracy, the effective
parameter count P + C + r*(R + adapter), and a per-token inference FLOP
proxy (2x effective parameters). The initial state is drawn from a
reported evaluation seed so numbers are comparable across runs.

Each micro-batch is run once: the recurrence iterates up to the largest
requested r and every requested r is read out on the way, so a sweep
costs max(r) recurrent passes per micro-batch, not sum(r). The forwards
run under `ag.no_record()` and never grow a caller's tape.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from . import autograd as ag
from .data import answer_mask, eval_batch
from .errors import ContractError
from .flops import effective_params
from .model import FixedModel, forward_fixed, recurrence_sweep
from .random import RandomStream
from .surgery import count_fixed_params, count_parameters

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


def _sweep_logits(model, inputs, recurrences, s0_stream):
    """(r, logits) for each distinct r; a fixed-depth model has no
    recurrence, so its one forward serves every r."""
    if isinstance(model, FixedModel):
        logits = forward_fixed(model, inputs)
        return ((r, logits) for r in sorted(set(recurrences)))
    return recurrence_sweep(model, inputs, recurrences, s0_stream)


def _loss_and_accuracy(model, dataset_id: str, recurrences, s0_seed: int,
                       n_items: int, data_seed: int) -> dict:
    """r -> (loss, accuracy) on held-out items for each distinct r.

    Sums run over micro-batches in order, so each r's figures do not
    depend on which other counts share the sweep.
    """
    if not recurrences or min(recurrences) < 1:
        raise ContractError(f"recurrence counts must be >= 1, got "
                            f"{list(recurrences)}")
    inputs, targets = eval_batch(data_seed, dataset_id, n_items,
                                 model.config.context_length)
    mask = answer_mask(dataset_id, targets)
    sums: dict = {}  # r -> [nll, tokens, answer hits, answer positions]
    with ag.no_record():
        for b, lo in enumerate(range(0, inputs.shape[0], MICRO_BATCH)):
            sl = slice(lo, lo + MICRO_BATCH)
            stream = RandomStream(s0_seed, f"eval_s0/{b}")
            for r, logits in _sweep_logits(model, inputs[sl], recurrences,
                                           stream):
                nll, _ = ag.token_nll(logits.data, targets[sl])
                pred = logits.data.argmax(axis=-1)
                m = mask[sl]
                acc = sums.setdefault(r, [0.0, 0, 0, 0])
                acc[0] += float(nll.sum())
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
    report = (None if isinstance(model, FixedModel)
              else count_parameters(model.config, model.plan_tuple))
    rows = []
    for r in sorted(recurrences):
        loss, accuracy = results[r]
        if report is not None:
            n_eff = effective_params(report, r)
        else:
            n_eff = count_fixed_params(model.config, len(model.blocks))["body"]
        rows.append(SweepRow(r=r, loss=loss, accuracy=accuracy,
                             effective_params=n_eff,
                             flop_proxy=2.0 * n_eff))
    return SweepResult(rows)
