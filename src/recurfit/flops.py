"""Training-FLOP accounting.

Fixed-depth models use 6*N*D with N the non-embedding parameter count.
Recurrent models split the effective parameters into N1 (forward +
backward, the prelude, coda, and the in-window recurrences of block +
adapter) and N2 (forward only, the out-of-window recurrences), giving
(6*N1 + 2*N2)*D. `recurrent_split` is the one place that makes the split;
the per-step formula, the meter and the CLI report all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surgery import ParamReport


def _train_flops(n1, n2, tokens: int) -> float:
    return (6.0 * n1 + 2.0 * n2) * tokens


def flops_fixed(non_embedding_params: int, tokens: int) -> float:
    return _train_flops(non_embedding_params, 0, tokens)


def effective_params(report: ParamReport, r: int) -> int:
    """P + C + r*(R + adapter), non-embedding, for a sweep at depth r."""
    return (report.prelude + report.coda
            + r * (report.recurrent_block + report.adapter))


def recurrent_split(report: ParamReport, mean_r: float, window: int) -> tuple:
    """(N1, N2) at curriculum mean `mean_r` and backprop window."""
    shared = report.recurrent_block + report.adapter
    n1 = report.prelude + report.coda + min(mean_r, window) * shared
    n2 = max(mean_r - window, 0) * shared
    return n1, n2


def flops_for_step(report: ParamReport, mean_r: float, window: int,
                   tokens: int) -> float:
    """Recurrent-step FLOPs at curriculum mean `mean_r` and window."""
    return _train_flops(*recurrent_split(report, mean_r, window), tokens)


@dataclass
class FlopMeter:
    cumulative: float = 0.0

    def _add(self, n1, n2, tokens: int) -> float:
        value = _train_flops(n1, n2, tokens)
        self.cumulative += value
        return value

    def add_recurrent(self, report: ParamReport, mean_r: float, window: int,
                      tokens: int) -> float:
        return self._add(*recurrent_split(report, mean_r, window), tokens)

    def add_fixed(self, non_embedding_params: int, tokens: int) -> float:
        return self._add(non_embedding_params, 0, tokens)
