"""Training-FLOP accounting: (6*N1 + 2*N2)*D, where N1 parameters run
forward and backward and N2 forward only.

`param_split` is the one (N1, N2) split, for both model kinds. A fixed
model is all N1 (its body). A recurrent model goes through
`recurrent_split`, and N1 + N2 at mean r is P + C + r*(R + adapter) for
every window, which is also the effective size at test-time depth r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelConfig
from .surgery import ParamReport, count_fixed_params, count_parameters


def train_flops(n1, n2, tokens: int) -> float:
    return (6.0 * n1 + 2.0 * n2) * tokens


def flops_fixed(non_embedding_params: int, tokens: int) -> float:
    return train_flops(non_embedding_params, 0, tokens)


def recurrent_split(report: ParamReport, mean_r: float, window: int) -> tuple:
    """(N1, N2) at curriculum mean `mean_r` and backprop window."""
    shared = report.recurrent_block + report.adapter
    n1 = report.prelude + report.coda + min(mean_r, window) * shared
    n2 = max(mean_r - window, 0) * shared
    return n1, n2


def param_split(cfg: ModelConfig, counts: tuple, mean_r: float,
                window: int) -> tuple:
    """(N1, N2) of the model with section counts (L,) or (p, r, c)."""
    if len(counts) == 1:
        return count_fixed_params(cfg, counts[0]), 0
    return recurrent_split(count_parameters(cfg, counts), mean_r, window)


def flops_for_step(report: ParamReport, mean_r: float, window: int,
                   tokens: int) -> float:
    """Recurrent-step FLOPs at curriculum mean `mean_r` and window."""
    return train_flops(*recurrent_split(report, mean_r, window), tokens)


@dataclass
class FlopMeter:
    cumulative: float = 0.0

    def add(self, n1, n2, tokens: int) -> float:
        value = train_flops(n1, n2, tokens)
        self.cumulative += value
        return value

    def add_recurrent(self, report: ParamReport, mean_r: float, window: int,
                      tokens: int) -> float:
        return self.add(*recurrent_split(report, mean_r, window), tokens)
