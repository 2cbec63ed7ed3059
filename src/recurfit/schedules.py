"""Recurrence-depth sampling, depth/window curricula, and the WSD
learning-rate schedule.

The depth sampler draws r = 1 + Poisson(exp(l)) with
l ~ Normal(ln(mu - 1) - s^2/2, s^2), so E[r] = mu exactly for any spread
s; mu = 1 degenerates to r = 1. Curricula raise the sampler's mean from
1 to a target over a warmup period with either a linear or a
one-minus-sqrt shape. The backprop-window schedule is the same curriculum
type with a default target of 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import ContractError
from .fields import bounded, checked_dataclass
from .random import RandomStream


@checked_dataclass
class DepthDistribution:
    mean: float = bounded(1)
    spread: float = bounded(0, default=0.5)


def sample_recurrence(dist: DepthDistribution, stream: RandomStream) -> int:
    if dist.mean == 1:
        return 1
    mu = math.log(dist.mean - 1) - dist.spread ** 2 / 2
    log_rate = stream.normal((), mu, dist.spread)
    return 1 + stream.poisson(float(math.exp(log_rate)))


@checked_dataclass
class CurriculumSpec:
    shape: Literal["constant", "linear", "one-minus-sqrt"] = "constant"
    target: int = bounded(1, default=32)
    warmup_steps: int = bounded(0, default=0)


def curriculum_mean(spec: CurriculumSpec, step: int) -> int:
    """Scheduled integer mean at `step`, at least 1 and held at target."""
    if step < 0:
        raise ContractError("step must be >= 0")
    if spec.shape == "constant" or spec.warmup_steps <= 0 or step >= spec.warmup_steps:
        return spec.target
    frac = step / spec.warmup_steps
    if spec.shape == "linear":
        value = math.ceil(spec.target * frac)
    else:  # one-minus-sqrt
        value = math.ceil(spec.target * (1.0 - math.sqrt(1.0 - frac)))
    return max(value, 1)


@dataclass
class WindowSchedule(CurriculumSpec):
    target: int = bounded(1, default=8)


def window_at(ws: WindowSchedule, step: int) -> int:
    """Backprop-window target at `step`; the curriculum formulas."""
    return curriculum_mean(ws, step)


@checked_dataclass
class WsdSpec:
    peak: float = bounded(0)
    warmup_steps: int = bounded(0, default=0)
    stable_steps: int = bounded(0, default=0)
    decay_steps: int = bounded(0, default=0)


def lr_at(wsd: WsdSpec, step: int) -> float:
    """Warmup-stable-decay: linear 0->peak, hold, linear peak->0."""
    if step < 0:
        raise ContractError("step must be >= 0")
    if step < wsd.warmup_steps:
        return wsd.peak * step / wsd.warmup_steps
    step -= wsd.warmup_steps
    if step < wsd.stable_steps or wsd.decay_steps == 0:
        return wsd.peak
    step -= wsd.stable_steps
    if step >= wsd.decay_steps:
        return 0.0
    return wsd.peak * (1.0 - step / wsd.decay_steps)
