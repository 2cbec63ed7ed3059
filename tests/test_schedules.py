"""Recurrence curricula, depth sampling, windows, and the LR schedule."""

import math

import numpy as np
import pytest

from recurfit.errors import ContractError
from recurfit.random import RandomStream
from recurfit.schedules import (CurriculumSpec, DepthDistribution, WindowSchedule,
                                WsdSpec, curriculum_mean, lr_at, sample_recurrence,
                                window_at)


# ---------------------------------------------------------------------------
# curricula


def linear_oracle(step, target, warmup):
    if step >= warmup:
        return target
    return max(1, math.ceil(target * step / warmup))


def oms_oracle(step, target, warmup):
    if step >= warmup:
        return target
    return max(1, math.ceil(target * (1.0 - math.sqrt(1.0 - step / warmup))))


def test_linear_checkpoint_value():
    spec = CurriculumSpec(shape="linear", target=32, warmup_steps=3125)
    assert curriculum_mean(spec, 1563) == 17


def test_one_minus_sqrt_checkpoint_value():
    spec = CurriculumSpec(shape="one-minus-sqrt", target=32, warmup_steps=3125)
    assert curriculum_mean(spec, 1563) == 10


@pytest.mark.parametrize("shape,oracle", [("linear", linear_oracle),
                                          ("one-minus-sqrt", oms_oracle)])
def test_curriculum_matches_oracle_pointwise(shape, oracle):
    spec = CurriculumSpec(shape=shape, target=32, warmup_steps=3125)
    for step in [0, 1, 7, 100, 1562, 1563, 3124, 3125, 4000]:
        assert curriculum_mean(spec, step) == oracle(step, 32, 3125)


def test_curriculum_endpoints_and_clamp():
    for shape in ("linear", "one-minus-sqrt"):
        spec = CurriculumSpec(shape=shape, target=32, warmup_steps=100)
        assert curriculum_mean(spec, 0) == 1  # clamped at 1
        assert curriculum_mean(spec, 100) == 32
        assert curriculum_mean(spec, 10_000) == 32


def test_curriculum_monotone_nondecreasing():
    for shape in ("linear", "one-minus-sqrt"):
        spec = CurriculumSpec(shape=shape, target=32, warmup_steps=500)
        vals = [curriculum_mean(spec, s) for s in range(0, 600)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_constant_curriculum():
    spec = CurriculumSpec(shape="constant", target=8, warmup_steps=0)
    assert all(curriculum_mean(spec, s) == 8 for s in (0, 1, 500))


def test_shape_ordering_by_total_compute():
    """Summed mean depth over warmup: one-minus-sqrt < linear < constant."""
    warmup, target = 400, 32
    totals = {}
    for shape in ("one-minus-sqrt", "linear", "constant"):
        spec = CurriculumSpec(shape=shape, target=target, warmup_steps=warmup)
        totals[shape] = sum(curriculum_mean(spec, s) for s in range(warmup))
    assert totals["one-minus-sqrt"] < totals["linear"] < totals["constant"]


# ---------------------------------------------------------------------------
# depth sampling


def test_sampler_mean_is_exact_in_expectation():
    """r = 1 + Poisson(exp(l)), l ~ N(ln(mu-1) - s^2/2, s^2); E[r] = mu.
    Monte-Carlo check within 3 standard errors."""
    mu, spread, n = 32.0, 0.5, 100_000
    dist = DepthDistribution(mean=mu, spread=spread)
    stream = RandomStream(7, "depth")
    draws = np.array([sample_recurrence(dist, stream.child(str(i)))
                      for i in range(n)])
    assert draws.min() >= 1
    assert np.issubdtype(draws.dtype, np.integer)
    # var(r) = E[lambda] + var(lambda); lambda lognormal with mean mu-1
    lam_mean = mu - 1.0
    lam_var = lam_mean ** 2 * (math.exp(spread ** 2) - 1.0)
    se = math.sqrt((lam_mean + lam_var) / n)
    assert abs(draws.mean() - mu) < 3.0 * se


def test_sampler_degenerate_mean_one():
    dist = DepthDistribution(mean=1.0, spread=0.5)
    stream = RandomStream(0, "d")
    assert all(sample_recurrence(dist, stream.child(str(i))) == 1
               for i in range(200))


def test_sampler_zero_spread_is_plain_poisson():
    """spread=0 collapses to 1 + Poisson(mu - 1)."""
    mu, n = 9.0, 50_000
    dist = DepthDistribution(mean=mu, spread=0.0)
    stream = RandomStream(3, "d")
    draws = np.array([sample_recurrence(dist, stream.child(str(i)))
                      for i in range(n)])
    se = math.sqrt((mu - 1.0) / n)
    assert abs(draws.mean() - mu) < 3.0 * se


def test_sampler_deterministic_given_stream():
    dist = DepthDistribution(mean=16.0, spread=0.5)
    a = [sample_recurrence(dist, RandomStream(5, "x").child(str(i)))
         for i in range(20)]
    b = [sample_recurrence(dist, RandomStream(5, "x").child(str(i)))
         for i in range(20)]
    assert a == b


def test_sampler_rejects_bad_mean():
    with pytest.raises(ContractError):
        sample_recurrence(DepthDistribution(mean=0.5, spread=0.5),
                          RandomStream(0, "d"))


@pytest.mark.parametrize("call", [
    lambda: DepthDistribution(mean=4, spread=-0.1),
    lambda: CurriculumSpec(target=0),
    lambda: curriculum_mean(CurriculumSpec(), -1),
    lambda: lr_at(WsdSpec(peak=1e-3), -1),
], ids=["negative-spread", "zero-target", "curriculum-step", "lr-step"])
def test_schedule_contract_errors(call):
    with pytest.raises(ContractError):
        call()


# ---------------------------------------------------------------------------
# window schedule


def test_window_schedule_tracks_curriculum_formula():
    sched = WindowSchedule(shape="linear", target=8, warmup_steps=100)
    assert window_at(sched, 0) == 1
    assert window_at(sched, 50) == 4
    assert window_at(sched, 100) == 8
    assert window_at(sched, 10_000) == 8


def test_constant_window():
    sched = WindowSchedule(shape="constant", target=8, warmup_steps=0)
    assert window_at(sched, 0) == 8


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_wsd_phases():
    spec = WsdSpec(peak=1e-3, warmup_steps=100, stable_steps=800,
                   decay_steps=100)
    assert lr_at(spec, 0) == 0.0
    assert lr_at(spec, 50) == pytest.approx(5e-4)
    assert lr_at(spec, 100) == pytest.approx(1e-3)
    assert lr_at(spec, 500) == pytest.approx(1e-3)
    assert lr_at(spec, 900) == pytest.approx(1e-3)
    assert lr_at(spec, 950) == pytest.approx(5e-4)
    assert lr_at(spec, 1000) == pytest.approx(0.0)
    assert lr_at(spec, 2000) == pytest.approx(0.0)


def test_wsd_piecewise_linear_and_nonnegative():
    spec = WsdSpec(peak=3e-4, warmup_steps=10, stable_steps=30, decay_steps=10)
    vals = [lr_at(spec, s) for s in range(60)]
    assert min(vals) >= 0.0
    assert max(vals) == pytest.approx(3e-4)
    # linear ramps: second differences vanish inside each phase
    for lo, hi in [(0, 10), (40, 50)]:
        seg = vals[lo:hi + 1]
        diffs = np.diff(seg)
        assert np.allclose(diffs, diffs[0])
