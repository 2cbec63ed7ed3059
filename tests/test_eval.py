"""Evaluation sweep over test-time recurrence counts."""

import csv
import math

import numpy as np
import pytest

from recurfit import autograd as ag
from recurfit.data import answer_mask, eval_batch
from recurfit.errors import ContractError
from recurfit.evaluate import (DEFAULT_RECURRENCES, eval_sweep, val_loss)
from recurfit.flops import effective_params
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
    report = count_parameters(CFG, (1, 1, 1))
    for row in result.rows:
        assert row.effective_params == effective_params(report, row.r)
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
