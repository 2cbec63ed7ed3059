"""Acceptance gate: eleven numbered criteria, one printed line each.

A conftest hook prints ``ACCEPTANCE <n> (<label>): PASS`` or ``FAIL`` per
criterion (outside pytest capture) so a plain ``pytest -v`` run shows the
scoreboard. Thresholds are frozen; loosening one is a regression, not a
fix.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from recurfit import autograd as ag
from recurfit.autograd import Tape, Tensor, backward
from recurfit.checkpoint import Checkpoint
from recurfit.config import RunConfig
from recurfit.data import eval_batch
from recurfit.evaluate import eval_sweep, val_loss
from recurfit.flops import recurrent_split, train_flops
from recurfit.model import (ModelConfig, RecurrenceRun, decoder_block,
                            forward_fixed, forward_recurrent, init_fixed,
                            init_recurrent, prelude_forward, recurrent_step,
                            sample_initial_state, _unembed_logits)
from recurfit.optim import AdamW, Muon, newton_schulz5
from recurfit.random import RandomStream
from recurfit.schedules import (CurriculumSpec, DepthDistribution,
                                WindowSchedule, WsdSpec, curriculum_mean,
                                sample_recurrence)
from recurfit.surgery import (ParamReport, apply_surgery, count_parameters,
                              make_plan, model_from_checkpoint,
                              model_to_checkpoint, pruned_donor)
from recurfit.train import build_initial_model, train

from conftest import finite_difference_check, grads_by_name

TINYLLAMA = ModelConfig(vocab_size=32000, hidden=2048, n_query_heads=32,
                        n_kv_heads=4, head_dim=64, ffn_width=5632)
LLAMA = ModelConfig(vocab_size=128256, hidden=2048, n_query_heads=32,
                    n_kv_heads=8, head_dim=64, ffn_width=8192)
OLMO = ModelConfig(vocab_size=100352, hidden=2048, n_query_heads=32,
                   n_kv_heads=32, head_dim=64, ffn_width=8192, qk_norm=True,
                   post_norm=True)



# ---------------------------------------------------------------------------


def test_01_parameter_tables():
    started = time.monotonic()
    tl = count_parameters(TINYLLAMA, (4, 8, 4))
    assert tl.prelude == 176_177_152
    assert tl.recurrent_block == 352_354_304
    assert tl.coda == 176_177_152
    assert tl.embeddings == 131_072_000
    assert count_parameters(TINYLLAMA, (6, 10, 6)).body == 968_974_336
    ll = count_parameters(LLAMA, (4, 6, 4))
    assert ll.prelude == 243_286_016
    assert ll.recurrent_block == 364_929_024
    assert ll.embeddings == 525_336_576
    ol = count_parameters(OLMO, (4, 6, 4))
    assert ol.prelude == 268_468_224
    assert ol.recurrent_block == 402_702_336
    assert time.monotonic() - started < 1.0


def test_02_layer_plans():
    plan = make_plan((4, 8, 4), 22)
    assert plan.prelude_layers == [0, 1, 2, 3]
    assert plan.recurrent_layers == list(range(10, 18))
    assert plan.coda_layers == [18, 19, 20, 21]
    plan = make_plan((4, 6, 4), 16)
    assert plan.prelude_layers == [0, 1, 2, 3]
    assert plan.recurrent_layers == list(range(6, 12))
    assert plan.coda_layers == [12, 13, 14, 15]
    plan = make_plan((6, 10, 6), 22)
    assert plan.prelude_layers == list(range(6))
    assert plan.recurrent_layers == list(range(6, 16))
    assert plan.coda_layers == list(range(16, 22))


def test_03_gradient_correctness():
    started = time.monotonic()
    cfg = ModelConfig(vocab_size=8, hidden=16, n_query_heads=2, n_kv_heads=1,
                      head_dim=8, ffn_width=8, context_length=4)
    model = init_recurrent(cfg, (1, 2, 1), RandomStream(0, "init"),
                           dtype=np.float64)
    tokens = RandomStream(1, "tok").integers(0, 8, (1, 3))
    targets = RandomStream(2, "tgt").integers(0, 8, (1, 3))

    def run():
        return RecurrenceRun(3, 8, RandomStream(4, "s0"))

    with Tape() as tape:
        logits = forward_recurrent(model, tokens, run())
        loss = ag.cross_entropy_mean(logits, targets)
        grad_map = backward(loss, tape)

    def loss_fn():
        return ag.cross_entropy_mean(
            forward_recurrent(model, tokens, run()), targets).item()

    worst = finite_difference_check(model.params(), loss_fn, grad_map,
                                    rel_tol=1e-4,
                                    samples_per_param=10 ** 9,
                                    abs_floor=1e-6)
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 30.0, f"FD sweep took {elapsed:.1f}s"


def _grads_at(model, tokens, targets, r, window):
    with Tape() as tape:
        logits = forward_recurrent(model, tokens,
                                   RecurrenceRun(r, window,
                                                 RandomStream(9, "s0")))
        loss = ag.cross_entropy_mean(logits, targets)
        grad_map = backward(loss, tape)
    return grads_by_name(model.params(), grad_map)


def test_04_truncation_oracle():
    cfg = ModelConfig(vocab_size=11, hidden=16, n_query_heads=2, n_kv_heads=1,
                      head_dim=8, ffn_width=16, context_length=8)
    model = init_recurrent(cfg, (1, 2, 1), RandomStream(0, "init"),
                           dtype=np.float64)
    tokens = RandomStream(1, "tok").integers(0, 11, (2, 8))
    targets = RandomStream(2, "tgt").integers(0, 11, (2, 8))

    # r=4 <= w=8: identical to a full-graph (huge window) backward pass
    a = _grads_at(model, tokens, targets, r=4, window=8)
    b = _grads_at(model, tokens, targets, r=4, window=10 ** 6)
    for name in a:
        assert np.abs(a[name] - b[name]).max() < 1e-12, name

    # r=12, w=8: independent oracle runs the first r-w=4 iterations in pure
    # value mode, then rebuilds the graph from that state as a constant.
    r, w = 12, 8
    e_val = prelude_forward(model, tokens)
    s_val = sample_initial_state(cfg, 2, 8, RandomStream(9, "s0"))
    for _ in range(r - w):
        s_val = recurrent_step(model, s_val, e_val)
    with Tape() as tape:
        e = prelude_forward(model, tokens)
        s = Tensor(s_val.data.copy())
        for _ in range(w):
            s = recurrent_step(model, s, e)
        for bw in model.coda:
            s = decoder_block(s, bw, cfg)
        loss = ag.cross_entropy_mean(_unembed_logits(s, model), targets)
        oracle = grads_by_name(model.params(), backward(loss, tape))
    truncated = _grads_at(model, tokens, targets, r=r, window=w)
    for name in oracle:
        assert np.abs(oracle[name] - truncated[name]).max() < 1e-12, name
    # input injection keeps the prelude trainable under truncation
    assert np.abs(truncated["prelude.0.wq"]).max() > 0
    assert np.abs(truncated["embed"]).max() > 0


def test_05_sampler_statistics():
    started = time.monotonic()
    mu, spread, n = 32.0, 0.5, 100_000
    dist = DepthDistribution(mean=mu, spread=spread)
    stream = RandomStream(17, "acc-depth")
    draws = np.array([sample_recurrence(dist, stream.child(str(i)))
                      for i in range(n)])
    assert draws.min() >= 1
    lam_mean = mu - 1.0
    lam_var = lam_mean ** 2 * (math.exp(spread ** 2) - 1.0)
    se = math.sqrt((lam_mean + lam_var) / n)
    assert abs(draws.mean() - mu) < 3.0 * se
    assert time.monotonic() - started < 5.0


def test_06_curriculum_formulas():
    linear = CurriculumSpec(shape="linear", target=32, warmup_steps=3125)
    oms = CurriculumSpec(shape="one-minus-sqrt", target=32, warmup_steps=3125)
    assert curriculum_mean(linear, 1563) == 17
    assert curriculum_mean(oms, 1563) == 10
    assert curriculum_mean(linear, 3125) == 32
    assert curriculum_mean(oms, 3125) == 32
    for spec in (linear, oms):
        vals = [curriculum_mean(spec, s) for s in range(0, 3200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    totals = {}
    for shape in ("one-minus-sqrt", "linear", "constant"):
        spec = CurriculumSpec(shape=shape, target=32, warmup_steps=3125)
        totals[shape] = sum(curriculum_mean(spec, s) for s in range(3125))
    assert totals["one-minus-sqrt"] < totals["linear"] < totals["constant"]


def test_07_flop_accounting():
    assert train_flops(10 ** 9, 0, 10 ** 3) == 6e12
    rep = ParamReport(embeddings=0, prelude=100, recurrent_block=40, coda=100,
                      adapter=10, final_norm=0, body=250, convention="table")
    # hand case: N1 = 200 + 8*50 = 600, N2 = 24*50 = 1200 over 1000 tokens
    assert train_flops(*recurrent_split(rep, 32.0, 8), 1000) == \
        pytest.approx(6.0e6)
    # boundary r-bar = w: N2 vanishes, so a larger window changes nothing
    assert train_flops(*recurrent_split(rep, 8.0, 8), 10) == \
        pytest.approx(train_flops(*recurrent_split(rep, 8.0, 10 ** 6), 10))
    totals = {}
    for shape in ("one-minus-sqrt", "linear", "constant"):
        spec = CurriculumSpec(shape=shape, target=32, warmup_steps=800)
        totals[shape] = sum(
            train_flops(*recurrent_split(rep, curriculum_mean(spec, step), 8),
                        64) for step in range(1000))
    assert totals["one-minus-sqrt"] < totals["linear"] < totals["constant"]


def test_08_newton_schulz_muon():
    assert np.array_equal(newton_schulz5(np.zeros((4, 6))), np.zeros((4, 6)))
    rng = np.random.default_rng(0)
    for shape in ((8, 8), (16, 64)):
        s = np.linalg.svd(newton_schulz5(rng.normal(size=shape)),
                          compute_uv=False)
        assert s.min() > 0.3 and s.max() < 1.3
    # routing: 1D tensors and (un)embeddings take the AdamW fallback path
    arrays = {"g_attn": rng.normal(size=8), "embed": rng.normal(size=(6, 4))}
    grads = {k: rng.normal(size=v.shape) for k, v in arrays.items()}
    mp = {k: Tensor(v.copy()) for k, v in arrays.items()}
    apz = {k: Tensor(v.copy()) for k, v in arrays.items()}
    Muon().step(mp, grads, lr=0.01)
    AdamW().step(apz, grads, lr=0.01)
    for name in arrays:
        assert mp[name].data.tobytes() == apz[name].data.tobytes(), name


def test_09_surgery_identity(tmp_path):
    cfg = ModelConfig(vocab_size=23, hidden=16, n_query_heads=2, n_kv_heads=1,
                      head_dim=8, ffn_width=16, context_length=16)
    donor = init_fixed(cfg, 6, RandomStream(3, "init"), dtype=np.float64)
    ckpt = model_to_checkpoint(donor)
    plan = make_plan((1, 2, 1), 6)  # keeps layers [0], [3, 4], [5]
    retro = model_from_checkpoint(
        apply_surgery(ckpt, plan, "identity-pass", RandomStream(0, "a"), 0.0))
    pruned = model_from_checkpoint(pruned_donor(ckpt, plan))
    tokens = RandomStream(1, "tok").integers(0, 23, (2, 12))
    got = forward_recurrent(retro, tokens,
                            RecurrenceRun(1, 8, RandomStream(0, "s0"))).data
    want = forward_fixed(pruned, tokens).data
    assert np.abs(got - want).max() < 1e-10
    # checkpoint round trip is bit-exact
    path = tmp_path / "donor.rfck"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    for name, arr in ckpt.tensors.items():
        other = loaded.tensors[name]
        assert arr.dtype == other.dtype and arr.shape == other.shape
        assert arr.tobytes() == other.tobytes()
    path2 = tmp_path / "again.rfck"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def _retrofit_cfg(out_dir, init_ckpt, steps=500):
    model = ModelConfig(vocab_size=257, hidden=64, n_query_heads=4,
                        n_kv_heads=2, head_dim=16, ffn_width=128,
                        context_length=64)
    return RunConfig(
        model=model, total_steps=steps, out_dir=str(out_dir),
        model_kind="recurrent", plan_tuple=[1, 2, 1],
        init_checkpoint=str(init_ckpt), optimizer="muon",
        curriculum=CurriculumSpec(shape="linear", target=8,
                                  warmup_steps=max(steps // 2, 1)),
        window=WindowSchedule(shape="constant", target=8, warmup_steps=0),
        lr=WsdSpec(peak=2e-3, warmup_steps=steps // 10,
                   stable_steps=steps - steps // 10 - steps // 5,
                   decay_steps=steps // 5),
        micro_batch=8, global_batch=8, seed=21,
        phases=[{"datasets": ["arithmetic"], "weights": [1.0],
                 "start": 0, "end": steps}])


@pytest.fixture(scope="module")
def retrofit_checkpoint(tmp_path_factory):
    """Toy donor pretrain + (1,2,1) surgery, shared by criteria 10 and 11."""
    root = tmp_path_factory.mktemp("retrofit")
    model = ModelConfig(vocab_size=257, hidden=64, n_query_heads=4,
                        n_kv_heads=2, head_dim=16, ffn_width=128,
                        context_length=64)
    donor_cfg = RunConfig(
        model=model, total_steps=150, out_dir=str(root / "donor"),
        model_kind="fixed", fixed_depth=4, optimizer="muon",
        lr=WsdSpec(peak=2e-3, warmup_steps=20, stable_steps=100,
                   decay_steps=30),
        micro_batch=8, global_batch=8, seed=20,
        phases=[{"datasets": ["arithmetic"], "weights": [1.0],
                 "start": 0, "end": 150}])
    summary = train(donor_cfg)
    donor = Checkpoint.load(summary["final_checkpoint"])
    donor.tensors = {k: v for k, v in donor.tensors.items()
                     if not k.startswith("optimizer.")}
    plan = make_plan((1, 2, 1), 4)
    surgical = apply_surgery(donor, plan, "identity-pass",
                             RandomStream(20, "adapter"), 1e-3)
    path = root / "surgical.rfck"
    surgical.save(path)
    return path


def test_10_end_to_end_retrofit(retrofit_checkpoint, tmp_path):
    started = time.monotonic()
    cfg = _retrofit_cfg(tmp_path / "run", retrofit_checkpoint)
    post_surgery = val_loss(build_initial_model(cfg), "arithmetic", r=8)
    summary = train(cfg)
    final = Checkpoint.load(summary["final_checkpoint"])
    final.tensors = {k: v for k, v in final.tensors.items()
                     if not k.startswith("optimizer.")}
    trained = model_from_checkpoint(final)
    sweep = eval_sweep(trained, "arithmetic", recurrences=(1, 2, 4, 8))
    by_r = {row.r: row for row in sweep.rows}
    assert by_r[8].accuracy >= by_r[1].accuracy, sweep.summary()
    with open(summary["metrics"], newline="") as f:
        rows = list(csv.reader(f))[1:]
    windowed = float(np.mean([float(r[1]) for r in rows[-50:]]))
    assert windowed <= 0.8 * post_surgery, (windowed, post_surgery)
    assert time.monotonic() - started < 600.0


def test_11_determinism_and_resume(retrofit_checkpoint, tmp_path):
    a = train(_retrofit_cfg(tmp_path / "a", retrofit_checkpoint, steps=6))
    b = train(_retrofit_cfg(tmp_path / "b", retrofit_checkpoint, steps=6))
    assert Path(a["metrics"]).read_bytes() == Path(b["metrics"]).read_bytes()
    assert Path(a["final_checkpoint"]).read_bytes() == \
        Path(b["final_checkpoint"]).read_bytes()
    part = _retrofit_cfg(tmp_path / "part", retrofit_checkpoint, steps=6)
    part.checkpoint_interval = 3
    train(part)
    resumed = train(_retrofit_cfg(tmp_path / "resumed", retrofit_checkpoint,
                                  steps=6),
                    resume_from=str(tmp_path / "part" / "ckpt_step3.rfck"))
    assert Path(resumed["final_checkpoint"]).read_bytes() == \
        Path(a["final_checkpoint"]).read_bytes()
