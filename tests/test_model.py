import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from recurfit import autograd as ag
from recurfit.autograd import Tape, Tensor
from recurfit.errors import ContractError, InputError
from recurfit.model import (ModelConfig, RecurrenceRun, decoder_block,
                            forward_fixed, forward_recurrent, init_fixed,
                            init_recurrent, prelude_forward, recurrence_sweep,
                            recurrent_step, sample_initial_state,
                            _unembed_logits)
from recurfit.random import RandomStream

from conftest import grads_by_name


def test_config_invariants():
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=10, hidden=17, n_query_heads=2, n_kv_heads=1,
                    head_dim=8, ffn_width=8)
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=10, hidden=16, n_query_heads=3, n_kv_heads=2,
                    head_dim=8, ffn_width=8)  # hidden mismatch too
    with pytest.raises(ContractError, match="divisible"):
        ModelConfig(vocab_size=10, hidden=24, n_query_heads=3, n_kv_heads=2,
                    head_dim=8, ffn_width=8)
    with pytest.raises(ContractError):
        ModelConfig(vocab_size=10, hidden=16, n_query_heads=2, n_kv_heads=1,
                    head_dim=8, ffn_width=8, context_length=0)
    with pytest.raises(ContractError, match="even"):
        ModelConfig(vocab_size=10, hidden=6, n_query_heads=2, n_kv_heads=1,
                    head_dim=3, ffn_width=8)


@pytest.mark.parametrize("field", ["vocab_size", "hidden", "n_query_heads",
                                   "n_kv_heads", "head_dim", "ffn_width",
                                   "context_length"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_sizes_are_at_least_one(field, value):
    """n_kv_heads = 0 used to raise ZeroDivisionError."""
    sizes = dict(vocab_size=10, hidden=16, n_query_heads=2, n_kv_heads=1,
                 head_dim=8, ffn_width=8, context_length=4)
    with pytest.raises(ContractError, match=f"{field} must be >= 1"):
        ModelConfig(**dict(sizes, **{field: value}))


@pytest.mark.parametrize("init,counts", [
    (init_fixed, -1), (init_recurrent, (1, -1, 1)),
    (init_recurrent, (-1, 2, 1))])
def test_init_rejects_negative_layer_counts(tiny_cfg, init, counts):
    with pytest.raises(ContractError, match="layer counts"):
        init(tiny_cfg, counts, RandomStream(0, "init"))


def test_recurrence_sweep_serves_fixed_model_once(tiny_fixed):
    """A fixed model has no recurrence: every r reads the one forward."""
    tokens = np.array([[1, 2, 3, 4]])
    want = forward_fixed(tiny_fixed, tokens).data
    rows = list(recurrence_sweep(tiny_fixed, tokens, [4, 1, 4, 2],
                                 RandomStream(0, "s0")))
    assert [r for r, _ in rows] == [1, 2, 4]
    assert rows[0][1] is rows[-1][1]
    np.testing.assert_array_equal(rows[0][1].data, want)
    with pytest.raises(ContractError, match=">= 1"):
        list(recurrence_sweep(tiny_fixed, tokens, [0, 1],
                              RandomStream(0, "s0")))


def test_block_preserves_shape(tiny_cfg, tiny_fixed):
    x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 16)))
    out = decoder_block(x, tiny_fixed.blocks[0], tiny_cfg)
    assert out.shape == x.shape


def test_block_zero_weights_is_identity(tiny_cfg, tiny_fixed):
    bw = tiny_fixed.blocks[0]
    for t in (bw.wq, bw.wk, bw.wv, bw.wo, bw.w_gate, bw.w_up, bw.w_down):
        t.data = np.zeros_like(t.data)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 4, 16)))
    out = decoder_block(x, bw, tiny_cfg)
    np.testing.assert_array_equal(out.data, x.data)


def test_block_rejects_long_sequence(tiny_cfg, tiny_fixed):
    x = Tensor(np.zeros((1, tiny_cfg.context_length + 1, 16)))
    with pytest.raises(ContractError):
        decoder_block(x, tiny_fixed.blocks[0], tiny_cfg)


def test_block_causality(tiny_fixed):
    cfg = tiny_fixed.config
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 8, 16))
    base = decoder_block(Tensor(x), tiny_fixed.blocks[0], cfg).data
    j = 3
    perturbed = x.copy()
    perturbed[0, j] += rng.standard_normal(16) * 0.1
    out = decoder_block(Tensor(perturbed), tiny_fixed.blocks[0], cfg).data
    diff = np.abs(out - base).max(axis=-1)[0]
    assert np.all(diff[:j] < 1e-12)
    assert diff[j] > 1e-8


def test_forward_fixed_shapes_and_range(tiny_fixed):
    logits = forward_fixed(tiny_fixed, np.array([[3]]))
    assert logits.shape == (1, 1, 11)
    with pytest.raises(InputError):
        forward_fixed(tiny_fixed, np.array([[11]]))
    with pytest.raises(InputError, match="batch, n"):
        forward_fixed(tiny_fixed, np.array([3]))


@pytest.mark.parametrize("tokens", [np.zeros((1, 0), dtype=np.int64),
                                    np.zeros((0, 3), dtype=np.int64)])
def test_empty_token_batch_is_input_error(tiny_fixed, tiny_recurrent, tokens):
    with pytest.raises(InputError, match="nonempty"):
        forward_fixed(tiny_fixed, tokens)
    with pytest.raises(InputError, match="nonempty"):
        forward_recurrent(tiny_recurrent, tokens,
                          RecurrenceRun(2, 8, RandomStream(0, "s0")))


def test_float_token_ids_are_input_error(tiny_fixed, tiny_recurrent):
    tokens = np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(InputError, match="integers"):
        forward_fixed(tiny_fixed, tokens)
    with pytest.raises(InputError, match="integers"):
        forward_recurrent(tiny_recurrent, tokens,
                          RecurrenceRun(2, 8, RandomStream(0, "s0")))


def test_forward_fixed_deterministic(tiny_cfg):
    tokens = np.array([[1, 2, 3, 4]])
    a = forward_fixed(init_fixed(tiny_cfg, 3, RandomStream(5, "init")), tokens)
    b = forward_fixed(init_fixed(tiny_cfg, 3, RandomStream(5, "init")), tokens)
    assert np.array_equal(a.data, b.data)


def test_sample_initial_state(tiny_cfg):
    zero_cfg = dataclasses.replace(tiny_cfg, sigma_s0=0.0)
    s = sample_initial_state(zero_cfg, 1, 4, RandomStream(0, "s0"))
    assert np.all(s.data == 0.0)
    a = sample_initial_state(tiny_cfg, 1, 4, RandomStream(1, "s0"))
    b = sample_initial_state(tiny_cfg, 1, 4, RandomStream(1, "s0"))
    assert np.array_equal(a.data, b.data)
    wide_cfg = dataclasses.replace(tiny_cfg, hidden=64, n_query_heads=8,
                                   sigma_s0=0.02)
    big = sample_initial_state(wide_cfg, 4, 40, RandomStream(2, "s0"))
    assert abs(big.data.std() - 0.02) < 0.05 * 0.02


def test_forward_recurrent_contracts(tiny_recurrent):
    with pytest.raises(ContractError):
        RecurrenceRun(0, 8, RandomStream(0, "s0"))
    with pytest.raises(ContractError):
        RecurrenceRun(4, 0, RandomStream(0, "s0"))
    with pytest.raises(TypeError):
        RecurrenceRun(2, 8)


def test_r1_single_pass_matches_untruncated(tiny_recurrent):
    tokens = np.array([[1, 2, 3]])
    for w in (1, 8, 100):
        out = forward_recurrent(tiny_recurrent, tokens,
                                RecurrenceRun(1, w, RandomStream(9, "s0")))
        ref = forward_recurrent(tiny_recurrent, tokens,
                                RecurrenceRun(1, 1, RandomStream(9, "s0")))
        np.testing.assert_array_equal(out.data, ref.data)


def _grads(model, tokens, targets, run):
    params = model.params()
    with Tape() as tape:
        loss = ag.cross_entropy_mean(forward_recurrent(model, tokens, run),
                                     targets)
        grad_map = ag.backward(loss, tape)
    return grads_by_name(params, grad_map)


def test_truncation_equivalence_within_window(tiny_recurrent):
    tokens, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])
    g_trunc = _grads(tiny_recurrent, tokens, targets,
                     RecurrenceRun(4, 8, RandomStream(9, "s0")))
    g_full = _grads(tiny_recurrent, tokens, targets,
                    RecurrenceRun(4, 1000, RandomStream(9, "s0")))
    for name in g_full:
        assert np.abs(g_trunc[name] - g_full[name]).max() < 1e-12


def _explicit_detach_grads(model, tokens, targets, r, w, s0_seed=9):
    """Oracle: run the recurrence, detaching the state exactly once at
    iteration r-w, then back-propagate the remaining w iterations."""
    params = model.params()
    with Tape() as tape:
        e = prelude_forward(model, tokens)
        s = sample_initial_state(model.config, tokens.shape[0], tokens.shape[1],
                                 RandomStream(s0_seed, "s0"))
        for i in range(1, r + 1):
            if r > w and i == r - w + 1:
                s = Tensor(s.data)
            s = recurrent_step(model, s, e)
        for bw in model.coda:
            s = decoder_block(s, bw, model.config)
        loss = ag.cross_entropy_mean(_unembed_logits(s, model), targets)
        grad_map = ag.backward(loss, tape)
    return grads_by_name(params, grad_map)


def test_truncation_matches_explicit_detach_oracle(tiny_recurrent):
    tokens, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])
    g_trunc = _grads(tiny_recurrent, tokens, targets,
                     RecurrenceRun(12, 8, RandomStream(9, "s0")))
    g_oracle = _explicit_detach_grads(tiny_recurrent, tokens, targets, 12, 8)
    for name in g_oracle:
        assert np.abs(g_trunc[name] - g_oracle[name]).max() < 1e-12
    assert np.abs(g_trunc["prelude.0.wq"]).max() > 0
    assert np.abs(g_trunc["embed"]).max() > 0


def test_tape_length_independent_of_r_beyond_window(tiny_recurrent):
    """Out-of-window iterations run untaped, so the tape holds the same
    nodes at r=12 and r=40 for w=8."""
    tokens = np.array([[1, 2, 3]])
    lengths = []
    for r in (12, 40):
        with Tape() as tape:
            forward_recurrent(tiny_recurrent, tokens,
                              RecurrenceRun(r, 8, RandomStream(9, "s0")))
        lengths.append(len(tape.nodes))
    assert lengths[0] == lengths[1]


def test_recurrence_sweep_matches_forward_recurrent(tiny_recurrent):
    tokens = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    got = list(recurrence_sweep(tiny_recurrent, tokens, [5, 1, 3, 5],
                                RandomStream(9, "s0")))
    assert [r for r, _ in got] == [1, 3, 5]
    for r, logits in got:
        ref = forward_recurrent(tiny_recurrent, tokens,
                                RecurrenceRun(r, r, RandomStream(9, "s0")))
        assert np.array_equal(logits.data, ref.data)
    with pytest.raises(ContractError):
        list(recurrence_sweep(tiny_recurrent, tokens, [0, 2],
                              RandomStream(9, "s0")))


def test_truncation_locality_iteration_sum(tiny_recurrent):
    """R-block grads equal the sum of per-iteration contributions from
    only the last w iterations, measured in the fully back-propagated
    graph with per-iteration parameter copies."""
    from recurfit.model import BlockWeights

    model = tiny_recurrent
    tokens, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])
    r, w = 10, 3
    g_trunc = _grads(model, tokens, targets,
                     RecurrenceRun(r, w, RandomStream(9, "s0")))

    def clone_block(bw):
        return BlockWeights(**{f: (Tensor(getattr(bw, f).data)
                                   if getattr(bw, f) is not None else None)
                               for f in ("wq", "wk", "wv", "wo", "w_gate",
                                         "w_up", "w_down", "g_attn", "g_mlp",
                                         "q_gain", "k_gain")})

    copies = [([clone_block(bw) for bw in model.recurrent],
               Tensor(model.adapter.data)) for _ in range(r)]
    with Tape() as tape:
        e = prelude_forward(model, tokens)
        s = sample_initial_state(model.config, 1, 3, RandomStream(9, "s0"))
        for blocks, adapter in copies:
            s = ag.matmul(ag.concat_last(s, e), adapter)
            for bw in blocks:
                s = decoder_block(s, bw, model.config)
        for bw in model.coda:
            s = decoder_block(s, bw, model.config)
        loss = ag.cross_entropy_mean(_unembed_logits(s, model), targets)
        grad_map = ag.backward(loss, tape)

    fields = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down",
              "g_attn", "g_mlp")
    for bidx in range(len(model.recurrent)):
        for f in fields:
            total = sum(np.asarray(grad_map.get(
                getattr(copies[i][0][bidx], f), 0.0))
                for i in range(r - w, r))
            np.testing.assert_allclose(g_trunc[f"recurrent.{bidx}.{f}"], total,
                                       atol=1e-12)
    adapter_total = sum(np.asarray(grad_map.get(copies[i][1], 0.0))
                        for i in range(r - w, r))
    np.testing.assert_allclose(g_trunc["adapter"], adapter_total, atol=1e-12)
    # out-of-window iterations contribute nothing to the truncated grads
    for i in range(0, r - w):
        assert copies[i][1] in grad_map  # full graph does reach them


def test_prelude_gradients_nonzero_far_beyond_window(tiny_recurrent):
    tokens, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])
    g = _grads(tiny_recurrent, tokens, targets,
               RecurrenceRun(20, 4, RandomStream(9, "s0")))
    assert np.abs(g["prelude.0.wo"]).max() > 0


def test_logits_shape_independent_of_r(tiny_recurrent):
    tokens = np.array([[1, 2, 3, 4, 5]])
    for r in (1, 3, 7):
        out = forward_recurrent(tiny_recurrent, tokens,
                                RecurrenceRun(r, 8, RandomStream(0, "s0")))
        assert out.shape == (1, 5, 11)


def test_recurrent_gradients_match_finite_differences(tiny_recurrent, fd_check):
    tokens, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])

    def loss_fn():
        run = RecurrenceRun(3, 8, RandomStream(9, "s0"))
        return ag.cross_entropy_mean(
            forward_recurrent(tiny_recurrent, tokens, run), targets).item()

    params = tiny_recurrent.params()
    with Tape() as tape:
        run = RecurrenceRun(3, 8, RandomStream(9, "s0"))
        loss = ag.cross_entropy_mean(
            forward_recurrent(tiny_recurrent, tokens, run), targets)
        grad_map = ag.backward(loss, tape)
    fd_check(params, loss_fn, grad_map, rel_tol=1e-4, samples_per_param=3)


@pytest.mark.parametrize("variant", [
    {"tie_embeddings": True}, {"qk_norm": True}, {"post_norm": True},
    {"tie_embeddings": True, "qk_norm": True, "post_norm": True}],
    ids=["tied", "qk_norm", "post_norm", "all"])
def test_model_variant_gradients_match_finite_differences(tiny_cfg, fd_check,
                                                          variant):
    """The tied unembed (a transposed embed), the QK-norm gains and the
    post-norm residuals differentiate correctly. The window covers all r
    iterations, so autograd returns the full gradient that finite
    differences measure."""
    cfg = dataclasses.replace(tiny_cfg, **variant)
    model = init_recurrent(cfg, (1, 1, 1), RandomStream(0, "init"))
    tokens, targets = np.array([[1, 2, 3]]), np.array([[2, 3, 4]])

    def loss():
        run = RecurrenceRun(3, 3, RandomStream(9, "s0"))
        return ag.cross_entropy_mean(forward_recurrent(model, tokens, run),
                                     targets)

    with Tape() as tape:
        grad_map = ag.backward(loss(), tape)
    fd_check(model.params(), lambda: loss().item(), grad_map, rel_tol=1e-4,
             samples_per_param=3)


def test_init_scaled_deterministic_and_emb_scale(tiny_cfg):
    a = init_fixed(tiny_cfg, 2, RandomStream(4, "init"))
    b = init_fixed(tiny_cfg, 2, RandomStream(4, "init"))
    assert np.array_equal(a.embed.data, b.embed.data)
    with pytest.raises(ContractError):
        init_fixed(tiny_cfg, 2, RandomStream(4, "init"), emb_scale=0.0)
    for plan in ((4,), (1, 1)):
        with pytest.raises(ContractError):
            init_recurrent(tiny_cfg, plan, RandomStream(4, "init"))
    wide = ModelConfig(vocab_size=512, hidden=64, n_query_heads=4,
                       n_kv_heads=2, head_dim=16, ffn_width=128)
    base = np.sqrt(2.0 / (5.0 * 64))
    m = init_fixed(wide, 2, RandomStream(4, "init"), emb_scale=1.0)
    assert abs(m.embed.data.std() - base) < 0.05 * base
    m2 = init_fixed(wide, 2, RandomStream(4, "init"), emb_scale=3.0)
    assert abs(m2.embed.data.std() - 3 * base) < 0.05 * 3 * base


def test_fresh_recurrent_model_stable_at_depth_32():
    cfg = ModelConfig(vocab_size=257, hidden=64, n_query_heads=4, n_kv_heads=2,
                      head_dim=16, ffn_width=128, context_length=32)
    model = init_recurrent(cfg, (2, 4, 2), RandomStream(0, "init"))
    tokens = RandomStream(1, "tok").integers(0, 257, (2, 32))
    logits = forward_recurrent(model, tokens,
                               RecurrenceRun(32, 8, RandomStream(2, "s0")))
    assert np.all(np.isfinite(logits.data))
    rms = float(np.sqrt(np.mean(logits.data ** 2)))
    assert 0.1 <= rms <= 10.0


@pytest.mark.parametrize("variant,nodes", [
    ({}, 16), ({"post_norm": True}, 16), ({"qk_norm": True}, 20)],
    ids=["pre_norm", "post_norm", "qk_norm"])
def test_block_tape_node_count(tiny_cfg, variant, nodes):
    """One op per node: two norms, the q/k/v/o projections, RoPE on q
    and k, three head splits, attention, the head merge, the SwiGLU
    feed-forward and two residual adds; QK-norm adds a norm and a gain
    reshape for each of q and k. Finite-difference sweeps pay per node."""
    cfg = dataclasses.replace(tiny_cfg, **variant)
    model = init_fixed(cfg, 1, RandomStream(0, "init"))
    with Tape() as tape:
        decoder_block(Tensor(np.ones((1, 3, cfg.hidden))), model.blocks[0], cfg)
    assert len(tape.nodes) == nodes


def test_qk_norm_and_post_norm_variant_runs():
    cfg = ModelConfig(vocab_size=32, hidden=16, n_query_heads=2, n_kv_heads=2,
                      head_dim=8, ffn_width=16, context_length=8, qk_norm=True,
                      post_norm=True)
    model = init_fixed(cfg, 2, RandomStream(0, "init"))
    assert model.blocks[0].q_gain is not None
    logits = forward_fixed(model, np.array([[1, 2, 3]]))
    assert logits.shape == (1, 3, 32)


def test_backward_peak_stays_near_forward_memory(tiny_recurrent):
    """Backward frees each node's arrays once its own backward has run, so
    its peak barely exceeds what the forward left on the tape."""
    tokens = RandomStream(1, "tok").integers(0, 11, (2, 16))
    targets = RandomStream(2, "tgt").integers(0, 11, (2, 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            logits = forward_recurrent(tiny_recurrent, tokens,
                                       RecurrenceRun(12, 8,
                                                     RandomStream(9, "s0")))
            loss = ag.cross_entropy_mean(logits, targets)
            del logits
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            ag.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held, (peak, held)


def test_block_frees_the_outputs_that_no_backward_reads(tiny_fixed,
                                                        monkeypatch):
    """The tape records the graph, not the values. The q projection (read
    only by RoPE's forward), the wo product and the SwiGLU feed-forward's
    output (read only by residual adds) are freed once `decoder_block`
    returns; each op's input, which its backward reads, stays. Each is
    found by its last weight."""
    bw, cfg = tiny_fixed.blocks[0], tiny_fixed.config
    refs = {}

    def watched(op):
        def call(a, *weights):
            out = op(a, *weights)
            refs[id(weights[-1])] = (weakref.ref(out.data), weakref.ref(a.data))
            return out
        return call

    monkeypatch.setattr(ag, "matmul", watched(ag.matmul))
    monkeypatch.setattr(ag, "silu_glu", watched(ag.silu_glu))
    x = Tensor(np.random.default_rng(0).standard_normal((2, 5, cfg.hidden)))
    with Tape() as tape:
        y = decoder_block(x, bw, cfg)
        for weight in (bw.wq, bw.wo, bw.w_down):
            product, product_input = refs[id(weight)]
            assert product() is None and product_input() is not None
        freed = [node for node in tape.nodes
                 if node.parents[-1] in (bw.wq, bw.wo, bw.w_down)]
        assert len(freed) == 3 and all(node.data.size == 0 for node in freed)
        assert tape.nodes[-1].data is y.data
        grads = ag.backward(ag.tsum(y), tape)
    assert set(grads) == {x, *bw.named("b").values()}


def test_taped_forward_holds_less_than_its_op_outputs(tiny_recurrent,
                                                      monkeypatch):
    """After the taped forward at r=12, w=8, the memory left allocated is
    below the summed `nbytes` of the recorded op outputs. A tape that kept
    every output would exceed that sum by what backward closures save."""
    tokens = RandomStream(1, "tok").integers(0, 11, (8, 16))

    def forward():
        return forward_recurrent(tiny_recurrent, tokens,
                                 RecurrenceRun(12, 8, RandomStream(9, "s0")))

    output_bytes, make = [], ag._make

    def counted(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        if ag.active_tape() is not None:
            output_bytes.append(data.nbytes)
        return out

    monkeypatch.setattr(ag, "_make", counted)
    with Tape():  # also fills the RoPE table and causal-mask caches
        forward()
    monkeypatch.undo()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape():
            logits = forward()
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert logits.shape == (8, 16, 11)
    assert held < sum(output_bytes), (held, sum(output_bytes))


def test_bench_shaped_taped_window_holds_at_most_45_mib():
    """The bench's model (h 64, 4 query over 2 kv heads, width 128, float32
    weights, plan (1, 2, 1)) on 8x64 tokens at r=12, w=8: a taped forward
    plus cross entropy holds at most 45 MiB (37.7 MiB today). A tape whose
    SwiGLU kept gate, up and their product held 64.7 MiB."""
    cfg = ModelConfig(vocab_size=257, hidden=64, n_query_heads=4,
                      n_kv_heads=2, head_dim=16, ffn_width=128,
                      context_length=64)
    model = init_recurrent(cfg, (1, 2, 1), RandomStream(0, "init"),
                           dtype=np.float32)
    tokens = RandomStream(1, "tok").integers(0, 257, (8, 64))
    targets = RandomStream(2, "tgt").integers(0, 257, (8, 64))
    run = RecurrenceRun(12, 8, RandomStream(9, "s0"))
    with ag.no_record():  # fills the RoPE table and causal-mask caches
        forward_recurrent(model, tokens[:1], run)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape():
            loss = ag.cross_entropy_mean(
                forward_recurrent(model, tokens, run), targets)
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    assert held <= 45 * 2**20, held


@pytest.mark.xfail(strict=True, reason="the np.float64 attention scale "
                   "promotes float32 activations to float64 (NEP 50)")
def test_float32_model_logits_are_float32(tiny_cfg):
    model = init_recurrent(tiny_cfg, (1, 2, 1), RandomStream(0, "init"),
                           dtype=np.float32)
    logits = forward_recurrent(model, np.array([[1, 2, 3]]),
                               RecurrenceRun(2, 8, RandomStream(9, "s0")))
    assert logits.dtype == np.float32
