import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from recurfit import autograd as ag
from recurfit import model
from recurfit.autograd import Tape, Tensor
from recurfit.errors import ContractError, InputError, ShapeError
from recurfit.model import BlockWeights, ModelConfig, rope_tables
from recurfit.random import RandomStream


def test_matmul_identity():
    m = Tensor(np.arange(9.0).reshape(3, 3))
    out = ag.matmul(Tensor(np.eye(3)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_case():
    out = ag.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_closed_form():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((5, 7)))
    b = Tensor(rng.standard_normal((7, 3)))
    with Tape() as tape:
        loss = ag.tsum(ag.matmul(a, b))
        grads = ag.backward(loss, tape)
    expected = np.ones((5, 3)) @ b.data.T
    np.testing.assert_allclose(grads[a], expected, rtol=1e-12)
    # central finite differences agree
    eps = 1e-5
    flat = a.data.reshape(-1)
    for i in [0, 11, 34]:
        old = flat[i]
        flat[i] = old + eps
        up = float((a.data @ b.data).sum())
        flat[i] = old - eps
        down = float((a.data @ b.data).sum())
        flat[i] = old
        fd = (up - down) / (2 * eps)
        assert abs(fd - grads[a].reshape(-1)[i]) / max(abs(fd), 1e-12) < 1e-6


def test_backward_sum_gives_ones():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = ag.tsum(t)
        grads = ag.backward(loss, tape)
    np.testing.assert_array_equal(grads[t], np.ones((2, 3)))


def test_backward_requires_scalar_loss():
    t = Tensor(np.ones(3))
    with Tape() as tape:
        out = ag.scale(t, 2.0)
        with pytest.raises(ContractError):
            ag.backward(out, tape)


def test_no_record_suspends_and_restores_tape():
    a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
    with Tape() as tape:
        before = ag.add(a, b)
        with ag.no_record():
            assert ag.active_tape() is None
            inside = ag.mul(before, b)
        assert ag.active_tape() is tape
        after = ag.tsum(before)
    assert tape.nodes == [before.node, after.node]
    assert before.node.parents == (a, b)
    assert after.node.parents == (before.node,)
    assert inside.node is None and inside.backward_fn is None
    assert ag.active_tape() is None


def test_no_record_restores_tape_after_exception():
    with Tape() as tape:
        with pytest.raises(ShapeError):
            with ag.no_record():
                ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert ag.active_tape() is tape
    with pytest.raises(ShapeError):
        with ag.no_record():
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert ag.active_tape() is None


def test_recompute_off_the_tape_is_a_plain_call():
    result = Tensor(np.ones(2))
    assert ag.recompute(lambda: result) is result
    with Tape():
        with ag.no_record():
            assert ag.recompute(lambda: result) is result


def test_recompute_records_one_node_without_parents():
    a = Tensor(np.arange(3.0))
    with Tape() as tape:
        out = ag.recompute(functools.partial(ag.scale, ag.mul(a, a), 2.0))
        assert len(tape.nodes) == 2 and tape.nodes[-1] is out.node
        assert out.node.parents == ()
        grads = ag.backward(ag.tsum(out), tape)
    assert out.data.tolist() == [0.0, 2.0, 8.0]
    assert grads[a].tolist() == [0.0, 4.0, 8.0]


def test_recompute_walks_its_segment_without_the_public_backward(
        monkeypatch):
    """A wrapper of `ag.backward` (as the bench tracer installs one) runs
    once per backward, not once more per segment."""
    calls = []
    public = ag.backward

    def counted(loss, tape):
        calls.append(tape)
        return public(loss, tape)

    monkeypatch.setattr(ag, "backward", counted)
    a = Tensor(np.arange(3.0))
    with Tape() as tape:
        out = ag.recompute(functools.partial(ag.scale, a, 2.0))
        out = ag.recompute(functools.partial(ag.mul, out, a))
        grads = ag.backward(ag.tsum(out), tape)
    assert calls == [tape]
    assert grads[a].tolist() == [0.0, 4.0, 8.0]


def test_recompute_error_in_the_rerun_restores_the_tape():
    a = Tensor(np.ones(3))
    calls = []

    def fails_when_rerun():
        calls.append(None)
        if len(calls) > 1:
            raise ShapeError("re-run")
        return ag.scale(a, 2.0)

    with Tape() as tape:
        out = ag.recompute(fails_when_rerun)
        with pytest.raises(ShapeError, match="re-run"):
            ag.backward(ag.tsum(out), tape)
        assert ag.active_tape() is tape
    assert ag.active_tape() is None
    with Tape() as tape:
        out = ag.recompute(functools.partial(ag.scale, a, 2.0))
        assert ag.backward(ag.tsum(out), tape)[a].tolist() == [2.0] * 3


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(ContractError, match="nested"):
            with Tape():
                pass
    assert ag.active_tape() is None


def test_tape_topological_order():
    a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
    with Tape() as tape:
        c = ag.add(a, b)
        d = ag.mul(c, b)
        e = ag.tsum(d)
    assert tape.nodes == [c.node, d.node, e.node]
    assert [node.parents for node in tape.nodes] == [
        (a, b), (c.node, b), (d.node,)]


def test_mlp_gradients_match_finite_differences(fd_check):
    rng = np.random.default_rng(1)
    w1 = Tensor(rng.standard_normal((4, 8)) * 0.5)
    w2 = Tensor(rng.standard_normal((8, 3)) * 0.5)
    x = np.asarray(rng.standard_normal((5, 4)))
    targets = np.asarray(rng.integers(0, 3, size=(5,)))

    def loss_fn():
        logits = ag.silu_glu(Tensor(x), w1, w1, w2)
        return ag.cross_entropy_mean(logits, targets).item()

    with Tape() as tape:
        logits = ag.silu_glu(Tensor(x), w1, w1, w2)
        loss = ag.cross_entropy_mean(logits, targets)
        grads = ag.backward(loss, tape)
    fd_check({"w1": w1, "w2": w2}, loss_fn, grads, rel_tol=1e-4,
             samples_per_param=8)


@pytest.mark.parametrize("op,shapes", [
    ("add", ((3, 4), (3, 4))),
    ("mul", ((3, 4), (4,))),
    ("rms_norm", ((2, 5), (5,))),
    ("concat", ((2, 3), (2, 4))),
    ("silu", ((3, 4), (4,))),
])
def test_elementwise_ops_match_finite_differences(op, shapes, fd_check):
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal(shapes[0]))
    b = Tensor(rng.standard_normal(shapes[1]))

    def apply_op():
        if op == "add":
            return ag.add(a, b)
        if op == "mul":
            return ag.mul(a, b)
        if op == "rms_norm":
            return ag.rms_norm(a, b, 1e-5)
        if op == "silu":  # b is unused, its gradient zero
            return ag.silu(a)
        return ag.concat_last(a, b)

    def loss_fn():
        return ag.tmean(apply_op()).item()

    with Tape() as tape:
        loss = ag.tmean(apply_op())
        grads = ag.backward(loss, tape)
    fd_check({"a": a, "b": b}, loss_fn, grads, samples_per_param=6)


def test_silu_backward_leaves_a_shared_gradient_alone():
    """`add` hands one gradient array to both of its parents: silu's
    backward builds its own, so the other parent's gradient is the
    upstream gradient bit for bit."""
    rng = np.random.default_rng(3)
    x, y, g = (rng.standard_normal((3, 4)) for _ in range(3))
    leaves = Tensor(x), Tensor(y)
    with Tape() as tape:
        out = ag.add(ag.silu(leaves[0]), leaves[1])
        grads = ag.backward(ag.tsum(ag.mul(out, Tensor(g))), tape)
    assert grads[leaves[1]].tobytes() == g.tobytes()
    sig = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(grads[leaves[0]],
                               g * sig * (1.0 + x * (1.0 - sig)))


def test_stream_counter_advances():
    s = RandomStream(3, "lbl")
    a = s.normal((4,))
    b = s.normal((4,))
    assert not np.array_equal(a, b)
    assert s.counter == 2


def test_gradients_bitwise_deterministic():
    def run():
        stream = RandomStream(11, "weights")
        w = Tensor(stream.normal((6, 6)))
        x = Tensor(stream.normal((2, 6)))
        with Tape() as tape:
            loss = ag.tsum(ag.matmul(x, w))
            grads = ag.backward(loss, tape)
        return grads[w].copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_zero_logits_cross_entropy_is_log_vocab():
    loss = ag.cross_entropy_mean(Tensor(np.zeros((1, 3, 5))),
                                 np.array([[0, 4, 2]]))
    assert loss.item() == pytest.approx(np.log(5))


@pytest.mark.parametrize("bad", [5, 7, -1])
def test_cross_entropy_target_out_of_range(bad):
    with pytest.raises(InputError, match="range"):
        ag.cross_entropy_mean(Tensor(np.zeros((1, 3, 5))),
                              np.array([[0, bad, 2]]))


def test_cross_entropy_float_targets():
    with pytest.raises(InputError, match="integers"):
        ag.cross_entropy_mean(Tensor(np.zeros((1, 2, 5))),
                              np.array([[0.0, 1.0]]))


def _reference_attn(q, k, v, att_scale, g_out):
    """Forward output and (q, k, v) gradients of the copy-and-mask chain:
    kv heads repeated per query group, the mask applied with np.where,
    a full softmax, and the repeated kv gradients summed per group."""
    b, hk, n, d = k.shape
    groups = q.shape[1] // hk
    k_rep, v_rep = np.repeat(k, groups, axis=1), np.repeat(v, groups, axis=1)
    scores = (q @ np.swapaxes(k_rep, -1, -2)) * att_scale
    scores = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), -np.inf,
                      scores)
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = attn @ v_rep
    d_attn = g_out @ np.swapaxes(v_rep, -1, -2)
    gv = np.swapaxes(attn, -1, -2) @ g_out
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_scores *= att_scale
    gq = d_scores @ k_rep
    gk = np.swapaxes(d_scores, -1, -2) @ q
    if groups > 1:
        gk = gk.reshape(b, hk, groups, n, d).sum(axis=2)
        gv = gv.reshape(b, hk, groups, n, d).sum(axis=2)
    return out, gq, gk, gv


def _attn_inputs(groups, n, dtype, seed=0, kv_heads=2, d=4, b=2):
    """q as (B, H, n, d) and k, v as (B, Hk, n, d), head-split views of
    contiguous (B, n, heads, d) arrays as the decoder block makes them."""
    rng = np.random.default_rng(seed)
    h = kv_heads * groups
    q = rng.standard_normal((b, n, h, d)).astype(dtype).transpose(0, 2, 1, 3)
    k, v = (rng.standard_normal((b, n, kv_heads, d)).astype(dtype)
            .transpose(0, 2, 1, 3) for _ in range(2))
    return q, k, v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 7, 16, 17, 64])
@pytest.mark.parametrize("groups", [1, 2, 4])
def test_causal_attn_matches_copy_and_mask_chain_bitwise(groups, n, dtype):
    """The attention op, taped and untaped, and for float32 inputs
    promoted to float64 by an np.float64 scale (as the decoder block
    passes it) as well as scaled in place by a Python float."""
    q, k, v = _attn_inputs(groups, n, dtype)
    tq, tk, tv = Tensor(q), Tensor(k), Tensor(v)
    for att_scale in (1.0 / np.sqrt(np.float64(q.shape[-1])), 0.375):
        out_dtype = np.result_type(q, att_scale)
        g_out = np.random.default_rng(1).standard_normal(
            q.shape[:2] + (n, q.shape[-1])).astype(out_dtype)
        # strided as merge_heads' backward hands it over
        g_out = g_out.transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3)
        with Tape():
            out = ag.causal_attn(tq, tk, tv, att_scale)
        untaped = [ag.causal_attn(tq, tk, tv, att_scale).data
                   for _ in range(2)]
        ref_out, ref_gq, ref_gk, ref_gv = _reference_attn(q, k, v, att_scale,
                                                          g_out)
        gq, gk, gv = out.backward_fn(g_out)
        assert out.dtype == out_dtype
        for got, ref in ((out.data, ref_out), (untaped[0], ref_out),
                         (untaped[1], ref_out), (gq, ref_gq), (gk, ref_gk),
                         (gv, ref_gv)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_causal_attn_untaped_call_after_a_nan_row_is_unaffected():
    """A NaN score row must not leave NaN in the next call's masked
    entries."""
    q, k, v = _attn_inputs(2, 17, np.float64)

    def attend(q):
        return ag.causal_attn(Tensor(q), Tensor(k), Tensor(v), 0.5).data

    clean = attend(q)
    poisoned = q.copy()
    poisoned[0, 0, 3, 0] = np.nan
    with np.errstate(invalid="ignore"):  # as `train` and `evaluate` run
        hit = attend(poisoned)
    assert np.isnan(hit[0, 0, 3]).all() and np.isfinite(hit[0, :, 4]).all()
    assert attend(q).tobytes() == clean.tobytes()


def _sublayer(variant, shape, groups=2, dtypes=("float64", "float64"),
              seed=12):
    """Leaves and keyword arguments of an attention sublayer with 4 query
    heads over 4 / groups kv heads on x of `shape`: (x, wq, wk, wv, wo,
    norm gain, q_gain, k_gain), the (cos, sin) tables, and whether the
    variant normalises the input before attention and q and k after
    their projections. x takes the first dtype, the weights the second."""
    b, n, h = shape
    d, kv = h // 4, (4 // groups) * (h // 4)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape).astype(dtypes[0]))
    weights = [Tensor((rng.standard_normal(s) / np.sqrt(h)).astype(dtypes[1]))
               for s in ((h, h), (h, kv), (h, kv), (h, h))]
    gains = [Tensor((1.0 + 0.1 * rng.standard_normal(width)).astype(dtypes[1]))
             for width in (h, h, kv)]
    rope = rope_tables(n, d, 10000.0, x.dtype)
    return ([x, *weights, *gains], rope, variant != "post_norm",
            variant == "qk_norm")


def _segment(leaves, rope, pre_norm, qk_norm):
    """The model's attention sublayer on these leaves as it runs in a
    decoder block: one `ag.recompute` segment bound to its input."""
    x, wq, wk, wv, wo, norm, q_gain, k_gain = leaves
    d = rope[0].shape[-1]
    h = wq.shape[-1]
    cfg = ModelConfig(vocab_size=1, hidden=h, n_query_heads=h // d,
                      n_kv_heads=wk.shape[-1] // d, head_dim=d, ffn_width=1,
                      context_length=x.shape[-2], qk_norm=qk_norm)
    bw = BlockWeights(wq, wk, wv, wo, None, None, None, norm, None,
                      q_gain, k_gain)
    return ag.recompute(functools.partial(model._attention, x, bw, cfg,
                                          norm if pre_norm else None))


def _unfused_sublayer(leaves, rope, pre_norm, qk_norm):
    """The attention sublayer as a chain of single ops, recorded straight
    onto the tape: the reference for the model's segment."""
    x, wq, wk, wv, wo, norm, q_gain, k_gain = leaves
    d = rope[0].shape[-1]
    a = ag.rms_norm(x, norm, 1e-5) if pre_norm else x

    def rotated_heads(w, gain):
        n_heads = w.shape[-1] // d
        proj = ag.matmul(a, w)
        if qk_norm:
            proj = ag.rms_norm(proj, ag.reshape(gain, (n_heads, d)), 1e-5)
        return ag.split_heads(ag.rope_rotate(proj, *rope), n_heads, d)

    q, k = rotated_heads(wq, q_gain), rotated_heads(wk, k_gain)
    v = ag.split_heads(ag.matmul(a, wv), wv.shape[-1] // d, d)
    out = ag.causal_attn(q, k, v, 1.0 / np.sqrt(d))
    return ag.matmul(ag.merge_heads(out), wo)


@pytest.mark.parametrize("variant", ["pre_norm", "post_norm", "qk_norm"])
@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("dtypes", [
    ("float64", "float64"), ("float64", "float32"), ("float32", "float32")],
    ids=["float64", "float32-weights", "float32-input"])
@pytest.mark.parametrize("shape", [(8, 64, 64), (3, 7, 16)])
def test_attention_sublayer_matches_the_unfused_chain_bitwise(
        shape, dtypes, groups, variant):
    """The model's attention segment's output and every gradient (x, the
    four projections, the norm gain, QK-norm's gains) keep the bytes and
    dtypes of the unfused chain recorded directly: for float64, for
    float32 weights on float64 activations (the mix a float32 model
    computes in), and for a float32 input (the first block of a float32
    model, whose np.float64 attention scale promotes the scores). x also
    feeds the residual add, and a post-norm variant normalises the output,
    as the decoder block does, so the order in which the tape sums x's
    gradient shows."""
    leaves, rope, pre_norm, qk_norm = _sublayer(variant, shape, groups,
                                                dtypes)
    x, norm = leaves[0], leaves[5]
    g = Tensor(np.random.default_rng(3).standard_normal(shape))
    runs = []
    for sublayer in (_segment, _unfused_sublayer):
        with Tape() as tape:
            y = sublayer(leaves, rope, pre_norm, qk_norm)
            if not pre_norm:
                y = ag.rms_norm(y, norm, 1e-5)
            out = ag.add(x, y)
            grads = ag.backward(ag.tsum(ag.mul(out, g)), tape)
        used = leaves if qk_norm else leaves[:6]
        assert set(grads) == {*used, g}
        runs.append([out.data] + [grads[leaf] for leaf in used])
    for got, want in zip(*runs):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _mlp_segment(x, gain, weights):
    """The model's SwiGLU sublayer with its pre-norm, as a segment."""
    bw = BlockWeights(None, None, None, None, *weights, None, gain)
    cfg = ModelConfig(vocab_size=1, hidden=2, n_query_heads=1, n_kv_heads=1,
                      head_dim=2, ffn_width=1)
    return ag.recompute(functools.partial(model._mlp, x, bw, cfg, gain))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("op", ["rms_norm-row", "rms_norm-heads", "silu_glu",
                                "mlp_segment", "rope_rotate", "causal_attn",
                                "attention_segment"])
def test_fused_op_gives_the_same_bytes_on_and_off_the_tape(op, dtype):
    """An op allocates the same way whether it records or not, so two
    consecutive untaped calls give the taped output's bytes."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 9, 16)).astype(dtype))
    w_gate, w_up, w_down = (Tensor(0.3 * rng.standard_normal(shape)
                                   .astype(dtype))
                            for shape in ((16, 24), (16, 24), (24, 16)))
    row_gain = Tensor((1.0 + 0.1 * rng.standard_normal(16)).astype(dtype))
    head_gain = Tensor((1.0 + 0.1 * rng.standard_normal((2, 8))).astype(dtype))
    cos, sin = rope_tables(9, 8, 10000.0, dtype)
    q, k, v = (Tensor(a) for a in _attn_inputs(2, 9, dtype))
    qk = _sublayer("qk_norm", (2, 9, 16), dtypes=(dtype, dtype))
    call = {"rms_norm-row": lambda: ag.rms_norm(x, row_gain, 1e-5),
            "rms_norm-heads": lambda: ag.rms_norm(x, head_gain, 1e-5),
            "silu_glu": lambda: ag.silu_glu(x, w_gate, w_up, w_down),
            "mlp_segment": lambda: _mlp_segment(x, row_gain,
                                                (w_gate, w_up, w_down)),
            "rope_rotate": lambda: ag.rope_rotate(x, cos, sin),
            "causal_attn": lambda: ag.causal_attn(q, k, v,
                                                  1.0 / np.sqrt(4.0)),
            "attention_segment": lambda: _segment(*qk)}[op]
    with Tape():
        taped = call()
        with ag.no_record():
            untaped = [call() for _ in range(2)]
    assert taped.node is not None
    for out in untaped:
        assert out.node is None
        # the np.float64 attention scale promotes float32 scores
        assert out.dtype == taped.dtype == (
            np.float64 if op in ("causal_attn", "attention_segment")
            else dtype)
        assert out.data.tobytes() == taped.data.tobytes()


def _reference_head_norm(x, gain, eps, g):
    """Forward and backward of the norm over the last axis of (B, H, n, d)
    heads with a broadcast (H, 1, d) gain, as the head split used it."""
    inv = 1.0 / np.sqrt(np.mean(x ** 2, axis=-1, keepdims=True) + eps)
    out = x * inv * gain
    u = g * gain
    gx = inv * u - x * inv ** 3 * np.mean(x * u, axis=-1, keepdims=True)
    ggain = (g * x * inv).sum(axis=0).sum(axis=1, keepdims=True)
    return out, gx, ggain


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rms_norm_with_head_gain_matches_norm_of_split_heads_bitwise(dtype):
    """An (H, d) gain normalises each head of a (B, n, H*d) projection as
    the norm of its (B, H, n, d) head split did, bit for bit."""
    b, n, heads, d = 2, 5, 3, 8
    rng = np.random.default_rng(6)
    x = rng.standard_normal((b, n, heads * d)).astype(dtype)
    gain = (1.0 + 0.1 * rng.standard_normal((heads, d))).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)

    def heads_of(a):
        return a.reshape(b, n, heads, d).transpose(0, 2, 1, 3)

    with Tape():
        out = ag.rms_norm(Tensor(x), Tensor(gain), 1e-5)
    gx, ggain = out.backward_fn(g)
    refs = _reference_head_norm(heads_of(x), gain.reshape(heads, 1, d), 1e-5,
                                heads_of(g))
    for got, ref in ((heads_of(out.data), refs[0]), (heads_of(gx), refs[1]),
                     (ggain, refs[2].reshape(heads, d))):
        assert got.dtype == ref.dtype == dtype
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(ref).tobytes()


def test_rms_norm_float64_gain_promotes_float32_input_bitwise():
    """A gain of a wider dtype than x promotes the output: x / rms(x) is
    formed in x's dtype, then multiplied by the gain."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 8)).astype(np.float32)
    gain = 1.0 + 0.1 * rng.standard_normal(8)
    out = ag.rms_norm(Tensor(x), Tensor(gain), 1e-5)
    ref = x * (1.0 / np.sqrt(np.mean(x ** 2, axis=-1, keepdims=True)
                             + 1e-5)) * gain
    assert out.dtype == ref.dtype == np.float64
    assert out.data.tobytes() == ref.tobytes()


def _reference_rope(x, cos, sin, g):
    """Forward and backward of the concatenating RoPE formula on (B, H, n,
    d) heads with (n, d/2) angle tables."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    out = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
    g1, g2 = g[..., :half], g[..., half:]
    grad = np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos],
                          axis=-1)
    return out, grad


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads,head_dim", [(1, 2), (2, 8), (4, 16)])
def test_rope_matches_concatenating_formula_bitwise(dtype, heads, head_dim):
    b, n = 2, 9
    rng = np.random.default_rng(5)
    x = rng.standard_normal((b, n, heads * head_dim)).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    cos, sin = rope_tables(n, head_dim, 10000.0, dtype)
    with Tape():
        out = ag.rope_rotate(Tensor(x), cos, sin)
    (grad,) = out.backward_fn(g)

    def heads_of(a):
        return a.reshape(b, n, heads, head_dim).transpose(0, 2, 1, 3)

    half = head_dim // 2
    angles = np.outer(np.arange(n),
                      10000.0 ** (-np.arange(half, dtype=np.float64) / half))
    ref_out, ref_grad = _reference_rope(
        heads_of(x), np.cos(angles).astype(dtype),
        np.sin(angles).astype(dtype), heads_of(g))
    for got, ref in ((out.data, ref_out), (grad, ref_grad)):
        assert got.dtype == ref.dtype == dtype
        assert heads_of(got).tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("groups", [1, 2])
def test_attention_segment_gradients_match_finite_differences(groups,
                                                              fd_check):
    """The model's attention segment with its pre-norm and QK-norm,
    against central differences in x and every weight and gain."""
    leaves, rope, _, _ = _sublayer("qk_norm", (2, 5, 8), groups)
    weights = Tensor(np.random.default_rng(3).standard_normal((2, 5, 8)))

    def loss_of():
        out = _segment(leaves, rope, True, True)
        return ag.tsum(ag.mul(out, weights))

    with Tape() as tape:
        grads = ag.backward(loss_of(), tape)
    names = ("x", "wq", "wk", "wv", "wo", "norm", "q_gain", "k_gain")
    fd_check(dict(zip(names, leaves)), lambda: loss_of().item(), grads,
             samples_per_param=6)


@pytest.mark.parametrize("j", [1, 4, 6])
def test_causal_attn_is_causal(j):
    q, k, v = _attn_inputs(2, 7, np.float64)

    def attend(k, v):
        return ag.causal_attn(Tensor(q), Tensor(k), Tensor(v), 0.5).data

    out = attend(k, v)
    k2, v2 = k.copy(), v.copy()
    k2[:, :, j:] += 3.0
    v2[:, :, j:] -= 5.0
    moved = attend(k2, v2)
    assert out[:, :, :j].tobytes() == moved[:, :, :j].tobytes()
    assert not np.array_equal(out[:, :, j:], moved[:, :, j:])


def test_causal_attn_rejects_ungrouped_heads():
    q, k, v = _attn_inputs(1, 3, np.float64, kv_heads=3)
    with pytest.raises(ShapeError):
        ag.causal_attn(Tensor(q[:, :2]), Tensor(k), Tensor(v), 0.5)
    with pytest.raises(ShapeError):
        ag.causal_attn(Tensor(q), Tensor(k), Tensor(v[:, :2]), 0.5)


def _held_by_taped_call(call):
    """Bytes a taped call leaves allocated while its output lives: the
    output plus whatever its backward saved beyond the live inputs. The
    empty tape is counted in the base: whether its dict comes from a free
    list or from malloc varies with the tests run before."""
    call()  # fills the per-shape caches (causal masks, RoPE tables)
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held, out.data.nbytes


@pytest.mark.parametrize("sublayer", ["pre_norm", "qk_norm", "mlp"])
def test_taped_segment_keeps_no_array(sublayer):
    """At the bench's shapes (x (8, 64, 64) float64, float32 weights, 4
    query heads over 2 kv heads of 16, width 128), a taped sublayer
    segment holds only its output: not the normed input, q, k, v or
    attn·v (256 KiB and 128 KiB each), the (n, n) probabilities (1 MiB),
    nor gate, up or the sigmoid (512 KiB each), which its backward
    rebuilds by re-running the segment. The 2 KiB allowance covers the
    Python objects: the tape record, the closure, the bound call and the
    output's array header (about 1.1 KiB here)."""
    if sublayer == "mlp":
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((8, 64, 64)))
        weights = [Tensor(0.1 * rng.standard_normal(shape).astype(np.float32))
                   for shape in ((64, 128), (64, 128), (128, 64))]
        gain = Tensor(np.ones(64, np.float32))
        held, out_bytes = _held_by_taped_call(
            lambda: _mlp_segment(x, gain, weights))
    else:
        leaves, rope, pre_norm, qk_norm = _sublayer(
            sublayer, (8, 64, 64), dtypes=("float64", "float32"))
        held, out_bytes = _held_by_taped_call(
            lambda: _segment(leaves, rope, pre_norm, qk_norm))
    assert held <= out_bytes + 2048, (held, out_bytes)


def _reference_swiglu(x, w_gate, w_up, w_down, g, gx_later):
    """Forward and gradients of the unfused chain: the gate and up
    products, silu(gate) * up, the down product, with each product's
    gradients as `ag.matmul` makes them. x's gradient is summed as the
    tape summed it: what a later consumer of x gave, then the up and then
    the gate product's part."""
    gate, up = x @ w_gate, x @ w_up
    sig = 1.0 / (1.0 + np.exp(-gate))
    hidden = gate * sig * up
    gh = g @ w_down.T
    gw_down = (np.swapaxes(hidden, -1, -2) @ g).sum(axis=0)
    g_gate = gh * up * (sig * (1.0 + gate * (1.0 - sig)))
    g_up = gh * (gate * sig)
    gx = gx_later + g_up @ w_up.T + g_gate @ w_gate.T
    gw_up = (np.swapaxes(x, -1, -2) @ g_up).sum(axis=0)
    gw_gate = (np.swapaxes(x, -1, -2) @ g_gate).sum(axis=0)
    return hidden @ w_down, gx, gw_gate, gw_up, gw_down


@pytest.mark.parametrize("dtypes", [
    ("float64",) * 4, ("float64",) + ("float32",) * 3,
    ("float32", "float32", "float64", "float32")],
    ids=["float64", "float32-weights", "float64-up"])
@pytest.mark.parametrize("shape,width", [((8, 64, 64), 128), ((3, 7, 16), 24)])
def test_swiglu_matches_the_unfused_chain_bitwise(shape, width, dtypes):
    """Output and all four gradients keep the unfused chain's bytes and
    dtypes: for float64, for float32 weights on float64 activations (the
    mix a float32 model computes in), and for a float64 w_up among
    float32 arrays, which widens the products the op would otherwise
    form in place. x also feeds a later op, as the residual stream does
    in a post-norm block, so the order in which the tape sums x's
    gradient shows."""
    rng = np.random.default_rng(11)
    h = shape[-1]
    x = rng.standard_normal(shape).astype(dtypes[0])
    weights = [(rng.standard_normal(s) / np.sqrt(s[0])).astype(dtype)
               for s, dtype in zip(((h, width), (h, width), (width, h)),
                                   dtypes[1:])]
    g, gx_later = rng.standard_normal(shape), rng.standard_normal(shape)
    leaves = [Tensor(a) for a in (x, *weights)]
    with Tape() as tape:
        out = ag.silu_glu(*leaves)
        loss = ag.add(ag.tsum(ag.mul(out, Tensor(g))),
                      ag.tsum(ag.mul(leaves[0], Tensor(gx_later))))
        grads = ag.backward(loss, tape)
    got = [out.data] + [grads[leaf] for leaf in leaves]
    want = _reference_swiglu(x, *weights, g, gx_later)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert [a.shape for a in got[2:]] == [w.shape for w in weights]


@pytest.mark.parametrize("dtypes", [
    ("float64", "float64"), ("float64", "float32"), ("float32", "float32")],
    ids=["float64", "float32-weights", "float32-input"])
@pytest.mark.parametrize("shape,width", [((8, 64, 64), 128), ((3, 7, 16), 24)])
def test_swiglu_with_pre_norm_matches_norm_then_swiglu_bitwise(shape, width,
                                                               dtypes):
    """The model's SwiGLU segment, with its pre-norm, keeps the output
    bytes and the x, gain and weight gradients of `rms_norm` followed by
    `silu_glu` recorded directly, x also feeding the residual add."""
    rng = np.random.default_rng(13)
    h = shape[-1]
    x = Tensor(rng.standard_normal(shape).astype(dtypes[0]))
    gain = Tensor((1.0 + 0.1 * rng.standard_normal(h)).astype(dtypes[1]))
    weights = [Tensor((rng.standard_normal(s) / np.sqrt(s[0]))
                      .astype(dtypes[1]))
               for s in ((h, width), (h, width), (width, h))]
    g = Tensor(rng.standard_normal(shape))
    runs = []
    for segment in (True, False):
        with Tape() as tape:
            if segment:
                y = _mlp_segment(x, gain, weights)
            else:
                y = ag.silu_glu(ag.rms_norm(x, gain, 1e-5), *weights)
            out = ag.add(x, y)
            grads = ag.backward(ag.tsum(ag.mul(out, g)), tape)
        runs.append([out.data] + [grads[leaf] for leaf in (x, gain, *weights)])
    for got, want in zip(*runs):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_sigmoid_of_a_large_negative_input_is_zero_without_overflow():
    with np.errstate(over="raise"):
        sig = ag._sigmoid(np.array([-800.0, 1.0]))
    assert sig.tolist() == [0.0, 1.0 / (1.0 + np.exp(-1.0))]


def _same_nans_and_bytes(got, want):
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def test_causal_attn_gradients_of_a_nan_query_row_match_the_reference():
    """The attention op's output and gradients hold NaN where the
    copy-and-mask chain's do for a NaN query row, and its bytes
    everywhere else."""
    q, k, v = _attn_inputs(2, 17, np.float64)
    q = q.copy()
    q[0, 1, 5, 2] = np.nan
    g_out = np.random.default_rng(2).standard_normal(q.shape)
    with np.errstate(invalid="ignore"), Tape():  # as `train` runs
        out = ag.causal_attn(Tensor(q), Tensor(k), Tensor(v), 0.5)
        got = (out.data, *out.backward_fn(g_out))
        wants = _reference_attn(q, k, v, 0.5, g_out)
    for grad, want in zip(got, wants):
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert _same_nans_and_bytes(grad, want)


def test_fused_ops_with_one_huge_row_raise_no_floating_point_error():
    """One row of attention scores, and one row of SwiGLU gates, scaled
    by 1e3, and a row of gates at -800, where the sigmoid's exp
    overflows: forward and backward, each op run as a segment whose
    backward re-runs it, give finite values and neither raise under
    strict floating-point checks nor warn."""
    q, k, v = _attn_inputs(2, 17, np.float64)
    q = q.copy()
    q[1, 2, 9] *= 1e3
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, (2, 9, 16))
    x[0, 4] *= 1e3
    x[1, 2] = -800.0
    w_gate = np.eye(16)  # the gates are x itself
    w_up, w_down = (rng.uniform(-0.5, 0.5, (16, 16)) for _ in range(2))
    leaves = [Tensor(a) for a in (q, k, v, x, w_gate, w_up, w_down)]
    for fp_errors in ("raise", "warn"):  # a warning is an error here too
        with (warnings.catch_warnings(action="error"),
              np.errstate(over=fp_errors, invalid=fp_errors), Tape() as tape):
            attn = ag.recompute(functools.partial(ag.causal_attn,
                                                  *leaves[:3], 0.5))
            mlp = ag.recompute(functools.partial(ag.silu_glu, *leaves[3:]))
            loss = ag.add(ag.tsum(attn), ag.tsum(mlp))
            grads = ag.backward(loss, tape)
        assert np.isfinite(attn.data).all() and np.isfinite(mlp.data).all()
        assert all(np.isfinite(grads[leaf]).all() for leaf in leaves)


def test_backward_consumes_the_tape():
    rng = np.random.default_rng(4)
    w, x = Tensor(rng.standard_normal((3, 3))), Tensor(rng.standard_normal((1, 3)))
    with Tape() as tape:
        hidden = ag.matmul(x, w)
        loss = ag.tsum(ag.mul(hidden, hidden))
        recorded = list(tape.nodes)
        grads = ag.backward(loss, tape)
    assert tape.nodes == []
    assert set(grads) == {w, x}
    assert len(recorded) == 3
    assert not any(node in grads for node in recorded)
    assert all(node.parents == () and node.backward_fn is None
               for node in recorded)
    np.testing.assert_allclose(grads[w], 2 * x.data.T @ hidden.data)
    with pytest.raises(ContractError, match="consumed"):
        ag.backward(loss, tape)


def test_backward_runs_a_replaced_backward_fn():
    """A wrapper set as an output's `backward_fn` (as the bench tracer
    sets its timers) is what `backward` calls."""
    a = Tensor(np.arange(3.0))
    calls = []
    with Tape() as tape:
        out = ag.scale(a, 2.0)
        inner = out.backward_fn
        out.backward_fn = lambda g: calls.append(g) or inner(g)
        assert tape.nodes[0].backward_fn is out.backward_fn
        grads = ag.backward(ag.tsum(out), tape)
    assert len(calls) == 1
    np.testing.assert_array_equal(grads[a], [2.0, 2.0, 2.0])


def test_op_on_0d_outputs_is_recorded():
    """numpy returns a scalar, not a 0-d array, for + of 0-d arrays; the
    tape records it as an array all the same."""
    a = Tensor(np.arange(3.0))
    with Tape() as tape:
        total = ag.add(ag.tsum(a), ag.tmean(a))
        assert isinstance(total.data, np.ndarray)
        assert tape.nodes[-1].data is total.data
        grads = ag.backward(total, tape)
    np.testing.assert_array_equal(grads[a], [4 / 3] * 3)
