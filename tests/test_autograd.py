import numpy as np
import pytest

from recurfit import autograd as ag
from recurfit.autograd import Tape, Tensor
from recurfit.errors import ContractError, InputError, ShapeError
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
    assert tape.nodes == [before, after]
    assert inside.parents == () and inside.backward_fn is None
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
    position = {node: i for i, node in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node.parents:
            if parent in position:
                assert position[parent] < position[node]


def test_mlp_gradients_match_finite_differences(fd_check):
    rng = np.random.default_rng(1)
    w1 = Tensor(rng.standard_normal((4, 8)) * 0.5)
    w2 = Tensor(rng.standard_normal((8, 3)) * 0.5)
    x = np.asarray(rng.standard_normal((5, 4)))
    targets = np.asarray(rng.integers(0, 3, size=(5,)))

    def loss_fn():
        hidden = ag.silu_glu(ag.matmul(Tensor(x), w1), ag.matmul(Tensor(x), w1))
        logits = ag.matmul(hidden, w2)
        return ag.cross_entropy_mean(logits, targets).item()

    with Tape() as tape:
        hidden = ag.silu_glu(ag.matmul(Tensor(x), w1), ag.matmul(Tensor(x), w1))
        logits = ag.matmul(hidden, w2)
        loss = ag.cross_entropy_mean(logits, targets)
        grads = ag.backward(loss, tape)
    fd_check({"w1": w1, "w2": w2}, loss_fn, grads, rel_tol=1e-4,
             samples_per_param=8)


@pytest.mark.parametrize("op,shapes", [
    ("add", ((3, 4), (3, 4))),
    ("mul", ((3, 4), (4,))),
    ("rms_norm", ((2, 5), (5,))),
    ("concat", ((2, 3), (2, 4))),
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
        return ag.concat_last(a, b)

    def loss_fn():
        return ag.tmean(apply_op()).item()

    with Tape() as tape:
        loss = ag.tmean(apply_op())
        grads = ag.backward(loss, tape)
    fd_check({"a": a, "b": b}, loss_fn, grads, samples_per_param=6)


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


def _attn_inputs(groups, n, dtype, seed=0, kv_heads=2, d=4):
    """q as (B, H, n, d) and k, v as (B, Hk, n, d) views shaped as the
    decoder block makes them: q and k contiguous, v a head-split view."""
    rng = np.random.default_rng(seed)
    b, h = 2, kv_heads * groups
    q = rng.standard_normal((b, h, n, d)).astype(dtype)
    k = rng.standard_normal((b, kv_heads, n, d)).astype(dtype)
    v = (rng.standard_normal((b, n, kv_heads, d)).astype(dtype)
         .transpose(0, 2, 1, 3))
    return q, k, v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("groups", [1, 2, 4])
def test_causal_attn_matches_copy_and_mask_chain_bitwise(groups, n, dtype):
    q, k, v = _attn_inputs(groups, n, dtype)
    att_scale = 1.0 / np.sqrt(np.float64(q.shape[-1]))
    g_out = np.random.default_rng(1).standard_normal(
        q.shape[:2] + (n, q.shape[-1])).astype(dtype)
    # strided as merge_heads' backward hands it over
    g_out = g_out.transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3)
    tq, tk, tv = Tensor(q), Tensor(k), Tensor(v)
    with Tape():
        out = ag.causal_attn(tq, tk, tv, att_scale)
    ref_out, ref_gq, ref_gk, ref_gv = _reference_attn(q, k, v, att_scale, g_out)
    gq, gk, gv = out.backward_fn(g_out)
    for got, ref in ((out.data, ref_out), (gq, ref_gq), (gk, ref_gk),
                     (gv, ref_gv)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("groups", [1, 2])
def test_causal_attn_gradients_match_finite_differences(groups, fd_check):
    q, k, v = (Tensor(a.copy()) for a in _attn_inputs(groups, 5, np.float64))
    weights = Tensor(np.random.default_rng(3).standard_normal(q.shape))

    def loss_of():
        return ag.tsum(ag.mul(ag.causal_attn(q, k, v, 0.5), weights))

    with Tape() as tape:
        grads = ag.backward(loss_of(), tape)
    fd_check({"q": q, "k": k, "v": v}, lambda: loss_of().item(), grads,
             samples_per_param=12)


@pytest.mark.parametrize("j", [1, 4, 6])
def test_causal_attn_is_causal(j):
    q, k, v = _attn_inputs(2, 7, np.float64)
    out = ag.causal_attn(Tensor(q), Tensor(k), Tensor(v), 0.5).data
    k2, v2 = k.copy(), v.copy()
    k2[:, :, j:] += 3.0
    v2[:, :, j:] -= 5.0
    moved = ag.causal_attn(Tensor(q), Tensor(k2), Tensor(v2), 0.5).data
    assert out[:, :, :j].tobytes() == moved[:, :, :j].tobytes()
    assert not np.array_equal(out[:, :, j:], moved[:, :, j:])


def test_causal_attn_rejects_ungrouped_heads():
    q, k, v = _attn_inputs(1, 3, np.float64, kv_heads=3)
    with pytest.raises(ShapeError):
        ag.causal_attn(Tensor(q[:, :2]), Tensor(k), Tensor(v), 0.5)


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
    assert not any(node in grads for node in recorded)
    assert all(node.parents == () and node.backward_fn is None
               for node in recorded)
    np.testing.assert_allclose(grads[w], 2 * x.data.T @ hidden.data)
    with pytest.raises(ContractError, match="consumed"):
        ag.backward(loss, tape)
