import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurfit import autograd as ag
from recurfit.autograd import Tape, Tensor
from recurfit.errors import ContractError, ShapeError
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


def test_detach_blocks_one_factor():
    t = Tensor(np.array([1.0, 2.0, 3.0]))
    with Tape() as tape:
        loss = ag.tsum(ag.mul(t.detach(), t))
        grads = ag.backward(loss, tape)
    np.testing.assert_array_equal(grads[t], t.data)


def test_detach_value_identical_and_gradient_free():
    t = Tensor(np.array([1.5, -2.0]))
    d = t.detach()
    assert d.data is t.data  # bitwise-identical view
    with Tape() as tape:
        loss = ag.tsum(t.detach())
        grads = ag.backward(loss, tape)
    assert t not in grads


def test_detached_node_has_no_parents_on_tape():
    t = Tensor(np.ones(2))
    with Tape() as tape:
        d = t.detach()
        assert d in tape.nodes and d.parents == () and d.detached


def test_no_record_suspends_and_restores_tape():
    a, b = Tensor(np.ones(2)), Tensor(np.ones(2))
    with Tape() as tape:
        before = ag.add(a, b)
        with ag.no_record():
            assert ag.active_tape() is None
            inside = ag.mul(before, b)
            detached = inside.detach()
        assert ag.active_tape() is tape
        after = ag.tsum(before)
    assert tape.nodes == [before, after]
    assert inside.parents == () and inside.backward_fn is None
    assert detached not in tape.nodes
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


def test_draw_normal_zero_std_gives_mean():
    t = ag.draw_normal(RandomStream(0, "x"), (4, 4), mean=2.5, std=0.0)
    np.testing.assert_array_equal(t.data, np.full((4, 4), 2.5))


def test_draw_normal_negative_std_rejected():
    with pytest.raises(ContractError):
        ag.draw_normal(RandomStream(0, "x"), (2,), 0.0, -1.0)


def test_draw_normal_statistics():
    t = ag.draw_normal(RandomStream(7, "stats"), (100_000,), 0.0, 1.0)
    assert abs(t.data.mean()) < 4 / np.sqrt(100_000)
    assert abs(t.data.std() - 1.0) < 0.02


def test_draw_normal_deterministic():
    a = ag.draw_normal(RandomStream(3, "lbl"), (16,), 0.0, 1.0)
    b = ag.draw_normal(RandomStream(3, "lbl"), (16,), 0.0, 1.0)
    np.testing.assert_array_equal(a.data, b.data)


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


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
@settings(max_examples=50, deadline=None)
def test_detach_idempotent_and_value_preserving(values):
    t = Tensor(np.asarray(values))
    once = t.detach()
    twice = once.detach()
    np.testing.assert_array_equal(once.data, t.data)
    np.testing.assert_array_equal(twice.data, t.data)
    assert once.parents == () and twice.parents == ()


def test_nonfinite_output_raises():
    from recurfit.errors import NonFiniteError
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ag.mul(big, big)


def test_check_finite_toggle():
    big = Tensor(np.array([1e308]))
    previous = ag.set_check_finite(False)
    try:
        with np.errstate(over="ignore"):
            out = ag.mul(big, big)
        assert np.isinf(out.data).all()
    finally:
        ag.set_check_finite(previous)
