"""Optimizers: clipping, AdamW and its epsilon-free variant, Newton-Schulz,
and Muon routing. Reference updates are hand-rolled in the tests."""

import math

import numpy as np
import pytest

from recurfit.autograd import Tensor
from recurfit.errors import ContractError, FormatError, NonFiniteError
from recurfit.optim import (AdamW, AdamWStar, Muon, build_optimizer,
                            clip_global_norm, global_grad_norm, newton_schulz5)


def make_params(arrays):
    return {name: Tensor(np.array(a, dtype=np.float64))
            for name, a in arrays.items()}


# ---------------------------------------------------------------------------
# gradient clipping


def test_global_norm_three_four_five():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_grad_norm(grads) == pytest.approx(5.0)
    clipped = clip_global_norm(grads, max_norm=1.0)
    assert global_grad_norm(clipped) == pytest.approx(1.0)
    assert clipped["a"][0] == pytest.approx(0.6)
    assert clipped["b"][0] == pytest.approx(0.8)


def test_clip_noop_below_threshold():
    grads = {"a": np.array([0.3, 0.4])}
    assert clip_global_norm(grads, max_norm=1.0) is grads


def test_clip_rejects_bad_inputs():
    with pytest.raises(ContractError):
        clip_global_norm({"a": np.ones(2)}, max_norm=0.0)
    with pytest.raises(NonFiniteError):
        clip_global_norm({"a": np.array([np.nan])}, max_norm=1.0)


# ---------------------------------------------------------------------------
# AdamW


def adamw_reference(w, gs, lr, b1=0.9, b2=0.95, eps=1e-8, wd=1e-4):
    """Textbook bias-corrected AdamW, scalars only."""
    m = v = 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * w)
    return w


def test_adamw_matches_scalar_reference():
    params = make_params({"w": [2.0]})
    opt = AdamW()
    gs = [0.5, -1.25, 3.0]
    for g in gs:
        opt.step(params, {"w": np.array([g])}, lr=0.01)
    assert params["w"].data[0] == pytest.approx(
        adamw_reference(2.0, gs, 0.01), abs=1e-12)


def test_adamw_zero_grad_decays_only():
    params = make_params({"w": [10.0]})
    AdamW(weight_decay=0.1).step(params, {"w": np.zeros(1)}, lr=0.5)
    assert params["w"].data[0] == pytest.approx(10.0 - 0.5 * 0.1 * 10.0)


def test_adamw_first_step_is_signed_unit_update():
    """With wd=0 the first bias-corrected update is exactly sign(g)*lr."""
    params = make_params({"w": [0.0, 0.0]})
    opt = AdamW(weight_decay=0.0)
    opt.step(params, {"w": np.array([7.0, -0.03])}, lr=0.1)
    assert params["w"].data == pytest.approx([-0.1, 0.1], rel=1e-6)


def test_adamw_skips_params_without_grads():
    params = make_params({"w": [1.0], "frozen": [5.0]})
    AdamW().step(params, {"w": np.ones(1)}, lr=0.1)
    assert params["frozen"].data[0] == 5.0


def test_adamw_state_roundtrip():
    params = make_params({"w": [1.0, 2.0]})
    opt = AdamW()
    opt.step(params, {"w": np.array([0.1, -0.2])}, lr=0.01)
    opt.step(params, {"w": np.array([0.3, 0.4])}, lr=0.01)
    clone = AdamW()
    clone.load_state_tensors(opt.state_tensors(), params)
    a = make_params({"w": [3.0, -1.0]})
    b = make_params({"w": [3.0, -1.0]})
    g = {"w": np.array([0.5, 0.5])}
    opt.step(a, g, lr=0.01)
    clone.step(b, g, lr=0.01)
    assert a["w"].data.tobytes() == b["w"].data.tobytes()


# ---------------------------------------------------------------------------
# AdamW* (epsilon-free, RMS-clipped, lr-decoupled decay)


def test_adamw_star_zero_denominator_gives_zero_update():
    params = make_params({"w": [4.0]})
    AdamWStar(weight_decay=0.25).step(params, {"w": np.zeros(1)}, lr=1.0)
    # zero grad => v = 0 => update 0; only the lr-independent decay applies
    assert params["w"].data[0] == pytest.approx(4.0 * 0.75)


def test_adamw_star_decay_ignores_lr():
    a = make_params({"w": [4.0]})
    b = make_params({"w": [4.0]})
    AdamWStar(weight_decay=0.25).step(a, {"w": np.zeros(1)}, lr=1.0)
    AdamWStar(weight_decay=0.25).step(b, {"w": np.zeros(1)}, lr=1e-6)
    assert a["w"].data[0] == b["w"].data[0]


def test_adamw_star_rms_clip():
    """A tensor mixing huge and zero per-element updates gets rescaled so
    its update RMS equals the threshold."""
    params = make_params({"w": [0.0, 0.0]})
    opt = AdamWStar(clip_threshold=1.0, weight_decay=0.0)
    # grads: one large, one zero => per-element updates (sign, 0); RMS 1/sqrt(2)
    opt.step(params, {"w": np.array([100.0, 0.0])}, lr=1.0)
    update = -params["w"].data
    rms = math.sqrt(np.mean(update ** 2))
    assert rms <= 1.0 + 1e-12
    assert update[0] == pytest.approx(1.0, rel=1e-9)  # below threshold, unclipped
    assert update[1] == 0.0


def test_adamw_star_rms_clip_rescales_to_threshold():
    params = make_params({"w": [0.0, 0.0]})
    opt = AdamWStar(clip_threshold=0.5, weight_decay=0.0)
    # per-element updates (1, 0) have RMS 1/sqrt(2) > 0.5: scaled down to 0.5
    opt.step(params, {"w": np.array([100.0, 0.0])}, lr=1.0)
    update = -params["w"].data
    assert math.sqrt(np.mean(update ** 2)) == pytest.approx(0.5, rel=1e-12)
    assert update[1] == 0.0


def test_adamw_star_matches_adamw_in_limit():
    """With huge clip threshold, zero decay, and tiny epsilon removed by
    well-scaled grads, the two variants agree closely."""
    gs = [np.array([0.5, -0.8]), np.array([1.5, 0.2]), np.array([-0.7, 0.9])]
    a = make_params({"w": [1.0, -1.0]})
    b = make_params({"w": [1.0, -1.0]})
    plain = AdamW(weight_decay=0.0, epsilon=1e-15)
    star = AdamWStar(weight_decay=0.0, clip_threshold=1e9)
    for g in gs:
        plain.step(a, {"w": g}, lr=0.01)
        star.step(b, {"w": g}, lr=0.01)
    assert a["w"].data == pytest.approx(b["w"].data, abs=1e-9)


# ---------------------------------------------------------------------------
# Newton-Schulz


def test_newton_schulz_zero_matrix():
    out = newton_schulz5(np.zeros((4, 6)))
    assert np.array_equal(out, np.zeros((4, 6)))


def test_newton_schulz_rejects_non_2d():
    with pytest.raises(ContractError):
        newton_schulz5(np.ones(3))


@pytest.mark.parametrize("shape", [(8, 8), (16, 64), (64, 16)])
def test_newton_schulz_singular_values_near_one(shape):
    """After 5 quintic iterations all singular values of a reasonably
    conditioned input land in a loose band around 1."""
    rng = np.random.default_rng(0)
    g = rng.normal(size=shape)
    out = newton_schulz5(g)
    assert out.shape == shape
    s = np.linalg.svd(out, compute_uv=False)
    assert s.min() > 0.3 and s.max() < 1.3


def test_newton_schulz_preserves_singular_vectors():
    """The output approximates U V^T of the input's SVD."""
    rng = np.random.default_rng(1)
    g = rng.normal(size=(12, 12))
    u, _, vt = np.linalg.svd(g)
    out = newton_schulz5(g)
    assert np.abs(out - u @ vt).max() < 0.35
    # alignment much closer than a random orthogonal would be
    assert np.sum(out * (u @ vt)) / 12.0 > 0.8


# ---------------------------------------------------------------------------
# Muon


def test_muon_zero_grads_only_decay():
    params = make_params({"w": np.ones((2, 2))})
    Muon(weight_decay=0.1).step(params, {"w": np.zeros((2, 2))}, lr=0.5)
    assert params["w"].data == pytest.approx(np.ones((2, 2)) * (1 - 0.5 * 0.1))


def test_muon_skips_params_without_grads():
    params = make_params({"w": np.ones((2, 2)), "frozen": np.ones((2, 2))})
    opt = Muon()
    opt.step(params, {"w": np.eye(2)}, lr=0.1)
    assert np.array_equal(params["frozen"].data, np.ones((2, 2)))
    assert set(opt.buffers) == {"w"}


def test_muon_update_has_near_uniform_singular_values():
    rng = np.random.default_rng(2)
    params = make_params({"w": np.zeros((16, 32))})
    g = rng.normal(size=(16, 32))
    Muon(weight_decay=0.0).step(params, {"w": g}, lr=1.0)
    s = np.linalg.svd(params["w"].data, compute_uv=False)
    assert s.max() / s.min() < 5.0
    # update magnitude carries the sqrt(max/min) shape scale
    assert np.median(s) == pytest.approx(math.sqrt(2.0), rel=0.35)


def test_muon_routes_1d_and_embeddings_to_fallback():
    rng = np.random.default_rng(3)
    arrays = {"g_attn": rng.normal(size=8),
              "embed": rng.normal(size=(10, 4)),
              "unembed": rng.normal(size=(4, 10))}
    grads = {k: rng.normal(size=v.shape) for k, v in arrays.items()}
    muon_params = make_params(arrays)
    adam_params = make_params(arrays)
    muon, adam = Muon(), AdamW()
    muon.step(muon_params, grads, lr=0.01)
    adam.step(adam_params, grads, lr=0.01)
    for name in arrays:
        assert muon_params[name].data.tobytes() == \
            adam_params[name].data.tobytes(), name
    assert not muon.buffers  # nothing took the orthogonalized path


def test_muon_momentum_is_nesterov():
    """Effective grad is (1-m)g + m*buf with buf the EMA; check the second
    step against an explicit recomputation."""
    m = 0.95
    g1 = np.diag([2.0, 1.0])  # diagonal so NS5 acts per-singular-value
    g2 = np.diag([1.0, 3.0])
    params = make_params({"w": np.zeros((2, 2))})
    opt = Muon(momentum=m, weight_decay=0.0)
    opt.step(params, {"w": g1}, lr=1.0)
    after_first = params["w"].data.copy()
    opt.step(params, {"w": g2}, lr=1.0)
    buf1 = (1 - m) * g1
    buf2 = m * buf1 + (1 - m) * g2
    eff2 = (1 - m) * g2 + m * buf2
    expected = after_first - newton_schulz5(eff2)  # square: shape scale 1
    assert params["w"].data == pytest.approx(expected, abs=1e-12)


def test_muon_state_roundtrip():
    rng = np.random.default_rng(4)
    arrays = {"w": rng.normal(size=(4, 4)), "g": rng.normal(size=4)}
    params = make_params(arrays)
    opt = Muon()
    for _ in range(2):
        opt.step(params, {k: rng.normal(size=v.shape)
                          for k, v in arrays.items()}, lr=0.01)
    clone = Muon()
    clone.load_state_tensors(opt.state_tensors(), params)
    a = make_params(arrays)
    b = make_params(arrays)
    g = {k: rng.normal(size=v.shape) for k, v in arrays.items()}
    opt.step(a, g, lr=0.01)
    clone.step(b, g, lr=0.01)
    for name in arrays:
        assert a[name].data.tobytes() == b[name].data.tobytes()


def test_state_needs_every_parameter_only_after_a_step():
    """A run whose steps were all non-finite saves `t` = 0 and no moments;
    after a step, every parameter must have its state, and a load that
    fails changes nothing."""
    params = make_params({"w": np.zeros((2, 2)), "g": np.zeros(2)})
    AdamW().load_state_tensors({"t": np.array([0])}, params)
    Muon().load_state_tensors({"fb.t": np.array([0])}, params)
    with pytest.raises(FormatError, match="at step 1 lacks m.g and v.g"):
        AdamW().load_state_tensors({"t": np.array([1])}, params)
    fallback = {"fb.t": np.array([2]), "fb.m.g": np.zeros(2),
                "fb.v.g": np.zeros(2)}
    muon = Muon()
    with pytest.raises(FormatError, match="at step 2 lacks buf.w"):
        muon.load_state_tensors(fallback, params)
    assert muon.fallback.t == 0 and not muon.fallback.m


# ---------------------------------------------------------------------------
# factory


def test_build_optimizer():
    assert isinstance(build_optimizer("adamw"), AdamW)
    assert isinstance(build_optimizer("adamw_star"), AdamWStar)
    assert isinstance(build_optimizer("muon"), Muon)
    assert build_optimizer("adamw", {"beta2": 0.9}).beta2 == 0.9
    with pytest.raises(ContractError):
        build_optimizer("sgd")
    with pytest.raises(ContractError, match="clip threshold"):
        build_optimizer("adamw_star", {"clip_threshold": 0.0})
