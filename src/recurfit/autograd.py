"""Dense-tensor numerics with a reverse-mode tape.

numpy holds the values; each op records its parents and a backward
closure on the active :class:`Tape`. Ops take :class:`Tensor` operands
only; a constant is a Tensor leaf. There is deliberately no autograd
graph without a tape: calling ops outside a ``with Tape()`` block, or
inside a ``with no_record()`` block, is plain (and faster) numpy. Fused
ops (rms_norm, causal_attn, cross_entropy_mean, ...) keep the op count
per transformer block small enough that finite-difference sweeps over
every parameter stay cheap.

`backward` consumes its tape: it unlinks each node once that node's
backward has run, so activations, the arrays its closure saved and its
gradient are freed as the walk goes, and it returns the gradients of
leaves only (parameters, inputs, constants).

Ops do not check results for NaN/Inf; checkpoint tensors are checked at
load, and losses, gradient norms and layer scores where they are read.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, InputError, ShapeError

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """Immutable dense array, optionally recorded on the active tape."""

    __slots__ = ("data", "parents", "backward_fn")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.parents: tuple = ()
        self.backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Ordered record of op results; creation order is topological.

    `backward` empties `nodes` and marks the tape consumed."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


def active_tape() -> Tape | None:
    return _ACTIVE_TAPE


@contextmanager
def no_record():
    """Suspend the active tape; ops inside run as plain numpy.

    The tape is restored on exit, also when the block raises.
    """
    global _ACTIVE_TAPE
    suspended = _ACTIVE_TAPE
    _ACTIVE_TAPE = None
    try:
        yield
    finally:
        _ACTIVE_TAPE = suspended


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    if _ACTIVE_TAPE is not None:
        out.parents = tuple(parents)
        out.backward_fn = backward_fn
        _ACTIVE_TAPE.nodes.append(out)
    else:
        out.parents = ()
        out.backward_fn = None
    return out


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse accumulation from a scalar loss, consuming the tape.

    Walks the tape from its last node, popping each node and its
    gradient; after a node's backward has run, its parents and closure
    are dropped, so what only it held is freed. Returns a map from leaf
    tensor (parameter, input or constant, i.e. not on the tape) to its
    gradient; a leaf appears once some recorded op touches it. A second
    call on the same tape raises ContractError.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ContractError("tape already consumed by backward")
    tape.consumed = True
    nodes = tape.nodes
    grads: dict = {loss: np.ones_like(loss.data)}
    while nodes:
        node = nodes.pop()
        grad = grads.pop(node, None)
        if grad is not None:
            parent_grads = node.backward_fn(grad)
            for parent, pg in zip(node.parents, parent_grads):
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg
        node.parents = ()
        node.backward_fn = None
    return grads


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, factor: float) -> Tensor:
    return _make(a.data * factor, (a,), lambda g: (g * factor,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _make(data, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,),
                 lambda g: (g.transpose(inverse),))


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis (the [state ; injected] join)."""
    cut = a.data.shape[-1]
    data = np.concatenate([a.data, b.data], axis=-1)
    return _make(data, (a, b), lambda g: (g[..., :cut], g[..., cut:]))


def tsum(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _make(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.broadcast_to(g, shape).copy(),))


def tmean(a: Tensor) -> Tensor:
    shape, size = a.data.shape, a.data.size
    return _make(np.asarray(a.data.mean()), (a,),
                 lambda g: (np.broadcast_to(g / size, shape).copy(),))


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    data = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), bwd)


# ---------------------------------------------------------------------------
# fused neural-net ops


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / rms(x) * gain over the last axis."""
    inv = 1.0 / np.sqrt(np.mean(x.data ** 2, axis=-1, keepdims=True) + eps)
    data = x.data * inv * gain.data

    def bwd(g):
        u = g * gain.data
        gx = inv * u - x.data * inv ** 3 * np.mean(x.data * u, axis=-1,
                                                   keepdims=True)
        ggain = _unbroadcast(g * x.data * inv, gain.data.shape)
        return gx, ggain

    return _make(data, (x, gain), bwd)


def silu_glu(gate: Tensor, up: Tensor) -> Tensor:
    """SwiGLU activation: silu(gate) * up."""
    sig = 1.0 / (1.0 + np.exp(-gate.data))
    s = gate.data * sig
    data = s * up.data

    def bwd(g):
        dsig = sig * (1.0 + gate.data * (1.0 - sig))
        return g * up.data * dsig, g * s

    return _make(data, (gate, up), bwd)


def split_heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    """(B, n, H*d) -> (B, H, n, d)."""
    b, n, _ = x.data.shape
    data = x.data.reshape(b, n, n_heads, head_dim).transpose(0, 2, 1, 3)
    return _make(data, (x,),
                 lambda g: (g.transpose(0, 2, 1, 3).reshape(b, n, -1),))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, n, d) -> (B, n, H*d)."""
    b, h, n, d = x.data.shape
    data = x.data.transpose(0, 2, 1, 3).reshape(b, n, h * d)
    return _make(data, (x,),
                 lambda g: (g.reshape(b, n, h, d).transpose(0, 2, 1, 3),))


def expand_kv(x: Tensor, groups: int) -> Tensor:
    """Repeat kv heads so each query-head group sees its kv head.

    Unused: `causal_attn` takes kv heads as they are. Kept only because
    `bench/tracer.py` wraps every name in its op list."""
    if groups == 1:
        return x
    b, hk, n, d = x.data.shape
    data = np.repeat(x.data, groups, axis=1)
    return _make(data, (x,),
                 lambda g: (g.reshape(b, hk, groups, n, d).sum(axis=2),))


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position embedding on (B, H, n, d); cos/sin are (n, d/2)."""
    half = x.data.shape[-1] // 2
    x1, x2 = x.data[..., :half], x.data[..., half:]
    data = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def bwd(g):
        g1, g2 = g[..., :half], g[..., half:]
        return (np.concatenate([g1 * cos + g2 * sin,
                                -g1 * sin + g2 * cos], axis=-1),)

    return _make(data, (x,), bwd)


_CAUSAL_MASKS: dict = {}


def _causal_masks(n: int) -> tuple:
    """(future, kept) boolean (n, n) masks: strictly above the diagonal,
    and its complement."""
    hit = _CAUSAL_MASKS.get(n)
    if hit is None:
        future = np.triu(np.ones((n, n), dtype=bool), k=1)
        hit = _CAUSAL_MASKS[n] = (future, ~future)
    return hit


def causal_attn(q: Tensor, k: Tensor, v: Tensor, att_scale: float) -> Tensor:
    """softmax(q kᵀ · scale + causal mask) v with grouped-query heads.

    q is (B, H, n, d); k and v are (B, Hk, n, d) with H a multiple of Hk,
    and query head i reads kv head i // (H / Hk). The kv heads are
    broadcast over their query group, never copied; backward sums each
    group's kv gradient over the group axis.
    """
    b, h, n, d = q.data.shape
    hk = k.data.shape[1]
    if h % hk or k.data.shape != v.data.shape:
        raise ShapeError(f"query heads {q.data.shape} do not group over "
                         f"kv heads {k.data.shape}, {v.data.shape}")
    groups = h // hk
    q5 = q.data.reshape(b, hk, groups, n, d)
    k5, v5 = k.data[:, :, None], v.data[:, :, None]
    future, kept = _causal_masks(n)
    scores = (q5 @ np.swapaxes(k5, -1, -2)) * att_scale
    np.copyto(scores, -np.inf, where=future)
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.zeros_like(scores)
    np.exp(scores, out=attn, where=kept)
    attn /= attn.sum(axis=-1, keepdims=True)
    data = (attn @ v5).reshape(b, h, n, d)

    def bwd(g):
        g5 = g.reshape(b, hk, groups, n, d)
        d_attn = g5 @ np.swapaxes(v5, -1, -2)
        gv = (np.swapaxes(attn, -1, -2) @ g5).sum(axis=2)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores *= att_scale
        gq = (d_scores @ k5).reshape(b, h, n, d)
        gk = (np.swapaxes(d_scores, -1, -2) @ q5).sum(axis=2)
        return gq, gk, gv

    return _make(data, (q, k, v), bwd)


def token_nll(logits: np.ndarray, targets: np.ndarray) -> tuple:
    """(-log softmax(logits)[target] per position, exp(logits - max)),
    for integer targets in [0, vocab)."""
    if not np.issubdtype(targets.dtype, np.integer):
        raise InputError(f"target ids must be integers, got {targets.dtype}")
    if targets.size and (targets.min() < 0
                         or targets.max() >= logits.shape[-1]):
        raise InputError("target id out of vocabulary range")
    zmax = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - zmax)
    lse = np.log(exp.sum(axis=-1)) + zmax[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return lse - picked, exp


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token cross entropy over every position."""
    targets = np.asarray(targets)
    per_token, exp = token_nll(logits.data, targets)
    count = per_token.size
    loss = per_token.sum() / count

    def bwd(g):
        probs = exp / exp.sum(axis=-1, keepdims=True)
        np.subtract.at(probs, (*np.indices(targets.shape), targets), 1.0)
        return (probs * (g / count),)

    return _make(np.asarray(loss), (logits,), bwd)

