"""Dense-tensor numerics with a reverse-mode tape.

numpy holds the values; each op appends a :class:`Node` to the active
:class:`Tape`: the gradient keys of its parents and a backward closure.
Ops take :class:`Tensor` operands only; a constant is a Tensor leaf.
There is deliberately no autograd graph without a tape: calling ops
outside a ``with Tape()`` block, or inside a ``with no_record()`` block,
is plain (and faster) numpy. Fused ops (causal_attn, rms_norm,
cross_entropy_mean, ...) keep the op count small enough that
finite-difference sweeps over every parameter stay cheap. Every weight
product is a `matmul`, and no op writes out another op's gradient:
`silu_glu` is `matmul`, `silu` and `mul` composed.

The tape holds the graph, not the values. A record refers to its
output only weakly, and each op's backward closure captures exactly the
arrays and shapes it reads, never a Tensor; so an op output that no
backward reads (a sublayer's output that only feeds a residual add, the
logits) is freed as soon as the model code drops it. `backward` consumes
its tape: it unlinks each record once its backward has run, so the
arrays its closure saved and its gradient are freed as the walk goes,
and it returns the gradients of leaves only (parameters, inputs,
constants).

A segment (`recompute(fn)`) trades time for memory: its ops run untaped
and one record with no parents stands for them. That record's closure
is the one that holds Tensors: it keeps only `fn`, bound to the
segment's inputs and weights. Its backward re-runs `fn` onto a segment
tape and walks it with the running backward's gradient map, so each
input's gradient is summed where, and in the order, the segment's ops
recorded directly would have summed it, bit for bit.

The fused ops keep the bits of their textbook formulas while making
fewer passes: the attention softmax runs in place on whole (n, n)
products (row blocks of a product can round differently on OpenBLAS),
and RoPE adds a half-swapped view instead of concatenating halves. Each
op allocates the arrays it makes, the same way on and off the tape; the
cached causal masks are the only state an op keeps between calls. A
backward never writes into the gradient it is given, which may be
shared: `add` hands the same array to both of its parents.

Ops do not check results for NaN/Inf; checkpoint tensors are checked at
load, and losses, gradient norms and layer scores where they are read.
"""

from __future__ import annotations

import functools
import weakref
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, InputError, ShapeError

_ACTIVE_TAPE: "Tape | None" = None


class Tensor:
    """Immutable dense array; `node` is its tape record, None off the tape."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.node: Node | None = None

    @property
    def backward_fn(self):
        return None if self.node is None else self.node.backward_fn

    @backward_fn.setter
    def backward_fn(self, fn):
        self.node.backward_fn = fn

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


_FREED = np.empty(0)


class Node:
    """Tape record of one op: the gradient keys of its parents (a parent's
    record, or the parent itself if it is a leaf), its backward closure
    and a weak reference to its output array. `data` is that array while
    its Tensor or a backward closure holds it, and an empty array once it
    is freed."""

    __slots__ = ("parents", "backward_fn", "output")

    def __init__(self, parents: tuple, backward_fn, output: weakref.ref):
        self.parents = parents
        self.backward_fn = backward_fn
        self.output = output

    @property
    def data(self) -> np.ndarray:
        out = self.output()
        return _FREED if out is None else out


class Tape:
    """Ordered list of op records; creation order is topological.

    `backward` empties `nodes` and marks the tape consumed."""

    def __init__(self):
        self.nodes: list[Node] = []
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
def _recording(tape: Tape | None):
    """Make `tape` the active tape (None: no tape) for the block; the tape
    before it is restored on exit, also when the block raises."""
    global _ACTIVE_TAPE
    outer, _ACTIVE_TAPE = _ACTIVE_TAPE, tape
    try:
        yield
    finally:
        _ACTIVE_TAPE = outer


def no_record():
    """Suspend the active tape; ops inside run as plain numpy.

    The tape is restored on exit, also when the block raises.
    """
    return _recording(None)


def _grad_key(t: Tensor):
    """What `backward` keys t's gradient by: its record, or t if a leaf."""
    return t if t.node is None else t.node


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.node = None
    if _ACTIVE_TAPE is not None:
        # a numpy scalar (an op on 0-d arrays) takes no weak reference
        data = np.asarray(data)
        out.node = Node(tuple(map(_grad_key, parents)), backward_fn,
                        weakref.ref(data))
        _ACTIVE_TAPE.nodes.append(out.node)
    out.data = data
    return out


def _accumulate(grads: dict, key, grad: np.ndarray) -> None:
    acc = grads.get(key)
    grads[key] = grad if acc is None else acc + grad


def _walk(nodes: list, grads: dict) -> None:
    """Pop each record of `nodes` from the last, run its backward on its
    gradient in `grads` and add the results to its parents' gradients
    there; then drop its parents and closure, so what only it held is
    freed."""
    while nodes:
        node = nodes.pop()
        grad = grads.pop(node, None)
        if grad is not None:
            for key, parent_grad in zip(node.parents, node.backward_fn(grad)):
                _accumulate(grads, key, parent_grad)
        node.parents = ()
        node.backward_fn = None


_WALK_GRADS: dict | None = None  # the gradient map of the running backward


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse accumulation from a scalar loss, consuming the tape.

    Walks the tape from its last record (`_walk`). Returns a map from leaf
    tensor (parameter, input or constant, i.e. not on the tape) to its
    gradient; a leaf appears once some recorded op touches it. A second
    call on the same tape raises ContractError.
    """
    global _WALK_GRADS
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ContractError("tape already consumed by backward")
    tape.consumed = True
    grads: dict = {_grad_key(loss): np.ones_like(loss.data)}
    _WALK_GRADS = grads
    try:
        _walk(tape.nodes, grads)
    finally:
        _WALK_GRADS = None
    return grads


def recompute(fn) -> Tensor:
    """fn(), a segment of ops recorded as one node that saves no array.

    Off the tape it is a plain call. On the tape, fn() runs untaped and
    one node with no parents records its output; the node's closure
    keeps only fn. Its backward re-runs fn() onto a segment tape and
    walks that with the running backward's gradient map, so the
    segment's inputs get the gradients, summed in the same order, that
    recording fn's ops directly would give them. fn must read its
    inputs through what it is bound to (a `functools.partial`), not
    through names the caller rebinds after the call, and must give the
    same bits on each call."""
    if _ACTIVE_TAPE is None:
        return fn()
    with no_record():
        out = fn()

    def bwd(g):
        segment = Tape()
        with _recording(segment):
            end = fn()
        _accumulate(_WALK_GRADS, _grad_key(end), g)
        _walk(segment.nodes, _WALK_GRADS)
        return ()

    return _make(out.data, (), bwd)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, which broadcasting extended by leading
    axes only (a bias or gain over the trailing axes)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    return grad


def _mul_into(a: np.ndarray, b) -> np.ndarray:
    """a * b, written into a unless b widens its dtype. IEEE products
    commute, so this is also b * a bit for bit."""
    if np.result_type(a, b) != a.dtype:
        return a * b
    a *= b
    return a


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    return _make(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape),
                                             _unbroadcast(g * ad, bd.shape)))


def scale(a: Tensor, factor: float) -> Tensor:
    return _make(a.data * factor, (a,), lambda g: (g * factor,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return (_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape),
                _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make(ad @ bd, (a, b), bwd)


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
    weights = table.data

    def bwd(g):
        gt = np.zeros_like(weights)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(weights[ids], (table,), bwd)


# ---------------------------------------------------------------------------
# fused neural-net ops


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / rms(x) * gain over the last axis of x seen in gain's shape.

    A (h,) gain normalises whole rows; an (H, d) gain normalises each of
    the H heads of a (..., H*d) projection in place of a head split."""
    shape, gd = x.data.shape, gain.data
    xs = x.data.reshape(shape[:-1] + gd.shape)
    inv = 1.0 / np.sqrt(np.square(xs).sum(axis=-1, keepdims=True)
                        / xs.shape[-1] + eps)

    def bwd(g):
        g = g.reshape(xs.shape)
        u = g * gd
        gx = inv * u - xs * inv ** 3 * np.mean(xs * u, axis=-1, keepdims=True)
        return gx.reshape(shape), _unbroadcast(g * xs * inv, gd.shape)

    return _make(_mul_into(xs * inv, gd).reshape(shape), (x, gain),
                 bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) built in one array: negate, exp, +1, reciprocal.

    exp overflows to inf below about -709 and the sigmoid comes out as
    0, its limit, so the overflow is not reported."""
    sig = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    return sig


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x). Backward builds g * sig * (1 + x * (1 - sig)) in
    an array of its own, never in g."""
    xd = x.data
    sig = _sigmoid(xd)

    def bwd(g):
        dsig = 1.0 - sig
        dsig *= xd
        dsig += 1.0
        dsig *= sig
        return (_mul_into(dsig, g),)

    return _make(xd * sig, (x,), bwd)


def silu_glu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """SwiGLU feed-forward: (silu(x @ w_gate) * (x @ w_up)) @ w_down.

    The gate product is recorded before the up product, so the tape adds
    the up and then the gate product's x gradient to what x's later
    consumers gave it."""
    gated = silu(matmul(x, w_gate))
    return matmul(mul(gated, matmul(x, w_up)), w_down)


def _heads(a: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    """(B, n, H*d) -> (B, H, n, d), a view."""
    b, n, _ = a.shape
    return a.reshape(b, n, n_heads, head_dim).transpose(0, 2, 1, 3)


def _merged(a: np.ndarray) -> np.ndarray:
    """(B, H, n, d) -> (B, n, H*d); a copy unless a is a head split."""
    b, h, n, d = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def split_heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    """(B, n, H*d) -> (B, H, n, d), a view."""
    return _make(_heads(x.data, n_heads, head_dim), (x,),
                 lambda g: (_merged(g),))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, n, d) -> (B, n, H*d); no copy for `causal_attn`'s output."""
    _, h, _, d = x.data.shape
    return _make(_merged(x.data), (x,), lambda g: (_heads(g, h, d),))


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


def _rope(a: np.ndarray, cos: np.ndarray, sin: np.ndarray,
          transpose: bool = False) -> np.ndarray:
    """Rotary position embedding of a (B, n, H*d) array, per head, or
    with `transpose` its backward: a*cos + swap_halves(a)*sin, or
    a*cos + swap_halves(a*sin), with swap_halves a view that exchanges
    the two halves of each head. See `rope_rotate`."""
    b, n = a.shape[:2]
    half = cos.shape[-1] // 2
    cos, sin = (t.reshape(n, 1, 2, half) for t in (cos, sin))
    pairs = a.reshape(b, n, -1, 2, half)
    swapped = ((pairs * sin)[..., ::-1, :] if transpose
               else pairs[..., ::-1, :] * sin)
    out = pairs * cos
    out += swapped
    return out.reshape(a.shape)


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position embedding on a (B, n, H*d) projection, per head.

    `cos` and `sin` are (n, 1, d) tables holding [cos, cos] and
    [-sin, sin] (see `model.rope_tables`). The rotation is
    x*cos + swap_halves(x)*sin and its backward g*cos + swap_halves(g*sin).
    Both equal the textbook [x1 cos - x2 sin, x1 sin + x2 cos] and its
    transpose bit for bit: a - b is a + (-b) in IEEE arithmetic, and
    addition commutes."""
    return _make(_rope(x.data, cos, sin), (x,),
                 lambda g: (_rope(g, cos, sin, transpose=True),))


@functools.cache
def _causal_masks(n: int) -> tuple:
    """(future, kept) boolean (n, n) masks: strictly above the diagonal,
    and its complement."""
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    return future, ~future


def _causal_softmax(q5: np.ndarray, kt: np.ndarray,
                    att_scale: float) -> np.ndarray:
    """Causal softmax(q5 kᵀ · scale) over the last axis.

    The scores are scaled where they land, unless the scale promotes them
    (a float32 q with an np.float64 scale), in which case the scaled copy
    takes their place. The future entries are filled with -inf and the
    row maximum is `fmax`'s, the faster reduction: it differs from `max`
    only by skipping NaN, and a row holding a NaN score is NaN either
    way, through its sum. exp writes the kept entries only, into a fresh
    zeroed array, and the division runs in place."""
    future, kept = _causal_masks(q5.shape[-2])
    scores = _mul_into(q5 @ kt, att_scale)
    np.copyto(scores, -np.inf, where=future)
    scores -= np.fmax.reduce(scores, axis=-1, keepdims=True)
    attn = np.zeros(scores.shape, scores.dtype)
    np.exp(scores, out=attn, where=kept)
    attn /= attn.sum(axis=-1, keepdims=True)
    return attn


def causal_attn(q: Tensor, k: Tensor, v: Tensor, att_scale: float) -> Tensor:
    """softmax(q kᵀ · scale + causal mask) v with grouped-query heads.

    q is (B, H, n, d); k and v are (B, Hk, n, d) with H a multiple of Hk,
    and query head i reads kv head i // (H / Hk). The kv heads are
    broadcast over their query group, never copied; backward sums each
    group's kv gradient over the group axis. The softmax runs in place
    (`_causal_softmax`), and backward keeps its probabilities. Both
    products stay whole (n, n) products, so they round alike on any BLAS.
    attn·v is written through a strided view into a (B, n, H*d) array,
    so the output is a head split of that array and `merge_heads` of it
    is a reshape without a copy."""
    qd, kd, vd = q.data, k.data, v.data
    b, h, n, d = qd.shape
    hk = kd.shape[1]
    if h % hk or kd.shape != vd.shape:
        raise ShapeError(f"query heads {qd.shape} do not group over "
                         f"kv heads {kd.shape}, {vd.shape}")
    q5 = qd.reshape(b, hk, h // hk, n, d)
    k5, v5 = kd[:, :, None], vd[:, :, None]
    attn = _causal_softmax(q5, np.swapaxes(k5, -1, -2), att_scale)
    merged = np.empty((b, n, h * d), np.result_type(attn, v5))
    np.matmul(attn, v5, out=merged.reshape(b, n, hk, h // hk, d)
              .transpose(0, 2, 3, 1, 4))

    def bwd(g):
        g5 = g.reshape(q5.shape)
        gv = (np.swapaxes(attn, -1, -2) @ g5).sum(axis=2)
        d_scores = g5 @ np.swapaxes(v5, -1, -2)
        d_scores = d_scores.astype(np.result_type(d_scores, attn), copy=False)
        d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= att_scale
        gq = (d_scores @ k5).reshape(qd.shape)
        gk = (np.swapaxes(d_scores, -1, -2) @ q5).sum(axis=2)
        return gq, gk, gv

    return _make(_heads(merged, h, d), (q, k, v), bwd)


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

