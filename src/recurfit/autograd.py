"""Dense-tensor numerics with a reverse-mode tape.

numpy holds the values; each op appends a :class:`Node` to the active
:class:`Tape`: the gradient keys of its parents and a backward closure.
Ops take :class:`Tensor` operands only; a constant is a Tensor leaf.
There is deliberately no autograd graph without a tape: calling ops
outside a ``with Tape()`` block, or inside a ``with no_record()`` block,
is plain (and faster) numpy. Fused ops (causal_attn, silu_glu,
rms_norm, cross_entropy_mean, ...) keep the op count per transformer
block small enough that finite-difference sweeps over every parameter
stay cheap: a pre-norm block records 4 nodes.

The tape holds the graph, not the values. A record refers to its
output only weakly, and each backward closure captures exactly the
arrays and shapes it reads, never a Tensor; so an op output that no
backward reads (a sublayer's output that only feeds a residual add, the
logits) is freed as soon as the model code drops it. `backward` consumes
its tape: it unlinks each record once its backward has run, so the
arrays its closure saved and its gradient are freed as the walk goes,
and it returns the gradients of leaves only (parameters, inputs,
constants).

The fused ops keep the bits of their textbook formulas while making
fewer passes: the attention softmax runs in place on whole (n, n)
products (row blocks of a product can round differently on OpenBLAS),
and RoPE adds a half-swapped view instead of concatenating halves. Each
op allocates the arrays it makes, the same way on and off the tape; the
cached causal masks are the only state an op keeps between calls.
Backward recomputes what is cheap to rebuild instead of keeping it. The
attention sublayer (`causal_attn`: pre-norm, q/k/v projections,
QK-norm, RoPE, attention, output projection) keeps only its input and
row statistics: the norms' inverse rms and the softmax's row max and
sum. The SwiGLU feed-forward (`silu_glu`, with its pre-norm) keeps its
input and the norm's inverse rms. Backward rebuilds the normed input,
the projections, the rotated heads, the (n, n) probabilities, attn·v,
and gate, up, sigmoid(gate) and their product, each through the helper
its forward ran, so bit for bit, and runs the unfused chain's gradient
expressions on the same operand layouts, summing shared parents in the
tape's order.

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


def backward(loss: Tensor, tape: Tape) -> dict:
    """Reverse accumulation from a scalar loss, consuming the tape.

    Walks the tape from its last record, popping each record and its
    gradient; after a record's backward has run, its parents and closure
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
    grads: dict = {_grad_key(loss): np.ones_like(loss.data)}
    while nodes:
        node = nodes.pop()
        grad = grads.pop(node, None)
        if grad is not None:
            parent_grads = node.backward_fn(grad)
            for key, pg in zip(node.parents, parent_grads):
                acc = grads.get(key)
                grads[key] = pg if acc is None else acc + pg
        node.parents = ()
        node.backward_fn = None
    return grads


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, which broadcasting extended by leading
    axes only (a bias or gain over the trailing axes)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    return grad


def _into(ufunc, a: np.ndarray, b) -> np.ndarray:
    """ufunc(a, b), written into a unless b widens its dtype. IEEE sums
    and products commute, so for add and multiply this is also ufunc(b, a)
    bit for bit."""
    if np.result_type(a, b) != a.dtype:
        return ufunc(a, b)
    return ufunc(a, b, out=a)


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


def _matmul_grads(ad: np.ndarray, bd: np.ndarray, g: np.ndarray) -> tuple:
    """Gradients of ad @ bd for output gradient g."""
    return (_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape),
            _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data
    return _make(ad @ bd, (a, b), lambda g: _matmul_grads(ad, bd, g))


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


def _rms_norm(xd: np.ndarray, gd: np.ndarray, eps: float,
              inv: np.ndarray | None = None) -> tuple:
    """(xd / rms(xd) * gd, 1 / rms(xd)) over the last axis of xd seen in
    gd's shape. Given the inverse rms of an earlier call on xd, it skips
    the reduction and returns that call's bits."""
    xs = xd.reshape(xd.shape[:-1] + gd.shape)
    if inv is None:
        inv = 1.0 / np.sqrt(np.square(xs).sum(axis=-1, keepdims=True)
                            / xs.shape[-1] + eps)
    return _into(np.multiply, xs * inv, gd).reshape(xd.shape), inv


def _rms_norm_grads(g: np.ndarray, xd: np.ndarray, gd: np.ndarray,
                    inv: np.ndarray) -> tuple:
    """(x, gain) gradients of `_rms_norm(xd, gd, ...)` for output
    gradient g."""
    xs = xd.reshape(xd.shape[:-1] + gd.shape)
    g = g.reshape(xs.shape)
    u = g * gd
    gx = inv * u - xs * inv ** 3 * np.mean(xs * u, axis=-1, keepdims=True)
    return gx.reshape(xd.shape), _unbroadcast(g * xs * inv, gd.shape)


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / rms(x) * gain over the last axis of x seen in gain's shape.

    A (h,) gain normalises whole rows; an (H, d) gain normalises each of
    the H heads of a (..., H*d) projection in place of a head split."""
    xd, gd = x.data, gain.data
    data, inv = _rms_norm(xd, gd, eps)
    return _make(data, (x, gain), lambda g: _rms_norm_grads(g, xd, gd, inv))


def _pre_normed(xd: np.ndarray, gd, eps, inv=None) -> tuple:
    """(a sublayer's normed input, its inverse rms): xd and None if the
    sublayer has no pre-norm gain gd."""
    return (xd, None) if gd is None else _rms_norm(xd, gd, eps, inv)


def _input_grads(parts: tuple, xd: np.ndarray, gd, inv) -> tuple:
    """Gradients for a sublayer op's input parents, from the parts of
    its normed input's gradient in the order the unfused chain's tape
    added them. Without a pre-norm, the parts themselves, one per x
    parent, so the tape adds them to x's gradient in that order. With
    one, the tape's sum of the parts taken through the norm's backward:
    the (x, gain) gradients."""
    if gd is None:
        return parts
    total = parts[0]
    for part in parts[1:]:
        total = _into(np.add, total, part)
    return _rms_norm_grads(total, xd, gd, inv)


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


def _swiglu_gates(xd, wg, wu) -> tuple:
    """(gate, up, sigmoid(gate)) of the SwiGLU feed-forward on xd, by the
    same expressions in forward and backward."""
    gate = xd @ wg
    return gate, xd @ wu, _sigmoid(gate)


def silu_glu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor, *,
             norm: Tensor | None = None, eps: float | None = None) -> Tensor:
    """SwiGLU feed-forward: (silu(a @ w_gate) * (a @ w_up)) @ w_down, on
    a = rms_norm(x, norm, eps) given a pre-norm gain, else on a = x.

    Backward saves only x, which is live anyway, and the norm's (..., 1)
    inverse rms. It rebuilds a, gate, up and sigmoid(gate) through the
    forward's own helpers, so bit for bit, then runs the gradient
    expressions of the unfused norm, matmul, silu(gate) * up, matmul
    chain. Products go into an operand that is no longer read (`_into`),
    and backward drops each array after its last use, so neither holds
    more than a few arrays of the hidden width at a time. a's gradient is
    the up and then the gate product's part, summed as the tape summed
    them (`_input_grads`)."""
    xd, wg, wu, wd = x.data, w_gate.data, w_up.data, w_down.data
    gd = None if norm is None else norm.data

    def bwd(g):
        a = _pre_normed(xd, gd, eps, inv)[0]
        gate, up, sig = _swiglu_gates(a, wg, wu)
        silu = gate * sig
        dsig = 1.0 - sig
        dsig *= gate
        dsig += 1.0
        dsig *= sig                      # sig * (1 + gate * (1 - sig))
        del gate, sig
        gwd = _unbroadcast(np.swapaxes(silu * up, -1, -2) @ g, wd.shape)
        gh = g @ np.swapaxes(wd, -1, -2)
        g_gate = _into(np.multiply, _into(np.multiply, up, gh), dsig)
        del up, dsig
        g_up = _into(np.multiply, silu, gh)
        del silu, gh
        ga_up, gwu = _matmul_grads(a, wu, g_up)
        del g_up
        ga_gate, gwg = _matmul_grads(a, wg, g_gate)
        del a, g_gate
        return (*_input_grads((ga_up, ga_gate), xd, gd, inv), gwg, gwu, gwd)

    a, inv = _pre_normed(xd, gd, eps)
    gate, up, sig = _swiglu_gates(a, wg, wu)
    del a
    hidden = _into(np.multiply, _into(np.multiply, sig, gate), up)
    del gate, up
    parents = (x, x) if norm is None else (x, norm)
    return _make(hidden @ wd, (*parents, w_gate, w_up, w_down), bwd)


def _heads(a: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    """(B, n, H*d) -> (B, H, n, d), a view."""
    b, n, _ = a.shape
    return a.reshape(b, n, n_heads, head_dim).transpose(0, 2, 1, 3)


def _merged(a: np.ndarray) -> np.ndarray:
    """(B, H, n, d) -> (B, n, H*d); a copy unless a is a head split."""
    b, h, n, d = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def split_heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    """(B, n, H*d) -> (B, H, n, d).

    The model no longer calls it: `causal_attn` runs the same helper.
    Kept because `bench/tracer.py` wraps every name in its op list, and
    the tests build the unfused attention sublayer from it."""
    return _make(_heads(x.data, n_heads, head_dim), (x,),
                 lambda g: (_merged(g),))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, n, d) -> (B, n, H*d); no copy for a head split.

    The model no longer calls it: `causal_attn` runs the same helper.
    Kept because `bench/tracer.py` wraps every name in its op list, and
    the tests build the unfused attention sublayer from it."""
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
    addition commutes.

    The model no longer calls it: `causal_attn` runs the same helper.
    Kept because `bench/tracer.py` wraps every name in its op list, and
    the tests build the unfused attention sublayer from it."""
    return _make(_rope(x.data, cos, sin), (x,),
                 lambda g: (_rope(g, cos, sin, transpose=True),))


@functools.cache
def _causal_masks(n: int) -> tuple:
    """(future, kept) boolean (n, n) masks: strictly above the diagonal,
    and its complement."""
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    return future, ~future


def _causal_softmax(q5: np.ndarray, kt: np.ndarray, att_scale: float,
                    stats: tuple | None = None) -> tuple:
    """Causal softmax(q5 kᵀ · scale) over the last axis, and its
    (row max, row sum).

    The scores are scaled where they land, unless the scale promotes them
    (a float32 q with an np.float64 scale), in which case the scaled copy
    takes their place. exp writes the kept entries only, into a fresh
    zeroed array, and the division runs in place. Without `stats`, the
    future entries are filled with -inf and the row maximum is `fmax`'s,
    the faster reduction: it differs from `max` only by skipping NaN, and
    a row holding a NaN score is NaN either way, through its sum. Given
    the stats of an earlier call on the same operands, it runs the same
    ufuncs on the kept entries with the saved max and sum, so it returns
    the same bits."""
    future, kept = _causal_masks(q5.shape[-2])
    scores = _into(np.multiply, q5 @ kt, att_scale)
    if stats is None:
        np.copyto(scores, -np.inf, where=future)
        row_max = np.fmax.reduce(scores, axis=-1, keepdims=True)
    else:
        row_max, sums = stats
    scores -= row_max
    attn = np.zeros(scores.shape, scores.dtype)
    np.exp(scores, out=attn, where=kept)
    if stats is None:
        sums = attn.sum(axis=-1, keepdims=True)
    attn /= sums
    return attn, (row_max, sums)


def _grouped(q, k, v) -> tuple:
    """(B, H, n, d) q as (B, Hk, g, n, d), and (B, Hk, n, d) k and v
    broadcast over the group axis."""
    b, h, n, d = q.shape
    hk = k.shape[1]
    if h % hk or k.shape != v.shape:
        raise ShapeError(f"query heads {q.shape} do not group over "
                         f"kv heads {k.shape}, {v.shape}")
    return q.reshape(b, hk, h // hk, n, d), k[:, :, None], v[:, :, None]


def _attention(q, k, v, att_scale: float, stats: tuple | None = None) -> tuple:
    """Grouped causal attention softmax(q kᵀ · scale + mask) v on head
    splits: (output as (B, n, H*d), probabilities, (row max, row sum)).

    q is (B, H, n, d); k and v are (B, Hk, n, d) with H a multiple of Hk,
    and query head i reads kv head i // (H / Hk). The kv heads are
    broadcast over their query group, never copied. The softmax runs in
    place (`_causal_softmax`); given the stats of an earlier call, it
    rebuilds that call's probabilities and output bit for bit. Both
    products stay whole (n, n) products, so they round alike on any BLAS.
    attn·v is written through a strided view into a (B, n, H*d) array,
    the layout the output projection reads."""
    q5, k5, v5 = _grouped(q, k, v)
    b, hk, groups, n, d = q5.shape
    attn, stats = _causal_softmax(q5, np.swapaxes(k5, -1, -2), att_scale,
                                  stats)
    merged = np.empty((b, n, hk * groups * d), np.result_type(attn, v5))
    np.matmul(attn, v5, out=merged.reshape(b, n, hk, groups, d)
              .transpose(0, 2, 3, 1, 4))
    return merged, attn, stats


def _attention_grads(g, attn, q, k, v, att_scale: float) -> tuple:
    """(q, k, v) gradients of `_attention` for a (B, H, n, d) output
    gradient g and the probabilities it returned; each kv gradient is
    summed over its query group."""
    q5, k5, v5 = _grouped(q, k, v)
    g5 = g.reshape(q5.shape)
    gv = (np.swapaxes(attn, -1, -2) @ g5).sum(axis=2)
    d_scores = g5 @ np.swapaxes(v5, -1, -2)
    d_scores = d_scores.astype(np.result_type(d_scores, attn), copy=False)
    d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
    d_scores *= attn
    d_scores *= att_scale
    gq = (d_scores @ k5).reshape(q.shape)
    gk = (np.swapaxes(d_scores, -1, -2) @ q5).sum(axis=2)
    return gq, gk, gv


def _rotated(a, w, gain, eps, rope: tuple, inv=None) -> tuple:
    """(RoPE of the QK-norm of a @ w; the projection a @ w, which the
    norm's backward reads, or None without a QK-norm gain; the norm's
    inverse rms)."""
    proj = a @ w
    if gain is None:
        return _rope(proj, *rope), None, None
    normed, inv = _rms_norm(proj, gain, eps, inv)
    return _rope(normed, *rope), proj, inv


def _rotated_grads(g_heads, a, w, proj, gain, inv, rope: tuple) -> tuple:
    """(a's part of the gradient, w's gradient, and in a tuple the QK-norm
    gain's, as the (h,) gain reshaped to (H, d) got it, or ()) of
    `_rotated` for the gradient of its rotated projection's head split."""
    g_proj = _rope(_merged(g_heads), *rope, transpose=True)
    if gain is None:
        return (*_matmul_grads(a, w, g_proj), ())
    g_proj, g_gain = _rms_norm_grads(g_proj, proj, gain, inv)
    return (*_matmul_grads(a, w, g_proj), (g_gain.reshape(-1),))


def _sublayer_inputs(xd, ws: tuple, gains: tuple, rope: tuple, eps,
                     invs: tuple = (None,) * 3) -> tuple:
    """`causal_attn` up to attention: (the normed input a; the q, k, v
    head splits; the q and k projections (see `_rotated`); the inverse
    rms of the pre-norm and of q's and k's QK-norm). Given the inverses
    of an earlier call, it returns that call's bits."""
    d = rope[0].shape[-1]
    a, inv = _pre_normed(xd, gains[0], eps, invs[0])
    q, q_proj, q_inv = _rotated(a, ws[0], gains[1], eps, rope, invs[1])
    k, k_proj, k_inv = _rotated(a, ws[1], gains[2], eps, rope, invs[2])
    heads = [_heads(t, t.shape[-1] // d, d) for t in (q, k, a @ ws[2])]
    return a, heads, (q_proj, k_proj), (inv, q_inv, k_inv)


def causal_attn(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                rope: tuple, att_scale: float, *, norm: Tensor | None = None,
                qk_gains: tuple | None = None,
                eps: float | None = None) -> Tensor:
    """The attention sublayer on (B, n, h) x as one op: a =
    rms_norm(x, norm, eps) given a pre-norm gain (else a = x); the q, k, v
    projections of a; given (q_gain, k_gain), an rms norm of each head of
    q and k; RoPE on q and k from the (cos, sin) tables `rope` (see
    `rope_rotate`); grouped causal attention with scale `att_scale`
    (`_attention`); and the wo projection. Head counts follow from the
    weight widths and the head dim of the tables.

    Backward saves only x, which is live anyway, the norms' inverse rms
    and the softmax's row max and row sum. It rebuilds a, the
    projections, the rotated heads, the probabilities and attn·v through
    the forward's own helpers, so bit for bit, then runs the gradient
    expressions of the unfused norm, matmul, head norm, RoPE, head split,
    attention, head merge, matmul chain on the same operand layouts (each
    head gradient is copied to a contiguous (B, n, H*d) array as the head
    split's backward did). a's gradient is the v, then the k, then the q
    projection's part, summed as the tape summed them (`_input_grads`).
    """
    xd, d = x.data, rope[0].shape[-1]
    ws = tuple(w.data for w in (wq, wk, wv, wo))
    gains = (None if norm is None else norm.data,
             *((None, None) if qk_gains is None
               else (t.data.reshape(-1, d) for t in qk_gains)))

    def bwd(g):
        a, (q, k, v), projs, _ = _sublayer_inputs(xd, ws, gains, rope, eps,
                                                  invs)
        merged, attn, _ = _attention(q, k, v, att_scale, stats)
        g_merged, gwo = _matmul_grads(merged, ws[3], g)
        del merged
        gq, gk, gv = _attention_grads(_heads(g_merged, q.shape[1], d), attn,
                                      q, k, v, att_scale)
        del g_merged, attn, q, k, v
        ga_v, gwv = _matmul_grads(a, ws[2], _merged(gv))
        del gv
        ga_k, gwk, gk_gain = _rotated_grads(gk, a, ws[1], projs[1], gains[2],
                                            invs[2], rope)
        del gk
        ga_q, gwq, gq_gain = _rotated_grads(gq, a, ws[0], projs[0], gains[1],
                                            invs[1], rope)
        del gq, projs, a
        return (*_input_grads((ga_v, ga_k, ga_q), xd, gains[0], invs[0]),
                gwq, gwk, gwv, gwo, *gq_gain, *gk_gain)

    a, heads, projs, invs = _sublayer_inputs(xd, ws, gains, rope, eps)
    del a, projs
    merged, attn, stats = _attention(*heads, att_scale)
    del attn, heads
    parents = (x, x, x) if norm is None else (x, norm)
    return _make(merged @ ws[3], (*parents, wq, wk, wv, wo, *(qk_gains or ())),
                 bwd)


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

