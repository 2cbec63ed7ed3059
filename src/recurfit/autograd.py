"""Dense-tensor numerics with a reverse-mode tape.

numpy holds the values; each op appends a :class:`Node` to the active
:class:`Tape`: the gradient keys of its parents and a backward closure.
Ops take :class:`Tensor` operands only; a constant is a Tensor leaf.
There is deliberately no autograd graph without a tape: calling ops
outside a ``with Tape()`` block, or inside a ``with no_record()`` block,
is plain (and faster) numpy. Fused ops (rms_norm, causal_attn,
cross_entropy_mean, ...) keep the op count per transformer block small
enough that finite-difference sweeps over every parameter stay cheap.

The tape holds the graph, not the values. A record refers to its
output only weakly, and each backward closure captures exactly the
arrays and shapes it reads, never a Tensor; so an op output that no
backward reads (a projection that only feeds RoPE, a product that only
feeds a residual add, the logits) is freed as soon as the model code
drops it. `backward` consumes its tape: it unlinks each record once its
backward has run, so the arrays its closure saved and its gradient are
freed as the walk goes, and it returns the gradients of leaves only
(parameters, inputs, constants).

The fused ops keep the bits of their textbook formulas while making
fewer passes: the attention softmax runs in place on whole (n, n)
products (row blocks of a product can round differently on OpenBLAS),
and RoPE adds a half-swapped view instead of concatenating halves. Each
op allocates the arrays it makes, the same way on and off the tape; the
cached causal masks are the only state an op keeps between calls.
Backward recomputes what is cheap to rebuild instead of keeping it:
attention saves its row maximum and row sum and rebuilds the (n, n)
probabilities from them, and the SwiGLU feed-forward keeps only its
input and rebuilds gate, up, sigmoid(gate) and their product from it,
each through the helper its forward ran, so bit for bit.

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
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

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


def _mul_into(a: np.ndarray, b) -> np.ndarray:
    """a * b, written into a unless b widens its dtype. IEEE products
    commute, so this is also b * a bit for bit."""
    if np.result_type(a, b) != a.dtype:
        return a * b
    a *= b
    return a


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / rms(x) * gain over the last axis of x seen in gain's shape.

    A (h,) gain normalises whole rows; an (H, d) gain normalises each of
    the H heads of a (..., H*d) projection in place of a head split."""
    shape, gd = x.data.shape, gain.data
    xs = x.data.reshape(shape[:-1] + gd.shape)
    width = xs.shape[-1]
    inv = 1.0 / np.sqrt(np.square(xs).sum(axis=-1, keepdims=True) / width
                        + eps)
    data = _mul_into(xs * inv, gd).reshape(shape)

    def bwd(g):
        g = g.reshape(xs.shape)
        u = g * gd
        gx = inv * u - xs * inv ** 3 * np.mean(xs * u, axis=-1,
                                               keepdims=True)
        ggain = _unbroadcast(g * xs * inv, gd.shape)
        return gx.reshape(shape), ggain

    return _make(data, (x, gain), bwd)


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


def silu_glu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """SwiGLU feed-forward: (silu(x @ w_gate) * (x @ w_up)) @ w_down.

    Backward saves only x, which is live anyway. It rebuilds gate, up and
    sigmoid(gate) through the forward's own `_swiglu_gates`, so bit for
    bit, then runs the gradient expressions of the unfused matmul,
    silu(gate) * up, matmul chain. Products go into an operand that is no
    longer read (`_mul_into`), and backward drops each array after its
    last use, so neither holds more than a few arrays of the hidden width
    at a time. x is a parent twice, once per product, so the tape adds
    the up and then the gate product's x gradient to what x's later
    consumers gave it, in the order it added the two products'
    gradients."""
    xd, wg, wu, wd = x.data, w_gate.data, w_up.data, w_down.data

    def bwd(g):
        gate, up, sig = _swiglu_gates(xd, wg, wu)
        silu = gate * sig
        dsig = 1.0 - sig
        dsig *= gate
        dsig += 1.0
        dsig *= sig                      # sig * (1 + gate * (1 - sig))
        del gate, sig
        gwd = _unbroadcast(np.swapaxes(silu * up, -1, -2) @ g, wd.shape)
        gh = g @ np.swapaxes(wd, -1, -2)
        g_gate = _mul_into(_mul_into(up, gh), dsig)
        del up, dsig
        g_up = _mul_into(silu, gh)
        del silu, gh
        xt = np.swapaxes(xd, -1, -2)
        return (g_up @ np.swapaxes(wu, -1, -2),
                g_gate @ np.swapaxes(wg, -1, -2),
                _unbroadcast(xt @ g_gate, wg.shape),
                _unbroadcast(xt @ g_up, wu.shape), gwd)

    gate, up, sig = _swiglu_gates(xd, wg, wu)
    hidden = _mul_into(_mul_into(sig, gate), up)
    return _make(hidden @ wd, (x, x, w_gate, w_up, w_down), bwd)


def split_heads(x: Tensor, n_heads: int, head_dim: int) -> Tensor:
    """(B, n, H*d) -> (B, H, n, d)."""
    b, n, _ = x.data.shape
    data = x.data.reshape(b, n, n_heads, head_dim).transpose(0, 2, 1, 3)
    return _make(data, (x,),
                 lambda g: (g.transpose(0, 2, 1, 3).reshape(b, n, -1),))


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, n, d) -> (B, n, H*d); no copy for `causal_attn`'s output."""
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
    """Rotary position embedding on a (B, n, H*d) projection, per head.

    `cos` and `sin` are (n, 1, d) tables holding [cos, cos] and
    [-sin, sin] (see `model.rope_tables`). The rotation is
    x*cos + swap_halves(x)*sin and its backward g*cos + swap_halves(g*sin),
    with swap_halves a view that exchanges the two halves of each head.
    Both equal the textbook [x1 cos - x2 sin, x1 sin + x2 cos] and its
    transpose bit for bit: a - b is a + (-b) in IEEE arithmetic, and
    addition commutes."""
    shape = x.data.shape
    b, n = shape[:2]
    width = cos.shape[-1]
    pairs = (b, n, -1, 2, width // 2)
    cos, sin = (t.reshape(n, 1, 2, width // 2) for t in (cos, sin))

    def rotate(a, swapped_term):
        out = a * cos
        out += swapped_term
        return out.reshape(shape)

    xs = x.data.reshape(pairs)
    data = rotate(xs, xs[..., ::-1, :] * sin)

    def bwd(g):
        gs = g.reshape(pairs)
        return (rotate(gs, (gs * sin)[..., ::-1, :]),)

    return _make(data, (x,), bwd)


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
    scores = _mul_into(q5 @ kt, att_scale)
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


def causal_attn(q: Tensor, k: Tensor, v: Tensor, att_scale: float) -> Tensor:
    """softmax(q kᵀ · scale + causal mask) v with grouped-query heads.

    q is (B, H, n, d); k and v are (B, Hk, n, d) with H a multiple of Hk,
    and query head i reads kv head i // (H / Hk). The kv heads are
    broadcast over their query group, never copied; backward sums each
    group's kv gradient over the group axis.

    The softmax runs in place (`_causal_softmax`). Backward keeps no
    (n, n) array: it saves the (B, Hk, g, n, 1) row maximum and row sum
    and rebuilds the probabilities from them and from q, k and v, which
    it holds anyway, with the forward's own ufunc calls, so bit for bit.
    Both products stay whole (n, n) products, so they round as before on
    any BLAS. attn·v is written through a strided view into a (B, n, H*d)
    array, so the output is a head split of that array and `merge_heads`
    of it is a reshape without a copy.
    """
    b, h, n, d = q.data.shape
    hk = k.data.shape[1]
    if h % hk or k.data.shape != v.data.shape:
        raise ShapeError(f"query heads {q.data.shape} do not group over "
                         f"kv heads {k.data.shape}, {v.data.shape}")
    groups = h // hk
    q5 = q.data.reshape(b, hk, groups, n, d)
    k5, v5 = k.data[:, :, None], v.data[:, :, None]
    kt = np.swapaxes(k5, -1, -2)
    attn, stats = _causal_softmax(q5, kt, att_scale)
    merged = np.empty((b, n, h * d), np.result_type(attn, v5))
    np.matmul(attn, v5, out=merged.reshape(b, n, hk, groups, d)
              .transpose(0, 2, 3, 1, 4))
    data = merged.reshape(b, n, h, d).transpose(0, 2, 1, 3)

    def bwd(g):
        attn = _causal_softmax(q5, kt, att_scale, stats)[0]
        g5 = g.reshape(b, hk, groups, n, d)
        gv = (np.swapaxes(attn, -1, -2) @ g5).sum(axis=2)
        d_scores = g5 @ np.swapaxes(v5, -1, -2)
        d_scores = d_scores.astype(np.result_type(d_scores, attn),
                                   copy=False)
        d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
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

