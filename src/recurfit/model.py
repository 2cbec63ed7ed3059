"""Decoder-only transformer blocks and the two model forms.

The fixed-depth model is a plain llama-style stack. The recurrent model
splits the stack into a prelude, a weight-shared recurrent block entered
through a bias-free 2h->h adapter, and a coda; the prelude output is
injected into every recurrent iteration. Under truncated backprop only
the last w of r iterations are recorded on the tape: the iterations
before them run untaped, since no gradient reaches them. For evaluation,
`recurrence_sweep` runs the recurrence once up to the largest requested
count and reads out logits at each requested count on the way.

This module owns the parameter layout: `block_shapes(cfg)` and
`outer_shapes(cfg)` give every tensor's name and shape, `assemble` builds
a model from them, `segments()` names its block sections, and `params()`
lists every tensor in checkpoint order (embed, sections with the adapter
before the recurrent block, final_norm, unembed).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, InputError
from .fields import bounded, check
from .random import RandomStream


@dataclass
class ModelConfig:
    vocab_size: int = bounded(1)
    hidden: int = bounded(1)
    n_query_heads: int = bounded(1)
    n_kv_heads: int = bounded(1)
    head_dim: int = bounded(1)
    ffn_width: int = bounded(1)
    context_length: int = bounded(1, default=1024)
    rope_base: float = bounded(above=0, default=10000.0)
    norm_eps: float = bounded(above=0, default=1e-5)
    sigma_s0: float = bounded(0, default=0.02)
    tie_embeddings: bool = False
    qk_norm: bool = False
    post_norm: bool = False

    def __post_init__(self):
        check(self)
        if self.hidden != self.n_query_heads * self.head_dim:
            raise ContractError(
                f"hidden ({self.hidden}) must equal n_query_heads*head_dim "
                f"({self.n_query_heads}x{self.head_dim})")
        if self.n_query_heads % self.n_kv_heads != 0:
            raise ContractError("n_query_heads must be divisible by n_kv_heads")
        if self.head_dim % 2:
            raise ContractError(f"head_dim ({self.head_dim}) must be even: "
                                "RoPE rotates pairs of halves")

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim


def block_shapes(cfg: ModelConfig) -> dict:
    """name -> shape of one block's tensors, in parameter order."""
    h, kv, ffn = cfg.hidden, cfg.kv_dim, cfg.ffn_width
    shapes = {"wq": (h, h), "wk": (h, kv), "wv": (h, kv), "wo": (h, h),
              "w_gate": (h, ffn), "w_up": (h, ffn), "w_down": (ffn, h),
              "g_attn": (h,), "g_mlp": (h,)}
    if cfg.qk_norm:
        shapes.update(q_gain=(h,), k_gain=(kv,))
    return shapes


def outer_shapes(cfg: ModelConfig) -> dict:
    """name -> shape of the tensors around the blocks; the adapter is
    the recurrent model's only."""
    h = cfg.hidden
    shapes = {"embed": (cfg.vocab_size, h), "adapter": (2 * h, h),
              "final_norm": (h,)}
    if not cfg.tie_embeddings:
        shapes["unembed"] = (h, cfg.vocab_size)
    return shapes


@dataclass
class BlockWeights:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor
    g_attn: Tensor
    g_mlp: Tensor
    q_gain: Tensor | None = None
    k_gain: Tensor | None = None

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.{f}": t for f, t in vars(self).items()
                if t is not None}


@dataclass
class RecurrenceRun:
    """Recurrent passes to run, how many carry gradients, and s0's stream."""
    r: int = bounded(1)
    window: int = bounded(1)
    s0_stream: RandomStream

    def __post_init__(self):
        check(self)

    @property
    def detach_boundary(self) -> int:
        """Number of leading iterations that carry no gradients; they
        run untaped."""
        return self.r - min(self.r, self.window)


@dataclass
class FixedModel:
    embed: Tensor
    blocks: list
    final_norm: Tensor
    unembed: Tensor | None
    config: ModelConfig

    def segments(self) -> tuple:
        """(section name, blocks) pairs in forward order."""
        return (("layers", self.blocks),)

    def params(self) -> dict:
        return _named_params(self)


@dataclass
class RecurrentModel:
    embed: Tensor
    prelude: list
    adapter: Tensor
    recurrent: list
    coda: list
    final_norm: Tensor
    unembed: Tensor | None
    config: ModelConfig

    def segments(self) -> tuple:
        """(section name, blocks) pairs in forward order."""
        return (("prelude", self.prelude), ("recurrent", self.recurrent),
                ("coda", self.coda))

    def params(self) -> dict:
        return _named_params(self)


def section_counts(model) -> tuple:
    """Blocks per section: (L,) for a fixed model, (p, r, c) otherwise."""
    return tuple(len(blocks) for _, blocks in model.segments())


def _named_params(model) -> dict:
    """name -> Tensor of every weight, in the layout order."""
    out = {"embed": model.embed}
    for section, blocks in model.segments():
        if section == "recurrent":
            out["adapter"] = model.adapter
        for i, bw in enumerate(blocks):
            out.update(bw.named(f"{section}.{i}"))
    out["final_norm"] = model.final_norm
    if model.unembed is not None:
        out["unembed"] = model.unembed
    return out


@functools.cache
def rope_tables(n: int, head_dim: int, base: float, dtype) -> tuple:
    """(n, 1, head_dim) tables [cos, cos] and [-sin, sin] for
    `autograd.rope_rotate`, broadcast over the heads of a projection."""
    half = head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) / half)
    angles = np.outer(np.arange(n), inv_freq)
    cos, sin = np.cos(angles), np.sin(angles)
    return tuple(np.concatenate(pair, axis=-1).astype(dtype)[:, None]
                 for pair in ((cos, cos), (-sin, sin)))


def decoder_block(x: Tensor, bw: BlockWeights, cfg: ModelConfig) -> Tensor:
    """One pre-norm (or post-norm) residual block on (B, n, h) input.

    QK-norm and RoPE act on the contiguous (B, n, H*d) projections; the
    heads are split off after them, as strided views."""
    n = x.shape[-2]
    if n > cfg.context_length:
        raise ContractError(f"sequence length {n} exceeds context "
                            f"{cfg.context_length}")
    cos, sin = rope_tables(n, cfg.head_dim, cfg.rope_base, x.dtype)

    def rotated_heads(a_in, w, n_heads, gain):
        proj = ag.matmul(a_in, w)
        if cfg.qk_norm:
            proj = ag.rms_norm(proj, ag.reshape(gain, (n_heads, cfg.head_dim)),
                               cfg.norm_eps)
        return ag.split_heads(ag.rope_rotate(proj, cos, sin), n_heads,
                              cfg.head_dim)

    def attention(a_in):
        q = rotated_heads(a_in, bw.wq, cfg.n_query_heads, bw.q_gain)
        k = rotated_heads(a_in, bw.wk, cfg.n_kv_heads, bw.k_gain)
        v = ag.split_heads(ag.matmul(a_in, bw.wv), cfg.n_kv_heads, cfg.head_dim)
        out = ag.causal_attn(q, k, v, 1.0 / np.sqrt(cfg.head_dim))
        return ag.matmul(ag.merge_heads(out), bw.wo)

    def mlp(m_in):
        return ag.silu_glu(m_in, bw.w_gate, bw.w_up, bw.w_down)

    if cfg.post_norm:
        x = ag.add(x, ag.rms_norm(attention(x), bw.g_attn, cfg.norm_eps))
        x = ag.add(x, ag.rms_norm(mlp(x), bw.g_mlp, cfg.norm_eps))
    else:
        x = ag.add(x, attention(ag.rms_norm(x, bw.g_attn, cfg.norm_eps)))
        x = ag.add(x, mlp(ag.rms_norm(x, bw.g_mlp, cfg.norm_eps)))
    return x


def run_blocks(x: Tensor, blocks: list, cfg: ModelConfig) -> Tensor:
    for bw in blocks:
        x = decoder_block(x, bw, cfg)
    return x


def _check_tokens(tokens, cfg: ModelConfig) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.size == 0:
        raise InputError(f"token batch must be a nonempty (batch, n) array, "
                         f"got shape {tokens.shape}")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise InputError(f"token ids must be integers, got {tokens.dtype}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise InputError("token id out of vocabulary range")
    return tokens


def _unembed_logits(h: Tensor, model) -> Tensor:
    final = ag.rms_norm(h, model.final_norm, model.config.norm_eps)
    unembed = (ag.transpose(model.embed, (1, 0)) if model.unembed is None
               else model.unembed)
    return ag.matmul(final, unembed)


def forward_fixed(model: FixedModel, tokens) -> Tensor:
    """Embed -> L blocks -> final norm -> unembed, returns (B, n, vocab)."""
    tokens = _check_tokens(tokens, model.config)
    h = ag.embedding_lookup(model.embed, tokens)
    return _unembed_logits(run_blocks(h, model.blocks, model.config), model)


def forward_fixed_hidden(model: FixedModel, tokens) -> list:
    """Per-layer (input, output) hidden-state arrays, value mode only."""
    tokens = _check_tokens(tokens, model.config)
    h = ag.embedding_lookup(model.embed, tokens)
    pairs = []
    for bw in model.blocks:
        out = decoder_block(h, bw, model.config)
        pairs.append((h.data, out.data))
        h = out
    return pairs


def sample_initial_state(cfg: ModelConfig, batch: int, n: int,
                         stream: RandomStream, dtype=np.float64) -> Tensor:
    return Tensor(stream.normal((batch, n, cfg.hidden), 0.0, cfg.sigma_s0,
                                dtype=dtype))


def prelude_forward(model: RecurrentModel, tokens: np.ndarray) -> Tensor:
    return run_blocks(ag.embedding_lookup(model.embed, tokens), model.prelude,
                      model.config)


def recurrent_step(model: RecurrentModel, s: Tensor, e: Tensor) -> Tensor:
    return run_blocks(ag.matmul(ag.concat_last(s, e), model.adapter),
                      model.recurrent, model.config)


def _coda_logits(model: RecurrentModel, s: Tensor) -> Tensor:
    return _unembed_logits(run_blocks(s, model.coda, model.config), model)


def forward_recurrent(model: RecurrentModel, tokens, run: RecurrenceRun) -> Tensor:
    """Recurrent forward under truncated backprop.

    The first `run.detach_boundary` iterations run under `ag.no_record()`:
    backward never reaches them, so they leave nothing on the tape and
    each state is freed once the next iteration has read it. The last
    min(r, window) iterations are recorded. The injected prelude output e
    feeds every recorded iteration, so prelude gradients flow through
    each of them.
    """
    tokens = _check_tokens(tokens, model.config)
    e = prelude_forward(model, tokens)
    s = sample_initial_state(model.config, *tokens.shape, run.s0_stream,
                             dtype=model.embed.dtype)
    with ag.no_record():
        for _ in range(run.detach_boundary):
            s = recurrent_step(model, s, e)
    for _ in range(run.r - run.detach_boundary):
        s = recurrent_step(model, s, e)
    return _coda_logits(model, s)


def recurrence_sweep(model, tokens, recurrences, s0_stream: RandomStream):
    """Yield (r, logits) for each distinct r in `recurrences`, ascending.

    One pass: the prelude runs and s0 is drawn once, then the recurrent
    block iterates up to the largest r, and coda + unembed read out the
    state at each requested r. The logits at r equal those of
    `forward_recurrent` at r from the same s0 stream, bit for bit. A
    fixed-depth model has no recurrence: its one forward serves every r.
    """
    wanted = sorted(set(recurrences))
    if not wanted or wanted[0] < 1:
        raise ContractError(f"recurrence counts must be >= 1, got {wanted}")
    if isinstance(model, FixedModel):
        logits = forward_fixed(model, tokens)
        yield from ((r, logits) for r in wanted)
        return
    tokens = _check_tokens(tokens, model.config)
    e = prelude_forward(model, tokens)
    s = sample_initial_state(model.config, *tokens.shape, s0_stream,
                             dtype=model.embed.dtype)
    done = 0
    for r in wanted:
        for _ in range(r - done):
            s = recurrent_step(model, s, e)
        done = r
        yield r, _coda_logits(model, s)


# ---------------------------------------------------------------------------
# initialization


def assemble(cfg: ModelConfig, outer: dict, blocks: list):
    """FixedModel from one block list, or RecurrentModel from three
    (prelude, recurrent, coda); `outer` maps `outer_shapes` names to
    tensors, the adapter only for a recurrent model."""
    embed, final_norm = outer["embed"], outer["final_norm"]
    unembed = outer.get("unembed")
    if len(blocks) == 1:
        return FixedModel(embed, blocks[0], final_norm, unembed, cfg)
    prelude, recurrent, coda = blocks
    return RecurrentModel(embed, prelude, outer["adapter"], recurrent, coda,
                          final_norm, unembed, cfg)


def _init_model(cfg: ModelConfig, counts: tuple, stream: RandomStream,
                emb_scale: float, dtype):
    """Depth-scaled normal init drawn in layout order: embed, the adapter
    (three counts: a recurrent model), one block list per count, unembed.
    Gains start at one; wo, w_down and the adapter shrink with depth."""
    if emb_scale <= 0:
        raise ContractError("emb_scale must be > 0")
    if min(counts) < 0:
        raise ContractError(f"layer counts {counts} must be >= 0")
    base = np.sqrt(2.0 / (5.0 * cfg.hidden))
    out_std = base * (1.0 / np.sqrt(2.0 * max(sum(counts), 1)))
    std = {"embed": base * emb_scale, "adapter": out_std, "wo": out_std,
           "w_down": out_std}

    def draw(name: str, shape: tuple) -> Tensor:
        if len(shape) == 1:
            return Tensor(np.ones(shape, dtype=dtype))
        return Tensor(stream.normal(shape, 0.0, std.get(name, base),
                                    dtype=dtype))

    shapes = outer_shapes(cfg)
    outer = {name: draw(name, shape) for name, shape in shapes.items()
             if name != "unembed" and (name != "adapter" or len(counts) == 3)}
    blocks = [[BlockWeights(**{name: draw(name, shape)
                               for name, shape in block_shapes(cfg).items()})
               for _ in range(n)] for n in counts]
    if "unembed" in shapes:
        outer["unembed"] = draw("unembed", shapes["unembed"])
    return assemble(cfg, outer, blocks)


def init_fixed(cfg: ModelConfig, depth: int, stream: RandomStream,
               emb_scale: float = 1.0, dtype=np.float64) -> FixedModel:
    """Depth-scaled normal init for the fixed-depth baseline."""
    return _init_model(cfg, (depth,), stream, emb_scale, dtype)


def init_recurrent(cfg: ModelConfig, plan_tuple: tuple, stream: RandomStream,
                   emb_scale: float = 1.0, dtype=np.float64) -> RecurrentModel:
    """From-scratch recurrent model with the same depth-scaled init."""
    if len(plan_tuple) != 3:
        raise ContractError(f"plan tuple {plan_tuple} is not (p, r, c)")
    return _init_model(cfg, tuple(plan_tuple), stream, emb_scale, dtype)
