"""Decoder-only transformer blocks and the two model forms.

The fixed-depth model is a plain llama-style stack. The recurrent model
splits the stack into a prelude, a weight-shared recurrent block entered
through a bias-free 2h->h adapter, and a coda; the prelude output is
injected into every recurrent iteration. Under truncated backprop only
the last w of r iterations are recorded on the tape: the iterations
before them run untaped, since no gradient reaches them. For evaluation,
`recurrence_sweep` runs the recurrence once up to the largest requested
count and reads out logits at each requested count on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, InputError
from .random import RandomStream


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int
    n_query_heads: int
    n_kv_heads: int
    head_dim: int
    ffn_width: int
    context_length: int = 1024
    rope_base: float = 10000.0
    norm_eps: float = 1e-5
    sigma_s0: float = 0.02
    tie_embeddings: bool = False
    qk_norm: bool = False
    post_norm: bool = False

    def __post_init__(self):
        if self.hidden != self.n_query_heads * self.head_dim:
            raise ContractError(
                f"hidden ({self.hidden}) must equal n_query_heads*head_dim "
                f"({self.n_query_heads}x{self.head_dim})")
        if self.n_query_heads % self.n_kv_heads != 0:
            raise ContractError("n_query_heads must be divisible by n_kv_heads")
        if self.context_length < 1:
            raise ContractError("context_length must be >= 1")

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
        names = {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                 f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo,
                 f"{prefix}.w_gate": self.w_gate, f"{prefix}.w_up": self.w_up,
                 f"{prefix}.w_down": self.w_down, f"{prefix}.g_attn": self.g_attn,
                 f"{prefix}.g_mlp": self.g_mlp}
        if self.q_gain is not None:
            names[f"{prefix}.q_gain"] = self.q_gain
            names[f"{prefix}.k_gain"] = self.k_gain
        return names


@dataclass
class RecurrenceRun:
    """How many recurrent passes to run and how many carry gradients."""
    r: int
    window: int = 8
    s0_stream: RandomStream | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ContractError(f"recurrence count must be >= 1, got {self.r}")
        if self.window < 1:
            raise ContractError(f"backprop window must be >= 1, got {self.window}")

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

    def params(self) -> dict:
        out = {"embed": self.embed}
        for i, bw in enumerate(self.blocks):
            out.update(bw.named(f"layers.{i}"))
        out["final_norm"] = self.final_norm
        if self.unembed is not None:
            out["unembed"] = self.unembed
        return out


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
    plan_tuple: tuple = field(default=None)

    def params(self) -> dict:
        out = {"embed": self.embed}
        for i, bw in enumerate(self.prelude):
            out.update(bw.named(f"prelude.{i}"))
        out["adapter"] = self.adapter
        for i, bw in enumerate(self.recurrent):
            out.update(bw.named(f"recurrent.{i}"))
        for i, bw in enumerate(self.coda):
            out.update(bw.named(f"coda.{i}"))
        out["final_norm"] = self.final_norm
        if self.unembed is not None:
            out["unembed"] = self.unembed
        return out


_ROPE_CACHE: dict = {}


def rope_tables(n: int, head_dim: int, base: float, dtype) -> tuple:
    key = (n, head_dim, float(base), np.dtype(dtype).str)
    hit = _ROPE_CACHE.get(key)
    if hit is None:
        half = head_dim // 2
        inv_freq = base ** (-np.arange(half, dtype=np.float64) / half)
        angles = np.outer(np.arange(n), inv_freq)
        hit = (np.cos(angles).astype(dtype), np.sin(angles).astype(dtype))
        _ROPE_CACHE[key] = hit
    return hit


def decoder_block(x: Tensor, bw: BlockWeights, cfg: ModelConfig) -> Tensor:
    """One pre-norm (or post-norm) residual block on (B, n, h) input."""
    n = x.shape[-2]
    if n > cfg.context_length:
        raise ContractError(f"sequence length {n} exceeds context "
                            f"{cfg.context_length}")

    def attention(a_in):
        q = ag.split_heads(ag.matmul(a_in, bw.wq), cfg.n_query_heads, cfg.head_dim)
        k = ag.split_heads(ag.matmul(a_in, bw.wk), cfg.n_kv_heads, cfg.head_dim)
        v = ag.split_heads(ag.matmul(a_in, bw.wv), cfg.n_kv_heads, cfg.head_dim)
        if cfg.qk_norm:
            q = ag.rms_norm(q, ag.reshape(bw.q_gain, (cfg.n_query_heads, 1, cfg.head_dim)),
                            cfg.norm_eps)
            k = ag.rms_norm(k, ag.reshape(bw.k_gain, (cfg.n_kv_heads, 1, cfg.head_dim)),
                            cfg.norm_eps)
        cos, sin = rope_tables(n, cfg.head_dim, cfg.rope_base, x.dtype)
        q = ag.rope_rotate(q, cos, sin)
        k = ag.rope_rotate(k, cos, sin)
        groups = cfg.n_query_heads // cfg.n_kv_heads
        k = ag.expand_kv(k, groups)
        v = ag.expand_kv(v, groups)
        out = ag.causal_attn(q, k, v, 1.0 / np.sqrt(cfg.head_dim))
        return ag.matmul(ag.merge_heads(out), bw.wo)

    def mlp(m_in):
        return ag.matmul(ag.silu_glu(ag.matmul(m_in, bw.w_gate),
                                     ag.matmul(m_in, bw.w_up)), bw.w_down)

    if cfg.post_norm:
        x = ag.add(x, ag.rms_norm(attention(x), bw.g_attn, cfg.norm_eps))
        x = ag.add(x, ag.rms_norm(mlp(x), bw.g_mlp, cfg.norm_eps))
    else:
        x = ag.add(x, attention(ag.rms_norm(x, bw.g_attn, cfg.norm_eps)))
        x = ag.add(x, mlp(ag.rms_norm(x, bw.g_mlp, cfg.norm_eps)))
    return x


def _check_tokens(tokens, cfg: ModelConfig) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
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
    for bw in model.blocks:
        h = decoder_block(h, bw, model.config)
    return _unembed_logits(h, model)


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
    return ag.draw_normal(stream, (batch, n, cfg.hidden), 0.0, cfg.sigma_s0,
                          dtype=dtype)


def prelude_forward(model: RecurrentModel, tokens: np.ndarray) -> Tensor:
    e = ag.embedding_lookup(model.embed, tokens)
    for bw in model.prelude:
        e = decoder_block(e, bw, model.config)
    return e


def recurrent_step(model: RecurrentModel, s: Tensor, e: Tensor) -> Tensor:
    x = ag.matmul(ag.concat_last(s, e), model.adapter)
    for bw in model.recurrent:
        x = decoder_block(x, bw, model.config)
    return x


def _coda_logits(model: RecurrentModel, s: Tensor) -> Tensor:
    for bw in model.coda:
        s = decoder_block(s, bw, model.config)
    return _unembed_logits(s, model)


def forward_recurrent(model: RecurrentModel, tokens, run: RecurrenceRun,
                      initial_state: Tensor | None = None) -> Tensor:
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
    if initial_state is not None:
        s = initial_state
    else:
        stream = run.s0_stream or RandomStream(0, "s0")
        s = sample_initial_state(model.config, tokens.shape[0], tokens.shape[1],
                                 stream, dtype=model.embed.dtype)
    with ag.no_record():
        for _ in range(run.detach_boundary):
            s = recurrent_step(model, s, e)
    for _ in range(run.r - run.detach_boundary):
        s = recurrent_step(model, s, e)
    return _coda_logits(model, s)


def recurrence_sweep(model: RecurrentModel, tokens, recurrences,
                     s0_stream: RandomStream):
    """Yield (r, logits) for each distinct r in `recurrences`, ascending.

    One pass: the prelude runs and s0 is drawn once, then the recurrent
    block iterates up to the largest r, and coda + unembed read out the
    state at each requested r. The logits at r equal those of
    `forward_recurrent` at r from the same s0 stream, bit for bit.
    """
    wanted = sorted(set(recurrences))
    if not wanted or wanted[0] < 1:
        raise ContractError(f"recurrence counts must be >= 1, got {wanted}")
    tokens = _check_tokens(tokens, model.config)
    e = prelude_forward(model, tokens)
    s = sample_initial_state(model.config, tokens.shape[0], tokens.shape[1],
                             s0_stream, dtype=model.embed.dtype)
    done = 0
    for r in wanted:
        for _ in range(r - done):
            s = recurrent_step(model, s, e)
        done = r
        yield r, _coda_logits(model, s)


# ---------------------------------------------------------------------------
# initialization


def _init_block(cfg: ModelConfig, stream: RandomStream, effective_depth: int,
                dtype) -> BlockWeights:
    h, kv, ffn = cfg.hidden, cfg.kv_dim, cfg.ffn_width
    base = np.sqrt(2.0 / (5.0 * h))
    out_scale = 1.0 / np.sqrt(2.0 * max(effective_depth, 1))
    bw = BlockWeights(
        wq=Tensor(stream.normal((h, h), 0.0, base, dtype=dtype)),
        wk=Tensor(stream.normal((h, kv), 0.0, base, dtype=dtype)),
        wv=Tensor(stream.normal((h, kv), 0.0, base, dtype=dtype)),
        wo=Tensor(stream.normal((h, h), 0.0, base * out_scale, dtype=dtype)),
        w_gate=Tensor(stream.normal((h, ffn), 0.0, base, dtype=dtype)),
        w_up=Tensor(stream.normal((h, ffn), 0.0, base, dtype=dtype)),
        w_down=Tensor(stream.normal((ffn, h), 0.0, base * out_scale, dtype=dtype)),
        g_attn=Tensor(np.ones(h, dtype=dtype)),
        g_mlp=Tensor(np.ones(h, dtype=dtype)),
    )
    if cfg.qk_norm:
        bw.q_gain = Tensor(np.ones(h, dtype=dtype))
        bw.k_gain = Tensor(np.ones(kv, dtype=dtype))
    return bw


def init_fixed(cfg: ModelConfig, depth: int, stream: RandomStream,
               emb_scale: float = 1.0, dtype=np.float64) -> FixedModel:
    """Depth-scaled normal init for the fixed-depth baseline."""
    if emb_scale <= 0:
        raise ContractError("emb_scale must be > 0")
    base = np.sqrt(2.0 / (5.0 * cfg.hidden))
    embed = Tensor(stream.normal((cfg.vocab_size, cfg.hidden), 0.0,
                                 base * emb_scale, dtype=dtype))
    blocks = [_init_block(cfg, stream, depth, dtype) for _ in range(depth)]
    unembed = None if cfg.tie_embeddings else Tensor(
        stream.normal((cfg.hidden, cfg.vocab_size), 0.0, base, dtype=dtype))
    return FixedModel(embed, blocks, Tensor(np.ones(cfg.hidden, dtype=dtype)),
                      unembed, cfg)


def init_recurrent(cfg: ModelConfig, plan_tuple: tuple, stream: RandomStream,
                   emb_scale: float = 1.0, dtype=np.float64) -> RecurrentModel:
    """From-scratch recurrent model with the same depth-scaled init."""
    if emb_scale <= 0:
        raise ContractError("emb_scale must be > 0")
    p, r, c = plan_tuple
    depth = p + r + c
    base = np.sqrt(2.0 / (5.0 * cfg.hidden))
    embed = Tensor(stream.normal((cfg.vocab_size, cfg.hidden), 0.0,
                                 base * emb_scale, dtype=dtype))
    adapter = Tensor(stream.normal((2 * cfg.hidden, cfg.hidden), 0.0,
                                   base * (1.0 / np.sqrt(2.0 * max(depth, 1))),
                                   dtype=dtype))
    prelude = [_init_block(cfg, stream, depth, dtype) for _ in range(p)]
    recurrent = [_init_block(cfg, stream, depth, dtype) for _ in range(r)]
    coda = [_init_block(cfg, stream, depth, dtype) for _ in range(c)]
    unembed = None if cfg.tie_embeddings else Tensor(
        stream.normal((cfg.hidden, cfg.vocab_size), 0.0, base, dtype=dtype))
    return RecurrentModel(embed, prelude, adapter, recurrent, coda,
                          Tensor(np.ones(cfg.hidden, dtype=dtype)), unembed,
                          cfg, plan_tuple=(p, r, c))
