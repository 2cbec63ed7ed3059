"""Optimizers: AdamW, the epsilon-free clipped AdamW variant, and Muon
with Newton-Schulz orthogonalization, plus global gradient clipping.

All optimizers operate on a name -> Tensor parameter dict and a matching
name -> ndarray gradient dict, and expose their state as flat arrays so
checkpoints can resume bit-exactly. Each optimizer also reads its state
back, checked against the parameters: a malformed, unpaired or foreign
tensor is a FormatError (a non-finite one a NonFiniteError).
"""

from __future__ import annotations

import copy

import numpy as np

from .checkpoint import checked_float
from .errors import ContractError, FormatError, NonFiniteError

NS_COEFFS = (3.4445, -4.7750, 2.0315)
NS_ITERATIONS = 5


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_global_norm(grads: dict, max_norm: float = 1.0) -> dict:
    """Rescale all grads so the global L2 norm is at most max_norm."""
    if max_norm <= 0:
        raise ContractError("max_norm must be > 0")
    norm = global_grad_norm(grads)
    if not np.isfinite(norm):
        raise NonFiniteError(f"global gradient norm is {norm}")
    if norm <= max_norm:
        return grads
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}


def newton_schulz5(g: np.ndarray) -> np.ndarray:
    """Quintic Newton-Schulz approximation of the orthogonal polar factor."""
    if g.ndim != 2:
        raise ContractError("newton_schulz5 expects a 2D matrix")
    norm = np.linalg.norm(g)
    if norm == 0:
        return np.zeros_like(g)
    a, b, c = NS_COEFFS
    transposed = g.shape[0] > g.shape[1]
    x = (g.T if transposed else g) / norm
    for _ in range(NS_ITERATIONS):
        gram = x @ x.T
        x = a * x + (b * gram + c * gram @ gram) @ x
    return x.T if transposed else x


def _pop_slot(state: dict, prefix: str, params: dict) -> dict:
    """Pop each `<prefix><name>` tensor of `state` as name -> copy, a
    finite float array of parameter `name`'s shape."""
    out = {}
    for key in [k for k in state if k.startswith(prefix)]:
        name = key[len(prefix):]
        if name not in params:
            raise FormatError(f"optimizer state {key} names no parameter "
                              f"with {prefix}* state")
        out[name] = checked_float(f"optimizer state {key}", state.pop(key),
                                  params[name].data.shape).copy()
    return out


class AdamW:
    """Bias-corrected AdamW with decoupled weight decay (lr-scaled)."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.95,
                 epsilon: float = 1e-8, weight_decay: float = 1e-4):
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def _corrected(self, params: dict, grads: dict):
        """Update the moments; yield (param, m_hat, v_hat) per gradient."""
        self.t += 1
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name].data)
                self.v[name] = np.zeros_like(params[name].data)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g ** 2
        bc1 = 1 - self.beta1 ** self.t
        bc2 = 1 - self.beta2 ** self.t
        for name, p in params.items():
            if name in grads:
                yield p, self.m[name] / bc1, self.v[name] / bc2

    def step(self, params, grads, lr):
        for p, m_hat, v_hat in self._corrected(params, grads):
            update = m_hat / (np.sqrt(v_hat) + self.epsilon)
            new = p.data - lr * (update + self.weight_decay * p.data)
            p.data = new.astype(p.data.dtype, copy=False)

    def state_tensors(self):
        out = {"t": np.asarray([self.t], dtype=np.int64)}
        for name, arr in self.m.items():
            out[f"m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"v.{name}"] = arr
        return out

    def load_state_tensors(self, tensors: dict, params: dict,
                           prefix: str = "") -> None:
        """Load what `state_tensors` wrote, each key under `prefix`,
        checked against `params`, with both moments of every parameter
        after a step; any other tensor is a FormatError."""
        rest = dict(tensors)
        t = rest.pop(f"{prefix}t", None)
        if t is None:
            raise FormatError(f"no optimizer state '{prefix}t' to resume from")
        if t.dtype.kind not in "iu" or t.shape != (1,) or t[0] < 0:
            raise FormatError(f"optimizer step count {prefix}t is {t!r}, not "
                              f"one integer >= 0")
        m = _pop_slot(rest, f"{prefix}m.", params)
        v = _pop_slot(rest, f"{prefix}v.", params)
        for name in sorted(m.keys() ^ v.keys()):
            raise FormatError(f"optimizer state has only one of {prefix}m."
                              f"{name} and {prefix}v.{name}")
        for name in sorted(params.keys() - m.keys() if t[0] > 0 else ()):
            raise FormatError(f"optimizer state at step {t[0]} lacks "
                              f"{prefix}m.{name} and {prefix}v.{name}")
        if rest:
            raise FormatError(f"optimizer state {min(rest)} is no slot of "
                              f"this optimizer")
        self.t, self.m, self.v = int(t[0]), m, v


class AdamWStar(AdamW):
    """AdamW variant: no epsilon, per-tensor update-RMS clipping, and
    weight decay decoupled from the learning rate."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.95,
                 clip_threshold: float = 1.0, weight_decay: float = 1e-4):
        super().__init__(beta1, beta2, epsilon=0.0, weight_decay=weight_decay)
        if clip_threshold <= 0:
            raise ContractError("clip threshold must be > 0")
        self.clip_threshold = clip_threshold

    def step(self, params, grads, lr):
        for p, m_hat, v_hat in self._corrected(params, grads):
            denom = np.sqrt(v_hat)
            update = np.where(denom > 0, m_hat / np.where(denom > 0, denom, 1.0),
                              0.0)
            rms = float(np.sqrt(np.mean(update ** 2)))
            if rms > self.clip_threshold:
                update = update * (self.clip_threshold / rms)
            new = p.data * (1.0 - self.weight_decay) - lr * update
            p.data = new.astype(p.data.dtype, copy=False)


def _fallback_params(params: dict) -> dict:
    """The parameters Muon hands to its AdamW fallback."""
    return {n: p for n, p in params.items()
            if p.data.ndim != 2 or n in ("embed", "unembed")}


class Muon:
    """Nesterov momentum + Newton-Schulz orthogonalization for 2D weights;
    `embed`, `unembed` and non-2D tensors fall back to AdamW at the same
    learning rate and weight decay."""

    def __init__(self, momentum: float = 0.95, weight_decay: float = 1e-4):
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.buffers: dict = {}
        self.fallback = AdamW(weight_decay=weight_decay)

    def step(self, params, grads, lr):
        fallback = _fallback_params(params)
        for name, p in params.items():
            g = grads.get(name)
            if g is None or name in fallback:
                continue
            buf = self.buffers.get(name)
            if buf is None:
                buf = np.zeros_like(p.data)
            buf = self.momentum * buf + (1 - self.momentum) * g
            self.buffers[name] = buf
            eff = (1 - self.momentum) * g + self.momentum * buf
            ortho = newton_schulz5(eff)
            rows, cols = p.data.shape
            shape_scale = np.sqrt(max(rows, cols) / min(rows, cols))
            new = p.data * (1.0 - lr * self.weight_decay) - lr * shape_scale * ortho
            p.data = new.astype(p.data.dtype, copy=False)
        fallback_grads = {n: g for n, g in grads.items() if n in fallback}
        if fallback_grads:
            self.fallback.step(fallback, fallback_grads, lr)

    def state_tensors(self):
        out = {f"buf.{k}": v for k, v in self.buffers.items()}
        for k, v in self.fallback.state_tensors().items():
            out[f"fb.{k}"] = v
        return out

    def load_state_tensors(self, tensors: dict, params: dict) -> None:
        """Load what `state_tensors` wrote: buffers of the parameters Muon
        updates (all of them after a step), then fallback state of the
        others and no other tensor."""
        rest = dict(tensors)
        fallback = _fallback_params(params)
        buffers = _pop_slot(rest, "buf.", {n: p for n, p in params.items()
                                           if n not in fallback})
        fb = copy.copy(self.fallback)
        fb.load_state_tensors(rest, fallback, "fb.")
        for name in sorted(params.keys() - fallback.keys() - buffers.keys()
                           if fb.t > 0 else ()):
            raise FormatError(f"optimizer state at step {fb.t} lacks "
                              f"buf.{name}")
        self.fallback, self.buffers = fb, buffers


def build_optimizer(name: str, hyper: dict | None = None) -> AdamW | Muon:
    classes = {"adamw": AdamW, "adamw_star": AdamWStar, "muon": Muon}
    if name not in classes:
        raise ContractError(f"unknown optimizer {name!r}")
    return classes[name](**(hyper or {}))
