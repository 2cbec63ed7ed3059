"""Optimizers: AdamW, the epsilon-free clipped AdamW variant, and Muon
with Newton-Schulz orthogonalization, plus global gradient clipping.

All optimizers operate on a name -> Tensor parameter dict and a matching
name -> ndarray gradient dict, and expose their state as flat arrays so
checkpoints can resume bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NonFiniteError

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

    def load_state_tensors(self, tensors):
        self.t = int(tensors["t"][0])
        self.m = {k[2:]: v.copy() for k, v in tensors.items() if k.startswith("m.")}
        self.v = {k[2:]: v.copy() for k, v in tensors.items() if k.startswith("v.")}


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
        fallback_params, fallback_grads = {}, {}
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if p.data.ndim != 2 or name in ("embed", "unembed"):
                fallback_params[name] = p
                fallback_grads[name] = g
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
        if fallback_params:
            self.fallback.step(fallback_params, fallback_grads, lr)

    def state_tensors(self):
        out = {f"buf.{k}": v for k, v in self.buffers.items()}
        for k, v in self.fallback.state_tensors().items():
            out[f"fb.{k}"] = v
        return out

    def load_state_tensors(self, tensors):
        self.buffers = {k[4:]: v.copy() for k, v in tensors.items()
                        if k.startswith("buf.")}
        self.fallback.load_state_tensors(
            {k[3:]: v for k, v in tensors.items() if k.startswith("fb.")})


def build_optimizer(name: str, hyper: dict | None = None) -> AdamW | Muon:
    classes = {"adamw": AdamW, "adamw_star": AdamWStar, "muon": Muon}
    if name not in classes:
        raise ContractError(f"unknown optimizer {name!r}")
    return classes[name](**(hyper or {}))
