"""Fixed-depth -> recurrent model surgery, parameter accounting, and
layer-influence scoring.

A surgery plan is a (p, r, c) tuple over a donor depth plus explicit
donor-layer index lists. The default selection keeps the first p layers
as the prelude, the last c as the coda, and the r layers immediately
before the coda as the recurrent block; the layers in between are
dropped. The adapter defaults to an identity-pass init (zero on the
state half, identity on the injected half) so the fresh recurrent model
at r=1 behaves like the pruned donor.

Surgery, pruning and checkpoint loading copy blocks with `_copy_blocks`
and write through `model_to_checkpoint`, so tensor names follow the
model's layout; a missing tensor or metadata key is a `FormatError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .checkpoint import Checkpoint
from .errors import ContractError, FormatError, PlanError
from .model import (BlockWeights, FixedModel, ModelConfig, RecurrentModel,
                    block_fields, forward_fixed_hidden)
from .random import RandomStream


@dataclass
class SurgeryPlan:
    donor_depth: int
    prelude_layers: list
    recurrent_layers: list
    coda_layers: list

    @property
    def tuple(self) -> tuple:
        return (len(self.prelude_layers), len(self.recurrent_layers),
                len(self.coda_layers))

    def to_dict(self) -> dict:
        return {"tuple": list(self.tuple), "donor_depth": self.donor_depth,
                "prelude_layers": list(self.prelude_layers),
                "recurrent_layers": list(self.recurrent_layers),
                "coda_layers": list(self.coda_layers)}

    @classmethod
    def from_dict(cls, d: dict) -> "SurgeryPlan":
        p, r, c = d["tuple"]
        return make_plan((p, r, c), d["donor_depth"],
                         lists=(d["prelude_layers"], d["recurrent_layers"],
                                d["coda_layers"]))


def make_plan(plan_tuple: tuple, donor_depth: int,
              lists: tuple | None = None) -> SurgeryPlan:
    """Build a plan; default rule keeps first/last layers, drops the middle."""
    p, r, c = plan_tuple
    if p < 0 or r < 0 or c < 0 or p + r + c > donor_depth:
        raise PlanError(f"tuple {plan_tuple} does not fit donor depth "
                        f"{donor_depth}")
    if lists is None:
        prelude = list(range(p))
        coda = list(range(donor_depth - c, donor_depth))
        recurrent = list(range(donor_depth - c - r, donor_depth - c))
    else:
        prelude, recurrent, coda = (list(l) for l in lists)
    for name, lst, want in (("prelude", prelude, p), ("recurrent", recurrent, r),
                            ("coda", coda, c)):
        if len(lst) != want:
            raise PlanError(f"{name} list length {len(lst)} != {want}")
        if lst != sorted(lst):
            raise PlanError(f"{name} list not sorted: {lst}")
        if lst and (lst[0] < 0 or lst[-1] >= donor_depth):
            raise PlanError(f"{name} index out of range for depth {donor_depth}")
    combined = prelude + recurrent + coda
    if len(set(combined)) != len(combined):
        raise PlanError("layer lists overlap")
    return SurgeryPlan(donor_depth, prelude, recurrent, coda)


# ---------------------------------------------------------------------------
# parameter accounting


@dataclass
class ParamReport:
    embeddings: int
    prelude: int
    recurrent_block: int
    coda: int
    adapter: int
    final_norm: int
    body: int
    convention: str  # "table" excludes adapter + final norm; "true" includes

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def params_per_block(cfg: ModelConfig) -> int:
    h, kv, ffn = cfg.hidden, cfg.kv_dim, cfg.ffn_width
    count = 2 * h * h + 2 * h * kv + 3 * h * ffn + 2 * h
    if cfg.qk_norm:
        count += h + kv
    return count


def embedding_params(cfg: ModelConfig) -> int:
    per_matrix = cfg.vocab_size * cfg.hidden
    return per_matrix if cfg.tie_embeddings else 2 * per_matrix


def count_parameters(cfg: ModelConfig, plan, convention: str = "table") -> ParamReport:
    """Closed-form counts for a plan tuple under either convention."""
    if convention not in ("table", "true"):
        raise ValueError(f"unknown convention {convention!r}")
    p, r, c = plan.tuple if isinstance(plan, SurgeryPlan) else tuple(plan)
    per = params_per_block(cfg)
    adapter = 2 * cfg.hidden * cfg.hidden
    final_norm = cfg.hidden
    body = (p + r + c) * per
    if convention == "true":
        body += adapter + final_norm
    return ParamReport(embeddings=embedding_params(cfg), prelude=p * per,
                       recurrent_block=r * per, coda=c * per, adapter=adapter,
                       final_norm=final_norm, body=body, convention=convention)


def count_fixed_params(cfg: ModelConfig, depth: int) -> dict:
    """Non-recurrent accounting: embeddings vs. body (blocks + final norm)."""
    return {"embeddings": embedding_params(cfg),
            "body": depth * params_per_block(cfg) + cfg.hidden}


# ---------------------------------------------------------------------------
# model <-> checkpoint


def model_to_checkpoint(model, extra_metadata: dict | None = None) -> Checkpoint:
    meta = ({"kind": "fixed", "depth": len(model.blocks)}
            if isinstance(model, FixedModel) else
            {"kind": "recurrent", "plan_tuple": list(model.plan_tuple)})
    meta = {**meta, "config": model.config.to_dict(), **(extra_metadata or {})}
    return Checkpoint(metadata=meta,
                      tensors={k: v.data for k, v in model.params().items()})


def _meta(meta: dict, key: str):
    if key not in meta:
        raise FormatError(f"checkpoint metadata lacks {key!r}")
    return meta[key]


def _model_config(meta: dict) -> ModelConfig:
    try:
        return ModelConfig.from_dict(_meta(meta, "config"))
    except (TypeError, ContractError) as exc:
        raise FormatError(f"checkpoint config: {exc}") from exc


def _tensor(tensors: dict, name: str, dtype=None) -> Tensor:
    if name not in tensors:
        raise FormatError(f"checkpoint missing tensor {name}")
    return Tensor(np.asarray(tensors[name], dtype=dtype))


def _copy_blocks(tensors: dict, sections, cfg: ModelConfig, dtype=None) -> list:
    """One list of BlockWeights per section; a section lists the tensor
    name prefixes of its blocks, in order."""
    return [[BlockWeights(**{f: _tensor(tensors, f"{prefix}.{f}", dtype)
                             for f in block_fields(cfg)})
             for prefix in prefixes] for prefixes in sections]


def _build(tensors: dict, cfg: ModelConfig, sections, adapter=None,
           dtype=None):
    """FixedModel from one section, or RecurrentModel from three (prelude,
    recurrent, coda) around `adapter`; other weights come from `tensors`."""
    embed = _tensor(tensors, "embed", dtype)
    final_norm = _tensor(tensors, "final_norm", dtype)
    unembed = None if cfg.tie_embeddings else _tensor(tensors, "unembed", dtype)
    blocks = _copy_blocks(tensors, sections, cfg, dtype)
    if adapter is None:
        return FixedModel(embed, *blocks, final_norm, unembed, cfg)
    prelude, recurrent, coda = blocks
    return RecurrentModel(embed, prelude, adapter, recurrent, coda, final_norm,
                          unembed, cfg)


def _layer_prefixes(*layer_lists) -> list:
    return [[f"layers.{i}" for i in layers] for layers in layer_lists]


def model_from_checkpoint(ckpt: Checkpoint, dtype=None):
    """Rebuild a FixedModel or RecurrentModel from a checkpoint."""
    meta = ckpt.metadata
    cfg = _model_config(meta)
    t = ckpt.tensors
    if dtype is None:
        dtype = _tensor(t, "embed").dtype
    kind = _meta(meta, "kind")
    if kind == "fixed":
        return _build(t, cfg, _layer_prefixes(range(_meta(meta, "depth"))),
                      dtype=dtype)
    if kind == "recurrent":
        plan = _meta(meta, "plan_tuple")
        if not (isinstance(plan, list) and len(plan) == 3):
            raise FormatError(f"checkpoint plan_tuple {plan!r} is not [p, r, c]")
        sections = [[f"{name}.{i}" for i in range(n)] for name, n in
                    zip(("prelude", "recurrent", "coda"), plan)]
        return _build(t, cfg, sections, _tensor(t, "adapter", dtype), dtype)
    raise FormatError(f"unknown checkpoint kind {kind!r}")


# ---------------------------------------------------------------------------
# surgery proper


def _donor_config(donor: Checkpoint) -> ModelConfig:
    if donor.metadata.get("kind") != "fixed":
        raise FormatError("surgery donor must be a fixed-depth checkpoint")
    return _model_config(donor.metadata)


def donor_depth(donor: Checkpoint) -> int:
    """Layer count of a donor checkpoint, the depth its plan is cut from."""
    return _meta(donor.metadata, "depth")


def adapter_weights(adapter_init: str, h: int, depth: int, dtype,
                    stream: RandomStream | None = None,
                    noise_std: float = 0.0) -> np.ndarray:
    """The new (2h, h) adapter of a surgery; an unknown init is a ValueError."""
    if adapter_init == "identity-pass":
        adapter = np.zeros((2 * h, h), dtype=dtype)
        adapter[h:, :] = np.eye(h, dtype=dtype)
        if noise_std > 0:
            if stream is None:
                raise ValueError("noise_std > 0 requires a random stream")
            adapter = adapter + stream.normal((2 * h, h), 0.0, noise_std,
                                              dtype=dtype)
        return adapter
    if adapter_init == "scaled-random":
        if stream is None:
            raise ValueError("scaled-random adapter init requires a stream")
        base = np.sqrt(2.0 / (5.0 * h)) / np.sqrt(2.0 * depth)
        return stream.normal((2 * h, h), 0.0, base, dtype=dtype)
    raise ValueError(f"unknown adapter init {adapter_init!r}")


def apply_surgery(donor: Checkpoint, plan: SurgeryPlan,
                  adapter_init: str = "identity-pass",
                  stream: RandomStream | None = None,
                  noise_std: float = 1e-3) -> Checkpoint:
    """Cut a recurrent checkpoint out of a fixed-depth donor.

    Selected blocks, embeddings, and the final norm are copied verbatim;
    only the adapter is new.
    """
    cfg = _donor_config(donor)
    depth = donor_depth(donor)
    if depth != plan.donor_depth:
        raise FormatError(f"plan expects donor depth {plan.donor_depth}, "
                          f"checkpoint has {depth}")
    adapter = adapter_weights(adapter_init, cfg.hidden, depth,
                              _tensor(donor.tensors, "embed").dtype, stream,
                              noise_std)
    sections = _layer_prefixes(plan.prelude_layers, plan.recurrent_layers,
                               plan.coda_layers)
    model = _build(donor.tensors, cfg, sections, Tensor(adapter))
    return model_to_checkpoint(model, extra_metadata={
        "plan": plan.to_dict(),
        "surgery": {"adapter_init": adapter_init, "noise_std": noise_std}})


def pruned_donor(donor: Checkpoint, plan: SurgeryPlan) -> Checkpoint:
    """Fixed-depth checkpoint keeping only the plan's layers, in plan order."""
    kept = plan.prelude_layers + plan.recurrent_layers + plan.coda_layers
    return model_to_checkpoint(_build(donor.tensors, _donor_config(donor),
                                      _layer_prefixes(kept)))


def block_influence_scores(model: FixedModel, calibration_tokens) -> list:
    """ShortGPT-style scores: 1 - mean cosine(block input, block output).

    Higher scores mark layers whose removal changes the residual stream
    more; an identity block (zero projections) scores 0.
    """
    calibration_tokens = np.asarray(calibration_tokens)
    if calibration_tokens.size == 0:
        raise ValueError("calibration batch must be nonempty")
    pairs = forward_fixed_hidden(model, calibration_tokens)
    scores = []
    for x_in, x_out in pairs:
        num = (x_in * x_out).sum(axis=-1)
        denom = (np.linalg.norm(x_in, axis=-1) *
                 np.linalg.norm(x_out, axis=-1) + 1e-12)
        scores.append(float(1.0 - np.mean(num / denom)))
    return scores
