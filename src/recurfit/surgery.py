"""Fixed-depth -> recurrent model surgery, parameter accounting, and
layer-influence scoring.

A surgery plan is a (p, r, c) tuple over a donor depth plus explicit
donor-layer index lists. The default selection keeps the first p layers
as the prelude, the last c as the coda, and the r layers immediately
before the coda as the recurrent block; the layers in between are
dropped. The adapter defaults to an identity-pass init (zero on the
state half, identity on the injected half) so the fresh recurrent model
at r=1 behaves like the pruned donor.

Surgery, pruning and checkpoint loading build models with `model.make`
over `_tensor` and write through `model_to_checkpoint`, so tensor names
and shapes follow the model's layout tables; a missing metadata key, a
missing tensor or a tensor of the wrong shape is a `FormatError`, and
one holding NaN/Inf a `NonFiniteError`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .checkpoint import Checkpoint, checked_float
from .errors import ContractError, FormatError, NonFiniteError, PlanError
from .fields import build, fits
from .model import (FixedModel, ModelConfig, block_shapes,
                    forward_fixed_hidden, make, outer_shapes, section_counts)
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


def params_per_block(cfg: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in block_shapes(cfg).values())


def count_parameters(cfg: ModelConfig, plan, convention: str = "table") -> ParamReport:
    """Closed-form counts for a (p, r, c) tuple under either convention."""
    if convention not in ("table", "true"):
        raise ContractError(f"unknown convention {convention!r}")
    p, r, c = plan
    per = params_per_block(cfg)
    sizes = {k: math.prod(shape) for k, shape in outer_shapes(cfg).items()}
    body = (p + r + c) * per
    if convention == "true":
        body += sizes["adapter"] + sizes["final_norm"]
    return ParamReport(embeddings=sizes["embed"] + sizes.get("unembed", 0),
                       prelude=p * per, recurrent_block=r * per, coda=c * per,
                       adapter=sizes["adapter"], final_norm=sizes["final_norm"],
                       body=body, convention=convention)


def count_fixed_params(cfg: ModelConfig, depth: int) -> int:
    """Non-embedding parameters of a fixed model: blocks + final norm."""
    final_norm = math.prod(outer_shapes(cfg)["final_norm"])
    return depth * params_per_block(cfg) + final_norm


# ---------------------------------------------------------------------------
# model <-> checkpoint


def model_to_checkpoint(model, extra_metadata: dict | None = None) -> Checkpoint:
    counts = section_counts(model)
    meta = ({"kind": "fixed", "depth": counts[0]} if len(counts) == 1 else
            {"kind": "recurrent", "plan_tuple": list(counts)})
    meta = {**meta, "config": dataclasses.asdict(model.config),
            **(extra_metadata or {})}
    return Checkpoint(metadata=meta,
                      tensors={k: v.data for k, v in model.params().items()})


def _meta(meta: dict, key: str):
    if key not in meta:
        raise FormatError(f"checkpoint metadata lacks {key!r}")
    return meta[key]


def _tensor(tensors: dict, name: str, shape: tuple, dtype=None) -> Tensor:
    if name not in tensors:
        raise FormatError(f"checkpoint missing tensor {name}")
    return Tensor(np.asarray(checked_float(f"checkpoint tensor {name}",
                                           tensors[name], shape), dtype=dtype))


def _layer_prefixes(*layer_lists) -> list:
    return [[f"layers.{i}" for i in layers] for layers in layer_lists]


_SECTIONS = {"fixed": ("layers",), "recurrent": ("prelude", "recurrent",
                                                "coda")}


def checkpoint_layout(meta: dict) -> tuple:
    """(ModelConfig, section counts) that checkpoint metadata names:
    (depth,) for a fixed model, (p, r, c) for a recurrent one."""
    cfg = build(ModelConfig, _meta(meta, "config"), "config", FormatError)
    kind = _meta(meta, "kind")
    if type(kind) is not str or kind not in _SECTIONS:
        raise FormatError(f"unknown checkpoint kind {kind!r}")
    counts = ([_meta(meta, "depth")] if kind == "fixed"
              else _meta(meta, "plan_tuple"))
    if not (fits(counts, list[int]) and len(counts) == len(_SECTIONS[kind])
            and min(counts) >= 0):
        raise FormatError(f"checkpoint layer counts {counts!r} are invalid")
    return cfg, tuple(counts)


def model_from_checkpoint(ckpt: Checkpoint, dtype=None):
    """Rebuild a FixedModel or RecurrentModel from a checkpoint."""
    cfg, counts = checkpoint_layout(ckpt.metadata)
    t = ckpt.tensors
    if sum(counts) > len(t):
        raise FormatError(f"checkpoint has {len(t)} tensors for {counts}")
    if dtype is None:
        dtype = _tensor(t, "embed", outer_shapes(cfg)["embed"]).dtype
    sections = [[f"{name}.{i}" for i in range(n)] for name, n in
                zip(_SECTIONS[ckpt.metadata["kind"]], counts)]
    return make(cfg, sections, functools.partial(_tensor, t, dtype=dtype))


# ---------------------------------------------------------------------------
# surgery proper


def donor_layout(donor: Checkpoint) -> tuple:
    """(ModelConfig, depth) of a donor; its plan is cut from that depth."""
    if donor.metadata.get("kind") != "fixed":
        raise FormatError("surgery donor must be a fixed-depth checkpoint")
    cfg, (depth,) = checkpoint_layout(donor.metadata)
    return cfg, depth


def adapter_weights(adapter_init: str, h: int, depth: int, dtype,
                    stream: RandomStream | None = None,
                    noise_std: float = 0.0) -> np.ndarray:
    """The new (2h, h) adapter of a surgery; an unknown init, or a random
    init without a stream, is a ContractError."""
    if adapter_init == "identity-pass":
        adapter = np.zeros((2 * h, h), dtype=dtype)
        adapter[h:, :] = np.eye(h, dtype=dtype)
        if noise_std > 0:
            if stream is None:
                raise ContractError("noise_std > 0 requires a random stream")
            # an overflowing draw is inf, which the checkpoint check reports
            with np.errstate(over="ignore"):
                adapter = adapter + stream.normal((2 * h, h), 0.0, noise_std,
                                                  dtype=dtype)
        return adapter
    if adapter_init == "scaled-random":
        if stream is None:
            raise ContractError("scaled-random adapter init requires a stream")
        base = np.sqrt(2.0 / (5.0 * h)) / np.sqrt(2.0 * depth)
        return stream.normal((2 * h, h), 0.0, base, dtype=dtype)
    raise ContractError(f"unknown adapter init {adapter_init!r}")


def apply_surgery(donor: Checkpoint, plan: SurgeryPlan,
                  adapter_init: str = "identity-pass",
                  stream: RandomStream | None = None,
                  noise_std: float = 1e-3) -> Checkpoint:
    """Cut a recurrent checkpoint out of a fixed-depth donor.

    Selected blocks, embeddings, and the final norm are copied verbatim;
    only the adapter is new.
    """
    cfg, depth = donor_layout(donor)
    if depth != plan.donor_depth:
        raise FormatError(f"plan expects donor depth {plan.donor_depth}, "
                          f"checkpoint has {depth}")
    embed = _tensor(donor.tensors, "embed", outer_shapes(cfg)["embed"])
    adapter = adapter_weights(adapter_init, cfg.hidden, depth, embed.dtype,
                              stream, noise_std)
    sections = _layer_prefixes(plan.prelude_layers, plan.recurrent_layers,
                               plan.coda_layers)
    model = make(cfg, sections, functools.partial(
        _tensor, {**donor.tensors, "adapter": adapter}))
    return model_to_checkpoint(model, extra_metadata={
        "plan": plan.to_dict(),
        "surgery": {"adapter_init": adapter_init, "noise_std": noise_std}})


def pruned_donor(donor: Checkpoint, plan: SurgeryPlan) -> Checkpoint:
    """Fixed-depth checkpoint keeping only the plan's layers, in plan order."""
    kept = plan.prelude_layers + plan.recurrent_layers + plan.coda_layers
    return model_to_checkpoint(make(donor_layout(donor)[0],
                                    _layer_prefixes(kept),
                                    functools.partial(_tensor, donor.tensors)))


def block_influence_scores(model: FixedModel, calibration_tokens) -> list:
    """ShortGPT-style scores: 1 - mean cosine(block input, block output).

    Higher scores mark layers whose removal changes the residual stream
    more; an identity block (zero projections) scores 0.
    """
    with np.errstate(all="ignore"):
        pairs = forward_fixed_hidden(model, calibration_tokens)
        scores = []
        for x_in, x_out in pairs:
            num = (x_in * x_out).sum(axis=-1)
            denom = (np.linalg.norm(x_in, axis=-1) *
                     np.linalg.norm(x_out, axis=-1) + 1e-12)
            scores.append(float(1.0 - np.mean(num / denom)))
    if not np.isfinite(scores).all():
        raise NonFiniteError(f"block influence scores {scores} are not finite")
    return scores
