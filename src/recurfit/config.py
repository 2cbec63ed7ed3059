"""Run configuration: schema, file loading, and dotted-key overrides.

Config files are JSON, read by `fields.build`: a field whose annotation
is a dataclass is a nested section, any other value must have its
field's annotated type and declared bound, and unknown keys are rejected
with their full path so typos fail loudly instead of silently using a
default. `RunConfig` adds the checks that span fields.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

from .data import validate_phases
from .errors import ConfigError, ContractError
from .fields import bounded, build, check
from .model import ModelConfig
from .optim import build_optimizer
from .schedules import CurriculumSpec, WindowSchedule, WsdSpec


@dataclass
class RunConfig:
    model: ModelConfig
    total_steps: int = bounded(0)
    out_dir: str
    model_kind: Literal["recurrent", "fixed"] = "recurrent"
    fixed_depth: int = bounded(0, default=4)  # when model_kind == "fixed"
    plan_tuple: list[int] = field(default_factory=lambda: [1, 2, 1])
    donor_checkpoint: str | None = None    # apply surgery to this donor
    init_checkpoint: str | None = None     # or start from these weights
    adapter_init: Literal["identity-pass", "scaled-random"] = "identity-pass"
    adapter_noise_std: float = bounded(0, default=1e-3)
    optimizer: str = "muon"
    optimizer_hyper: dict[str, float] = field(default_factory=dict)
    depth_spread: float = bounded(0, default=0.5)
    curriculum: CurriculumSpec = field(default_factory=CurriculumSpec)
    window: WindowSchedule = field(default_factory=WindowSchedule)
    lr: WsdSpec = field(default_factory=lambda: WsdSpec(peak=1e-3))
    micro_batch: int = bounded(1, default=8)
    global_batch: int = bounded(1, default=8)
    seed: int = 0
    phases: list = field(default_factory=list)
    emb_scale: float = bounded(above=0, default=1.0)
    dtype: Literal["float32", "float64"] = "float32"
    grad_clip: float = bounded(above=0, default=1.0)
    checkpoint_interval: int = bounded(0, default=0)  # 0 = final only
    metric_interval: int = bounded(1, default=1)
    max_nonfinite: int = bounded(0, default=5)

    def __post_init__(self):
        check(self, ConfigError)
        if len(self.plan_tuple) != 3 or min(self.plan_tuple) < 0:
            raise ConfigError(f"plan_tuple {self.plan_tuple} is not [p, r, c] >= 0")
        if self.global_batch % self.micro_batch != 0:
            raise ConfigError("global_batch must be divisible by micro_batch")
        if not self.phases:
            self.phases = [{"datasets": ["plain"], "weights": [1.0],
                            "start": 0, "end": self.total_steps}]
        try:
            if self.total_steps > 0:
                validate_phases(self.phases, self.total_steps)
            build_optimizer(self.optimizer, self.optimizer_hyper)
        except (ContractError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _parse_override(text: str) -> tuple:
    if "=" not in text:
        raise ConfigError(f"override '{text}' is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(data: dict, key: str, value) -> None:
    parts = key.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = node[part] = {}
        elif not isinstance(nxt, dict):
            raise ConfigError(f"override key '{key}' descends into a scalar")
        node = nxt
    node[parts[-1]] = value


def load_config(path, overrides: list | None = None) -> RunConfig:
    """Parse the JSON run config, apply dotted overrides, validate."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read config: "
                          f"{exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 decoding
        raise ConfigError(f"{path}: parse error: {exc}") from exc
    for text in overrides or []:
        key, value = _parse_override(text)
        _apply_override(data, key, value)
    return build(RunConfig, data, "", ConfigError)


def resolved_config_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)
