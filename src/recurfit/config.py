"""Run configuration: schema, file loading, and dotted-key overrides.

Config files are JSON. Every field is validated against the dataclass
schema: a field whose annotation is a dataclass is read as a nested
section, any other value must have its field's annotated type, and
unknown keys are rejected with their full path so typos fail loudly
instead of silently using a default.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .data import validate_phases
from .errors import ConfigError, ContractError
from .model import ModelConfig
from .optim import build_optimizer
from .random import RandomStream
from .schedules import CurriculumSpec, WindowSchedule, WsdSpec
from .surgery import adapter_weights


_LOWER_BOUNDS = {"micro_batch": 1, "global_batch": 1, "metric_interval": 1,
                 "total_steps": 0, "checkpoint_interval": 0, "depth_spread": 0,
                 "fixed_depth": 0}


@dataclass
class RunConfig:
    model: ModelConfig
    total_steps: int
    out_dir: str
    model_kind: str = "recurrent"          # "recurrent" | "fixed"
    fixed_depth: int = 4                   # depth when model_kind == "fixed"
    plan_tuple: list[int] = field(default_factory=lambda: [1, 2, 1])
    donor_checkpoint: str | None = None    # apply surgery to this donor
    init_checkpoint: str | None = None     # or start from these weights
    adapter_init: str = "identity-pass"
    adapter_noise_std: float = 1e-3
    optimizer: str = "muon"
    optimizer_hyper: dict[str, float] = field(default_factory=dict)
    depth_spread: float = 0.5
    curriculum: CurriculumSpec = field(default_factory=CurriculumSpec)
    window: WindowSchedule = field(default_factory=WindowSchedule)
    lr: WsdSpec = field(default_factory=lambda: WsdSpec(peak=1e-3))
    micro_batch: int = 8
    global_batch: int = 8
    seed: int = 0
    phases: list = field(default_factory=list)
    emb_scale: float = 1.0
    dtype: str = "float32"
    grad_clip: float = 1.0
    checkpoint_interval: int = 0           # 0 = final checkpoint only
    metric_interval: int = 1
    max_nonfinite: int = 5

    def __post_init__(self):
        for name, least in _LOWER_BOUNDS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if len(self.plan_tuple) != 3 or min(self.plan_tuple) < 0:
            raise ConfigError(f"plan_tuple {self.plan_tuple} is not [p, r, c] >= 0")
        if self.global_batch % self.micro_batch != 0:
            raise ConfigError("global_batch must be divisible by micro_batch")
        if self.model_kind not in ("recurrent", "fixed"):
            raise ConfigError(f"unknown model_kind {self.model_kind!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype {self.dtype!r} is not float32 or float64")
        if not self.phases:
            self.phases = [{"datasets": ["plain"], "weights": [1.0],
                            "start": 0, "end": self.total_steps}]
        try:
            if self.total_steps > 0:
                validate_phases(self.phases, self.total_steps)
            build_optimizer(self.optimizer, self.optimizer_hyper)
            adapter_weights(self.adapter_init, 1, 1, "float64", RandomStream(0))
        except (ContractError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _fits(value, hint) -> bool:
    """Whether a JSON value has the annotated type: a bool is not an int,
    a float field takes an int, and `list[T]`/`dict[str, T]` check items."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, dict):
        items = value.values() if type(value) is dict else value
        return type(value) is origin and all(_fits(v, args[-1]) for v in items)
    if args:  # a union such as `str | None`
        return any(_fits(value, arg) for arg in args)
    return type(value) in ((int, float) if hint is float else (hint,))


def _build_dataclass(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)  # field name -> type
    kwargs = {}
    for name, value in data.items():
        where = f"{path}.{name}" if path else name
        if name not in hints:
            raise ConfigError(f"unknown config key '{where}'")
        sub = hints[name]
        if dataclasses.is_dataclass(sub):
            value = _build_dataclass(sub, value, where)
        elif not _fits(value, sub):
            raise ConfigError(f"{where}: {value!r} is not of type "
                              f"{sub.__name__ if type(sub) is type else sub}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ContractError) as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


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
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 decoding
        raise ConfigError(f"{path}: parse error: {exc}") from exc
    for text in overrides or []:
        key, value = _parse_override(text)
        _apply_override(data, key, value)
    return _build_dataclass(RunConfig, data, "")


def resolved_config_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)
