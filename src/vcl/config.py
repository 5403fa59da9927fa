"""Run configuration: typed sections, strict JSON loading, echoing.

Every knob a run can turn lives in one RunConfig tree. JSON loading is
strict: unknown keys are rejected and every diagnostic names the exact
field path (for example "loss.tau"), so a typo cannot silently fall
back to a default. A missing key means "use the default"; an empty
object is a complete, valid config. Parsing checks only JSON types,
taken from each field's default; every range check lives in the
section dataclass's ``__post_init__``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from vcl.augmentation import AugmentConfig
from vcl.datasets import GenConfig
from vcl.losses import LossConfig

OBJECTIVES = ("vcl_beta", "nt_xent_cosine")
REPARAM_MODES = ("std", "literal")
OUTLIER_MODES = ("full", "labels_only")


class ConfigError(ValueError):
    """Invalid configuration; ``field`` is the dotted path of the culprit."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}" if field_path else message)


@dataclass(frozen=True)
class ModelSection:
    hidden_dims: tuple[int, ...] = (256, 256)
    embed_dim: int = 64
    head_dim: int = 32
    reparam_mode: str = "std"

    def __post_init__(self):
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"bad hidden_dims {self.hidden_dims}")
        if self.embed_dim < 2:
            raise ValueError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.head_dim < 1:
            raise ValueError(f"head_dim must be >= 1, got {self.head_dim}")
        if self.reparam_mode not in REPARAM_MODES:
            raise ValueError(f"reparam_mode must be one of {REPARAM_MODES}")


@dataclass(frozen=True)
class DataSection:
    gen: GenConfig = field(default_factory=GenConfig)
    rho: float = 0.0
    outlier_mode: str = "full"

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.outlier_mode not in OUTLIER_MODES:
            raise ValueError(f"outlier_mode must be one of {OUTLIER_MODES}")


@dataclass(frozen=True)
class OptimSection:
    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


@dataclass(frozen=True)
class ScheduleSection:
    min_lr: float = 0.0

    def __post_init__(self):
        if self.min_lr < 0:
            raise ValueError(f"min_lr must be >= 0, got {self.min_lr}")


@dataclass(frozen=True)
class RunConfig:
    objective: str = "vcl_beta"
    steps: int = 5000
    batch_n: int = 128
    seed: int = 0
    checkpoint_every: int = 0
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    data: DataSection = field(default_factory=DataSection)
    optim: OptimSection = field(default_factory=OptimSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_n < 2:
            raise ValueError(f"batch_n must be >= 2, got {self.batch_n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.schedule.min_lr > self.optim.lr:
            # no field is wrong on its own, so name the culprit here
            raise ConfigError("schedule.min_lr", f"{self.schedule.min_lr} "
                              f"exceeds optim.lr {self.optim.lr}")
        if self.batch_n > self.data.gen.m:
            raise ValueError(
                f"batch_n {self.batch_n} exceeds dataset size {self.data.gen.m}")
        oh, ow = self.augment.crop_out
        if oh > self.data.gen.height or ow > self.data.gen.width:
            raise ValueError(
                f"crop_out {self.augment.crop_out} exceeds image size "
                f"{(self.data.gen.height, self.data.gen.width)}")


# ---------------------------------------------------------------------------
# strict JSON parsing

_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string"}


def _join(path: str, key: str) -> str:
    return ".".join(p for p in (path, key) if p)


def _value(v, default, path: str, varlen: bool = False):
    """Check ``v`` against the JSON type of a field's default; ranges are
    the dataclass's to check. A float default takes any number, a None
    default null or an integer, and a tuple default a list of its length
    (of any length when ``varlen``) whose items take its first item's type.
    A number must be finite.
    """
    if isinstance(default, tuple):
        if not isinstance(v, list) or not (varlen or len(v) == len(default)):
            size = "a" if varlen else f"a {len(default)}-element"
            raise ConfigError(path, f"expected {size} list, got {v!r}")
        return tuple(_value(x, default[0], f"{path}[{i}]")
                     for i, x in enumerate(v))
    if default is None and v is None:
        return None
    kind = int if default is None else type(default)
    accepted = (int, float) if kind is float else kind
    if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
        raise ConfigError(path, f"expected {_KINDS[kind]}, got {v!r}")
    if kind is float and not math.isfinite(v):
        # json reads NaN and Infinity, and NaN passes every range check
        raise ConfigError(path, f"expected a finite number, got {v!r}")
    return float(v) if kind is float else v


def _fails(cls, name: str, value) -> bool:
    try:
        cls(**{name: value})
    except ValueError:
        return True
    return False


def _section(cls, obj, path: str):
    """Build dataclass ``cls`` from a JSON object, every field typed by
    its default and nested sections built the same way. A ValueError of
    the constructor is blamed on the first field that fails on its own,
    else on the section, unless it is a ConfigError naming its field."""
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {obj!r}")
    kwargs, obj = {}, dict(obj)
    if cls is DataSection:
        # the generator's fields sit flat in "data" next to the section's
        names = {f.name for f in fields(GenConfig)}
        kwargs["gen"] = _section(
            GenConfig, {k: obj.pop(k) for k in list(obj) if k in names}, path)
    own = {f.name: f for f in fields(cls) if f.name not in kwargs}
    defaults = cls()
    for key, v in obj.items():
        if key not in own:
            raise ConfigError(_join(path, key), "unknown field")
        default = getattr(defaults, key)
        if is_dataclass(default):
            kwargs[key] = _section(type(default), v, _join(path, key))
        else:
            kwargs[key] = _value(v, default, _join(path, key),
                                 "..." in str(own[key].type))
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as err:
        culprit = next((f.name for f in fields(cls) if f.name in kwargs
                        and _fails(cls, f.name, kwargs[f.name])), "")
        raise ConfigError(_join(path, culprit), str(err)) from err


def parse_run_config(obj) -> RunConfig:
    return _section(RunConfig, obj, "")


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError("", f"invalid JSON: {e}") from e
    return parse_run_config(obj)


def run_config_to_dict(run: RunConfig) -> dict:
    """JSON-ready echo of a config, data section flattened like the input."""
    d = asdict(run)
    data = d.pop("data")
    d["data"] = {**data.pop("gen"), **data}
    return json.loads(json.dumps(d))
