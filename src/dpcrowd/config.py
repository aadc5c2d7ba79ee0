"""Experiment configuration: flat key-value files with dotted sections.

A config file holds one `key = value` pair per line; `#` starts a comment.
Keys use dotted sections (net.m, pid.cp, ...). Each value is parsed by its
key's type: a boolean word (true/false, yes/no, on/off, 1/0) for a bool, an
integer, a number, comma-separated numbers, or text kept as written.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

__all__ = [
    "ConfigError",
    "ALGORITHMS",
    "SEED_ENV_VAR",
    "ModelConfig",
    "DataConfig",
    "NetConfig",
    "SamplingConfig",
    "PidConfig",
    "GroupingConfig",
    "KcifConfig",
    "ExperimentConfig",
    "parse_config_text",
    "load_config",
]


class ConfigError(ValueError):
    """The configuration is malformed or inconsistent."""


ALGORITHMS = ("nonprivate", "dpcrowd", "dpcrowd_plus", "dpcrowd_w", "fast", "dfast")

SEED_ENV_VAR = "DPCROWD_SEED"


@dataclass(frozen=True)
class ModelConfig:
    d: int = 1
    a: float = 1.0
    a_offdiag: float = 0.0
    q: tuple[float, ...] = (1e5,)
    freeze_partition: bool = True


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"  # 'synthetic' | 'csv'
    path: str = ""
    initial: tuple[float, ...] = (1e5,)
    clamp: bool = True


@dataclass(frozen=True)
class NetConfig:
    m: int = 50
    rho: float = 0.3
    dynamic: bool = False
    latency_ms_center: float = 100.0
    seed: int | None = None


@dataclass(frozen=True)
class SamplingConfig:
    mode: str = "adaptive"  # 'adaptive' | 'fixed'
    interval: int = 1
    max_fraction: float = 0.3


@dataclass(frozen=True)
class PidConfig:
    cp: float = 0.9
    ci: float = 0.1
    cd: float = 0.0
    ti: int = 5
    theta: float = 2.5
    xi: float = 0.05
    delta: float = 1.0


@dataclass(frozen=True)
class GroupingConfig:
    enabled: bool = True
    eta1: float | None = None  # default 2*sqrt(2)*sensitivity/eps_avg at run time
    eta2: float = 0.5
    eta3: float | None = None  # default eta1 / 2
    tau: int = 3


@dataclass(frozen=True)
class KcifConfig:
    alpha: float = 1.0
    # consensus step; the disagreement dynamics stay contractive only while
    # beta * lambda_max(graph Laplacian) < 2, so dense graphs need it small
    beta: float = 0.01
    variance_floor: float = 1e-12
    fuse_stale_self: bool = False
    clamp_releases: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "dpcrowd"
    seed: int = 0
    timestamps: int = 1000
    users: int = 100000
    epsilon: float = 1.0
    w: int = 0
    mu: float = 0.5
    p_max: float = 0.6
    eps_max_fraction: float = 0.5
    sensitivity_c: float = 1.0
    runs: int = 1
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    net: NetConfig = field(default_factory=NetConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    pid: PidConfig = field(default_factory=PidConfig)
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    kcif: KcifConfig = field(default_factory=KcifConfig)

    def validate(self) -> None:
        # NaN fails every comparison below and inf passes most, so refuse
        # both before any range check
        for key, value in _float_entries(self):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.net.seed is not None and self.net.seed < 0:
            raise ConfigError(f"net.seed must be >= 0, got {self.net.seed}")
        if self.timestamps < 1:
            raise ConfigError("timestamps must be >= 1")
        if self.users < 1:
            raise ConfigError("users must be >= 1")
        if self.epsilon <= 0 and self.algorithm != "nonprivate":
            raise ConfigError("epsilon must be positive for private algorithms")
        if self.algorithm in ("dpcrowd_plus", "dpcrowd_w") and self.w < 1:
            raise ConfigError(f"algorithm {self.algorithm!r} needs a window w >= 1, got {self.w}")
        if self.mu <= 0:
            raise ConfigError("mu must be positive")
        if not 0.0 < self.p_max <= 1.0:
            raise ConfigError("p_max must lie in (0, 1]")
        if not 0.0 < self.eps_max_fraction <= 1.0:
            raise ConfigError("eps_max_fraction must lie in (0, 1]")
        if self.sensitivity_c <= 0:
            raise ConfigError("sensitivity_c must be positive")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.model.d < 1:
            raise ConfigError("model.d must be >= 1")
        if self.algorithm == "dpcrowd" and self.model.d != 1:
            raise ConfigError("dpcrowd runs one-dimensional streams; use dpcrowd_plus for d > 1")
        if len(self.model.q) not in (1, self.model.d):
            raise ConfigError("model.q must be scalar or one value per dimension")
        if any(q < 0 for q in self.model.q):
            raise ConfigError("model.q entries must be non-negative")
        if self.data.source not in ("synthetic", "csv"):
            raise ConfigError("data.source must be 'synthetic' or 'csv'")
        if self.data.source == "csv" and not self.data.path:
            raise ConfigError("data.source=csv needs data.path")
        if len(self.data.initial) not in (1, self.model.d):
            raise ConfigError("data.initial must be scalar or one value per dimension")
        if self.net.m < 1:
            raise ConfigError("net.m must be >= 1")
        if not 0.0 < self.net.rho <= 1.0:
            raise ConfigError("net.rho must lie in (0, 1]")
        if self.net.latency_ms_center <= 0:
            raise ConfigError("net.latency_ms_center must be positive")
        if self.sampling.mode not in ("adaptive", "fixed"):
            raise ConfigError("sampling.mode must be 'adaptive' or 'fixed'")
        if self.sampling.interval < 1:
            raise ConfigError("sampling.interval must be >= 1")
        if not 0.0 < self.sampling.max_fraction <= 1.0:
            raise ConfigError("sampling.max_fraction must lie in (0, 1]")
        if self.pid.ti < 1:
            raise ConfigError("pid.ti must be >= 1")
        if self.pid.xi <= 0:
            raise ConfigError("pid.xi must be positive")
        if self.pid.theta < 0:
            raise ConfigError(f"pid.theta must be >= 0, got {self.pid.theta}")
        if self.pid.delta <= 0:
            raise ConfigError("pid.delta must be positive")
        if self.grouping.tau < 1:
            raise ConfigError("grouping.tau must be >= 1")
        if self.grouping.eta1 is not None and self.grouping.eta1 <= 0:
            raise ConfigError("grouping.eta1 must be positive")
        if self.grouping.eta2 < 0:
            raise ConfigError("grouping.eta2 must be non-negative")
        if self.grouping.eta3 is not None and self.grouping.eta3 < 0:
            raise ConfigError("grouping.eta3 must be non-negative")
        if self.kcif.alpha <= 0:
            raise ConfigError("kcif.alpha must be positive")
        if self.kcif.beta < 0:
            raise ConfigError("kcif.beta must be non-negative")
        if self.kcif.variance_floor <= 0:
            # R_hat is a divisor: a zero-user server's is 0 in non-private runs
            raise ConfigError("kcif.variance_floor must be positive")


_SECTIONS = {
    "model": ModelConfig,
    "data": DataConfig,
    "net": NetConfig,
    "sampling": SamplingConfig,
    "pid": PidConfig,
    "grouping": GroupingConfig,
    "kcif": KcifConfig,
}


def _float_entries(cfg: ExperimentConfig):
    """(dotted key, value) for every set float field, one per tuple entry."""
    sections = [("", cfg)] + [(f"{name}.", getattr(cfg, name)) for name in _SECTIONS]
    for prefix, obj in sections:
        for name, target in _field_types(type(obj)).items():
            value = getattr(obj, name)
            if target is float and value is not None:
                yield prefix + name, value
            elif target is tuple:
                for entry in value:
                    yield prefix + name, entry


def _parse_value(raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if target_type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"expected an integer, got {raw!r}") from None
    if target_type is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"expected a number, got {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines into an ordered mapping; later keys win."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


def _field_types(cls) -> dict[str, object]:
    hints = {
        "int": int, "float": float, "bool": bool, "str": str,
        "int | None": int, "float | None": float,
        "tuple[float, ...]": tuple,
    }
    return {f.name: hints.get(str(f.type), str) for f in fields(cls)}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from flat dotted keys."""
    top_types = _field_types(ExperimentConfig)
    sections: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    top: dict[str, object] = {}
    for key, raw_value in raw.items():
        if "." in key:
            section, _, attr = key.partition(".")
        else:
            section, attr = "", key
        if section:
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section {section!r} in key {key!r}")
            types = _field_types(_SECTIONS[section])
            if attr not in types:
                raise ConfigError(f"unknown config key {key!r}")
            target = types[attr]
            if target is tuple:
                try:
                    value: object = tuple(float(v) for v in str(raw_value).split(","))
                except ValueError:
                    raise ConfigError(f"{key}: expected comma-separated numbers") from None
            else:
                value = _parse_value(str(raw_value), target)
            sections[section][attr] = value
        else:
            # a section name on its own is not a key: its fields are set one by one
            if attr not in top_types or attr in _SECTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            top[attr] = _parse_value(str(raw_value), top_types[attr])
    kwargs: dict[str, object] = dict(top)
    for name, cls in _SECTIONS.items():
        if sections[name]:
            kwargs[name] = cls(**sections[name])
    try:
        cfg = ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


def load_config(path, apply_env_seed: bool = True) -> ExperimentConfig:
    """Parse and validate a config file; DPCROWD_SEED overrides the seed."""
    with open(path) as fh:
        cfg = config_from_mapping(parse_config_text(fh.read()))
    if apply_env_seed and os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {os.environ[SEED_ENV_VAR]!r}"
            ) from None
        cfg = replace(cfg, seed=seed)
        cfg.validate()
    return cfg


def config_to_flat(cfg: ExperimentConfig) -> dict[str, object]:
    """Flatten a config back to dotted keys (report echo)."""
    out: dict[str, object] = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.name in _SECTIONS:
            for sub in fields(value):
                entry = getattr(value, sub.name)
                if isinstance(entry, tuple):
                    entry = ",".join(repr(float(v)) for v in entry)
                out[f"{f.name}.{sub.name}"] = entry
        else:
            out[f.name] = value
    return out


def apply_override(cfg: ExperimentConfig, key: str, raw_value: str) -> ExperimentConfig:
    """One dotted-key override (sweep support); returns a validated copy."""
    flat = {k: ("" if v is None else str(v)) for k, v in config_to_flat(cfg).items()}
    flat = {k: v for k, v in flat.items() if v != ""}
    # booleans flatten as 'True'/'False' which _parse_value accepts
    flat[key] = raw_value
    return config_from_mapping(flat)
