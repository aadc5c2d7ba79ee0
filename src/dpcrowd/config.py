"""Experiment configuration: flat key-value files with dotted sections.

A config file holds one `key = value` pair per line; `#` starts a comment.
Keys use dotted sections (net.m, pid.cp, ...). Each value is parsed by its
key's type: a boolean word (true/false, yes/no, on/off, 1/0) for a bool, an
integer, a number, comma-separated numbers, or text kept as written.
Each key is declared once, as a dataclass field, and read through `_KEYS`;
each algorithm once, as a `_Policy` row.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .datasets import read_text
from .privacy import allocate_adaptive, allocate_uniform

__all__ = [
    "ConfigError", "ALGORITHMS", "SEED_ENV_VAR", "ModelConfig", "DataConfig", "NetConfig",
    "SamplingConfig", "PidConfig", "GroupingConfig", "KcifConfig", "ExperimentConfig",
    "parse_config_text", "load_config",
]


class ConfigError(ValueError):
    """The configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class _Policy:
    private: bool = False  # perturbed, budget-charged observations
    w_event: bool = False  # ledger window w (w-event), else the whole run (user-level, w = T)
    adaptive: bool = False  # w-event budget allocation, budget-aware intervals, grouping
    communicate: bool = False  # one-hop consensus exchange
    flood: bool = False  # network-wide flooding and unweighted averaging
    window_restart: bool = False  # restart filters/schedules every w timestamps


# A non-private policy runs on raw aggregates, sampled every timestamp.
# adaptive turns on the budget-driven allocation, the budget-aware interval
# law and (unless grouping.enabled is false) dynamic grouping.
_POLICIES = {
    "nonprivate": _Policy(communicate=True),
    "dpcrowd": _Policy(private=True, communicate=True),
    "dpcrowd_plus": _Policy(private=True, w_event=True, adaptive=True, communicate=True),
    "dpcrowd_w": _Policy(private=True, w_event=True, communicate=True, window_restart=True),
    "fast": _Policy(private=True),
    "dfast": _Policy(private=True, flood=True),
}

ALGORITHMS = tuple(_POLICIES)

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

    def planned_samples(self, length: int) -> int:
        """Sampling-point budget of a uniform policy over `length` timestamps."""
        if self.mode == "fixed":
            return math.ceil(length / self.interval)
        return max(1, math.floor(self.max_fraction * length))


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
    # only false is valid (validate); the key stays so that the report's
    # config echo keeps its fields
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
        for key, (_, _, kind) in _KEYS.items():
            value = _get(self, key)
            for entry in value if kind is tuple else (value,) if kind is float else ():
                if entry is not None and not math.isfinite(entry):
                    raise ConfigError(f"{key} must be a finite number, got {entry!r}")
        policy = _POLICIES.get(self.algorithm)
        if policy is None:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.net.seed is not None and self.net.seed < 0:
            raise ConfigError(f"net.seed must be >= 0, got {self.net.seed}")
        if self.timestamps < 1:
            raise ConfigError("timestamps must be >= 1")
        if self.users < 1:
            raise ConfigError("users must be >= 1")
        if self.epsilon <= 0 and policy.private:
            raise ConfigError("epsilon must be positive for private algorithms")
        if policy.w_event and self.w < 1:
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
        # a flood's latency sums up to net.m rounds of at most 1.2 c each (a
        # one-hop exchange is one round); a factor of two covers the rounding
        if not math.isfinite(2.0 * (self.net.m * (1.2 * self.net.latency_ms_center))):
            raise ConfigError(
                f"net.latency_ms_center = {self.net.latency_ms_center:g} overflows with"
                f" net.m = {self.net.m}: a flood's latency sums up to net.m rounds of"
                " 1.2 * net.latency_ms_center, and twice that must be finite"
            )
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
        # a negative gain or theta inverts the feedback of the interval law
        for key in ("pid.cp", "pid.ci", "pid.cd", "pid.theta"):
            value = _get(self, key)
            if value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
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
        if self.kcif.fuse_stale_self:
            raise ConfigError(
                "kcif.fuse_stale_self = true is not supported: it fuses a server's previous"
                " release as fresh evidence at each skipped timestamp, and the estimates diverge"
            )
        # the default grouping.eta1 divides by the mean budget epsilon / w
        eta1_default = policy.adaptive and self.grouping.enabled and self.grouping.eta1 is None
        if eta1_default and self.epsilon / self.w == 0:
            raise ConfigError(
                f"epsilon / w underflows to 0 (epsilon = {self.epsilon!r}, w = {self.w}), so the"
                " default grouping.eta1 has no value"
            )
        if eta1_default and self.grouping_eta1() == 0:
            raise ConfigError(
                "the default grouping.eta1, 2 * sqrt(2) * sensitivity_c / (epsilon / w),"
                f" underflows to 0 (sensitivity_c = {self.sensitivity_c!r},"
                f" epsilon = {self.epsilon!r}, w = {self.w}); set grouping.eta1"
            )
        if policy.private:
            self._check_grants(policy)

    def grouping_eta1(self) -> float:
        """grouping.eta1, or by default twice the standard deviation of the
        Laplace noise at the mean per-timestamp budget epsilon / w."""
        if self.grouping.eta1 is not None:
            return self.grouping.eta1
        return 2.0 * math.sqrt(2.0) * self.sensitivity_c / (self.epsilon / self.w)

    def _check_grants(self, policy: _Policy) -> None:
        """Refuse a private run whose grants leave no sample or no noise.

        Every pair is due at t = 1, and no later grant is smaller: a later
        uniform block plans no more samples than the first, and an adaptive
        grant at interval 1 is the smallest share of a fresh window. A run
        that cannot take that sample releases zeros and exits 0.

        The largest grant a policy can make is epsilon over the fewest
        planned samples of any block (uniform), or at most p_max * epsilon
        and eps_max_fraction * epsilon (adaptive). Every other grant is
        smaller, so its noise scale sensitivity_c / grant is larger: where
        that scale is positive at the largest grant, it is at every grant.
        """
        if policy.adaptive:
            grant = allocate_adaptive(
                self.epsilon, 1, self.mu, self.p_max, self.epsilon * self.eps_max_fraction
            )
            how = (f"min(mu * ln 2, p_max) * epsilon, at most eps_max_fraction * epsilon"
                   f" (epsilon = {self.epsilon!r})")
            largest = min(self.p_max * self.epsilon, self.epsilon * self.eps_max_fraction)
            most = "min(p_max, eps_max_fraction) * epsilon"
        else:
            block = self.w if policy.window_restart else self.timestamps
            planned = self.sampling.planned_samples(min(block, self.timestamps))
            grant = allocate_uniform(self.epsilon, planned)
            how = f"epsilon = {self.epsilon!r} over {planned} planned samples"
            # the last block is the shortest, where it is cut short
            fewest = self.sampling.planned_samples(self.timestamps % block or block)
            largest = allocate_uniform(self.epsilon, fewest)
            most = f"epsilon over {fewest} planned samples"
        if grant == 0:
            raise ConfigError(
                f"the first sample's budget, {how}, underflows to 0, so the run could not sample"
            )
        if self.sensitivity_c / largest == 0:
            raise ConfigError(
                f"the noise scale sensitivity_c / grant underflows to 0 at the largest grant,"
                f" {most} (sensitivity_c = {self.sensitivity_c!r}, epsilon = {self.epsilon!r}),"
                " so no sample could be perturbed"
            )


# section name -> its dataclass, in field order
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.default_factory is not MISSING}

# the value kind of each annotation; an optional key is unset when None
_KINDS = {"int": int, "float": float, "bool": bool, "str": str, "int | None": int,
          "float | None": float, "tuple[float, ...]": tuple}

# dotted key -> (section or "", field, kind), in report echo order
_KEYS: dict[str, tuple[str, str, type]] = {
    f"{section}.{f.name}" if section else f.name: (section, f.name, _KINDS[f.type])
    for section, cls in (("", ExperimentConfig), *_SECTIONS.items())
    for f in fields(cls)
    if section or f.name not in _SECTIONS
}


def _get(cfg: ExperimentConfig, key: str):
    section, name, _ = _KEYS[key]
    return getattr(getattr(cfg, section) if section else cfg, name)


def _lookup(key: str) -> tuple[str, str, type]:
    """The table entry of a dotted key; an unknown key or section is a ConfigError."""
    if key in _KEYS:
        return _KEYS[key]
    section, dot, _ = key.partition(".")
    if dot and section not in _SECTIONS:
        raise ConfigError(f"unknown config section {section!r} in key {key!r}")
    # a section name on its own is not a key: its fields are set one by one
    raise ConfigError(f"unknown config key {key!r}")


def _parse_value(label: str, raw: str, kind: type):
    """One raw value as its key's kind; errors name the key (or other source) `label`."""
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{label}: expected a boolean, got {raw!r}")
    if kind is tuple:
        try:
            return tuple(float(v) for v in raw.split(","))
        except ValueError:
            raise ConfigError(f"{label}: expected comma-separated numbers") from None
    try:
        return kind(raw)
    except ValueError:  # str takes any text, so kind is int or float here
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{label}: expected {expected}, got {raw!r}") from None


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


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from flat dotted keys."""
    values: dict[str, dict[str, object]] = {"": {}, **{name: {} for name in _SECTIONS}}
    for key, raw_value in raw.items():
        section, name, kind = _lookup(key)
        values[section][name] = _parse_value(key, str(raw_value), kind)
    top = values.pop("")
    sections = {name: _SECTIONS[name](**kwargs) for name, kwargs in values.items() if kwargs}
    cfg = ExperimentConfig(**top, **sections)
    cfg.validate()
    return cfg


def load_config(path, apply_env_seed: bool = True) -> ExperimentConfig:
    """Parse and validate a config file; DPCROWD_SEED overrides the seed."""
    cfg = config_from_mapping(parse_config_text(read_text(path, ConfigError)))
    if apply_env_seed and os.environ.get(SEED_ENV_VAR):
        seed = _parse_value(SEED_ENV_VAR, os.environ[SEED_ENV_VAR], _KEYS["seed"][2])
        cfg = replace(cfg, seed=seed)
        cfg.validate()
    return cfg


def config_to_flat(cfg: ExperimentConfig) -> dict[str, object]:
    """Flatten a config back to dotted keys (report echo)."""
    return {
        key: ",".join(repr(float(v)) for v in _get(cfg, key)) if kind is tuple else _get(cfg, key)
        for key, (_, _, kind) in _KEYS.items()
    }


def apply_override(cfg: ExperimentConfig, key: str, raw_value: str) -> ExperimentConfig:
    """One dotted-key override (sweep support); returns a validated copy."""
    section, name, kind = _lookup(key)
    value = _parse_value(key, str(raw_value), kind)
    if section:
        value = replace(getattr(cfg, section), **{name: value})
    cfg = replace(cfg, **{section or name: value})
    cfg.validate()
    return cfg
