"""Experiment configuration: flat key=value files plus overrides.

Precedence is command line > config file > defaults.  The fully resolved
config serialises back to the same format; parse(serialize(c)) == c, and the
serialised form is what gets echoed into every output directory and hashed
into output headers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from treestop.cart import GrowConfig
from treestop.ensemble import GbmSpec, TRAIN_LABEL, gbm_chunks, generate_gbm
from treestop.reward import MAX_CALL_BARRIER, PUT, RewardSpec
from treestop.stopper import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, with benchmark-style defaults."""

    kind: str = PUT                 # put | max_call | max_call_barrier
    dim: int = 1
    x0: float = 100.0
    mu: float = 0.05
    rate: float = 0.05
    strike: float = 100.0
    sigma: float = 0.2
    vol_mode: str = "symmetric"     # symmetric | asymmetric | explicit
    vols: str = ""                  # comma-separated per-coordinate vols (explicit mode)
    maturity: float = 1.0
    steps: int = 50
    barrier: float = 0.0            # knock-out level; 0 means unused
    k_train: int = 50000
    k_test: int = 50000
    seed_train: int = 1001
    seed_test: int = 2002
    seed_bagging: int = 3003
    bags: int = 10
    max_depth: int = 10
    min_node_size: int = 10
    splitter: str = "delta"
    feature_mode: str = "raw"
    with_ls: bool = False
    with_boundary: bool = False
    reference: float = 0.0          # published value for delta reporting; 0 means unused
    out: str = "out"

    # -- domain object builders ---------------------------------------------

    def gbm_spec(self) -> GbmSpec:
        if self.vol_mode == "asymmetric":
            return GbmSpec.asymmetric(self.dim, self.x0, self.mu, self.maturity, self.steps)
        if self.vol_mode == "symmetric":
            return GbmSpec.symmetric(self.dim, self.x0, self.mu, self.sigma,
                                     self.maturity, self.steps)
        if self.vol_mode == "explicit":
            try:
                vols = np.array([float(v) for v in self.vols.split(",")])
            except ValueError as exc:
                raise ConfigError(f"field vols: expected comma-separated floats, "
                                  f"got {self.vols!r}") from exc
            return GbmSpec(self.dim, self.x0, self.mu, vols, self.maturity, self.steps)
        raise ConfigError(f"field vol_mode: unknown value {self.vol_mode!r}")

    def reward_spec(self) -> RewardSpec:
        barrier = self.barrier if self.kind == MAX_CALL_BARRIER else None
        if self.kind == MAX_CALL_BARRIER and self.barrier <= 0:
            raise ConfigError("field barrier: knock-out experiments need barrier > 0")
        return RewardSpec(self.kind, self.rate, self.strike, self.maturity,
                          self.steps, barrier)

    def train_config(self) -> TrainConfig:
        gc = GrowConfig(self.max_depth, self.min_node_size, self.splitter)
        return TrainConfig(self.bags, gc, self.feature_mode, self.seed_bagging)

    def num_paths(self, label: str) -> int:
        return self.k_train if label == TRAIN_LABEL else self.k_test

    def _gbm_args(self, label: str) -> tuple:
        seed = self.seed_train if label == TRAIN_LABEL else self.seed_test
        return self.gbm_spec(), self.num_paths(label), seed, label, self.reward_spec().barrier

    def make_ensemble(self, label: str):
        return generate_gbm(*self._gbm_args(label))

    def ensemble_chunks(self, label: str):
        """The ``label`` ensemble in path chunks of its one stream (see ``gbm_chunks``)."""
        return gbm_chunks(*self._gbm_args(label))

    # -- serialisation -------------------------------------------------------

    def serialize(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:12]


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _convert(name: str, raw: str, where: str):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"{where}: unknown field {name!r}")
    kind = _FIELD_TYPES[name]
    try:
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: field {name!r} expects {kind}, got {raw!r}") from exc


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        name, raw = (part.strip() for part in stripped.split("=", 1))
        updates[name] = _convert(name, raw, f"line {lineno}")
    return replace(cfg, **updates)


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read a config file, then apply ``key=value`` override strings."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path) as fh:
            cfg = parse_config_text(fh.read())
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        name, raw = (part.strip() for part in item.split("=", 1))
        cfg = replace(cfg, **{name: _convert(name, raw, f"override {item!r}")})
    return cfg
