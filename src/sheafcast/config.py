"""Run configuration: JSON document with explicit defaults and strict schema.

Every tunable the pipeline uses has a default; unknown keys are rejected
and `seed` is mandatory. Sections mirror the pipeline stages: simulate,
prior, model, train, eval. The `simulate.lif`, `model`, `train` and
`train.scheduler` entries come from the fields of the parameter
dataclasses (`LifParams`, `ModelConfig`, `TrainingConfig`,
`SchedulerConfig`), so each of those defaults is written once, in its
dataclass; the remaining entries are written here, with their lower
bounds. `validate_config` checks every domain: the seed, those bounds, and
the parameter objects, the small-world rule and the binning, which check
their own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError, InvalidParameterError
from .graphs import check_small_world
from .model import ModelConfig
from .neurosim import LifParams, bin_edges
from .training import SchedulerConfig, TrainingConfig


def _section(cls, *skip, **nested) -> dict:
    """`(type, default)` for every field of the dataclass `cls` but `skip`,
    in field order; a field named in `nested` holds that sub-section."""
    types = get_type_hints(cls)
    return {f.name: nested.get(f.name) or (types[f.name], f.default)
            for f in fields(cls) if f.name not in skip}


# `(type, default)` or `(type, default, lower bound)`
_SCHEMA = {
    "simulate": {
        "n_nodes": (int, 100),
        "small_world_k": (int, 8),
        "small_world_beta": (float, 0.1),
        "count": (int, 1, 0),
        "perturb": (bool, True),
        "bin_ms": (float, 10.0),
        "sigma_ms": (float, 20.0),
        "lif": _section(LifParams),
    },
    "prior": {
        "lag_order": (int, 3, 1),
        "top_k": (int, 8, 1),
        "ridge": (float, 1e-6, 0.0),
    },
    "model": _section(ModelConfig),
    "train": {
        **_section(TrainingConfig, "seed", scheduler=_section(SchedulerConfig)),
        "t_ctx": (int, 30, 1),
        "t_hor": (int, 10, 1),
        "stride": (int, 40, 1),
    },
    "eval": {
        "t_ctx": (int, 30, 1),
        "t_hor": (int, 10, 1),
    },
}


def default_config(seed: int) -> dict:
    """The fully explicit default configuration."""
    return validate_config({"seed": int(seed)})


def training_config(cfg: dict) -> TrainingConfig:
    """The `TrainingConfig` of a run config's `train` section and seed."""
    names = {f.name for f in fields(TrainingConfig)}
    return TrainingConfig(**{k: v for k, v in cfg["train"].items() if k in names},
                          seed=cfg["seed"])


def validate_config(raw: dict) -> dict:
    """Fill defaults, coerce numeric types, reject unknown keys and every
    value outside its domain."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("config is missing the mandatory 'seed'")
    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("'seed' must be an integer")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    def walk(schema, node, path):
        if not isinstance(node, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        unknown = set(node) - set(schema)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path or 'config'}")
        out = {}
        for key, spec in schema.items():
            child_path = f"{path}.{key}" if path else key
            if isinstance(spec, dict):
                out[key] = walk(spec, node.get(key, {}), child_path)
                continue
            kind, default, *low = spec
            value = node.get(key, default)
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if kind is int and isinstance(value, bool):
                raise ConfigError(f"{child_path} must be {kind.__name__}")
            if not isinstance(value, kind):
                raise ConfigError(f"{child_path} must be {kind.__name__}")
            if low and not value >= low[0]:
                raise ConfigError(f"{child_path} must be >= {low[0]:g}, got {value}")
            out[key] = value
        return out

    cfg = walk(_SCHEMA, {k: v for k, v in raw.items() if k != "seed"}, "")
    cfg["seed"] = seed
    # the parameter objects, the graph and the binning check their own
    # domains; a refusal is prefixed with the section it comes from
    sim = cfg["simulate"]
    checks = [
        ("train.scheduler", lambda: SchedulerConfig(**cfg["train"]["scheduler"])),
        ("train", lambda: training_config(cfg)),
        ("model", lambda: ModelConfig(**cfg["model"])),
        ("simulate.lif", lambda: LifParams(**sim["lif"])),
        ("simulate", lambda: check_small_world(
            sim["n_nodes"], sim["small_world_k"], sim["small_world_beta"])),
        ("simulate", lambda: bin_edges(
            sim["lif"]["duration_ms"], sim["bin_ms"], sim["sigma_ms"])),
    ]
    for section, check in checks:
        try:
            check()
        except InvalidParameterError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
