"""Run configuration: JSON document with explicit defaults and strict schema.

Every tunable the pipeline uses has a default; unknown keys are rejected
and `seed` is mandatory. Sections mirror the pipeline stages: simulate,
prior, model, train, eval. The `simulate.lif`, `model`, `train` and
`train.scheduler` entries come from the fields of the parameter
dataclasses (`LifParams`, `ModelConfig`, `TrainingConfig`,
`SchedulerConfig`), so each of those defaults is written once, in its
dataclass; the remaining entries are written here, with their lower
bounds. `validate_config` checks each value's type, and that a number is
finite, with `artifacts.departure`, the check of every artifact; then
every domain: those bounds, and the parameter objects, the small-world
rule and the binning, which check their own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import get_type_hints

from .artifacts import departure, read_json
from .errors import ConfigError, InvalidParameterError
from .graphs import check_small_world
from .model import ModelConfig
from .neurosim import LifParams, bin_count
from .training import SchedulerConfig, TrainingConfig


def _section(cls, *skip, **nested) -> dict:
    """`(type, default)` for every field of the dataclass `cls` but `skip`,
    in field order; a field named in `nested` holds that sub-section."""
    types = get_type_hints(cls)
    return {f.name: nested.get(f.name) or (types[f.name], f.default)
            for f in fields(cls) if f.name not in skip}


# `(type, default)` or `(type, default, lower bound)`; a default of None
# makes the key mandatory
_SCHEMA = {
    "seed": (int, None, 0),
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
    """Fill defaults, coerce integers given for floats, reject unknown keys
    and every value of another type (`artifacts.departure`) or outside its
    domain."""

    def walk(schema, node, path):
        if fault := departure(node, dict, path or "config"):
            raise ConfigError(fault)
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
            if default is None and key not in node:
                raise ConfigError(f"config is missing the mandatory {key!r}")
            value = node.get(key, default)
            if fault := departure(value, kind, child_path):
                raise ConfigError(fault)
            value = kind(value)         # an integer given for a float becomes one
            if low and not value >= low[0]:
                raise ConfigError(f"{child_path} must be >= {low[0]:g}, got {value}")
            out[key] = value
        return out

    cfg = walk(_SCHEMA, raw, "")
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
        ("simulate", lambda: bin_count(sim["lif"]["duration_ms"], sim["bin_ms"],
                                       sim["sigma_ms"], sim["lif"]["dt_ms"])),
    ]
    for section, check in checks:
        try:
            check()
        except InvalidParameterError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return cfg


def load_config(path) -> dict:
    return validate_config(read_json(path, ConfigError))


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
