"""Run configuration: JSON document with explicit defaults and strict schema.

Every tunable the pipeline uses has a default; unknown keys are rejected
and `seed` is mandatory. Sections mirror the pipeline stages: simulate,
prior, model, train, eval. The `simulate.lif`, `model`, `train` and
`train.scheduler` entries come from the fields of the parameter
dataclasses (`LifParams`, `ModelConfig`, `TrainingConfig`,
`SchedulerConfig`), so each of those defaults is written once, in its
dataclass; the remaining entries are written here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .model import ModelConfig
from .neurosim import LifParams
from .training import SchedulerConfig, TrainingConfig


def _section(cls, *skip, **nested) -> dict:
    """`(type, default)` for every field of the dataclass `cls` but `skip`,
    in field order; a field named in `nested` holds that sub-section."""
    types = get_type_hints(cls)
    return {f.name: nested.get(f.name) or (types[f.name], f.default)
            for f in fields(cls) if f.name not in skip}


_SCHEMA = {
    "seed": int,
    "simulate": {
        "n_nodes": (int, 100),
        "small_world_k": (int, 8),
        "small_world_beta": (float, 0.1),
        "count": (int, 1),
        "perturb": (bool, True),
        "bin_ms": (float, 10.0),
        "sigma_ms": (float, 20.0),
        "lif": _section(LifParams),
    },
    "prior": {
        "lag_order": (int, 3),
        "top_k": (int, 8),
        "ridge": (float, 1e-6),
    },
    "model": _section(ModelConfig),
    "train": {
        **_section(TrainingConfig, "seed", scheduler=_section(SchedulerConfig)),
        "t_ctx": (int, 30),
        "t_hor": (int, 10),
        "stride": (int, 40),
    },
    "eval": {
        "t_ctx": (int, 30),
        "t_hor": (int, 10),
    },
}


def default_config(seed: int) -> dict:
    """The fully explicit default configuration."""
    def build(schema):
        out = {}
        for key, spec in schema.items():
            if key == "seed":
                continue
            if isinstance(spec, dict):
                out[key] = build(spec)
            else:
                out[key] = spec[1]
        return out

    cfg = build(_SCHEMA)
    cfg["seed"] = int(seed)
    return cfg


def validate_config(raw: dict) -> dict:
    """Fill defaults, coerce numeric types, reject unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("config is missing the mandatory 'seed'")
    if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool):
        raise ConfigError("'seed' must be an integer")

    def walk(schema, node, path):
        if not isinstance(node, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        unknown = set(node) - set(schema)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path or 'config'}")
        out = {}
        for key, spec in schema.items():
            if key == "seed":
                continue
            child_path = f"{path}.{key}" if path else key
            if isinstance(spec, dict):
                out[key] = walk(spec, node.get(key, {}), child_path)
                continue
            kind, default = spec
            value = node.get(key, default)
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if kind is int and isinstance(value, bool):
                raise ConfigError(f"{child_path} must be {kind.__name__}")
            if not isinstance(value, kind):
                raise ConfigError(f"{child_path} must be {kind.__name__}")
            out[key] = value
        return out

    top = {k: v for k, v in raw.items() if k != "seed"}
    cfg = walk({k: v for k, v in _SCHEMA.items() if k != "seed"}, top, "")
    cfg["seed"] = raw["seed"]
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


def file_hash(path) -> str:
    """sha256 of a file, read in 1 MiB blocks so that no whole file is held
    in memory."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()
