"""Pinned JSON artifacts: the one JSON writer of the package (so equal
content gives equal bytes), the check that a manifest is a JSON object of
its format whose keys and values have the types its reader needs, the
sha256 of a file, and the check of a file against the digest its manifest
pins."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ArtifactMismatchError


def write_json(path, obj) -> None:
    """`obj` as JSON with sorted keys, one-space indent and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# the names of decoded JSON values in refusals
_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def _departure(value, spec, at: str = ""):
    """How the decoded JSON `value` found at `at` ("" is the top level)
    departs from `spec`, or None if it fits. A spec is a type (`float`
    takes integers too, `int` takes no booleans, `type(None)` is null),
    `[item]` for a list of items, `[item, item, ...]` for a list of exactly
    that many, `{key: spec}` for an object of exactly these keys,
    `{str: spec}` for an object of any keys, or a tuple of alternatives."""
    alternatives = spec if isinstance(spec, tuple) else (spec,)
    kinds = [type(alt) if isinstance(alt, (list, dict)) else alt for alt in alternatives]
    found = type(value)
    if found not in kinds and not (found is int and float in kinds):
        wanted = " or ".join(_JSON_NAMES[kind] for kind in kinds)
        return f"{at or 'the top level'} is {_JSON_NAMES[found]}, not {wanted}"
    spec = alternatives[kinds.index(found if found in kinds else float)]
    prefix = f"{at}." if at else ""
    if isinstance(spec, list):
        if len(spec) > 1 and len(value) != len(spec):
            return f"{at or 'the top level'} has {len(value)} items, not {len(spec)}"
        items = [(item, spec[min(i, len(spec) - 1)], f"{at}[{i}]") for i, item in enumerate(value)]
    elif isinstance(spec, dict) and str in spec:
        items = [(item, spec[str], prefix + key) for key, item in value.items()]
    elif isinstance(spec, dict):
        missing, unknown = sorted(spec.keys() - value.keys()), sorted(value.keys() - spec.keys())
        if missing or unknown:
            return (f"{at or 'the top level'} lacks keys {missing} "
                    f"and has unknown keys {unknown}")
        items = [(value[key], spec[key], prefix + key) for key in sorted(spec)]
    else:
        return None
    return next(filter(None, (_departure(*item) for item in items)), None)


def read_manifest(path, fmt, stale: str, error, schema=None) -> dict:
    """The JSON object at `path`, refused with `error` (an
    ArtifactMismatchError class) unless it is valid JSON, an object, has
    `format` `fmt` (None: any) and, if a `schema` (a spec as `_departure`
    reads it) is given, fits it; `stale` ends the refusal of another format."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:       # invalid JSON or invalid UTF-8
        raise error(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise error(f"{path.name} holds a JSON {type(manifest).__name__}, not an object")
    found = manifest.get("format")
    if fmt is not None and found != fmt:
        raise error(f"{path.name} has format {found!r}, not {fmt!r}: {stale}")
    departure = None if schema is None else _departure(manifest, schema)
    if departure is not None:
        raise error(f"{path.name} is malformed: {departure}")
    return manifest


def file_hash(path) -> str:
    """sha256 of a file, read in 1 MiB blocks so that no whole file is held
    in memory."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def check_pinned(base: Path, name: str, pins: dict, manifest: str) -> Path:
    """`base / name`, refused unless its sha256 is the digest that `pins`
    (file name -> sha256, read from `manifest`) gives for `name`. A removed
    file raises FileNotFoundError; an unpinned or changed one
    ArtifactMismatchError."""
    path = Path(base) / name
    digest = pins.get(name)
    if digest is None:
        raise ArtifactMismatchError(f"{name} is not pinned in {manifest}")
    if file_hash(path) != digest:
        raise ArtifactMismatchError(f"{name} does not match the sha256 pinned in {manifest}")
    return path
