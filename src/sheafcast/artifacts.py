"""Pinned artifacts: the one JSON reader and writer of the package (so
equal content gives equal bytes), the one type check of decoded JSON (the
run config's too), the check that a manifest is an object of its format
that fits its schema, the one `.npy` writer and reader (C-ordered float64
arrays only, each at the shape its caller's listing gives), the sha256 of
a file, and the check of a file against the digest its manifest pins."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ArtifactMismatchError


def write_json(path, obj) -> None:
    """`obj` as JSON with sorted keys, one-space indent and a final newline;
    a number that is not finite, which no reader takes, raises ValueError."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n")


def read_json(path, error):
    """The decoded JSON file `path`; invalid JSON or UTF-8 raises `error`."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise error(f"{path.name} is not valid JSON: {exc}") from exc


# the names of decoded JSON values in refusals
_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def departure(value, spec, at: str = ""):
    """How the decoded JSON `value` found at `at` ("" is the top level)
    departs from `spec`, or None if it fits. A spec is a type (`float`
    takes integers too, `int` takes no booleans, `type(None)` is null),
    `[item]` for a list of items, `[item, item, ...]` for a list of exactly
    that many, `{key: spec}` for an object of exactly these keys, `{str:
    spec}` for an object of any keys, or a tuple of alternatives. No spec
    fits a value of no JSON type, nor `float` a number that is not finite
    (NaN, an infinity, or an integer past the float range)."""
    where = at or "the top level"
    alternatives = spec if isinstance(spec, tuple) else (spec,)
    kinds = [type(alt) if isinstance(alt, (list, dict)) else alt for alt in alternatives]
    found = type(value)
    if found not in _JSON_NAMES:
        return f"{where} is of type {found.__name__}, which JSON does not decode to"
    if found not in kinds and not (found is int and float in kinds):
        wanted = " or ".join(_JSON_NAMES[kind] for kind in kinds)
        return f"{where} is {_JSON_NAMES[found]}, not {wanted}"
    if found in (int, float) and float in kinds and not abs(value) <= sys.float_info.max:
        return f"{where} is {value}, not a finite number"
    spec = alternatives[kinds.index(found if found in kinds else float)]
    prefix = f"{at}." if at else ""
    if isinstance(spec, list):
        if len(spec) > 1 and len(value) != len(spec):
            return f"{where} has {len(value)} items, not {len(spec)}"
        items = [(item, spec[min(i, len(spec) - 1)], f"{at}[{i}]") for i, item in enumerate(value)]
    elif isinstance(spec, dict) and str in spec:
        items = [(item, spec[str], prefix + key) for key, item in value.items()]
    elif isinstance(spec, dict):
        missing, unknown = sorted(spec.keys() - value.keys()), sorted(value.keys() - spec.keys())
        if missing or unknown:
            return f"{where} lacks keys {missing} and has unknown keys {unknown}"
        items = [(value[key], spec[key], prefix + key) for key in sorted(spec)]
    else:
        return None
    return next(filter(None, (departure(*item) for item in items)), None)


def read_manifest(path, fmt, stale: str, schema) -> dict:
    """The JSON object at `path` (`read_json`), refused with an
    ArtifactMismatchError unless it has `format` `fmt` (None: any) and fits
    `schema`, an object spec as `departure` reads it; `stale` ends the
    refusal of another format."""
    path = Path(path)
    manifest = read_json(path, ArtifactMismatchError)
    if fmt is not None and isinstance(manifest, dict) and manifest.get("format") != fmt:
        raise ArtifactMismatchError(
            f"{path.name} has format {manifest.get('format')!r}, not {fmt!r}: {stale}")
    if (fault := departure(manifest, schema)) is not None:
        raise ArtifactMismatchError(f"{path.name} is malformed: {fault}")
    return manifest


def save_array(path, array) -> str:
    """Write `array` as the `.npy` of a C-ordered little-endian float64
    array (no copy if it is one; 0-d stays 0-d); returns the file's sha256."""
    np.save(path, np.asarray(array, dtype="<f8", order="C"), allow_pickle=False)
    return file_hash(path)


def read_array(path, shape=None) -> np.ndarray:
    """The array of an `.npy` file, read as `np.load` reads one (no second
    copy); anything but a C-ordered float64 array, or one of another shape
    than `shape` (None: any), raises ArtifactMismatchError."""
    with open(path, "rb") as fh:
        try:
            array = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:       # not an .npy, cut short, or pickled objects
            raise ArtifactMismatchError(f"{Path(path).name} is not an .npy file: "
                                        + " ".join(str(exc).split())) from exc
    if array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ArtifactMismatchError(f"{Path(path).name} is not a C-ordered float64 array "
                                    f"({array.dtype}, C-ordered: {array.flags.c_contiguous})")
    if shape is not None and array.shape != shape:
        raise ArtifactMismatchError(f"{Path(path).name} holds a {array.shape} array, not the "
                                    f"{shape} its listing gives")
    return array


def file_hash(path) -> str:
    """sha256 of a file, read in 1 MiB blocks so that no whole file is held
    in memory."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def check_pinned(base: Path, name: str, pins: dict, manifest: str) -> Path:
    """`base / name`, refused unless `name` is a plain, printable file name
    (no NUL, newline or other control character), so every read stays inside
    `base`, and its sha256 is the digest that `pins` (file name -> sha256,
    read from `manifest`) gives for it. A removed file raises
    FileNotFoundError; any other refusal is ArtifactMismatchError."""
    if name in ("", ".", "..") or "/" in name or not name.isprintable():
        raise ArtifactMismatchError(f"{manifest} names {name!r}, not a file name in its directory")
    path = Path(base) / name
    digest = pins.get(name)
    if digest is None:
        raise ArtifactMismatchError(f"{name} is not pinned in {manifest}")
    if file_hash(path) != digest:
        raise ArtifactMismatchError(f"{name} does not match the sha256 pinned in {manifest}")
    return path
