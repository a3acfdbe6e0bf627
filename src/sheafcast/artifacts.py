"""Pinned JSON artifacts: the one JSON writer of the package (so equal
content gives equal bytes), the check that a manifest is a JSON object of
its format, the sha256 of a file, and the check of a file against the
digest its manifest pins."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import ArtifactMismatchError


def write_json(path, obj) -> None:
    """`obj` as JSON with sorted keys, one-space indent and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def read_manifest(path, fmt: str, stale: str, error) -> dict:
    """The JSON object at `path`, refused with `error` (an
    ArtifactMismatchError class) unless it is valid JSON, an object, and
    has `format` `fmt`; `stale` ends the refusal of another format."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:       # invalid JSON or invalid UTF-8
        raise error(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise error(f"{path.name} holds a JSON {type(manifest).__name__}, not an object")
    found = manifest.get("format")
    if found != fmt:
        raise error(f"{path.name} has format {found!r}, not {fmt!r}: {stale}")
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
