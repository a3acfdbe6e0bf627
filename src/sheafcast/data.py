"""Windowing and normalization for training and evaluation.

Training windows are z-scored per node over the full context+horizon
block. Perturbation-straddling windows are built for the
out-of-distribution protocol: the silencing onset sits at 90% of the
context, pre-onset bins come from the unperturbed record, and
normalization uses context-only statistics so the horizon is never touched
on the inference path; a context std below 0.1 Hz counts as 0.1 Hz there,
so a near-silent context row cannot blow up its horizon's z-scores. A
window keeps no statistics: forecasts are scored in normalized units.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .artifacts import check_pinned, read_array, read_manifest, save_array, write_json
from .errors import (ArtifactMismatchError, InfeasiblePlacementError, InvalidParameterError,
                     SeriesTooShortError)
# `load_rates_csv` and `save_rates_csv` are not called here (window blocks
# are `.npy`); the benchmark's tracer wraps them by these names
from .neurosim import PerturbationSpec, SimulationRecord, load_rates_csv, save_rates_csv

_STD_FLOOR = 1e-12
# in evaluation windows, the smallest std (Hz) a non-constant context row is
# scaled by: a near-silent context row whose horizon fires would otherwise
# z-score to hundreds
_CONTEXT_STD_FLOOR_HZ = 0.1


@dataclass
class TrajectoryWindow:
    """One training/evaluation example in normalized units."""

    context: np.ndarray               # (n_nodes, t_ctx)
    horizon: np.ndarray               # (n_nodes, t_hor)
    time_step: float
    source_id: str = ""
    perturbation_onset_index: Optional[int] = None

    def __post_init__(self):
        self.context = np.asarray(self.context, dtype=np.float64)
        self.horizon = np.asarray(self.horizon, dtype=np.float64)
        if self.context.shape[0] != self.horizon.shape[0]:
            raise InvalidParameterError("context/horizon node counts differ")
        if not (np.all(np.isfinite(self.context)) and np.all(np.isfinite(self.horizon))):
            raise InvalidParameterError("window contains non-finite values")

    @property
    def n_nodes(self) -> int:
        return self.context.shape[0]

    @property
    def is_perturbed(self) -> bool:
        return self.perturbation_onset_index is not None


def _zscore(block: np.ndarray, stats_cols: slice, floor: float = 0.0) -> np.ndarray:
    """Z-score rows of `block` using statistics from `block[:, stats_cols]`.

    Rows whose statistics window is constant keep std 1, which maps the
    stats region to exact zeros (x - mean) while leaving any remaining
    columns informative. Any other row's std is raised to at least `floor`.
    """
    stats = block[:, stats_cols]
    mean = stats.mean(axis=1)
    std = stats.std(axis=1)
    safe_std = np.where(std <= _STD_FLOOR, 1.0, np.maximum(std, floor))
    return (block - mean[:, None]) / safe_std[:, None]


def make_windows(series: np.ndarray, t_ctx: int = 30, t_hor: int = 10,
                 stride: int = 40, time_step: float = 1.0,
                 source_id: str = "") -> list:
    """Slice a (nodes x time) series into per-window z-scored examples.

    Statistics are taken over the full t_ctx + t_hor block of each window,
    which is the training-path normalization.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise InvalidParameterError("series must be 2-D (nodes x time)")
    if t_ctx < 1 or t_hor < 1 or stride < 1:
        raise InvalidParameterError("t_ctx, t_hor, stride must be positive")
    n, t_len = series.shape
    span = t_ctx + t_hor
    if t_len < span:
        raise SeriesTooShortError(f"series length {t_len} < window span {span}")

    windows = []
    for w, start in enumerate(range(0, t_len - span + 1, stride)):
        block = series[:, start:start + span]
        normed = _zscore(block, slice(0, span))
        windows.append(TrajectoryWindow(
            context=normed[:, :t_ctx],
            horizon=normed[:, t_ctx:],
            time_step=time_step,
            source_id=f"{source_id}/w{w:03d}" if source_id else f"w{w:03d}",
        ))
    return windows


def make_perturbed_windows(record_pre: SimulationRecord,
                           record_post: SimulationRecord,
                           spec: PerturbationSpec,
                           t_ctx: int = 30, t_hor: int = 10,
                           source_id: str = "") -> list:
    """Build the onset-straddling evaluation window for one record pair.

    The context holds floor(0.9 * t_ctx) pre-onset bins from the unperturbed
    record followed by post-onset bins from the perturbed record; the horizon
    is entirely post-onset perturbed activity. Normalization statistics come
    from the context only (inference never reads the horizon), with each
    row's std floored at `_CONTEXT_STD_FLOOR_HZ`.
    """
    if record_pre.rates.shape != record_post.rates.shape:
        raise InvalidParameterError("record pair shapes differ")
    if record_pre.bin_ms != record_post.bin_ms:
        raise InvalidParameterError("record pair must share their bin width")
    bin_ms = record_pre.bin_ms
    onset_bin = int(spec.onset_ms // bin_ms)
    pre_bins = int(np.floor(0.9 * t_ctx))
    start = onset_bin - pre_bins
    end = start + t_ctx + t_hor
    n_bins = record_pre.rates.shape[1]
    if start < 0 or end > n_bins:
        raise InfeasiblePlacementError(
            f"onset bin {onset_bin} too close to the series boundary for "
            f"t_ctx={t_ctx}, t_hor={t_hor}")

    block = np.concatenate([
        record_pre.rates[:, start:onset_bin],
        record_post.rates[:, onset_bin:end],
    ], axis=1)
    normed = _zscore(block, slice(0, t_ctx), _CONTEXT_STD_FLOOR_HZ)
    return [TrajectoryWindow(
        context=normed[:, :t_ctx],
        horizon=normed[:, t_ctx:],
        time_step=bin_ms,
        source_id=f"{source_id}/pert" if source_id else "pert",
        perturbation_onset_index=pre_bins,
    )]


# ----------------------------------------------------------------------
# window sets: per window the C-ordered (nodes, context + horizon) block
# `.npy`, listed with its metadata and pinned by sha256 in one manifest JSON
# ----------------------------------------------------------------------
WINDOWS_FORMAT = "sheafcast-windows-v5"
# the keys and value types of the manifest `save_windows` writes
_WINDOWS_SCHEMA = {
    "format": str, "sha256": {str: str},
    "windows": [{"window": str, "source_id": str, "n_nodes": int, "t_ctx": int, "t_hor": int,
                 "time_step": float, "perturbation_onset_index": (int, type(None))}]}


def save_windows(out_dir, windows) -> Path:
    """Write each window's C-ordered (nodes, t_ctx + t_hor) block and
    `windows_manifest.json`, which holds every window's metadata beside its
    block name and pins every block by sha256; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries, pins = [], {}
    for i, win in enumerate(windows):
        name = f"windows_{i:05d}.npy"
        pins[name] = save_array(out_dir / name, np.concatenate([win.context, win.horizon], axis=1))
        entries.append({"window": name, "source_id": win.source_id, "n_nodes": win.n_nodes,
                        "t_ctx": win.context.shape[1], "t_hor": win.horizon.shape[1],
                        "time_step": win.time_step,
                        "perturbation_onset_index": win.perturbation_onset_index})
    manifest_path = out_dir / "windows_manifest.json"
    write_json(manifest_path, {"format": WINDOWS_FORMAT, "windows": entries, "sha256": pins})
    return manifest_path


def load_windows(manifest_path) -> list:
    """The windows of a manifest `save_windows` wrote. Each block is checked
    against its pinned sha256 before it is read, C-ordered, at the (n_nodes,
    t_ctx + t_hor) shape its entry gives; a malformed manifest, one of an
    older format, an entry with a size below 1, or a changed, unpinned or
    differently shaped block raises ArtifactMismatchError."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(
        manifest_path, WINDOWS_FORMAT,
        "window sets of CSV blocks, per-window JSON files, time-major blocks or "
        "normalization statistics are no longer read; save them again", _WINDOWS_SCHEMA)
    windows = []
    for entry in manifest["windows"]:
        n_nodes, t_ctx, t_hor = entry["n_nodes"], entry["t_ctx"], entry["t_hor"]
        if min(n_nodes, t_ctx, t_hor) < 1:
            raise ArtifactMismatchError(
                f"{manifest_path.name} gives {entry['window']} n_nodes {n_nodes}, t_ctx "
                f"{t_ctx} and t_hor {t_hor}, not each at least 1")
        block = read_array(check_pinned(manifest_path.parent, entry["window"],
                                        manifest["sha256"], manifest_path.name),
                           (n_nodes, t_ctx + t_hor))
        windows.append(TrajectoryWindow(
            context=block[:, :t_ctx], horizon=block[:, t_ctx:], time_step=entry["time_step"],
            source_id=entry["source_id"],
            perturbation_onset_index=entry["perturbation_onset_index"]))
    return windows
