"""Windowing and normalization for training and evaluation.

Training windows are z-scored per node over the full context+horizon block
(statistics recorded for de-normalization). Perturbation-straddling windows
are built for the out-of-distribution protocol: the silencing onset sits at
90% of the context, pre-onset bins come from the unperturbed record, and
normalization uses context-only statistics so the horizon is never touched
on the inference path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (ArtifactMismatchError, InfeasiblePlacementError,
                     InvalidParameterError, SeriesTooShortError)
# `load_rates_csv` and `save_rates_csv` are not called here (window blocks
# are `.npy`); the benchmark's tracer wraps them by these names
from .neurosim import (PerturbationSpec, SimulationRecord, load_rates_csv,
                       load_rates_npy, save_rates_csv, save_rates_npy)

_STD_FLOOR = 1e-12


@dataclass
class TrajectoryWindow:
    """One training/evaluation example in normalized units."""

    context: np.ndarray               # (n_nodes, t_ctx)
    horizon: np.ndarray               # (n_nodes, t_hor)
    time_step: float
    norm_mean: np.ndarray             # per-node
    norm_std: np.ndarray              # per-node
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

    def denormalize(self, block: np.ndarray) -> np.ndarray:
        return block * self.norm_std[:, None] + self.norm_mean[:, None]


def _zscore(block: np.ndarray, stats_cols: slice):
    """Z-score rows of `block` using statistics from `block[:, stats_cols]`.

    Rows whose statistics window is constant keep std 1, which maps the
    stats region to exact zeros (x - mean) while leaving any remaining
    columns informative, and makes de-normalization exact.
    """
    stats = block[:, stats_cols]
    mean = stats.mean(axis=1)
    std = stats.std(axis=1)
    safe_std = np.where(std <= _STD_FLOOR, 1.0, std)
    out = (block - mean[:, None]) / safe_std[:, None]
    return out, mean, safe_std


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
        normed, mean, std = _zscore(block, slice(0, span))
        windows.append(TrajectoryWindow(
            context=normed[:, :t_ctx],
            horizon=normed[:, t_ctx:],
            time_step=time_step,
            norm_mean=mean,
            norm_std=std,
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
    from the context only (inference never reads the horizon).
    """
    if record_pre.rates.shape != record_post.rates.shape:
        raise InvalidParameterError("record pair shapes differ")
    if not np.array_equal(record_pre.bin_edges_ms, record_post.bin_edges_ms):
        raise InvalidParameterError("record pair must share bin edges")
    bin_ms = float(record_pre.bin_edges_ms[1] - record_pre.bin_edges_ms[0])
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
    normed, mean, std = _zscore(block, slice(0, t_ctx))
    return [TrajectoryWindow(
        context=normed[:, :t_ctx],
        horizon=normed[:, t_ctx:],
        time_step=bin_ms,
        norm_mean=mean,
        norm_std=std,
        source_id=f"{source_id}/pert" if source_id else "pert",
        perturbation_onset_index=pre_bins,
    )]


# ----------------------------------------------------------------------
# window sets: per-window block `.npy` and metadata JSON, listed and pinned
# by sha256 in a manifest JSON
# ----------------------------------------------------------------------
WINDOWS_FORMAT = "sheafcast-windows-v2"


def save_windows(out_dir, windows, name: str = "windows") -> Path:
    """Write windows and a manifest listing them and pinning every file
    by sha256; returns the manifest path."""
    from .config import file_hash

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries, pins = [], {}
    for i, win in enumerate(windows):
        stem = f"{name}_{i:05d}"
        block = np.concatenate([win.context, win.horizon], axis=1)
        save_rates_npy(out_dir / f"{stem}.npy", block)
        meta = {
            "source_id": win.source_id,
            "t_ctx": win.context.shape[1],
            "t_hor": win.horizon.shape[1],
            "time_step": win.time_step,
            "norm_mean": [float(x) for x in win.norm_mean],
            "norm_std": [float(x) for x in win.norm_std],
            "perturbation_onset_index": win.perturbation_onset_index,
        }
        (out_dir / f"{stem}.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1) + "\n")
        entries.append({"window": f"{stem}.npy", "meta": f"{stem}.json"})
        pins.update({f: file_hash(out_dir / f) for f in entries[-1].values()})
    manifest_path = out_dir / f"{name}_manifest.json"
    manifest_path.write_text(json.dumps(
        {"format": WINDOWS_FORMAT, "windows": entries, "sha256": pins},
        sort_keys=True, indent=1) + "\n")
    return manifest_path


def load_windows(manifest_path) -> list:
    """The windows of a manifest `save_windows` wrote. Each file is checked
    against its pinned sha256 before it is read; a changed or unpinned file,
    or a window set in the older CSV format, raises ArtifactMismatchError."""
    from .config import check_pinned

    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    manifest = json.loads(manifest_path.read_text())
    found = manifest.get("format")
    if found != WINDOWS_FORMAT:
        raise ArtifactMismatchError(
            f"{manifest_path.name} has format {found!r}, not {WINDOWS_FORMAT!r}: "
            f"window sets of CSV blocks are no longer read; save them again")
    pins = manifest.get("sha256", {})
    windows = []
    for entry in manifest["windows"]:
        meta_path = check_pinned(base, entry["meta"], pins, manifest_path.name)
        block_path = check_pinned(base, entry["window"], pins, manifest_path.name)
        meta = json.loads(meta_path.read_text())
        block = load_rates_npy(block_path)
        t_ctx, t_hor = meta["t_ctx"], meta["t_hor"]
        norm_mean, norm_std = np.array(meta["norm_mean"]), np.array(meta["norm_std"])
        if (t_ctx < 1 or t_hor < 1 or block.shape[1] != t_ctx + t_hor
                or not norm_mean.shape == norm_std.shape == block.shape[:1]):
            raise InvalidParameterError(
                f"window {entry['window']} has shape {block.shape}, but "
                f"{entry['meta']} gives t_ctx {t_ctx} + t_hor {t_hor} columns and "
                f"normalization shapes {norm_mean.shape} and {norm_std.shape}")
        windows.append(TrajectoryWindow(
            context=block[:, :t_ctx],
            horizon=block[:, t_ctx:],
            time_step=meta["time_step"],
            norm_mean=norm_mean,
            norm_std=norm_std,
            source_id=meta["source_id"],
            perturbation_onset_index=meta["perturbation_onset_index"],
        ))
    return windows
