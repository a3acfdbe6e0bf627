"""Forecast evaluation: MSE, MAE, and normalized dynamic time warping.

The DTW variant reported here is the minimum over every monotone warping
path (steps right, down, diagonal; endpoints pinned) of the path's total
|a_u - b_v| cost divided by the number of cells it visits. Normalizing by
path cells makes scores comparable across horizon lengths, and taking the
minimum of the normalized cost makes the value well defined when several
paths tie on raw cost. Multivariate windows are scored per node and
averaged; one band-limited layered DP scores all rows of a window at once,
bit-identical to scoring each row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeMismatchError


@dataclass
class MetricReport:
    mse: float
    mae: float
    dtw: float
    mse_std: float
    mae_std: float
    dtw_std: float
    n_windows: int
    per_window: dict

    def to_dict(self) -> dict:
        return {
            "mse": self.mse, "mae": self.mae, "dtw": self.dtw,
            "mse_std": self.mse_std, "mae_std": self.mae_std,
            "dtw_std": self.dtw_std, "n_windows": self.n_windows,
            "per_window": {k: [float(x) for x in v]
                           for k, v in self.per_window.items()},
        }


def _paired(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise InvalidParameterError(f"empty arrays of shape {pred.shape}")
    return pred, target


def mse(pred, target) -> float:
    pred, target = _paired(pred, target)
    return float(np.mean((pred - target) ** 2))


def mae(pred, target) -> float:
    pred, target = _paired(pred, target)
    return float(np.mean(np.abs(pred - target)))


def dtw_normalized(a, b) -> float:
    """Best normalized alignment cost between two sequences.

    1-D inputs are treated as single sequences; 2-D inputs are scored row
    by row and averaged over rows.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1 and b.ndim == 1:
        a, b = a[None, :], b[None, :]
    elif a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError("dtw_normalized takes 1-D or matching 2-D arrays")
    return float(np.mean(_dtw_rows(a, b)))


def _dtw_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized DTW of every row pair (a[r], b[r]) in one layered DP.

    Layer `cells` holds the cheapest path of exactly that many cells to each
    grid cell, which keeps the cost/cells minimum exact when raw-cost ties
    differ in length. Rows sit on the last axis; a layer refills only the
    rectangle its paths can reach (i >= cells - m, j >= cells - n, both
    < cells), and the stale cells outside it are never read. An inf row and
    column pad the grid for missing predecessors. Every value equals the
    per-row, full-grid DP bit for bit.
    """
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("row counts differ for multivariate DTW")
    (rows, n), m = a.shape, b.shape[1]
    if rows == 0 or n == 0 or m == 0:
        raise InvalidParameterError("sequences must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidParameterError("sequences must be finite")
    # C-ordered whatever the inputs' layout, so every layer reads contiguous rows
    cost = np.subtract(a.T[:, None, :], b.T[None, :, :], order="C")   # (n, m, rows)
    np.abs(cost, out=cost)
    if n == 1 and m == 1:
        return cost[0, 0]
    prev, cur = np.full((2, n + 1, m + 1, rows), np.inf)
    prev[1, 1] = cost[0, 0]
    result = np.full(rows, np.inf)
    for cells in range(2, n + m):
        i0, i1 = max(0, cells - m), min(cells, n)
        j0, j1 = max(0, cells - n), min(cells, m)
        out = cur[i0 + 1:i1 + 1, j0 + 1:j1 + 1]
        np.minimum(prev[i0:i1, j0 + 1:j1 + 1], prev[i0 + 1:i1 + 1, j0:j1],
                   out=out)                                     # down, right
        np.minimum(out, prev[i0:i1, j0:j1], out=out)            # diagonal
        out += cost[i0:i1, j0:j1]
        np.minimum(result, cur[n, m] / cells, out=result)
        prev, cur = cur, prev
    return result


def evaluate(forecasts, targets) -> MetricReport:
    """Aggregate per-window metrics over paired forecast/target windows."""
    forecasts = list(forecasts)
    targets = list(targets)
    if len(forecasts) != len(targets):
        raise ShapeMismatchError("forecast and target window counts differ")
    if not forecasts:
        raise InvalidParameterError("need at least one window")
    per = {"mse": [], "mae": [], "dtw": []}
    for pred, tgt in zip(forecasts, targets):
        per["mse"].append(mse(pred, tgt))
        per["mae"].append(mae(pred, tgt))
        per["dtw"].append(dtw_normalized(np.atleast_2d(pred), np.atleast_2d(tgt)))
    arr = {k: np.array(v) for k, v in per.items()}
    return MetricReport(
        mse=float(arr["mse"].mean()), mae=float(arr["mae"].mean()),
        dtw=float(arr["dtw"].mean()),
        mse_std=float(arr["mse"].std()), mae_std=float(arr["mae"].std()),
        dtw_std=float(arr["dtw"].std()),
        n_windows=len(forecasts), per_window=per,
    )
