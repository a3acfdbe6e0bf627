"""Forecast evaluation: MSE, MAE, and normalized dynamic time warping.

The DTW variant reported here is the minimum over every monotone warping
path (steps right, down, diagonal; endpoints pinned) of the path's total
|a_u - b_v| cost divided by the number of cells it visits. Normalizing by
path cells makes scores comparable across horizon lengths, and taking the
minimum of the normalized cost makes the value well defined when several
paths tie on raw cost. Multivariate windows are scored per node and
averaged. One sweep over the anti-diagonals i + j scores all rows of a
window at once; its state for each cell is the number D of diagonal steps
taken so far, which fixes the path's cell count, so the minimum of the
normalized cost stays exact. It is bit-identical to scoring each row on
its own with a DP over path length.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
        return asdict(self)


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
    """Normalized DTW of every row pair (a[r], b[r]) in one anti-diagonal sweep.

    A path to cell (i, j) that takes D diagonal steps visits i + j + 1 - D
    cells, so for each cell the state is indexed by D: f_k[D, i] is the
    cheapest path with D diagonal steps to (i, k - i). The sweep runs over
    the anti-diagonals k = i + j with

        f_k[D, i] = |a_i - b_{k-i}| + min(f_{k-1}[D, i-1], f_{k-1}[D, i],
                                          f_{k-2}[D-1, i-1])

    and the result is min over D of f_{n+m-2}[D, n-1] / (n + m - 1 - D).
    Each state is the minimum, over the same paths as a DP over path length,
    of the path-order float sum, and fl(x + c) is monotone in x, so every
    value equals the per-row, full-grid DP over path length bit for bit.

    Three rotating (min(n, m) + 1, n + 1, rows) buffers hold diagonals k,
    k - 1 and k - 2, with D outermost so the diagonal's (cells, rows) cost
    broadcasts over it; row D = -1 and column i = -1 stay inf. Diagonal k
    fills D <= k // 2 for every cell on it: 63,124 states per row at
    50 x 50, where the DP over path length refilled 83,349 (42,925 can lie
    on a path). Stale entries outside a diagonal's block are never read.
    """
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError("row counts differ for multivariate DTW")
    (rows, n), m = a.shape, b.shape[1]
    if rows == 0 or n == 0 or m == 0:
        raise InvalidParameterError("sequences must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidParameterError("sequences must be finite")
    # (samples, rows), C-ordered whatever the inputs' layout, so each
    # diagonal's cost is one contiguous block; b reversed, so b_{k-i} runs
    # forward with i
    a_t, b_rev = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T[::-1])
    diag = min(n, m)
    cur, prev, prev2 = np.full((3, diag + 1, n + 1, rows), np.inf)
    np.abs(a_t[0] - b_rev[m - 1], out=cur[1, 1])
    for k in range(1, n + m - 1):
        prev2, prev, cur = prev, cur, prev2
        lo, hi = max(0, k - m + 1), min(k, n - 1) + 1       # i in [lo, hi)
        top = min(k // 2, diag - 1) + 1                     # D in [0, top)
        cost = a_t[lo:hi] - b_rev[m - 1 - k + lo:m - 1 - k + hi]
        np.abs(cost, out=cost)
        out = cur[1:top + 1, lo + 1:hi + 1]
        np.minimum(prev[1:top + 1, lo:hi], prev[1:top + 1, lo + 1:hi + 1],
                   out=out)                                 # down, right
        np.minimum(out, prev2[:top, lo:hi], out=out)        # diagonal
        out += cost
    cells = np.arange(n + m - 1, n + m - 1 - diag, -1, dtype=np.float64)
    return (cur[1:, n] / cells[:, None]).min(axis=0)


# each window's scores, in the order `evaluate` computes and checks them
_SCORES = {"mse": mse, "mae": mae,
           "dtw": lambda pred, tgt: dtw_normalized(np.atleast_2d(pred), np.atleast_2d(tgt))}


def evaluate(forecasts, targets) -> MetricReport:
    """Aggregate per-window metrics over paired forecast/target windows. A
    window's MSE, MAE or DTW, or a mean or std over windows, that is not
    finite (say the squared error of a forecast of 1e200) raises
    InvalidParameterError naming it, with no numpy warning."""
    forecasts = list(forecasts)
    targets = list(targets)
    if len(forecasts) != len(targets):
        raise ShapeMismatchError("forecast and target window counts differ")
    if not forecasts:
        raise InvalidParameterError("need at least one window")
    per = {"mse": [], "mae": [], "dtw": []}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (pred, tgt) in enumerate(zip(forecasts, targets)):
            for name, score in _SCORES.items():
                value = score(pred, tgt)
                if not np.isfinite(value):
                    raise InvalidParameterError(
                        f"forecast window {i} has {name} {value}, not a finite number")
                per[name].append(value)
        stats = {f"{name}{suffix}": float(reduce(np.array(values)))
                 for name, values in per.items()
                 for suffix, reduce in (("", np.mean), ("_std", np.std))}
    if nonfinite := [name for name, value in stats.items() if not np.isfinite(value)]:
        raise InvalidParameterError(
            f"{', '.join(nonfinite)} over {len(forecasts)} windows is not a finite number")
    return MetricReport(**stats, n_windows=len(forecasts), per_window=per)
