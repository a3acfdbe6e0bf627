"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and stays
separate from the package code paths it checks.
"""

import numpy as np


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central finite differences of `loss_fn()` w.r.t. each Tensor in `params`.

    `params` maps name -> Tensor; entries are perturbed in place one scalar
    at a time. Returns name -> ndarray of the same shape.
    """
    grads = {}
    for name, tensor in params.items():
        flat = tensor.data.ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn())
            flat[i] = orig - step
            down = float(loss_fn())
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
        grads[name] = g.reshape(tensor.data.shape)
    return grads


def relative_errors(analytic, numeric, floor=1e-6):
    """Elementwise |a - n| / max(|a|, |n|, floor), flattened."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)


def graph_laplacian(n, edges):
    """Dense Laplacian of the undirected multigraph under `edges`."""
    lap = np.zeros((n, n))
    for s, d in edges:
        lap[s, s] += 1.0
        lap[d, d] += 1.0
        lap[s, d] -= 1.0
        lap[d, s] -= 1.0
    return lap


def dtw_bruteforce(a, b):
    """Minimum over every monotone warping path of (path cost / path cells).

    Paths start at (0, 0), end at (len(a)-1, len(b)-1), and move by
    (1,0), (0,1), or (1,1). Exponential enumeration; lengths <= ~7 only.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    best = [np.inf]

    def walk(i, j, cost, cells):
        cost = cost + abs(a[i] - b[j])
        cells += 1
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], cost / cells)
            return
        if i + 1 < n:
            walk(i + 1, j, cost, cells)
        if j + 1 < m:
            walk(i, j + 1, cost, cells)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost, cells)

    walk(0, 0, 0.0, 0)
    return best[0]


def dtw_layered_1d(a, b):
    """Normalized DTW of two 1-D sequences by a layered DP over path length.

    best[i, j] at layer `cells` is the cheapest path of exactly that many
    cells ending at (i, j); every layer updates the full grid. This is the
    per-row reference for the package's batched, band-limited kernel and
    must agree with it bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :])
    if n == 1 and m == 1:
        return float(cost[0, 0])
    best_prev = np.full((n, m), np.inf)
    best_prev[0, 0] = cost[0, 0]
    result = np.inf
    for cells in range(2, n + m):
        best = np.full((n, m), np.inf)
        best[1:, :] = best_prev[:-1, :]                        # step down
        np.minimum(best[:, 1:], best_prev[:, :-1], out=best[:, 1:])   # right
        np.minimum(best[1:, 1:], best_prev[:-1, :-1], out=best[1:, 1:])  # diag
        best += cost
        best[0, 0] = np.inf
        if np.isfinite(best[-1, -1]):
            result = min(result, best[-1, -1] / cells)
        best_prev = best
    return float(result)


def enumerate_paths(n, m):
    """All monotone index paths across an n-by-m grid, as (rows, cols) arrays."""
    paths = []

    def walk(i, j, acc):
        acc = acc + [(i, j)]
        if i == n - 1 and j == m - 1:
            rows = np.array([p[0] for p in acc], dtype=np.intp)
            cols = np.array([p[1] for p in acc], dtype=np.intp)
            paths.append((rows, cols))
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, [])
    return paths


def lstm_reference(x, w_x, w_h, b):
    """Plain-loop LSTM over a scalar sequence; returns the final hidden state.

    Gate order in the fused weights is [input, forget, candidate, output].
    """
    d = w_h.shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    for t in range(len(x)):
        z = x[t] * w_x[0] + h @ w_h + b
        i = 1.0 / (1.0 + np.exp(-z[:d]))
        f = 1.0 / (1.0 + np.exp(-z[d:2 * d]))
        g = np.tanh(z[2 * d:3 * d])
        o = 1.0 / (1.0 + np.exp(-z[3 * d:]))
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def ols_granger_score(x_target, x_source, p):
    """Plain least-squares Granger score (no ridge, no standardization)."""
    t_len = len(x_target)
    rows = t_len - p
    y = x_target[p:]
    own = np.column_stack([x_target[p - l:t_len - l] for l in range(1, p + 1)])
    cross = np.column_stack([x_source[p - l:t_len - l] for l in range(1, p + 1)])
    rss_r = _rss(own, y)
    rss_f = _rss(np.column_stack([own, cross]), y)
    floor = 1e-12
    return max(0.0, np.log(max(rss_r, floor) / max(rss_f, floor)))


def _rss(design, y):
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    return float(resid @ resid)


def _lag_matrix(x, p):
    """Columns are lags 1..p of x, aligned to targets x[p:]."""
    t_len = len(x)
    return np.column_stack([x[p - l:t_len - l] for l in range(1, p + 1)])


def _ridge_rss(design, y, ridge):
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, design.T @ y)
    resid = y - design @ beta
    return float(resid @ resid)


def granger_score_matrix_loop(context, lag_order=3, ridge=1e-6):
    """Per-pair ridge Granger scores, S[source, target], one solve per pair.

    Rows are standardized first; constant rows become zeros. Each score is
    max(0, log(rss_restricted / rss_augmented)) with both RSS floored at
    1e-12, and self-pairs score zero.
    """
    context = np.asarray(context, dtype=np.float64)
    n, _ = context.shape
    p = int(lag_order)
    mean = context.mean(axis=1, keepdims=True)
    std = context.std(axis=1, keepdims=True)
    z = np.zeros_like(context)
    ok = std[:, 0] > 1e-12
    z[ok] = (context[ok] - mean[ok]) / std[ok]
    lags = [_lag_matrix(z[i], p) for i in range(n)]
    floor = 1e-12
    scores = np.zeros((n, n))
    for i in range(n):
        y = z[i][p:]
        rss_r = max(_ridge_rss(lags[i], y, ridge), floor)
        for j in range(n):
            if j == i:
                continue
            full = np.column_stack([lags[i], lags[j]])
            rss_f = max(_ridge_rss(full, y, ridge), floor)
            scores[j, i] = max(0.0, np.log(rss_r / rss_f))
    return scores


def top_k_incoming(scores, top_k):
    """Per target, the top_k sources by (higher score, lower index), no
    self-pairs; returns (edges, strengths) sorted by edge."""
    n = scores.shape[0]
    edges, strengths = [], []
    for target in range(n):
        incoming = [(s, target) for s in range(n) if s != target]
        incoming.sort(key=lambda e: (-scores[e[0], target], e[0]))
        for s, d in incoming[:top_k]:
            edges.append((s, d))
            strengths.append(float(scores[s, d]))
    order = sorted(range(len(edges)), key=lambda i: edges[i])
    return [edges[i] for i in order], [strengths[i] for i in order]


def per_window_loss(model, windows, prior, lambda1, lambda2):
    """The training objective the slow way: one forward per window, the
    window losses added on one tape and divided by their count."""
    from sheafcast.training import total_loss

    out = None
    for w in windows:
        pred, delta = model.forward(w.context, w.horizon.shape[1])
        piece = total_loss(pred, w.horizon, delta, prior, lambda1, lambda2,
                           model.sheaf.edges)
        out = piece if out is None else out + piece
    return out * (1.0 / len(windows))
