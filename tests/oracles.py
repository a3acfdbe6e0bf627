"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and stays
separate from the package code paths it checks.
"""

import numpy as np

from sheafcast import autodiff as ad
from sheafcast.errors import InvalidParameterError, ShapeMismatchError


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
    per-row reference for the package's anti-diagonal sweep over
    diagonal-step counts, which reaches the same states in another order
    and must agree with it bit for bit.
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


def dtw_rows_layered(a, b):
    """Normalized DTW of every row pair (a[r], b[r]) in one layered DP.

    The package kernel before the anti-diagonal sweep, kept verbatim.
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


# ----------------------------------------------------------------------
# the composed-op encoder and integrator: every LSTM gate and every RK4
# stage recorded op by op on the tape
# ----------------------------------------------------------------------
def tanh(t):
    """Elementwise tanh as one tape node."""
    t = ad.lift(t)
    val = np.tanh(t.data)
    return ad.node(val, (t,), lambda g: ((1.0 - val ** 2) * g,))


def concatenate(tensors, axis=0):
    """Concatenation as one tape node; the gradient is split back by size."""
    tensors = [ad.lift(t) for t in tensors]
    bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return ad.node(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, lambda g: np.split(g, bounds, axis=axis))


def encode_all_composed(context, params):
    """LSTM over (rows, t_ctx) context rows, one tape op per gate operation;
    returns the (rows, d) final hidden states."""
    x = np.asarray(context, dtype=np.float64)
    d = params.hidden_dim
    rows, t_len = x.shape
    h = ad.Tensor(np.zeros((rows, d)))
    c = ad.Tensor(np.zeros((rows, d)))
    for t in range(t_len):
        z = ad.Tensor(x[:, t:t + 1]) @ params.w_x + h @ params.w_h + params.bias
        i = ad.sigmoid(z[:, :d])
        f = ad.sigmoid(z[:, d:2 * d])
        g = tanh(z[:, 2 * d:3 * d])
        o = ad.sigmoid(z[:, 3 * d:])
        c = f * c + i * g
        h = o * tanh(c)
    return h


def encode_all_kept(context, params):
    """The fused LSTM node that keeps every step's input [h, x_t, 1], gates,
    cell state and tanh(c) for its backward: `encoder.encode_all` must
    match it bit for bit, output and gradients."""
    from sheafcast.encoder import _gate_affine

    x = np.asarray(context, dtype=np.float64)
    d = params.hidden_dim
    w_h = params.w_h.data
    scale, shift = _gate_affine(d)
    weights = np.vstack([w_h, params.w_x.data, params.bias.data]) * scale
    rows, t_len = x.shape[:-1], x.shape[-1]
    inputs = np.empty((t_len + 1,) + rows + (d + 2,))
    inputs[..., d + 1] = 1.0
    inputs[0, ..., :d] = 0.0
    inputs[:-1, ..., d] = np.moveaxis(x, -1, 0)
    gates = np.empty((t_len,) + rows + (4 * d,))
    cells = np.zeros((t_len + 1,) + rows + (d,))
    tanh_c = np.empty((t_len,) + rows + (d,))
    c = np.zeros(rows + (d,))
    for t in range(t_len):
        act = np.matmul(inputs[t], weights, out=gates[t])
        np.tanh(act, out=act)
        act *= scale
        act += shift
        c = act[..., d:2 * d] * c
        c += act[..., :d] * act[..., 2 * d:3 * d]
        tc = np.tanh(c, out=tanh_c[t])
        np.multiply(act[..., 3 * d:], tc, out=inputs[t + 1, ..., :d])
        cells[t + 1] = c
    h = inputs[-1, ..., :d].copy()
    tanh_slope = 1.0 - shift * 2.0

    def backward(g_h):
        g_weights = np.zeros(rows[:-1] + (d + 2, 4 * d))
        g_c = np.zeros(rows + (d,))
        g_z = np.empty(rows + (4 * d,))
        for t in reversed(range(t_len)):
            act, tc = gates[t], tanh_c[t]
            i, f = act[..., :d], act[..., d:2 * d]
            g, o = act[..., 2 * d:3 * d], act[..., 3 * d:]
            g_c += g_h * o * (1.0 - tc * tc)
            np.multiply(g_c, g, out=g_z[..., :d])
            np.multiply(g_c, cells[t], out=g_z[..., d:2 * d])
            np.multiply(g_c, i, out=g_z[..., 2 * d:3 * d])
            np.multiply(g_h, tc, out=g_z[..., 3 * d:])
            g_z *= 1.0 - act
            g_z *= act + tanh_slope
            g_c *= f
            g_weights += np.swapaxes(inputs[t], -1, -2) @ g_z
            g_h = g_z @ w_h.T
        g_weights = g_weights.reshape(-1, d + 2, 4 * d).sum(axis=0)
        return g_weights[d:d + 1], g_weights[:d], g_weights[d + 1]

    return ad.node(h, (params.w_x, params.w_h, params.bias), backward)


def field_batch_composed(x, stalks, params):
    """The vector field on [x; h] from composed tape ops: (..., n) states
    and (..., n, d) stalks give (..., n, 1)."""
    x, stalks = ad.lift(x), ad.lift(stalks)
    if x.data.ndim == stalks.data.ndim - 1:
        x = x.reshape(x.data.shape + (1,))
    hidden = tanh(concatenate([x, stalks], axis=-1) @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


def horizon_node_slopes_buffer(horizon, states):
    """`Horizon.node` with a backward that builds every stage's slope
    1 - h^2 in a buffer of its own, the size of the kept activations, and
    leaves the activations as they are. `Horizon.node` builds the slopes in
    the activations themselves and must match it bit for bit."""
    from sheafcast.dynamics import _contract

    values = np.stack(states, axis=-1)
    p = horizon.params
    dt, (*rows, n_steps), w2 = horizon.dt, values.shape, p.w2.data[:, 0]
    inputs, hidden, stalks = horizon.inputs, horizon.hidden, horizon.stalks.data
    w_h = p.w1.data[1:]
    b_weights = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    a_weights = (dt / 2.0, dt / 2.0, dt)

    def backward(g):
        slopes = hidden * hidden
        np.subtract(1.0, slopes, out=slopes)
        g_slope = slopes @ (w2 * p.w1.data[0])
        g_k = np.empty(inputs.shape)
        g_x = np.zeros(rows)
        for step in reversed(range(n_steps)):
            g_x = g_x + g[..., step]
            g_next = g_x
            for j in (3, 2, 1, 0):
                s = 4 * step + j
                g_k[s] = b_weights[j] * g_x
                if j < 3:
                    g_k[s] += a_weights[j] * g_in
                g_in = g_slope[s] * g_k[s]
                g_next = g_next + g_in
            g_x = g_next
        slopes *= g_k[..., None]
        g_term = slopes.sum(axis=0)
        g_term *= w2
        g_wx = (inputs.reshape(-1) @ slopes.reshape(-1, slopes.shape[-1])) * w2
        g_w1 = np.vstack([g_wx, _contract(stalks, g_term)])
        return (g_term @ w_h.T, g_w1, g_term.reshape(-1, g_term.shape[-1]).sum(axis=0),
                _contract(hidden, g_k[..., None]), g_k.reshape(-1).sum(keepdims=True))

    return ad.node(values, (horizon.stalks, p.w1, p.b1, p.w2, p.b2), backward)


def forward_composed(model, context, t_hor):
    """`ForecastModel.forward` with the encoder, the message pass and the
    RK4 horizon unrolled op by op: the LSTM on B·n rows, every sheaf round
    and every RK4 stage on the tape, and the states concatenated along the
    last axis."""
    from sheafcast.dynamics import rk4_states
    from sheafcast.encoder import raw_stalks

    context = np.asarray(context, dtype=np.float64)
    rows = context.reshape(-1, context.shape[-1])
    if model.config.ablation == "no_lstm":
        h0 = ad.Tensor(raw_stalks(rows, model.config.stalk_dim))
    else:
        h0 = encode_all_composed(rows, model.lstm)
    alpha = 1.0 if model.config.ablation == "graph" else None
    h_final, delta = message_pass_composed(h0.reshape(context.shape[:-1] + (-1,)),
                                           model.sheaf, alpha_override=alpha)

    def f(_t, x):
        return field_batch_composed(x, h_final, model.vfield).reshape(x.data.shape)

    states = rk4_states(f, ad.Tensor(context[..., -1]), 0.0, model.config.dt,
                        int(t_hor))
    pred = concatenate([s.reshape(s.data.shape + (1,)) for s in states], axis=-1)
    return pred, delta


# ----------------------------------------------------------------------
# the composed-op message pass: every gather, per-edge product and scatter
# recorded op by op (rows are axis -2; leading axes are a batch that shares
# the (E, m, d) maps)
# ----------------------------------------------------------------------
def gather_rows(t, index):
    """Rows `index` of a (..., n, k) tensor; repeated rows accumulate."""
    t = ad.lift(t)
    key = (Ellipsis, np.asarray(index, dtype=np.intp), slice(None))

    def backward(g):
        out = np.zeros_like(t.data)
        np.add.at(out, key, g)
        return (out,)

    return ad.node(t.data[key], (t,), backward)


def index_add_rows(source, index, n_rows):
    """Scatter-add rows of a (..., E, k) `source` into a (..., n_rows, k) zero tensor."""
    source = ad.lift(source)
    key = (Ellipsis, np.asarray(index, dtype=np.intp), slice(None))
    data = np.zeros(source.data.shape[:-2] + (n_rows,) + source.data.shape[-1:])
    np.add.at(data, key, source.data)
    return ad.node(data, (source,), lambda g: (g[key],))


def _edge_outer(a, b):
    """Per-edge outer products of (..., E, p) and (..., E, q) rows, summed
    over the leading axes: (E, p, q)."""
    e = a.shape[-2]
    return (a.reshape(-1, e, a.shape[-1]).transpose(1, 2, 0)
            @ b.reshape(-1, e, b.shape[-1]).transpose(1, 0, 2))


def edge_matvec(mats, vecs):
    """Per-edge product: (E, m, d) x (..., E, d) -> (..., E, m)."""
    mats, vecs = ad.lift(mats), ad.lift(vecs)
    return ad.node((mats.data @ vecs.data[..., None])[..., 0], (mats, vecs),
                   lambda g: (_edge_outer(g, vecs.data),
                              (g[..., None, :] @ mats.data)[..., 0, :]))


def edge_matvec_t(mats, vecs):
    """Per-edge transposed product: (E, m, d) x (..., E, m) -> (..., E, d)."""
    mats, vecs = ad.lift(mats), ad.lift(vecs)
    return ad.node((vecs.data[..., None, :] @ mats.data)[..., 0, :], (mats, vecs),
                   lambda g: (_edge_outer(vecs.data, g),
                              (mats.data @ g[..., None])[..., 0]))


def discrepancies_composed(H, params, alpha_override=None):
    """The (..., E, m) edge discrepancies of (..., n, d) stalks, op by op."""
    H = ad.lift(H)
    proj_src = edge_matvec(params.rho_src, gather_rows(H, params.edges[:, 0]))
    proj_dst = edge_matvec(params.rho_dst, gather_rows(H, params.edges[:, 1]))
    if alpha_override is not None:
        return float(alpha_override) * (proj_src - proj_dst)
    col = params.attention.reshape(-1, 1)
    return (ad.sigmoid(proj_src @ col) * proj_src
            - ad.sigmoid(proj_dst @ col) * proj_dst)


def message_pass_composed(H0, params, alpha_override=None):
    """`sheaf.message_pass` op by op: per round, the discrepancies, both
    pulled back through the transposed maps and scatter-added on the nodes,
    scaled by 1 / (1 + degree) when normalized. Returns the final stalks and
    the first round's discrepancy."""
    n = params.n_nodes
    degrees = np.zeros(n)
    np.add.at(degrees, params.edges.ravel(), 1.0)
    H = ad.lift(H0)
    first = discrepancies_composed(H, params, alpha_override)
    for r in range(params.rounds):
        delta = first if r == 0 else discrepancies_composed(H, params, alpha_override)
        lap = (index_add_rows(edge_matvec_t(params.rho_src, delta), params.edges[:, 0], n)
               - index_add_rows(edge_matvec_t(params.rho_dst, delta), params.edges[:, 1], n))
        if params.normalize:
            lap = lap * (1.0 / (1.0 + degrees))[:, None]
        H = H - lap
    return H, first


def adamw_step_reference(params, grads, state, lr, weight_decay,
                         betas=(0.9, 0.999), eps=1e-8):
    """One AdamW step written as whole-array expressions, each allocating
    its result: the operation order the in-place update keeps."""
    state.step += 1
    b1, b2 = betas
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, data in params.items():
        g = grads[name] if grads[name] is not None else np.zeros_like(data)
        m = state.m.get(name, np.zeros_like(data))
        v = state.v.get(name, np.zeros_like(data))
        state.m[name] = b1 * m + (1.0 - b1) * g
        state.v[name] = b2 * v + (1.0 - b2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        data -= lr * weight_decay * data
        data -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


def loss_prior_sets(discrepancies, prior, edges):
    """`training.loss_prior` with the prior indicator and the missing-edge
    count taken from Python sets of edge tuples."""
    delta = ad.lift(discrepancies)
    prior_set = frozenset(prior.edges)
    indicator = np.array([1.0 if (int(s), int(d)) in prior_set else 0.0
                          for s, d in edges])
    norms = ad.sqrt((delta * delta).sum(axis=-1))
    loss = ad.absolute(norms - indicator).sum(axis=-1).mean()
    sheaf_set = {(int(s), int(d)) for s, d in edges}
    missing = sum(1 for e in prior_set if e not in sheaf_set)
    return loss + float(missing)


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


def lif_propagator_closed_form(params):
    """The exact one-step propagator of (syn1, syn2, v - E_L) from the
    closed-form solution of the alpha-current membrane equation, with the
    limit taken when syn_tau == membrane_tau."""
    h = params.dt_ms
    a, b, c = 1.0 / params.syn_tau, 1.0 / params.membrane_tau, 1.0 / params.capacitance_pF
    ea, eb = np.exp(-a * h), np.exp(-b * h)
    if params.syn_tau == params.membrane_tau:
        p31, p32 = c * ea * h * h / 2.0, c * ea * h
    else:
        d = b - a
        p31 = c * (ea * (h / d - 1.0 / d ** 2) + eb / d ** 2)
        p32 = c * (ea - eb) / d
    return np.array([[ea, 0.0, 0.0], [h * ea, ea, 0.0], [p31, p32, eb]])


class LifTrace:
    """What `lif_loop` saw: the steps each neuron fired at, the state
    (syn1, syn2, v - E_L) at the start of each kept step, and the closest
    any integrating neuron came to threshold at a grid point."""

    def __init__(self, n):
        self.spike_steps = [[] for _ in range(n)]
        self.states = {}
        self.closest = (np.inf, -1, -1)     # (|v - threshold| in mV, neuron, step)


def lif_loop(graph, params, seed, perturbation=None, keep_steps=()):
    """One LIF run stepped alone, one exact propagator step per grid step,
    with a dense (dst, src) adjacency product.

    The same RNG draws, delay, refractory and silencing rules as
    `neurosim.simulate_many`: a step adds the arriving alpha-kernel
    impulses, moves every free neuron's membrane and both kernel states
    through the propagator, and resets each neuron at or above threshold.
    """
    from sheafcast.neurosim import _poisson_counts_from_uniforms

    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    dt = params.dt_ms
    n_steps = int(round(params.duration_ms / dt))
    lam = params.poisson_rate_hz * dt / 1000.0
    bg_counts = _poisson_counts_from_uniforms(rng.random(n_steps), lam)
    u = rng.uniform(params.reset_mV, params.threshold_mV, size=n) - params.resting_mV
    amp_rec = params.syn_weight * np.e / params.syn_tau
    amp_bg = params.poisson_weight * np.e / params.syn_tau
    prop = lif_propagator_closed_form(params)
    u_reset = params.reset_mV - params.resting_mV
    theta = params.threshold_mV - params.resting_mV
    refr_steps = int(round(params.refractory_ms / dt))

    adj = np.zeros((n, n))
    for s, d in graph.edges:
        adj[d, s] = 1.0
    delay_steps = max(1, int(round(params.syn_delay_ms / dt)))
    spike_buffer = np.zeros((delay_steps, n))

    p_neuron = perturbation.neuron if perturbation is not None else -1
    p_start = int(round(perturbation.onset_ms / dt)) if perturbation else -1
    p_end = (int(round((perturbation.onset_ms + perturbation.duration_ms) / dt))
             if perturbation else -1)

    trace = LifTrace(n)
    keep = set(keep_steps)
    syn1 = np.zeros(n)
    syn2 = np.zeros(n)
    refr = np.zeros(n, dtype=np.int64)
    for step in range(n_steps):
        if step in keep:
            trace.states[step] = np.stack([syn1, syn2, u])
        arriving = spike_buffer[step % delay_steps]
        if arriving.any():
            syn1 = syn1 + amp_rec * (adj @ arriving)
        if bg_counts[step]:
            syn1 = syn1 + amp_bg * bg_counts[step]

        active = refr <= 0
        if p_start <= step < p_end:
            active[p_neuron] = False
            u[p_neuron] = u_reset
        moved = prop[2, 0] * syn1 + prop[2, 1] * syn2 + prop[2, 2] * u
        u[active] = moved[active]
        syn1, syn2 = prop[0, 0] * syn1, prop[1, 0] * syn1 + prop[1, 1] * syn2
        refr[refr > 0] -= 1

        if active.any():
            gap = np.abs(u - theta)
            gap[~active] = np.inf
            i = int(gap.argmin())
            if gap[i] < trace.closest[0]:
                trace.closest = (float(gap[i]), i, step)
        fired = active & (u >= theta)
        for i in np.flatnonzero(fired):
            trace.spike_steps[i].append(step)
        u[fired] = u_reset
        refr[fired] = refr_steps
        spike_buffer[step % delay_steps] = fired
    if n_steps in keep:
        trace.states[n_steps] = np.stack([syn1, syn2, u])
    return trace


def simulate_loop(graph, params, seed, perturbation=None, bin_ms=10.0,
                  sigma_ms=20.0):
    """The rates of one `lif_loop` run, its spike-time lists binned by
    `bin_and_smooth`."""
    return lif_rates(lif_loop(graph, params, seed, perturbation), params,
                     bin_ms, sigma_ms)


def lif_rates(trace, params, bin_ms=10.0, sigma_ms=20.0):
    """`bin_and_smooth` of a `lif_loop` trace's spike times."""
    from sheafcast.neurosim import bin_and_smooth

    times = [[step * params.dt_ms for step in steps] for steps in trace.spike_steps]
    return bin_and_smooth(times, params.duration_ms, bin_ms=bin_ms, sigma_ms=sigma_ms)[0]
