"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and stays
separate from the package code paths it checks.
"""

import numpy as np

from sheafcast import autodiff as ad


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


def field_batch_composed(x, stalks, params):
    """The vector field on [x; h] (or h alone) from composed tape ops:
    (..., n) states and (..., n, d) stalks give (..., n, 1)."""
    x, stalks = ad.lift(x), ad.lift(stalks)
    if x.data.ndim == stalks.data.ndim - 1:
        x = x.reshape(x.data.shape + (1,))
    inp = stalks if params.state_free else concatenate([x, stalks], axis=-1)
    hidden = tanh(inp @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


def forward_composed(model, context, t_hor):
    """`ForecastModel.forward` with the encoder and the RK4 horizon unrolled
    op by op: the LSTM on B·n rows, every RK4 stage on the tape, and the
    states concatenated along the last axis."""
    from sheafcast.dynamics import rk4_states
    from sheafcast.encoder import raw_stalks
    from sheafcast.sheaf import message_pass

    context = np.asarray(context, dtype=np.float64)
    rows = context.reshape(-1, context.shape[-1])
    if model.config.ablation == "no_lstm":
        h0 = ad.Tensor(raw_stalks(rows, model.config.stalk_dim))
    else:
        h0 = encode_all_composed(rows, model.lstm)
    alpha = 1.0 if model.config.ablation == "graph" else None
    h_final, delta = message_pass(h0.reshape(context.shape[:-1] + (-1,)),
                                  model.sheaf, alpha_override=alpha,
                                  return_first_discrepancy=True)

    def f(_t, x):
        return field_batch_composed(x, h_final, model.vfield).reshape(x.shape)

    states = rk4_states(f, ad.Tensor(context[..., -1]), 0.0, model.config.dt,
                        int(t_hor))
    pred = concatenate([s.reshape(s.shape + (1,)) for s in states], axis=-1)
    return pred, delta


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


def simulate_loop(graph, params, seed, perturbation=None, bin_ms=10.0,
                  sigma_ms=20.0):
    """One LIF run stepped alone, with a dense (dst, src) adjacency product
    and per-neuron spike-time lists binned by `bin_and_smooth`.

    The same RNG draws, float operations and silencing rule as
    `neurosim.simulate_many`; returns the rates matrix only.
    """
    from sheafcast.neurosim import _poisson_counts_from_uniforms, bin_and_smooth

    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    dt = params.dt_ms
    n_steps = int(round(params.duration_ms / dt))
    decay = np.exp(-dt / params.syn_tau)
    amp_rec = params.syn_weight * np.e / params.syn_tau
    amp_bg = params.poisson_weight * np.e / params.syn_tau

    lam = params.poisson_rate_hz * dt / 1000.0
    bg_counts = _poisson_counts_from_uniforms(rng.random(n_steps), lam)

    adj = np.zeros((n, n))
    for s, d in graph.edges:
        adj[d, s] = 1.0
    delay_steps = max(1, int(round(params.syn_delay_ms / dt)))
    spike_buffer = np.zeros((delay_steps, n))

    v = rng.uniform(params.reset_mV, params.threshold_mV, size=n)
    refr = np.zeros(n, dtype=np.int64)
    rec1 = np.zeros(n)
    rec2 = np.zeros(n)
    bg1 = 0.0
    bg2 = 0.0

    p_neuron = perturbation.neuron if perturbation is not None else -1
    p_start = int(round(perturbation.onset_ms / dt)) if perturbation else -1
    p_end = (int(round((perturbation.onset_ms + perturbation.duration_ms) / dt))
             if perturbation else -1)

    spike_times = [[] for _ in range(n)]
    leak = dt / params.membrane_tau
    inv_c = dt / params.capacitance_pF

    for step in range(n_steps):
        arriving = spike_buffer[step % delay_steps]
        if arriving.any():
            rec1 += amp_rec * (adj @ arriving)
        if bg_counts[step]:
            bg1 += amp_bg * bg_counts[step]

        current = rec2 + bg2
        silenced = p_start <= step < p_end

        active = refr <= 0
        if silenced:
            active[p_neuron] = False
            v[p_neuron] = params.reset_mV
        v[active] += (-(v[active] - params.resting_mV) * leak
                      + current[active] * inv_c)
        refr[refr > 0] -= 1

        fired = active & (v >= params.threshold_mV)
        if silenced:
            fired[p_neuron] = False
        if fired.any():
            t_ms = step * dt
            for idx in np.flatnonzero(fired):
                spike_times[idx].append(t_ms)
            v[fired] = params.reset_mV
            refr[fired] = int(round(params.refractory_ms / dt))
        spike_buffer[step % delay_steps] = fired.astype(np.float64)

        rec2 = (rec2 + dt * rec1) * decay
        rec1 *= decay
        bg2 = (bg2 + dt * bg1) * decay
        bg1 *= decay

    rates, _ = bin_and_smooth(spike_times, params.duration_ms,
                              bin_ms=bin_ms, sigma_ms=sigma_ms)
    return rates
