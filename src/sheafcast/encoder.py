"""Memory encoding of node stalks: a single-layer scalar-input LSTM.

Every node shares one set of parameters; a node's context sequence is run
through the recurrence and the final hidden state becomes its stalk vector.
Weights are fused per convention: columns of the (in+hidden, 4d) matrices
hold the [input, forget, candidate, output] gates in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatchError


@dataclass
class LstmParams:
    """Fused-gate LSTM parameters for scalar inputs."""

    w_x: ad.Tensor                    # (1, 4d)
    w_h: ad.Tensor                    # (d, 4d)
    bias: ad.Tensor                   # (4d,)

    @property
    def hidden_dim(self) -> int:
        return self.w_h.data.shape[0]

    @classmethod
    def init(cls, hidden_dim: int, rng: np.random.Generator) -> "LstmParams":
        """Uniform +-1/sqrt(d) weights with the forget-gate bias at +1."""
        d = hidden_dim
        bound = 1.0 / np.sqrt(d)
        w_x = rng.uniform(-bound, bound, size=(1, 4 * d))
        w_h = rng.uniform(-bound, bound, size=(d, 4 * d))
        bias = np.zeros(4 * d)
        bias[d:2 * d] = 1.0
        return cls(w_x=ad.Tensor(w_x, requires_grad=True),
                   w_h=ad.Tensor(w_h, requires_grad=True),
                   bias=ad.Tensor(bias, requires_grad=True))

    @classmethod
    def zeros(cls, hidden_dim: int) -> "LstmParams":
        d = hidden_dim
        return cls(w_x=ad.Tensor(np.zeros((1, 4 * d)), requires_grad=True),
                   w_h=ad.Tensor(np.zeros((d, 4 * d)), requires_grad=True),
                   bias=ad.Tensor(np.zeros(4 * d), requires_grad=True))

    def parameters(self) -> dict:
        return {"lstm.w_x": self.w_x, "lstm.w_h": self.w_h, "lstm.bias": self.bias}


def _gate_affine(d: int):
    """Per-column (scale, shift) with act = tanh(z * scale) * scale + shift:
    sigmoid(z) = tanh(z / 2) / 2 + 1/2 on the input, forget and output
    gates, tanh on the candidate, so one tanh covers all four."""
    scale = np.full(4 * d, 0.5)
    scale[2 * d:3 * d] = 1.0
    shift = np.full(4 * d, 0.5)
    shift[2 * d:3 * d] = 0.0
    return scale, shift


def encode_all(context, params: LstmParams) -> ad.Tensor:
    """Encode every node's context row: an (n_nodes, t_ctx) context or a
    (B, n_nodes, t_ctx) stack gives (..., n_nodes, d) stalks.

    Nodes are independent and share parameters, so the whole batch runs
    through one recurrence, and the whole sequence is one tape node. Each
    step is one (..., n, d + 2) @ (d + 2, 4d) stacked product of the
    step input [h, x_t, 1] with the stacked weights [w_h; w_x; bias], so
    it stays window-sized. While the tape records, the forward keeps each
    step's gate activations and cell state, and nothing else; the backward
    runs BPTT over them in one loop, rebuilding tanh(c_t) and the step
    input h_(t-1) = o_(t-1) * tanh(c_(t-1)) with the forward's own float
    operations, so the gradients are those of the kept-everything version
    bit for bit.
    """
    x = context.data if isinstance(context, ad.Tensor) else np.asarray(context, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeMismatchError("context must be (n_nodes, t_ctx) or (B, n_nodes, t_ctx)")
    if x.shape[-1] < 1:
        raise ShapeMismatchError("context must contain at least one step")
    d = params.hidden_dim
    if params.w_x.data.shape != (1, 4 * d) or params.bias.data.shape != (4 * d,):
        raise ShapeMismatchError("LSTM parameter shapes are inconsistent")

    w_h = params.w_h.data
    scale, shift = _gate_affine(d)
    weights = np.vstack([w_h, params.w_x.data, params.bias.data]) * scale
    rows, t_len = x.shape[:-1], x.shape[-1]
    keep = ad.records(params.w_x, params.w_h, params.bias)
    step = np.empty(rows + (d + 2,))             # [h_(t-1), x_t, 1]
    step[..., :d] = 0.0
    step[..., d + 1] = 1.0
    if keep:
        gates = np.empty((t_len,) + rows + (4 * d,))
        cells = np.zeros((t_len + 1,) + rows + (d,))
    c = np.zeros(rows + (d,))
    for t in range(t_len):
        step[..., d] = x[..., t]
        act = np.matmul(step, weights, out=gates[t] if keep else None)
        np.tanh(act, out=act)
        act *= scale
        act += shift
        c = np.multiply(act[..., d:2 * d], c, out=cells[t + 1] if keep else None)
        c += act[..., :d] * act[..., 2 * d:3 * d]
        # held until the next step's replaces it: freeing it at once moved
        # glibc's heap so that forecast-long's peak RSS rose by about 1 MB
        tc = np.tanh(c)
        np.multiply(act[..., 3 * d:], tc, out=step[..., :d])
    h = step[..., :d].copy()
    if not keep:
        return ad.Tensor(h)

    # d(act)/dz = (1 - act) * (act + tanh_slope): act(1 - act) on the
    # sigmoid gates, 1 - act^2 on the candidate
    tanh_slope = 1.0 - shift * 2.0

    def backward(g_h):
        # one (d + 2, 4d) weight gradient per window, summed at the end, so
        # that each product stays window-sized
        g_weights = np.zeros(rows[:-1] + (d + 2, 4 * d))
        g_c = np.zeros(rows + (d,))
        g_z = np.empty(rows + (4 * d,))
        step = np.empty(rows + (d + 2,))
        step[..., d + 1] = 1.0
        tc = np.tanh(cells[t_len])
        for t in reversed(range(t_len)):
            act = gates[t]
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
            step[..., d] = x[..., t]
            if t:
                tc = np.tanh(cells[t])
                np.multiply(gates[t - 1][..., 3 * d:], tc, out=step[..., :d])
            else:
                step[..., :d] = 0.0
            g_weights += np.swapaxes(step, -1, -2) @ g_z
            g_h = g_z @ w_h.T
        g_weights = g_weights.reshape(-1, d + 2, 4 * d).sum(axis=0)
        return g_weights[d:d + 1], g_weights[:d], g_weights[d + 1]

    return ad.node(h, (params.w_x, params.w_h, params.bias), backward)


def encode_history(x, params: LstmParams) -> ad.Tensor:
    """Encode a single scalar sequence; returns the final hidden state (d,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatchError("encode_history expects a 1-D sequence")
    return encode_all(x[None, :], params).reshape(params.hidden_dim)


def raw_stalks(context: np.ndarray, hidden_dim: int) -> np.ndarray:
    """Encoder-ablation stalks: the raw window (or window stack) fitted to
    length d.

    Sequences longer than d lose their oldest samples; shorter ones are
    left-padded with zeros so the most recent sample stays last.
    """
    context = np.asarray(context, dtype=np.float64)
    t_len = context.shape[-1]
    if t_len >= hidden_dim:
        return context[..., t_len - hidden_dim:].copy()
    out = np.zeros(context.shape[:-1] + (hidden_dim,))
    out[..., hidden_dim - t_len:] = context
    return out
