"""Continuous-time evolution: the per-node vector field and fixed-step RK4.

The vector field is a two-layer tanh MLP shared across nodes. Its input is
the concatenation [x_i; h_i] of the node's current signal value and its
post-message-passing stalk. The one integrator, `rk4_states`, steps the
classical RK4 tableau. A forecast horizon (`Horizon`) records one tape
node for all of its steps, whose backward is the discrete adjoint of the
tableau; `field_batch` evaluates one of its stages. The composed-op
integrator it replaced is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NonFiniteStateError, ShapeMismatchError


@dataclass
class VectorFieldParams:
    """Two-layer MLP mapping [x; h] to a scalar derivative."""

    w1: ad.Tensor                     # (in_dim, width)
    b1: ad.Tensor                     # (width,)
    w2: ad.Tensor                     # (width, 1)
    b2: ad.Tensor                     # (1,)

    @property
    def in_dim(self) -> int:
        return self.w1.data.shape[0]

    @classmethod
    def init(cls, stalk_dim: int, width: int,
             rng: np.random.Generator) -> "VectorFieldParams":
        in_dim = stalk_dim + 1
        b_in = 1.0 / np.sqrt(in_dim)
        b_hid = 1.0 / np.sqrt(width)
        return cls(
            w1=ad.Tensor(rng.uniform(-b_in, b_in, size=(in_dim, width)),
                         requires_grad=True),
            b1=ad.Tensor(np.zeros(width), requires_grad=True),
            w2=ad.Tensor(rng.uniform(-b_hid, b_hid, size=(width, 1)),
                         requires_grad=True),
            b2=ad.Tensor(np.zeros(1), requires_grad=True),
        )

    def parameters(self) -> dict:
        return {"field.w1": self.w1, "field.b1": self.b1,
                "field.w2": self.w2, "field.b2": self.b2}


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of outer products of the rows of (..., p) `a` and (..., q) `b`
    over every leading axis: one (p, q) product."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def field_batch(x, horizon: Horizon) -> np.ndarray:
    """The vector field at (..., n) states as one RK4 stage of `horizon`:
    a (..., n) array."""
    return horizon.stage(x)


class Horizon:
    """The RK4 forecast over fixed stalks, recorded as one tape node.

    The stalk term of the field's first layer, `stalks @ W1[1:] + b1`, is
    computed once. Each RK4 stage adds the state's part and runs the rest
    of the field in numpy; while the tape records, the stage keeps its
    input and hidden activation. `node` wraps the RK4 states as one
    (..., n, n_steps) tensor whose backward is the exact discrete adjoint
    of the RK4 tableau. That backward runs once (the engine drops it after
    it has run), so it turns the kept activations themselves into every
    stage's slope 1 - h^2 and allocates nothing activation-sized; its
    largest temporaries are window-sized.

    Stages are evaluated as `field_batch(x, horizon)`, so every field
    evaluation has one entry point; the bench harness
    (`benchmarks/layers.py`) times and counts them by wrapping
    `sheafcast.model.field_batch`.
    """

    def __init__(self, stalks, params: VectorFieldParams, dt: float, n_steps: int):
        self.stalks = ad.lift(stalks)
        self.params = params
        self.dt = float(dt)
        width = self.stalks.data.shape[-1] + 1
        if width != params.in_dim:
            raise ShapeMismatchError(f"field input width {width} != {params.in_dim}")
        # row 0 of W1 multiplies the state, the others the stalk
        self.term = self.stalks.data @ params.w1.data[1:] + params.b1.data
        self.keep = ad.records(self.stalks, params.w1, params.b1, params.w2,
                               params.b2)
        if self.keep:
            self.inputs = np.empty((4 * n_steps,) + self.term.shape[:-1])
            self.hidden = np.empty((4 * n_steps,) + self.term.shape)
        self.stages = 0

    def stage(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        p = self.params
        pre = self.term + x[..., None] * p.w1.data[0]
        if self.keep:
            self.inputs[self.stages] = x
            hidden = np.tanh(pre, out=self.hidden[self.stages])
        else:
            hidden = np.tanh(pre)
        self.stages += 1
        return hidden @ p.w2.data[:, 0] + p.b2.data[0]

    def node(self, states) -> ad.Tensor:
        values = np.stack(states, axis=-1)
        p = self.params
        if not self.keep:
            return ad.Tensor(values)
        dt, (*rows, n_steps), w2 = self.dt, values.shape, p.w2.data[:, 0]
        inputs, hidden, stalks = self.inputs, self.hidden, self.stalks.data
        w_h = p.w1.data[1:]
        # a stage's output k feeds x_next with weight dt * b_j and the next
        # stage's input with weight dt * a_j (the classical tableau)
        b_weights = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
        a_weights = (dt / 2.0, dt / 2.0, dt)

        def backward(g):
            # d k / d x of each stage (the field is per node in the state),
            # from one stage-sized buffer for the slope 1 - h^2
            w_x = w2 * p.w1.data[0]
            slope = np.empty(hidden.shape[1:])
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
                    np.multiply(hidden[s], hidden[s], out=slope)
                    np.subtract(1.0, slope, out=slope)
                    g_in = (slope @ w_x) * g_k[s]
                    g_next = g_next + g_in
                g_x = g_next
            g_w2 = _contract(hidden, g_k[..., None])
            # d loss / d pre = slopes * g_k * w2, built in the kept
            # activations themselves; w2 is applied after the sums
            slopes = hidden
            slopes *= hidden
            np.subtract(1.0, slopes, out=slopes)
            slopes *= g_k[..., None]
            g_term = slopes.sum(axis=0)
            g_term *= w2
            g_wx = (inputs.reshape(-1) @ slopes.reshape(-1, slopes.shape[-1])) * w2
            g_w1 = np.vstack([g_wx, _contract(stalks, g_term)])
            return (g_term @ w_h.T, g_w1, g_term.reshape(-1, g_term.shape[-1]).sum(axis=0),
                    g_w2, g_k.reshape(-1).sum(keepdims=True))

        return ad.node(values, (self.stalks, p.w1, p.b1, p.w2, p.b2), backward)


def rk4_states(f, x0, t0: float, dt: float, n_steps: int) -> list:
    """States after each of `n_steps` classical RK4 steps of dx/dt = f(t, x)
    (x0 excluded); works on ndarrays and Tensors alike.

    The pipeline steps ndarrays (`Horizon` records the tape node); the
    Tensor path serves the composed-op oracles of the tests."""
    states = []
    x = x0
    t = t0
    for step in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + dt / 2.0, x + (dt / 2.0) * k1)
        k3 = f(t + dt / 2.0, x + (dt / 2.0) * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        data = x.data if isinstance(x, ad.Tensor) else np.asarray(x)
        if not np.all(np.isfinite(data)):
            raise NonFiniteStateError(
                f"non-finite state after step {step + 1} (t={t + dt:g})")
        states.append(x)
        t += dt
    return states
