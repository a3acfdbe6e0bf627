"""Continuous-time evolution: the per-node vector field and fixed-step RK4.

The vector field is a two-layer tanh MLP shared across nodes. Its input is
the concatenation [x_i; h_i] of the node's current signal value and its
post-message-passing stalk; a state-free variant (input h_i alone, the
literal constant-slope reading) is available for ablation. The integrator
is the classical RK4 tableau, differentiable end to end because every step
runs through the autodiff tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidParameterError, NonFiniteStateError, ShapeMismatchError


@dataclass
class VectorFieldParams:
    """Two-layer MLP mapping [x; h] (or h alone) to a scalar derivative."""

    w1: ad.Tensor                     # (in_dim, width)
    b1: ad.Tensor                     # (width,)
    w2: ad.Tensor                     # (width, 1)
    b2: ad.Tensor                     # (1,)
    state_free: bool = False

    @property
    def in_dim(self) -> int:
        return self.w1.data.shape[0]

    @property
    def width(self) -> int:
        return self.w1.data.shape[1]

    @classmethod
    def init(cls, stalk_dim: int, width: int, rng: np.random.Generator,
             state_free: bool = False) -> "VectorFieldParams":
        in_dim = stalk_dim if state_free else stalk_dim + 1
        b_in = 1.0 / np.sqrt(in_dim)
        b_hid = 1.0 / np.sqrt(width)
        return cls(
            w1=ad.Tensor(rng.uniform(-b_in, b_in, size=(in_dim, width)),
                         requires_grad=True),
            b1=ad.Tensor(np.zeros(width), requires_grad=True),
            w2=ad.Tensor(rng.uniform(-b_hid, b_hid, size=(width, 1)),
                         requires_grad=True),
            b2=ad.Tensor(np.zeros(1), requires_grad=True),
            state_free=state_free,
        )

    def parameters(self) -> dict:
        return {"field.w1": self.w1, "field.b1": self.b1,
                "field.w2": self.w2, "field.b2": self.b2}


@dataclass
class ForecastTrajectory:
    """States recorded after each integrator step."""

    values: np.ndarray                # (n_nodes, n_steps)
    times: np.ndarray                 # (n_steps,)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteStateError("trajectory contains non-finite values")
        steps = np.diff(self.times)
        if len(steps) and not np.allclose(steps, steps[0]):
            raise InvalidParameterError("trajectory times must be uniform")


def field_batch(x, stalks, params: VectorFieldParams) -> ad.Tensor:
    """Evaluate the vector field for all nodes at once: states (..., n) or
    (..., n, 1) and stalks (..., n, d) give (..., n, 1)."""
    x = ad.lift(x)
    stalks = ad.lift(stalks)
    if x.data.ndim == stalks.data.ndim - 1:
        x = x.reshape(x.data.shape + (1,))
    if params.state_free:
        inp = stalks
    else:
        inp = ad.concatenate([x, stalks], axis=-1)
    if inp.data.shape[-1] != params.in_dim:
        raise ShapeMismatchError(
            f"field input width {inp.data.shape[-1]} != {params.in_dim}")
    hidden = ad.tanh(inp @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


def vector_field(x_i: float, h_i, params: VectorFieldParams) -> float:
    """Scalar derivative for a single node."""
    h_i = np.asarray(h_i, dtype=np.float64)
    out = field_batch(np.array([float(x_i)]), h_i[None, :], params)
    return float(out.data[0, 0])


def rk4_step(f, t: float, x, dt: float):
    """One classical RK4 step; works on ndarrays and Tensors alike."""
    k1 = f(t, x)
    k2 = f(t + dt / 2.0, x + (dt / 2.0) * k1)
    k3 = f(t + dt / 2.0, x + (dt / 2.0) * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_states(f, x0, t0: float, dt: float, n_steps: int) -> list:
    """States after each of `n_steps` RK4 steps (x0 excluded)."""
    states = []
    x = x0
    t = t0
    for step in range(n_steps):
        x = rk4_step(f, t, x, dt)
        data = x.data if isinstance(x, ad.Tensor) else np.asarray(x)
        if not np.all(np.isfinite(data)):
            raise NonFiniteStateError(
                f"non-finite state after step {step + 1} (t={t + dt:g})")
        states.append(x)
        t += dt
    return states


def rk4_integrate(x0, field, t_span, dt: float) -> ForecastTrajectory:
    """Integrate dx/dt = field(t, x) over t_span with fixed step dt.

    `t_span` is (t_start, t_end) and its length must be an integer multiple
    of dt. The returned trajectory records the state after every step.
    """
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    n_steps = span / dt
    if span <= 0 or abs(n_steps - round(n_steps)) > 1e-9:
        raise InvalidParameterError(
            f"t_span length {span:g} is not a positive multiple of dt={dt:g}")
    n_steps = int(round(n_steps))

    x0 = np.asarray(x0, dtype=np.float64)
    states = rk4_states(lambda t, x: np.asarray(field(t, x), dtype=np.float64),
                        x0, t0, dt, n_steps)
    values = np.stack([np.atleast_1d(s) for s in states], axis=-1)
    times = t0 + dt * np.arange(1, n_steps + 1)
    return ForecastTrajectory(values=values, times=times)
