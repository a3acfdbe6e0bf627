import tracemalloc

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.dynamics import Horizon, VectorFieldParams, rk4_states
from sheafcast.errors import NonFiniteStateError, ShapeMismatchError

from oracles import horizon_node_slopes_buffer


def _zero_field(stalk_dim=3, width=4):
    rng = np.random.default_rng(0)
    params = VectorFieldParams.init(stalk_dim, width, rng)
    for t in (params.w1, params.b1, params.w2, params.b2):
        t.data[:] = 0.0
    return params


def _field(x, h, params):
    """The field at one node's state x and stalk h: one RK4 stage."""
    with ad.no_grad():
        horizon = Horizon(np.asarray(h, dtype=np.float64)[None, :], params, 1.0, 1)
        return float(horizon.stage(np.array([x]))[0])


def test_zero_weights_zero_derivative():
    params = _zero_field()
    assert _field(1.7, [1.0, -2.0, 0.5], params) == 0.0


def test_constructed_negative_feedback_field():
    # first layer passes x through one tanh-linearized unit, second negates
    params = _zero_field(stalk_dim=2, width=1)
    params.w1.data[0, 0] = 1.0      # picks up x from [x; h]
    params.w2.data[0, 0] = -1.0
    out = _field(0.0, np.zeros(2), params)
    assert out == 0.0
    # for small x, tanh(x) ~ x so the field is approximately -x
    small = _field(1e-4, np.zeros(2), params)
    np.testing.assert_allclose(small, -1e-4, rtol=1e-6)
    exact = _field(1.0, np.zeros(2), params)
    np.testing.assert_allclose(exact, -np.tanh(1.0), rtol=1e-12)


# ----------------------------------------------------------------------
# RK4
# ----------------------------------------------------------------------
# the single dt = 1 step of dx/dt = -x and the factor halving dt gains are
# acceptance criterion 4
def test_zero_field_constant_trajectory():
    states = rk4_states(lambda t, x: np.zeros_like(x), np.full(3, 2.5), 0.0, 1.0, 5)
    assert len(states) == 5
    assert np.all(np.stack(states) == 2.5)


@pytest.mark.parametrize("field,solution", [
    (lambda t, x: -x, lambda t: np.exp(-t)),
    (lambda t, x: np.cos(t) * np.ones_like(x), lambda t: np.sin(t)),
])
def test_empirical_order_at_least_3_8(field, solution):
    def global_err(dt):
        n = round(2.0 / dt)
        states = rk4_states(field, np.array([solution(0.0)]), 0.0, dt, n)
        return np.abs(np.concatenate(states) - solution(dt * np.arange(1, n + 1))).max()

    e1, e2 = global_err(0.1), global_err(0.05)
    order = np.log2(e1 / e2)
    assert order >= 3.8


def test_non_finite_state_aborts_with_diagnostic():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError, match="step"):
        rk4_states(lambda t, x: x * 1e6, np.array([1.0]), 0.0, 1.0, 40)


def test_shape_mismatch_raises():
    params = _zero_field(stalk_dim=3)
    with pytest.raises(ShapeMismatchError):
        _field(0.0, np.zeros(5), params)


@pytest.mark.parametrize("rows, d, width, t_hor", [
    ((32, 10), 16, 32, 10),         # the acceptance fixture's training step
    ((5, 100), 32, 64, 10),         # pipeline-default's training step
    ((4,), 3, 5, 1),                # one unbatched window, one RK4 step
], ids=["fixture", "default", "t_hor-1"])
def test_horizon_backward_matches_the_slopes_buffer_oracle_bit_for_bit(rows, d, width,
                                                                      t_hor):
    dt = 0.1
    rng = np.random.default_rng(16)
    params = VectorFieldParams.init(d, width, rng)
    stalks = ad.Tensor(rng.normal(size=rows + (d,)), requires_grad=True)
    x0 = rng.normal(size=rows)
    weights = rng.normal(size=rows + (t_hor,))
    leaves = (stalks, params.w1, params.b1, params.w2, params.b2)
    grads = []
    for build in (Horizon.node, horizon_node_slopes_buffer):
        horizon = Horizon(stalks, params, dt, t_hor)
        out = build(horizon, rk4_states(lambda _t, x: horizon.stage(x), x0, 0.0, dt,
                                        t_hor))
        (out * out * weights).sum().backward()
        grads.append([t.grad for t in leaves])
        for t in leaves:
            t.grad = None
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def test_horizon_backward_builds_its_slopes_in_the_kept_activations(traced_memory):
    # pipeline-default's training step: B 5, n 100, d 32, field width 64,
    # t_hor 10
    B, n, d, width, t_hor, dt = 5, 100, 32, 64, 10, 0.1
    rng = np.random.default_rng(15)
    params = VectorFieldParams.init(d, width, rng)
    stalks = ad.Tensor(rng.normal(size=(B, n, d)), requires_grad=True)
    x0 = rng.normal(size=(B, n))
    block = 8 * 4 * t_hor * B * n * width          # every stage's activation
    # the backward's own arrays: the window-sized gradients into and out of
    # the node, g_k and as much again for the per-stage products, the stalk
    # term's gradient and the stalks' gradient, and one stage's
    # (B, n, width) slope
    window_sized = 8 * B * n * (3 * t_hor + 2 * 4 * t_hor + width + d)
    stage = 8 * B * n * width
    traced_memory.rebase()
    horizon = Horizon(stalks, params, dt, t_hor)
    out = horizon.node(rk4_states(lambda _t, x: horizon.stage(x), x0, 0.0, dt, t_hor))
    del horizon
    tape, _ = traced_memory()
    loss = (out * out).sum()
    tracemalloc.reset_peak()
    loss.backward()
    _, peak = traced_memory()
    assert stalks.grad is not None
    assert tape >= block
    assert peak - tape <= window_sized + stage + 2 ** 16, (peak - tape, block)
