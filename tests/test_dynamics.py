import gc
import tracemalloc

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.dynamics import (ForecastTrajectory, Horizon, VectorFieldParams,
                                rk4_integrate, rk4_states, vector_field)
from sheafcast.errors import (InvalidParameterError, NonFiniteStateError,
                              ShapeMismatchError)


def _zero_field(stalk_dim=3, width=4):
    rng = np.random.default_rng(0)
    params = VectorFieldParams.init(stalk_dim, width, rng)
    for t in (params.w1, params.b1, params.w2, params.b2):
        t.data[:] = 0.0
    return params


def test_zero_weights_zero_derivative():
    params = _zero_field()
    assert vector_field(1.7, np.array([1.0, -2.0, 0.5]), params) == 0.0


def test_constructed_negative_feedback_field():
    # first layer passes x through one tanh-linearized unit, second negates
    params = _zero_field(stalk_dim=2, width=1)
    params.w1.data[0, 0] = 1.0      # picks up x from [x; h]
    params.w2.data[0, 0] = -1.0
    out = vector_field(0.0, np.zeros(2), params)
    assert out == 0.0
    # for small x, tanh(x) ~ x so the field is approximately -x
    small = vector_field(1e-4, np.zeros(2), params)
    np.testing.assert_allclose(small, -1e-4, rtol=1e-6)
    exact = vector_field(1.0, np.zeros(2), params)
    np.testing.assert_allclose(exact, -np.tanh(1.0), rtol=1e-12)


# ----------------------------------------------------------------------
# RK4
# ----------------------------------------------------------------------
def test_zero_field_constant_trajectory():
    traj = rk4_integrate(np.full(3, 2.5), lambda t, x: np.zeros_like(x),
                         (0.0, 5.0), 1.0)
    assert traj.values.shape == (3, 5)
    assert np.all(traj.values == 2.5)
    np.testing.assert_allclose(traj.times, [1, 2, 3, 4, 5])


def test_single_step_decay_matches_hand_tableau():
    traj = rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 1.0), 1.0)
    assert traj.values[0, 0] == 0.375


def test_halving_dt_gains_factor_16_on_decay():
    def global_err(dt):
        traj = rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 1.0), dt)
        return np.abs(traj.values[0] - np.exp(-traj.times)).max()

    ratio = global_err(0.1) / global_err(0.05)
    assert ratio >= 14.0


@pytest.mark.parametrize("field,solution", [
    (lambda t, x: -x, lambda t: np.exp(-t)),
    (lambda t, x: np.cos(t) * np.ones_like(x), lambda t: np.sin(t)),
])
def test_empirical_order_at_least_3_8(field, solution):
    def global_err(dt):
        x0 = np.array([solution(0.0)])
        traj = rk4_integrate(x0, field, (0.0, 2.0), dt)
        return np.abs(traj.values[0] - solution(traj.times)).max()

    e1, e2 = global_err(0.1), global_err(0.05)
    order = np.log2(e1 / e2)
    assert order >= 3.8


def test_non_finite_state_aborts_with_diagnostic():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError, match="step"):
        rk4_integrate(np.array([1.0]), lambda t, x: x * 1e6, (0.0, 40.0), 1.0)


def test_t_span_must_divide_by_dt():
    with pytest.raises(InvalidParameterError):
        rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 1.0), 0.3)
    with pytest.raises(InvalidParameterError):
        rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 0.0), 0.5)
    with pytest.raises(InvalidParameterError):
        rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 1.0), -0.5)


def test_trajectory_invariants():
    with pytest.raises(NonFiniteStateError):
        ForecastTrajectory(values=np.array([[np.nan]]), times=np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        ForecastTrajectory(values=np.ones((1, 3)),
                           times=np.array([1.0, 2.0, 4.0]))


def test_shape_mismatch_raises():
    params = _zero_field(stalk_dim=3)
    with pytest.raises(ShapeMismatchError):
        vector_field(0.0, np.zeros(5), params)


def test_horizon_backward_builds_its_slopes_in_one_block():
    # pipeline-default's training step: B 5, n 100, d 32, field width 64,
    # t_hor 10
    B, n, d, width, t_hor, dt = 5, 100, 32, 64, 10, 0.1
    rng = np.random.default_rng(15)
    params = VectorFieldParams.init(d, width, rng)
    stalks = ad.Tensor(rng.normal(size=(B, n, d)), requires_grad=True)
    x0 = rng.normal(size=(B, n))
    block = 8 * 4 * t_hor * B * n * width          # every stage's activation
    # the other backward arrays: the gradients into and out of the node,
    # g_k and d k / d x per stage, the stalk term's gradient and the
    # stalks' gradient
    window_sized = 8 * B * n * (3 * t_hor + 2 * 4 * t_hor + width + d)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        horizon = Horizon(stalks, params, dt, t_hor)
        out = horizon.node(rk4_states(lambda _t, x: horizon.stage(x), x0, 0.0, dt, t_hor))
        del horizon
        tape = tracemalloc.get_traced_memory()[0] - base
        loss = (out * out).sum()
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert stalks.grad is not None
    assert tape >= block
    assert peak - tape <= block + window_sized + 2 ** 16, (peak - tape, block)
