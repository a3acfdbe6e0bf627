import tracemalloc

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.errors import (InvalidParameterError, NonFiniteStateError,
                              ShapeMismatchError)
from sheafcast.model import ForecastModel, ModelConfig

from oracles import finite_difference_grads, forward_composed, relative_errors


def _edges():
    return np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3]])


def _model(ablation="full", seed=1, **kw):
    base = dict(stalk_dim=6, map_dim=6, rounds=2, normalize=True, field_width=8)
    base.update(kw)
    cfg = ModelConfig(ablation=ablation, **base)
    return ForecastModel.init(_edges(), 4, cfg, seed=seed)


def test_forward_shapes_and_determinism():
    model = _model()
    rng = np.random.default_rng(0)
    ctx = rng.normal(size=(4, 12))
    a = model.predict(ctx, 7)
    b = model.predict(ctx, 7)
    assert a.shape == (4, 7)
    np.testing.assert_array_equal(a, b)
    _, delta = model.forward(ctx, 3)
    assert delta.data.shape == (6, 6)


def test_context_shape_is_validated():
    model = _model()
    with pytest.raises(ShapeMismatchError):
        model.predict(np.zeros((5, 12)), 4)


def test_forecast_horizon_must_be_positive():
    model = _model()
    for t_hor in (0, -1):
        with pytest.raises(InvalidParameterError, match="t_hor"):
            model.predict(np.zeros((4, 12)), t_hor)


def test_ablation_parameter_sets():
    full = _model("full")
    graph = _model("graph")
    no_lstm = _model("no_lstm")
    assert set(full.parameters()) == {
        "lstm.w_x", "lstm.w_h", "lstm.bias",
        "sheaf.rho_src", "sheaf.rho_dst", "sheaf.attention",
        "field.w1", "field.b1", "field.w2", "field.b2"}
    assert not any(k.startswith("sheaf.") for k in graph.parameters())
    assert not any(k.startswith("lstm.") for k in no_lstm.parameters())
    # frozen identity maps in the graph ablation
    eye = np.broadcast_to(np.eye(6), (6, 6, 6))
    np.testing.assert_array_equal(graph.sheaf.rho_src.data, eye)


def test_graph_ablation_requires_square_maps():
    with pytest.raises(InvalidParameterError):
        ModelConfig(ablation="graph", stalk_dim=6, map_dim=4)


@pytest.mark.parametrize("bad", [dict(stalk_dim=0), dict(field_width=0), dict(map_dim=-1),
                                 dict(rounds=-1), dict(dt=0.0), dict(dt=-1.0),
                                 dict(ablation="banana")])
def test_model_config_refuses_values_outside_their_domain(bad):
    with pytest.raises(InvalidParameterError):
        ModelConfig(**bad)


def test_no_lstm_uses_raw_window_stalks():
    model = _model("no_lstm", stalk_dim=6, map_dim=6)
    ctx = np.arange(48, dtype=float).reshape(4, 12)
    stalks = model.stalks(ctx).data
    np.testing.assert_array_equal(stalks, ctx[:, -6:])


def test_full_pipeline_gradients_match_finite_differences():
    from sheafcast.graphs import PriorGraph
    from sheafcast.training import total_loss

    model = _model(stalk_dim=3, map_dim=3, field_width=4, rounds=2)
    rng = np.random.default_rng(2)
    ctx = rng.normal(size=(4, 5))
    hor = rng.normal(size=(4, 3))
    prior = PriorGraph(edges=tuple(map(tuple, _edges()[:4])), scores=(1.0,) * 4,
                       lag_order=2, top_k=4, n_nodes=4)
    params = model.parameters()

    def loss_fn():
        pred, delta = model.forward(ctx, 3)
        return total_loss(pred, hor, delta, prior, 1e-3, 1e-2,
                          model.sheaf.edges)

    for p in params.values():
        p.grad = None
    loss_fn().backward()
    numeric = finite_difference_grads(lambda: loss_fn().data, params)
    for name, p in params.items():
        errs = relative_errors(p.grad, numeric[name])
        assert errs.max() <= 1e-3, f"{name}: {errs.max():.2e}"


# ----------------------------------------------------------------------
# the fused LSTM and RK4 nodes against the composed-op oracles
# ----------------------------------------------------------------------
def _rel(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


def _value_and_grads(model, forward, ctx, target):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    pred, delta = forward(ctx)
    loss = ((pred - target) * (pred - target)).mean() + 0.1 * ad.absolute(delta).sum()
    loss.backward()
    return pred.data, {k: p.grad.copy() for k, p in params.items()}


@pytest.mark.parametrize("t_ctx", [1, 9])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("ablation", ["full", "graph", "no_lstm"])
def test_fused_nodes_match_composed_oracle(ablation, batch, t_ctx):
    model = _model(ablation, seed=3, map_dim=6 if ablation == "graph" else 4, dt=0.5)
    rng = np.random.default_rng(batch * 10 + t_ctx)
    ctx = rng.normal(size=(batch, 4, t_ctx))
    target = rng.normal(size=(batch, 4, 5))
    pred, grads = _value_and_grads(model, lambda c: model.forward(c, 5), ctx, target)
    ref, ref_grads = _value_and_grads(model, lambda c: forward_composed(model, c, 5),
                                      ctx, target)
    assert pred.shape == ref.shape == (batch, 4, 5)
    assert _rel(pred, ref) <= 1e-12
    assert set(grads) == set(ref_grads) == set(model.parameters())
    for name in ref_grads:
        assert _rel(grads[name], ref_grads[name]) <= 1e-12, name


def test_no_grad_forward_records_nothing_and_keeps_no_cache():
    # long enough that per-step caches would dominate: 200 LSTM steps and
    # 100 RK4 steps over a stack of 8 windows
    model = _model(stalk_dim=16, map_dim=4, field_width=32)
    ctx = np.random.default_rng(5).normal(size=(8, 4, 200))
    rows = 8 * 4
    gate_cache = 200 * rows * (5 * 16) * 8                # gates, c
    stage_cache = 4 * 100 * rows * (32 + 1) * 8           # hidden, input
    model.predict(ctx, 100)                               # warm up
    tracemalloc.start()
    try:
        with ad.no_grad():
            stalks = model.stalks(ctx)
            pred, delta = model.forward(ctx, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for out in (stalks, pred, delta):
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
    assert pred.data.shape == (8, 4, 100)
    assert peak < min(gate_cache, stage_cache) / 10, peak
    # with the tape on, the same forward does keep its caches
    tracemalloc.start()
    try:
        pred, _ = model.forward(ctx, 100)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred._backward is not None
    assert current > gate_cache + stage_cache


@pytest.mark.parametrize("grad", [True, False])
def test_diverging_field_names_the_step_and_time(grad):
    model = _model(dt=0.5)
    model.vfield.b2.data[:] = 1e307                  # each step adds 0.5e307
    ctx = np.zeros((4, 12))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteStateError, match=r"after step 36 \(t=18\)"):
        if grad:
            model.forward(ctx, 50)
        else:
            model.predict(ctx, 50)
