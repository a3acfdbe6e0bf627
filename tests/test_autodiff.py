"""Engine-level gradient checks against central finite differences."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.errors import ShapeMismatchError

from oracles import (concatenate, edge_matvec, edge_matvec_t, finite_difference_grads,
                     gather_rows, index_add_rows, relative_errors, tanh)


def check_grads(loss_fn, params, tol=1e-6):
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {k: p.grad if p.grad is not None else np.zeros_like(p.data)
                for k, p in params.items()}
    numeric = finite_difference_grads(lambda: loss_fn().data, params)
    for k in params:
        errs = relative_errors(analytic[k], numeric[k])
        assert errs.max() < tol, f"{k}: max rel err {errs.max():.3e}"


def test_arithmetic_and_broadcasting():
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4,)), requires_grad=True)

    def loss():
        out = (a * 2.0 + b) * (a - 0.5) * (1.0 / 3.0) - b * b
        return (out * out).sum()

    check_grads(loss, {"a": a, "b": b})


def test_matmul_and_reductions():
    rng = np.random.default_rng(1)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = rng.normal(size=(5, 4))

    def loss():
        h = tanh(ad.lift(x) @ w)             # the oracles' op, on ad.node
        out = ad.sigmoid(h @ v)
        return out.mean() + out.sum(axis=0).sum() * 0.1

    check_grads(loss, {"w": w, "v": v})


def test_getitem_slices_and_gather():
    rng = np.random.default_rng(2)
    t = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 4, 0])

    def loss():
        rows = gather_rows(t, idx)   # the oracles' gather: duplicates accumulate
        col = t[:, 1:3]
        return (rows * rows).sum() + ad.absolute(col).sum()

    check_grads(loss, {"t": t})
    # the engine's own indexing has no scatter-add backward
    with pytest.raises(IndexError):
        t[idx]


def test_concatenate_and_sqrt():
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.normal(size=(2, 3)) + 2.0, requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 2)) + 2.0, requires_grad=True)

    def loss():
        cat = concatenate([a, b], axis=1)    # the oracles' op, on ad.node
        return ad.sqrt((cat * cat).sum(axis=1)).sum()

    check_grads(loss, {"a": a, "b": b})


def test_edge_matvec_ops():
    # the oracles' per-edge products, on ad.node
    rng = np.random.default_rng(4)
    mats = ad.Tensor(rng.normal(size=(6, 3, 2)), requires_grad=True)
    vecs = ad.Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    covecs = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)

    def loss():
        fwd = edge_matvec(mats, vecs)
        back = edge_matvec_t(mats, covecs)
        return (fwd * fwd).sum() + (back * back).sum()

    check_grads(loss, {"mats": mats, "vecs": vecs, "covecs": covecs})


def test_index_add_rows_accumulates_duplicates():
    # the oracles' scatter, on ad.node
    rng = np.random.default_rng(5)
    src = ad.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    idx = np.array([0, 1, 1, 2, 0])

    def loss():
        agg = index_add_rows(src, idx, 4)
        return (agg * agg).sum()

    check_grads(loss, {"src": src})
    out = index_add_rows(src, idx, 4)
    expected = np.zeros((4, 2))
    np.add.at(expected, idx, src.data)
    np.testing.assert_allclose(out.data, expected)


def test_no_grad_suppresses_tape():
    t = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = (t * 2.0).sum()
    assert not out.requires_grad
    out2 = (t * 2.0).sum()
    assert out2.requires_grad


def test_backward_requires_scalar():
    t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        (t * 1.0).backward()


def test_grad_accumulates_across_uses():
    t = ad.Tensor(np.array([3.0]), requires_grad=True)
    out = t * t + t          # d/dt = 2t + 1 = 7
    out.backward()
    np.testing.assert_allclose(t.grad, [7.0])


def test_sigmoid_extreme_inputs_stable():
    t = ad.Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
    out = ad.sigmoid(t)
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
    out.sum().backward()
    assert np.all(np.isfinite(t.grad))


# ----------------------------------------------------------------------
# the tape is acyclic: reference counting frees it
# ----------------------------------------------------------------------
def _tape_refs(root):
    """Weak references to every recorded (non-leaf) node under `root`."""
    refs, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node))
        stack.extend(node._parents)
    return refs


def _model_loss(t_ctx, t_hor):
    from sheafcast.model import ForecastModel, ModelConfig

    rng = np.random.default_rng(7)
    model = ForecastModel.init(np.array([[0, 1], [1, 2], [2, 0]]), 3,
                               ModelConfig(stalk_dim=4, map_dim=3, rounds=2,
                                           normalize=True, field_width=5),
                               seed=0)
    pred, delta = model.forward(rng.normal(size=(2, 3, t_ctx)), t_hor)
    return model, (pred * pred).mean() + ad.absolute(delta).sum()


@pytest.mark.parametrize("t_ctx, t_hor", [(6, 3), (200, 100)],
                         ids=["short", "deep"])
def test_tape_is_freed_without_the_cycle_collector(t_ctx, t_hor):
    # the fused LSTM and RK4 nodes keep their per-step caches in their
    # backward closures: per LSTM step and (2·3) rows, the gates (4d) and
    # c (d) at d = 4; per RK4 stage a (2·3, 5) activation and a (2·3,) input
    cache_bytes = 8 * (t_ctx * 6 * (5 * 4) + 4 * t_hor * 6 * (5 + 1))
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        model, loss = _model_loss(t_ctx, t_hor)
        refs = _tape_refs(loss)
        for leaf in (model.lstm.w_h, model.vfield.w2):     # both fused nodes
            assert any(any(p is leaf for p in r()._parents) for r in refs)
        loss.backward()
        assert all(p.grad is not None for p in model.parameters().values())
        held, _ = tracemalloc.get_traced_memory()
        del loss
        assert all(r() is None for r in refs)
        freed = held - tracemalloc.get_traced_memory()[0]
        assert freed >= cache_bytes, (freed, cache_bytes)
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


def test_second_backward_accumulates_the_same_gradient_again():
    rng = np.random.default_rng(8)
    a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    hidden = ad.sigmoid(a @ b)
    loss = (hidden * hidden).sum() + a.sum()
    loss.backward()
    first = a.grad.copy(), b.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(a.grad, 2.0 * first[0])
    np.testing.assert_array_equal(b.grad, 2.0 * first[1])
    # one `+` hands the same gradient array to both of its leaves
    c = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    d = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    total = c + d
    loss = (total * total).sum()
    loss.backward()
    np.testing.assert_array_equal(c.grad, 2.0 * total.data)
    np.testing.assert_array_equal(d.grad, 2.0 * total.data)
    loss.backward()
    np.testing.assert_array_equal(c.grad, 4.0 * total.data)
    np.testing.assert_array_equal(d.grad, 4.0 * total.data)
