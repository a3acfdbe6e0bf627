import gc
import tracemalloc

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.encoder import LstmParams, encode_all, encode_history, raw_stalks
from sheafcast.errors import ShapeMismatchError

from oracles import (encode_all_kept, finite_difference_grads, lstm_reference,
                     relative_errors)


def test_zero_parameters_encode_to_zero():
    params = LstmParams.zeros(4)
    out = encode_history(np.array([1.0, -2.0, 3.0]), params)
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_scalar_hand_trace_single_step():
    # d=1, unit input weights, zero recurrents and biases, x=[1]
    params = LstmParams.zeros(1)
    params.w_x.data[:] = 1.0
    out = encode_history(np.array([1.0]), params)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    expected = sig(1.0) * np.tanh(sig(1.0) * np.tanh(1.0))
    np.testing.assert_allclose(out.data, [expected], rtol=1e-12)


def test_matches_plain_loop_reference():
    rng = np.random.default_rng(0)
    params = LstmParams.init(5, rng)
    x = rng.normal(size=12)
    got = encode_history(x, params).data
    want = lstm_reference(x, params.w_x.data, params.w_h.data, params.bias.data)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_constant_input_converges_for_contractive_draw():
    rng = np.random.default_rng(1)
    params = LstmParams.init(4, rng)
    for t in (params.w_x, params.w_h, params.bias):
        t.data *= 0.5
    x = np.ones(64)
    h_16 = encode_history(x[:16], params).data
    h_32 = encode_history(x[:32], params).data
    h_64 = encode_history(x, params).data
    assert np.linalg.norm(h_64 - h_32) < np.linalg.norm(h_32 - h_16)


def test_encode_all_matches_per_row_encoding():
    rng = np.random.default_rng(2)
    params = LstmParams.init(3, rng)
    ctx = rng.normal(size=(4, 7))
    stacked = encode_all(ctx, params).data
    for i in range(4):
        np.testing.assert_allclose(stacked[i],
                                   encode_history(ctx[i], params).data)


def test_identical_rows_share_stalks_and_permutation_equivariance():
    rng = np.random.default_rng(3)
    params = LstmParams.init(3, rng)
    row = rng.normal(size=6)
    same = encode_all(np.tile(row, (3, 1)), params).data
    assert np.allclose(same[0], same[1]) and np.allclose(same[1], same[2])

    ctx = rng.normal(size=(5, 6))
    perm = rng.permutation(5)
    np.testing.assert_allclose(encode_all(ctx[perm], params).data,
                               encode_all(ctx, params).data[perm])


def test_gradients_match_finite_differences():
    # scalar loss through encode_history on a d=3, T=5 instance
    rng = np.random.default_rng(4)
    params = LstmParams.init(3, rng)
    seq = rng.normal(size=5)
    tensors = params.parameters()

    def loss_fn():
        out = encode_history(seq, params)
        return (out * out).sum()

    for t in tensors.values():
        t.grad = None
    loss_fn().backward()
    numeric = finite_difference_grads(lambda: loss_fn().data, tensors, step=1e-4)
    for name, t in tensors.items():
        errs = relative_errors(t.grad, numeric[name])
        assert errs.max() <= 1e-4, f"{name}: {errs.max():.2e}"


def _stalks_and_grads(encode, params, ctx, g_out):
    for t in (params.w_x, params.w_h, params.bias):
        t.grad = None
    out = encode(ctx, params)
    (out * ad.Tensor(g_out)).sum().backward()
    return out.data, [t.grad.copy() for t in (params.w_x, params.w_h, params.bias)]


@pytest.mark.parametrize("shape, d", [((32, 10, 30), 16), ((5, 100, 30), 32),
                                      ((3, 10, 1), 16), ((10, 1), 16)],
                         ids=["fixture", "default", "one-step", "one-window"])
def test_encode_all_equals_the_kept_input_node_bit_for_bit(shape, d):
    # the backward rebuilds tanh(c) and the step input with the forward's
    # own float operations, so nothing may differ in the last bit
    rng = np.random.default_rng(d + shape[-1])
    params = LstmParams.init(d, rng)
    ctx = rng.normal(size=shape)
    g_out = rng.normal(size=shape[:-1] + (d,))
    got, got_grads = _stalks_and_grads(encode_all, params, ctx, g_out)
    want, want_grads = _stalks_and_grads(encode_all_kept, params, ctx, g_out)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.array_equal(g, w)


def test_encode_tape_keeps_only_gates_and_cells_at_the_default_training_shape():
    # pipeline-default's training step: B 5, n 100, t_ctx 30, d 32
    B, n, t_ctx, d = 5, 100, 30, 32
    rng = np.random.default_rng(14)
    params = LstmParams.init(d, rng)
    ctx = rng.normal(size=(B, n, t_ctx))
    gates = 8 * t_ctx * B * n * 4 * d
    cells = 8 * (t_ctx + 1) * B * n * d
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = encode_all(ctx, params)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert h._backward is not None
    assert kept <= gates + cells + h.data.nbytes + 2 ** 16, kept


def test_shape_errors():
    params = LstmParams.zeros(2)
    with pytest.raises(ShapeMismatchError):
        encode_all(np.zeros((2, 3, 4, 5)), params)
    with pytest.raises(ShapeMismatchError):
        encode_history(np.zeros((2, 2)), params)
    with pytest.raises(ShapeMismatchError):
        encode_all(np.zeros((2, 0)), params)


def test_raw_stalks_truncates_oldest_and_pads_left():
    ctx = np.arange(10, dtype=float)[None, :]
    out = raw_stalks(ctx, 4)
    np.testing.assert_array_equal(out, [[6.0, 7.0, 8.0, 9.0]])
    short = raw_stalks(ctx[:, :2], 4)
    np.testing.assert_array_equal(short, [[0.0, 0.0, 0.0, 1.0]])
