import gc
import json
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast import training
from sheafcast.data import make_windows
from sheafcast.artifacts import file_hash
from sheafcast.errors import ArtifactMismatchError, InvalidParameterError
from sheafcast.graphs import PriorGraph, generate_small_world
from sheafcast.model import ForecastModel, ModelConfig

from oracles import adamw_step_reference, loss_prior_sets, per_window_loss
from sheafcast.training import (AdamState, SeriesData, TrainingConfig,
                                _batch_loss, adamw_step, assign_folds,
                                baseline_copy_last,
                                cross_validate, forecast_windows,
                                load_checkpoint, loss_mse, loss_prior,
                                loss_sparse, save_checkpoint, total_loss,
                                train)


def _ar_series(seed, n=4, t=200):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, t))
    x[:, 0] = rng.normal(size=n)
    for k in range(1, t):
        x[:, k] = (0.85 * x[:, k - 1] + 0.1 * np.roll(x[:, k - 1], 1)
                   + 0.2 * rng.normal(size=n))
    return x


def _toy_prior(n=4):
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return PriorGraph(edges=edges, scores=(1.0,) * n, lag_order=2, top_k=2,
                      n_nodes=n)


def _toy_windows(n_series=6, seed0=0):
    windows = []
    for s in range(n_series):
        windows += make_windows(_ar_series(seed0 + s), 30, 10, 40,
                                source_id=f"s{s}")
    return windows


def _small_model_config(**kw):
    base = dict(stalk_dim=8, map_dim=8, rounds=1, normalize=True,
                field_width=8)
    base.update(kw)
    return ModelConfig(**base)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def test_loss_mse_examples():
    tgt = np.array([[0.0, 0.0]])
    assert float(loss_mse(tgt, tgt).data) == 0.0
    assert float(loss_mse(tgt + 1.0, tgt).data) == 1.0
    assert float(loss_mse(np.array([[0.0, 2.0]]), tgt).data) == 2.0


def test_loss_sparse_examples():
    assert float(loss_sparse(np.zeros((3, 2))).data) == 0.0
    one = np.array([[0.5, -0.5]])
    assert float(loss_sparse(one).data) == 1.0
    assert float(loss_sparse(2.0 * one).data) == 2.0 * float(loss_sparse(one).data)


def test_loss_prior_examples():
    prior = PriorGraph(edges=((0, 1),), scores=(1.0,), lag_order=2, top_k=2,
                       n_nodes=3)
    # prior edge with unit-norm delta contributes 0
    val = loss_prior(np.array([[1.0, 0.0]]), prior, edges=[(0, 1)])
    assert float(val.data) == pytest.approx(0.0)
    # non-prior edge contributes its norm
    val = loss_prior(np.array([[0.3, 0.0]]), prior, edges=[(1, 2)])
    assert float(val.data) == pytest.approx(0.3 + 1.0)  # +1 for missing prior edge
    # prior edge absent from the sheaf graph contributes exactly 1
    val = loss_prior(np.zeros((1, 2)), prior, edges=[(2, 0)])
    assert float(val.data) == pytest.approx(0.0 + 1.0)


def test_loss_prior_zero_iff_indicator_matched():
    prior = PriorGraph(edges=((0, 1),), scores=(1.0,), lag_order=2, top_k=2)
    exact = loss_prior(np.array([[0.6, 0.8], [0.0, 0.0]]), prior,
                       edges=[(0, 1), (1, 0)])
    assert float(exact.data) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n, n_edges, n_prior", [(100, 800, 800), (7, 12, 5), (3, 0, 2),
                                                  (4, 3, 0)])
def test_loss_prior_equals_the_set_membership_version(n, n_edges, n_prior):
    # half the prior edges are sheaf edges, so both the indicator and the
    # missing-edge count have ones and zeros
    rng = np.random.default_rng(n)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    picked = rng.permutation(len(pairs))
    sheaf = [pairs[i] for i in picked[:n_edges]]
    shared = min(n_prior // 2, n_edges)
    prior_edges = sorted([pairs[i] for i in picked[:shared]]
                         + [pairs[i] for i in picked[n_edges:n_edges + n_prior - shared]])
    prior = PriorGraph(edges=tuple(prior_edges), scores=(1.0,) * len(prior_edges),
                       lag_order=3, top_k=n, n_nodes=n)
    delta = rng.normal(size=(5, n_edges, 4))
    got_delta = ad.Tensor(delta, requires_grad=True)
    want_delta = ad.Tensor(delta, requires_grad=True)
    got = loss_prior(got_delta, prior, sheaf)
    want = loss_prior_sets(want_delta, prior, sheaf)
    assert np.array_equal(got.data, want.data)
    got.backward()
    want.backward()
    assert np.array_equal(got_delta.grad, want_delta.grad)


def test_total_loss_weighted_sum_and_linearity():
    prior = _toy_prior()
    pred = ad.Tensor(np.array([[1.0, 2.0]]))
    tgt = np.array([[0.0, 1.0]])
    delta = np.array([[2.0, 0.0]] * 4)
    mse_c = float(loss_mse(pred, tgt).data)
    sp_c = float(loss_sparse(delta).data)
    pr_c = float(loss_prior(delta, prior, prior.edges).data)

    for l1, l2 in ((0.1, 0.01), (0.0, 0.0), (0.5, 0.2)):
        got = float(total_loss(pred, tgt, delta, prior, l1, l2,
                               prior.edges).data)
        assert got == pytest.approx(mse_c + l1 * sp_c + l2 * pr_c)


def test_total_loss_literal_123():
    # components (1.0, 2.0, 3.0) with weights (0.1, 0.01) -> 1.23
    assert 1.0 + 0.1 * 2.0 + 0.01 * 3.0 == pytest.approx(1.23)


# ----------------------------------------------------------------------
# AdamW
# ----------------------------------------------------------------------
def test_adamw_zero_gradient_zero_decay_is_identity():
    p = {"w": np.array([1.0, -2.0])}
    adamw_step(p, {"w": np.zeros(2)}, AdamState(), lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p["w"], [1.0, -2.0])


def test_adamw_decoupled_decay_shrinks():
    p = {"w": np.array([2.0])}
    adamw_step(p, {"w": np.zeros(1)}, AdamState(), lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(p["w"], [2.0 * (1.0 - 0.1 * 0.5)])


def test_adamw_first_step_scalar_hand_trace():
    g = 0.3
    lr, eps = 1e-2, 1e-8
    p = {"w": np.array([1.0])}
    adamw_step(p, {"w": np.array([g])}, AdamState(), lr=lr, weight_decay=0.0)
    # bias-corrected m_hat = g, v_hat = g^2 on step one
    expected = 1.0 - lr * g / (np.sqrt(g * g) + eps)
    np.testing.assert_allclose(p["w"], [expected], rtol=1e-12)


def test_adamw_lr_zero_is_identity():
    rng = np.random.default_rng(0)
    p = {"w": rng.normal(size=4)}
    before = p["w"].copy()
    adamw_step(p, {"w": rng.normal(size=4)}, AdamState(), lr=0.0,
               weight_decay=0.3)
    np.testing.assert_array_equal(p["w"], before)


def test_adamw_in_place_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = {"maps": (40, 8, 8), "vec": (8,), "frozen": (3, 2)}
    ours = {k: rng.normal(size=s) for k, s in shapes.items()}
    ref = {k: v.copy() for k, v in ours.items()}
    state, ref_state = AdamState(), AdamState()
    for step in range(6):
        grads = {k: rng.normal(size=s) * 10.0 ** (step - 3) for k, s in shapes.items()}
        grads["frozen"] = None
        lr = 1e-3 * (0.5 ** step)
        adamw_step(ours, grads, state, lr=lr, weight_decay=1e-2)
        adamw_step_reference(ref, grads, ref_state, lr=lr, weight_decay=1e-2)
        for k in shapes:
            assert np.array_equal(ours[k], ref[k]), (step, k)
            assert np.array_equal(state.m[k], ref_state.m[k])
            assert np.array_equal(state.v[k], ref_state.v[k])


def test_adamw_step_holds_no_parameter_sized_scratch():
    """Once its moments exist, a step over the two restriction maps at the
    default training shape peaks below one map's bytes: the update runs in
    blocks through block-sized scratch, where two parameter-sized scratch
    arrays per tensor used to take 2 maps' worth."""
    rng = np.random.default_rng(4)
    params = {k: rng.normal(size=(800, 32, 32)) for k in ("rho_src", "rho_dst")}
    grads = {k: rng.normal(size=(800, 32, 32)) for k in params}
    state = AdamState()
    adamw_step(params, grads, state, lr=1e-3, weight_decay=1e-2)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adamw_step(params, grads, state, lr=1e-3, weight_decay=1e-2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert peak < params["rho_src"].nbytes, peak


def test_adamw_step_refuses_a_parameter_it_cannot_update_in_place():
    # a flat view of a non-contiguous array is a copy, which would lose the update
    p = {"w": np.zeros((4, 3)).T}
    with pytest.raises(InvalidParameterError, match="C-contiguous"):
        adamw_step(p, {"w": np.ones((3, 4))}, AdamState(), lr=0.1, weight_decay=0.0)


# ----------------------------------------------------------------------
# configuration invariants
# ----------------------------------------------------------------------
def test_training_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainingConfig(lr=0.0)
    with pytest.raises(InvalidParameterError):
        TrainingConfig(scheduler={"factor": 1.5, "patience_epochs": 3,
                                  "min_lr": 1e-6})
    for bad in (dict(batch_size=0), dict(batch_size=-3), dict(max_epochs=-1),
                dict(val_fraction=-0.1), dict(val_fraction=1.0), dict(weight_decay=-1e-5),
                dict(scheduler={"patience_epochs": 0}), dict(scheduler={"min_lr": -1e-6})):
        with pytest.raises(InvalidParameterError):
            TrainingConfig(**bad)
    TrainingConfig(max_epochs=0, val_fraction=0.0, weight_decay=0.0,
                   scheduler={"patience_epochs": 1, "min_lr": 0.0})


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------
def test_zero_epochs_returns_initialized_checkpoint():
    windows = _toy_windows(2)
    ckpt = train(windows, _toy_prior(), TrainingConfig(max_epochs=0, seed=3),
                 model_config=_small_model_config())
    assert ckpt.epoch == 0
    fresh = ForecastModel.init(np.array(_toy_prior().edges), 4,
                               _small_model_config(), seed=3)
    for name, tensor in fresh.all_tensors().items():
        np.testing.assert_array_equal(ckpt.arrays[name], tensor.data)


def test_each_step_frees_its_tape_before_the_next_forward(monkeypatch):
    # reference counting alone must free a step's tape and gradients
    windows = _toy_windows(3)
    config = TrainingConfig(max_epochs=2, batch_size=8, seed=4, lr=3e-3)
    refs, steps, params = [], [], []
    real = training._batch_loss

    def watching(model, batch, prior, cfg):
        if ad._grad_enabled:            # a training step's forward
            assert all(r() is None for r in refs), "the previous tape is alive"
            assert all(p.grad is None for p in model.parameters().values())
            steps.append(1)
        loss = real(model, batch, prior, cfg)
        if ad._grad_enabled:
            refs.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(training, "_batch_loss", watching)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        train(windows, _toy_prior(), config, model_config=_small_model_config())
    finally:
        if was_enabled:
            gc.enable()
    assert len(steps) > 2


def test_a_training_step_runs_no_unbuffered_scatter():
    # np.add.at is the slow path the sheaf node's bincount scatters replace
    windows = _toy_windows(2)
    config = TrainingConfig(max_epochs=1, batch_size=8, seed=5)
    seen = []

    def profile(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", None) == "at"
                and getattr(arg, "__self__", None) is np.add):
            seen.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        train(windows, _toy_prior(), config,
              model_config=_small_model_config(rounds=2, normalize=True))
    finally:
        sys.setprofile(None)
    assert not seen, seen


def _recorded_outputs(root):
    """Bytes of the outputs of every recorded (non-leaf) node under `root`."""
    total, seen, stack = 0, set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        total += node.data.nbytes
        stack.extend(node._parents)
    return total


def test_a_training_step_frees_each_node_once_its_backward_has_run(traced_memory):
    # pipeline-default's training step: B 5, n 100 (small world k 8),
    # t_ctx 30, d = m = 32, field width 64, t_hor 10
    B, n, t_ctx, d, width, t_hor = 5, 100, 30, 32, 64, 10
    graph = generate_small_world(n, 8, 0.1, seed=3)
    model = ForecastModel.init(graph.edges, n, ModelConfig(stalk_dim=d, field_width=width),
                               seed=1)
    rng = np.random.default_rng(17)
    context, target = rng.normal(size=(B, n, t_ctx)), rng.normal(size=(B, n, t_hor))
    config, prior = TrainingConfig(), _toy_prior(n)

    def step_loss():
        pred, delta = model.forward(context, t_hor)
        return total_loss(pred, target, delta, prior, config.lambda1,
                          config.lambda2, model.sheaf.edges)

    step_loss().backward()      # modules the first step imports stay held
    for p in model.parameters().values():
        p.grad = None
    traced_memory.rebase()
    loss = step_loss()
    tape, _ = traced_memory()
    outputs = _recorded_outputs(loss)
    tracemalloc.reset_peak()
    loss.backward()
    held, peak = traced_memory()
    # one Horizon activation block, every RK4 stage's (B, n, width) tanh
    block = 8 * 4 * t_hor * B * n * width
    assert peak - tape < block, (peak - tape, block)
    # what backward() leaves held is the gradients and the recorded nodes'
    # outputs (the loss still refers to them); every kept activation, gate
    # and cell state has gone with its node's backward closure
    grads = sum(p.grad.nbytes for p in model.parameters().values())
    assert held <= grads + outputs + 2 ** 16, (held, grads, outputs)


def test_training_is_deterministic(tmp_path):
    windows = _toy_windows(3)
    cfg = TrainingConfig(max_epochs=2, batch_size=8, seed=7, lr=3e-3)
    a = train(windows, _toy_prior(), cfg, model_config=_small_model_config())
    b = train(windows, _toy_prior(), cfg, model_config=_small_model_config())
    save_checkpoint(a, tmp_path / "a")
    save_checkpoint(b, tmp_path / "b")
    assert _array_files(tmp_path / "a") == _array_files(tmp_path / "b")
    assert ((tmp_path / "a" / "checkpoint.json").read_text()
            == (tmp_path / "b" / "checkpoint.json").read_text())


def test_trained_model_beats_copy_last_on_ar_data():
    windows = _toy_windows(6)
    cfg = TrainingConfig(max_epochs=10, batch_size=16, seed=1, lr=3e-3)
    ckpt = train(windows, _toy_prior(), cfg,
                 model_config=_small_model_config(stalk_dim=12, map_dim=12))
    model = ckpt.build_model()
    test = _toy_windows(2, seed0=50)
    preds, targets = forecast_windows(model, test)
    model_mse = np.mean([np.mean((p - t) ** 2) for p, t in zip(preds, targets)])
    copy_mse = np.mean([np.mean((baseline_copy_last(w.context, 10)
                                 - w.horizon) ** 2) for w in test])
    assert model_mse < copy_mse


def test_loss_monotone_on_repeated_batch():
    windows = _toy_windows(1)[:2]
    prior = _toy_prior()
    cfg = TrainingConfig(lr=1e-3, seed=0)
    model = ForecastModel.init(np.array(prior.edges), 4,
                               _small_model_config(), seed=0)
    params = model.parameters()
    state = AdamState()
    losses = []
    for _ in range(20):
        batch = _batch_loss(model, windows[:1], prior, cfg)
        losses.append(float(batch.data))
        for p in params.values():
            p.grad = None
        batch.backward()
        adamw_step(params, {k: p.grad for k, p in params.items()}, state,
                   cfg.lr, cfg.weight_decay)
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert increases <= 2


# ----------------------------------------------------------------------
# one batched forward against the per-window objective
# ----------------------------------------------------------------------
_ORACLE_EDGES = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [2, 1]])
# (3, 1) is a prior edge the sheaf does not carry
_ORACLE_PRIOR = PriorGraph(edges=((0, 1), (1, 2), (3, 1)), scores=(1.0,) * 3,
                           lag_order=2, top_k=2, n_nodes=4)


def _loss_and_grads(model, loss_fn):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    return float(loss.data), {k: p.grad.copy() for k, p in params.items()}


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("ablation", ["full", "graph", "no_lstm"])
def test_batch_loss_and_gradients_match_per_window_oracle(ablation, normalize,
                                                          batch):
    windows = _toy_windows(2)[:batch]
    assert len(windows) == batch
    # the graph ablation needs square identity maps; the others use m < d
    map_dim = 8 if ablation == "graph" else 5
    model = ForecastModel.init(
        _ORACLE_EDGES, 4, _small_model_config(map_dim=map_dim, rounds=2,
                                              normalize=normalize,
                                              ablation=ablation), seed=2)
    cfg = TrainingConfig(lambda1=0.05, lambda2=0.1)
    loss, grads = _loss_and_grads(
        model, lambda: _batch_loss(model, windows, _ORACLE_PRIOR, cfg))
    ref_loss, ref_grads = _loss_and_grads(
        model, lambda: per_window_loss(model, windows, _ORACLE_PRIOR,
                                       cfg.lambda1, cfg.lambda2))
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(grads) == set(ref_grads) == set(model.parameters())
    for name in ref_grads:
        assert _rel(grads[name], ref_grads[name]) <= 1e-12, name


def test_stacked_predict_equals_per_window_predict():
    windows = _toy_windows(2)[:7]
    model = ForecastModel.init(_ORACLE_EDGES, 4,
                               _small_model_config(map_dim=5, rounds=2), seed=4)
    stacked = model.predict(np.stack([w.context for w in windows]), 10)
    assert stacked.shape == (7, 4, 10)
    for w, pred in zip(windows, stacked):
        single = model.predict(w.context, 10)
        assert _rel(pred, single) <= 1e-12


def test_forecast_windows_keeps_input_order_across_shapes():
    series = _ar_series(3)
    long_hor = make_windows(series, 30, 10, 40, source_id="a")
    short_hor = make_windows(series, 30, 5, 40, source_id="b")
    short_ctx = make_windows(series, 20, 10, 40, source_id="c")
    mixed = [w for trio in zip(long_hor, short_hor, short_ctx) for w in trio]
    model = ForecastModel.init(_ORACLE_EDGES, 4, _small_model_config(), seed=5)
    preds, targets = forecast_windows(model, mixed)
    assert len(preds) == len(targets) == len(mixed)
    for w, pred, target in zip(mixed, preds, targets):
        assert target is w.horizon
        assert pred.shape == w.horizon.shape
        assert _rel(pred, model.predict(w.context, w.horizon.shape[1])) <= 1e-12


def test_train_rejects_windows_of_differing_shapes():
    series = _ar_series(1)
    windows = (make_windows(series, 30, 10, 40, source_id="a")
               + make_windows(series, 30, 5, 40, source_id="b"))
    with pytest.raises(InvalidParameterError):
        train(windows, _toy_prior(), TrainingConfig(max_epochs=1),
              model_config=_small_model_config())


def test_plateau_scheduler_halves_and_floors():
    from sheafcast.training import PlateauScheduler, SchedulerConfig

    sched = PlateauScheduler(1e-3, SchedulerConfig(factor=0.5,
                                                   patience_epochs=3,
                                                   min_lr=1e-6))
    assert sched.update(1.0) == 1e-3           # first value is an improvement
    assert sched.update(0.9) == 1e-3
    lrs = [sched.update(0.9) for _ in range(3)]
    assert lrs == [1e-3, 1e-3, 5e-4]           # fires after 3 stale epochs
    assert sched.update(0.5) == 5e-4           # improvement resets the count
    for _ in range(60):
        lr = sched.update(0.5)
    assert lr == 1e-6                          # floored at min_lr


def test_scheduler_reduces_lr_during_stalled_training(tmp_path):
    # targets scaled so far from the signal that epochs stop improving fast
    rng = np.random.default_rng(0)
    windows = []
    for s in range(3):
        w = make_windows(_ar_series(s), 30, 10, 40, source_id=f"s{s}")
        for win in w:
            win.horizon = rng.normal(size=win.horizon.shape) * 50.0
        windows += w
    log = tmp_path / "log.jsonl"
    cfg = TrainingConfig(max_epochs=10, seed=0, lr=1e-3,
                         scheduler={"factor": 0.5, "patience_epochs": 1,
                                    "min_lr": 1e-6})
    train(windows, _toy_prior(), cfg, model_config=_small_model_config(),
          log_path=log)
    lrs = [json.loads(line)["lr"] for line in log.read_text().splitlines()]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert min(lrs) >= 1e-6


def test_a_run_that_never_improves_snapshots_the_weights_once(monkeypatch):
    """The initial weights are copied once, before the first validation
    loss; a loss that never improves on it adds no copy, and the run keeps
    the initial weights."""
    losses = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(training, "_dataset_loss", lambda *args: next(losses))
    snapshots = []
    real_snapshot = training._snapshot

    def counted(model):
        snapshots.append(real_snapshot(model))
        return snapshots[-1]

    monkeypatch.setattr(training, "_snapshot", counted)
    ckpt = train(_toy_windows(2), _toy_prior(), TrainingConfig(max_epochs=2, seed=0),
                 model_config=_small_model_config())
    assert len(snapshots) == 1
    assert ckpt.arrays is snapshots[0] and (ckpt.epoch, ckpt.val_loss) == (0, 1.0)


def test_training_log_is_jsonl(tmp_path):
    windows = _toy_windows(2)
    log = tmp_path / "log.jsonl"
    train(windows, _toy_prior(), TrainingConfig(max_epochs=2, seed=0),
          model_config=_small_model_config(), log_path=log)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == 2
    assert set(lines[0]) == {"epoch", "train_loss", "val_loss", "lr"}


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def _array_files(directory) -> dict:
    """The bytes of every array file of a checkpoint directory, by name."""
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.npy"))}


def test_checkpoint_round_trip_reproduces_forward(tmp_path):
    windows = _toy_windows(2)
    ckpt = train(windows, _toy_prior(), TrainingConfig(max_epochs=1, seed=2),
                 model_config=_small_model_config())
    save_checkpoint(ckpt, tmp_path / "ck")

    first = load_checkpoint(tmp_path / "ck")
    second = load_checkpoint(tmp_path / "ck")
    ctx = windows[0].context
    out1 = first.build_model().predict(ctx, 10)
    out2 = second.build_model().predict(ctx, 10)
    np.testing.assert_array_equal(out1, out2)
    # the reloaded model is the one training selected, bit for bit
    np.testing.assert_array_equal(out1, ckpt.build_model().predict(ctx, 10))

    # a loaded checkpoint saves back to the same bytes
    save_checkpoint(first, tmp_path / "ck2")
    assert _array_files(tmp_path / "ck") == _array_files(tmp_path / "ck2")
    assert ((tmp_path / "ck" / "checkpoint.json").read_bytes()
            == (tmp_path / "ck2" / "checkpoint.json").read_bytes())

    assert first.model_config == ckpt.model_config
    assert first.prior_edges == list(ckpt.prior_edges)
    assert not first.trained_on_perturbed


@pytest.mark.parametrize("ablation", ["full", "graph", "no_lstm"])
def test_build_model_draws_nothing_and_matches_init_then_copy(monkeypatch, ablation):
    windows = _toy_windows(2)
    config = TrainingConfig(max_epochs=1, seed=2)
    ckpt = train(windows, _toy_prior(), config,
                 model_config=_small_model_config(ablation=ablation))
    # the model the checkpoint used to be loaded into: a seed-0 draw, overwritten
    want = ForecastModel.init(np.asarray(ckpt.prior_edges), ckpt.n_nodes,
                              ckpt.model_config, seed=0)
    for name, tensor in want.all_tensors().items():
        tensor.data[...] = ckpt.arrays[name]

    def no_draws(*args, **kwargs):
        raise AssertionError("build_model drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    got = ckpt.build_model()
    monkeypatch.undo()
    for name, tensor in got.all_tensors().items():
        assert np.array_equal(tensor.data, want.all_tensors()[name].data)
        assert tensor.requires_grad == want.all_tensors()[name].requires_grad
        assert not np.shares_memory(tensor.data, ckpt.arrays[name])
    ctx = np.stack([w.context for w in windows[:3]])
    assert np.array_equal(got.predict(ctx, 10), want.predict(ctx, 10))


def _checkpoint_of(arrays):
    return training.ModelCheckpoint(
        arrays=arrays, model_config=_small_model_config(), training_config={},
        prior_edges=[], prior_scores=[], prior_meta={}, n_nodes=4, val_loss=0.0,
        epoch=0, sources=[], trained_on_perturbed=False)


def test_checkpoint_arrays_named_like_savez_arguments_round_trip(tmp_path):
    # np.savez takes the names as keywords and refuses these two
    arrays = {"file": np.arange(3.0), "allow_pickle": np.ones((2, 2))}
    save_checkpoint(_checkpoint_of(arrays), tmp_path / "ck")
    back = load_checkpoint(tmp_path / "ck")
    assert sorted(back.arrays) == ["allow_pickle", "file"]
    for name, arr in arrays.items():
        assert np.array_equal(back.arrays[name], arr)


def test_checkpoint_npz_has_the_bytes_np_savez_writes(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {"c_order": rng.normal(size=(3, 4)), "zero_d": np.array(2.5),
              "fortran": rng.normal(size=(4, 3)).T, "strided": rng.normal(size=(6, 5))[::2, 1:],
              "empty": np.zeros((0, 3)), "big_endian": rng.normal(size=5).astype(">f8"),
              "float32": rng.normal(size=(2, 3)).astype(np.float32), "ints": np.arange(4)}
    save_checkpoint(_checkpoint_of(arrays), tmp_path / "ck")
    # the oracle: np.save of each array as a C-ordered little-endian float64 copy
    oracle = {}
    for name, arr in arrays.items():
        np.save(tmp_path / "oracle.npy", np.array(arr, dtype="<f8", order="C"))
        oracle[f"{name}.npy"] = (tmp_path / "oracle.npy").read_bytes()
    assert _array_files(tmp_path / "ck") == oracle
    back = load_checkpoint(tmp_path / "ck").arrays
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape and np.array_equal(back[name], arr), name


def test_checkpoints_whose_names_differ_after_a_dot_keep_their_own_arrays(tmp_path):
    # a name is a directory, not a prefix whose suffix is replaced
    save_checkpoint(_checkpoint_of({"w": np.zeros(3)}), tmp_path / "d" / "model.a")
    save_checkpoint(_checkpoint_of({"w": np.ones(3)}), tmp_path / "d" / "model.b")
    assert np.array_equal(load_checkpoint(tmp_path / "d" / "model.a").arrays["w"], np.zeros(3))
    assert np.array_equal(load_checkpoint(tmp_path / "d" / "model.b").arrays["w"], np.ones(3))


@pytest.mark.parametrize("stored", [np.zeros((2, 3)).T, np.zeros((3, 2), dtype=np.float32),
                                    np.zeros((3, 2), dtype=">f8"), np.zeros((3, 2), dtype=int)],
                         ids=["fortran", "float32", "big-endian", "ints"])
def test_an_array_file_that_is_not_c_ordered_float64_is_refused(tmp_path, stored):
    """Re-pinned, so only the layout check can refuse it."""
    save_checkpoint(_checkpoint_of({"w": np.zeros((3, 2))}), tmp_path / "ck")
    path = tmp_path / "ck" / "w.npy"
    np.save(path, stored)
    manifest = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
    manifest["sha256"]["w.npy"] = file_hash(path)
    (tmp_path / "ck" / "checkpoint.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactMismatchError, match="w.npy is not a C-ordered float64"):
        load_checkpoint(tmp_path / "ck")


def test_save_checkpoint_holds_no_copy_of_an_array(tmp_path):
    # the two restriction maps at config defaults: 800 edges, m = d = 32
    rng = np.random.default_rng(5)
    arrays = {"sheaf.rho_src": rng.normal(size=(800, 32, 32)),
              "sheaf.rho_dst": rng.normal(size=(800, 32, 32))}
    ckpt = _checkpoint_of(arrays)
    save_checkpoint(ckpt, tmp_path / "warm")
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_checkpoint(ckpt, tmp_path / "ck")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    # a whole-array copy of one map alone would reach the bound
    assert peak < arrays["sheaf.rho_src"].nbytes, peak


def test_checkpoint_marks_perturbed_sources():
    windows = _toy_windows(2)
    windows[0].perturbation_onset_index = 27
    ckpt = train(windows, _toy_prior(), TrainingConfig(max_epochs=0, seed=0),
                 model_config=_small_model_config())
    assert ckpt.trained_on_perturbed


@pytest.mark.parametrize("ablation, frozen", [("no_lstm", "lstm."), ("graph", "sheaf.")])
def test_train_trains_the_model_config_it_is_given(ablation, frozen):
    windows = _toy_windows(2)
    config = TrainingConfig(max_epochs=2, seed=3)
    model_config = _small_model_config(ablation=ablation)
    ckpt = train(windows, _toy_prior(), config, model_config=model_config)
    assert ckpt.model_config == model_config
    assert ckpt.model_config.ablation == ablation
    start = ForecastModel.init(np.asarray(ckpt.prior_edges), ckpt.n_nodes,
                               model_config, seed=config.seed)
    assert ckpt.epoch > 0
    for name, tensor in start.all_tensors().items():
        untouched = np.array_equal(ckpt.arrays[name], tensor.data)
        # the ablation's frozen group keeps its initial values; the rest trains
        assert untouched == name.startswith(frozen), name


# ----------------------------------------------------------------------
# cross-validation
# ----------------------------------------------------------------------
def test_fold_assignment_partitions_and_ignores_order():
    ids = [f"s{i}" for i in range(10)]
    a = assign_folds(ids, folds=5, seed=3)
    b = assign_folds(list(reversed(ids)), folds=5, seed=3)
    assert a == b
    counts = {}
    for fold in a.values():
        counts[fold] = counts.get(fold, 0) + 1
    assert sorted(counts.values()) == [2, 2, 2, 2, 2]


def test_cross_validate_rows_and_fold_coverage():
    series = [SeriesData(series_id=f"s{i}",
                         train_windows=make_windows(_ar_series(i), 30, 10, 40,
                                                    source_id=f"s{i}"))
              for i in range(10)]
    cfg = TrainingConfig(max_epochs=1, batch_size=16, seed=4)
    rows = cross_validate(series, cfg, model_config=_small_model_config(),
                          ablations=["full", "no_lstm"],
                          prior=_toy_prior(), folds=5)
    assert [r["method"] for r in rows] == ["full", "no_lstm"]
    for row in rows:
        assert row["folds"] == 5
        for key in ("mse_mean", "mse_std", "mae_mean", "dtw_mean"):
            assert np.isfinite(row[key])


def test_cross_validate_refuses_fewer_than_two_folds():
    series = [SeriesData(series_id=f"s{i}",
                         train_windows=make_windows(_ar_series(i), 30, 10, 40,
                                                    source_id=f"s{i}"))
              for i in range(3)]
    with pytest.raises(InvalidParameterError, match="folds"):
        cross_validate(series, TrainingConfig(max_epochs=0), prior=_toy_prior(), folds=1)
