import json

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.data import make_windows
from sheafcast.errors import InvalidParameterError
from sheafcast.graphs import PriorGraph
from sheafcast.model import ForecastModel, ModelConfig

from oracles import per_window_loss
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


# ----------------------------------------------------------------------
# configuration invariants
# ----------------------------------------------------------------------
def test_training_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainingConfig(lr=0.0)
    with pytest.raises(InvalidParameterError):
        TrainingConfig(scheduler={"factor": 1.5, "patience_epochs": 3,
                                  "min_lr": 1e-6})
    with pytest.raises(InvalidParameterError):
        TrainingConfig(folds=1)
    with pytest.raises(InvalidParameterError):
        TrainingConfig(ablation="banana")
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


def test_training_is_deterministic(tmp_path):
    windows = _toy_windows(3)
    cfg = TrainingConfig(max_epochs=2, batch_size=8, seed=7, lr=3e-3)
    a = train(windows, _toy_prior(), cfg, model_config=_small_model_config())
    b = train(windows, _toy_prior(), cfg, model_config=_small_model_config())
    save_checkpoint(a, tmp_path / "a")
    save_checkpoint(b, tmp_path / "b")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


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
    cfg = TrainingConfig(lambda1=0.05, lambda2=0.1, ablation=ablation)
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

    # float32 storage round-trips byte-identically
    save_checkpoint(first, tmp_path / "ck2")
    assert (tmp_path / "ck.bin").read_bytes() == (tmp_path / "ck2.bin").read_bytes()

    assert first.model_config == ckpt.model_config
    assert first.prior_edges == list(ckpt.prior_edges)
    assert not first.trained_on_perturbed


def test_checkpoint_marks_perturbed_sources():
    windows = _toy_windows(2)
    windows[0].perturbation_onset_index = 27
    ckpt = train(windows, _toy_prior(), TrainingConfig(max_epochs=0, seed=0),
                 model_config=_small_model_config())
    assert ckpt.trained_on_perturbed


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
    cfg = TrainingConfig(max_epochs=1, batch_size=16, folds=5, seed=4)
    rows = cross_validate(series, cfg, model_config=_small_model_config(),
                          ablations=["full", "no_lstm"],
                          prior=_toy_prior())
    assert [r["method"] for r in rows] == ["full", "no_lstm"]
    for row in rows:
        assert row["folds"] == 5
        for key in ("mse_mean", "mse_std", "mae_mean", "dtw_mean"):
            assert np.isfinite(row[key])
