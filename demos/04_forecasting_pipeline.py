"""End-to-end forecasting on synthetic spiking data.

Simulates a handful of networks, estimates the Granger prior, trains a
small forecaster, and scores it against the copy-last-value and
context-mean baselines. Takes about ten seconds on a 2-core machine.
"""

import numpy as np

from sheafcast import LifParams, generate_small_world, simulate
from sheafcast.data import make_windows
from sheafcast.metrics import evaluate
from sheafcast.model import ModelConfig
from sheafcast.training import (TrainingConfig, baseline_context_mean,
                                baseline_copy_last, forecast_windows,
                                prior_from_windows, train)

rng = np.random.default_rng(0)
graph = generate_small_world(n=10, k=4, beta=0.1, seed=7)
params = LifParams()

print("simulating 14 series...")
windows = []
for i in range(14):
    record = simulate(graph, params, seed=100 + i)
    windows += make_windows(record.rates, t_ctx=30, t_hor=10, stride=40,
                            source_id=f"series{i:02d}")
train_w = [w for w in windows if w.source_id < "series10"]
test_w = [w for w in windows if w.source_id >= "series10"]
print(f"{len(train_w)} training windows, {len(test_w)} test windows")

prior = prior_from_windows(train_w[:20], lag_order=3, top_k=2)
print(f"Granger prior: {prior.n_edges} edges")

config = TrainingConfig(lr=3e-3, max_epochs=8, batch_size=32, seed=1)
model_config = ModelConfig(stalk_dim=16, map_dim=8, rounds=2, normalize=True,
                           field_width=32)
print("training (8 epochs)...")
checkpoint = train(train_w, prior, config, model_config=model_config)
print(f"best validation loss {checkpoint.val_loss:.4f} "
      f"at epoch {checkpoint.epoch}")

model = checkpoint.build_model()
preds, targets = forecast_windows(model, test_w)
report = evaluate(preds, targets)

copy_last = evaluate([baseline_copy_last(w.context, 10) for w in test_w],
                     targets)
ctx_mean = evaluate([baseline_context_mean(w.context, 10) for w in test_w],
                    targets)

print(f"\n{'predictor':<14} {'MSE':>8} {'MAE':>8} {'DTW':>8}")
for name, rep in (("model", report), ("copy-last", copy_last),
                  ("context-mean", ctx_mean)):
    print(f"{name:<14} {rep.mse:>8.4f} {rep.mae:>8.4f} {rep.dtw:>8.4f}")
