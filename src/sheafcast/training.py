"""Losses, optimizer, training schedule, checkpointing, cross-validation.

The objective is forecast MSE plus two discrepancy regularizers: an L1
penalty on first-round edge discrepancies and a term pulling each
discrepancy's L2 norm toward the 0/1 indicator of the prior graph. The
optimizer is decoupled-weight-decay Adam with a reduce-on-plateau schedule;
the checkpoint with the lowest validation loss is retained.
"""

from __future__ import annotations

import json
import copy
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from .data import TrajectoryWindow
from .errors import (CheckpointMismatchError, DivergenceError,
                     InvalidParameterError, ShapeMismatchError)
from .graphs import PriorGraph
from .metrics import evaluate
from .model import ABLATIONS, ForecastModel, ModelConfig


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def loss_mse(pred, target) -> ad.Tensor:
    pred = ad.lift(pred)
    target = target.data if isinstance(target, ad.Tensor) else np.asarray(target)
    if pred.data.shape != target.shape:
        raise ShapeMismatchError(f"{pred.data.shape} vs {target.shape}")
    diff = pred - target
    return (diff * diff).mean()


def loss_sparse(discrepancies) -> ad.Tensor:
    """Sum of entrywise absolute discrepancy over all edges; a (B, E, m)
    stack gives the mean of the per-window sums."""
    return ad.absolute(ad.lift(discrepancies)).sum(axis=(-2, -1)).mean()


def loss_prior(discrepancies, prior: PriorGraph, edges) -> ad.Tensor:
    """Pull discrepancy norms toward the prior's 0/1 edge indicator.

    The sum runs over the union of sheaf and prior edges; prior edges the
    sheaf does not carry contribute |0 - 1| = 1 each. A stack of windows'
    discrepancies gives the mean of the per-window sums.
    """
    delta = ad.lift(discrepancies)
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if delta.data.ndim < 2 or delta.data.shape[-2] != len(edges):
        raise ShapeMismatchError("one discrepancy per sheaf edge required")
    prior_set = prior.edge_set()
    indicator = np.array([1.0 if (int(s), int(d)) in prior_set else 0.0
                          for s, d in edges])
    norms = ad.sqrt((delta * delta).sum(axis=-1))
    loss = ad.absolute(norms - indicator).sum(axis=-1).mean()
    sheaf_set = {(int(s), int(d)) for s, d in edges}
    missing = sum(1 for e in prior_set if e not in sheaf_set)
    return loss + float(missing)


def total_loss(pred, target, discrepancies, prior: PriorGraph,
               lambda1: float, lambda2: float, edges) -> ad.Tensor:
    out = loss_mse(pred, target)
    if lambda1:
        out = out + lambda1 * loss_sparse(discrepancies)
    if lambda2:
        out = out + lambda2 * loss_prior(discrepancies, prior, edges)
    return out


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------
@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params: dict, grads: dict, state: AdamState, lr: float,
               weight_decay: float, betas=(0.9, 0.999), eps: float = 1e-8):
    """One decoupled-weight-decay Adam update, in place.

    `params` maps names to Tensors (or ndarrays); `grads` holds matching
    arrays. Bias-corrected first and second moments, decay applied to the
    pre-update parameters.
    """
    state.step += 1
    b1, b2 = betas
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, param in params.items():
        data = param.data if isinstance(param, ad.Tensor) else param
        g = grads[name]
        if g is None:
            g = np.zeros_like(data)
        if name not in state.m:
            state.m[name] = np.zeros_like(data)
            state.v[name] = np.zeros_like(data)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        data -= lr * weight_decay * data
        data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class SchedulerConfig:
    factor: float = 0.5
    patience_epochs: int = 3
    min_lr: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise InvalidParameterError("scheduler factor must lie in (0, 1)")
        if self.patience_epochs < 1:
            raise InvalidParameterError("scheduler patience_epochs must be >= 1")
        if not self.min_lr >= 0:
            raise InvalidParameterError("scheduler min_lr must be nonnegative")


class PlateauScheduler:
    """Reduce-on-plateau: multiply lr by `factor` after `patience_epochs`
    epochs without validation improvement, floored at `min_lr`."""

    def __init__(self, lr: float, config: SchedulerConfig):
        self.lr = lr
        self.config = config
        self.best = np.inf
        self.wait = 0

    def update(self, val_loss: float) -> float:
        if val_loss < self.best - 1e-12:
            self.best = val_loss
            self.wait = 0
        else:
            self.wait += 1
            if self.wait >= self.config.patience_epochs:
                self.lr = max(self.lr * self.config.factor, self.config.min_lr)
                self.wait = 0
        return self.lr


@dataclass
class TrainingConfig:
    lambda1: float = 1e-3
    lambda2: float = 1e-2
    lr: float = 1e-3
    weight_decay: float = 1e-5
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    max_epochs: int = 100
    batch_size: int = 64
    folds: int = 5
    seed: int = 0
    ablation: str = "full"
    val_fraction: float = 0.1

    def __post_init__(self):
        if isinstance(self.scheduler, dict):
            self.scheduler = SchedulerConfig(**self.scheduler)
        if not self.lr > 0:
            raise InvalidParameterError("lr must be positive")
        if not self.weight_decay >= 0:
            raise InvalidParameterError("weight_decay must be nonnegative")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise InvalidParameterError("max_epochs must be >= 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise InvalidParameterError("val_fraction must lie in [0, 1)")
        if self.folds < 2:
            raise InvalidParameterError("folds must be >= 2")
        if self.ablation not in ABLATIONS:
            raise InvalidParameterError(f"unknown ablation {self.ablation!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InvalidParameterError("loss weights must be nonnegative")


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
@dataclass
class ModelCheckpoint:
    arrays: dict                      # name -> ndarray
    model_config: ModelConfig
    training_config: dict
    prior_edges: list
    prior_scores: list
    prior_meta: dict
    n_nodes: int
    val_loss: float
    epoch: int
    sources: list
    trained_on_perturbed: bool

    def build_model(self) -> ForecastModel:
        model = ForecastModel.init(np.asarray(self.prior_edges, dtype=np.intp),
                                   self.n_nodes, copy.deepcopy(self.model_config),
                                   seed=0)
        for name, tensor in model.all_tensors().items():
            if tensor.data.shape != self.arrays[name].shape:
                raise CheckpointMismatchError(
                    f"array {name} has shape {self.arrays[name].shape}, "
                    f"expected {tensor.data.shape}")
            tensor.data[...] = self.arrays[name]
        return model

    def prior(self) -> PriorGraph:
        return PriorGraph(edges=tuple(tuple(e) for e in self.prior_edges),
                          scores=tuple(self.prior_scores),
                          lag_order=self.prior_meta["lag_order"],
                          top_k=self.prior_meta["top_k"],
                          n_nodes=self.n_nodes)


def _snapshot(model: ForecastModel) -> dict:
    return {name: t.data.copy() for name, t in model.all_tensors().items()}


def save_checkpoint(ckpt: ModelCheckpoint, path_prefix) -> Path:
    """Write `<prefix>.json` (manifest) and `<prefix>.bin` (little-endian
    float32 arrays, concatenated in manifest order)."""
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(ckpt.arrays)
    blobs = []
    entries = []
    offset = 0
    for name in names:
        arr = np.asarray(ckpt.arrays[name], dtype="<f4")
        # tobytes() is C-ordered for any layout; ascontiguousarray would
        # promote a 0-d array to shape (1,)
        blobs.append(arr.tobytes())
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "<f4", "offset": offset})
        offset += len(blobs[-1])
    manifest = {
        "format": "sheafcast-checkpoint-v1",
        "arrays": entries,
        "model_config": ckpt.model_config.to_dict(),
        "training_config": ckpt.training_config,
        "prior_edges": [list(e) for e in ckpt.prior_edges],
        "prior_scores": [float(s) for s in ckpt.prior_scores],
        "prior_meta": ckpt.prior_meta,
        "n_nodes": ckpt.n_nodes,
        "val_loss": ckpt.val_loss,
        "epoch": ckpt.epoch,
        "sources": sorted(ckpt.sources),
        "trained_on_perturbed": bool(ckpt.trained_on_perturbed),
    }
    prefix.with_suffix(".json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    prefix.with_suffix(".bin").write_bytes(b"".join(blobs))
    return prefix.with_suffix(".json")


def load_checkpoint(path_prefix) -> ModelCheckpoint:
    prefix = Path(path_prefix)
    manifest = json.loads(prefix.with_suffix(".json").read_text())
    if manifest.get("format") != "sheafcast-checkpoint-v1":
        raise CheckpointMismatchError("unrecognized checkpoint format")
    bin_path = prefix.with_suffix(".bin")
    raw = bin_path.read_bytes()
    arrays = {}
    end = 0
    # the arrays must tile the file: no gap, overlap, truncation or padding
    for entry in sorted(manifest["arrays"], key=lambda e: e["offset"]):
        dtype = np.dtype(entry["dtype"])
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        stop = entry["offset"] + size * dtype.itemsize
        if entry["offset"] != end or stop > len(raw):
            raise CheckpointMismatchError(
                f"array {entry['name']} at bytes {entry['offset']}..{stop} does "
                f"not fit the {len(raw)}-byte {bin_path.name}")
        arr = np.frombuffer(raw, dtype=dtype, count=size, offset=end)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float64)
        end = stop
    if end != len(raw):
        raise CheckpointMismatchError(
            f"{bin_path.name} has {len(raw)} bytes but its arrays cover {end}")
    return ModelCheckpoint(
        arrays=arrays,
        model_config=ModelConfig(**manifest["model_config"]),
        training_config=manifest["training_config"],
        prior_edges=[tuple(e) for e in manifest["prior_edges"]],
        prior_scores=manifest["prior_scores"],
        prior_meta=manifest["prior_meta"],
        n_nodes=manifest["n_nodes"],
        val_loss=manifest["val_loss"],
        epoch=manifest["epoch"],
        sources=manifest["sources"],
        trained_on_perturbed=manifest["trained_on_perturbed"],
    )


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------
def _series_key(window: TrajectoryWindow) -> str:
    return window.source_id.split("/")[0] if window.source_id else ""


def _split_train_val(windows, seed: int, val_fraction: float):
    keys = sorted({_series_key(w) for w in windows})
    rng = np.random.default_rng(seed)
    order = [keys[i] for i in rng.permutation(len(keys))]
    n_val = max(1, int(round(val_fraction * len(order)))) if len(order) > 1 else 0
    val_keys = set(order[:n_val])
    train = [w for w in windows if _series_key(w) not in val_keys]
    val = [w for w in windows if _series_key(w) in val_keys]
    if not val:
        # single-series dataset: hold out the last window
        train, val = windows[:-1], windows[-1:]
    return train, val


def _batch_loss(model: ForecastModel, windows, prior: PriorGraph,
                config: TrainingConfig) -> ad.Tensor:
    """Mean per-window objective of equal-shaped windows, in one forward."""
    horizon = np.stack([w.horizon for w in windows])
    pred, delta = model.forward(np.stack([w.context for w in windows]),
                                horizon.shape[-1])
    return total_loss(pred, horizon, delta, prior,
                      config.lambda1, config.lambda2, model.sheaf.edges)


def _dataset_loss(model, windows, prior, config) -> float:
    chunks = [windows[i:i + config.batch_size]
              for i in range(0, len(windows), config.batch_size)]
    with ad.no_grad():
        total = sum(float(_batch_loss(model, c, prior, config).data) * len(c)
                    for c in chunks)
    return total / len(windows)


def train(windows, prior: PriorGraph, config: TrainingConfig,
          model_config: Optional[ModelConfig] = None,
          val_windows=None, log_path=None) -> ModelCheckpoint:
    """Train a forecaster on TrajectoryWindows; returns the best checkpoint.

    Validation series are split off by source id unless provided. The
    learning rate halves after `patience_epochs` epochs without validation
    improvement, floored at min_lr. Fully deterministic for a fixed seed.
    """
    windows = list(windows)
    if not windows:
        raise InvalidParameterError("empty training dataset")
    if model_config is None:
        model_config = ModelConfig(ablation=config.ablation)
    elif model_config.ablation != config.ablation:
        model_config = copy.deepcopy(model_config)
        model_config.ablation = config.ablation
        if config.ablation == "graph":
            # identity maps live in the stalk space
            model_config.map_dim = model_config.stalk_dim

    n_nodes = windows[0].n_nodes
    model = ForecastModel.init(np.asarray(prior.edges, dtype=np.intp),
                               n_nodes, model_config, seed=config.seed)

    if val_windows is None:
        train_windows, val_windows = _split_train_val(
            windows, config.seed, config.val_fraction)
    else:
        train_windows, val_windows = windows, list(val_windows)
    if len({(w.context.shape, w.horizon.shape) for w in train_windows + val_windows}) > 1:
        raise InvalidParameterError("training and validation windows differ in shape")

    params = model.parameters()
    state = AdamState()
    scheduler = PlateauScheduler(config.lr, config.scheduler)
    lr = config.lr
    best_val = np.inf
    best_arrays = _snapshot(model)
    best_epoch = 0
    log_fh = open(log_path, "w") if log_path else None

    try:
        val_loss = _dataset_loss(model, val_windows, prior, config)
        if val_loss < best_val:
            best_val, best_arrays, best_epoch = val_loss, _snapshot(model), 0

        for epoch in range(1, config.max_epochs + 1):
            rng = np.random.default_rng((config.seed, epoch))
            order = rng.permutation(len(train_windows))
            epoch_losses = []
            for b_start in range(0, len(order), config.batch_size):
                batch_ids = order[b_start:b_start + config.batch_size]
                batch_loss = _batch_loss(
                    model, [train_windows[i] for i in batch_ids], prior, config)
                if not np.isfinite(batch_loss.data):
                    raise DivergenceError(
                        f"non-finite loss in epoch {epoch}, "
                        f"batch starting at {b_start}")
                for p in params.values():
                    p.grad = None
                batch_loss.backward()
                grads = {k: p.grad for k, p in params.items()}
                adamw_step(params, grads, state, lr, config.weight_decay)
                epoch_losses.append(float(batch_loss.data))

            val_loss = _dataset_loss(model, val_windows, prior, config)
            if log_fh:
                log_fh.write(json.dumps({
                    "epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
                    "val_loss": val_loss, "lr": lr}) + "\n")
            if val_loss < best_val:
                best_val, best_arrays, best_epoch = val_loss, _snapshot(model), epoch
            lr = scheduler.update(val_loss)
    finally:
        if log_fh:
            log_fh.close()

    # validation steers checkpoint selection, so it counts for leakage too
    touched = list(train_windows) + list(val_windows)
    return ModelCheckpoint(
        arrays=best_arrays,
        model_config=model_config,
        training_config=_config_dict(config),
        prior_edges=[tuple(e) for e in prior.edges],
        prior_scores=list(prior.scores),
        prior_meta={"lag_order": prior.lag_order, "top_k": prior.top_k},
        n_nodes=n_nodes,
        val_loss=float(best_val),
        epoch=best_epoch,
        sources=sorted({_series_key(w) for w in touched}),
        trained_on_perturbed=any(w.is_perturbed for w in touched),
    )


def _config_dict(config: TrainingConfig) -> dict:
    out = asdict(config)
    return out


# ----------------------------------------------------------------------
# baselines and cross-validation
# ----------------------------------------------------------------------
def baseline_copy_last(context: np.ndarray, t_hor: int) -> np.ndarray:
    """Repeat the final context value across the horizon."""
    return np.repeat(np.asarray(context)[:, -1:], t_hor, axis=1)


def baseline_context_mean(context: np.ndarray, t_hor: int) -> np.ndarray:
    """Repeat the per-node context mean across the horizon."""
    return np.repeat(np.asarray(context).mean(axis=1, keepdims=True), t_hor, axis=1)


@dataclass
class SeriesData:
    """One source series: training windows plus the windows to score."""

    series_id: str
    train_windows: list
    eval_windows: list = None

    def __post_init__(self):
        if self.eval_windows is None:
            self.eval_windows = list(self.train_windows)


# a stack's working set grows with it: ~2 MB per window at 100 nodes, 800 edges
_FORECAST_CHUNK = 8


def forecast_windows(model: ForecastModel, windows):
    """Predictions and targets for a list of windows (normalized units).

    Windows of equal shape are forecast as stacks of up to _FORECAST_CHUNK;
    both lists keep the input order.
    """
    windows = list(windows)
    groups, preds = {}, {}
    for i, w in enumerate(windows):
        groups.setdefault((w.context.shape, w.horizon.shape[1]), []).append(i)
    for (_, t_hor), ids in groups.items():
        for lo in range(0, len(ids), _FORECAST_CHUNK):
            chunk = ids[lo:lo + _FORECAST_CHUNK]
            stack = model.predict(np.stack([windows[i].context for i in chunk]), t_hor)
            preds.update(zip(chunk, stack))
    return [preds[i] for i in range(len(windows))], [w.horizon for w in windows]


def assign_folds(series_ids, folds: int, seed: int) -> dict:
    """Deterministic series-level fold assignment (input order irrelevant)."""
    ordered = sorted(series_ids)
    rng = np.random.default_rng(seed)
    shuffled = [ordered[i] for i in rng.permutation(len(ordered))]
    assignment = {}
    for fold, chunk in enumerate(np.array_split(np.arange(len(shuffled)), folds)):
        for i in chunk:
            assignment[shuffled[int(i)]] = fold
    return assignment


def prior_from_windows(windows, lag_order: int = 3, top_k: int = 8,
                       ridge: float = 1e-6) -> PriorGraph:
    """Pooled Granger prior: mean score matrix over window contexts, then
    top-k selection. Reads contexts only, never horizons."""
    from .graphs import granger_score_matrix, prior_from_scores

    windows = list(windows)
    if not windows:
        raise InvalidParameterError("need at least one window")
    scores = np.mean([granger_score_matrix(w.context, lag_order, ridge)
                      for w in windows], axis=0)
    return prior_from_scores(scores, lag_order=lag_order, top_k=top_k)


def cross_validate(series, config: TrainingConfig,
                   model_config: Optional[ModelConfig] = None,
                   ablations=None, prior: Optional[PriorGraph] = None,
                   prior_kwargs: Optional[dict] = None) -> list:
    """Rotating series-level cross-validation.

    Each fold tests on its own series group, validates on the next group,
    and trains on the rest. When no prior is given, a pooled Granger prior
    is estimated from the fold's training contexts. Returns one row per
    ablation with mean and std of each metric across folds.
    """
    series = list(series)
    if len(series) < config.folds:
        raise InvalidParameterError("need at least one series per fold")
    ablations = list(ablations) if ablations else [config.ablation]
    assignment = assign_folds([s.series_id for s in series], config.folds,
                              config.seed)
    fold_priors = {}
    rows = []
    for ablation in ablations:
        fold_reports = []
        for fold in range(config.folds):
            val_fold = (fold + 1) % config.folds
            test_s = [s for s in series if assignment[s.series_id] == fold]
            val_s = [s for s in series if assignment[s.series_id] == val_fold]
            train_s = [s for s in series
                       if assignment[s.series_id] not in (fold, val_fold)]
            train_w = [w for s in train_s for w in s.train_windows]
            if prior is not None:
                fold_prior = prior
            elif fold in fold_priors:
                fold_prior = fold_priors[fold]
            else:
                fold_prior = prior_from_windows(train_w, **(prior_kwargs or {}))
                fold_priors[fold] = fold_prior
            cfg = copy.deepcopy(config)
            cfg.ablation = ablation
            ckpt = train(train_w, fold_prior, cfg, model_config=model_config,
                         val_windows=[w for s in val_s for w in s.train_windows])
            model = ckpt.build_model()
            eval_windows = [w for s in test_s for w in s.eval_windows]
            preds, targets = forecast_windows(model, eval_windows)
            fold_reports.append(evaluate(preds, targets))
        rows.append(_summary_row(ablation, fold_reports))
    return rows


def _summary_row(method: str, reports) -> dict:
    def stats(name):
        vals = np.array([getattr(r, name) for r in reports])
        return float(vals.mean()), float(vals.std())

    row = {"method": method, "folds": len(reports)}
    for name in ("mse", "mae", "dtw"):
        mean, std = stats(name)
        row[f"{name}_mean"] = mean
        row[f"{name}_std"] = std
    row["fold_mse"] = [r.mse for r in reports]
    return row
