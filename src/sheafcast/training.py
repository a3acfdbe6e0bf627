"""Losses, optimizer, training schedule, checkpointing, cross-validation.

The objective is forecast MSE plus two discrepancy regularizers: an L1
penalty on first-round edge discrepancies and a term pulling each
discrepancy's L2 norm toward the 0/1 indicator of the prior graph. The
optimizer is decoupled-weight-decay Adam with a reduce-on-plateau schedule;
the checkpoint with the lowest validation loss is retained. A saved
checkpoint is a directory of one C-ordered float64 `<name>.npy` per array
and `checkpoint.json`, which holds the other fields and pins every array
file by sha256, so it reloads as exactly the model that was selected.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import autodiff as ad
from .artifacts import check_pinned, file_hash, read_manifest, write_json
from .data import TrajectoryWindow
from .errors import (CheckpointMismatchError, DivergenceError,
                     InvalidParameterError, ShapeMismatchError)
from .graphs import PriorGraph, granger_score_matrix, prior_from_scores
from .metrics import evaluate
from .model import ForecastModel, ModelConfig


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
    prior_edges = np.asarray(prior.edges, dtype=np.intp).reshape(-1, 2)
    # one integer key per edge: source * (largest id + 1) + target
    base = max(edges.max(initial=-1), prior_edges.max(initial=-1)) + 1
    sheaf_keys = edges[:, 0] * base + edges[:, 1]
    prior_keys = prior_edges[:, 0] * base + prior_edges[:, 1]
    indicator = np.isin(sheaf_keys, prior_keys).astype(np.float64)
    norms = ad.sqrt((delta * delta).sum(axis=-1))
    loss = ad.absolute(norms - indicator).sum(axis=-1).mean()
    missing = np.count_nonzero(~np.isin(prior_keys, sheaf_keys))
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


# elements per block of the AdamW update: on a 2-vCPU Xeon, a step over the
# default model's 1.64 M parameters took 21 ms at 16,384 (two 128 KiB
# scratch arrays), against 46 ms unblocked, 28 ms at 4,096 and 23 ms at 65,536
_ADAMW_BLOCK = 16384


def adamw_step(params: dict, grads: dict, state: AdamState, lr: float,
               weight_decay: float, betas=(0.9, 0.999), eps: float = 1e-8):
    """One decoupled-weight-decay Adam update, in place.

    `params` maps names to Tensors (or ndarrays); `grads` holds matching
    arrays. Bias-corrected first and second moments, decay applied to the
    pre-update parameters. The moments and parameters are updated in place,
    one block of `_ADAMW_BLOCK` elements at a time through two block-sized
    scratch arrays, in the operation order of `m = b1 m + (1 - b1) g`,
    `v = b2 v + (1 - b2) g g`, `p -= lr wd p` and
    `p -= lr m_hat / (sqrt(v_hat) + eps)`. Parameters and moments must be
    C-contiguous, so that their flat views write through.
    """
    state.step += 1
    b1, b2 = betas
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    scratch = np.empty((2, _ADAMW_BLOCK))
    for name, param in params.items():
        data = param.data if isinstance(param, ad.Tensor) else param
        g = grads[name]
        if g is None:
            g = np.zeros_like(data)
        if name not in state.m:
            state.m[name] = np.zeros_like(data)
            state.v[name] = np.zeros_like(data)
        m, v = state.m[name], state.v[name]
        if not (data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise InvalidParameterError(
                f"AdamW updates {name} in place: it and its moments must be C-contiguous")
        flat = data.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, data.size, _ADAMW_BLOCK):
            p_b, g_b, m_b, v_b = (a[lo:lo + _ADAMW_BLOCK] for a in flat)
            step, root = scratch[:, :p_b.size]
            m_b *= b1
            m_b += np.multiply(1.0 - b1, g_b, out=step)
            v_b *= b2
            np.multiply(1.0 - b2, g_b, out=step)
            v_b += np.multiply(step, g_b, out=step)
            p_b -= np.multiply(lr * weight_decay, p_b, out=step)
            np.divide(m_b, c1, out=step)
            step *= lr
            np.divide(v_b, c2, out=root)
            np.sqrt(root, out=root)
            root += eps
            step /= root
            p_b -= step
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
    seed: int = 0
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
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InvalidParameterError("loss weights must be nonnegative")


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
CHECKPOINT_FORMAT = "sheafcast-checkpoint-v3"
CHECKPOINT_MANIFEST = "checkpoint.json"


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
        """The model holding copies of the checkpoint's arrays; a checkpoint
        whose arrays or edges do not fit its config is refused."""
        return self._model({name: np.array(a, dtype=np.float64)
                            for name, a in self.arrays.items()})

    def take_model(self) -> ForecastModel:
        """The model holding the checkpoint's own arrays, which the
        checkpoint gives up (`arrays` is empty afterwards), so the
        parameters are held once; refused like `build_model`."""
        arrays, self.arrays = self.arrays, {}
        return self._model(arrays)

    def _model(self, arrays: dict) -> ForecastModel:
        try:
            return ForecastModel.from_arrays(
                np.asarray(self.prior_edges, dtype=np.intp), self.n_nodes,
                copy.deepcopy(self.model_config), arrays)
        except (InvalidParameterError, ShapeMismatchError) as exc:
            raise CheckpointMismatchError(f"checkpoint does not fit its model: {exc}") from exc


# checkpoint.json: every field but the arrays, the format and the array pins
_CHECKPOINT_SCHEMA = {
    "format": str, "sha256": {str: str}, "model_config": get_type_hints(ModelConfig),
    "training_config": dict, "prior_edges": [[int, int]], "prior_scores": [float],
    "prior_meta": {str: int}, "n_nodes": int, "val_loss": float, "epoch": int,
    "sources": [str], "trained_on_perturbed": bool}


def _snapshot(model: ForecastModel) -> dict:
    return {name: t.data.copy() for name, t in model.all_tensors().items()}


def save_checkpoint(ckpt: ModelCheckpoint, directory) -> None:
    """Write `<name>.npy` for every array, as C-ordered little-endian
    float64 (`np.save` writes a float64 array straight from its buffer), and
    `checkpoint.json`: the other fields and the sha256 of every array file.
    Equal checkpoints give byte-identical files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pins = {}
    for name, array in ckpt.arrays.items():
        path = directory / f"{name}.npy"
        # not np.ascontiguousarray, which makes a 0-d array 1-d
        np.save(path, np.asarray(array, dtype="<f8", order="C"), allow_pickle=False)
        pins[path.name] = file_hash(path)
    manifest = {f.name: getattr(ckpt, f.name) for f in fields(ModelCheckpoint)
                if f.name != "arrays"}
    manifest.update(format=CHECKPOINT_FORMAT, sha256=pins,
                    model_config=ckpt.model_config.to_dict(),
                    sources=sorted(ckpt.sources),
                    trained_on_perturbed=bool(ckpt.trained_on_perturbed))
    write_json(directory / CHECKPOINT_MANIFEST, manifest)


def load_checkpoint(directory) -> ModelCheckpoint:
    """Read a checkpoint written by `save_checkpoint`. A malformed or
    non-v3 `checkpoint.json`, a model config outside its domain, an array
    file that does not match its pinned sha256, and one that is not a
    C-ordered float64 array are refused with an ArtifactMismatchError; a
    removed array file raises FileNotFoundError."""
    directory = Path(directory)
    manifest = read_manifest(
        directory / CHECKPOINT_MANIFEST, CHECKPOINT_FORMAT,
        "checkpoints of one .npz or .bin array file are no longer read; train again",
        CheckpointMismatchError, _CHECKPOINT_SCHEMA)
    del manifest["format"]
    try:
        manifest["model_config"] = ModelConfig(**manifest["model_config"])
    except InvalidParameterError as exc:
        raise CheckpointMismatchError(
            f"{CHECKPOINT_MANIFEST} has an invalid model_config: {exc}") from exc
    manifest["prior_edges"] = [tuple(e) for e in manifest["prior_edges"]]
    pins = manifest.pop("sha256")
    arrays = {}
    for file in pins:
        array = np.load(check_pinned(directory, file, pins, CHECKPOINT_MANIFEST),
                        allow_pickle=False)
        if array.dtype != np.float64 or not array.flags.c_contiguous:
            raise CheckpointMismatchError(
                f"{file} is not a C-ordered float64 array ({array.dtype}, "
                f"C-ordered: {array.flags.c_contiguous})")
        arrays[file.removesuffix(".npy")] = array
    return ModelCheckpoint(arrays=arrays, **manifest)


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
    model_config = model_config or ModelConfig()
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
    # the initial weights, until a validation loss beats theirs
    best_val, best_arrays, best_epoch = np.inf, _snapshot(model), 0
    log_fh = open(log_path, "w") if log_path else None

    try:
        val_loss = _dataset_loss(model, val_windows, prior, config)
        if val_loss < best_val:
            best_val = val_loss

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
                batch_loss.backward()
                epoch_losses.append(float(batch_loss.data))
                # backward() has dropped every node's kept arrays; the loss
                # still holds the nodes' outputs: free them, and the
                # gradients, before the next forward
                del batch_loss
                adamw_step(params, {k: p.grad for k, p in params.items()},
                           state, lr, config.weight_decay)
                for p in params.values():
                    p.grad = None

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
        training_config=asdict(config),
        prior_edges=[tuple(e) for e in prior.edges],
        prior_scores=list(prior.scores),
        prior_meta={"lag_order": prior.lag_order, "top_k": prior.top_k},
        n_nodes=n_nodes,
        val_loss=float(best_val),
        epoch=best_epoch,
        sources=sorted({_series_key(w) for w in touched}),
        trained_on_perturbed=any(w.is_perturbed for w in touched),
    )


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
    windows = list(windows)
    if not windows:
        raise InvalidParameterError("need at least one window")
    scores = np.mean([granger_score_matrix(w.context, lag_order, ridge)
                      for w in windows], axis=0)
    return prior_from_scores(scores, lag_order=lag_order, top_k=top_k)


def cross_validate(series, config: TrainingConfig,
                   model_config: Optional[ModelConfig] = None,
                   ablations=("full",), prior: Optional[PriorGraph] = None,
                   prior_kwargs: Optional[dict] = None, folds: int = 5) -> list:
    """Rotating series-level cross-validation over `folds` folds.

    Each fold tests on its own series group, validates on the next group,
    and trains on the rest. When no prior is given, a pooled Granger prior
    is estimated from the fold's training contexts. Each of `ablations`
    trains `model_config` with that ablation (the graph ablation with square
    maps) and gives one row with mean and std of each metric across folds.
    """
    series = list(series)
    if folds < 2:
        raise InvalidParameterError("folds must be >= 2")
    if len(series) < folds:
        raise InvalidParameterError("need at least one series per fold")
    model_config = model_config or ModelConfig()
    assignment = assign_folds([s.series_id for s in series], folds, config.seed)
    fold_priors = {}
    rows = []
    for ablation in ablations:
        # a map_dim of 0 is the stalk dimension
        row_config = replace(model_config, ablation=ablation,
                             map_dim=0 if ablation == "graph" else model_config.map_dim)
        fold_reports = []
        for fold in range(folds):
            val_fold = (fold + 1) % folds
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
            ckpt = train(train_w, fold_prior, config, model_config=row_config,
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
