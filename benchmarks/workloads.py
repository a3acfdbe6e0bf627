"""The three benchmark workloads.

Each workload builds every input from the workload seed in `setup`, runs
one pass of its timed chain in `chain` (one caller, each call issued after
the previous one returns), and checks the pass's outputs in `check`, which
is not timed. CLI stages run in-process through `sheafcast.cli.main`,
looked up at call time so that the traced run's wrapper is the one called.
`--threads` is never passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sheafcast import cli, metrics, training
from sheafcast.config import default_config
from sheafcast.data import make_perturbed_windows, make_windows, save_windows
from sheafcast.errors import InfeasiblePlacementError
from sheafcast.graphs import generate_small_world, granger_score_matrix, prior_from_scores
from sheafcast.model import ForecastModel, ModelConfig
from sheafcast.neurosim import LifParams, load_record, sample_perturbation, simulate
from sheafcast.training import ModelCheckpoint, TrainingConfig, save_checkpoint


@dataclass
class PassResult:
    """What one pass did: stage times, the work behind each rate metric, and
    the outcome of every operation (CLI command, train call, forecast
    window)."""

    stage_s: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)  # rate metric -> (items, seconds)
    values: dict = field(default_factory=dict)
    preds: list = None
    ops: dict = field(default_factory=dict)   # operation -> why it failed, or None

    def op(self, name: str, error: str = None) -> None:
        self.ops[name] = error

    def fail(self, name: str, why: str) -> None:
        """Mark an operation failed by a later output check."""
        self.ops[name] = self.ops.get(name) or why

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> list:
        return [f"{name}: {why}" for name, why in self.ops.items() if why]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _run_cli(argv, result: PassResult, stage: str) -> bool:
    """One CLI command, timed; a non-zero exit or an exception fails it."""
    argv = [str(a) for a in argv]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        error = None if code == 0 else f"exit {code}: {sink.getvalue().strip()}"
    except Exception:       # a command must never raise; record and go on
        error = traceback.format_exc(limit=3)
    result.stage_s[stage] = time.perf_counter() - start
    result.op(stage, error)
    return error is None


def _check_manifest(out_dir: Path, command: str, result: PassResult) -> None:
    """Every file the command's manifest lists under `outputs` exists."""
    path = out_dir / f"manifest_{command}.json"
    if not path.exists():
        result.fail(command, "no manifest")
        return
    missing = [o for o in json.loads(path.read_text())["outputs"]
               if not (out_dir / o).exists()]
    if missing:
        result.fail(command, f"missing outputs {missing[:3]}")


def _check_forecast_csvs(fc_dir: Path, shape, n_windows: int,
                         result: PassResult) -> None:
    files = sorted(fc_dir.glob("*.csv"))
    if len(files) != n_windows:
        result.fail("forecast", f"{len(files)} forecast files, expected {n_windows}")
    for f in files:
        _check_forecast(f"forecast {f.name}",
                        np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2).T, shape, result)


def _check_forecast(name: str, pred: np.ndarray, shape, result: PassResult) -> None:
    """A forecast window is an operation: finite, with shape (n, t_hor)."""
    ok = pred.shape == shape and bool(np.all(np.isfinite(pred)))
    result.op(name, None if ok else f"shape {pred.shape} (expected {shape}) or non-finite")


def _check_repeatable(op: str, name: str, value, inputs, result: PassResult) -> None:
    """A quality figure is finite and the same on every pass of a seed;
    otherwise the operation that produced it failed."""
    if not (isinstance(value, float) and math.isfinite(value)):
        result.fail(op, f"{name} is not finite: {value!r}")
        return
    expected = inputs.expected.setdefault(name, value)
    if value != expected:
        result.fail(op, f"{name} changed between passes: {value!r} != {expected!r}")


def _draw_seeds(rng, k: int) -> list:
    return [int(s) for s in rng.integers(1, 2 ** 31 - 1, size=k)]


# ----------------------------------------------------------------------
# train-small
# ----------------------------------------------------------------------
@dataclass
class TrainSmallInputs:
    train_windows: list
    val_windows: list
    test_windows: list
    prior: object
    expected: dict = field(default_factory=dict)


class TrainSmall:
    """Acceptance-fixture shape: tiny arrays, so per-operation Python
    overhead, the tape and the cyclic GC dominate."""

    name = "train-small"
    N_NODES, K, BETA = 10, 4, 0.1
    LIF = LifParams(poisson_weight=56.0, syn_weight=40.0)
    T_CTX, T_HOR, STRIDE = 30, 10, 10
    TEST_STRIDE = 5                 # more held-out windows from the same series
    SERIES_TRAIN, SERIES_VAL, SERIES_TEST = 3, 1, 1
    TOP_K = 2
    MODEL = dict(stalk_dim=16, map_dim=4, rounds=2, normalize=True, field_width=32)
    TRAIN = dict(lr=3e-3, max_epochs=2, batch_size=32, seed=1)

    def setup(self, seed: int, work_dir: Path) -> TrainSmallInputs:
        rng = np.random.default_rng([seed, 1])
        graph_seed, *series_seeds = _draw_seeds(
            rng, 1 + self.SERIES_TRAIN + self.SERIES_VAL + self.SERIES_TEST)
        graph = generate_small_world(self.N_NODES, self.K, self.BETA, seed=graph_seed)
        records = [simulate(graph, self.LIF, s) for s in series_seeds]
        n_fit = self.SERIES_TRAIN + self.SERIES_VAL
        series = [make_windows(r.rates, self.T_CTX, self.T_HOR,
                               self.STRIDE if i < n_fit else self.TEST_STRIDE,
                               source_id=f"s{i:03d}") for i, r in enumerate(records)]
        train_w = [w for s in series[:self.SERIES_TRAIN] for w in s]
        val_w = [w for s in series[self.SERIES_TRAIN:n_fit] for w in s]
        test_w = [w for s in series[n_fit:] for w in s]
        prior = training.prior_from_windows(train_w, lag_order=3, top_k=self.TOP_K)
        return TrainSmallInputs(train_windows=train_w, val_windows=val_w,
                                test_windows=test_w, prior=prior)

    def shapes(self, inputs: TrainSmallInputs) -> dict:
        w = inputs.train_windows[0]
        return {"n_nodes": w.n_nodes, "t_ctx": w.context.shape[1],
                "t_hor": w.horizon.shape[1], "train_windows": len(inputs.train_windows),
                "val_windows": len(inputs.val_windows),
                "test_windows": len(inputs.test_windows),
                "prior_edges": inputs.prior.n_edges, "epochs": self.TRAIN["max_epochs"],
                "batch_size": self.TRAIN["batch_size"], **self.MODEL}

    def chain(self, inputs: TrainSmallInputs, pass_dir: Path) -> PassResult:
        res = PassResult()
        try:
            ckpt, res.stage_s["train"] = _timed(
                training.train, inputs.train_windows, inputs.prior,
                TrainingConfig(**self.TRAIN), model_config=ModelConfig(**self.MODEL),
                val_windows=inputs.val_windows)
        except Exception:
            res.op("train", traceback.format_exc(limit=3))
            return res
        res.op("train")
        try:
            model = ckpt.build_model()
            (res.preds, targets), res.stage_s["forecast"] = _timed(
                training.forecast_windows, model, inputs.test_windows)
            report, res.stage_s["evaluate"] = _timed(metrics.evaluate, res.preds, targets)
        except Exception:
            res.op("forecast", traceback.format_exc(limit=3))
            return res
        res.values["heldout_mse"] = report.mse
        return res

    def check(self, inputs: TrainSmallInputs, pass_dir: Path, res: PassResult) -> None:
        if res.failures:
            return
        shape = inputs.test_windows[0].horizon.shape
        for i, pred in enumerate(res.preds):
            _check_forecast(f"forecast window {i}", pred, shape, res)
        res.preds = None
        _check_repeatable("train", "heldout_mse", res.values["heldout_mse"], inputs, res)
        n_test = len(inputs.test_windows)
        res.work = {
            "train_windows_per_s": (len(inputs.train_windows) * self.TRAIN["max_epochs"],
                                    res.stage_s["train"]),
            "forecast_windows_per_s": (n_test, res.stage_s["forecast"]),
            "metrics_windows_per_s": (n_test, res.stage_s["evaluate"]),
        }


# ----------------------------------------------------------------------
# pipeline-default
# ----------------------------------------------------------------------
@dataclass
class PipelineInputs:
    config_path: Path
    config: dict
    heldout_manifest: Path
    heldout_windows: int
    counts: dict = None
    expected: dict = field(default_factory=dict)


class PipelineDefault:
    """The CLI chain at config defaults: the simulator step loop, the n^2
    Granger ridge solves and the 800 x 32 x 32 restriction maps do most of
    the work; CSV and manifest IO count too."""

    name = "pipeline-default"
    COUNT = 2
    EPOCHS = 2
    HELDOUT_STRIDE = 10

    def _placeable(self, cfg: dict, record, seed: int) -> bool:
        """Whether `perturb-eval` can place the onset-straddling window of
        the instance `simulate` draws with `seed`. The held-out record,
        which has the same bins, stands in for the record pair."""
        sim, ev = cfg["simulate"], cfg["eval"]
        spec = sample_perturbation(sim["lif"]["duration_ms"], seed, n_nodes=sim["n_nodes"])
        try:
            make_perturbed_windows(record, record, spec, t_ctx=ev["t_ctx"], t_hor=ev["t_hor"])
        except InfeasiblePlacementError:
            return False
        return True

    def setup(self, seed: int, work_dir: Path) -> PipelineInputs:
        rng = np.random.default_rng([seed, 2])
        heldout_seed = _draw_seeds(rng, 1)[0]
        cfg = default_config(heldout_seed)

        # held-out windows for `forecast` and `metrics`, from a series the
        # chain never trains on
        sim, t = cfg["simulate"], cfg["train"]
        graph = generate_small_world(sim["n_nodes"], sim["small_world_k"],
                                     sim["small_world_beta"], seed=heldout_seed)
        record = simulate(graph, LifParams(**sim["lif"]), heldout_seed,
                          bin_ms=sim["bin_ms"], sigma_ms=sim["sigma_ms"])
        windows = make_windows(record.rates, t["t_ctx"], t["t_hor"], self.HELDOUT_STRIDE,
                               time_step=sim["bin_ms"], source_id="heldout")

        # `simulate` draws instance i with seed base + i; every instance
        # scoreable, so no seed changes the number of windows scored
        while True:
            base = _draw_seeds(rng, 1)[0]
            if (not base <= heldout_seed < base + self.COUNT
                    and all(self._placeable(cfg, record, base + i) for i in range(self.COUNT))):
                break
        cfg = default_config(base)
        cfg["simulate"]["count"] = self.COUNT
        cfg["train"]["max_epochs"] = self.EPOCHS
        work_dir.mkdir(parents=True, exist_ok=True)
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
        manifest = save_windows(work_dir / "heldout", windows)
        return PipelineInputs(config_path=config_path, config=cfg,
                              heldout_manifest=manifest, heldout_windows=len(windows))

    def _counts(self, inputs: PipelineInputs, sim_dir: Path) -> dict:
        """Records `simulate` wrote, and the context windows `prior` scores
        and `train` trains on, as the package's own windowing and split
        give them. The same on every pass, so taken once."""
        if inputs.counts is None:
            cfg, t = inputs.config, inputs.config["train"]
            dataset = json.loads((sim_dir / "dataset_manifest.json").read_text())
            windows = [w for e in dataset["instances"]
                       for w in make_windows(load_record(sim_dir, e["pre"]).rates, t["t_ctx"],
                                             t["t_hor"], t["stride"], source_id=e["pre"])]
            train_config = cli._train_config(cfg)
            train_windows, _ = training._split_train_val(windows, train_config.seed,
                                                         train_config.val_fraction)
            inputs.counts = {
                "records": sum(1 + bool(e["post"]) for e in dataset["instances"]),
                "prior_windows": len(windows), "train_windows": len(train_windows)}
        return inputs.counts

    def shapes(self, inputs: PipelineInputs) -> dict:
        cfg = inputs.config
        sim, m, t, p = cfg["simulate"], cfg["model"], cfg["train"], cfg["prior"]
        return {"n_nodes": sim["n_nodes"], "count": sim["count"],
                "perturb": sim["perturb"], "prior_edges": sim["n_nodes"] * p["top_k"],
                "stalk_dim": m["stalk_dim"], "map_dim": m["map_dim"] or m["stalk_dim"],
                "field_width": m["field_width"], "batch_size": t["batch_size"],
                "epochs": t["max_epochs"], "t_ctx": t["t_ctx"], "t_hor": t["t_hor"],
                "stride": t["stride"], "heldout_windows": inputs.heldout_windows,
                **(inputs.counts or {})}

    def _dirs(self, pass_dir: Path) -> dict:
        return {k: pass_dir / k for k in ("sim", "prior", "train", "ood", "fc", "metrics")}

    def chain(self, inputs: PipelineInputs, pass_dir: Path) -> PassResult:
        d = self._dirs(pass_dir)
        cfg = inputs.config_path
        ckpt = d["train"] / "checkpoint"
        steps = [
            ("simulate", ["simulate", "--config", cfg, "--out", d["sim"]]),
            ("prior", ["prior", "--config", cfg, "--data", d["sim"], "--out", d["prior"]]),
            ("train", ["train", "--config", cfg, "--data", d["sim"],
                       "--prior", d["prior"] / "prior.csv", "--out", d["train"]]),
            ("perturb-eval", ["perturb-eval", "--config", cfg, "--checkpoint", ckpt,
                              "--data", d["sim"], "--out", d["ood"]]),
            ("forecast", ["forecast", "--checkpoint", ckpt,
                          "--windows", inputs.heldout_manifest, "--out", d["fc"]]),
            ("metrics", ["metrics", "--forecasts", d["fc"] / "forecasts",
                         "--targets", d["fc"] / "targets", "--out", d["metrics"]]),
        ]
        res = PassResult()
        for stage, argv in steps:
            if not _run_cli(argv, res, stage):
                break               # later stages read this one's outputs
        return res

    def check(self, inputs: PipelineInputs, pass_dir: Path, res: PassResult) -> None:
        if res.failures:
            return
        d = self._dirs(pass_dir)
        for stage, key in (("simulate", "sim"), ("prior", "prior"), ("train", "train"),
                           ("perturb-eval", "ood"), ("forecast", "fc"),
                           ("metrics", "metrics")):
            _check_manifest(d[key], stage, res)
        t_hor = inputs.config["train"]["t_hor"]
        n_nodes = inputs.config["simulate"]["n_nodes"]
        _check_forecast_csvs(d["fc"] / "forecasts", (n_nodes, t_hor),
                             inputs.heldout_windows, res)
        report = json.loads((d["ood"] / "perturb_report.json").read_text())
        res.values["ood_mse"] = report["mse"]
        _check_repeatable("perturb-eval", "ood_mse", report["mse"], inputs, res)
        counts = self._counts(inputs, d["sim"])
        counts["ood_windows"] = report["n_windows"]
        s = res.stage_s
        res.work = {
            "simulate_records_per_s": (counts["records"], s["simulate"]),
            "prior_windows_per_s": (counts["prior_windows"], s["prior"]),
            "train_windows_per_s": (counts["train_windows"] * self.EPOCHS, s["train"]),
            "forecast_windows_per_s": (inputs.heldout_windows, s["forecast"]),
            "metrics_windows_per_s": (inputs.heldout_windows, s["metrics"]),
        }


# ----------------------------------------------------------------------
# forecast-long
# ----------------------------------------------------------------------
@dataclass
class ForecastLongInputs:
    checkpoint: Path
    windows_manifest: Path
    n_windows: int
    n_nodes: int
    t_hor: int
    model: dict
    prior_edges: int
    expected: dict = field(default_factory=dict)


class ForecastLong:
    """Forward passes only, under `no_grad`: RK4 over a long horizon and
    normalized DTW, which grows roughly cubically with it. The artifact
    layer's read side (checkpoint load, CSV read, input hashing)."""

    name = "forecast-long"
    T_CTX, T_HOR, STRIDE = 30, 50, 10
    PRIOR_WINDOWS = 2

    def setup(self, seed: int, work_dir: Path) -> ForecastLongInputs:
        rng = np.random.default_rng([seed, 3])
        sim_seed, graph_seed, model_seed = _draw_seeds(rng, 3)
        cfg = default_config(sim_seed)
        sim, p = cfg["simulate"], cfg["prior"]
        graph = generate_small_world(sim["n_nodes"], sim["small_world_k"],
                                     sim["small_world_beta"], seed=graph_seed)
        record = simulate(graph, LifParams(**sim["lif"]), sim_seed,
                          bin_ms=sim["bin_ms"], sigma_ms=sim["sigma_ms"])
        windows = make_windows(record.rates, self.T_CTX, self.T_HOR, self.STRIDE,
                               time_step=sim["bin_ms"], source_id="long")

        scores = np.mean([granger_score_matrix(w.context, p["lag_order"], p["ridge"])
                          for w in windows[:self.PRIOR_WINDOWS]], axis=0)
        prior = prior_from_scores(scores, lag_order=p["lag_order"], top_k=p["top_k"])
        # untrained weights: fixed-step RK4 and DTW cost the same whatever
        # the parameter values
        model_config = ModelConfig(**cfg["model"])
        model = ForecastModel.init(np.asarray(prior.edges, dtype=np.intp),
                                   sim["n_nodes"], model_config, seed=model_seed)
        ckpt = ModelCheckpoint(
            arrays={k: t.data.copy() for k, t in model.all_tensors().items()},
            model_config=model_config, training_config={},
            prior_edges=list(prior.edges), prior_scores=list(prior.scores),
            prior_meta={"lag_order": prior.lag_order, "top_k": prior.top_k},
            n_nodes=sim["n_nodes"], val_loss=0.0, epoch=0, sources=[],
            trained_on_perturbed=False)
        work_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(ckpt, work_dir / "checkpoint")
        manifest = save_windows(work_dir / "windows", windows)
        return ForecastLongInputs(
            checkpoint=work_dir / "checkpoint", windows_manifest=manifest,
            n_windows=len(windows), n_nodes=sim["n_nodes"], t_hor=self.T_HOR,
            model=model_config.to_dict(), prior_edges=prior.n_edges)

    def shapes(self, inputs: ForecastLongInputs) -> dict:
        m = inputs.model
        return {"n_nodes": inputs.n_nodes, "t_ctx": self.T_CTX, "t_hor": inputs.t_hor,
                "windows": inputs.n_windows, "prior_edges": inputs.prior_edges,
                "stalk_dim": m["stalk_dim"], "map_dim": m["map_dim"],
                "field_width": m["field_width"], "rounds": m["rounds"]}

    def chain(self, inputs: ForecastLongInputs, pass_dir: Path) -> PassResult:
        res = PassResult()
        fc, met = pass_dir / "fc", pass_dir / "metrics"
        if _run_cli(["forecast", "--checkpoint", inputs.checkpoint,
                     "--windows", inputs.windows_manifest, "--out", fc], res, "forecast"):
            _run_cli(["metrics", "--forecasts", fc / "forecasts",
                      "--targets", fc / "targets", "--out", met], res, "metrics")
        return res

    def check(self, inputs: ForecastLongInputs, pass_dir: Path, res: PassResult) -> None:
        if res.failures:
            return
        fc, met = pass_dir / "fc", pass_dir / "metrics"
        _check_manifest(fc, "forecast", res)
        _check_manifest(met, "metrics", res)
        _check_forecast_csvs(fc / "forecasts", (inputs.n_nodes, inputs.t_hor),
                             inputs.n_windows, res)
        report = json.loads((met / "metric_report.json").read_text())
        res.values["long_mse"] = report["mse"]
        _check_repeatable("metrics", "long_mse", report["mse"], inputs, res)
        res.work = {
            "forecast_windows_per_s": (inputs.n_windows, res.stage_s["forecast"]),
            "metrics_windows_per_s": (inputs.n_windows, res.stage_s["metrics"]),
        }


WORKLOADS = {w.name: w for w in (TrainSmall(), PipelineDefault(), ForecastLong())}
