"""Command-line pipeline: simulate, prior, train, forecast, perturb-eval, metrics.

Each command is a thin binding of the corresponding library operation. Every
run writes a manifest capturing the config hash, input file hashes, seed,
tool version and a hash of the package sources; identical manifests
reproduce identical outputs.

Exit codes: 0 success, 2 configuration/schema violation, 3 missing input,
4 artifact mismatch (a file that does not match the sha256 its manifest
pins, a dataset, window set or checkpoint in a format no longer read, a
malformed checkpoint or one whose arrays or edges do not fit its model, and
the perturbation leakage guard), 5 any other failure (bad data, I/O,
divergence, an `--out` that is not empty). Failures print one line.
A checkpoint's JSON file pins its array file by sha256, `dataset_manifest.json`
pins every record file and a windows manifest every window file, so the hash
of the JSON file in a manifest covers the files it pins too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import check_pinned, config_hash, default_config, file_hash, load_config
from .data import load_windows, make_perturbed_windows, make_windows
from .errors import (ArtifactMismatchError, CheckpointMismatchError, ConfigError,
                     InfeasiblePlacementError, InvalidParameterError)
# `granger_score_matrix` and `prior_from_scores` are not called here (`prior`
# reaches them through `prior_from_windows`); the benchmark's tracer wraps
# them by these names
from .graphs import (generate_small_world, granger_score_matrix, load_prior_csv,
                     prior_from_scores, save_prior_csv)
from .metrics import evaluate
from .model import ForecastModel, ModelConfig
# `simulate` is not called here; the benchmark's tracer wraps it by this name
from .neurosim import (LifParams, PerturbationSpec, bin_edges, load_rates_csv,
                       load_rates_npy, load_record, sample_perturbation,
                       save_rates_csv, save_rates_npy, save_record, simulate,
                       simulate_many)
from .training import (TrainingConfig, forecast_windows, load_checkpoint,
                       prior_from_windows, save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_MISMATCH = 4
EXIT_RUNTIME = 5

DATASET_FORMAT = "sheafcast-dataset-v2"


def code_hash() -> str:
    """sha256 over the package's .py sources, in sorted file-name order."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg, inputs: dict,
                    outputs: list, seed) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "code_hash": code_hash(),
        "seed": seed,
        "config_hash": config_hash(cfg) if cfg is not None else None,
        "input_hashes": {str(k): file_hash(v) for k, v in inputs.items()},
        "outputs": sorted(outputs),
    }
    (out_dir / f"manifest_{command}.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _require(path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{kind} not found: {path}")
    return path


# lower bounds of the entries no parameter object checks
_LOWER_BOUNDS = {("simulate", "count"): 0, ("prior", "lag_order"): 1,
                 ("prior", "top_k"): 1, ("prior", "ridge"): 0.0,
                 ("train", "t_ctx"): 1, ("train", "t_hor"): 1, ("train", "stride"): 1,
                 ("eval", "t_ctx"): 1, ("eval", "t_hor"): 1}


def _load_cfg(args):
    if args.config:
        cfg = load_config(_require(args.config, "config"))
    elif args.seed is not None:
        cfg = default_config(args.seed)
    else:
        raise ConfigError("provide --config or --seed")
    if args.seed is not None:
        cfg["seed"] = args.seed
    sim = cfg["simulate"]
    try:        # the parameter objects and the binning check their own domains
        _train_config(cfg), _model_config(cfg)
        bin_edges(LifParams(**sim["lif"]).duration_ms, sim["bin_ms"], sim["sigma_ms"])
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc
    for (section, key), low in _LOWER_BOUNDS.items():
        if not cfg[section][key] >= low:
            raise ConfigError(f"{section}.{key} must be >= {low:g}, got {cfg[section][key]}")
    return cfg


def _train_config(cfg) -> TrainingConfig:
    names = {f.name for f in fields(TrainingConfig)}
    return TrainingConfig(**{k: v for k, v in cfg["train"].items() if k in names},
                          seed=cfg["seed"])


def _model_config(cfg) -> ModelConfig:
    return ModelConfig(**cfg["model"])


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = cfg["simulate"]
    lif = LifParams(**sim["lif"])

    runs, specs = [], []
    for i in range(sim["count"]):
        seed_i = cfg["seed"] + i
        graph = generate_small_world(sim["n_nodes"], sim["small_world_k"],
                                     sim["small_world_beta"], seed=seed_i)
        spec = (sample_perturbation(lif.duration_ms, seed_i, n_nodes=sim["n_nodes"])
                if sim["perturb"] else None)
        specs.append(spec)
        runs.append((graph, seed_i, None))
        if spec is not None:
            runs.append((graph, seed_i, spec))
    # count 0 still writes an empty dataset
    records = iter(simulate_many(runs, lif, bin_ms=sim["bin_ms"],
                                 sigma_ms=sim["sigma_ms"]) if runs else [])

    instances, outputs = [], []
    for i, spec in enumerate(specs):
        stem_pre = f"{i:05d}_pre"
        outputs += save_record(out_dir, stem_pre, next(records)).values()
        entry = {"index": i, "seed": cfg["seed"] + i, "pre": stem_pre, "post": None,
                 "perturbation": None}
        if spec is not None:
            stem_post = f"{i:05d}_post"
            outputs += save_record(out_dir, stem_post, next(records)).values()
            entry["post"] = stem_post
            entry["perturbation"] = {"neuron": spec.neuron,
                                     "onset_ms": spec.onset_ms,
                                     "duration_ms": spec.duration_ms}
        instances.append(entry)
    dataset = {"format": DATASET_FORMAT, "instances": instances,
               "n_nodes": sim["n_nodes"], "bin_ms": sim["bin_ms"], "config": cfg,
               "sha256": {name: file_hash(out_dir / name) for name in outputs}}
    ds_path = out_dir / "dataset_manifest.json"
    ds_path.write_text(json.dumps(dataset, sort_keys=True, indent=1) + "\n")
    outputs.append(ds_path.name)
    _write_manifest(out_dir, "simulate", cfg, {}, outputs, cfg["seed"])
    print(f"simulate: wrote {len(instances)} record pair(s) to {out_dir}")
    return EXIT_OK


def _load_dataset(data_dir: Path) -> dict:
    dataset = json.loads(_require(Path(data_dir) / "dataset_manifest.json",
                                  "dataset manifest").read_text())
    found = dataset.get("format")
    if found != DATASET_FORMAT:
        raise ArtifactMismatchError(
            f"dataset_manifest.json has format {found!r}, not {DATASET_FORMAT!r}: "
            f"datasets of CSV rates are no longer read; run simulate again")
    return dataset


def _load_dataset_record(data_dir: Path, dataset: dict, stem: str):
    """The record `stem` of a dataset, read only after each of its files
    matches the sha256 `dataset_manifest.json` pins, and refused unless its
    rate rows and bin width are the manifest's `n_nodes` and `bin_ms`."""
    pins = dataset.get("sha256", {})
    for suffix in ("_meta.json", "_rates.npy", "_adjacency.csv"):
        check_pinned(data_dir, stem + suffix, pins, "dataset_manifest.json")
    record = load_record(data_dir, stem)
    n_rows = record.rates.shape[0]
    if n_rows != dataset["n_nodes"]:
        raise InvalidParameterError(
            f"record {stem} has {n_rows} rate rows but dataset_manifest.json "
            f"says n_nodes {dataset['n_nodes']}")
    widths = np.diff(record.bin_edges_ms)
    off = ~np.isclose(widths, dataset["bin_ms"], rtol=1e-9, atol=0.0)
    if off.any():
        raise InvalidParameterError(
            f"record {stem} has bin width {widths[off][0]:g} ms but "
            f"dataset_manifest.json says bin_ms {dataset['bin_ms']:g}")
    return record


def _load_model(ckpt_prefix: Path, refuse_perturbed: bool = False) -> ForecastModel:
    """The model of a checkpoint, holding the loaded arrays themselves: the
    checkpoint dies with this call, so the parameters are held once."""
    _require(ckpt_prefix.with_suffix(".json"), "checkpoint")
    ckpt = load_checkpoint(ckpt_prefix)
    if refuse_perturbed and ckpt.trained_on_perturbed:
        raise CheckpointMismatchError(
            "checkpoint was trained on perturbed sources; refusing to score "
            "the out-of-distribution protocol with a contaminated model")
    return ckpt.take_model()


def cmd_prior(args) -> int:
    cfg = _load_cfg(args)
    data_dir = Path(args.data)
    dataset = _load_dataset(data_dir)
    t = cfg["train"]
    windows = []
    for entry in dataset["instances"]:
        record = _load_dataset_record(data_dir, dataset, entry["pre"])
        windows += make_windows(record.rates, t["t_ctx"], t["t_hor"], t["stride"])
    if not windows:
        raise InvalidParameterError("dataset produced no context windows")
    p = cfg["prior"]
    prior = prior_from_windows(windows, p["lag_order"], p["top_k"], p["ridge"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prior_path = out_dir / "prior.csv"
    save_prior_csv(prior_path, prior)
    _write_manifest(out_dir, "prior", cfg,
                    {"dataset": data_dir / "dataset_manifest.json"},
                    [prior_path.name], cfg["seed"])
    print(f"prior: {prior.n_edges} edges from {len(windows)} context windows")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    data_dir = Path(args.data)
    prior_path = _require(args.prior, "prior CSV")
    dataset = _load_dataset(data_dir)
    t = cfg["train"]
    windows = []
    for entry in dataset["instances"]:
        record = _load_dataset_record(data_dir, dataset, entry["pre"])
        windows += make_windows(record.rates, t["t_ctx"], t["t_hor"],
                                t["stride"], time_step=dataset["bin_ms"],
                                source_id=entry["pre"])
    prior = load_prior_csv(prior_path, cfg["prior"]["lag_order"],
                           cfg["prior"]["top_k"], n_nodes=dataset["n_nodes"])
    if not windows:
        raise InvalidParameterError("dataset produced no context windows")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = train(windows, prior, _train_config(cfg),
                 model_config=_model_config(cfg),
                 log_path=out_dir / "train_log.jsonl")
    written = save_checkpoint(ckpt, out_dir / "checkpoint")
    _write_manifest(out_dir, "train", cfg,
                    {"dataset": data_dir / "dataset_manifest.json",
                     "prior": prior_path},
                    [p.name for p in written] + ["train_log.jsonl"], cfg["seed"])
    print(f"train: best val loss {ckpt.val_loss:.6f} at epoch {ckpt.epoch}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    ckpt_prefix = Path(args.checkpoint)
    model = _load_model(ckpt_prefix)
    manifest_path = _require(args.windows, "windows manifest")
    windows = load_windows(manifest_path)
    out_dir = Path(args.out)
    fc_dir = out_dir / "forecasts"
    tg_dir = out_dir / "targets"
    fc_dir.mkdir(parents=True, exist_ok=True)
    tg_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    preds, _ = forecast_windows(model, windows)
    for i, (window, pred) in enumerate(zip(windows, preds)):
        stem = f"{i:05d}"
        save_rates_csv(fc_dir / f"{stem}.csv", pred)
        save_rates_npy(tg_dir / f"{stem}.npy", window.horizon)
        meta = {"window": window.source_id, "denormalized": False,
                "n_nodes": window.n_nodes, "t_hor": window.horizon.shape[1]}
        (fc_dir / f"{stem}.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1) + "\n")
        outputs += [f"forecasts/{stem}.csv", f"targets/{stem}.npy"]
    _write_manifest(out_dir, "forecast", None,
                    {"checkpoint": ckpt_prefix.with_suffix(".json"),
                     "windows": manifest_path},
                    outputs, None)
    print(f"forecast: wrote {len(windows)} window forecast(s)")
    return EXIT_OK


def cmd_perturb_eval(args) -> int:
    cfg = _load_cfg(args)
    ckpt_prefix = Path(args.checkpoint)
    model = _load_model(ckpt_prefix, refuse_perturbed=True)
    data_dir = Path(args.data)
    dataset = _load_dataset(data_dir)
    ev = cfg["eval"]
    eval_windows = []
    skipped = 0
    for entry in dataset["instances"]:
        if not entry["post"]:
            continue
        pre = _load_dataset_record(data_dir, dataset, entry["pre"])
        post = _load_dataset_record(data_dir, dataset, entry["post"])
        spec = PerturbationSpec(**entry["perturbation"])
        try:
            eval_windows += make_perturbed_windows(pre, post, spec,
                                                   t_ctx=ev["t_ctx"],
                                                   t_hor=ev["t_hor"],
                                                   source_id=entry["post"])
        except InfeasiblePlacementError:
            skipped += 1        # onset too close to the series boundary
    if not eval_windows:
        raise InvalidParameterError("dataset contains no scoreable perturbed records")
    if skipped:
        print(f"perturb-eval: skipped {skipped} record(s) with infeasible "
              f"window placement", file=sys.stderr)
    preds, targets = forecast_windows(model, eval_windows)
    report = evaluate(preds, targets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "perturb_report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
    _write_manifest(out_dir, "perturb-eval", cfg,
                    {"checkpoint": ckpt_prefix.with_suffix(".json"),
                     "dataset": data_dir / "dataset_manifest.json"},
                    ["perturb_report.json"], cfg["seed"])
    print(f"perturb-eval: mse={report.mse:.6f} mae={report.mae:.6f} "
          f"dtw={report.dtw:.6f} over {report.n_windows} window(s)")
    return EXIT_OK


def cmd_metrics(args) -> int:
    fc_dir = _require(args.forecasts, "forecast directory")
    tg_dir = _require(args.targets, "target directory")
    fc_files = sorted(Path(fc_dir).glob("*.csv"))
    tg_files = sorted(Path(tg_dir).glob("*.npy"))
    if not fc_files:
        raise FileNotFoundError(f"no forecast CSVs under {fc_dir}")
    unmatched = sorted({f.stem for f in fc_files} ^ {f.stem for f in tg_files})
    if unmatched:
        raise InvalidParameterError(
            f"{len(fc_files)} forecasts vs {len(tg_files)} targets; stems "
            f"without a partner: {', '.join(unmatched[:5])}")
    preds = [load_rates_csv(p) for p in fc_files]
    targets = [load_rates_npy(p) for p in tg_files]
    report = evaluate(preds, targets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metric_report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
    _write_manifest(out_dir, "metrics", None,
                    {**{f"forecasts/{f.name}": f for f in fc_files},
                     **{f"targets/{f.name}": f for f in tg_files}},
                    ["metric_report.json"], None)
    print(f"metrics: mse={report.mse:.6f} mae={report.mae:.6f} "
          f"dtw={report.dtw:.6f} over {report.n_windows} window(s)")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafcast",
        description="Sheaf message passing + neural ODE forecasting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate spiking-network records")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prior", help="estimate the Granger prior graph")
    common(p)
    p.add_argument("--data", required=True, help="simulate output directory")
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("train", help="train the forecaster")
    common(p)
    p.add_argument("--data", required=True, help="simulate output directory")
    p.add_argument("--prior", required=True, help="prior CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="forecast saved windows")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint prefix")
    p.add_argument("--windows", required=True, help="windows manifest JSON")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("perturb-eval",
                       help="score a clean checkpoint on perturbed windows")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint prefix")
    p.add_argument("--data", required=True, help="simulate output directory")
    p.set_defaults(func=cmd_perturb_eval)

    p = sub.add_parser("metrics", help="score forecast CSVs against targets")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--targets", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def _refuse_used_out(out: Path) -> None:
    """A command writes only into an absent or empty `--out`, so the
    directory holds no file its manifest does not list."""
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise FileExistsError(f"--out {out} is not empty; give a new directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_used_out(Path(args.out))
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except CheckpointMismatchError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ArtifactMismatchError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:
        message = " ".join(str(exc).split()) or "(no message)"
        print(f"runtime failure: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
