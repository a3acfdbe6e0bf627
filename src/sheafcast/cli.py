"""Command-line pipeline: simulate, prior, train, forecast, perturb-eval, metrics.

Each command is a thin binding of the corresponding library operation.
`main` loads and checks the run config once (`config.validate_config`)
for the commands that take one, and hands each command that config and a
fresh hidden sibling `.<name>.<random>` of an absent or empty `--out`. The
command writes its files there and returns its manifest inputs and its
success line. `main` then writes `manifest_<command>.json` there (config
hash, input file hashes, seed, tool version, a hash of the package
sources, and every file in the directory), renames the sibling onto
`--out` and only then prints the line; a failure removes the sibling and
leaves `--out` as it was. Identical manifests reproduce identical outputs.

Exit codes: 0 success, 2 configuration/schema violation (a number that
is not finite, a bin narrower than one simulation step and a smoothing
width longer than the simulation included), 3 missing input, 4 artifact
mismatch (a file that does not match the sha256 its manifest pins or
that it does not pin, a dataset, window set, forecast set or checkpoint
in a format no longer read (one of time-major rates blocks included), a
dataset manifest, record meta, windows manifest, forecast-set manifest
or `checkpoint.json` that is malformed (invalid JSON, a key missing,
unknown or of the wrong type, or a number that is not finite), a record
meta outside its domain (a bin width that is narrower than one step or
does not divide its duration included), a windows manifest entry whose
node count, context or horizon is below 1, a dataset instance whose post
record is not a perturbed run of its pre record, any array file that is
not an `.npy` of a C-ordered float64 array of finite values, a record's
rates, window block, forecast or target not of the (nodes, bins) shape
its meta or manifest gives, a pinned name outside its artifact or not
printable, a checkpoint whose arrays or edges do not fit its model, and
the perturbation leakage guard), 5 any
other failure (bad data, a prior CSV of another header or a score that
is not finite included, a forecast window whose score is not finite,
I/O, divergence, an `--out` that is not empty, a JSON file that would
hold a number that is not finite). Failures print one line. A
checkpoint is the directory `train` writes: its `checkpoint.json` pins
every array file by sha256, as `dataset_manifest.json` pins the files of
every record (whose meta alone states its facts), a windows manifest
every window block and `forecasts_manifest.json` every forecast and
target, so the hash of a manifest covers the files it pins too.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .artifacts import check_pinned, file_hash, read_array, read_manifest, save_array, write_json
from .config import (config_hash, load_config, training_config as _train_config,
                     validate_config)
from .data import load_windows, make_perturbed_windows, make_windows
from .errors import (ArtifactMismatchError, ConfigError,
                     InfeasiblePlacementError, InvalidParameterError)
# `granger_score_matrix` and `prior_from_scores` are not called here (`prior`
# reaches them through `prior_from_windows`); the benchmark's tracer wraps
# them by these names
from .graphs import (generate_small_world, granger_score_matrix, load_prior_csv,
                     prior_from_scores, save_prior_csv)
from .metrics import evaluate
from .model import ModelConfig
# `simulate` is not called here; the benchmark's tracer wraps it by this name
from .neurosim import (LifParams, load_rates_csv, load_record, sample_perturbation,
                       save_rates_csv, save_record, simulate, simulate_many)
from .training import (CHECKPOINT_MANIFEST, forecast_windows, load_checkpoint,
                       prior_from_windows, save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_MISMATCH = 4
EXIT_RUNTIME = 5

DATASET_FORMAT = "sheafcast-dataset-v6"
# the keys and value types of the dataset manifest `simulate` writes
_DATASET_SCHEMA = {"format": str, "config": dict, "sha256": {str: str},
                   "instances": [{"pre": str, "post": (str, type(None))}]}
FORECASTS_FORMAT = "sheafcast-forecasts-v2"
FORECASTS_MANIFEST = "forecasts_manifest.json"
_FORECASTS_SCHEMA = {
    "format": str, "sha256": {str: str},
    "forecasts": [{"forecast": str, "target": str, "source_id": str, "n_nodes": int,
                   "t_hor": int}]}


def code_hash() -> str:
    """sha256 over the package's .py sources, in sorted file-name order."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg, inputs: dict) -> None:
    """`manifest_<command>.json` in `out_dir`, listing every file already
    there by its POSIX path relative to `out_dir`."""
    outputs = (p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file())
    manifest = {
        "command": command,
        "tool_version": __version__,
        "code_hash": code_hash(),
        "seed": cfg["seed"] if cfg is not None else None,
        "config_hash": config_hash(cfg) if cfg is not None else None,
        "input_hashes": {str(k): file_hash(v) for k, v in inputs.items()},
        "outputs": sorted(outputs),
    }
    write_json(out_dir / f"manifest_{command}.json", manifest)


def _require(path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{kind} not found: {path}")
    return path


def _load_cfg(args) -> dict:
    """The run config of `--config` (valid on its own) or of the defaults,
    with `--seed` applied; `config.validate_config` checks every value."""
    if not args.config and args.seed is None:
        raise ConfigError("provide --config or --seed")
    cfg = load_config(_require(args.config, "config")) if args.config else {}
    if args.seed is not None:
        cfg = validate_config({**cfg, "seed": args.seed})
    return cfg


# ----------------------------------------------------------------------
# commands: each writes its files into `out_dir` and returns the inputs
# its manifest records and its success line
# ----------------------------------------------------------------------
def cmd_simulate(args, cfg, out_dir: Path):
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

    instances, pins = [], {}
    for i, spec in enumerate(specs):
        entry = {"pre": f"{i:05d}_pre", "post": None if spec is None else f"{i:05d}_post"}
        for stem in filter(None, entry.values()):
            pins.update(save_record(out_dir, stem, next(records)))
        instances.append(entry)
    write_json(out_dir / "dataset_manifest.json", {
        "format": DATASET_FORMAT, "instances": instances, "config": cfg, "sha256": pins})
    return {}, f"simulate: wrote {len(instances)} record pair(s) to {args.out}"


def _load_dataset(data_dir: Path) -> dict:
    path = _require(Path(data_dir) / "dataset_manifest.json", "dataset manifest")
    return read_manifest(path, DATASET_FORMAT,
                         "datasets of CSV files, with record facts in the manifest, of "
                         "time-major rates or of record bin edges are no longer read; run "
                         "simulate again",
                         _DATASET_SCHEMA)


def _load_dataset_record(data_dir: Path, dataset: dict, stem: str):
    """The record `stem` of a dataset, read only after each of its files
    matches the sha256 `dataset_manifest.json` pins."""
    for suffix in ("_meta.json", "_rates.npy"):
        check_pinned(data_dir, stem + suffix, dataset["sha256"], "dataset_manifest.json")
    return load_record(data_dir, stem)


def _load_model(ckpt_dir, refuse_perturbed: bool = False):
    """The model of a checkpoint directory, holding the loaded arrays
    themselves (the checkpoint dies with this call, so the parameters are
    held once), and the path of its `checkpoint.json`."""
    manifest_path = _require(Path(ckpt_dir) / CHECKPOINT_MANIFEST, "checkpoint")
    ckpt = load_checkpoint(manifest_path.parent)
    if refuse_perturbed and ckpt.trained_on_perturbed:
        raise ArtifactMismatchError(
            "checkpoint was trained on perturbed sources; refusing to score "
            "the out-of-distribution protocol with a contaminated model")
    return ckpt.take_model(), manifest_path


def _pre_windows(data_dir: Path, dataset: dict, cfg) -> list:
    """The training windows of every pre record of a dataset, refused when
    there are none."""
    t = cfg["train"]
    windows = []
    for entry in dataset["instances"]:
        record = _load_dataset_record(data_dir, dataset, entry["pre"])
        windows += make_windows(record.rates, t["t_ctx"], t["t_hor"],
                                t["stride"], time_step=record.bin_ms,
                                source_id=entry["pre"])
    if not windows:
        raise InvalidParameterError("dataset produced no context windows")
    return windows


def cmd_prior(args, cfg, out_dir: Path):
    data_dir = Path(args.data)
    windows = _pre_windows(data_dir, _load_dataset(data_dir), cfg)
    p = cfg["prior"]
    prior = prior_from_windows(windows, p["lag_order"], p["top_k"], p["ridge"])
    save_prior_csv(out_dir / "prior.csv", prior)
    return ({"dataset": data_dir / "dataset_manifest.json"},
            f"prior: {prior.n_edges} edges from {len(windows)} context windows")


def cmd_train(args, cfg, out_dir: Path):
    data_dir = Path(args.data)
    prior_path = _require(args.prior, "prior CSV")
    windows = _pre_windows(data_dir, _load_dataset(data_dir), cfg)
    prior = load_prior_csv(prior_path, cfg["prior"]["lag_order"],
                           cfg["prior"]["top_k"], n_nodes=windows[0].n_nodes)
    ckpt = train(windows, prior, _train_config(cfg),
                 model_config=ModelConfig(**cfg["model"]),
                 log_path=out_dir / "train_log.jsonl")
    save_checkpoint(ckpt, out_dir / "checkpoint")
    return ({"dataset": data_dir / "dataset_manifest.json", "prior": prior_path},
            f"train: best val loss {ckpt.val_loss:.6f} at epoch {ckpt.epoch}")


def cmd_forecast(args, cfg, out_dir: Path):
    model, ckpt_path = _load_model(args.checkpoint)
    manifest_path = _require(args.windows, "windows manifest")
    windows = load_windows(manifest_path)
    preds, _ = forecast_windows(model, windows)
    fc_dir, tg_dir = out_dir / "forecasts", out_dir / "targets"
    fc_dir.mkdir()
    tg_dir.mkdir()
    entries, pins = [], {}
    for i, (window, pred) in enumerate(zip(windows, preds)):
        entry = {"forecast": f"{i:05d}.csv", "target": f"{i:05d}.npy",
                 "source_id": window.source_id, "n_nodes": window.n_nodes,
                 "t_hor": window.horizon.shape[1]}
        save_rates_csv(fc_dir / entry["forecast"], pred)
        pins[entry["forecast"]] = file_hash(fc_dir / entry["forecast"])
        pins[entry["target"]] = save_array(tg_dir / entry["target"], window.horizon)
        entries.append(entry)
    write_json(fc_dir / FORECASTS_MANIFEST,
               {"format": FORECASTS_FORMAT, "forecasts": entries, "sha256": pins})
    return ({"checkpoint": ckpt_path, "windows": manifest_path},
            f"forecast: wrote {len(windows)} window forecast(s)")


def cmd_perturb_eval(args, cfg, out_dir: Path):
    model, ckpt_path = _load_model(args.checkpoint, refuse_perturbed=True)
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
        if post.perturbation is None or (post.seed, post.adjacency) != (pre.seed, pre.adjacency):
            raise ArtifactMismatchError(
                f"dataset_manifest.json pairs {entry['pre']} with {entry['post']}, "
                f"not a perturbed run of its seed and graph")
        try:
            eval_windows += make_perturbed_windows(pre, post, post.perturbation,
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
    write_json(out_dir / "perturb_report.json", report.to_dict())
    return ({"checkpoint": ckpt_path,
             "dataset": data_dir / "dataset_manifest.json"},
            f"perturb-eval: mse={report.mse:.6f} mae={report.mae:.6f} "
            f"dtw={report.dtw:.6f} over {report.n_windows} window(s)")


def cmd_metrics(args, cfg, out_dir: Path):
    fc_dir, tg_dir = Path(args.forecasts), Path(args.targets)
    manifest_path = _require(fc_dir / FORECASTS_MANIFEST, "forecast-set manifest")
    listing = read_manifest(manifest_path, FORECASTS_FORMAT, "run forecast again",
                            _FORECASTS_SCHEMA)
    preds, targets = [], []
    for entry in listing["forecasts"]:
        shape = (entry["n_nodes"], entry["t_hor"])
        pred = load_rates_csv(check_pinned(fc_dir, entry["forecast"], listing["sha256"],
                                           FORECASTS_MANIFEST))
        if pred.shape != shape:
            raise ArtifactMismatchError(
                f"forecast {entry['forecast']} has shape {pred.shape}, but "
                f"{FORECASTS_MANIFEST} gives (n_nodes, t_hor) {shape}")
        target = read_array(check_pinned(tg_dir, entry["target"], listing["sha256"],
                                         FORECASTS_MANIFEST), shape)
        preds.append(pred)
        targets.append(target)
    report = evaluate(preds, targets)
    write_json(out_dir / "metric_report.json", report.to_dict())
    return ({"forecasts": manifest_path},
            f"metrics: mse={report.mse:.6f} mae={report.mae:.6f} "
            f"dtw={report.dtw:.6f} over {report.n_windows} window(s)")


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
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--windows", required=True, help="windows manifest JSON")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("perturb-eval",
                       help="score a clean checkpoint on perturbed windows")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="simulate output directory")
    p.set_defaults(func=cmd_perturb_eval)

    p = sub.add_parser("metrics", help="score forecast CSVs against targets")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--targets", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def _refuse_used_out(out: Path) -> Path:
    """`out` with symlinks resolved, so that a symlinked `--out` gets its
    target replaced; refused unless absent or an empty directory (so it
    holds only what its manifest lists), and refused as the working
    directory, which the rename would delete under its users."""
    resolved = out.resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise FileExistsError(f"--out {out} is not empty; give a new directory")
    if resolved == Path.cwd():
        raise FileExistsError(f"--out {out} is the working directory; give a new directory")
    return resolved


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = None
    try:
        out = _refuse_used_out(Path(args.out))
        cfg = _load_cfg(args) if hasattr(args, "config") else None
        # mkdir (not mkdtemp, which makes it 0700) gives `--out` the umask's mode
        out.parent.mkdir(parents=True, exist_ok=True)
        stage = out.parent / f".{out.name}.{os.urandom(8).hex()}"
        stage.mkdir()
        inputs, line = args.func(args, cfg, stage)
        _write_manifest(stage, args.command, cfg, inputs)
        os.replace(stage, out)
        print(line)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ArtifactMismatchError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:
        message = " ".join(str(exc).split()) or "(no message)"
        print(f"runtime failure: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if stage is not None:       # gone once renamed onto `--out`
            shutil.rmtree(stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
