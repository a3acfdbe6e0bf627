import builtins
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sheafcast
from sheafcast import cli
from sheafcast.artifacts import check_pinned, file_hash, write_json
from sheafcast.cli import (EXIT_CONFIG, EXIT_MISMATCH, EXIT_MISSING, EXIT_OK,
                           EXIT_RUNTIME, FORECASTS_MANIFEST, main)
from sheafcast.config import config_hash, default_config, load_config, validate_config
from sheafcast.errors import ArtifactMismatchError, ConfigError
from sheafcast.neurosim import load_rates_csv, save_rates_csv
from sheafcast.training import load_checkpoint, save_checkpoint


def _fast_config(seed=11, count=3):
    cfg = default_config(seed)
    cfg["simulate"].update({"n_nodes": 10, "small_world_k": 4, "count": count})
    cfg["simulate"]["lif"]["duration_ms"] = 1600.0
    cfg["prior"].update({"top_k": 2})
    cfg["model"].update({"stalk_dim": 8, "map_dim": 8, "rounds": 1,
                         "normalize": True, "field_width": 8})
    cfg["train"].update({"max_epochs": 2, "batch_size": 16, "stride": 40})
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _files_of(out):
    """The bytes of every file under `out` by path, or None if it is absent."""
    return ({p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
            if out.exists() else None)


def _refused(capsys, argv, out):
    """Exit code and stderr of the command `argv` run with `--out out`. A
    refusal (any nonzero exit) prints one stderr line and no traceback,
    nothing on stdout, and leaves `--out` as it was: absent if it was
    absent, else holding the same files."""
    out = Path(out)
    before = _files_of(out)
    capsys.readouterr()
    code = main([str(a) for a in [*argv, "--out", out]])
    stdout, err = capsys.readouterr()
    if code != EXIT_OK:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (code, err)
        assert stdout == "" and _files_of(out) == before, (code, stdout)
    return code, err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run simulate -> prior -> train once; commands under test reuse it."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = _fast_config()
    cfg_path = _write_config(root, cfg)
    sim_dir = root / "sim"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(sim_dir)]) == EXIT_OK
    prior_dir = root / "prior"
    assert main(["prior", "--config", str(cfg_path), "--data", str(sim_dir),
                 "--out", str(prior_dir)]) == EXIT_OK
    train_dir = root / "train"
    assert main(["train", "--config", str(cfg_path), "--data", str(sim_dir),
                 "--prior", str(prior_dir / "prior.csv"),
                 "--out", str(train_dir)]) == EXIT_OK
    return {"root": root, "cfg": cfg, "cfg_path": cfg_path, "sim": sim_dir,
            "prior": prior_dir, "train": train_dir}


def test_simulate_outputs_and_rerun_reproducibility(pipeline, tmp_path):
    sim = pipeline["sim"]
    manifest = json.loads((sim / "dataset_manifest.json").read_text())
    # the manifest lists record stems only; each record's facts are in its meta
    assert sorted(manifest) == ["config", "format", "instances", "sha256"]
    assert manifest["format"] == "sheafcast-dataset-v6"
    assert manifest["instances"] == [{"pre": f"{i:05d}_pre", "post": f"{i:05d}_post"}
                                     for i in range(3)]
    metas = {p.name: json.loads(p.read_text()) for p in sim.glob("*_meta.json")}
    assert [metas[f"{i:05d}_pre_meta.json"]["seed"] for i in range(3)] == [11, 12, 13]
    for entry in manifest["instances"]:
        assert (sim / f"{entry['pre']}_rates.npy").exists()
        assert (sim / f"{entry['post']}_rates.npy").exists()
        assert metas[f"{entry['pre']}_meta.json"]["perturbation"] is None
        assert metas[f"{entry['post']}_meta.json"]["perturbation"] is not None
    # every record file is pinned by its sha256
    records = sorted(p.name for p in sim.glob("0*"))
    assert len(records) == 3 * 2 * 2 and sorted(manifest["sha256"]) == records
    assert all(manifest["sha256"][name] == hashlib.sha256((sim / name).read_bytes()).hexdigest()
               for name in records)

    rerun = tmp_path / "sim2"
    assert main(["simulate", "--config", str(pipeline["cfg_path"]),
                 "--out", str(rerun)]) == EXIT_OK
    for name in ("dataset_manifest.json", "00000_pre_rates.npy",
                 "00001_post_meta.json", "manifest_simulate.json"):
        assert (rerun / name).read_bytes() == (sim / name).read_bytes()


def test_simulate_records_match_one_run_oracle(pipeline):
    """The records of one batched `simulate` equal each run stepped alone."""
    from oracles import simulate_loop
    from sheafcast.neurosim import LifParams, load_record, sample_perturbation

    sim, cfg = pipeline["sim"], pipeline["cfg"]
    params = LifParams(**cfg["simulate"]["lif"])
    manifest = json.loads((sim / "dataset_manifest.json").read_text())
    for i, entry in enumerate(manifest["instances"]):
        pre, post = load_record(sim, entry["pre"]), load_record(sim, entry["post"])
        # each record states the seed and perturbation `simulate` drew for it
        assert pre.seed == post.seed == cfg["seed"] + i
        assert pre.params == post.params == params and pre.perturbation is None
        assert post.perturbation == sample_perturbation(
            params.duration_ms, pre.seed, n_nodes=cfg["simulate"]["n_nodes"])
        for stem, record in ((entry["pre"], pre), (entry["post"], post)):
            want = simulate_loop(record.adjacency, params, record.seed, record.perturbation,
                                 bin_ms=cfg["simulate"]["bin_ms"],
                                 sigma_ms=cfg["simulate"]["sigma_ms"])
            assert record.rates.tobytes() == want.tobytes(), stem


def test_prior_and_train_compute_what_the_library_computes_in_memory(pipeline, tmp_path):
    """`prior.csv` and the checkpoint arrays of the fixture chain equal, bit
    for bit, what `prior_from_windows` and `train` give on the windows of
    the records `simulate_many` returns in memory for `simulate`'s runs: a
    record read from disk is the block the library held."""
    from sheafcast.data import make_windows
    from sheafcast.graphs import generate_small_world, save_prior_csv
    from sheafcast.model import ModelConfig
    from sheafcast.neurosim import LifParams, sample_perturbation, simulate_many
    from sheafcast.training import prior_from_windows, train

    cfg = pipeline["cfg"]
    sim, t, p = cfg["simulate"], cfg["train"], cfg["prior"]
    lif = LifParams(**sim["lif"])
    runs = []
    for seed in range(cfg["seed"], cfg["seed"] + sim["count"]):
        graph = generate_small_world(sim["n_nodes"], sim["small_world_k"],
                                     sim["small_world_beta"], seed=seed)
        runs += [(graph, seed, None),
                 (graph, seed, sample_perturbation(lif.duration_ms, seed,
                                                   n_nodes=sim["n_nodes"]))]
    records = simulate_many(runs, lif, bin_ms=sim["bin_ms"], sigma_ms=sim["sigma_ms"])
    windows = [w for i, record in enumerate(records[::2])
               for w in make_windows(record.rates, t["t_ctx"], t["t_hor"], t["stride"],
                                     time_step=record.bin_ms, source_id=f"{i:05d}_pre")]

    prior = prior_from_windows(windows, p["lag_order"], p["top_k"], p["ridge"])
    save_prior_csv(tmp_path / "prior.csv", prior)
    assert (tmp_path / "prior.csv").read_bytes() == (pipeline["prior"] / "prior.csv").read_bytes()

    want = train(windows, prior, cli._train_config(cfg), model_config=ModelConfig(**cfg["model"]))
    got = load_checkpoint(pipeline["train"] / "checkpoint")
    assert sorted(got.arrays) == sorted(want.arrays)
    for name, array in want.arrays.items():
        assert np.array_equal(got.arrays[name], array), name


def test_run_manifest_contents(pipeline):
    manifest = json.loads((pipeline["sim"] / "manifest_simulate.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 11
    assert len(manifest["config_hash"]) == 64
    assert manifest["tool_version"]


def test_manifests_carry_the_code_hash(pipeline):
    import sheafcast

    digest = hashlib.sha256()
    for path in sorted(Path(sheafcast.__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    for out_dir, command in ((pipeline["sim"], "simulate"),
                             (pipeline["prior"], "prior"),
                             (pipeline["train"], "train")):
        manifest = json.loads((out_dir / f"manifest_{command}.json").read_text())
        assert manifest["code_hash"] == digest.hexdigest()


def test_prior_respects_top_k(pipeline):
    lines = (pipeline["prior"] / "prior.csv").read_text().splitlines()
    assert lines[0] == "src,dst,score"
    indeg = {}
    for line in lines[1:]:
        _, dst, _ = line.split(",")
        indeg[dst] = indeg.get(dst, 0) + 1
    assert max(indeg.values()) <= 2


def test_train_wrote_checkpoint_and_log(pipeline):
    train_dir = pipeline["train"]
    assert (train_dir / "checkpoint" / "checkpoint.json").exists()
    assert (train_dir / "checkpoint" / "sheaf.rho_src.npy").exists()
    outputs = json.loads((train_dir / "manifest_train.json").read_text())["outputs"]
    assert outputs == ["checkpoint/checkpoint.json", *[f"checkpoint/{name}.npy" for name in (
        "field.b1", "field.b2", "field.w1", "field.w2", "lstm.bias", "lstm.w_h", "lstm.w_x",
        "sheaf.attention", "sheaf.rho_dst", "sheaf.rho_src")], "train_log.jsonl"]
    log = [json.loads(x) for x in (train_dir / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == 2 and {"epoch", "train_loss", "val_loss", "lr"} == set(log[0])
    ckpt = json.loads((train_dir / "checkpoint" / "checkpoint.json").read_text())
    assert ckpt["trained_on_perturbed"] is False


def test_train_refuses_a_dataset_that_leaves_no_window_to_train_on(tmp_path, capsys):
    """One 400 ms record cuts one window, which the split holds out for
    validation: `train` exits 5 instead of saving untrained weights beside
    a log of NaN losses."""
    cfg = _fast_config(count=1)
    cfg["simulate"]["perturb"] = False
    cfg["simulate"]["lif"]["duration_ms"] = 400.0
    cfg_path = _write_config(tmp_path, cfg)
    sim, prior = tmp_path / "sim", tmp_path / "prior"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == EXIT_OK
    assert main(["prior", "--config", str(cfg_path), "--data", str(sim),
                 "--out", str(prior)]) == EXIT_OK
    code, err = _refused(capsys, ["train", "--config", cfg_path, "--data", sim,
                                  "--prior", prior / "prior.csv"], tmp_path / "train")
    assert code == EXIT_RUNTIME and "no window to train on" in err


def test_forecast_shapes_and_metrics_pipeline(pipeline, tmp_path, capsys):
    # build windows from one simulated record, forecast them, score them
    from sheafcast.data import make_windows, save_windows
    from sheafcast.neurosim import load_record

    record = load_record(pipeline["sim"], "00000_pre")
    windows = make_windows(record.rates, 30, 10, 40, source_id="00000_pre")
    win_dir = tmp_path / "windows"
    manifest = save_windows(win_dir, windows)

    fc_dir = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(pipeline["train"] / "checkpoint"),
                 "--windows", str(manifest), "--out", str(fc_dir)]) == EXIT_OK
    fc_files = sorted((fc_dir / "forecasts").glob("*.csv"))
    assert len(fc_files) == len(windows)
    pred = load_rates_csv(fc_files[0])
    assert pred.shape == (10, 10)
    assert np.all(np.isfinite(pred))

    out = tmp_path / "metrics"
    assert main(["metrics", "--forecasts", str(fc_dir / "forecasts"),
                 "--targets", str(fc_dir / "targets"),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "metric_report.json").read_text())
    assert report["n_windows"] == len(windows)
    assert np.isfinite(report["mse"]) and report["mse"] >= 0.0
    # the one input is the forecast-set manifest, which pins every pair
    listing = fc_dir / "forecasts" / "forecasts_manifest.json"
    hashes = json.loads((out / "manifest_metrics.json").read_text())["input_hashes"]
    assert hashes == {"forecasts": hashlib.sha256(listing.read_bytes()).hexdigest()}
    pins = json.loads(listing.read_text())["sha256"]
    assert sorted(pins) == sorted([f.name for f in fc_files]
                                  + [f.name for f in (fc_dir / "targets").glob("*.npy")])

    # a target renamed away is a removed pinned file: exit 3, naming it
    renamed = tmp_path / "renamed_targets"
    renamed.mkdir()
    for i, f in enumerate(sorted((fc_dir / "targets").glob("*.npy"))):
        stem = "zz_renamed" if i == 0 else f.stem
        (renamed / f"{stem}.npy").write_bytes(f.read_bytes())
    code, err = _refused(capsys, ["metrics", "--forecasts", fc_dir / "forecasts",
                                  "--targets", renamed], tmp_path / "m2")
    assert code == EXIT_MISSING and "00000.npy" in err


def test_perturb_eval_emits_report(pipeline, tmp_path):
    out = tmp_path / "pe"
    code = main(["perturb-eval", "--config", str(pipeline["cfg_path"]),
                 "--checkpoint", str(pipeline["train"] / "checkpoint"),
                 "--data", str(pipeline["sim"]), "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "perturb_report.json").read_text())
    assert report["n_windows"] >= 1
    assert all(np.isfinite(report[k]) for k in ("mse", "mae", "dtw"))


def test_perturb_eval_refuses_contaminated_checkpoint(pipeline, tmp_path):
    src = pipeline["train"]
    dirty_dir = tmp_path / "dirty"
    shutil.copytree(src / "checkpoint", dirty_dir / "checkpoint")
    manifest = json.loads((src / "checkpoint" / "checkpoint.json").read_text())
    manifest["trained_on_perturbed"] = True
    (dirty_dir / "checkpoint" / "checkpoint.json").write_text(json.dumps(manifest, sort_keys=True))
    code = main(["perturb-eval", "--config", str(pipeline["cfg_path"]),
                 "--checkpoint", str(dirty_dir / "checkpoint"),
                 "--data", str(pipeline["sim"]), "--out", str(tmp_path / "x")])
    assert code == EXIT_MISMATCH


def _forecast_peak(tmp_path):
    """The parameter bytes P of a checkpoint whose restriction maps dominate
    (n 40, 800 edges, d 24), the working set W of forecasting 4 windows
    with the model in memory, and the tracemalloc peak of the `forecast`
    command on them, each above the bytes held before it."""
    from sheafcast.data import make_windows, save_windows
    from sheafcast.model import ForecastModel, ModelConfig
    from sheafcast.training import ModelCheckpoint, forecast_windows

    n, n_edges = 40, 800
    rng = np.random.default_rng(6)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = sorted(pairs[i] for i in rng.choice(len(pairs), n_edges, replace=False))
    config = ModelConfig(stalk_dim=24, rounds=1, field_width=8)
    model = ForecastModel.init(np.asarray(edges), n, config, seed=0)
    arrays = {k: t.data.copy() for k, t in model.all_tensors().items()}
    param_bytes = sum(a.nbytes for a in arrays.values())
    save_checkpoint(ModelCheckpoint(
        arrays=arrays, model_config=config, training_config={}, prior_edges=edges,
        prior_scores=[1.0] * n_edges, prior_meta={}, n_nodes=n, val_loss=0.0,
        epoch=0, sources=[], trained_on_perturbed=False), tmp_path / "ck")
    del arrays
    windows = make_windows(rng.normal(size=(n, 30)), 20, 5, 1)[:4]
    argv = ["forecast", "--checkpoint", str(tmp_path / "ck"),
            "--windows", str(save_windows(tmp_path / "w", windows)), "--out"]
    assert main(argv + [str(tmp_path / "warm")]) == EXIT_OK

    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forecast_windows(model, windows)
        working_set = tracemalloc.get_traced_memory()[1] - base
        del model
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv + [str(tmp_path / "fc")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert param_bytes > working_set      # the maps dominate
    return peak, param_bytes, working_set


def test_forecast_frees_the_loaded_checkpoint(tmp_path):
    """`forecast` holds the loaded checkpoint's arrays only until the model
    has them: its peak is never a third copy of the parameters beside a
    forward's working set."""
    peak, param_bytes, working_set = _forecast_peak(tmp_path)
    # kept through the forecast, the checkpoint's arrays add a third copy of
    # the parameters beside the working set: 2 * param_bytes + working_set
    assert peak < 2 * param_bytes + working_set / 2, (peak, param_bytes, working_set)


def test_forecast_holds_the_parameters_once(tmp_path):
    """The model is built from the loaded arrays themselves, so `forecast`
    never holds the parameters twice: its peak is the parameters plus a
    forward's working set, below 2P (a copy made while the model is built
    reaches 2P on its own)."""
    peak, param_bytes, working_set = _forecast_peak(tmp_path)
    assert peak < 2 * param_bytes, (peak, param_bytes, working_set)


def _repin(data, name):
    """Pin the bytes `data / name` now holds in the dataset manifest of `data`."""
    path = data / "dataset_manifest.json"
    dataset = json.loads(path.read_text())
    dataset["sha256"][name] = file_hash(data / name)
    path.write_text(json.dumps(dataset))


def _reshaped_rates_argv(pipeline, tmp_path, command, key, value):
    """The argv (without `--out`) of `command` on a copy of the pipeline's
    dataset whose `00000_pre_rates.npy` is replaced, and pinned again, by
    the block the record would have at `key` `value`: its first 7 nodes
    (`n_nodes` 7) or every second of its 10 ms bins (`bin_ms` 20)."""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    path = data / "00000_pre_rates.npy"
    stored = np.load(path)          # (nodes, bins)
    if key == "n_nodes":
        stored = stored[:value]
    else:
        stored = stored[:, ::int(value / pipeline["cfg"]["simulate"]["bin_ms"])]
    np.save(path, np.ascontiguousarray(stored))
    _repin(data, path.name)
    extra = {"prior": [], "train": ["--prior", pipeline["prior"] / "prior.csv"],
             "perturb-eval": ["--checkpoint", pipeline["train"] / "checkpoint"]}[command]
    return [command, "--config", pipeline["cfg_path"], "--data", data, *extra]


@pytest.mark.parametrize("command", ["prior", "train", "perturb-eval"])
@pytest.mark.parametrize("key, value, found", [("n_nodes", 7, "10 rate rows"),
                                               ("bin_ms", 20.0, "bin width 10 ms")])
def test_records_must_match_the_dataset_manifest(pipeline, tmp_path, capsys,
                                                 command, key, value, found):
    """A record's rates must be the block its own meta, which the dataset
    manifest pins, gives: its 10 nodes by the 160 bins of the meta's bin
    width, so `found` is what the meta says. A re-pinned block of 7 nodes,
    or of 20 ms bins, is refused by `load_record` as the wrong shape: exit
    4 and one stderr line naming the file. (The manifest's own `n_nodes`
    and `bin_ms`, which this used to check with exit 5, are gone.)"""
    code, err = _refused(capsys, _reshaped_rates_argv(pipeline, tmp_path, command, key, value),
                         tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    stored = (7, 160) if key == "n_nodes" else (10, 80)
    assert f"00000_pre_rates.npy holds a {stored} array, not the (10, 160)" in err, (found, err)


@pytest.mark.parametrize("command", ["prior", "train"])
def test_refused_input_leaves_no_out_dir(pipeline, tmp_path, capsys, command):
    argv = _reshaped_rates_argv(pipeline, tmp_path, command, "n_nodes", 7)
    assert _refused(capsys, argv, tmp_path / "o")[0] == EXIT_MISMATCH


def test_refused_forecast_leaves_no_out_dir(pipeline, tmp_path, capsys):
    """Windows of 7 nodes on the 10-node checkpoint exit 5 and leave no
    `--out`, so a corrected rerun into it is not refused."""
    from sheafcast.data import make_windows, save_windows

    ck, out = pipeline["train"] / "checkpoint", tmp_path / "o"
    rng = np.random.default_rng(8)
    wrong = save_windows(tmp_path / "w7", make_windows(rng.normal(size=(7, 60)), 30, 10, 40))
    assert _refused(capsys, ["forecast", "--checkpoint", ck, "--windows", wrong],
                    out)[0] == EXIT_RUNTIME
    right = save_windows(tmp_path / "w10", _windows_of(pipeline, "00000_pre"))
    assert main(["forecast", "--checkpoint", str(ck), "--windows", str(right),
                 "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("command", ["prior", "train"])
def test_empty_dataset_leaves_no_out_dir(pipeline, tmp_path, capsys, command):
    cfg_path = _write_config(tmp_path, _fast_config(count=0))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "sim")]) == EXIT_OK
    extra = ["--prior", str(pipeline["prior"] / "prior.csv")] if command == "train" else []
    code, err = _refused(capsys, [command, "--config", cfg_path, "--data", tmp_path / "sim",
                                  *extra], tmp_path / "o")
    assert code == EXIT_RUNTIME and "no context windows" in err


@pytest.mark.parametrize("damage", ["truncated", "padded", "flipped", "other-run", "v1", "v2"])
def test_damaged_checkpoint_exits_4(pipeline, tmp_path, capsys, damage):
    src = pipeline["train"]
    bad = tmp_path / "bad"
    shutil.copytree(src / "checkpoint", bad / "checkpoint")
    manifest = (src / "checkpoint" / "checkpoint.json").read_text()
    raw = (src / "checkpoint" / "field.b2.npy").read_bytes()
    mid = len(raw) // 2
    if damage == "truncated":
        raw = raw[:mid]
    elif damage == "padded":
        raw = raw + b"\0" * 8
    elif damage == "flipped":
        raw = raw[:mid] + bytes([raw[mid] ^ 1]) + raw[mid + 1:]
    elif damage == "other-run":
        # a well-formed array file with the same names and shapes
        other = load_checkpoint(src / "checkpoint")
        other.arrays["field.b2"] = other.arrays["field.b2"] + 1.0
        save_checkpoint(other, tmp_path / "other" / "checkpoint")
        raw = (tmp_path / "other" / "checkpoint" / "field.b2.npy").read_bytes()
    else:
        # the JSON of an older layout, placed in a checkpoint directory
        manifest = manifest.replace("sheafcast-checkpoint-v3", f"sheafcast-checkpoint-{damage}")
    (bad / "checkpoint" / "checkpoint.json").write_text(manifest)
    (bad / "checkpoint" / "field.b2.npy").write_bytes(raw)
    code, err = _refused(capsys, ["forecast", "--checkpoint", bad / "checkpoint",
                                  "--windows", tmp_path / "w.json"], tmp_path / "o")
    assert code == EXIT_MISMATCH
    assert (f"sheafcast-checkpoint-{damage}" if damage in ("v1", "v2") else "sha256") in err, err


def test_a_checkpoint_of_the_old_layout_is_not_found(pipeline, tmp_path, capsys):
    """A `checkpoint.json` and `checkpoint.npz` beside each other, as `train`
    wrote them before a checkpoint was a directory, are not looked for:
    `--checkpoint old/checkpoint` names the missing `checkpoint/checkpoint.json`."""
    old = tmp_path / "old"
    old.mkdir()
    manifest = (pipeline["train"] / "checkpoint" / "checkpoint.json").read_text()
    (old / "checkpoint.json").write_text(
        manifest.replace("sheafcast-checkpoint-v3", "sheafcast-checkpoint-v2"))
    (old / "checkpoint.npz").write_bytes(b"PK\x05\x06" + b"\0" * 18)
    code, err = _refused(capsys, ["forecast", "--checkpoint", old / "checkpoint",
                                  "--windows", tmp_path / "w.json"], tmp_path / "o")
    assert code == EXIT_MISSING
    assert "checkpoint/checkpoint.json" in err, err


# a value of the wrong type under a key checkpoint.json has: (key, entry
# index or None, value)
_MISTYPED_CHECKPOINT = {
    "edge-of-3": ("prior_edges", 0, [0, 1, 2]),
    "edge-of-1": ("prior_edges", 0, [0]),
    "n_nodes-string": ("n_nodes", None, "10"),
    "epoch-null": ("epoch", None, None),
    "sources-int": ("sources", None, 3),
    "trained_on_perturbed-string": ("trained_on_perturbed", None, "no"),
    "prior_meta-list": ("prior_meta", None, []),
}


@pytest.mark.parametrize("fault", ["invalid-json", "no-sha256", "no-n_nodes",
                                   "unknown-model-key", "unknown-ablation",
                                   *_MISTYPED_CHECKPOINT])
def test_malformed_checkpoint_manifest_exits_4(pipeline, tmp_path, capsys, fault):
    src = pipeline["train"]
    bad = tmp_path / "bad"
    shutil.copytree(src / "checkpoint", bad / "checkpoint")
    manifest = json.loads((src / "checkpoint" / "checkpoint.json").read_text())
    if fault == "no-sha256":
        del manifest["sha256"]
    elif fault in _MISTYPED_CHECKPOINT:
        key, index, value = _MISTYPED_CHECKPOINT[fault]
        if index is None:
            manifest[key] = value
        else:
            manifest[key][index] = value
    elif fault == "no-n_nodes":
        del manifest["n_nodes"]
    elif fault == "unknown-model-key":
        manifest["model_config"]["bogus"] = 1
    elif fault == "unknown-ablation":
        manifest["model_config"]["ablation"] = "x"
    text = json.dumps(manifest, sort_keys=True)
    (bad / "checkpoint" / "checkpoint.json").write_text(
        text[:-1] if fault == "invalid-json" else text)
    code, err = _refused(capsys, ["forecast", "--checkpoint", bad / "checkpoint",
                                  "--windows", tmp_path / "w.json"], tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    if fault in _MISTYPED_CHECKPOINT:
        assert f"checkpoint.json is malformed: {_MISTYPED_CHECKPOINT[fault][0]}" in err, err


@pytest.mark.parametrize("fault", ["duplicate edge", "self-loop"])
def test_checkpoint_with_a_bad_edge_exits_4(pipeline, tmp_path, capsys, fault):
    src = pipeline["train"]
    bad = tmp_path / "bad"
    shutil.copytree(src / "checkpoint", bad / "checkpoint")
    manifest = json.loads((src / "checkpoint" / "checkpoint.json").read_text())
    edges = manifest["prior_edges"]
    if fault == "duplicate edge":
        edges[1] = list(edges[0])
    else:
        edges[0] = [edges[0][0], edges[0][0]]
    (bad / "checkpoint" / "checkpoint.json").write_text(json.dumps(manifest, sort_keys=True))
    code, err = _refused(capsys, ["forecast", "--checkpoint", bad / "checkpoint",
                                  "--windows", tmp_path / "w.json"], tmp_path / "o")
    assert code == EXIT_MISMATCH
    assert fault in err, err


@pytest.mark.parametrize("fault", ["membrane_tau must be positive",
                                   "out of range for 10 nodes", "duplicate edge",
                                   "narrower than one 0.1 ms step"])
def test_record_meta_outside_its_domain_exits_4(pipeline, tmp_path, capsys, fault):
    """A record meta, re-pinned, whose params, graph or bin width is outside
    its domain (a negative membrane time constant, an edge to node 500 of
    10, a repeated edge, a bin of 1e-300 ms, narrower than one step) exits
    4 with one stderr line naming the meta, and no `--out`, as a
    checkpoint's bad edge does."""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    path = data / "00000_pre_meta.json"
    meta = json.loads(path.read_text())
    if fault.startswith("membrane_tau"):
        meta["params"]["membrane_tau"] = -1.0
    elif fault.startswith("out of range"):
        meta["edges"][0] = [0, 500]
    elif fault.startswith("narrower"):
        meta["bin_ms"] = 1e-300
    else:
        meta["edges"][1] = list(meta["edges"][0])
    path.write_text(json.dumps(meta))
    _repin(data, path.name)
    code, err = _refused(capsys, ["prior", "--config", pipeline["cfg_path"], "--data", data],
                         tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    assert "00000_pre_meta.json" in err and fault in err, err


@pytest.mark.parametrize("command", ["prior", "perturb-eval"])
def test_record_bin_edges_that_do_not_tile_its_duration_exit_4(pipeline, tmp_path, capsys,
                                                               command):
    """A record's bins must tile its duration. A pre meta, re-pinned, whose
    30 ms bins do not divide its 1600 ms exits 4 with one stderr line
    naming the meta. (Its meta held every bin edge, which had to be the
    bins of its duration at the width of the first: edges doubled were
    read as the same 160 bins, writing the same `prior.csv` with exit 0.)"""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    path = data / "00000_pre_meta.json"
    meta = json.loads(path.read_text())
    meta["bin_ms"] = 30.0
    path.write_text(json.dumps(meta))
    _repin(data, path.name)
    extra = {"prior": [], "perturb-eval": ["--checkpoint", pipeline["train"] / "checkpoint"]}
    code, err = _refused(capsys, [command, "--config", pipeline["cfg_path"], "--data", data,
                                  *extra[command]], tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    assert err.splitlines() == ["artifact mismatch: 00000_pre_meta.json is outside its domain: "
                                "duration_ms must be a multiple of bin_ms"], err


@pytest.mark.parametrize("fault", ["no-perturbation", "swapped-posts"])
def test_a_post_record_that_is_not_its_pre_perturbed_exits_4(pipeline, tmp_path, capsys,
                                                              fault):
    """`perturb-eval` places each window at the onset its post record's own
    meta gives, after its pre record's context. A post meta, re-pinned,
    that holds no perturbation, or a dataset manifest that pairs each pre
    record with another instance's post record (which used to score other
    windows with exit 0), is refused."""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    if fault == "no-perturbation":
        path = data / "00000_post_meta.json"
        meta = json.loads(path.read_text())
        meta["perturbation"] = None
        path.write_text(json.dumps(meta))
        _repin(data, path.name)
    else:
        path = data / "dataset_manifest.json"
        dataset = json.loads(path.read_text())
        posts = [entry["post"] for entry in dataset["instances"]]
        for entry, post in zip(dataset["instances"], posts[1:] + posts[:1]):
            entry["post"] = post
        path.write_text(json.dumps(dataset))
    code, err = _refused(capsys, ["perturb-eval", "--config", pipeline["cfg_path"],
                                  "--checkpoint", pipeline["train"] / "checkpoint",
                                  "--data", data], tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    post = "00000_post" if fault == "no-perturbation" else "00001_post"
    assert f"pairs 00000_pre with {post}, not a perturbed run" in err, err


def test_threads_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["prior", "--threads", "2", "--seed", "1",
              "--data", str(tmp_path), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"], ["--seed", "7"]],
                         ids=["config", "seed"])
@pytest.mark.parametrize("command", [
    ["forecast", "--checkpoint", "ck", "--windows", "w.json"],
    ["metrics", "--forecasts", "f", "--targets", "t"],
], ids=["forecast", "metrics"])
def test_commands_without_a_config_refuse_config_and_seed(command, flag, tmp_path):
    # forecast and metrics read no config, so a --config or --seed given to
    # them would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(command + flag + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_schema_violations_exit_2(tmp_path):
    bad = {"seed": 1, "simulate": {"banana": 3}}
    path = _write_config(tmp_path, bad)
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    missing_seed = {"simulate": {}}
    path2 = _write_config(tmp_path, missing_seed, "c2.json")
    assert main(["simulate", "--config", str(path2),
                 "--out", str(tmp_path / "o2")]) == EXIT_CONFIG


def test_forecast_refuses_a_tampered_window_set(pipeline, tmp_path, capsys):
    """The windows manifest is the unpinned root that vouches for every byte
    `forecast` reads: an entry whose sizes do not fit its block, or are
    below 1, is refused as an artifact mismatch (exit 4), the block being
    read at the (n_nodes, t_ctx + t_hor) shape its entry gives."""
    from sheafcast.data import save_windows

    windows = _windows_of(pipeline, "00000_pre")
    tampers = [("t_ctx", 40), ("t_ctx", 35), ("n_nodes", 9), ("n_nodes", 0), ("t_hor", 0),
               ("t_ctx", 31)]
    for i, (key, value) in enumerate(tampers):
        manifest = save_windows(tmp_path / f"w{i}", windows)
        listing = json.loads(manifest.read_text())
        listing["windows"][1][key] = value
        manifest.write_text(json.dumps(listing))
        code, err = _refused(capsys, ["forecast", "--checkpoint", pipeline["train"] / "checkpoint",
                                      "--windows", manifest], tmp_path / f"fc{i}")
        assert code == EXIT_MISMATCH, (key, value, err)
        assert "windows_00001.npy" in err, err


def _windows_of(pipeline, stem, stride=40):
    from sheafcast.data import make_windows
    from sheafcast.neurosim import load_record

    return make_windows(load_record(pipeline["sim"], stem).rates, 30, 10, stride,
                        source_id=stem)


_FAULTS = ["byte", "truncated", "removed", "swapped"]
_RECORD_FILES = ["rates.npy", "meta.json"]


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("command, name", [
    *[(c, f"00000_pre_{f}") for c in ("prior", "train", "perturb-eval")
      for f in _RECORD_FILES],
    *[("perturb-eval", f"00000_post_{f}") for f in _RECORD_FILES],
    ("forecast", "windows_00001.npy"),
    *[(c, "checkpoint/sheaf.rho_src.npy") for c in ("forecast", "perturb-eval")],
])
def test_a_faulty_pinned_file_exits_3_or_4(pipeline, tmp_path, capsys, command, name, fault):
    """Each file a manifest pins and the command reads, with one byte
    changed, truncated, removed or swapped for another run's file (the same
    file of the next instance, of another window set or of another
    checkpoint): the command exits 3 (removed) or 4, with one stderr line
    and no `--out` left behind."""
    from sheafcast.data import save_windows

    ck = pipeline["train"] / "checkpoint"
    if command == "forecast":
        data = save_windows(tmp_path / "w", _windows_of(pipeline, "00000_pre")).parent
        other = save_windows(tmp_path / "w2", _windows_of(pipeline, "00001_pre")).parent
        swap = other / name
    else:
        data = tmp_path / "sim"
        shutil.copytree(pipeline["sim"], data)
        swap = data / name.replace("00000", "00001")
    target = data / name
    if name.startswith("checkpoint/"):
        other = load_checkpoint(ck)
        other.arrays["sheaf.rho_src"] = other.arrays["sheaf.rho_src"] + 1.0
        save_checkpoint(other, tmp_path / "other" / "checkpoint")
        shutil.copytree(ck, tmp_path / "train" / "checkpoint")
        ck, target = tmp_path / "train" / "checkpoint", tmp_path / "train" / name
        swap = tmp_path / "other" / name
    raw = target.read_bytes()
    if fault == "byte":
        target.write_bytes(raw[:len(raw) // 2] + bytes([raw[len(raw) // 2] ^ 1])
                           + raw[len(raw) // 2 + 1:])
    elif fault == "truncated":
        target.write_bytes(raw[:len(raw) // 2])
    elif fault == "removed":
        target.unlink()
    else:
        assert swap.read_bytes() != raw
        target.write_bytes(swap.read_bytes())
    argv = {"prior": ["prior", "--config", pipeline["cfg_path"], "--data", data],
            "train": ["train", "--config", pipeline["cfg_path"], "--data", data,
                      "--prior", pipeline["prior"] / "prior.csv"],
            "perturb-eval": ["perturb-eval", "--config", pipeline["cfg_path"],
                             "--checkpoint", ck, "--data", data],
            "forecast": ["forecast", "--checkpoint", ck,
                         "--windows", data / "windows_manifest.json"]}[command]
    code, err = _refused(capsys, argv, tmp_path / "o")
    assert code == (EXIT_MISSING if fault == "removed" else EXIT_MISMATCH), err
    assert Path(name).name in err, err


def test_one_changed_rate_exits_4_instead_of_another_prior(pipeline, tmp_path, capsys):
    """One value of a pinned rates file changed, the file still well formed:
    `prior` refuses it, where it used to write a different `prior.csv` under
    a byte-identical `manifest_prior.json`."""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    path = data / "00000_pre_rates.npy"
    rates = np.load(path)
    rates[5, 3] += 1.0
    np.save(path, rates)
    code, err = _refused(capsys, ["prior", "--config", pipeline["cfg_path"], "--data", data],
                         tmp_path / "o")
    assert code == EXIT_MISMATCH
    assert "00000_pre_rates.npy" in err, err


def _metrics_of_copy(chain, tmp_path):
    """A copy of the fixture chain's `forecast` output, and the `metrics`
    argv (without `--out`) that scores it."""
    fc = tmp_path / "fc"
    shutil.copytree(chain["forecast"][1], fc)
    return fc, ["metrics", "--forecasts", fc / "forecasts", "--targets", fc / "targets"]


@pytest.mark.parametrize("fault", ["changed-target", "changed-forecast", "removed-target",
                                   "no-manifest", "unpinned-entry"])
def test_a_faulty_forecast_set_exits_3_or_4(chain, tmp_path, capsys, fault):
    """`metrics` scores only the pairs `forecasts_manifest.json` pins. One
    changed target value (which used to shift the fixture's mse with exit
    0), one changed forecast value, or an entry naming a file the manifest
    does not pin exits 4; a removed target or manifest exits 3. Each prints
    one stderr line naming the file and leaves no `--out`."""
    fc, argv = _metrics_of_copy(chain, tmp_path)
    forecasts, targets = fc / "forecasts", fc / "targets"
    listing = forecasts / "forecasts_manifest.json"
    if fault == "changed-target":
        name = "00001.npy"
        rates = np.load(targets / name)
        rates[2, 3] += 1.0
        np.save(targets / name, rates)
    elif fault == "changed-forecast":
        name = "00001.csv"
        header, first, *rest = (forecasts / name).read_text().splitlines()
        changed = "0" + first[first.index(","):]
        assert changed != first
        (forecasts / name).write_text("\n".join([header, changed, *rest]) + "\n")
    elif fault == "removed-target":
        name = "00001.npy"
        (targets / name).unlink()
    elif fault == "no-manifest":
        name = listing.name
        listing.unlink()
    else:
        name = "extra.csv"
        shutil.copy(forecasts / "00001.csv", forecasts / name)
        manifest = json.loads(listing.read_text())
        manifest["forecasts"][1]["forecast"] = name
        listing.write_text(json.dumps(manifest))
    code, err = _refused(capsys, argv, tmp_path / "o")
    missing = fault in ("removed-target", "no-manifest")
    assert code == (EXIT_MISSING if missing else EXIT_MISMATCH), err
    assert name in err, err


def test_an_unpinned_extra_pair_is_not_scored(chain, tmp_path):
    """A forecast and a target beside the pinned ones, but not in
    `forecasts_manifest.json`, leave `metric_report.json` byte-identical."""
    fc, argv = _metrics_of_copy(chain, tmp_path)
    (fc / "forecasts" / "99999.csv").write_text("n0\n1e9\n")
    np.save(fc / "targets" / "99999.npy", np.zeros((1, 1)))
    assert main([str(a) for a in argv + ["--out", tmp_path / "o"]]) == EXIT_OK
    report = (tmp_path / "o" / "metric_report.json").read_bytes()
    assert report == (chain["metrics"][1] / "metric_report.json").read_bytes()


def _artifact_copy(kind, pipeline, chain, tmp_path):
    """A copy of one artifact of the fixture chain: the directory of one of
    its pinned `.npy` files, that file's name, the manifest that pins it,
    and the argv (without `--out`) of a command that reads it."""
    from sheafcast.data import save_windows

    if kind == "record-rates":
        data = tmp_path / "sim"
        shutil.copytree(pipeline["sim"], data)
        return (data, "00000_pre_rates.npy", data / "dataset_manifest.json",
                ["prior", "--config", pipeline["cfg_path"], "--data", data])
    if kind == "forecast-target":
        fc, argv = _metrics_of_copy(chain, tmp_path)
        return fc / "targets", "00001.npy", fc / "forecasts" / FORECASTS_MANIFEST, argv
    windows = save_windows(tmp_path / "w", _windows_of(pipeline, "00000_pre"))
    if kind == "window-block":
        return (windows.parent, "windows_00001.npy", windows,
                ["forecast", "--checkpoint", pipeline["train"] / "checkpoint",
                 "--windows", windows])
    ck = tmp_path / "train" / "checkpoint"
    shutil.copytree(pipeline["train"] / "checkpoint", ck)
    return (ck, "sheaf.rho_src.npy", ck / "checkpoint.json",
            ["forecast", "--checkpoint", ck, "--windows", windows])


_ARTIFACT_KINDS = ["checkpoint-array", "window-block", "forecast-target", "record-rates"]


def _npy_bytes(array, **kwargs):
    buffer = io.BytesIO()
    np.save(buffer, array, **kwargs)
    return buffer.getvalue()


def _zip_bytes():
    buffer = io.BytesIO()
    np.savez(buffer, a=np.zeros((3, 2)))
    return buffer.getvalue()


# bytes that are not the `.npy` of a C-ordered float64 array, given the
# pinned file's own bytes
_NOT_NPY = {
    "empty": lambda raw: b"",
    "text": lambda raw: b"not an array\n",
    "truncated-header": lambda raw: raw[:40],
    "truncated-data": lambda raw: raw[:-8],
    "zip": lambda raw: _zip_bytes(),
    "pickled-objects": lambda raw: _npy_bytes(np.array([{"a": 1}], dtype=object),
                                              allow_pickle=True),
}
_LAYOUTS = {
    "fortran": lambda raw: _npy_bytes(np.zeros((2, 3)).T),
    "float32": lambda raw: _npy_bytes(np.zeros((3, 2), dtype=np.float32)),
    "big-endian": lambda raw: _npy_bytes(np.zeros((3, 2), dtype=">f8")),
    "ints": lambda raw: _npy_bytes(np.zeros((3, 2), dtype=int)),
}
# C-ordered float64 `.npy` files of the pinned block's values in a shape
# other than the (nodes, bins) its manifest or meta gives
_SHAPES = {
    "1-d": lambda raw: _npy_bytes(np.load(io.BytesIO(raw)).ravel()),
    "3-d": lambda raw: _npy_bytes(np.load(io.BytesIO(raw))[None]),
    "transposed": lambda raw: _npy_bytes(np.ascontiguousarray(np.load(io.BytesIO(raw)).T)),
    "one-bin-short": lambda raw: _npy_bytes(np.load(io.BytesIO(raw))[:, :-1]),
}


def _first_value_set(raw, value):
    array = np.load(io.BytesIO(raw)).copy()
    array.flat[0] = value
    return _npy_bytes(array)


# the pinned array, its first value made NaN or an infinity
_NOT_FINITE_CONTENT = {name: lambda raw, value=value: _first_value_set(raw, value)
                       for name, value in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]}


@pytest.mark.parametrize("kind, content", [
    *[(k, c) for k in _ARTIFACT_KINDS for c in _NOT_NPY],
    *[(k, c) for k in _ARTIFACT_KINDS if k != "checkpoint-array" for c in _LAYOUTS],
    # the fixture's targets are 10 bins by 10 nodes, so a transposed one
    # has the shape its entry gives
    *[(k, c) for k in _ARTIFACT_KINDS if k != "checkpoint-array" for c in _SHAPES
      if (k, c) != ("forecast-target", "transposed")],
    *[(k, c) for k in _ARTIFACT_KINDS for c in _NOT_FINITE_CONTENT]])
def test_a_repinned_file_that_is_not_a_float64_npy_exits_4(pipeline, chain, tmp_path, capsys,
                                                           kind, content):
    """A pinned array file replaced by bytes that are not the `.npy` of a
    C-ordered float64 array, of one whose shape is not the (nodes, bins)
    its manifest or record meta gives, or of one holding NaN or an infinity
    (which exited 5, with numpy warnings before the line for record rates
    and naming no file), and pinned again, so only the one `.npy` reader
    (`artifacts.read_array`) can refuse it: exit 4 with one stderr line
    naming the file, for every kind of array file. (The layouts of a
    checkpoint array are in `test_training.py`; its shapes are checked
    against its model.)"""
    base, name, manifest, argv = _artifact_copy(kind, pipeline, chain, tmp_path)
    raw = (base / name).read_bytes()
    new = {**_NOT_NPY, **_LAYOUTS, **_SHAPES, **_NOT_FINITE_CONTENT}[content](raw)
    (base / name).write_bytes(new)
    text = manifest.read_text()
    old_digest = hashlib.sha256(raw).hexdigest()
    assert text.count(old_digest) == 1
    manifest.write_text(text.replace(old_digest, hashlib.sha256(new).hexdigest()))
    code, err = _refused(capsys, argv, tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    assert name in err, err


_UNPRINTABLE = {"nul": "\0", "newline": "\n"}


@pytest.mark.parametrize("kind, form", [
    *[(k, "outside") for k in _ARTIFACT_KINDS],
    *[(k, f) for k in _ARTIFACT_KINDS for f in _UNPRINTABLE]],
    ids=[*_ARTIFACT_KINDS, *[f"{k}-{f}" for k in _ARTIFACT_KINDS for f in _UNPRINTABLE]])
def test_a_pinned_name_outside_its_artifact_exits_4(pipeline, chain, tmp_path, capsys,
                                                    kind, form):
    """A manifest that names and pins a file outside its artifact's
    directory, with the right digest, or a name that is not printable (the
    file's name and a NUL or a newline), is refused before any file is
    read: every read stays inside the artifact, and a NUL no longer reaches
    `open`. (A record's files are named by its stem, so both move.)"""
    base, name, manifest, argv = _artifact_copy(kind, pipeline, chain, tmp_path)
    prefix = "00000_pre" if kind == "record-rates" else name
    if form == "outside":
        outside = base.parent / "outside"
        outside.mkdir()
        for path in base.glob(prefix + "*"):
            path.rename(outside / path.name)
        named = f"../outside/{prefix}"
    else:
        named = prefix + _UNPRINTABLE[form]
    manifest.write_text(manifest.read_text().replace(f'"{prefix}', json.dumps(named)[:-1]))
    code, err = _refused(capsys, argv, tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    assert f"{manifest.name} names {named!r}"[:-1] in err, err


@pytest.mark.parametrize("name", ["", ".", "..", "sub/a.npy", "absolute"])
def test_check_pinned_takes_only_a_plain_file_name(tmp_path, name):
    """Refused before anything is read, even when the digest is right."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.npy").write_bytes(b"x")
    if name == "absolute":
        name = str(tmp_path / "sub" / "a.npy")
    with pytest.raises(ArtifactMismatchError, match="m.json names"):
        check_pinned(tmp_path, name, {name: file_hash(tmp_path / "sub" / "a.npy")}, "m.json")


@pytest.mark.parametrize("version", ["v2", "v3", "v4", "v5"])
def test_an_older_dataset_exits_4_naming_its_format(pipeline, tmp_path, capsys, version):
    """A dataset of the layout before record metas held their edges (v2, a
    `<stem>_adjacency.csv` per record), before they were the one place of
    every record fact (v3, whose manifest repeated each record's node
    count, bin width, seed and perturbation), before rates were stored as
    the (nodes, bins) block a record holds (v4, time-major), or before a
    meta held its bin width in place of every bin edge (v5), is refused,
    not read."""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    dataset = json.loads((data / "dataset_manifest.json").read_text())
    dataset["format"] = f"sheafcast-dataset-{version}"
    (data / "dataset_manifest.json").write_text(json.dumps(dataset))
    code, err = _refused(capsys, ["prior", "--config", pipeline["cfg_path"], "--data", data],
                         tmp_path / "p")
    assert code == EXIT_MISMATCH
    assert f"sheafcast-dataset-{version}" in err and "run simulate again" in err, err


@pytest.mark.parametrize("command, flag, old", [
    ("forecast", "--windows", "sheafcast-windows-v3"),
    ("forecast", "--windows", "sheafcast-windows-v4"),
    ("metrics", "--forecasts", "sheafcast-forecasts-v1")])
def test_an_older_window_or_forecast_set_exits_4_naming_its_format(chain, tmp_path, capsys,
                                                                    command, flag, old):
    """A window set or forecast set of time-major blocks (windows v3,
    forecasts v1) is refused, not read: a square block, such as the
    fixture's 10-node, 10-bin targets, would pass the shape check
    transposed. So is a window set whose entries gave each window's node
    count as the length of its normalization statistics (windows v4)."""
    argv, _ = chain[command]
    at = argv.index(flag) + 1
    given = Path(argv[at])         # the windows manifest, or the forecasts directory
    copy = tmp_path / "copy"
    shutil.copytree(given.parent if given.is_file() else given, copy)
    manifest = copy / (given.name if given.is_file() else FORECASTS_MANIFEST)
    listing = json.loads(manifest.read_text())
    listing["format"] = old
    manifest.write_text(json.dumps(listing))
    code, err = _refused(capsys, [*argv[:at], manifest if given.is_file() else copy,
                                  *argv[at + 1:]], tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    assert old in err, err


def test_csv_datasets_and_window_sets_exit_4_naming_the_format(pipeline, tmp_path, capsys):
    """A dataset and a window set in the CSV layout of earlier versions
    (`<stem>_rates.csv` and `windows_<i>.csv`, no format key, no pins)."""
    data = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], data)
    for path in data.glob("*_rates.npy"):
        save_rates_csv(path.with_suffix(".csv"), np.load(path))
        path.unlink()
    dataset = json.loads((data / "dataset_manifest.json").read_text())
    del dataset["format"], dataset["sha256"]
    (data / "dataset_manifest.json").write_text(json.dumps(dataset))
    code, err = _refused(capsys, ["prior", "--config", pipeline["cfg_path"], "--data", data],
                         tmp_path / "p")
    assert code == EXIT_MISMATCH and "CSV" in err, err

    window = _windows_of(pipeline, "00000_pre")[0]
    old = tmp_path / "w"
    old.mkdir()
    save_rates_csv(old / "windows_00000.csv",
                   np.concatenate([window.context, window.horizon], axis=1))
    (old / "windows_00000.json").write_text(json.dumps({
        "source_id": window.source_id, "t_ctx": 30, "t_hor": 10, "time_step": 1.0,
        "norm_mean": [0.0] * 10, "norm_std": [1.0] * 10, "perturbation_onset_index": None}))
    (old / "windows_manifest.json").write_text(json.dumps(
        {"windows": [{"window": "windows_00000.csv", "meta": "windows_00000.json"}]}))
    code, err = _refused(capsys, ["forecast", "--checkpoint", pipeline["train"] / "checkpoint",
                                  "--windows", old / "windows_manifest.json"], tmp_path / "fc")
    assert code == EXIT_MISMATCH and "CSV" in err, err


_MALFORMED = {"invalid-json": "{not json", "array": "[1, 2]",
              "other-format": '{"format": "other"}'}


@pytest.mark.parametrize("content", list(_MALFORMED.values()), ids=list(_MALFORMED))
@pytest.mark.parametrize("name", ["dataset_manifest.json", "windows_manifest.json",
                                  "checkpoint.json", "forecasts_manifest.json"])
def test_a_malformed_manifest_exits_4(pipeline, chain, tmp_path, capsys, name, content):
    """A dataset manifest (read by `prior`), a windows manifest or a
    checkpoint's JSON (read by `forecast`), or a forecast-set manifest (read
    by `metrics`) that is not valid JSON, not an object, or of another
    format: exit 4, one stderr line naming the file, and no `--out`."""
    from sheafcast.data import save_windows

    if name == "forecasts_manifest.json":
        fc, argv = _metrics_of_copy(chain, tmp_path)
        target = fc / "forecasts" / name
    elif name == "dataset_manifest.json":
        data = tmp_path / "sim"
        shutil.copytree(pipeline["sim"], data)
        argv, target = ["prior", "--config", pipeline["cfg_path"], "--data", data], data / name
    else:
        windows = save_windows(tmp_path / "w", _windows_of(pipeline, "00000_pre"))
        ck = tmp_path / "ck"
        shutil.copytree(pipeline["train"] / "checkpoint", ck / "checkpoint")
        argv = ["forecast", "--checkpoint", ck / "checkpoint", "--windows", windows]
        target = windows if name == "windows_manifest.json" else ck / "checkpoint" / name
    target.write_text(content)
    code, err = _refused(capsys, argv, tmp_path / "o")
    assert code == EXIT_MISMATCH and name in err, err


_DROP = object()
# (manifest, path of keys to the damaged value, new value or _DROP); the
# dataset's `n_nodes`, `bin_ms` and `instances[0].perturbation` are keys of
# its v3 manifest that v4 refuses as unknown (each record's meta holds them)
_MALFORMED_KEYS = [
    ("dataset_manifest.json", ("instances",), _DROP),
    ("dataset_manifest.json", ("n_nodes",), "10"),
    ("dataset_manifest.json", ("bin_ms",), None),
    ("dataset_manifest.json", ("sha256",), ["00000_pre_rates.npy"]),
    ("dataset_manifest.json", ("instances", 0, "pre"), 0),
    ("dataset_manifest.json", ("instances", 0, "post"), True),
    ("dataset_manifest.json", ("instances", 0, "perturbation"), None),
    ("windows_manifest.json", ("windows",), _DROP),
    ("windows_manifest.json", ("windows", 0, "t_ctx"), _DROP),
    ("windows_manifest.json", ("windows", 0, "t_ctx"), "30"),
    ("windows_manifest.json", ("windows", 1, "n_nodes"), "10"),
    ("windows_manifest.json", ("sha256",), ["windows_00000.npy"]),
    ("forecasts_manifest.json", ("forecasts",), _DROP),
    ("forecasts_manifest.json", ("forecasts", 0, "t_hor"), "10"),
    ("forecasts_manifest.json", ("forecasts", 0, "unknown"), 1),
    ("forecasts_manifest.json", ("sha256",), ["00000.csv"]),
    ("00000_pre_meta.json", ("edges",), _DROP),
    ("00000_pre_meta.json", ("params",), _DROP),
    ("00000_pre_meta.json", ("bin_ms",), _DROP),
    ("00000_pre_meta.json", ("params", "dt_ms"), "0.1"),
]


@pytest.mark.parametrize("name, keys, value", _MALFORMED_KEYS, ids=[
    f"{n.split('_')[0]}-{'.'.join(map(str, k))}-{'drop' if v is _DROP else repr(v)}"
    for n, k, v in _MALFORMED_KEYS])
def test_a_manifest_with_a_missing_or_mistyped_key_exits_4(pipeline, chain, tmp_path, capsys,
                                                           name, keys, value):
    """A dataset, windows or forecast-set manifest of the right format, or a
    record meta (re-pinned, so that only its own check can refuse it), with
    a key missing, unknown or of the wrong type is refused before anything
    reads it: exit 4 and one stderr line naming the file, where a bare
    KeyError, TypeError or AttributeError used to exit 5, and no `--out`."""
    from sheafcast.data import save_windows

    if name in ("dataset_manifest.json", "00000_pre_meta.json"):
        data = tmp_path / "sim"
        shutil.copytree(pipeline["sim"], data)
        argv, path = ["prior", "--config", pipeline["cfg_path"], "--data", data], data / name
    elif name == "windows_manifest.json":
        path = save_windows(tmp_path / "w", _windows_of(pipeline, "00000_pre"))
        argv = ["forecast", "--checkpoint", pipeline["train"] / "checkpoint", "--windows", path]
    else:
        fc, argv = _metrics_of_copy(chain, tmp_path)
        path = fc / "forecasts" / name
    manifest = json.loads(path.read_text())
    parent = manifest
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    path.write_text(json.dumps(manifest))
    if name.endswith("_meta.json"):
        _repin(data, name)
    code, err = _refused(capsys, argv, tmp_path / "o")
    assert code == EXIT_MISMATCH and name in err, err
    assert str(keys[-1]) in err, err      # the key, or the path it ends


# Python's `json` decodes these literals to floats that are not finite
_NOT_FINITE = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}
# (file, path of keys to a number in it, the kind of `_artifact_copy` that holds it)
_FINITE_NUMBERS = [
    ("00000_pre_meta.json", ("params", "membrane_tau"), "record-rates"),
    ("checkpoint.json", ("val_loss",), "checkpoint-array"),
    ("checkpoint.json", ("prior_scores", 0), "checkpoint-array"),
    ("windows_manifest.json", ("windows", 0, "time_step"), "window-block"),
]


@pytest.mark.parametrize("literal", list(_NOT_FINITE))
@pytest.mark.parametrize("name, keys, kind", _FINITE_NUMBERS, ids=[
    f"{n.split('_')[0].removesuffix('.json')}-{'.'.join(map(str, k))}"
    for n, k, _ in _FINITE_NUMBERS])
def test_a_number_that_is_not_finite_in_an_artifact_exits_4(pipeline, chain, tmp_path, capsys,
                                                             name, keys, kind, literal):
    """A record meta (re-pinned), a `checkpoint.json` or a windows manifest
    holding `NaN`, `Infinity` or `-Infinity` where a number belongs is
    malformed: exit 4 and one stderr line naming the file and the key path
    (a record's `membrane_tau` of `Infinity` made `prior` exit 0)."""
    base, _, _, argv = _artifact_copy(kind, pipeline, chain, tmp_path)
    path = base / name
    manifest = json.loads(path.read_text())
    parent = manifest
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = _NOT_FINITE[literal]
    path.write_text(json.dumps(manifest))
    assert literal in path.read_text()
    if name.endswith("_meta.json"):
        _repin(base, name)
    code, err = _refused(capsys, argv, tmp_path / "o")
    assert code == EXIT_MISMATCH, err
    at = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")
    assert err.splitlines() == [f"artifact mismatch: {name} is malformed: {at} is "
                                f"{_NOT_FINITE[literal]}, not a finite number"], err


@pytest.mark.parametrize("command", [
    ["simulate", "--seed", "1"], ["prior", "--seed", "1", "--data", "nowhere"],
    ["train", "--seed", "1", "--data", "nowhere", "--prior", "nowhere.csv"],
    ["perturb-eval", "--seed", "1", "--checkpoint", "nowhere", "--data", "nowhere"],
    ["forecast", "--checkpoint", "nowhere", "--windows", "nowhere.json"],
    ["metrics", "--forecasts", "nowhere", "--targets", "nowhere"],
], ids=lambda c: c[0])
def test_every_command_refuses_a_used_out_before_any_work(tmp_path, capsys, command):
    # missing inputs would exit 3: the refusal comes first
    used = tmp_path / "used"
    used.mkdir()
    (used / "keep.txt").write_text("kept")
    assert _refused(capsys, command, used)[0] == EXIT_RUNTIME
    assert [p.name for p in used.iterdir()] == ["keep.txt"]
    assert (used / "keep.txt").read_text() == "kept"


def test_a_second_forecast_into_the_same_out_leaves_the_first(pipeline, tmp_path, capsys):
    """13 windows forecast, then 2 into the same `--out`: the second exits
    5 before writing, so no stale forecast of the first run sits beside
    files of the second, and `metrics` still scores the 13."""
    from sheafcast.data import save_windows

    windows = _windows_of(pipeline, "00000_pre", stride=10)
    assert len(windows) == 13
    ck, fc = pipeline["train"] / "checkpoint", tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(ck), "--windows",
                 str(save_windows(tmp_path / "w13", windows)), "--out", str(fc)]) == EXIT_OK
    first = {p: p.read_bytes() for p in fc.rglob("*") if p.is_file()}
    assert _refused(capsys, ["forecast", "--checkpoint", ck, "--windows",
                             save_windows(tmp_path / "w2", windows[:2])], fc)[0] == EXIT_RUNTIME
    assert {p: p.read_bytes() for p in fc.rglob("*") if p.is_file()} == first
    assert main(["metrics", "--forecasts", str(fc / "forecasts"),
                 "--targets", str(fc / "targets"), "--out", str(tmp_path / "m")]) == EXIT_OK
    assert json.loads((tmp_path / "m" / "metric_report.json").read_text())["n_windows"] == 13


@pytest.fixture(scope="module")
def chain(pipeline):
    """The argv (without `--out`) and the `--out` of each of the six
    commands of the fixture chain, after running the three that the
    pipeline fixture does not."""
    from sheafcast.data import save_windows

    root, ck = pipeline["root"], pipeline["train"] / "checkpoint"
    windows = save_windows(root / "windows", _windows_of(pipeline, "00000_pre"))
    argv = {
        "simulate": ["simulate", "--config", pipeline["cfg_path"]],
        "prior": ["prior", "--config", pipeline["cfg_path"], "--data", pipeline["sim"]],
        "train": ["train", "--config", pipeline["cfg_path"], "--data", pipeline["sim"],
                  "--prior", pipeline["prior"] / "prior.csv"],
        "perturb-eval": ["perturb-eval", "--config", pipeline["cfg_path"],
                         "--checkpoint", ck, "--data", pipeline["sim"]],
        "forecast": ["forecast", "--checkpoint", ck, "--windows", windows],
        "metrics": ["metrics", "--forecasts", root / "fc" / "forecasts",
                    "--targets", root / "fc" / "targets"],
    }
    out = {"simulate": pipeline["sim"], "prior": pipeline["prior"],
           "train": pipeline["train"], "perturb-eval": root / "ood",
           "forecast": root / "fc", "metrics": root / "metrics"}
    for command in ("perturb-eval", "forecast", "metrics"):
        assert main([str(a) for a in argv[command] + ["--out", out[command]]]) == EXIT_OK
    return {c: (argv[c], out[c]) for c in argv}


def test_metrics_scores_what_evaluate_scores_in_memory(pipeline, chain):
    """`metrics` on the forecast set `forecast` wrote writes the report
    `evaluate` gives on the same checkpoint's forecasts of the same windows
    in memory: a target read from disk is the horizon block the window
    held, and a forecast CSV holds every bit of its forecast."""
    from sheafcast.metrics import evaluate
    from sheafcast.training import forecast_windows

    model = load_checkpoint(pipeline["train"] / "checkpoint").take_model()
    report = evaluate(*forecast_windows(model, _windows_of(pipeline, "00000_pre")))
    written = json.loads((chain["metrics"][1] / "metric_report.json").read_text())
    assert written == json.loads(json.dumps(report.to_dict()))


_COMMANDS = ["simulate", "prior", "train", "perturb-eval", "forecast", "metrics"]


def _files_under(out):
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def test_every_out_holds_exactly_its_manifest_outputs(chain):
    for command, (_, out) in chain.items():
        listed = json.loads((out / f"manifest_{command}.json").read_text())["outputs"]
        assert _files_under(out) == sorted(listed + [f"manifest_{command}.json"]), command
    # `forecasts/` holds the forecast CSVs and the manifest that pins them
    forecasts = _files_under(chain["forecast"][1] / "forecasts")
    assert forecasts == ["00000.csv", "00001.csv", "00002.csv", "00003.csv",
                         "forecasts_manifest.json"], forecasts


def _siblings(out):
    return sorted(out.parent.glob(f".{out.name}.*"))


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_failed_write_leaves_out_as_it_was(chain, tmp_path, capsys, monkeypatch, command):
    """The k-th file opened for writing cannot be written, for the first,
    second, middle and last write (the manifest), then the rename onto
    `--out` raises: each run exits 5 with one line, leaves an absent
    `--out` absent and an empty one empty, and leaves no staged sibling; a
    rerun into the same `--out` succeeds."""
    argv, real_open = chain[command][0], builtins.open
    writes, fail_at, broken = [], [None], set()

    def faulty_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            writes.append(file)
            if len(writes) == fail_at[0]:
                broken.add(os.fspath(file))
            if os.fspath(file) in broken:       # zipfile retries a failed open
                raise OSError(f"injected fault on write {len(writes)}")
        return real_open(file, mode, *args, **kwargs)

    def faulty_replace(*args):
        raise OSError("injected fault on rename")

    def run(out, fault=None):
        writes.clear()
        broken.clear()
        fail_at[0] = fault
        with monkeypatch.context() as m:
            m.setattr(builtins, "open", faulty_open)
            m.setattr(io, "open", faulty_open)
            if fault == "rename":
                m.setattr(os, "replace", faulty_replace)
            if fault is None:
                return main([str(a) for a in argv + ["--out", out]])
            return _refused(capsys, argv, out)[0]

    assert run(tmp_path / "counted") == EXIT_OK
    n_writes = len(writes)
    out = tmp_path / "o"
    for i, fault in enumerate(sorted({1, 2, n_writes // 2, n_writes}) + ["rename"]):
        existed = i % 2 == 1
        if existed:
            out.mkdir()
        assert run(out, fault) == EXIT_RUNTIME, fault
        assert out.exists() == existed and (not existed or not any(out.iterdir())), fault
        assert _siblings(out) == [], fault
        if existed:
            out.rmdir()
    assert run(out) == EXIT_OK
    assert _files_under(out) == _files_under(tmp_path / "counted")
    assert _siblings(out) == []


def test_an_existing_empty_out_and_a_nested_new_out_both_work(tmp_path):
    """`--out` may be an empty directory, a symlink to one, or a path whose
    parents do not exist yet; each ends up with a directory's usual mode,
    not the 0700 of a temporary directory."""
    cfg_path = _write_config(tmp_path, _fast_config(count=0))
    (tmp_path / "empty").mkdir()
    (tmp_path / "reference").mkdir()
    (tmp_path / "target").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "target")
    for out in (tmp_path / "empty", tmp_path / "a" / "b" / "c", tmp_path / "link"):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert _files_under(out) == ["dataset_manifest.json", "manifest_simulate.json"]
        assert out.stat().st_mode == (tmp_path / "reference").stat().st_mode
        assert _siblings(out) == [] and _siblings(out.resolve()) == []
    assert (tmp_path / "link").is_symlink()


def test_the_working_directory_is_refused_as_out(tmp_path, capsys, monkeypatch):
    """Renaming the staged directory onto the working directory would leave
    the caller in a deleted directory, so an empty `--out .` exits 5."""
    monkeypatch.chdir(tmp_path)
    assert _refused(capsys, ["simulate", "--seed", "1"], ".")[0] == EXIT_RUNTIME
    assert list(tmp_path.iterdir()) == []


def _run_cli_process(*argv):
    env = {**os.environ,
           "PYTHONPATH": str(Path(sheafcast.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "sheafcast.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, check=False)


def test_the_entry_point_exits_2_on_a_negative_seed_and_0_on_a_fixture_simulate(tmp_path):
    out = tmp_path / "sim"
    run = _run_cli_process("simulate", "--seed", "-1", "--out", out)
    assert run.returncode == EXIT_CONFIG, run.stderr
    assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr, run.stderr
    assert not out.exists() and _siblings(out) == []

    cfg_path = _write_config(tmp_path, _fast_config(count=1))
    run = _run_cli_process("simulate", "--config", cfg_path, "--out", out)
    assert run.returncode == EXIT_OK, run.stderr
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    assert _files_under(out) == sorted(manifest["outputs"] + ["manifest_simulate.json"])


# one out-of-domain value per case: (keys into the config, value)
BAD_VALUES = [
    (("train", "lr"), -1.0),
    (("model", "stalk_dim"), 0), (("model", "field_width"), 0),
    (("model", "rounds"), -1), (("model", "dt"), 0.0), (("model", "dt"), -1.0),
    (("train", "batch_size"), 0), (("train", "batch_size"), -3),
    (("train", "max_epochs"), -1), (("train", "val_fraction"), -0.1),
    (("train", "val_fraction"), 1.0), (("train", "weight_decay"), -1e-5),
    (("train", "scheduler", "patience_epochs"), 0),
    (("train", "scheduler", "min_lr"), -1e-6),
    (("simulate", "count"), -2), (("prior", "top_k"), 0),
    (("prior", "lag_order"), 0), (("prior", "ridge"), -1e-6),
    (("train", "t_ctx"), 0), (("train", "t_hor"), 0), (("train", "stride"), 0),
    (("eval", "t_ctx"), 0), (("eval", "t_hor"), 0),
    (("simulate", "sigma_ms"), -20.0), (("simulate", "bin_ms"), 0.0),
    (("simulate", "bin_ms"), -10.0), (("simulate", "bin_ms"), 0.05),
    # 2e303 bins, which `validate_config` used to build until numpy refused
    # the size (exit 5)
    (("simulate", "bin_ms"), 1e-300), (("simulate", "sigma_ms"), 2000.0), (("seed",), -1),
    (("simulate", "n_nodes"), 0), (("simulate", "n_nodes"), -3),
    (("simulate", "small_world_k"), 3), (("simulate", "small_world_k"), 0),
    (("simulate", "small_world_beta"), 2.0),
    (("simulate", "small_world_beta"), float("nan")),
]


def _with_value(cfg, keys, value):
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    return cfg


# the small-world rule names its parameters as `generate_small_world` does
_NAME_IN_MESSAGE = {"n_nodes": "got n ", "small_world_k": "small-world k",
                    "small_world_beta": "small-world beta"}


@pytest.mark.parametrize("keys,value", BAD_VALUES,
                         ids=[".".join(k) + f"={v}" for k, v in BAD_VALUES])
def test_the_library_refuses_every_value_the_cli_refuses(tmp_path, keys, value):
    """`validate_config`, and `load_config` of a file holding the value,
    refuse it naming the key, after the path of its section."""
    cfg = _with_value(_fast_config(), keys, value)
    # the type check refuses a number that is not finite first, by its key
    name = re.escape(_NAME_IN_MESSAGE.get(keys[-1], keys[-1]) if math.isfinite(value)
                     else keys[-1])
    section = ".".join(keys[:-1]) or "seed"
    for refuse in (validate_config, lambda c: load_config(_write_config(tmp_path, c))):
        with pytest.raises(ConfigError, match=name) as refusal:
            refuse(cfg)
        assert str(refusal.value).startswith(section), refusal.value


def _float_entries(section, keys=()):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _float_entries(value, keys + (key,))
        elif isinstance(value, float):
            yield keys + (key,)


_FLOAT_ENTRIES = list(_float_entries(default_config(0)))


@pytest.mark.parametrize("literal", list(_NOT_FINITE))
@pytest.mark.parametrize("keys", _FLOAT_ENTRIES, ids=[".".join(k) for k in _FLOAT_ENTRIES])
def test_a_config_number_that_is_not_finite_exits_2(tmp_path, capsys, keys, literal):
    """`NaN`, `Infinity` or `-Infinity` in any float entry of a config file
    is refused by the type check, by the entry's dotted path: exit 2, one
    stderr line, nothing on stdout and no `--out`. (`train.lambda1` NaN
    made `simulate` exit 0 and write NaN into its dataset manifest;
    `simulate.bin_ms` Infinity exited 5 after a numpy warning.)"""
    path = _write_config(tmp_path, _with_value(_fast_config(count=1), keys, _NOT_FINITE[literal]))
    assert literal in path.read_text()
    code, err = _refused(capsys, ["simulate", "--config", path], tmp_path / "o")
    assert code == EXIT_CONFIG, err
    assert err.splitlines() == [f"config error: {'.'.join(keys)} is {_NOT_FINITE[literal]}, "
                                f"not a finite number"], err


def test_an_integer_too_large_for_a_float_entry_exits_2(tmp_path, capsys):
    """An integer literal beyond the float range, given for a float entry,
    is no finite number either (it made `float()` raise OverflowError, exit
    5): exit 2 naming the entry."""
    path = _write_config(tmp_path, _with_value(_fast_config(count=1), ("train", "lr"), 10**400))
    code, err = _refused(capsys, ["simulate", "--config", path], tmp_path / "o")
    assert code == EXIT_CONFIG
    assert err.splitlines() == [f"config error: train.lr is {10**400}, not a finite number"]


_NUMPY_SCALARS = [(("simulate", "lif", "dt_ms"), np.float64(0.1)),
                  (("model", "rounds"), np.int64(2)), (("simulate", "perturb"), np.bool_(True)),
                  (("seed",), np.int64(3))]


@pytest.mark.parametrize("keys, value", _NUMPY_SCALARS,
                         ids=[".".join(k) for k, _ in _NUMPY_SCALARS])
def test_validate_config_refuses_a_numpy_scalar(keys, value):
    """A config built in Python holds only what JSON decodes to: a numpy
    scalar (an `np.float64` is a Python float too) is refused by its key."""
    with pytest.raises(ConfigError, match=re.escape(".".join(keys))) as refusal:
        validate_config(_with_value(default_config(0), keys, value))
    assert str(refusal.value).startswith(".".join(keys)), refusal.value


def test_default_config_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        default_config(-1)


def test_a_config_file_must_be_valid_on_its_own(tmp_path, capsys):
    """`--seed` replaces a valid file's seed; it does not repair a file
    whose own seed is out of its domain."""
    cfg = _fast_config(count=0)
    cfg["seed"] = -1
    out = tmp_path / "o"
    assert _refused(capsys, ["simulate", "--config", _write_config(tmp_path, cfg),
                             "--seed", "3"], out)[0] == EXIT_CONFIG
    assert _siblings(out) == []


def test_config_domain_error_exits_2(pipeline, tmp_path, capsys):
    for i, (keys, value) in enumerate(BAD_VALUES):
        cfg = _with_value(_fast_config(), keys, value)
        path = _write_config(tmp_path, cfg, f"config_{i}.json")
        assert _refused(capsys, ["train", "--config", path, "--data", pipeline["sim"],
                                 "--prior", pipeline["prior"] / "prior.csv"],
                        tmp_path / "o")[0] == EXIT_CONFIG, (keys, value)
    # an empty dataset is still a valid request, but not one of 0 nodes
    cfg = _fast_config(count=0)
    assert main(["simulate", "--config", str(_write_config(tmp_path, cfg, "empty.json")),
                 "--out", str(tmp_path / "empty")]) == EXIT_OK
    cfg["simulate"]["n_nodes"] = 0
    assert _refused(capsys, ["simulate", "--config",
                             _write_config(tmp_path, cfg, "no_nodes.json")],
                    tmp_path / "o")[0] == EXIT_CONFIG
    assert _refused(capsys, ["simulate", "--seed", "-1"], tmp_path / "o")[0] == EXIT_CONFIG


def test_prior_edge_outside_the_graph_exits_5(pipeline, tmp_path, capsys):
    header, first, *rest = (pipeline["prior"] / "prior.csv").read_text().splitlines()
    bad = tmp_path / "prior.csv"
    bad.write_text("\n".join([header, "-1," + first.split(",", 1)[1], *rest]) + "\n")
    assert _refused(capsys, ["train", "--config", pipeline["cfg_path"],
                             "--data", pipeline["sim"], "--prior", bad],
                    tmp_path / "o")[0] == EXIT_RUNTIME


def _pinned_forecast_set(root, pairs):
    """`root/fc` and `root/tg` holding the forecast CSV text and the
    (nodes, bins) target array of each pair, listed and pinned by
    `fc/forecasts_manifest.json`."""
    fc, tg = root / "fc", root / "tg"
    fc.mkdir()
    tg.mkdir()
    entries, pins = [], {}
    for i, (text, target) in enumerate(pairs):
        forecast, target_name = f"{i:05d}.csv", f"{i:05d}.npy"
        (fc / forecast).write_text(text)
        np.save(tg / target_name, target)
        entries.append({"forecast": forecast, "target": target_name, "source_id": f"w{i:03d}",
                        "n_nodes": target.shape[0], "t_hor": target.shape[1]})
        pins[forecast] = hashlib.sha256((fc / forecast).read_bytes()).hexdigest()
        pins[target_name] = hashlib.sha256((tg / target_name).read_bytes()).hexdigest()
    (fc / "forecasts_manifest.json").write_text(json.dumps(
        {"format": "sheafcast-forecasts-v2", "forecasts": entries, "sha256": pins}))
    return fc, tg


def test_data_faults_exit_5(pipeline, tmp_path, capsys):
    # a pinned pair whose forecast (1 node, 1 bin) is not the (n_nodes,
    # t_hor) of its entry and target (1 node, 2 bins): not a data fault but
    # a forecast set that does not fit its manifest, so exit 4
    fc, tg = _pinned_forecast_set(tmp_path, [("n0\n1.0\n", np.ones((1, 2)))])
    assert _refused(capsys, ["metrics", "--forecasts", fc, "--targets", tg],
                    tmp_path / "m")[0] == EXIT_MISMATCH

    dataset = json.loads((pipeline["sim"] / "dataset_manifest.json").read_text())
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "dataset_manifest.json").write_text(
        json.dumps({**dataset, "instances": []}))
    assert _refused(capsys, ["prior", "--config", pipeline["cfg_path"], "--data", empty],
                    tmp_path / "p")[0] == EXIT_RUNTIME

    unperturbed = tmp_path / "unperturbed"
    unperturbed.mkdir()
    (unperturbed / "dataset_manifest.json").write_text(json.dumps(
        {**dataset, "instances": [{**e, "post": None} for e in dataset["instances"]]}))
    assert _refused(capsys, ["perturb-eval", "--config", pipeline["cfg_path"],
                             "--checkpoint", pipeline["train"] / "checkpoint",
                             "--data", unperturbed], tmp_path / "pe")[0] == EXIT_RUNTIME


def test_a_report_number_that_is_not_finite_exits_5(chain, tmp_path, capsys, monkeypatch):
    """`write_json` refuses a number that is not finite, which no reader of
    the package takes: `metrics` whose report would hold one exits 5 with
    one stderr line and leaves no `--out`."""
    scored = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", lambda preds, targets: dataclasses.replace(
        scored(preds, targets), dtw=float("inf")))
    code, err = _refused(capsys, chain["metrics"][0], tmp_path / "o")
    assert code == EXIT_RUNTIME, err
    assert err.startswith("runtime failure: ValueError: Out of range float values"), err
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"a": [float("nan")]})
    assert not (tmp_path / "nan.json").exists()


def _metrics_in_a_fresh_interpreter(tmp_path, pairs):
    """`metrics` on `_pinned_forecast_set(tmp_path, pairs)` in a fresh
    interpreter, so numpy warnings reach stderr as a user sees them."""
    _pinned_forecast_set(tmp_path, pairs)
    env = {**os.environ,
           "PYTHONPATH": str(Path(sheafcast.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "sheafcast.cli", "metrics",
         "--forecasts", str(tmp_path / "fc"), "--targets", str(tmp_path / "tg"),
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env=env, check=False)


def test_header_only_csvs_exit_5_with_one_stderr_line(tmp_path):
    run = _metrics_in_a_fresh_interpreter(tmp_path, [("n0,n1\n", np.zeros((2, 0)))])
    assert run.returncode == EXIT_RUNTIME
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert "no data rows" in run.stderr


@pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "src,dst", "source,target,score"])
def test_a_bad_prior_csv_exits_5_naming_it_before_training(pipeline, tmp_path, capsys,
                                                           monkeypatch, fault):
    """A score that is not finite (which trained every epoch, then failed
    at the checkpoint write) or a header other than `src,dst,score` (a
    bare KeyError) is refused by `load_prior_csv`: exit 5, one line naming
    `prior.csv`, and `train` never starts."""
    header, *rows = (pipeline["prior"] / "prior.csv").read_text().splitlines()
    if "," in fault:
        header = fault
    else:
        rows[0] = f"{rows[0].rsplit(',', 1)[0]},{fault}"
    bad = tmp_path / "prior.csv"
    bad.write_text("\n".join([header, *rows]) + "\n")
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("train started"))
    code, err = _refused(capsys, ["train", "--config", pipeline["cfg_path"],
                                  "--data", pipeline["sim"], "--prior", bad], tmp_path / "o")
    assert code == EXIT_RUNTIME, err
    assert "prior.csv" in err, err


def test_an_overflowing_forecast_exits_5_with_one_line(tmp_path):
    """A forecast of 1e200 against a target of ones: its squared error
    overflows. `metrics` exits 5 with one line naming the window and its
    MSE, no numpy warning, and writes no report."""
    run = _metrics_in_a_fresh_interpreter(tmp_path,
                                          [("n0,n1\n1e200,1e200\n", np.ones((2, 1)))])
    assert run.returncode == EXIT_RUNTIME, run.stderr
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert "forecast window 0 has mse inf" in run.stderr, run.stderr
    assert not (tmp_path / "m").exists()


def test_foreign_exceptions_exit_5_with_one_line(pipeline, tmp_path, capsys):
    # an `--out` under a file: `mkdir` raises an OSError of its own
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert _refused(capsys, ["simulate", "--config", pipeline["cfg_path"]],
                    blocker / "sub")[0] == EXIT_RUNTIME


def test_missing_inputs_exit_3(tmp_path):
    cfg_path = _write_config(tmp_path, _fast_config())
    assert main(["prior", "--config", str(cfg_path),
                 "--data", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "o")]) == EXIT_MISSING
    assert main(["forecast", "--checkpoint", str(tmp_path / "nope"),
                 "--windows", str(tmp_path / "w.json"),
                 "--out", str(tmp_path / "o2")]) == EXIT_MISSING


def test_default_config_is_pinned():
    # a moved or changed default changes this digest and every manifest's
    assert config_hash(default_config(0)) == (
        "f3f24a7c476417aa0391d7e9e789817ee401e2692847f7075ee380d1ce13fdf4")
    assert validate_config({"seed": 0}) == default_config(0)


def test_validate_config_fills_defaults_and_rejects_unknown():
    cfg = validate_config({"seed": 5})
    assert cfg["train"]["scheduler"]["factor"] == 0.5
    assert cfg["simulate"]["lif"]["membrane_tau"] == 10.0
    with pytest.raises(ConfigError):
        validate_config({"seed": 5, "extra_section": {}})
    with pytest.raises(ConfigError):
        validate_config({"seed": "five"})
    with pytest.raises(ConfigError):
        validate_config({"seed": 5, "train": {"lr": "fast"}})
