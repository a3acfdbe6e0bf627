import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sheafcast
from sheafcast.cli import (EXIT_CONFIG, EXIT_MISMATCH, EXIT_MISSING, EXIT_OK,
                           EXIT_RUNTIME, main)
from sheafcast.config import config_hash, default_config, validate_config
from sheafcast.errors import ConfigError
from sheafcast.neurosim import load_rates_csv


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
    assert len(manifest["instances"]) == 3
    seeds = [e["seed"] for e in manifest["instances"]]
    assert len(set(seeds)) == 3
    for entry in manifest["instances"]:
        assert (sim / f"{entry['pre']}_rates.csv").exists()
        assert (sim / f"{entry['post']}_rates.csv").exists()
        assert entry["perturbation"] is not None

    rerun = tmp_path / "sim2"
    assert main(["simulate", "--config", str(pipeline["cfg_path"]),
                 "--out", str(rerun)]) == EXIT_OK
    for name in ("dataset_manifest.json", "00000_pre_rates.csv",
                 "00001_post_meta.json", "manifest_simulate.json"):
        assert (rerun / name).read_bytes() == (sim / name).read_bytes()


def test_simulate_records_match_one_run_oracle(pipeline):
    """The records of one batched `simulate` equal each run stepped alone."""
    from oracles import simulate_loop
    from sheafcast.neurosim import LifParams, PerturbationSpec, load_record

    sim, cfg = pipeline["sim"], pipeline["cfg"]
    params = LifParams(**cfg["simulate"]["lif"])
    manifest = json.loads((sim / "dataset_manifest.json").read_text())
    for entry in manifest["instances"]:
        spec = PerturbationSpec(**entry["perturbation"])
        for stem, perturbation in ((entry["pre"], None), (entry["post"], spec)):
            record = load_record(sim, stem)
            assert record.perturbation == perturbation
            want = simulate_loop(record.adjacency, params, entry["seed"], perturbation,
                                 bin_ms=cfg["simulate"]["bin_ms"],
                                 sigma_ms=cfg["simulate"]["sigma_ms"])
            assert record.rates.tobytes() == want.tobytes(), stem


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
    assert (train_dir / "checkpoint.json").exists()
    assert (train_dir / "checkpoint.bin").exists()
    log = [json.loads(x) for x in (train_dir / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == 2 and {"epoch", "train_loss", "val_loss", "lr"} == set(log[0])
    ckpt = json.loads((train_dir / "checkpoint.json").read_text())
    assert ckpt["trained_on_perturbed"] is False


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
    hashes = json.loads((out / "manifest_metrics.json").read_text())["input_hashes"]
    assert len(hashes) == 2 * len(windows)
    assert {f"forecasts/{f.name}" for f in fc_files} <= set(hashes)

    renamed = tmp_path / "renamed_targets"
    renamed.mkdir()
    for i, f in enumerate(sorted((fc_dir / "targets").glob("*.csv"))):
        stem = "zz_renamed" if i == 0 else f.stem
        (renamed / f"{stem}.csv").write_bytes(f.read_bytes())
    capsys.readouterr()
    assert main(["metrics", "--forecasts", str(fc_dir / "forecasts"),
                 "--targets", str(renamed),
                 "--out", str(tmp_path / "m2")]) != EXIT_OK
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "zz_renamed" in err


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
    dirty_dir.mkdir()
    manifest = json.loads((src / "checkpoint.json").read_text())
    manifest["trained_on_perturbed"] = True
    (dirty_dir / "checkpoint.json").write_text(json.dumps(manifest, sort_keys=True))
    (dirty_dir / "checkpoint.bin").write_bytes((src / "checkpoint.bin").read_bytes())
    code = main(["perturb-eval", "--config", str(pipeline["cfg_path"]),
                 "--checkpoint", str(dirty_dir / "checkpoint"),
                 "--data", str(pipeline["sim"]), "--out", str(tmp_path / "x")])
    assert code == EXIT_MISMATCH


@pytest.mark.parametrize("damage", [lambda raw: raw[:len(raw) // 2],
                                    lambda raw: raw + b"\0" * 8],
                         ids=["truncated", "padded"])
def test_damaged_checkpoint_bin_exits_4(pipeline, tmp_path, capsys, damage):
    src = pipeline["train"]
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "checkpoint.json").write_bytes((src / "checkpoint.json").read_bytes())
    (bad / "checkpoint.bin").write_bytes(damage((src / "checkpoint.bin").read_bytes()))
    capsys.readouterr()
    code = main(["forecast", "--checkpoint", str(bad / "checkpoint"),
                 "--windows", str(tmp_path / "w.json"), "--out", str(tmp_path / "o")])
    assert code == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_threads_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["prior", "--threads", "2", "--seed", "1",
              "--data", str(tmp_path), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_schema_violations_exit_2(tmp_path):
    bad = {"seed": 1, "simulate": {"banana": 3}}
    path = _write_config(tmp_path, bad)
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    missing_seed = {"simulate": {}}
    path2 = _write_config(tmp_path, missing_seed, "c2.json")
    assert main(["simulate", "--config", str(path2),
                 "--out", str(tmp_path / "o2")]) == EXIT_CONFIG


def _one_line_exit(capsys, argv):
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    return code


def test_config_domain_error_exits_2(pipeline, tmp_path, capsys):
    bad_values = [
        (("train", "lr"), -1.0),
        (("model", "stalk_dim"), 0), (("model", "field_width"), 0),
        (("model", "rounds"), -1), (("model", "dt"), 0.0), (("model", "dt"), -1.0),
        (("train", "batch_size"), 0), (("train", "batch_size"), -3),
        (("train", "max_epochs"), -1), (("train", "val_fraction"), -0.1),
        (("train", "val_fraction"), 1.0), (("train", "weight_decay"), -1e-5),
        (("train", "scheduler", "patience_epochs"), 0),
        (("train", "scheduler", "min_lr"), -1e-6),
    ]
    for i, (keys, value) in enumerate(bad_values):
        cfg = _fast_config()
        section = cfg
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        path = _write_config(tmp_path, cfg, f"config_{i}.json")
        assert _one_line_exit(capsys, [
            "train", "--config", path, "--data", pipeline["sim"],
            "--prior", pipeline["prior"] / "prior.csv",
            "--out", tmp_path / "o"]) == EXIT_CONFIG, (keys, value)
        assert not (tmp_path / "o").exists()


def test_prior_edge_outside_the_graph_exits_5(pipeline, tmp_path, capsys):
    header, first, *rest = (pipeline["prior"] / "prior.csv").read_text().splitlines()
    bad = tmp_path / "prior.csv"
    bad.write_text("\n".join([header, "-1," + first.split(",", 1)[1], *rest]) + "\n")
    assert _one_line_exit(capsys, [
        "train", "--config", pipeline["cfg_path"], "--data", pipeline["sim"],
        "--prior", bad, "--out", tmp_path / "o"]) == EXIT_RUNTIME


def test_data_faults_exit_5(pipeline, tmp_path, capsys):
    fc, tg = tmp_path / "fc", tmp_path / "tg"
    fc.mkdir()
    tg.mkdir()
    (fc / "a.csv").write_text("n0\n1.0\n")
    (tg / "b.csv").write_text("n0\n1.0\n")
    assert _one_line_exit(capsys, ["metrics", "--forecasts", fc, "--targets", tg,
                                   "--out", tmp_path / "m"]) == EXIT_RUNTIME

    dataset = json.loads((pipeline["sim"] / "dataset_manifest.json").read_text())
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "dataset_manifest.json").write_text(
        json.dumps({**dataset, "instances": []}))
    assert _one_line_exit(capsys, ["prior", "--config", pipeline["cfg_path"],
                                   "--data", empty, "--out", tmp_path / "p"]) == EXIT_RUNTIME

    unperturbed = tmp_path / "unperturbed"
    unperturbed.mkdir()
    (unperturbed / "dataset_manifest.json").write_text(json.dumps(
        {**dataset, "instances": [{**e, "post": None} for e in dataset["instances"]]}))
    assert _one_line_exit(capsys, [
        "perturb-eval", "--config", pipeline["cfg_path"],
        "--checkpoint", pipeline["train"] / "checkpoint", "--data", unperturbed,
        "--out", tmp_path / "pe"]) == EXIT_RUNTIME


def test_header_only_csvs_exit_5_with_one_stderr_line(tmp_path):
    # a fresh interpreter, so numpy warnings reach stderr as a user sees them
    for name in ("fc", "tg"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "00000.csv").write_text("n0,n1\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(sheafcast.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "sheafcast.cli", "metrics",
         "--forecasts", str(tmp_path / "fc"), "--targets", str(tmp_path / "tg"),
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env=env, check=False)
    assert run.returncode == EXIT_RUNTIME
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert "no data rows" in run.stderr


def test_foreign_exceptions_exit_5_with_one_line(pipeline, tmp_path, capsys):
    dataset = json.loads((pipeline["sim"] / "dataset_manifest.json").read_text())
    broken = tmp_path / "broken"
    broken.mkdir()
    del dataset["instances"]
    (broken / "dataset_manifest.json").write_text(json.dumps(dataset))
    assert _one_line_exit(capsys, ["prior", "--config", pipeline["cfg_path"],
                                   "--data", broken, "--out", tmp_path / "p"]) == EXIT_RUNTIME

    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert _one_line_exit(capsys, ["simulate", "--config", pipeline["cfg_path"],
                                   "--out", blocker / "sub"]) == EXIT_RUNTIME


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
        "d906167547cf8995782fefa74239add4b48568ea5ee8b0daea2793282fc99696")
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
