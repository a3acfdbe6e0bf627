"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-dependent
criteria (8-10) share one deterministic synthetic dataset built at module
scope; everything is seeded, so reruns are bit-reproducible.
"""

import itertools
import json
import time

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.data import make_perturbed_windows, make_windows
from sheafcast.dynamics import rk4_integrate
from sheafcast.errors import InfeasiblePlacementError
from sheafcast.graphs import PriorGraph, generate_small_world, granger_score_matrix
from sheafcast.metrics import _dtw_rows, dtw_normalized, evaluate
from sheafcast.model import ForecastModel, ModelConfig
from sheafcast.neurosim import (LifParams, bin_and_smooth, gaussian_kernel,
                                sample_perturbation, simulate, simulate_many)
from sheafcast.sheaf import SheafParameters, sheaf_laplacian_apply, _discrepancies
from sheafcast.training import (SeriesData, TrainingConfig,
                                baseline_context_mean, baseline_copy_last,
                                cross_validate, forecast_windows,
                                prior_from_windows, total_loss, train)

from oracles import dtw_layered_1d, enumerate_paths, graph_laplacian


def _announce(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def _random_edges(rng, n, n_edges):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    idx = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    return [pairs[i] for i in idx]


# ----------------------------------------------------------------------
# 1. sheaf reduction to half the graph Laplacian
# ----------------------------------------------------------------------
def test_criterion_1_sheaf_reduction():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 9))
        edges = _random_edges(rng, n, int(rng.integers(1, 2 * n + 1)))
        params = SheafParameters.init(edges, n, stalk_dim=d, identity=True)
        stalks = rng.normal(size=(n, d))
        got = sheaf_laplacian_apply(stalks, params).data
        want = 0.5 * graph_laplacian(n, edges) @ stalks
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 1.0
    _announce(1, f"identity sheaf == 0.5 x graph Laplacian on 50 graphs "
                 f"(max err {worst:.2e}, {elapsed * 1e3:.0f} ms)")


# ----------------------------------------------------------------------
# 2. attention-free positive semidefiniteness
# ----------------------------------------------------------------------
def test_criterion_2_attention_free_psd():
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        edges = _random_edges(rng, n, int(rng.integers(1, 3 * n)))
        params = SheafParameters.init(edges, n, stalk_dim=d, map_dim=m, rng=rng)
        params.rho_src.data[:] = rng.normal(size=params.rho_src.data.shape)
        params.rho_dst.data[:] = rng.normal(size=params.rho_dst.data.shape)
        stalks = rng.normal(size=(n, d))
        lap = sheaf_laplacian_apply(stalks, params, alpha_override=1.0).data
        quad = float((stalks * lap).sum())
        delta = _discrepancies(ad.Tensor(stalks), params, 1.0).data
        energy = float((delta ** 2).sum())
        assert quad >= -1e-9
        assert abs(quad - energy) <= 1e-6 * max(1.0, energy)
    _announce(2, "quadratic form >= 0 and equals discrepancy energy on 100 instances")


# ----------------------------------------------------------------------
# 3. full-pipeline gradient fidelity
# ----------------------------------------------------------------------
def test_criterion_3_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 3],
                      [2, 1], [3, 2]])
    prior = PriorGraph(edges=tuple(map(tuple, edges[:6])), scores=(1.0,) * 6,
                       lag_order=3, top_k=8, n_nodes=4)
    config = ModelConfig(stalk_dim=3, map_dim=3, rounds=2, field_width=5)
    model = ForecastModel.init(edges, 4, config, seed=1)
    ctx = rng.normal(size=(4, 5))
    horizon = rng.normal(size=(4, 3))
    params = model.parameters()

    def loss_fn():
        pred, delta = model.forward(ctx, 3)
        return total_loss(pred, horizon, delta, prior, 1e-3, 1e-2,
                          model.sheaf.edges)

    for p in params.values():
        p.grad = None
    loss_fn().backward()

    step = 1e-5
    n_total = 0
    n_ok = 0
    worst = 0.0
    for name, p in params.items():
        flat = p.data.ravel()
        analytic = p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().data)
            flat[i] = orig - step
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2 * step)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-6)
            worst = max(worst, rel)
            n_total += 1
            n_ok += rel <= 1e-3
    elapsed = time.perf_counter() - start
    assert n_ok / n_total >= 0.99
    assert elapsed < 30.0
    _announce(3, f"{n_ok}/{n_total} parameter gradients within 1e-3 of central "
                 f"differences (worst {worst:.2e}, {elapsed:.1f} s)")


# ----------------------------------------------------------------------
# 4. RK4 order and exact single step
# ----------------------------------------------------------------------
def test_criterion_4_rk4_order():
    one = rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 1.0), 1.0)
    assert one.values[0, 0] == 0.375

    def global_err(dt):
        traj = rk4_integrate(np.array([1.0]), lambda t, x: -x, (0.0, 1.0), dt)
        return np.abs(traj.values[0] - np.exp(-traj.times)).max()

    ratio = global_err(0.1) / global_err(0.05)
    assert ratio >= 14.0
    _announce(4, f"single dt=1 step = 0.375 exactly; halving dt gains "
                 f"{ratio:.1f}x (>= 14)")


# ----------------------------------------------------------------------
# 5. DTW equals exhaustive path enumeration
# ----------------------------------------------------------------------
def _paths_by_length(la, lb):
    """Every path of `enumerate_paths(la, lb)` as linear cell indices
    i * lb + j, grouped into (n_paths, length) arrays by path length, each
    group in enumeration order."""
    groups = {}
    for rows, cols in enumerate_paths(la, lb):
        groups.setdefault(len(rows), []).append(rows * lb + cols)
    return [np.array(groups[length]) for length in sorted(groups)]


def _dtw_grid_oracle(a_set, b_set, paths, max_elements=1 << 20):
    """Minimum over explicitly enumerated monotone paths, for every pair.

    Each path's cost is summed cell by cell in path order from one
    |a_i - b_j| array, for bounded chunks of equal-length paths at once.
    The cells are small integers, so the sums are exact in int8, and the
    minimum of the sums over a chunk, divided by the path length, is the
    minimum of the per-path quotients."""
    n_a, la = a_set.shape
    n_b, lb = b_set.shape
    pairs = n_a * n_b
    cells = np.abs(a_set.T[:, None, :, None] - b_set.T[None, :, None, :])
    cells = cells.reshape(la * lb, pairs)
    assert np.array_equal(cells, np.round(cells))
    assert cells.max() * (la + lb - 1) <= np.iinfo(np.int8).max
    cells = cells.astype(np.int8)
    best = np.full(pairs, np.inf)
    per_chunk = max(1, max_elements // pairs)
    for group in paths:
        for lo in range(0, len(group), per_chunk):
            idx = group[lo:lo + per_chunk]
            cost = cells[idx[:, 0]]
            for k in range(1, idx.shape[1]):
                cost += cells[idx[:, k]]
            np.minimum(best, cost.min(axis=0) / idx.shape[1], out=best)
    return best.reshape(n_a, n_b)


def test_criterion_5_dtw_matches_exhaustive_enumeration():
    values = np.array([-1.0, 0.0, 1.0])
    universes = {
        length: np.array(list(itertools.product(values, repeat=length)))
        for length in range(1, 7)
    }
    checked = 0
    for la in range(1, 7):
        for lb in range(la, 7):
            a_set, b_set = universes[la], universes[lb]
            paths = _paths_by_length(la, lb)
            for lo in range(0, len(a_set), 27):   # bound peak memory
                chunk = a_set[lo:lo + 27]
                want = _dtw_grid_oracle(chunk, b_set, paths)
                # the shipped kernel, one row per (a, b) pair
                shipped = _dtw_rows(np.repeat(chunk, len(b_set), axis=0),
                                    np.tile(b_set, (len(chunk), 1)))
                assert np.array_equal(shipped.reshape(want.shape), want), (la, lb, lo)
                checked += want.size
    # the public scalar entry point equals the per-row layered DP oracle
    rng = np.random.default_rng(505)
    for _ in range(200):
        a = rng.choice(values, size=rng.integers(1, 7))
        b = rng.choice(values, size=rng.integers(1, 7))
        assert dtw_normalized(a, b) == dtw_layered_1d(a, b)

    # identity and symmetry on 1,000 random real-valued pairs
    for _ in range(1000):
        a = rng.normal(size=rng.integers(1, 12))
        b = rng.normal(size=rng.integers(1, 12))
        assert dtw_normalized(a, b) == dtw_normalized(b, a)
        assert dtw_normalized(a, a) == 0.0
    _announce(5, f"exhaustive enumeration matched on {checked} short pairs; "
                 f"identity/symmetry on 1,000 random pairs")


# ----------------------------------------------------------------------
# 6. Granger direction recovery
# ----------------------------------------------------------------------
def test_criterion_6_granger_direction_recovery():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=200)
        x0 = np.zeros(200)
        for t in range(1, 200):
            x0[t] = 0.9 * x1[t - 1] + 0.3 * rng.normal()
        scores = granger_score_matrix(np.stack([x0, x1]), lag_order=3)
        hits += scores[1, 0] > scores[0, 1]
    assert hits >= 95

    rng = np.random.default_rng(606)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        ctx = rng.normal(size=(n, 60))
        prior = prior_from_windows(
            make_windows(ctx, t_ctx=40, t_hor=10, stride=10)[:1],
            lag_order=3, top_k=k)
        indeg = np.zeros(n, dtype=int)
        for _, dst in prior.edges:
            indeg[dst] += 1
        assert indeg.max() <= k
    _announce(6, f"driver edge outranked the reverse edge in {hits}/100 trials; "
                 f"prior in-degree never exceeded top_k")


# ----------------------------------------------------------------------
# 7. simulator contracts
# ----------------------------------------------------------------------
def test_criterion_7_simulator_contracts():
    graph = generate_small_world(10, 4, 0.1, seed=3)
    params = LifParams(duration_ms=1000.0)
    reach = len(gaussian_kernel(2.0)) // 2
    clean = 0
    runs = [(graph, seed, sample_perturbation(1000.0, seed, n_nodes=10))
            for seed in range(100)]
    for (_, _, spec), record in zip(runs, simulate_many(runs, params)):
        lo = int(np.ceil(spec.onset_ms / 10.0))
        hi = int(np.floor((spec.onset_ms + spec.duration_ms) / 10.0))
        inner = record.rates[spec.neuron, lo + reach:hi - reach]
        clean += inner.size > 0 and np.all(inner == 0.0)
    assert clean == 100

    # raw (unsmoothed) counts vanish on every bin fully inside the window
    for (_, _, spec), raw in zip(runs[:10],
                                 simulate_many(runs[:10], params, sigma_ms=0.0)):
        lo = int(np.ceil(spec.onset_ms / 10.0))
        hi = int(np.floor((spec.onset_ms + spec.duration_ms) / 10.0))
        assert np.all(raw.rates[spec.neuron, lo:hi] == 0.0)

    rng = np.random.default_rng(707)
    spikes = [list(np.sort(rng.uniform(0, 1000, size=rng.integers(1, 60))))
              for _ in range(6)]
    rates, _ = bin_and_smooth(spikes, 1000.0)
    for i, train_times in enumerate(spikes):
        mass = rates[i].sum() * 0.01
        assert abs(mass - len(train_times)) <= 1e-6 * len(train_times)

    a = simulate(graph, params, seed=5)
    b = simulate(graph, params, seed=5)
    assert a.rates.tobytes() == b.rates.tobytes()
    _announce(7, "silencing clean in 100/100 runs, spike mass conserved to "
                 "1e-6, seeds byte-deterministic")


# ----------------------------------------------------------------------
# shared dataset for the training-dependent criteria
# ----------------------------------------------------------------------
N_TRAIN_SERIES = 40
N_TEST_SERIES = 8
LIF = LifParams(poisson_weight=56.0, syn_weight=40.0)
MODEL_CONFIG = ModelConfig(stalk_dim=16, map_dim=4, rounds=2, normalize=True,
                           field_width=32)
TRAIN_CONFIG = dict(lr=3e-3, max_epochs=10, batch_size=32, seed=1)


@pytest.fixture(scope="module")
def lif_dataset():
    graph = generate_small_world(10, 4, 0.1, seed=7)
    series = []
    seed = 100
    while len(series) < N_TRAIN_SERIES + N_TEST_SERIES:
        # one batch of pre/post pairs over as many consecutive seeds as
        # series are still missing; a seed whose placement fails is skipped
        seeds = range(seed, seed + N_TRAIN_SERIES + N_TEST_SERIES - len(series))
        specs = [sample_perturbation(LIF.duration_ms, s, n_nodes=10) for s in seeds]
        runs = [run for s, spec in zip(seeds, specs)
                for run in ((graph, s, None), (graph, s, spec))]
        records = simulate_many(runs, LIF)
        for spec, pre, post in zip(specs, records[::2], records[1::2]):
            try:
                eval_w = make_perturbed_windows(pre, post, spec, 30, 10,
                                                source_id=f"s{len(series):03d}")
            except InfeasiblePlacementError:
                continue
            train_w = make_windows(pre.rates, 30, 10, 40,
                                   source_id=f"s{len(series):03d}")
            series.append(SeriesData(series_id=f"s{len(series):03d}",
                                     train_windows=train_w, eval_windows=eval_w))
        seed = seeds.stop
    return series


@pytest.fixture(scope="module")
def trained_checkpoint(lif_dataset):
    train_series = lif_dataset[:N_TRAIN_SERIES]
    windows = [w for s in train_series for w in s.train_windows]
    assert len(windows) == 200
    prior = prior_from_windows(windows[:40], lag_order=3, top_k=2)
    config = TrainingConfig(**TRAIN_CONFIG)
    return train(windows, prior, config, model_config=MODEL_CONFIG), prior


# ----------------------------------------------------------------------
# 8. learning beats the trivial baselines
# ----------------------------------------------------------------------
def test_criterion_8_learning_beats_baselines(lif_dataset, trained_checkpoint):
    start = time.perf_counter()
    ckpt, _ = trained_checkpoint
    model = ckpt.build_model()
    test_windows = [w for s in lif_dataset[N_TRAIN_SERIES:]
                    for w in s.train_windows]
    preds, targets = forecast_windows(model, test_windows)
    model_mse = evaluate(preds, targets).mse
    copy_mse = evaluate([baseline_copy_last(w.context, 10)
                         for w in test_windows], targets).mse
    mean_mse = evaluate([baseline_context_mean(w.context, 10)
                         for w in test_windows], targets).mse
    elapsed = time.perf_counter() - start
    assert model_mse < copy_mse
    assert model_mse < mean_mse
    assert elapsed < 600.0
    _announce(8, f"test MSE {model_mse:.4f} < copy-last {copy_mse:.4f} and "
                 f"< mean {mean_mse:.4f}")


# ----------------------------------------------------------------------
# 9. ablation ordering under the perturbed-window protocol
# ----------------------------------------------------------------------
def test_criterion_9_ablation_ordering(lif_dataset):
    config = TrainingConfig(**TRAIN_CONFIG)
    rows = cross_validate(lif_dataset[:N_TRAIN_SERIES], config,
                          model_config=MODEL_CONFIG,
                          ablations=["full", "graph", "no_lstm"],
                          prior_kwargs={"lag_order": 3, "top_k": 2}, folds=5)
    by_method = {r["method"]: r for r in rows}
    full = by_method["full"]
    lines = []
    for ablation in ("graph", "no_lstm"):
        other = by_method[ablation]
        margin = max(full["mse_std"], other["mse_std"])
        gap = full["mse_mean"] - other["mse_mean"]
        assert gap <= margin, (
            f"full {full['mse_mean']:.4f} vs {ablation} "
            f"{other['mse_mean']:.4f} exceeds the 1-std tie band {margin:.4f}")
        relation = "<=" if gap <= 0 else "~ (tie within 1 std)"
        lines.append(f"full {full['mse_mean']:.3f} {relation} {ablation} "
                     f"{other['mse_mean']:.3f}+-{other['mse_std']:.3f}")
    _announce(9, "; ".join(lines))


# ----------------------------------------------------------------------
# 10. perturbation generalization and the leakage guard
# ----------------------------------------------------------------------
def test_criterion_10_perturbation_generalization(lif_dataset,
                                                  trained_checkpoint,
                                                  tmp_path):
    ckpt, _ = trained_checkpoint
    assert not ckpt.trained_on_perturbed
    model = ckpt.build_model()
    perturbed = [w for s in lif_dataset[N_TRAIN_SERIES:] for w in s.eval_windows]
    assert perturbed
    preds, targets = forecast_windows(model, perturbed)
    assert all(np.all(np.isfinite(p)) for p in preds)
    model_mse = evaluate(preds, targets).mse
    mean_mse = evaluate([baseline_context_mean(w.context, 10)
                         for w in perturbed], targets).mse
    assert model_mse < mean_mse

    # the CLI guard refuses a checkpoint whose manifest lists perturbed sources
    from sheafcast.cli import EXIT_MISMATCH, main
    from sheafcast.config import default_config
    from sheafcast.training import save_checkpoint

    cfg = default_config(31)
    cfg["simulate"].update({"n_nodes": 10, "small_world_k": 4, "count": 1})
    cfg["simulate"]["lif"]["duration_ms"] = 1600.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(sim_dir)]) == 0

    dirty = ckpt
    save_checkpoint(dirty, tmp_path / "dirty")
    manifest = json.loads((tmp_path / "dirty.json").read_text())
    manifest["trained_on_perturbed"] = True
    (tmp_path / "dirty.json").write_text(json.dumps(manifest, sort_keys=True))
    code = main(["perturb-eval", "--config", str(cfg_path),
                 "--checkpoint", str(tmp_path / "dirty"),
                 "--data", str(sim_dir), "--out", str(tmp_path / "out")])
    assert code == EXIT_MISMATCH
    _announce(10, f"clean checkpoint: finite forecasts, MSE {model_mse:.4f} < "
                  f"mean predictor {mean_mse:.4f}; contaminated checkpoint refused")


# ----------------------------------------------------------------------
# 11. complexity budget: near-linear in horizon and edge count
# ----------------------------------------------------------------------
def _scaling_exponent(problems, repeats=15):
    """Median over repeats of the log-log slope of this thread's CPU time
    against problem size.

    Each repeat times every size once, back to back, starting from a
    different size each time, and gives one slope; a slow repeat or a slow
    phase moves only the slopes of the repeats it falls in. Time spent
    waiting for a core another process holds is not counted.
    """
    sizes = list(problems)
    for model, ctx, t_hor in problems.values():
        model.predict(ctx, t_hor)
    slopes = []
    for r in range(repeats):
        times = {}
        for size in sizes[r % len(sizes):] + sizes[:r % len(sizes)]:
            model, ctx, t_hor = problems[size]
            t0 = time.thread_time()
            model.predict(ctx, t_hor)
            times[size] = time.thread_time() - t0
        slopes.append(np.polyfit(np.log(sizes), np.log([times[s] for s in sizes]), 1)[0])
    return float(np.median(slopes))


def test_criterion_11_complexity_scaling():
    rng = np.random.default_rng(111)

    horizons = [25, 50, 100, 200]
    edges = np.array(_random_edges(rng, 40, 160))
    ctx = rng.normal(size=(40, 4))
    cfg = ModelConfig(stalk_dim=16, map_dim=16, rounds=1, normalize=True,
                      field_width=64)
    problems = {s: (ForecastModel.init(edges, 40, cfg, seed=0), ctx, s)
                for s in horizons}
    hor_exp = _scaling_exponent(problems)

    edge_counts = [750, 1500, 3000, 6000]
    ctx2 = rng.normal(size=(100, 2))
    cfg2 = ModelConfig(stalk_dim=10, map_dim=10, rounds=6, normalize=True,
                       field_width=8)
    problems2 = {}
    for e in edge_counts:
        e_arr = np.array(_random_edges(rng, 100, e))
        problems2[e] = (ForecastModel.init(e_arr, 100, cfg2, seed=0), ctx2, 1)
    edge_exp = _scaling_exponent(problems2)

    assert 0.8 <= hor_exp <= 1.2, f"horizon exponent {hor_exp:.3f}"
    assert 0.8 <= edge_exp <= 1.2, f"edge exponent {edge_exp:.3f}"
    _announce(11, f"forward pass scales with exponents: horizon {hor_exp:.2f}, "
                  f"edges {edge_exp:.2f} (both in [0.8, 1.2])")
