import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import simulate_loop
from sheafcast import neurosim
from sheafcast.errors import InvalidParameterError
from sheafcast.graphs import generate_small_world
from sheafcast.neurosim import (LifParams, PerturbationSpec, bin_and_smooth,
                                gaussian_kernel, load_record,
                                sample_perturbation, save_record, simulate,
                                simulate_many)


@pytest.fixture(scope="module")
def graph10():
    return generate_small_world(10, 4, 0.1, seed=3)


def test_no_input_means_no_spikes(graph10):
    params = LifParams(poisson_rate_hz=0.0, syn_weight=0.0)
    record = simulate(graph10, params, seed=0)
    assert record.rates.shape == (10, 200)
    assert np.all(record.rates == 0.0)


def test_reference_shape_100x200():
    graph = generate_small_world(100, 8, 0.1, seed=7)
    record = simulate(graph, LifParams(), seed=1)
    assert record.rates.shape == (100, 200)
    assert record.bin_edges_ms.shape == (201,)
    assert np.all(np.isfinite(record.rates)) and np.all(record.rates >= 0)


def test_default_network_rate_in_band(graph10):
    record = simulate(graph10, LifParams(), seed=2)
    assert 5.0 <= record.rates.mean() <= 50.0


def test_seed_determinism_bit_exact(graph10):
    a = simulate(graph10, LifParams(), seed=9)
    b = simulate(graph10, LifParams(), seed=9)
    assert np.array_equal(a.rates, b.rates)
    assert np.array_equal(a.bin_edges_ms, b.bin_edges_ms)


def test_silencing_contract(graph10):
    spec = PerturbationSpec(neuron=5, onset_ms=800.0, duration_ms=300.0)
    params = LifParams()
    # raw counts: zero on every bin fully inside [800, 1100) ms
    raw = simulate(graph10, params, seed=4, perturbation=spec, sigma_ms=0.0)
    assert np.all(raw.rates[5, 80:110] == 0.0)
    # smoothed: zero wherever the kernel support stays inside the window
    smooth = simulate(graph10, params, seed=4, perturbation=spec)
    reach = len(gaussian_kernel(2.0)) // 2
    assert np.all(smooth.rates[5, 80 + reach:110 - reach] == 0.0)
    # other neurons keep firing
    assert smooth.rates[(np.arange(10) != 5)].sum() > 0


def test_perturbed_pair_shares_background_and_adjacency(graph10):
    spec = PerturbationSpec(neuron=2, onset_ms=700.0, duration_ms=250.0)
    pre = simulate(graph10, LifParams(), seed=6)
    post = simulate(graph10, LifParams(), seed=6, perturbation=spec)
    assert pre.adjacency.edges == post.adjacency.edges
    assert np.array_equal(pre.bin_edges_ms, post.bin_edges_ms)
    # well before onset (minus smoothing reach) the records agree
    assert np.allclose(pre.rates[:, :60], post.rates[:, :60])


def test_raising_poisson_rate_never_loses_spikes(graph10):
    low = simulate(graph10, LifParams(poisson_rate_hz=800.0), seed=7,
                   sigma_ms=0.0)
    high = simulate(graph10, LifParams(poisson_rate_hz=1200.0), seed=7,
                    sigma_ms=0.0)
    assert high.rates.sum() >= low.rates.sum()


def test_lif_params_validation():
    with pytest.raises(InvalidParameterError):
        LifParams(threshold_mV=-70.0, reset_mV=-55.0)
    with pytest.raises(InvalidParameterError):
        LifParams(dt_ms=5.0, refractory_ms=2.0)
    with pytest.raises(InvalidParameterError):
        LifParams(membrane_tau=0.0)


# ----------------------------------------------------------------------
# one step loop for many runs
# ----------------------------------------------------------------------
G10A = generate_small_world(10, 4, 0.1, seed=3)
G10B = generate_small_world(10, 2, 0.3, seed=8)
G100 = generate_small_world(100, 8, 0.1, seed=7)


def _mixed_runs(duration_ms):
    """Pre/post pairs on three graphs (n=10 and n=100), plus a second seed
    on one of them."""
    runs = []
    for graph, seed in ((G10A, 0), (G100, 1), (G10B, 2)):
        spec = sample_perturbation(duration_ms, seed, n_nodes=graph.n_nodes)
        runs += [(graph, seed, None), (graph, seed, spec)]
    return runs + [(G10A, 5, None)]


@pytest.mark.parametrize("params, bin_ms, sigma_ms, rate_band", [
    (LifParams(duration_ms=600.0), 10.0, 20.0, (5.0, 50.0)),
    (LifParams(duration_ms=600.0), 5.0, 0.0, (5.0, 50.0)),
    (LifParams(duration_ms=600.0, poisson_rate_hz=0.0, syn_weight=0.0), 10.0, 20.0,
     (0.0, 0.0)),
    # the 2 ms refractory period caps the rate at 500 Hz
    (LifParams(duration_ms=600.0, poisson_weight=400.0, syn_weight=60.0), 5.0, 20.0,
     (200.0, 500.0)),
    # refractory outlasting the silencing window: at most 2 spikes in 600 ms
    (LifParams(duration_ms=600.0, poisson_weight=400.0, syn_weight=60.0,
               refractory_ms=500.0), 10.0, 20.0, (0.5, 10.0 / 3.0)),
], ids=["default", "raw-5ms", "zero-input", "high-rate", "long-refractory"])
def test_simulate_many_matches_loop_oracle(params, bin_ms, sigma_ms, rate_band):
    runs = _mixed_runs(params.duration_ms)
    records = simulate_many(runs, params, bin_ms=bin_ms, sigma_ms=sigma_ms)
    assert len(records) == len(runs)
    for (graph, seed, spec), record in zip(runs, records):
        want = simulate_loop(graph, params, seed, spec, bin_ms=bin_ms,
                             sigma_ms=sigma_ms)
        assert record.rates.tobytes() == want.tobytes()
        assert (record.adjacency, record.seed, record.perturbation) == (graph, seed, spec)
        assert record.params == params
        np.testing.assert_array_equal(
            record.bin_edges_ms,
            np.arange(int(params.duration_ms / bin_ms) + 1) * bin_ms)
    mean_rate = np.mean([r.rates.mean() for r in records])
    assert rate_band[0] <= mean_rate <= rate_band[1] + 1e-9


@settings(max_examples=12, deadline=None)
@given(picks=st.lists(st.integers(0, 6), min_size=1, max_size=4),
       target=st.integers(0, 6), data=st.data())
def test_run_record_independent_of_batch(picks, target, data):
    """A run's record is the same alone as anywhere in any batch."""
    params = LifParams(duration_ms=320.0)
    pool = []
    for graph, seed in ((G10A, 11), (G10B, 12), (G100, 13)):
        spec = PerturbationSpec(neuron=seed % graph.n_nodes, onset_ms=40.0,
                                duration_ms=240.0)
        pool += [(graph, seed, None), (graph, seed, spec)]
    pool.append((G10A, 14, None))
    batch = [pool[i] for i in picks]
    where = data.draw(st.integers(0, len(batch)))
    batch.insert(where, pool[target])
    graph, seed, spec = pool[target]
    alone = simulate(graph, params, seed, perturbation=spec)
    assert simulate_many(batch, params)[where].rates.tobytes() == alone.rates.tobytes()


@pytest.mark.parametrize("n_steps, dt, duration_ms, bin_ms", [
    (20000, 0.1, 2000.0, 10.0), (6000, 0.1, 600.0, 5.0), (1000, 0.3, 300.0, 10.0),
    (3334, 0.3, 1000.0, 10.0), (7, 0.1, 0.7, 0.1), (300, 0.01, 3.0, 0.3),
    (21, 0.1, 2.0, 1.0)])           # the last step lands on the last edge
def test_bin_starts_match_histogram(n_steps, dt, duration_ms, bin_ms):
    edges = neurosim._bin_edges(duration_ms, bin_ms)
    starts = neurosim._bin_starts(n_steps, dt, edges)
    want = np.histogram(np.arange(n_steps) * dt, bins=edges)[0]
    assert starts[0] == 0
    np.testing.assert_array_equal(np.diff(starts), want)


def test_simulate_many_validates_every_run_before_stepping(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a run was drawn or stepped")

    monkeypatch.setattr(neurosim, "_poisson_counts_from_uniforms", no_draws)
    params = LifParams(duration_ms=1000.0)
    good = (G10A, 1, None)
    bad_window = PerturbationSpec(neuron=0, onset_ms=50.0, duration_ms=300.0)
    bad_neuron = PerturbationSpec(neuron=10, onset_ms=300.0, duration_ms=300.0)
    with pytest.raises(InvalidParameterError, match="at least one run"):
        simulate_many([], params)
    with pytest.raises(InvalidParameterError, match="inner 80%"):
        simulate_many([good, (G10A, 2, bad_window)], params)
    with pytest.raises(InvalidParameterError, match="out of range"):
        simulate_many([good, (G10A, 2, bad_neuron)], params)
    with pytest.raises(InvalidParameterError, match="multiple of bin_ms"):
        simulate_many([good], params, bin_ms=3.0)


# ----------------------------------------------------------------------
# binning and smoothing
# ----------------------------------------------------------------------
def test_empty_spike_lists_give_zero_matrix():
    rates, edges = bin_and_smooth([[], [], []], 100.0)
    assert rates.shape == (3, 10)
    assert np.all(rates == 0.0)
    np.testing.assert_allclose(edges, np.arange(11) * 10.0)


def test_delta_kernel_single_spike():
    rates, _ = bin_and_smooth([[15.0]], 200.0, sigma_ms=0.0)
    assert rates[0, 1] == 100.0            # 1 spike / 0.01 s
    assert rates[0].sum() == 100.0


def test_smoothing_conserves_mass_even_at_boundary():
    rates, _ = bin_and_smooth([[15.0]], 200.0, sigma_ms=20.0)
    mass = rates[0].sum() * (10.0 / 1000.0)
    assert abs(mass - 1.0) <= 1e-6


def test_interior_spike_peaks_at_its_bin_and_decays_symmetrically():
    rates, _ = bin_and_smooth([[995.0]], 2000.0, sigma_ms=20.0)
    row = rates[0]
    assert row.argmax() == 99
    np.testing.assert_allclose(row[99 - 8:99], row[99 + 8:99:-1], rtol=1e-9)
    mass = row.sum() * (10.0 / 1000.0)
    assert abs(mass - 1.0) <= 1e-6


def test_mass_conservation_random_trains():
    rng = np.random.default_rng(0)
    spikes = [list(np.sort(rng.uniform(0, 500, size=rng.integers(0, 40))))
              for _ in range(5)]
    rates, _ = bin_and_smooth(spikes, 500.0)
    for i, train in enumerate(spikes):
        mass = rates[i].sum() * (10.0 / 1000.0)
        assert abs(mass - len(train)) <= 1e-6 * max(1, len(train))


def test_bin_and_smooth_rejects_out_of_range_spikes():
    with pytest.raises(InvalidParameterError):
        bin_and_smooth([[250.0]], 200.0)


# ----------------------------------------------------------------------
# perturbation sampling
# ----------------------------------------------------------------------
def test_sample_perturbation_ranges():
    for seed in range(50):
        spec = sample_perturbation(2000.0, seed)
        assert 240.0 <= spec.duration_ms <= 400.0
        assert 200.0 <= spec.onset_ms <= 1800.0 - spec.duration_ms


def test_sample_perturbation_deterministic():
    assert sample_perturbation(2000.0, 42) == sample_perturbation(2000.0, 42)


def test_sample_perturbation_rejects_short_runs():
    with pytest.raises(InvalidParameterError):
        sample_perturbation(400.0, 0)


def test_perturbation_spec_validation():
    with pytest.raises(InvalidParameterError):
        PerturbationSpec(neuron=0, onset_ms=100.0, duration_ms=100.0).validate(2000.0)
    with pytest.raises(InvalidParameterError):
        PerturbationSpec(neuron=0, onset_ms=50.0, duration_ms=300.0).validate(2000.0)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_record_round_trip(tmp_path, graph10):
    spec = sample_perturbation(2000.0, 3, n_nodes=10)
    record = simulate(graph10, LifParams(), seed=3, perturbation=spec)
    save_record(tmp_path, "demo", record)
    loaded = load_record(tmp_path, "demo")
    np.testing.assert_array_equal(loaded.rates, record.rates)
    assert loaded.adjacency.edges == record.adjacency.edges
    assert loaded.perturbation == record.perturbation
    assert loaded.params == record.params
    header = (tmp_path / "demo_rates.csv").read_text().splitlines()[0]
    assert header == ",".join(f"n{i}" for i in range(10))
    meta = json.loads((tmp_path / "demo_meta.json").read_text())
    assert meta["seed"] == 3
