import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import lif_loop, lif_propagator_closed_form, lif_rates, simulate_loop
from sheafcast import neurosim
from sheafcast.config import default_config
from sheafcast.errors import InvalidParameterError
from sheafcast.graphs import generate_small_world
from sheafcast.neurosim import (LifParams, PerturbationSpec, SimulationRecord,
                                bin_and_smooth, gaussian_kernel, load_record,
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
    assert record.bin_ms == 10.0
    assert np.all(np.isfinite(record.rates)) and np.all(record.rates >= 0)


def test_default_network_rate_in_band(graph10):
    record = simulate(graph10, LifParams(), seed=2)
    assert 5.0 <= record.rates.mean() <= 50.0


def test_seed_determinism_bit_exact(graph10):
    a = simulate(graph10, LifParams(), seed=9)
    b = simulate(graph10, LifParams(), seed=9)
    assert np.array_equal(a.rates, b.rates)
    assert a.bin_ms == b.bin_ms


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
    assert pre.bin_ms == post.bin_ms
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


def _block_steps(params):
    """Steps per block: K = min(delay steps, refractory steps + 1)."""
    delay = max(1, int(round(params.syn_delay_ms / params.dt_ms)))
    return min(delay, int(round(params.refractory_ms / params.dt_ms)) + 1)


def _block_states(runs, params, n_total, most=200):
    """The (3, N) state of one batch at the end of at most `most` evenly
    spaced blocks, keyed by end step."""
    n_steps = int(round(params.duration_ms / params.dt_ms))
    every = -(-n_total // _block_steps(params) // most) or 1
    draws = neurosim._draw_runs(runs, params, n_steps)
    return {end: state.copy()
            for b, (end, _, _, state) in enumerate(neurosim._lif_blocks(runs, params, *draws,
                                                                         n_total))
            if b % every == 0}


def _block_events(params, runs, traces, n_total):
    """Which block edge cases the oracle's spike trains reach."""
    k, dt = _block_steps(params), params.dt_ms
    refr = int(round(params.refractory_ms / dt))
    seen = {"one-step blocks"} if k == 1 else set()
    if n_total % k:
        seen.add("partial last block")
    for (_, _, spec), trace in zip(runs, traces):
        for steps in trace.spike_steps:
            for t1, t2 in zip(steps, steps[1:] + [n_total]):
                free = t1 + refr + 1
                if free < n_total and free % k:
                    seen.add("refractory end inside a block")
                    if t2 < n_total and t2 // k == free // k:
                        seen.add("restart and fire inside a block")
        if spec is not None:
            onset = int(round(spec.onset_ms / dt))
            end = int(round((spec.onset_ms + spec.duration_ms) / dt))
            if onset % k and end % k and onset // k == end // k:
                seen.add("silencing opens and ends inside a block")
    return seen


@pytest.mark.parametrize("params, bin_ms, sigma_ms, rate_band, events", [
    (LifParams(duration_ms=600.0), 10.0, 20.0, (5.0, 50.0), set()),
    (LifParams(duration_ms=600.0), 5.0, 0.0, (5.0, 50.0), set()),
    (LifParams(duration_ms=600.0, poisson_rate_hz=0.0, syn_weight=0.0), 10.0, 20.0,
     (0.0, 0.0), set()),
    # the 2 ms refractory period caps the rate at 500 Hz
    (LifParams(duration_ms=600.0, poisson_weight=400.0, syn_weight=60.0), 5.0, 20.0,
     (200.0, 500.0), {"restart and fire inside a block"}),
    # refractory outlasting the silencing window: at most 2 spikes in 600 ms
    (LifParams(duration_ms=600.0, poisson_weight=400.0, syn_weight=60.0,
               refractory_ms=500.0), 10.0, 20.0, (0.5, 10.0 / 3.0), set()),
    # zero delay is one step: K = 1
    (LifParams(duration_ms=600.0, syn_delay_ms=0.0), 10.0, 20.0, (5.0, 50.0),
     {"one-step blocks"}),
    # K = 6 steps of 0.25 ms; 2444 steps leave a last block of 2
    (LifParams(duration_ms=611.0, dt_ms=0.25), 13.0, 20.0, (5.0, 50.0),
     {"partial last block", "refractory end inside a block"}),
    # the propagator's degenerate case; the kernel carries 5x the charge,
    # so only the refractory cap bounds the rate
    (LifParams(duration_ms=600.0, syn_tau=10.0), 10.0, 20.0, (5.0, 500.0), set()),
    # 500 ms blocks: a window opens and ends inside one, refractory periods
    # end inside them, and at most 2 spikes fit in 1000 ms
    (LifParams(duration_ms=1000.0, poisson_weight=400.0, syn_weight=60.0,
               refractory_ms=500.0, syn_delay_ms=500.0), 10.0, 20.0, (0.5, 2.0),
     {"silencing opens and ends inside a block", "refractory end inside a block",
      "restart and fire inside a block"}),
], ids=["default", "raw-5ms", "zero-input", "high-rate", "long-refractory",
        "zero-delay", "partial-block", "equal-tau", "silenced-in-block"])
def test_simulate_many_matches_loop_oracle(params, bin_ms, sigma_ms, rate_band, events):
    """Records byte-equal to the per-step exact oracle, and block-end states
    within 1e-12 relative of it (block sums round differently from step
    sums); each case reaches the block edge cases it lists."""
    runs = _mixed_runs(params.duration_ms)
    records = simulate_many(runs, params, bin_ms=bin_ms, sigma_ms=sigma_ms)
    assert len(records) == len(runs)
    n_steps = int(round(params.duration_ms / params.dt_ms))
    n_total = int(neurosim._bin_starts(
        n_steps, params.dt_ms, neurosim.bin_edges(params.duration_ms, bin_ms))[-1])
    states = _block_states(runs, params, n_total)
    traces = []
    offset = 0
    for (graph, seed, spec), record in zip(runs, records):
        trace = lif_loop(graph, params, seed, spec, keep_steps=states)
        traces.append(trace)
        want = lif_rates(trace, params, bin_ms, sigma_ms)
        assert record.rates.tobytes() == want.tobytes()
        for end, state in states.items():
            np.testing.assert_allclose(state[:, offset:offset + graph.n_nodes],
                                       trace.states[end], rtol=1e-12, atol=0)
        offset += graph.n_nodes
        assert (record.adjacency, record.seed, record.perturbation) == (graph, seed, spec)
        assert (record.params, record.bin_ms) == (params, bin_ms)
    assert events <= _block_events(params, runs, traces, n_total)
    mean_rate = np.mean([r.rates.mean() for r in records])
    assert rate_band[0] <= mean_rate <= rate_band[1] + 1e-9


def test_refractory_end_after_a_window_closes_in_the_same_block():
    """A window opens and ends inside one block while its neuron is still
    refractory: the neuron restarts once, at its own free step, later in
    that block. Blocks are 3000 steps (300 ms delay); the refractory period
    (780 ms) puts the first spike's free step late in the third block."""
    params = LifParams(duration_ms=2000.0, refractory_ms=780.0, syn_delay_ms=300.0)
    k, dt = _block_steps(params), params.dt_ms
    refr = int(round(params.refractory_ms / dt))
    first = [steps[0] for steps in lif_loop(G10A, params, 3).spike_steps]
    neuron = int(np.argmin(first))
    free = first[neuron] + refr + 1
    onset, end = free - free % k + 100, free - 10
    assert 2400 <= end - onset <= 4000 and free % k > 2400
    spec = PerturbationSpec(neuron=neuron, onset_ms=onset * dt,
                            duration_ms=(end - onset) * dt)
    states = _block_states([(G10A, 3, spec)], params, 20000)
    trace = lif_loop(G10A, params, 3, spec, keep_steps=states)
    assert any(free < t < free - free % k + k for t in trace.spike_steps[neuron])
    assert simulate(G10A, params, 3, spec).rates.tobytes() == lif_rates(trace, params).tobytes()
    for end_step, state in states.items():
        np.testing.assert_allclose(state, trace.states[end_step], rtol=1e-12, atol=0)


@pytest.mark.parametrize("params", [
    LifParams(), LifParams(dt_ms=0.25), LifParams(syn_tau=10.0),
    LifParams(syn_tau=5.0, membrane_tau=5.0, dt_ms=2.0, refractory_ms=2.0),
    LifParams(syn_tau=0.1, membrane_tau=0.3, dt_ms=2.0, refractory_ms=2.0)],
    ids=["default", "dt-0.25", "equal-tau", "equal-tau-coarse", "stiff"])
def test_propagator_matches_closed_form(params):
    """Taylor series with scaling and squaring against the closed-form
    solution, in the degenerate case too; a step that spans many time
    constants takes the squarings."""
    np.testing.assert_allclose(neurosim._propagator(params),
                               lif_propagator_closed_form(params), rtol=1e-12, atol=1e-15)


def _default_runs(seed, count):
    """The runs `sheafcast simulate` steps at config defaults: a pre/post
    pair per instance on 100 nodes, 2000 ms."""
    sim = default_config(seed)["simulate"]
    params = LifParams(**sim["lif"])
    runs = []
    for s in range(seed, seed + count):
        graph = generate_small_world(sim["n_nodes"], sim["small_world_k"],
                                     sim["small_world_beta"], seed=s)
        spec = sample_perturbation(params.duration_ms, s, n_nodes=sim["n_nodes"])
        runs += [(graph, s, None), (graph, s, spec)]
    return runs, params


def test_full_size_pair_matches_loop_oracle():
    """At full size and length the spikes of one step share targets (up to
    7 arrive at one neuron in one step here), and the silenced neuron is
    released into a running network (at 1670 of 2000 ms)."""
    runs, params = _default_runs(7, 1)
    for (graph, seed, spec), record in zip(runs, simulate_many(runs, params)):
        assert record.rates.tobytes() == simulate_loop(graph, params, seed, spec).tobytes()


def test_simulate_many_memory_stays_near_its_draws():
    """The module docstring's limit: no temporary outgrows one run's uniform
    draw. The pipeline-default dataset (2 instances, 4 runs) holds 4 int64
    background vectors and 4 count matrices, 1.28 MB, before its rates."""
    runs, params = _default_runs(7, 2)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_many(runs, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert peak < 1.6 * 2 ** 20, peak


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


def test_block_states_independent_of_batch():
    """Bit for bit, not only through the records: a run's block-end states
    are the same alone as in a batch whose other runs open their silencing
    windows in other blocks."""
    params = LifParams(duration_ms=600.0, poisson_weight=400.0, syn_weight=60.0)
    runs = _mixed_runs(params.duration_ms)
    n_total = int(round(params.duration_ms / params.dt_ms))
    batch = _block_states(runs, params, n_total)
    offset = 0
    for run in runs:
        size = run[0].n_nodes
        for end, state in _block_states([run], params, n_total).items():
            assert state.tobytes() == batch[end][:, offset:offset + size].tobytes()
        offset += size


@pytest.mark.parametrize("n_steps, dt, duration_ms, bin_ms", [
    (20000, 0.1, 2000.0, 10.0), (6000, 0.1, 600.0, 5.0), (1000, 0.3, 300.0, 10.0),
    (3334, 0.3, 1000.0, 10.0), (7, 0.1, 0.7, 0.1), (300, 0.01, 3.0, 0.3),
    (21, 0.1, 2.0, 1.0)])           # the last step lands on the last edge
def test_bin_starts_match_histogram(n_steps, dt, duration_ms, bin_ms):
    edges = neurosim.bin_edges(duration_ms, bin_ms)
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
    # a bin count too large to hold (2e303 bins) is refused before it is built
    with pytest.raises(InvalidParameterError, match="narrower than one 0.1 ms step"):
        simulate_many([good], params, bin_ms=1e-300)


@pytest.mark.parametrize("bin_ms, sigma_ms, match", [
    (0.0, 20.0, "bin_ms"), (-10.0, 20.0, "bin_ms"), (10.0, -20.0, "sigma_ms"),
    (10.0, 2000.0, "sigma_ms")])
def test_binning_refuses_values_outside_their_domain(bin_ms, sigma_ms, match):
    with pytest.raises(InvalidParameterError, match=match):
        bin_and_smooth([[15.0]], 200.0, bin_ms=bin_ms, sigma_ms=sigma_ms)
    with pytest.raises(InvalidParameterError, match=match):
        simulate_many([(G10A, 1, None)], LifParams(duration_ms=1000.0),
                      bin_ms=bin_ms, sigma_ms=sigma_ms)


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
    # the file holds the record's own (nodes, bins) block, C-ordered
    stored = np.load(tmp_path / "demo_rates.npy", allow_pickle=False)
    assert stored.shape == (10, record.rates.shape[1]) and stored.flags.c_contiguous
    assert stored.tobytes() == np.ascontiguousarray(record.rates).tobytes()
    meta = json.loads((tmp_path / "demo_meta.json").read_text())
    assert meta["seed"] == 3


def test_record_meta_round_trips_its_edges(tmp_path):
    """A record is its rates `.npy` and its meta JSON, which holds the
    graph's edges in stored order (a rewired graph's are not sorted)."""
    graph = generate_small_world(12, 4, 0.3, seed=2)
    assert list(graph.edges) != sorted(graph.edges)
    record = SimulationRecord(rates=np.zeros((12, 3)), adjacency=graph,
                              bin_ms=10.0, seed=5,
                              params=LifParams(duration_ms=30.0))
    save_record(tmp_path, "rec", record)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rec_meta.json", "rec_rates.npy"]
    meta = json.loads((tmp_path / "rec_meta.json").read_text())
    assert meta["edges"] == [list(e) for e in graph.edges]
    assert load_record(tmp_path, "rec").adjacency == graph
