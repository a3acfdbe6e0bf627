from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheafcast.data import (load_windows, make_perturbed_windows, make_windows,
                            save_windows)
from sheafcast.errors import InfeasiblePlacementError, SeriesTooShortError
from sheafcast.graphs import generate_small_world
from sheafcast.neurosim import LifParams, PerturbationSpec, simulate


def _series(n=4, t=200, seed=0):
    return np.random.default_rng(seed).normal(size=(n, t)) * 3.0 + 5.0


def _unscaled(z, raw, t_stats, floor=0.0):
    """`z` mapped back by the per-row mean and std of `raw[:, :t_stats]`, a
    constant row's std counting as 1 and any other's as at least `floor`."""
    mean, std = raw[:, :t_stats].mean(axis=1), raw[:, :t_stats].std(axis=1)
    std = np.where(std <= 1e-12, 1.0, np.maximum(std, floor))
    return z * std[:, None] + mean[:, None]


def test_stride_40_layout_gives_5_windows():
    windows = make_windows(_series(), t_ctx=30, t_hor=10, stride=40)
    assert len(windows) == 5


@settings(max_examples=40, deadline=None)
@given(t=st.integers(40, 300), stride=st.integers(1, 60))
def test_window_count_formula(t, stride):
    series = np.zeros((2, t))
    windows = make_windows(series, t_ctx=30, t_hor=10, stride=stride)
    assert len(windows) == (t - 40) // stride + 1


def test_block_is_zscored_per_node():
    for win in make_windows(_series(), 30, 10, 40):
        block = np.concatenate([win.context, win.horizon], axis=1)
        np.testing.assert_allclose(block.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(block.std(axis=1), 1.0, atol=1e-6)


def test_constant_row_maps_to_zeros_without_nan():
    series = _series(n=3)
    series[1] = 7.5
    for win in make_windows(series, 30, 10, 40):
        assert np.all(win.context[1] == 0.0)
        assert np.all(win.horizon[1] == 0.0)
        assert np.all(np.isfinite(win.context))


def test_denormalization_recovers_raw_slice():
    """A window keeps no statistics; the per-node mean and std of its raw
    slice map it back to that slice."""
    series = _series(seed=3)
    windows = make_windows(series, 30, 10, 40)
    for i, win in enumerate(windows):
        raw = series[:, i * 40:i * 40 + 40]
        block = np.concatenate([win.context, win.horizon], axis=1)
        np.testing.assert_allclose(_unscaled(block, raw, 40), raw, rtol=1e-6)


def test_horizon_follows_context_without_overlap():
    series = np.arange(200, dtype=float)[None, :].repeat(2, axis=0)
    win = make_windows(series, 30, 10, 40)[0]
    block = np.concatenate([win.context, win.horizon], axis=1)
    np.testing.assert_allclose(block[0], (np.arange(40.0) - 19.5) / np.arange(40.0).std())


def test_series_too_short():
    with pytest.raises(SeriesTooShortError):
        make_windows(np.zeros((2, 39)), 30, 10, 40)


# ----------------------------------------------------------------------
# perturbation-straddling windows
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def record_pair():
    graph = generate_small_world(8, 4, 0.1, seed=1)
    spec = PerturbationSpec(neuron=3, onset_ms=900.0, duration_ms=300.0)
    pre = simulate(graph, LifParams(), seed=5)
    post = simulate(graph, LifParams(), seed=5, perturbation=spec)
    return pre, post, spec


def test_onset_sits_at_90_percent_of_context(record_pair):
    pre, post, spec = record_pair
    wins = make_perturbed_windows(pre, post, spec, t_ctx=30, t_hor=10)
    assert len(wins) == 1
    assert wins[0].perturbation_onset_index == 27
    assert wins[0].is_perturbed


def _straddling_slices(pre, post, spec):
    """The 27 pre-onset bins of `pre`, then the 13 bins of `post` from the
    onset: the raw block of the onset-straddling window (t_ctx 30, t_hor 10)."""
    onset_bin = int(spec.onset_ms // 10.0)
    return np.concatenate([pre.rates[:, onset_bin - 27:onset_bin],
                           post.rates[:, onset_bin:onset_bin + 13]], axis=1)


def test_pre_onset_context_equals_unperturbed_slice(record_pair):
    pre, post, spec = record_pair
    win = make_perturbed_windows(pre, post, spec, t_ctx=30, t_hor=10)[0]
    onset_bin = int(spec.onset_ms // 10.0)
    start = onset_bin - 27
    raw = _unscaled(np.concatenate([win.context, win.horizon], axis=1),
                    _straddling_slices(pre, post, spec), 30, floor=0.1)
    np.testing.assert_allclose(raw[:, :27],
                               pre.rates[:, start:start + 27],
                               rtol=1e-9, atol=1e-12)
    # at/after onset the context comes from the perturbed record
    np.testing.assert_allclose(raw[:, 27:30],
                               post.rates[:, onset_bin:onset_bin + 3],
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(raw[:, 30:],
                               post.rates[:, onset_bin + 3:onset_bin + 13],
                               rtol=1e-9, atol=1e-12)


def test_normalization_uses_context_statistics_only(record_pair):
    pre, post, spec = record_pair
    win = make_perturbed_windows(pre, post, spec, t_ctx=30, t_hor=10)[0]
    # rows that were not constant in the context
    live = _straddling_slices(pre, post, spec)[:, :30].std(axis=1) > 1e-12
    np.testing.assert_allclose(win.context[live].mean(axis=1), 0.0, atol=1e-9)
    np.testing.assert_allclose(win.context[live].std(axis=1), 1.0, atol=1e-9)


def test_a_near_silent_context_row_keeps_a_bounded_z(record_pair):
    """A row all but silent in the context (std 0.001 Hz) whose horizon
    fires: its std counts as 0.1 Hz, so every |z| stays within
    |x - mean| / 0.1 (unfloored, row 0's horizon would reach |z| 40,000),
    and de-normalization gives the block back to rounding."""
    pre, post, spec = record_pair
    onset_bin = int(spec.onset_ms // 10.0)
    start = onset_bin - 27
    pre_rates, post_rates = pre.rates.copy(), post.rates.copy()
    quiet = 0.002 + 0.001 * (-1.0) ** np.arange(30)
    pre_rates[0, start:onset_bin] = quiet[:27]
    post_rates[0, onset_bin:onset_bin + 3] = quiet[27:]
    post_rates[0, onset_bin + 3:onset_bin + 13] = 40.0
    win = make_perturbed_windows(replace(pre, rates=pre_rates),
                                 replace(post, rates=post_rates), spec, t_ctx=30, t_hor=10)[0]
    block = np.concatenate([pre_rates[:, start:onset_bin],
                            post_rates[:, onset_bin:onset_bin + 13]], axis=1)
    assert block[0, :30].std() == pytest.approx(0.001)
    z = np.concatenate([win.context, win.horizon], axis=1)
    mean = block[:, :30].mean(axis=1)[:, None]
    np.testing.assert_allclose(z[0], (block[0] - mean[0]) / 0.1, rtol=1e-12)
    assert np.all(np.abs(z) <= np.abs(block - mean) / 0.1)
    np.testing.assert_allclose(_unscaled(z, block, 30, floor=0.1), block,
                               rtol=1e-12, atol=1e-12)


def test_infeasible_placement_at_series_edge(record_pair):
    pre, post, _ = record_pair
    early = PerturbationSpec(neuron=3, onset_ms=200.0, duration_ms=300.0)
    with pytest.raises(InfeasiblePlacementError):
        make_perturbed_windows(pre, post, early, t_ctx=30, t_hor=10)
    late = PerturbationSpec(neuron=3, onset_ms=1600.0, duration_ms=300.0)
    with pytest.raises(InfeasiblePlacementError):
        make_perturbed_windows(pre, post, late, t_ctx=30, t_hor=60)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_windows_round_trip(tmp_path):
    windows = make_windows(_series(seed=8), 30, 10, 40, source_id="s0")
    manifest = save_windows(tmp_path, windows)
    loaded = load_windows(manifest)
    assert len(loaded) == len(windows)
    for a, b in zip(windows, loaded):
        np.testing.assert_allclose(a.context, b.context)
        np.testing.assert_allclose(a.horizon, b.horizon)
        assert a.source_id == b.source_id
        assert a.perturbation_onset_index == b.perturbation_onset_index
