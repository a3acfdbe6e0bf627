"""Property tests: every artifact the package writes reads back unchanged."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sheafcast.data import TrajectoryWindow, load_windows, save_windows
from sheafcast.graphs import BrainGraph
from sheafcast.model import ModelConfig
from sheafcast.neurosim import (LifParams, PerturbationSpec, SimulationRecord,
                                load_record, save_record)
from sheafcast.training import ModelCheckpoint, load_checkpoint, save_checkpoint

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e4)


def _matrix(n_rows, n_cols, elements=finite):
    return hnp.arrays(np.float64, (n_rows, n_cols), elements=elements)


@st.composite
def records(draw):
    n = draw(st.integers(1, 5))
    bins = draw(st.integers(1, 6))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    params = LifParams(membrane_tau=draw(positive),
                       poisson_rate_hz=draw(st.floats(0.0, 1e4)),
                       duration_ms=draw(positive))
    perturbation = draw(st.none() | st.builds(
        PerturbationSpec, neuron=st.integers(0, n - 1),
        onset_ms=finite, duration_ms=finite))
    return SimulationRecord(
        rates=draw(_matrix(n, bins)),
        adjacency=BrainGraph(n_nodes=n, edges=tuple(edges),
                             seed=draw(st.integers(0, 2**32))),
        bin_edges_ms=draw(hnp.arrays(np.float64, bins + 1, elements=finite)),
        seed=draw(st.integers(0, 2**32)), params=params,
        perturbation=perturbation)


@settings(max_examples=40, deadline=None)
@given(record=records())
def test_record_round_trip(record):
    with tempfile.TemporaryDirectory() as tmp:
        save_record(tmp, "rec", record)
        back = load_record(tmp, "rec")
    assert np.array_equal(back.rates, record.rates)
    assert back.rates.shape == record.rates.shape
    assert back.adjacency == record.adjacency
    assert np.array_equal(back.bin_edges_ms, record.bin_edges_ms)
    assert (back.seed, back.params, back.perturbation) == (
        record.seed, record.params, record.perturbation)


@st.composite
def window_sets(draw):
    n = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(0, 3))):
        t_ctx, t_hor = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        out.append(TrajectoryWindow(
            context=draw(_matrix(n, t_ctx)), horizon=draw(_matrix(n, t_hor)),
            time_step=draw(finite),
            norm_mean=draw(hnp.arrays(np.float64, n, elements=finite)),
            norm_std=draw(hnp.arrays(np.float64, n, elements=finite)),
            source_id=draw(st.text(max_size=12)),
            perturbation_onset_index=draw(st.none() | st.integers(0, t_ctx))))
    return out


@settings(max_examples=40, deadline=None)
@given(windows=window_sets())
def test_windows_round_trip(windows):
    with tempfile.TemporaryDirectory() as tmp:
        back = load_windows(save_windows(tmp, windows))
    assert len(back) == len(windows)
    for got, want in zip(back, windows):
        for field in ("context", "horizon", "norm_mean", "norm_std"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert getattr(got, field).shape == getattr(want, field).shape
        assert (got.time_step, got.source_id, got.perturbation_onset_index) == (
            want.time_step, want.source_id, want.perturbation_onset_index)


@st.composite
def checkpoints(draw):
    shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3)
    names = draw(st.lists(st.text("abcdefgh.", min_size=1, max_size=8),
                          min_size=1, max_size=4, unique=True))
    arrays = {name: draw(hnp.arrays(np.float64, tuple(draw(shapes)), elements=finite))
              for name in names}
    edges = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                          max_size=5))
    return ModelCheckpoint(
        arrays=arrays,
        model_config=ModelConfig(stalk_dim=draw(st.integers(1, 8)),
                                 rounds=draw(st.integers(0, 3)),
                                 normalize=draw(st.booleans()),
                                 dt=draw(positive)),
        training_config={"lr": draw(finite), "seed": draw(st.integers(0, 99))},
        prior_edges=edges,
        prior_scores=draw(st.lists(finite, min_size=len(edges),
                                   max_size=len(edges))),
        prior_meta={"lag_order": draw(st.integers(1, 5)),
                    "top_k": draw(st.integers(1, 8))},
        n_nodes=10, val_loss=draw(finite), epoch=draw(st.integers(0, 50)),
        sources=draw(st.lists(st.text(max_size=6), max_size=4)),
        trained_on_perturbed=draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(ckpt=checkpoints())
def test_checkpoint_round_trip(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ckpt, f"{tmp}/ck")
        back = load_checkpoint(f"{tmp}/ck")
    assert sorted(back.arrays) == sorted(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        assert back.arrays[name].dtype == np.float64
        assert back.arrays[name].shape == arr.shape, name
        assert np.array_equal(back.arrays[name], arr), name
    assert back.model_config == ckpt.model_config
    assert back.prior_edges == [tuple(e) for e in ckpt.prior_edges]
    assert back.sources == sorted(ckpt.sources)
    for field in ("training_config", "prior_scores", "prior_meta", "n_nodes",
                  "val_loss", "epoch", "trained_on_perturbed"):
        assert getattr(back, field) == getattr(ckpt, field), field


@settings(max_examples=40, deadline=None)
@given(ckpt=checkpoints())
def test_checkpoint_npz_matches_np_savez(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ckpt, f"{tmp}/ck")
        np.savez(f"{tmp}/oracle.npz", **{name: ckpt.arrays[name]
                                         for name in sorted(ckpt.arrays)})
        assert Path(f"{tmp}/ck.npz").read_bytes() == Path(f"{tmp}/oracle.npz").read_bytes()
