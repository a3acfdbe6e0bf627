"""Property tests: every artifact the package writes reads back unchanged."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sheafcast.data import TrajectoryWindow, load_windows, make_windows, save_windows
from sheafcast.graphs import BrainGraph
from sheafcast.model import ModelConfig
from sheafcast.neurosim import (LifParams, PerturbationSpec, SimulationRecord,
                                load_record, save_record)
from sheafcast.training import ModelCheckpoint, load_checkpoint, save_checkpoint

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e4)
# values a text round trip or a careless binary one gets wrong
edge_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                               1e308, -1e308, 1.7976931348623157e308])
values = edge_values | finite


def _matrix(n_rows, n_cols, elements=finite):
    return hnp.arrays(np.float64, (n_rows, n_cols), elements=elements)


@st.composite
def blocks(draw, n_rows, n_cols):
    """An (n_rows, n_cols) float64 block, C-ordered, Fortran-ordered or a
    strided view of a larger array."""
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "C":
        return draw(_matrix(n_rows, n_cols, values))
    if layout == "F":
        return draw(_matrix(n_cols, n_rows, values)).T
    return draw(_matrix(2 * n_rows, 3 * n_cols, values))[::2, ::3]


def _bits(a):
    """The bytes of `a` in logical (C) order: equal for bit-equal values,
    so -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).tobytes()


def _assert_loaded_layout(a, n_cols):
    """The documented layout of a loaded block: a C-ordered (nodes, bins)
    float64 array, or a column slice of one (a window's context or horizon,
    whose rows are `n_cols` apart)."""
    assert a.dtype == np.float64 and a.strides == (8 * n_cols, 8), a.strides


@st.composite
def records(draw, bins=st.integers(1, 6), rates=blocks):
    """A record of 1 to 5 nodes, `bins` bins and `rates(nodes, bins)`."""
    n = draw(st.integers(1, 5))
    bins = draw(bins)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # bins of the drawn width that tile the duration and hold at least one
    # 0.1 ms step, as `load_record` requires
    width = draw(st.floats(min_value=0.1, max_value=1e4))
    params = LifParams(membrane_tau=draw(positive),
                       poisson_rate_hz=draw(st.floats(0.0, 1e4)),
                       duration_ms=bins * width)
    perturbation = draw(st.none() | st.builds(
        PerturbationSpec, neuron=st.integers(0, n - 1),
        onset_ms=finite, duration_ms=finite))
    return SimulationRecord(
        rates=draw(rates(n, bins)),
        adjacency=BrainGraph(n_nodes=n, edges=tuple(edges),
                             seed=draw(st.integers(0, 2**32))),
        bin_ms=width,
        seed=draw(st.integers(0, 2**32)), params=params,
        perturbation=perturbation)


@settings(max_examples=40, deadline=None)
@given(record=records())
def test_record_round_trip(record):
    with tempfile.TemporaryDirectory() as tmp:
        save_record(tmp, "rec", record)
        back = load_record(tmp, "rec")
    assert back.rates.shape == record.rates.shape
    assert _bits(back.rates) == _bits(record.rates)
    _assert_loaded_layout(back.rates, record.rates.shape[1])
    assert back.rates.flags.c_contiguous
    assert back.adjacency == record.adjacency
    assert back.bin_ms == record.bin_ms
    assert (back.seed, back.params, back.perturbation) == (
        record.seed, record.params, record.perturbation)


# C-ordered records the package holds (rates in Hz), long enough that a
# row's sum is pairwise, where a Fortran-ordered copy sums in another order
simulated = records(bins=st.integers(20, 300),
                    rates=lambda n, bins: _matrix(n, bins, st.floats(0.0, 1e3)))


@settings(max_examples=40, deadline=None)
@given(record=simulated, t_ctx=st.integers(1, 12), t_hor=st.integers(1, 8),
       stride=st.integers(1, 40))
def test_windows_of_a_loaded_record_are_those_of_the_saved_one(record, t_ctx, t_hor, stride):
    """A command's windows, cut from a record it loaded, are bit for bit the
    windows the library cuts from the record in memory."""
    with tempfile.TemporaryDirectory() as tmp:
        save_record(tmp, "rec", record)
        back = load_record(tmp, "rec")
    assert back.rates.flags.c_contiguous and back.rates.shape == record.rates.shape
    for got, want in zip(*(make_windows(r.rates, t_ctx, t_hor, stride) for r in (back, record)),
                         strict=True):
        for field in ("context", "horizon"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


@st.composite
def window_sets(draw):
    n = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(0, 3))):
        t_ctx, t_hor = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        out.append(TrajectoryWindow(
            context=draw(blocks(n, t_ctx)), horizon=draw(blocks(n, t_hor)),
            time_step=draw(finite),
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
        for field in ("context", "horizon"):
            assert getattr(got, field).shape == getattr(want, field).shape
            assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
        for block in (got.context, got.horizon):
            _assert_loaded_layout(block, got.context.shape[1] + got.horizon.shape[1])
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
def test_checkpoint_arrays_match_np_save(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ckpt, f"{tmp}/ck")
        assert sorted(p.name for p in Path(f"{tmp}/ck").glob("*.npy")) == sorted(
            f"{name}.npy" for name in ckpt.arrays)
        for name, arr in ckpt.arrays.items():
            np.save(f"{tmp}/oracle.npy", arr)
            assert (Path(f"{tmp}/ck/{name}.npy").read_bytes()
                    == Path(f"{tmp}/oracle.npy").read_bytes()), name
