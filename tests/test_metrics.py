import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sheafcast import metrics
from sheafcast.errors import InvalidParameterError, ShapeMismatchError
from sheafcast.metrics import _dtw_rows, dtw_normalized, evaluate, mae, mse

from oracles import dtw_bruteforce, dtw_layered_1d, dtw_rows_layered


def test_pointwise_metrics_examples():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mse(a, a) == 0.0
    assert mae(a, a) == 0.0
    assert mse(a + 1.0, a) == 1.0
    assert mae(a + 0.5, a) == 0.5
    assert mse(np.array([0.0, 2.0]), np.zeros(2)) == 2.0
    assert mae(np.array([1.0, -1.0]), np.zeros(2)) == 1.0
    with pytest.raises(ShapeMismatchError):
        mse(np.zeros(3), np.zeros(4))


def test_dtw_identity_and_singletons():
    rng = np.random.default_rng(0)
    seq = rng.normal(size=9)
    assert dtw_normalized(seq, seq) == 0.0
    assert dtw_normalized([1.5], [-0.5]) == 2.0


def test_dtw_two_by_two_example():
    got = dtw_normalized([0.0, 0.0], [0.0, 1.0])
    assert got == dtw_bruteforce([0.0, 0.0], [0.0, 1.0])


def test_dtw_matches_bruteforce_on_random_short_pairs():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a = rng.choice([-1.0, 0.0, 1.0], size=rng.integers(1, 7))
        b = rng.choice([-1.0, 0.0, 1.0], size=rng.integers(1, 7))
        assert dtw_normalized(a, b) == dtw_bruteforce(a, b)


def test_dtw_exhaustive_tiny_alphabet():
    values = [-1.0, 0.0, 1.0]
    seqs = [np.array(s) for n in (1, 2, 3)
            for s in itertools.product(values, repeat=n)]
    for a in seqs:
        for b in seqs:
            assert dtw_normalized(a, b) == dtw_bruteforce(a, b)


@settings(max_examples=150, deadline=None)
@given(a=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
       b=st.lists(st.floats(-5, 5), min_size=1, max_size=12))
def test_dtw_symmetry_and_nonnegativity(a, b):
    d_ab = dtw_normalized(a, b)
    d_ba = dtw_normalized(b, a)
    assert d_ab == d_ba
    assert d_ab >= 0.0


def test_dtw_multivariate_is_per_node_average():
    a = np.array([[0.0, 1.0, 0.0], [2.0, 2.0, 2.0]])
    b = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    expected = 0.5 * (dtw_normalized(a[0], b[0]) + dtw_normalized(a[1], b[1]))
    assert dtw_normalized(a, b) == expected


def test_one_sample_shift_hurts_dtw_less_than_mse():
    t = np.arange(30)
    wave = np.sin(2 * np.pi * t / 10.0)
    shifted = np.sin(2 * np.pi * (t - 1) / 10.0)
    mse_increase = mse(shifted, wave) - mse(wave, wave)
    dtw_increase = dtw_normalized(shifted, wave) - dtw_normalized(wave, wave)
    assert dtw_increase <= 0.5 * mse_increase


def test_dtw_rejects_empty_or_nonfinite():
    with pytest.raises(InvalidParameterError):
        dtw_normalized([], [1.0])
    with pytest.raises(InvalidParameterError):
        dtw_normalized([np.nan], [1.0])


def test_evaluate_aggregation():
    exact = [np.zeros((2, 4)) for _ in range(3)]
    report = evaluate(exact, exact)
    assert (report.mse, report.mae, report.dtw) == (0.0, 0.0, 0.0)
    assert report.n_windows == 3

    single = evaluate([np.ones((1, 2))], [np.zeros((1, 2))])
    assert single.mse_std == 0.0 and single.mae_std == 0.0

    two = evaluate([np.zeros(4), np.full(4, np.sqrt(2.0))],
                   [np.zeros(4), np.zeros(4)])
    np.testing.assert_allclose(two.mse, 1.0)

    with pytest.raises(InvalidParameterError):
        evaluate([], [])


# ----------------------------------------------------------------------
# the batched kernel against the per-row layered DP
# ----------------------------------------------------------------------
def _assert_rows_match_oracle(a, b):
    want = np.array([dtw_layered_1d(a[r], b[r]) for r in range(len(a))])
    assert np.array_equal(_dtw_rows(a, b), want)
    assert dtw_normalized(a, b) == np.mean(want)


def test_batched_dtw_equals_oracle_on_tie_heavy_rows():
    rng = np.random.default_rng(11)
    for _ in range(400):
        rows = int(rng.integers(1, 6))
        a = rng.choice([-1.0, 0.0, 1.0], size=(rows, int(rng.integers(1, 9))))
        b = rng.choice([-1.0, 0.0, 1.0], size=(rows, int(rng.integers(1, 9))))
        _assert_rows_match_oracle(a, b)


def test_batched_dtw_equals_oracle_on_real_rows_of_unequal_length():
    rng = np.random.default_rng(12)
    for _ in range(40):
        rows = int(rng.integers(1, 5))
        n, m = rng.integers(1, 61, size=2)
        _assert_rows_match_oracle(rng.normal(size=(rows, n)),
                                  rng.normal(size=(rows, m)) * 2.0)


def test_batched_dtw_single_sample_sides():
    rng = np.random.default_rng(13)
    for n, m in ((1, 1), (1, 7), (9, 1)):
        _assert_rows_match_oracle(rng.normal(size=(4, n)), rng.normal(size=(4, m)))
    assert dtw_normalized([2.0], [0.5, 1.0, 3.0]) == dtw_layered_1d([2.0], [0.5, 1.0, 3.0])


def test_batched_dtw_at_the_forecast_long_shape():
    rng = np.random.default_rng(14)
    _assert_rows_match_oracle(rng.normal(size=(100, 50)), rng.normal(size=(100, 50)))


def test_batched_dtw_does_not_depend_on_memory_order():
    # forecasts reach `evaluate` C-ordered, the CSVs `metrics` reads come
    # back Fortran-ordered
    rng = np.random.default_rng(16)
    a, b = rng.normal(size=(100, 50)), rng.normal(size=(100, 40))
    want = _dtw_rows(a, b)
    for a_, b_ in ((np.asfortranarray(a), np.asfortranarray(b)),
                   (a, np.asfortranarray(b)), (np.asfortranarray(a), b)):
        assert np.array_equal(_dtw_rows(a_, b_), want)


def test_batched_dtw_rejects_bad_rows():
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
    a[3, 2] = np.nan
    with pytest.raises(InvalidParameterError):
        dtw_normalized(a, b)
    with pytest.raises(ShapeMismatchError):
        dtw_normalized(np.zeros((3, 4)), np.zeros((2, 4)))
    with pytest.raises(ShapeMismatchError):
        dtw_normalized(np.zeros(4), np.zeros((1, 4)))


def test_empty_windows_raise_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            dtw_normalized(np.zeros((0, 5)), np.zeros((0, 5)))
        with pytest.raises(InvalidParameterError):
            _dtw_rows(np.zeros((0, 5)), np.zeros((0, 3)))
        with pytest.raises(InvalidParameterError):
            evaluate([np.zeros((0, 5))], [np.zeros((0, 5))])
        with pytest.raises(InvalidParameterError):
            evaluate([np.zeros((3, 0))], [np.zeros((3, 0))])


# ----------------------------------------------------------------------
# the anti-diagonal sweep against the layered DP it replaced
# ----------------------------------------------------------------------
def _laid_out(x, layout):
    """`x` with the same values in C order, Fortran order, or as a view
    with a column stride of two samples."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return np.ascontiguousarray(x)


@st.composite
def _row_pairs(draw):
    rows = draw(st.integers(1, 6))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = draw(st.sampled_from([st.sampled_from([-1.0, 0.0, 1.0]),
                                   st.floats(-5, 5)]))
    a = draw(arrays(np.float64, (rows, n), elements=values))
    b = draw(arrays(np.float64, (rows, m), elements=values))
    return (_laid_out(a, draw(st.sampled_from(["C", "F", "strided"]))),
            _laid_out(b, draw(st.sampled_from(["C", "F", "strided"]))))


@settings(max_examples=300, deadline=None)
@given(pair=_row_pairs())
@example(pair=(np.array([[0.5]]), np.array([[-1.0]])))
@example(pair=(np.array([[0.0], [1.0]]), np.array([[1.0, 0.0, 0.0], [1.0, 1.0, -1.0]])))
@example(pair=(np.array([[1.0, 0.0, -1.0, 0.0, 1.0]]), np.array([[0.0, 1.0]])))
def test_sweep_equals_the_layered_dp_bit_for_bit(pair):
    a, b = pair
    assert np.array_equal(_dtw_rows(a, b), dtw_rows_layered(a, b))


@pytest.mark.parametrize("t_hor", [50, 10])
def test_sweep_equals_the_layered_dp_at_forecast_shapes(t_hor):
    rng = np.random.default_rng(17 + t_hor)
    for draw in (rng.normal, lambda size: rng.choice([-1.0, 0.0, 1.0], size=size)):
        a, b = draw(size=(100, t_hor)), draw(size=(100, t_hor))
        assert np.array_equal(_dtw_rows(a, b), dtw_rows_layered(a, b))


# the layered DP's tracemalloc peak for one (100, 50) x (100, 50) call
_LAYERED_PEAK_100x50 = 6_358_824


def test_sweep_peak_memory_at_the_forecast_long_shape(traced_memory):
    """Three (51, 51, 100) diagonal buffers stand in for the layered DP's two
    (51, 51, 100) layers and its (50, 50, 100) cost array; a kernel that
    also kept a skewed (n + m - 1, n, rows) cost (+3.96 MB) would fail."""
    rng = np.random.default_rng(18)
    a, b = rng.normal(size=(100, 50)), rng.normal(size=(100, 50))
    traced_memory.rebase()
    _dtw_rows(a, b)
    assert traced_memory()[1] <= 1.05 * _LAYERED_PEAK_100x50


def test_evaluate_scores_each_window_through_the_module_attribute(monkeypatch):
    """`evaluate` calls `metrics.dtw_normalized` by module name once per
    window; the benchmark's `metrics.dtw_s` and `metrics.dtw_calls` wrap
    that name."""
    calls = []

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return dtw_normalized(a, b)

    monkeypatch.setattr(metrics, "dtw_normalized", counted)
    rng = np.random.default_rng(19)
    windows = [rng.normal(size=(4, 6)) for _ in range(5)]
    report = evaluate(windows, [w[:, ::-1] for w in windows])
    assert calls == [((4, 6), (4, 6))] * 5
    assert report.n_windows == 5
