import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from fedhorizon.windowing import WindowingError, WindowSet, cut_windows, \
    make_windows

from conftest import make_stay


def test_non_septic_stay_yields_25_descending_horizons():
    samples = make_windows(make_stay(), time_channel=False)
    assert len(samples) == 25
    assert samples[0].horizon == 25
    assert samples[-1].horizon == 1
    assert [s.horizon for s in samples] == list(range(25, 0, -1))
    assert all(s.label == 0 for s in samples)


def test_windows_slice_the_grid():
    stay = make_stay()
    stay.grid = np.arange(30 * 26, dtype=float).reshape(30, 26)
    samples = make_windows(stay, time_channel=False)
    assert np.array_equal(samples[3].features, stay.grid[3:9])


def test_time_channel_appended():
    samples = make_windows(make_stay(), time_channel=True)
    assert samples[0].features.shape == (6, 27)
    assert np.all(samples[0].features[:, -1] == 0.0)
    assert np.all(samples[24].features[:, -1] == 1.0)


def test_septic_onset_12_excludes_windows_touching_onset():
    # input data [t, t+6) must end strictly before onset
    samples = make_windows(make_stay(onset=12.0))
    assert [s.window_start for s in samples] == [0, 1, 2, 3, 4, 5]
    assert all(s.label == 1 for s in samples)


def test_septic_onset_at_or_before_six_yields_nothing():
    assert make_windows(make_stay(onset=5.5)) == []
    assert make_windows(make_stay(onset=6.0)) == []


def test_positive_sample_count_law():
    # ceil(onset) - 6 positive samples for onset in (6, 30]
    for onset in [x / 2 for x in range(13, 61)]:
        n = len(make_windows(make_stay(onset=onset)))
        assert n == math.ceil(onset) - 6, onset


def test_unimputed_stay_rejected():
    stay = make_stay(imputed=False)
    with pytest.raises(WindowingError):
        make_windows(stay)


@given(st.one_of(st.none(), st.floats(min_value=6.01, max_value=30.0)))
@settings(max_examples=50, deadline=None)
def test_horizons_contiguous_descending_from_25(onset):
    samples = make_windows(make_stay(onset=onset))
    horizons = [s.horizon for s in samples]
    assert horizons == list(range(25, 25 - len(horizons), -1))
    if onset is not None:
        for s in samples:
            assert s.window_start + 6 < onset  # never overlaps onset


def test_cohort_sample_count_is_sum_of_per_stay_counts():
    stays = [make_stay("a"), make_stay("b", onset=20.0), make_stay("c", onset=8.5)]
    counts = [len(make_windows(s)) for s in stays]
    assert counts == [25, 14, 3]
    total = sum(len(make_windows(s)) for s in stays)
    assert total == sum(counts)


def test_cut_windows_stack_equals_per_stay_windows():
    rng = np.random.default_rng(0)
    stays = [make_stay("a"), make_stay("b", onset=20.0), make_stay("c", onset=5.0),
             make_stay("d", onset=7.5)]
    for s in stays:
        s.grid = rng.normal(size=s.grid.shape)
    onsets = np.array([np.inf, 20.0, 5.0, 7.5])
    w = cut_windows(np.stack([s.grid for s in stays]), onsets)
    samples = [x for s in stays for x in make_windows(s)]
    assert w.X.shape == (len(samples), 6, 27)
    assert np.array_equal(w.X[:], np.stack([x.features for x in samples]))
    assert w.horizons.tolist() == [x.horizon for x in samples]
    assert w.y.tolist() == [x.label for x in samples]
    assert w.ends.tolist() == [x.window_start + 5 for x in samples]
    assert w.source.tolist() == [0] * 25 + [1] * 14 + [3] * 2


def test_cut_windows_empty_stack():
    w = cut_windows(np.empty((0, 30, 26)), np.empty(0), time_channel=False)
    assert w.X.shape == w.X[:].shape == (0, 6, 26)
    assert w.y.shape == w.horizons.shape == w.ends.shape == (0,)


def _sliding_view_windows(grids, onsets, time_channel):
    """The cut cut_windows replaced: boolean-index a (N, 25, 6, F) strided
    view of every window, then copy the result into the output."""
    n_features = grids.shape[2]
    keep = np.arange(25) + 6 < onsets[:, None]
    source, start = np.nonzero(keep)
    windows = sliding_window_view(grids, 6, axis=1).swapaxes(2, 3)
    X = np.empty((start.size, 6, n_features + int(time_channel)))
    X[:, :, :n_features] = windows[keep]
    if time_channel:
        X[:, :, n_features] = (start / 24)[:, None]
    return (X, np.isfinite(onsets)[source].astype(np.float64),
            (25 - start).astype(np.int64), (start + 5).astype(np.float64),
            source)


@pytest.mark.parametrize("time_channel", [True, False])
@pytest.mark.parametrize("case", ["mixed", "non_contiguous", "no_windows",
                                  "no_stays"])
def test_cut_windows_equals_sliding_view_cut(case, time_channel):
    rng = np.random.default_rng(7)
    grids = rng.normal(size=(8, 30, 26))
    onsets = np.array([np.inf, 20.0, 5.0, 7.5, np.inf, 30.0, 6.0, 12.25])
    if case == "non_contiguous":
        grids, onsets = grids[::2], onsets[::2]
        assert not grids.flags.c_contiguous
    elif case == "no_windows":
        grids, onsets = grids[:3], np.array([6.0, 2.5, 0.5])
    elif case == "no_stays":
        grids, onsets = grids[:0], onsets[:0]
    w = cut_windows(grids, onsets, time_channel)
    want = _sliding_view_windows(grids, onsets, time_channel)
    for got, ref in zip((w.X[:], w.y, w.horizons, w.ends, w.source), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    assert w.X[:].flags.c_contiguous
    if case == "no_windows":
        assert w.X.shape == (0, 6, 26 + time_channel)


def _eager_windows(grids, onsets, time_channel):
    """The cut that wrote every window out as its own (6, C) block: one
    gather of each kept window's rows, then the time channel."""
    n_features = grids.shape[2]
    keep = np.arange(25) + 6 < onsets[:, None]
    source, start = np.nonzero(keep)
    rows = grids.reshape(-1, n_features)
    if time_channel:
        rows = np.concatenate([rows, np.zeros((len(rows), 1))], axis=1)
    first = source * 30 + start
    X = np.take(rows, first[:, None] + np.arange(6), axis=0)
    if time_channel:
        X[:, :, n_features] = (start / 24)[:, None]
    return X


def _stack(seed, n, grid_case):
    rng = np.random.default_rng(seed)
    grids = rng.normal(size=(2 * n, 30, 26))
    onsets = rng.choice([np.inf, 30.0, 20.0, 12.25, 7.5, 6.0, 5.0], 2 * n)
    if grid_case == "non_contiguous":
        grids, onsets = grids[::2], onsets[::2]
        assert not grids.flags.c_contiguous
    else:
        grids, onsets = grids[:n], onsets[:n]
    return grids, onsets


def _keys(m, rng):
    """Every kind of key a window set takes, for a set of m windows."""
    return [0, m // 2, m - 1, -1, -m, slice(None), slice(3, 40, 5),
            slice(None, None, -3), slice(10, 3),
            rng.integers(0, m, 50), rng.permutation(m)[:20],
            np.array([-1, 0, -m]), rng.random(m) < 0.3,
            np.zeros(m, dtype=bool), np.array([], dtype=np.intp)]


def _assert_same_windows(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("time_channel", [True, False])
@pytest.mark.parametrize("grid_case", ["contiguous", "non_contiguous"])
class TestWindowSet:
    def test_gathers_equal_eager_cut(self, time_channel, grid_case):
        grids, onsets = _stack(3, 9, grid_case)
        X = cut_windows(grids, onsets, time_channel).X
        want = _eager_windows(grids, onsets, time_channel)
        assert len(X) == len(want) > 40
        assert X.shape == want.shape
        for key in _keys(len(X), np.random.default_rng(1)):
            _assert_same_windows(X[key], want[key])

    def test_select_shares_rows(self, time_channel, grid_case):
        grids, onsets = _stack(4, 9, grid_case)
        X = cut_windows(grids, onsets, time_channel).X
        want = _eager_windows(grids, onsets, time_channel)
        rng = np.random.default_rng(2)
        for sel in (slice(5, None, 2), rng.permutation(len(X))[:60],
                    rng.random(len(X)) < 0.5, slice(0, 0)):
            part = X.select(sel)
            assert part.rows is X.rows
            assert len(part) == len(want[sel])
            _assert_same_windows(part[:], want[sel])
            if len(part):
                for key in _keys(len(part), rng):
                    _assert_same_windows(part[key], want[sel][key])

    def test_concatenate_joins_rows(self, time_channel, grid_case):
        stacks = [_stack(seed, n, grid_case) for seed, n in ((5, 9), (6, 4),
                                                             (7, 7))]
        sets = [cut_windows(g, o, time_channel).X for g, o in stacks]
        wants = [_eager_windows(g, o, time_channel) for g, o in stacks]
        assert WindowSet.concatenate(sets[:1]) is sets[0]
        rng = np.random.default_rng(3)
        mask = rng.random(len(sets[2])) < 0.5
        joined = WindowSet.concatenate([sets[0].select(slice(2, None, 3)),
                                        sets[1], sets[2].select(mask)])
        want = np.concatenate([wants[0][2::3], wants[1], wants[2][mask]])
        assert joined.rows.shape[0] == sum(len(s.rows) for s in sets)
        assert joined.shape == want.shape
        for key in [slice(None)] + _keys(len(joined), rng):
            _assert_same_windows(joined[key], want[key])
