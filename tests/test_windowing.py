import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhorizon.windowing import WindowingError, cut_windows, make_windows

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
    assert np.array_equal(w.X, np.stack([x.features for x in samples]))
    assert w.horizons.tolist() == [x.horizon for x in samples]
    assert w.y.tolist() == [x.label for x in samples]
    assert w.ends.tolist() == [x.window_start + 5 for x in samples]
    assert w.source.tolist() == [0] * 25 + [1] * 14 + [3] * 2


def test_cut_windows_empty_stack():
    w = cut_windows(np.empty((0, 30, 26)), np.empty(0), time_channel=False)
    assert w.X.shape == (0, 6, 26)
    assert w.y.shape == w.horizons.shape == w.ends.shape == (0,)
