"""Fast tests of the benchmark's own reference computations.

    python3 -m pytest perfbench/test_reference.py -q
"""

import itertools
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from fedhorizon import nn  # noqa: E402
from fedhorizon.cohort import PatientStay  # noqa: E402
from fedhorizon.windowing import make_windows  # noqa: E402


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(20))
def test_rank_auc_matches_pair_count_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    # few distinct values, so many scores tie within and across classes
    scores = rng.integers(0, 5, n) / 4.0
    assert reference.rank_auc(scores, labels) == pytest.approx(
        brute_force_auc(scores, labels), abs=1e-12)


def test_rank_auc_edge_cases():
    assert reference.rank_auc([0.1, 0.9], [0, 1]) == 1.0
    assert reference.rank_auc([0.9, 0.1], [0, 1]) == 0.0
    assert reference.rank_auc([0.5, 0.5, 0.5], [0, 1, 1]) == 0.5
    with pytest.raises(ValueError):
        reference.rank_auc([0.2, 0.3], [1, 1])


def test_f1_score_counts():
    # tp=2 (0.9, 0.5), fp=1 (0.7), fn=1 (0.1)
    scores = [0.9, 0.5, 0.7, 0.1, 0.2]
    labels = [1, 1, 0, 1, 0]
    assert reference.f1_score(scores, labels) == 2 * 2 / (2 * 2 + 1 + 1)
    assert reference.f1_score([0.1, 0.2], [0, 0]) == 0.0


def hand_built_stay(onset):
    grid = np.zeros((reference.N_HOURS, 26))
    return PatientStay(stay_id="s", patient_id="p", icu_id="MICU",
                       stay_index=1, length_of_stay=40.0, grid=grid,
                       observed=np.ones_like(grid, dtype=bool),
                       sepsis_onset_hour=onset, imputed=True)


ONSETS = [None, 6.000001, 6.5, 7.0, 7.25, 12.0, 12.5, 18.999, 19.0, 29.5,
          30.0]


@pytest.mark.parametrize("onset", ONSETS)
def test_window_law_matches_make_windows(onset):
    windows = make_windows(hand_built_stay(onset))
    assert len(windows) == reference.window_count(onset)
    assert np.array_equal(reference.histogram([w.horizon for w in windows]),
                          reference.horizon_counts([onset]))
    if onset is not None:
        assert len(windows) == int(np.ceil(onset)) - 6


def test_window_law_over_many_stays():
    windows = [w for o in ONSETS for w in make_windows(hand_built_stay(o))]
    assert np.array_equal(reference.histogram([w.horizon for w in windows]),
                          reference.horizon_counts(ONSETS))
    assert len(windows) == sum(reference.window_count(o) for o in ONSETS)


@pytest.mark.parametrize("sizes", [(27, 16, 3, 8), (26, 16, 3, 8),
                                   (5, 4, 2, 3), (3, 2, 1, 1)])
def test_uplink_formula_matches_architecture(sizes):
    n_features, units, layers, dense = sizes
    config = nn.ModelConfig(n_features=n_features, lstm_units=units,
                            lstm_layers=layers, dense_units=dense)
    model = nn.Model(config)
    params, buffers = reference.architecture_values(*sizes)
    assert params == nn.n_params(config)
    assert (model.to_vector().nbytes + model.buffers_to_vector().nbytes
            == (params + buffers) * reference.VALUE_BYTES)


def test_default_uplink_bytes():
    assert sum(reference.architecture_values()) == 9677
    assert reference.uplink_bytes(3, 7) == 3 * 7 * 9677 * 8
    assert reference.uplink_bytes(3, 7, models=3) == 3 * 3 * 7 * 9677 * 8


def test_weighted_mean():
    updates = [(np.array([1.0, 2.0]), 1), (np.array([3.0, 6.0]), 3)]
    assert np.array_equal(reference.weighted_mean(updates), [2.5, 5.0])
