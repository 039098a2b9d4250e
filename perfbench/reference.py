"""Reference computations the benchmark checks the program against.

Everything here is derived from the method's definition, not from the
program: nothing imports ``fedhorizon``. The constants restate the paper's
set-up (a 30-hour capture grid read through 6-hour windows), so a change to
the program that silently alters them shows up as a failed check.
"""

from __future__ import annotations

import math

import numpy as np

N_HOURS = 30
INPUT_WINDOW = 6
MAX_HORIZON = N_HOURS - INPUT_WINDOW + 1  # 25

# Architecture of the paper's model as configured by default: 26 features
# plus the time channel, one attention head, 3 x LSTM(16), dense(8), 1 output.
N_FEATURES = 27
LSTM_UNITS = 16
LSTM_LAYERS = 3
DENSE_UNITS = 8
VALUE_BYTES = 8  # float64


def architecture_values(n_features: int = N_FEATURES,
                        lstm_units: int = LSTM_UNITS,
                        lstm_layers: int = LSTM_LAYERS,
                        dense_units: int = DENSE_UNITS) -> tuple[int, int]:
    """(trainable parameters, batch-norm running statistics) of the model.

    Attention: q/k/v projections with bias. Each LSTM layer: input and
    recurrent weights for 4 gates, gate bias, batch-norm scale and shift.
    Dense layer with bias and batch norm, then one sigmoid output neuron.
    Running mean and variance sit behind every batch norm.
    """
    F, H, D = n_features, lstm_units, dense_units
    params = 3 * (F * F + F)
    for layer in range(lstm_layers):
        in_dim = F if layer == 0 else H
        params += in_dim * 4 * H + H * 4 * H + 4 * H + 2 * H
    params += H * D + D + 2 * D
    params += D + 1
    buffers = 2 * H * lstm_layers + 2 * D
    return params, buffers


def uplink_bytes(rounds: int, clients: int, models: int = 1,
                 values: int | None = None) -> int:
    """Bytes clients hand to the aggregator: every client sends its
    parameter and batch-norm vectors once per round, for every model."""
    if values is None:
        values = sum(architecture_values())
    return rounds * clients * values * VALUE_BYTES * models


def window_count(onset: float | None) -> int:
    """Windows one stay yields: 25 without sepsis, else ceil(onset) - 6
    (a window's 6 input hours must end strictly before onset)."""
    if onset is None:
        return MAX_HORIZON
    return max(0, min(MAX_HORIZON, math.ceil(onset) - INPUT_WINDOW))


def horizon_counts(onsets) -> np.ndarray:
    """Windows per horizon over stays with the given onsets (None = never
    septic). Index h holds the count at horizon h; index 0 stays 0. A septic
    stay has a window at horizon h only if onset > 31 - h."""
    counts = np.zeros(MAX_HORIZON + 1, dtype=np.int64)
    for onset in onsets:
        for h in range(1, MAX_HORIZON + 1):
            if onset is None or onset > N_HOURS + 1 - h:
                counts[h] += 1
    return counts


def histogram(horizons) -> np.ndarray:
    """Counts of the given per-window horizons, indexed like horizon_counts."""
    return np.bincount(np.asarray(horizons, dtype=np.int64),
                       minlength=MAX_HORIZON + 1)


def rank_auc(scores, labels) -> float:
    """ROC AUC as the Mann-Whitney statistic with mid-ranks for ties:
    P(score of a positive > score of a negative) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    first_rank = np.cumsum(counts) - counts + 1
    mid_rank = first_rank + (counts - 1) / 2.0
    rank_sum = mid_rank[inverse][pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1_score(scores, labels, threshold: float = 0.5) -> float:
    """F1 of the rule score >= threshold; 0 when there is nothing to count."""
    pred = np.asarray(scores, dtype=float) >= threshold
    pos = np.asarray(labels) == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def weighted_mean(updates) -> np.ndarray:
    """Window-weighted mean of (vector, weight) pairs."""
    total = float(sum(weight for _, weight in updates))
    acc = np.zeros_like(updates[0][0], dtype=float)
    for vec, weight in updates:
        acc += weight * np.asarray(vec, dtype=float)
    return acc / total
