"""Variable-horizon sliding-window sample construction.

Each stay yields 6-hour input windows sliding one hour at a time, each
labeled with whether sepsis onset occurs within the remaining prediction
horizon (hours to the 30h deadline). Windows are cut from a whole (N, 30, F)
stack of grids at once; ``make_windows`` is the one-stay wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cohort import PatientStay
from .schema import INPUT_WINDOW, MAX_HORIZON, N_HOURS


class WindowingError(ValueError):
    pass


class Windows(NamedTuple):
    X: np.ndarray  # (M, 6, F) or (M, 6, F+1) with time channel
    y: np.ndarray  # (M,) float, 1.0 iff the source stay is septic
    horizons: np.ndarray  # (M,) int, 25 - t
    ends: np.ndarray  # (M,) float, last input hour t + 5
    source: np.ndarray  # (M,) int, index of the window's grid in the stack


@dataclass
class Sample:
    features: np.ndarray  # (6, F) or (6, F+1) with time channel
    window_start: int  # t in [0, 24]
    horizon: int  # 25 - t, hours to the labeling deadline
    label: int  # 1 iff sepsis onset ahead of the window
    patient_id: str
    icu_id: str


def cut_windows(grids: np.ndarray, onsets: np.ndarray,
                time_channel: bool = True) -> Windows:
    """Slide a 6h window over every imputed grid of a (N, 30, F) stack.

    ``onsets`` holds each stay's sepsis onset hour, inf for a stay without
    sepsis. A window starting at hour t is kept iff t + 6 < onset: its last
    hour bucket [t+5, t+6) ends strictly before onset, so onset at or inside
    a window excludes it to avoid label leakage. Non-septic stays yield all
    25 windows with label 0, septic ones their kept windows with label 1,
    possibly none. Windows come in stack order, then by start hour.
    """
    n_stays, _, n_features = grids.shape
    if np.isnan(grids).any():
        stay = int(np.argmax(np.isnan(grids).any(axis=(1, 2))))
        raise WindowingError(f"grid {stay}: grid must be imputed first")
    starts = np.arange(N_HOURS - INPUT_WINDOW + 1)  # t = 0..24
    keep = starts + INPUT_WINDOW < onsets[:, None]  # (N, 25)
    source, start = np.nonzero(keep)
    # (N, 25, 6, F) view of every window
    windows = sliding_window_view(grids, INPUT_WINDOW, axis=1).swapaxes(2, 3)
    X = np.empty((start.size, INPUT_WINDOW, n_features + int(time_channel)))
    X[:, :, :n_features] = windows[keep]
    if time_channel:
        X[:, :, n_features] = (start / (N_HOURS - INPUT_WINDOW))[:, None]
    return Windows(
        X=X,
        y=np.isfinite(onsets)[source].astype(np.float64),
        horizons=(MAX_HORIZON - start).astype(np.int64),
        ends=(start + INPUT_WINDOW - 1).astype(np.float64),
        source=source,
    )


def stay_onsets(stays: list[PatientStay]) -> np.ndarray:
    """Sepsis onset hour per stay, inf for a stay without sepsis."""
    return np.array([np.inf if s.sepsis_onset_hour is None
                     else s.sepsis_onset_hour for s in stays], dtype=np.float64)


def make_windows(stay: PatientStay, time_channel: bool = True) -> list[Sample]:
    """One stay's ``cut_windows`` as a list of labeled samples."""
    if not stay.imputed or np.isnan(stay.grid).any():
        raise WindowingError(f"stay {stay.stay_id}: grid must be imputed first")
    w = cut_windows(stay.grid[None], stay_onsets([stay]), time_channel)
    return [
        Sample(
            features=w.X[i],
            window_start=MAX_HORIZON - int(w.horizons[i]),
            horizon=int(w.horizons[i]),
            label=int(w.y[i]),
            patient_id=stay.patient_id,
            icu_id=stay.icu_id,
        )
        for i in range(len(w.y))
    ]
