"""Variable-horizon sliding-window sample construction.

Each stay yields 6-hour input windows sliding one hour at a time, each
labeled with whether sepsis onset occurs within the remaining prediction
horizon (hours to the 30h deadline). Windows are cut from a whole (N, 30, F)
stack of grids at once; ``make_windows`` is the one-stay wrapper.

A cut is one ``WindowSet``: the stack's hour rows, kept once, with each
window's first-row index and label. The (k, 6, F) windows of a batch are
gathered from those rows only when the set is indexed. The windows overlap
by five hours, so this holds each hour row once where a (M, 6, F) array of
the windows would hold it up to six times. A window's start hour, horizon,
last input hour and grid all follow from its first-row index, so this
module is the only one that computes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cohort import PatientStay
from .schema import INPUT_WINDOW, MAX_HORIZON, N_HOURS


class WindowingError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class WindowSet:
    """Labelled windows as row indices into the rows of a stack of grids.

    Window i is ``rows[first[i] : first[i] + 6]`` and ``y[i]`` is its
    label. ``rows`` holds whole 30-row grids, one grid's hours in order:
    ``cut_windows`` reshapes a stack and ``concatenate`` joins whole
    stacks. So window i starts at hour ``first[i] % 30`` of grid
    ``first[i] // 30``, which gives its ``horizons``, ``ends`` and
    ``source``. With the time channel, ``rows`` has one more column, all
    zeros, that a gather fills with ``start / 24`` on all six rows of the
    window.

    Indexing with an int, a slice, an int array or a bool mask gathers the
    (6, C) window or the (k, 6, C) windows as a new C-contiguous array;
    ``select`` and ``concatenate`` make sets that share or join the rows
    and carry each window's label.
    """

    rows: np.ndarray  # (N * 30, C): C = F, or F + 1 with the time channel
    first: np.ndarray  # (M,) int, row index of each window's first hour
    y: np.ndarray  # (M,) float, 1.0 iff the window's stay is septic
    time_channel: bool

    def __len__(self) -> int:
        return len(self.first)

    @property
    def shape(self) -> tuple:
        return (len(self.first), INPUT_WINDOW, self.rows.shape[1])

    @property
    def horizons(self) -> np.ndarray:
        """(M,) int, hours to the deadline: 25 - start."""
        return MAX_HORIZON - self.first % N_HOURS

    @property
    def ends(self) -> np.ndarray:
        """(M,) float, the last input hour: start + 5."""
        return (self.first % N_HOURS + (INPUT_WINDOW - 1)).astype(np.float64)

    @property
    def source(self) -> np.ndarray:
        """(M,) int, index of each window's grid in ``rows``."""
        return self.first // N_HOURS

    def __getitem__(self, key) -> np.ndarray:
        first = self.first[key]
        X = np.take(self.rows, np.add.outer(first, np.arange(INPUT_WINDOW)),
                    axis=0)
        if self.time_channel:
            start = first % N_HOURS
            X[..., -1] = (start / (N_HOURS - INPUT_WINDOW))[..., None]
        return X

    def select(self, sel) -> WindowSet:
        """The windows and labels at ``sel`` (a slice, an int array or a
        bool mask), on the same rows."""
        return replace(self, first=self.first[sel], y=self.y[sel])

    @staticmethod
    def concatenate(sets) -> WindowSet:
        """The windows and labels of ``sets`` in order, on their rows
        joined into one array; one set is returned as it is."""
        if len(sets) == 1:
            return sets[0]
        offsets = np.cumsum([0] + [len(s.rows) for s in sets[:-1]])
        return WindowSet(
            np.concatenate([s.rows for s in sets]),
            np.concatenate([s.first + o for s, o in zip(sets, offsets)]),
            np.concatenate([s.y for s in sets]),
            sets[0].time_channel)


@dataclass
class Sample:
    features: np.ndarray  # (6, F) or (6, F+1) with time channel
    window_start: int  # t in [0, 24]
    horizon: int  # 25 - t, hours to the labeling deadline
    label: int  # 1 iff sepsis onset ahead of the window
    patient_id: str
    icu_id: str


def cut_windows(grids: np.ndarray, onsets: np.ndarray,
                time_channel: bool = True) -> WindowSet:
    """Slide a 6h window over every imputed grid of a (N, 30, F) stack.

    ``onsets`` holds each stay's sepsis onset hour, inf for a stay without
    sepsis. A window starting at hour t is kept iff t + 6 < onset: its last
    hour bucket [t+5, t+6) ends strictly before onset, so onset at or inside
    a window excludes it to avoid label leakage. Non-septic stays yield all
    25 windows with label 0, septic ones their kept windows with label 1,
    possibly none. Windows come in stack order, then by start hour.

    The set holds the stack's rows once and each kept window's first row
    and label; no window is gathered here. The rows are a copy with the
    time channel's column, or without the channel a view of a C-contiguous
    stack.
    """
    n_stays, _, n_features = grids.shape
    if np.isnan(grids).any():
        stay = int(np.argmax(np.isnan(grids).any(axis=(1, 2))))
        raise WindowingError(f"grid {stay}: grid must be imputed first")
    starts = np.arange(N_HOURS - INPUT_WINDOW + 1)  # t = 0..24
    keep = starts + INPUT_WINDOW < onsets[:, None]  # (N, 25)
    source, start = np.nonzero(keep)
    rows = grids.reshape(-1, n_features)
    if time_channel:  # room for the channel, written by each gather
        rows = np.concatenate([rows, np.zeros((len(rows), 1))], axis=1)
    return WindowSet(rows, source * N_HOURS + start,
                     np.isfinite(onsets)[source].astype(np.float64),
                     time_channel)


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
            features=w[i],
            window_start=MAX_HORIZON - int(horizon),
            horizon=int(horizon),
            label=int(label),
            patient_id=stay.patient_id,
            icu_id=stay.icu_id,
        )
        for i, (horizon, label) in enumerate(zip(w.horizons, w.y))
    ]
