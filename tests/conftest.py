import multiprocessing

import numpy as np
import pytest

from fedhorizon.cohort import PatientStay
from fedhorizon.schema import INPUT_WINDOW, N_HOURS, default_schema
from fedhorizon.windowing import WindowSet


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, after stopping
    the process so that the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == [], f"child processes left running: {left}"


@pytest.fixture(scope="session")
def schema():
    return default_schema()


def window_set(X):
    """A window set, without the time channel, whose windows are the
    (M, 6, F) blocks of ``X``: window i is rows 6i to 6i + 5."""
    return WindowSet(X.reshape(-1, X.shape[-1]),
                     np.arange(len(X)) * INPUT_WINDOW, time_channel=False)


def config_text(value) -> str:
    """A config value as config text: a tuple as a comma list."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def other_value(defaults, key) -> str:
    """A valid value of config key ``key`` other than its default on
    ``defaults`` (an ``ExperimentConfig`` or ``SynthConfig``), as text."""
    value = getattr(defaults, key)
    if isinstance(value, bool):
        return str(not value)
    if isinstance(value, int):
        return str(value + 1)
    if isinstance(value, float):
        return str(value / 2 or 0.5)
    if isinstance(value, tuple):
        return config_text(value[::-1][:2])
    return {"pos_weight": "auto", "dtype": "float32"}.get(key, "elsewhere")


def make_stay(stay_id="s1", patient_id=None, icu="MICU", stay_index=1,
              los=45.0, onset=None, fill=0.0, imputed=True, n_features=26):
    grid = np.full((N_HOURS, n_features), fill, dtype=float)
    observed = np.ones((N_HOURS, n_features), dtype=bool)
    return PatientStay(
        stay_id=stay_id,
        patient_id=patient_id or f"pat_{stay_id}",
        icu_id=icu,
        stay_index=stay_index,
        length_of_stay=los,
        grid=grid,
        observed=observed,
        sepsis_onset_hour=onset,
        imputed=imputed,
    )
