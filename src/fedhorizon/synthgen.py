"""Seeded synthetic cohort generator.

Produces cohorts matching the CSV ingestion schema so the full pipeline
runs without access-gated data. Septic patients receive a planted drift
in a subset of vital features that ramps up towards onset, so windows
close to onset are genuinely easier than distant ones, and each ICU gets
its own mean shift to emulate client heterogeneity.

Each ICU draws from its own seeded generator, stay by stay in a fixed
order, so a seed always gives the same cohort and the same CSV bytes. The
arithmetic then runs on whole arrays: one AR(1) recurrence over an ICU's
(n, 30, T) stack and the drift for all of its septic stays at once.
``export_csv`` formats ``timeseries.csv`` a block of stays at a time, the
blocks being the tasks of a ``pool.executor`` whose workers inherit the
stays, and writes each block's text in block order as it arrives.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import pool
from .cohort import CohortPartition, PatientStay
from .schema import ICU_NAMES, N_HOURS, STATIC_FEATURES, default_schema

# Table-derived per-ICU patient counts scaled to desk size (x0.1).
DEFAULT_COUNTS = {
    "MICU/SICU": 550,
    "TSICU": 606,
    "CVICU": 346,
    "MICU": 438,
    "NSICU": 351,
    "SICU": 400,
    "CCU": 171,
}

# Baseline (mean, sd) per time-varying feature, loosely physiological.
FEATURE_BASELINES = {
    "platelet": (250.0, 80.0),
    "leukocytes": (9.0, 3.0),
    "po2": (95.0, 15.0),
    "fio2": (0.45, 0.12),
    "lactate": (1.6, 0.7),
    "creatinine": (1.1, 0.5),
    "bilirubin": (0.9, 0.5),
    "gcs": (13.0, 2.5),
    "crp": (40.0, 25.0),
    "diastolic_bp": (70.0, 10.0),
    "systolic_bp": (120.0, 15.0),
    "mean_bp": (85.0, 12.0),
    "resp_rate": (17.0, 4.0),
    "temperature": (37.0, 0.6),
    "spo2": (96.0, 2.5),
    "urine_output": (80.0, 30.0),
    "glucose": (130.0, 35.0),
    "heart_rate": (85.0, 15.0),
    "sofa": (3.0, 2.0),
}

# Vital features carrying the planted pre-onset drift.
SIGNAL_FEATURES = (
    "heart_rate", "resp_rate", "temperature", "lactate",
    "leukocytes", "creatinine", "sofa",
)

# Heterogeneity: scale of the per-ICU mean offset, in units of feature sd.
# CVICU and NSICU are deliberately dissimilar from the rest.
DEFAULT_SHIFTS = {
    "MICU/SICU": 0.15,
    "TSICU": 0.2,
    "CVICU": 0.9,
    "MICU": 0.1,
    "NSICU": 1.0,
    "SICU": 0.2,
    "CCU": 0.3,
}


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    counts: dict = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    prevalence: float = 0.3
    shifts: dict = field(default_factory=lambda: dict(DEFAULT_SHIFTS))
    missingness: float = 0.15
    seed: int = 42
    signal_amp: float = 2.4  # drift size at onset, in units of feature sd
    signal_lead: float = 26.0  # hours before onset at which the ramp starts
    signal_base: float = 0.12  # fraction of signal_amp present from hour 0
    onset_bias: float = 3.0  # >1 skews onset hours late; 1.0 = uniform
    amp_jitter: float = 0.7  # per-stay amp factor ~ U(1-j, 1+j)
    slow_frac: float = 0.0  # fraction of septic stays that are slow burners
    slow_level: float = 0.25  # their flat drift, as a fraction of signal_amp
    sign_flip_p: float = 0.5  # per-feature drift inversion chance (slow burners)
    noise_scale: float = 1.25  # AR(1) noise multiplier (0 = noise-free)
    ar_rho: float = 0.85

    def validate(self) -> None:
        if not self.counts:
            raise SynthError("counts must not be empty")
        for icu, n in self.counts.items():
            if icu not in ICU_NAMES:
                raise SynthError(f"unknown ICU {icu!r}")
            if n < 1:
                raise SynthError(f"count for {icu} must be >= 1, got {n}")
        if not (0.0 < self.prevalence < 1.0):
            raise SynthError(f"prevalence {self.prevalence} outside (0, 1)")
        if not (0.0 <= self.missingness < 1.0):
            raise SynthError(f"missingness {self.missingness} outside [0, 1)")
        if self.signal_lead <= 0:
            raise SynthError("signal_lead must be positive")
        if not (0.0 <= self.signal_base <= 1.0):
            raise SynthError(f"signal_base {self.signal_base} outside [0, 1]")
        if self.onset_bias <= 0:
            raise SynthError(f"onset_bias {self.onset_bias} must be positive")
        if not (0.0 <= self.amp_jitter < 1.0):
            raise SynthError(f"amp_jitter {self.amp_jitter} outside [0, 1)")
        if not (0.0 <= self.slow_frac < 1.0):
            raise SynthError(f"slow_frac {self.slow_frac} outside [0, 1)")
        if not (0.0 <= self.slow_level <= 1.0):
            raise SynthError(f"slow_level {self.slow_level} outside [0, 1]")
        if not (0.0 <= self.sign_flip_p <= 1.0):
            raise SynthError(
                f"sign_flip_p {self.sign_flip_p} outside [0, 1]")


def signal_drift(hour, onset, lead: float):
    """Fraction of the full drift present at a given hour: a linear ramp
    from 0 at (onset - lead) to 1 at onset, clipped to [0, 1]. ``hour``
    and ``onset`` may be scalars or broadcastable arrays."""
    return np.clip((hour - (onset - lead)) / lead, 0.0, 1.0)


@dataclass
class _StayDraws:
    """Every random draw of one ICU's stays, one row per stay."""
    onset: list  # Python float per septic stay, None otherwise
    onset_u: np.ndarray  # (n,) uniform behind the onset and the amplitude
    eps: np.ndarray  # (n, 30, T) AR(1) innovations
    slow: np.ndarray  # (n,) bool, slow burner
    signs: np.ndarray  # (n, S) +-1 per signal feature
    keep: np.ndarray  # (n, 30, T) uniforms behind the time-series mask
    vent: np.ndarray  # (n,) 0.0 / 1.0
    keep_vent: np.ndarray  # (n, 30) uniforms behind the vent mask
    statics: np.ndarray  # (n, 6) raw static draws, in STATIC_FEATURES order
    los: list  # Python float per stay


def _draw_stays(rng, n: int, config: SynthConfig, n_ts: int,
                n_sig: int) -> _StayDraws:
    """Make the draws stay by stay, in the order fixed for every stay
    (septic, onset, eps, slow burner and signs, keep, vent, keep_vent,
    statics, length of stay), so that a seed always gives the same cohort."""
    d = _StayDraws(
        onset=[None] * n, onset_u=np.empty(n),
        eps=np.empty((n, N_HOURS, n_ts)), slow=np.zeros(n, dtype=bool),
        signs=np.ones((n, n_sig)), keep=np.empty((n, N_HOURS, n_ts)),
        vent=np.empty(n), keep_vent=np.empty((n, N_HOURS)),
        statics=np.empty((n, len(STATIC_FEATURES))), los=[0.0] * n)
    for i in range(n):
        septic = rng.random() < config.prevalence
        onset_u = d.onset_u[i] = rng.random()
        if septic:
            # inverse-CDF of p(o) ∝ ((o-6)/24)^(bias-1): bias 1 is
            # uniform, larger values concentrate onsets late in the stay
            onset = 6.0 + 24.0 * onset_u ** (1.0 / config.onset_bias)
            d.onset[i] = onset if onset > 6.0 else 6.0 + 1e-6  # (6, 30]
        rng.standard_normal(out=d.eps[i])
        if septic and rng.random() < config.slow_frac:
            d.slow[i] = True
            d.signs[i] = np.where(rng.random(n_sig) < config.sign_flip_p,
                                  -1.0, 1.0)
        rng.random(out=d.keep[i])
        d.vent[i] = rng.random() < 0.3
        rng.random(out=d.keep_vent[i])
        d.statics[i] = (rng.integers(0, 2), rng.integers(0, 6),
                        rng.normal(65, 15), rng.normal(170, 10),
                        rng.normal(80, 15), rng.random() < 0.25)
        d.los[i] = float(30.0 + rng.exponential(40.0))
    return d


def generate_cohort(config: SynthConfig) -> CohortPartition:
    """Deterministic synthetic CohortPartition (pre-imputation).

    Each ICU draws from its own ``default_rng([seed, icu_index])``, stay
    by stay (``_draw_stays``); the AR(1) noise, the planted drift and the
    grids are then computed for all of an ICU's stays at once, and each
    stay's grid and mask are views into the ICU's (n, 30, F) stack.
    """
    config.validate()
    schema = default_schema()
    ts_names = list(FEATURE_BASELINES)
    sig_idx = [ts_names.index(n) for n in SIGNAL_FEATURES]
    mu = np.array([FEATURE_BASELINES[n][0] for n in ts_names])
    sd = np.array([FEATURE_BASELINES[n][1] for n in ts_names])
    ts_cols = np.array([schema.index(n) for n in ts_names])
    vent_col = schema.index("mech_vent")
    static_cols = [schema.index(spec.name) for spec in STATIC_FEATURES]
    hours = np.arange(N_HOURS)

    stays_by_icu: dict[str, list[PatientStay]] = {icu: [] for icu in ICU_NAMES}
    for icu_idx, icu in enumerate(ICU_NAMES):
        n = config.counts.get(icu, 0)
        if n == 0:
            continue
        rng = np.random.default_rng([config.seed, icu_idx])
        shift_scale = config.shifts.get(icu, 0.0)
        # fixed per-ICU offset direction, stable under the master seed
        shift = rng.standard_normal(len(ts_names)) * shift_scale * sd
        d = _draw_stays(rng, n, config, len(ts_names), len(sig_idx))

        # AR(1) series per stay and feature around the shifted baseline
        rho = config.ar_rho
        series = np.empty_like(d.eps)
        series[:, 0] = d.eps[:, 0]
        for h in range(1, N_HOURS):
            series[:, h] = (rho * series[:, h - 1]
                            + np.sqrt(1 - rho**2) * d.eps[:, h])
        values = mu + shift + config.noise_scale * sd * series

        sep = [i for i, o in enumerate(d.onset) if o is not None]
        if sep:
            onset = np.array([d.onset[i] for i in sep])
            # weak constant elevation from admission plus a ramp towards
            # onset: far-from-onset windows carry a subtle signal,
            # near-onset windows a strong one; slow burners get a flat
            # moderate drift that never develops the sharp pre-onset ramp,
            # with a patient-specific mix of elevated and depressed vitals
            ramp = signal_drift(hours, onset[:, None], config.signal_lead)
            level = np.where(d.slow[sep, None], config.slow_level,
                             config.signal_base
                             + (1.0 - config.signal_base) * ramp)
            # per-stay amplitude factor tied to the onset draw: patients
            # who decompensate early in the stay also express the drift
            # weakly, so their few pre-onset windows are the hard cases
            factor = 1.0 + config.amp_jitter * (2.0 * d.onset_u[sep] - 1.0)
            scale = ((factor * config.signal_amp)[:, None] * sd[sig_idx]
                     * d.signs[sep])
            values[np.ix_(sep, hours, sig_idx)] += (scale[:, None, :]
                                                    * level[:, :, None])

        grid = np.full((n, N_HOURS, schema.n_features), np.nan)
        observed = np.zeros((n, N_HOURS, schema.n_features), dtype=bool)
        keep = d.keep >= config.missingness
        grid[:, :, ts_cols] = np.where(keep, values, np.nan)
        observed[:, :, ts_cols] = keep
        # mechanical ventilation: constant per stay, recorded hourly
        keep_vent = d.keep_vent >= config.missingness
        grid[:, :, vent_col] = np.where(keep_vent, d.vent[:, None], np.nan)
        observed[:, :, vent_col] = keep_vent
        statics = d.statics
        statics[:, 2] = np.clip(statics[:, 2], 18, 100)  # age
        statics[:, 4] = np.clip(statics[:, 4], 40, 200)  # weight
        grid[:, :, static_cols] = statics[:, None, :]
        observed[:, :, static_cols] = True

        stays_by_icu[icu] = [
            PatientStay(
                stay_id=f"s{icu_idx}_{i:05d}",
                patient_id=f"p{icu_idx}_{i:05d}",
                icu_id=icu,
                stay_index=1,
                length_of_stay=d.los[i],
                grid=grid[i],
                observed=observed[i],
                sepsis_onset_hour=d.onset[i],
            )
            for i in range(n)
        ]
    return CohortPartition(schema=schema, stays_by_icu=stays_by_icu)


# Stays per block of timeseries.csv, the unit of export_csv's tasks; bounds
# the memory a block takes.
EXPORT_BLOCK_STAYS = 256


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _timeseries_block(block: slice, shared: tuple) -> str:
    """The timeseries.csv rows of the observed cells of ``stays[block]``,
    in (stay, feature, hour) order, with ``shared`` = (stays, cols,
    middles). ``middles[f * 30 + h]`` holds the row's text between the
    stay id and the value for column ``cols[f]`` at hour h."""
    stays, cols, middles = shared
    stays = stays[block]
    observed = np.stack([s.observed[:, cols] for s in stays])
    grid = np.stack([s.grid[:, cols] for s in stays])
    observed, grid = observed.transpose(0, 2, 1), grid.transpose(0, 2, 1)
    stay, feature, hour = np.nonzero(observed)
    ids = np.array([_csv_field(s.stay_id) for s in stays], dtype=object)
    fields = [""] * (4 * len(stay))
    fields[0::4] = ids[stay].tolist()
    fields[1::4] = middles[feature * N_HOURS + hour].tolist()
    fields[2::4] = map(repr, grid[observed].tolist())
    fields[3::4] = ["\r\n"] * len(stay)
    return "".join(fields)


def export_csv(partition: CohortPartition, out_dir) -> dict[str, str]:
    """Write static/timeseries/labels CSVs; round-trips through ingest_csv.

    Only observed cells are emitted as observations (at mid-bucket hour
    offsets), so the re-ingested missingness mask matches exactly.
    ``timeseries.csv`` is formatted EXPORT_BLOCK_STAYS stays at a time
    from whole arrays, the blocks in a ``pool.executor`` (forked before
    the file is opened) and written in block order; its bytes are those a
    ``csv.writer`` row per observed cell would give (values as ``repr`` of
    Python floats, ``\\r\\n`` line ends), so a seed's cohort always
    exports to the same files.
    """
    os.makedirs(out_dir, exist_ok=True)
    schema = partition.schema
    static_names = {spec.name for spec in STATIC_FEATURES}
    ts_specs = [f for f in schema.features if f.name not in static_names]
    paths = {
        "static": os.path.join(out_dir, "static.csv"),
        "timeseries": os.path.join(out_dir, "timeseries.csv"),
        "labels": os.path.join(out_dir, "labels.csv"),
    }
    stays = partition.all_stays()
    with open(paths["static"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stay_id", "patient_id", "icu", "stay_index", "los_hours",
                    "gender", "ethnicity", "age", "height", "weight", "diabetes"])
        for s in stays:
            w.writerow([
                s.stay_id, s.patient_id, s.icu_id, s.stay_index,
                repr(s.length_of_stay),
                schema["gender"].decode(s.grid[0, schema.index("gender")]),
                schema["ethnicity"].decode(s.grid[0, schema.index("ethnicity")]),
                repr(float(s.grid[0, schema.index("age")])),
                repr(float(s.grid[0, schema.index("height")])),
                repr(float(s.grid[0, schema.index("weight")])),
                int(round(s.grid[0, schema.index("diabetes")])),
            ])
    cols = [schema.index(spec.name) for spec in ts_specs]
    middles = np.array([f",{h + 0.5!r},{_csv_field(spec.name)},"
                        for spec in ts_specs for h in range(N_HOURS)],
                       dtype=object)
    blocks = [slice(start, start + EXPORT_BLOCK_STAYS)
              for start in range(0, len(stays), EXPORT_BLOCK_STAYS)]
    with pool.executor(_timeseries_block, (stays, cols, middles),
                       len(blocks)) as map_jobs, \
            open(paths["timeseries"], "w", newline="") as fh:
        fh.write("stay_id,hour_offset,feature,value\r\n")
        fh.writelines(map_jobs(blocks))
    with open(paths["labels"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stay_id", "sepsis_onset_hour"])
        for s in stays:
            onset = "" if s.sepsis_onset_hour is None else repr(s.sepsis_onset_hour)
            w.writerow([s.stay_id, onset])
    return paths
