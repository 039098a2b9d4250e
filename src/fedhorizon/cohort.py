"""Cohort ingestion and preprocessing.

Turns raw per-stay observations into fixed 30x26 hourly grids partitioned
by ICU, with inclusion filtering, hourly aggregation, imputation and
patient-level stratified fold assignment. Aggregation works on whole
observation columns, and imputation, feature means and z-scoring on stacks
of grids of shape (N, 30, F).
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .schema import FeatureSchema, ICU_NAMES, N_HOURS, STATIC_FEATURES, \
    SchemaError, default_schema

EXCLUDED_ICUS = {"NICU", "PICU"}  # neonatal / pediatric


class CohortError(ValueError):
    pass


@dataclass
class PatientStay:
    stay_id: str
    patient_id: str
    icu_id: str
    stay_index: int  # admission order for the patient, 1 = first
    length_of_stay: float  # hours
    grid: np.ndarray  # (30, F)
    observed: np.ndarray  # (30, F) bool, True where a measurement exists
    sepsis_onset_hour: float | None = None
    imputed: bool = False

    @property
    def septic(self) -> bool:
        return self.sepsis_onset_hour is not None


@dataclass
class CohortPartition:
    schema: FeatureSchema
    stays_by_icu: dict[str, list[PatientStay]]
    # icu -> patient_id -> fold index, populated by make_splits
    folds: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def icus(self) -> list[str]:
        return list(self.stays_by_icu)

    def all_stays(self) -> list[PatientStay]:
        return [s for stays in self.stays_by_icu.values() for s in stays]

    def train_test_stays(self, icu: str, fold: int):
        """Stays of one ICU split by fold membership (test = the fold)."""
        if not self.folds:
            raise CohortError("partition has no folds; call make_splits first")
        assign = self.folds[icu]
        train = [s for s in self.stays_by_icu[icu] if assign[s.patient_id] != fold]
        test = [s for s in self.stays_by_icu[icu] if assign[s.patient_id] == fold]
        return train, test


def apply_inclusion(stays: list[PatientStay]) -> list[PatientStay]:
    """Keep first-stay-per-patient, length >= 30h, adult ICU stays.

    Total filter: never raises, preserves relative order. Idempotent.
    """
    first_stay: dict[str, int] = {}
    for s in stays:
        if s.patient_id not in first_stay or s.stay_index < first_stay[s.patient_id]:
            first_stay[s.patient_id] = s.stay_index
    kept = []
    for s in stays:
        if s.stay_index != first_stay[s.patient_id]:
            continue
        if s.length_of_stay < N_HOURS:
            continue
        if s.icu_id in EXCLUDED_ICUS or s.icu_id not in ICU_NAMES:
            continue
        kept.append(s)
    return kept


def aggregate_hours(stay: np.ndarray, hour: np.ndarray, feature: np.ndarray,
                    value: np.ndarray, n_stays: int, n_features: int):
    """Aggregate observation columns onto stacked 30-hour grids.

    Row i measures feature ``feature[i]`` of grid ``stay[i]`` at the finite,
    non-negative ``hour[i]``. Within each 1-hour bucket the most recent
    measurement wins; identical timestamps are broken by row order (later
    row wins). Rows at or past hour 30 are ignored.

    The winner of each cell comes from two ``np.maximum.at`` reductions, no
    sort: the latest hour per cell, then the last row among the rows at
    that hour. Row indices are int32, and each full-size scratch array is
    freed before the next is allocated, which keeps the transient peak of
    a whole-cohort ingest low.

    Returns (grid, observed) of shape (n_stays, 30, n_features); unobserved
    cells are nan.
    """
    rows = np.flatnonzero(hour < N_HOURS).astype(np.int32)
    row_hour = hour[rows]
    cell = ((stay[rows] * N_HOURS + row_hour.astype(np.intp)) * n_features
            + feature[rows])
    size = n_stays * N_HOURS * n_features
    latest = np.full(size, -np.inf)
    np.maximum.at(latest, cell, row_hour)
    at_latest = row_hour == latest[cell]
    del latest, row_hour
    rows, cell = rows[at_latest], cell[at_latest]
    del at_latest
    winner = np.full(size, -1, dtype=np.int32)
    np.maximum.at(winner, cell, rows)
    del rows, cell
    # a cell without a row (winner -1) takes the nan appended to the values
    grid = np.append(value, np.nan)[winner]
    observed = winner >= 0
    shape = (n_stays, N_HOURS, n_features)
    return grid.reshape(shape), observed.reshape(shape)


class UnfillableColumn(CohortError):
    """A grid column without a measurement whose feature has no finite
    training mean; ``grid`` and ``feature`` index the stack."""

    def __init__(self, grid: int, feature: int):
        super().__init__(f"feature column {feature} fully missing and no "
                         f"training mean available (grid {grid})")
        self.grid = grid
        self.feature = feature


def impute_grids(grids: np.ndarray, observed: np.ndarray,
                 training_means: np.ndarray) -> np.ndarray:
    """Fill the missing cells of a (N, 30, F) stack: linear interpolation
    inside, nearest value at the edges, per-feature training mean for fully
    missing columns.

    Interior cells use np.interp's own formula, slope * (t - t0) + y0 with
    slope = (y1 - y0) / (t1 - t0) between the observed hours t0 < t < t1, so
    on finite values the result equals a per-column np.interp bit for bit.
    The previous and next observed hour of every cell are found in int8
    (for 30 hours), carried one hour at a time; the formula and the edge
    and mean rules are then evaluated only at the unobserved cells, through
    flat indices into a copy of the stack, so observed cells are copied and
    never altered. Returns a new complete stack. Raises UnfillableColumn
    for a column without a measurement whose training mean is not finite.
    """
    n_stays, n_hours, n_features = grids.shape
    if training_means.shape != (n_features,):
        raise CohortError("training_means length does not match feature count")
    # the smallest signed type that holds -1 .. n_hours: int8 for 30 hours
    hours = np.arange(n_hours, dtype=np.min_scalar_type(-n_hours - 1))
    hours = hours[:, None]
    # last observed hour at or before t (-1: none), first at or after t
    # (n_hours: none)
    prev = observed * (hours + 1) - 1
    nxt = n_hours - observed * (n_hours - hours)
    for h in range(1, n_hours):
        np.maximum(prev[:, h - 1], prev[:, h], out=prev[:, h])
        np.minimum(nxt[:, -h], nxt[:, -h - 1], out=nxt[:, -h - 1])
    empty = prev[:, -1] < 0  # (N, F) columns without a measurement
    unfillable = empty & ~np.isfinite(training_means)
    if unfillable.any():
        stay, f = np.argwhere(unfillable)[0]
        raise UnfillableColumn(int(stay), int(f))
    out = np.array(grids, dtype=np.float64)
    flat = out.reshape(-1)
    missing = np.flatnonzero(~observed)
    t0 = prev.reshape(-1)[missing].astype(np.intp)
    t1 = nxt.reshape(-1)[missing].astype(np.intp)
    t = missing // n_features % n_hours
    # a column's cell at hour h sits (h - t) * n_features cells from hour t
    y0 = flat[missing + (np.maximum(t0, 0) - t) * n_features]
    y1 = flat[missing + (np.minimum(t1, n_hours - 1) - t) * n_features]
    with np.errstate(divide="ignore", invalid="ignore"):
        # nan or inf only in cells the edge and mean rules below replace
        slope = (y1 - y0) / (t1 - t0)
        fill = slope * (t - t0) + y0
    fill = np.where(t0 < 0, y1, fill)  # before the first observation
    fill = np.where(t1 == n_hours, y0, fill)  # after the last
    fill = np.where((t0 < 0) & (t1 == n_hours),
                    training_means[missing % n_features], fill)
    flat[missing] = fill
    return out


def stack_stays(stays: list[PatientStay], n_features: int):
    """(grids, observed) of the stays as (N, 30, F) stacks, in stay order."""
    grids = np.empty((len(stays), N_HOURS, n_features))
    observed = np.empty((len(stays), N_HOURS, n_features), dtype=bool)
    for i, s in enumerate(stays):
        grids[i] = s.grid
        observed[i] = s.observed
    return grids, observed


def feature_means(grids: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per-feature mean over the observed cells of a (N, 30, F) stack; nan
    for a feature observed nowhere."""
    # summed per stay, then over stays in order, as a running total would
    total = np.where(observed, grids, 0.0).sum(axis=1).sum(axis=0)
    count = observed.sum(axis=1).sum(axis=0)
    means = np.full(grids.shape[2], np.nan)
    nonzero = count > 0
    means[nonzero] = total[nonzero] / count[nonzero]
    return means


def impute_stay(stay: PatientStay, training_means: np.ndarray) -> PatientStay:
    """A copy of the stay with its grid imputed by ``impute_grids``."""
    grid = impute_grids(stay.grid[None], stay.observed[None], training_means)[0]
    return replace(stay, grid=grid, imputed=True)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------
#
# Dialect: comma-separated, the header on the first line, one record per
# line. A field may be double-quoted to hold commas, and a doubled quote
# inside a quoted field stands for one. Blank lines are skipped but still
# counted, so error messages name physical lines. '#' is ordinary text.
# Numbers must be finite.

STATIC_HEADER = [
    "stay_id", "patient_id", "icu", "stay_index", "los_hours",
    "gender", "ethnicity", "age", "height", "weight", "diabetes",
]
TIMESERIES_HEADER = ["stay_id", "hour_offset", "feature", "value"]
LABELS_HEADER = ["stay_id", "sepsis_onset_hour"]


def _check_header(path, line: str, expected_header) -> None:
    if line == "":
        raise CohortError(f"{path}: empty file")
    header = next(csv.reader([line]), [])
    if header != expected_header:
        raise CohortError(f"{path}: bad header {header}; expected {expected_header}")


def _records(path, expected_header):
    """(physical line, fields) of each non-blank record after the header."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        _check_header(path, fh.readline(), expected_header)
        reader = csv.reader(fh)
        for row in reader:
            if row:
                yield reader.line_num + 1, row


def _read_rows(path, expected_header):
    for lineno, row in _records(path, expected_header):
        if len(row) != len(expected_header):
            raise CohortError(f"{path}:{lineno}: expected "
                              f"{len(expected_header)} fields, got {len(row)}")
        yield lineno, row


def _finite(text: str, name: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CohortError(f"non-finite {name} {text!r}")
    return value


def _read_static(path, schema: FeatureSchema):
    """Candidate stays, without grids, and their static feature values as
    an (N, 6) array in STATIC_FEATURES order."""
    stays: list[PatientStay] = []
    values: list[list[float]] = []
    seen: set[str] = set()
    for lineno, row in _read_rows(path, STATIC_HEADER):
        rec = dict(zip(STATIC_HEADER, row))
        sid = rec["stay_id"]
        if sid in seen:
            raise CohortError(f"{path}:{lineno}: duplicate stay_id {sid!r}")
        try:
            stay = PatientStay(
                stay_id=sid,
                patient_id=rec["patient_id"],
                icu_id=rec["icu"],
                stay_index=int(rec["stay_index"]),
                length_of_stay=_finite(rec["los_hours"], "los_hours"),
                grid=np.empty(0),
                observed=np.empty(0),
            )
            values.append([
                schema["gender"].encode(rec["gender"]),
                schema["ethnicity"].encode(rec["ethnicity"]),
                _finite(rec["age"], "age"),
                _finite(rec["height"], "height"),
                _finite(rec["weight"], "weight"),
                float(int(rec["diabetes"])),
            ])
        except (ValueError, SchemaError) as exc:
            raise CohortError(f"{path}:{lineno}: {exc}") from None
        seen.add(sid)
        stays.append(stay)
    return stays, np.array(values, dtype=np.float64).reshape(
        len(stays), len(STATIC_FEATURES))


def _lookup(names: list[str], column: np.ndarray) -> np.ndarray:
    """Index into ``names`` of each entry of a bytes column, -1 where absent.

    The column is looked up run by run, so a file grouped by stay costs one
    search per stay, not per row.
    """
    if column.size == 0 or not names:
        return np.full(column.shape, -1, dtype=np.intp)
    known = np.array([n.encode() for n in names], dtype=bytes)
    order = np.argsort(known, kind="stable")
    known = known[order]
    starts = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    heads = column[starts]
    pos = np.minimum(np.searchsorted(known, heads), len(known) - 1)
    index = np.where(known[pos] == heads, order[pos], -1)
    return np.repeat(index, np.diff(np.r_[starts, column.size]))


def _is_number(text: str) -> bool:
    """Whether np.loadtxt reads ``text`` as a float: Python's float syntax
    without digit-group underscores."""
    if "_" in text or not text.isascii():
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_unreadable(path) -> tuple[int, str] | None:
    """Physical line and reason of the first time-series record that does not
    split into four fields with numeric hour and value."""
    for lineno, row in _records(path, TIMESERIES_HEADER):
        if len(row) != len(TIMESERIES_HEADER):
            return lineno, (f"expected {len(TIMESERIES_HEADER)} fields, "
                            f"got {len(row)}")
        for col in (1, 3):
            if not _is_number(row[col]):
                return lineno, (f"could not convert {TIMESERIES_HEADER[col]} "
                                f"{row[col]!r} to float")
    return None


def _read_timeseries(path, stay_ids: list[str], schema: FeatureSchema):
    """Columns of the time-series CSV, validated: stay index, hour offset,
    feature index and value per row, in file order."""
    # Strings one byte longer than every known name are truncated, never
    # equal to a known name, so an over-long field still reads as unknown.
    stay_width = max([len(s.encode()) for s in stay_ids] + [0]) + 1
    feature_width = max(len(n.encode()) for n in schema.names) + 1
    dtype = [("stay_id", f"S{stay_width}"), ("hour_offset", "f8"),
             ("feature", f"S{feature_width}"), ("value", "f8")]
    with open(path, encoding="utf-8", errors="replace") as fh:
        _check_header(path, fh.readline(), TIMESERIES_HEADER)
    try:
        with warnings.catch_warnings():
            # a header-only file is valid: no observations
            warnings.simplefilter("ignore", UserWarning)
            # latin-1 maps every byte to one character, so the bytes fields
            # hold the file's own (UTF-8) bytes
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                              comments=None, quotechar='"', ndmin=1,
                              encoding="latin-1")
    except ValueError as exc:
        found = _first_unreadable(path)
        if found is None:
            raise CohortError(f"{path}: {exc}") from None
        raise CohortError(f"{path}:{found[0]}: {found[1]}") from None

    stay = _lookup(stay_ids, rows["stay_id"])
    feature = _lookup(schema.names, rows["feature"])
    hour = np.ascontiguousarray(rows["hour_offset"])
    value = np.ascontiguousarray(rows["value"])
    bad = ((stay < 0) | (feature < 0) | ~np.isfinite(hour)
           | ~np.isfinite(value) | (hour < 0))
    if bad.any():
        k = int(np.argmax(bad))
        lineno, row = next(itertools.islice(
            _records(path, TIMESERIES_HEADER), k, None))
        if stay[k] < 0:
            problem = f"unknown stay_id {row[0]!r}"
        elif feature[k] < 0:
            problem = f"unknown feature {row[2]!r}"
        elif not np.isfinite(hour[k]):
            problem = f"non-finite hour_offset {row[1]!r}"
        elif not np.isfinite(value[k]):
            problem = f"non-finite value {row[3]!r}"
        else:
            problem = f"negative hour_offset {hour[k]}"
        raise CohortError(f"{path}:{lineno}: {problem}")
    return stay, hour, feature, value


def _read_labels(path, stay_ids: set[str]) -> dict[str, float]:
    onset_hours: dict[str, float] = {}
    for lineno, (sid, onset) in _read_rows(path, LABELS_HEADER):
        if sid not in stay_ids:
            raise CohortError(f"{path}:{lineno}: unknown stay_id {sid!r}")
        if onset.strip() == "":
            continue
        try:
            onset_hour = float(onset)
        except ValueError as exc:
            raise CohortError(f"{path}:{lineno}: {exc}") from None
        if not (0.0 < onset_hour <= N_HOURS):
            raise CohortError(
                f"{path}:{lineno}: sepsis_onset_hour {onset_hour} "
                f"outside (0, {N_HOURS}]"
            )
        onset_hours[sid] = onset_hour
    return onset_hours


def ingest_csv(static_path, timeseries_path, labels_path) -> CohortPartition:
    """Parse, validate, filter, aggregate and partition the three CSVs.

    The time series is read as NumPy columns and aggregated onto one
    (N, 30, F) stack of grids; each stay's grid and mask are views into
    it. Output grids are pre-imputation (missing cells nan). A bad record
    fails with a CohortError naming its file and physical line: a wrong
    field count, an unparsable or non-finite number, an unknown stay or
    feature, a negative hour offset or an onset outside (0, 30].
    Deterministic given the input files.
    """
    schema = default_schema()
    stays, static_values = _read_static(static_path, schema)
    stay_ids = [s.stay_id for s in stays]
    stay, hour, feature, value = _read_timeseries(timeseries_path, stay_ids,
                                                  schema)
    grid, observed = aggregate_hours(stay, hour, feature, value, len(stays),
                                     schema.n_features)
    static_cols = [schema.index(spec.name) for spec in STATIC_FEATURES]
    grid[:, :, static_cols] = static_values[:, None, :]
    observed[:, :, static_cols] = True
    onset_hours = _read_labels(labels_path, set(stay_ids))

    for i, s in enumerate(stays):
        s.grid = grid[i]
        s.observed = observed[i]
        s.sepsis_onset_hour = onset_hours.get(s.stay_id)

    kept = apply_inclusion(stays)
    by_icu: dict[str, list[PatientStay]] = {icu: [] for icu in ICU_NAMES}
    for s in kept:
        by_icu[s.icu_id].append(s)
    return CohortPartition(schema=schema, stays_by_icu=by_icu)


def make_splits(
    partition: CohortPartition, test_fraction: float, n_folds: int, seed: int
) -> CohortPartition:
    """Assign patient-level stratified folds per ICU, deterministically.

    Fold k's test set is 1/n_folds of patients; positives are dealt
    round-robin so per-fold prevalence is within one patient of perfect
    stratification. ``test_fraction`` is only checked to lie in (0, 1): it
    does not size the test split, which is always one fold.
    """
    if not (0.0 < test_fraction < 1.0):
        raise CohortError(f"test_fraction {test_fraction} outside (0, 1)")
    if n_folds < 2:
        raise CohortError(f"n_folds must be >= 2, got {n_folds}")
    rng = np.random.default_rng([seed, 0xF01D])
    folds: dict[str, dict[str, int]] = {}
    for icu, stays in partition.stays_by_icu.items():
        if not stays:
            folds[icu] = {}
            continue
        if len(stays) < n_folds:
            raise CohortError(
                f"ICU {icu} has {len(stays)} patients, fewer than {n_folds} folds"
            )
        pos = sorted(s.patient_id for s in stays if s.septic)
        neg = sorted(s.patient_id for s in stays if not s.septic)
        rng.shuffle(pos)
        rng.shuffle(neg)
        assign: dict[str, int] = {}
        for i, pid in enumerate(pos):
            assign[pid] = i % n_folds
        for i, pid in enumerate(neg):
            # continue the round-robin so fold sizes stay balanced
            assign[pid] = (len(pos) + i) % n_folds
        folds[icu] = assign
    return CohortPartition(
        schema=partition.schema,
        stays_by_icu=partition.stays_by_icu,
        folds=folds,
    )


@dataclass(frozen=True)
class Normalization:
    """Per-feature z-score statistics from a (per-client) training split."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, stays: list[PatientStay]) -> "Normalization":
        if not stays:
            raise CohortError("cannot fit normalization on an empty split")
        return cls.from_grids(np.stack([s.grid for s in stays]))

    @classmethod
    def from_grids(cls, grids: np.ndarray) -> "Normalization":
        """Statistics over every hour of a (N, 30, F) stack of imputed grids."""
        if len(grids) == 0:
            raise CohortError("cannot fit normalization on an empty split")
        mean = grids.mean(axis=(0, 1))
        std = grids.std(axis=(0, 1))
        std = np.where(std < 1e-8, 1.0, std)
        return cls(mean=mean, std=std)

    def apply(self, grid: np.ndarray) -> np.ndarray:
        return (grid - self.mean) / self.std
