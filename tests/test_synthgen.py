import csv
import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from fedhorizon import pool, synthgen
from fedhorizon.cohort import (
    CohortPartition, PatientStay, apply_inclusion, ingest_csv,
)
from fedhorizon.schema import ICU_NAMES, N_HOURS, default_schema
from fedhorizon.synthgen import (
    DEFAULT_COUNTS, FEATURE_BASELINES, SIGNAL_FEATURES, SynthConfig,
    SynthError, export_csv, generate_cohort, signal_drift,
)

SMALL_COUNTS = {icu: 12 for icu in ICU_NAMES}


def small_config(**kwargs):
    return SynthConfig(counts=dict(SMALL_COUNTS), seed=7, **kwargs)


class TestSignalDrift:
    def test_ramp_endpoints(self):
        assert signal_drift(20.0, 20.0, 26.0) == 1.0
        assert signal_drift(-6.0, 20.0, 26.0) == 0.0

    def test_midpoint(self):
        assert signal_drift(7.0, 20.0, 26.0) == pytest.approx(0.5)

    def test_clipped_outside_ramp(self):
        assert signal_drift(-10.0, 20.0, 26.0) == 0.0
        assert signal_drift(25.0, 20.0, 26.0) == 1.0

    def test_monotone_in_hour(self):
        values = [signal_drift(h, 18.0, 26.0) for h in np.linspace(-9, 29, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestConfigValidation:
    def test_default_is_valid(self):
        SynthConfig().validate()

    def test_unknown_icu(self):
        with pytest.raises(SynthError):
            SynthConfig(counts={"PICU": 5}).validate()

    def test_bad_prevalence(self):
        with pytest.raises(SynthError):
            SynthConfig(prevalence=0.0).validate()
        with pytest.raises(SynthError):
            SynthConfig(prevalence=1.5).validate()

    def test_bad_missingness(self):
        with pytest.raises(SynthError):
            SynthConfig(missingness=1.0).validate()

    def test_zero_count(self):
        with pytest.raises(SynthError):
            SynthConfig(counts={"MICU": 0}).validate()


class TestGenerateCohort:
    def test_counts_match_config(self):
        part = generate_cohort(small_config())
        for icu in ICU_NAMES:
            assert len(part.stays_by_icu[icu]) == SMALL_COUNTS[icu]

    def test_default_counts_total(self):
        assert sum(DEFAULT_COUNTS.values()) == 2862

    def test_deterministic(self):
        a = generate_cohort(small_config())
        b = generate_cohort(small_config())
        for icu in ICU_NAMES:
            for sa, sb in zip(a.stays_by_icu[icu], b.stays_by_icu[icu]):
                assert sa.stay_id == sb.stay_id
                assert sa.sepsis_onset_hour == sb.sepsis_onset_hour
                np.testing.assert_array_equal(sa.grid, sb.grid)

    def test_seed_changes_data(self):
        a = generate_cohort(small_config())
        b = generate_cohort(dataclasses.replace(small_config(), seed=8))
        ga = a.stays_by_icu["MICU"][0].grid
        gb = b.stays_by_icu["MICU"][0].grid
        assert not np.array_equal(ga, gb, equal_nan=True)

    def test_onset_in_open_interval(self):
        part = generate_cohort(small_config())
        for s in part.all_stays():
            if s.sepsis_onset_hour is not None:
                assert 6.0 < s.sepsis_onset_hour <= 30.0

    def test_prevalence_close_to_target(self):
        cfg = SynthConfig(counts={"MICU": 600}, prevalence=0.3, seed=3)
        part = generate_cohort(cfg)
        septic = sum(s.septic for s in part.all_stays())
        assert abs(septic / 600 - 0.3) < 0.06

    def test_all_stays_pass_inclusion(self):
        part = generate_cohort(small_config())
        stays = part.all_stays()
        assert len(apply_inclusion(stays)) == len(stays)

    def test_static_features_always_observed(self):
        part = generate_cohort(small_config())
        schema = default_schema()
        static_cols = [schema.index(n) for n in
                       ("gender", "ethnicity", "age", "height", "weight",
                        "diabetes")]
        for s in part.all_stays():
            assert s.observed[:, static_cols].all()

    def test_missingness_rate_close_to_target(self):
        part = generate_cohort(small_config(missingness=0.3))
        schema = default_schema()
        ts_cols = [i for i, f in enumerate(schema.features)
                   if f.name not in ("gender", "ethnicity", "age", "height",
                                     "weight", "diabetes") and f.name != "hour"]
        masks = np.concatenate([s.observed[:, ts_cols].ravel()
                                for s in part.all_stays()])
        assert abs(1.0 - masks.mean() - 0.3) < 0.02

    def test_zero_missingness_fully_observed(self):
        part = generate_cohort(small_config(missingness=0.0))
        for s in part.all_stays():
            assert s.observed.all()

    def test_signal_features_elevated_near_onset(self):
        """With noise off, septic signal columns must rise towards onset
        while non-signal columns stay flat."""
        cfg = small_config(noise_scale=0.0, missingness=0.0, slow_frac=0.0)
        part = generate_cohort(cfg)
        schema = default_schema()
        sig_cols = [schema.index(n) for n in SIGNAL_FEATURES]
        checked = 0
        for s in part.all_stays():
            if not s.septic or s.sepsis_onset_hour < 12:
                continue
            onset_h = int(s.sepsis_onset_hour)
            early = s.grid[0, sig_cols]
            late = s.grid[min(onset_h, N_HOURS - 1) - 1, sig_cols]
            assert (late >= early).all()
            assert (late > early).any()
            checked += 1
        assert checked > 0

    def test_nonseptic_flat_without_noise(self):
        part = generate_cohort(small_config(noise_scale=0.0, missingness=0.0))
        schema = default_schema()
        col = schema.index("heart_rate")
        for s in part.all_stays():
            if not s.septic:
                assert np.ptp(s.grid[:, col]) == 0.0

    def test_icu_mean_shifts_differ(self):
        """CVICU/NSICU baselines must sit further from MICU than SICU does."""
        from fedhorizon.synthgen import FEATURE_BASELINES

        cfg = SynthConfig(counts={icu: 40 for icu in ICU_NAMES}, seed=5,
                          noise_scale=0.0, missingness=0.0, prevalence=0.01)
        part = generate_cohort(cfg)
        schema = default_schema()
        names = list(FEATURE_BASELINES)
        cols = [schema.index(n) for n in names]
        mu = np.array([FEATURE_BASELINES[n][0] for n in names])
        sd = np.array([FEATURE_BASELINES[n][1] for n in names])

        def shift_norm(icu):
            grids = [s.grid[:, cols] for s in part.stays_by_icu[icu]
                     if not s.septic]
            mean = np.mean(np.stack(grids), axis=(0, 1))
            return np.linalg.norm((mean - mu) / sd)

        assert shift_norm("NSICU") > shift_norm("SICU")
        assert shift_norm("CVICU") > shift_norm("MICU")


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        part = generate_cohort(small_config())
        paths = export_csv(part, tmp_path)
        stays = ingest_csv(paths["static"], paths["timeseries"],
                           paths["labels"]).all_stays()
        originals = {s.stay_id: s for s in part.all_stays()}
        assert set(originals) == {s.stay_id for s in stays}
        for s in stays:
            o = originals[s.stay_id]
            assert s.patient_id == o.patient_id
            assert s.icu_id == o.icu_id
            assert s.sepsis_onset_hour == o.sepsis_onset_hour
            assert s.length_of_stay == o.length_of_stay
            np.testing.assert_array_equal(s.observed, o.observed)
            np.testing.assert_array_equal(s.grid, o.grid)

    def test_files_created(self, tmp_path):
        paths = export_csv(generate_cohort(small_config()), tmp_path)
        for p in paths.values():
            assert (tmp_path / p.split("/")[-1]).exists()


# ---------------------------------------------------------------------------
# The batched generator and the block-wise writer against the per-stay loops
# they replace, kept here as references.
# ---------------------------------------------------------------------------

STATIC_NAMES = ("gender", "ethnicity", "age", "height", "weight", "diabetes")


def reference_generate_cohort(config):
    """The per-stay generator: every draw and every operation stay by stay."""
    config.validate()
    schema = default_schema()
    ts_names = list(FEATURE_BASELINES)
    sig_idx = [ts_names.index(n) for n in SIGNAL_FEATURES]
    mu = np.array([FEATURE_BASELINES[n][0] for n in ts_names])
    sd = np.array([FEATURE_BASELINES[n][1] for n in ts_names])
    ts_cols = np.array([schema.index(n) for n in ts_names])
    vent_col = schema.index("mech_vent")

    stays_by_icu = {icu: [] for icu in ICU_NAMES}
    for icu_idx, icu in enumerate(ICU_NAMES):
        n = config.counts.get(icu, 0)
        if n == 0:
            continue
        rng = np.random.default_rng([config.seed, icu_idx])
        shift_scale = config.shifts.get(icu, 0.0)
        shift = rng.standard_normal(len(ts_names)) * shift_scale * sd
        for i in range(n):
            septic = rng.random() < config.prevalence
            onset_u = rng.random()
            if septic:
                onset = 6.0 + 24.0 * onset_u ** (1.0 / config.onset_bias)
            else:
                onset = None
            if onset is not None and onset <= 6.0:
                onset = 6.0 + 1e-6

            hours = np.arange(N_HOURS)
            eps = rng.standard_normal((N_HOURS, len(ts_names)))
            series = np.empty_like(eps)
            rho = config.ar_rho
            series[0] = eps[0]
            for h in range(1, N_HOURS):
                series[h] = rho * series[h - 1] + np.sqrt(1 - rho**2) * eps[h]
            values = mu + shift + config.noise_scale * sd * series
            if septic:
                ramp = np.clip((hours - (onset - config.signal_lead))
                               / config.signal_lead, 0.0, 1.0)
                signs = np.ones(len(sig_idx))
                if rng.random() < config.slow_frac:
                    level = np.full_like(ramp, config.slow_level)
                    signs = np.where(
                        rng.random(len(sig_idx)) < config.sign_flip_p,
                        -1.0, 1.0)
                else:
                    level = (config.signal_base
                             + (1.0 - config.signal_base) * ramp)
                factor = 1.0 + config.amp_jitter * (2.0 * onset_u - 1.0)
                values[:, sig_idx] += (factor * config.signal_amp
                                       * sd[sig_idx] * signs * level[:, None])

            grid = np.full((N_HOURS, schema.n_features), np.nan)
            observed = np.zeros((N_HOURS, schema.n_features), dtype=bool)
            keep = rng.random((N_HOURS, len(ts_names))) >= config.missingness
            grid[:, ts_cols] = np.where(keep, values, np.nan)
            observed[:, ts_cols] = keep
            vent = float(rng.random() < 0.3)
            keep_vent = rng.random(N_HOURS) >= config.missingness
            grid[:, vent_col] = np.where(keep_vent, vent, np.nan)
            observed[:, vent_col] = keep_vent

            static = {
                "gender": float(rng.integers(0, 2)),
                "ethnicity": float(rng.integers(0, 6)),
                "age": float(np.clip(rng.normal(65, 15), 18, 100)),
                "height": float(rng.normal(170, 10)),
                "weight": float(np.clip(rng.normal(80, 15), 40, 200)),
                "diabetes": float(rng.random() < 0.25),
            }
            for name, value in static.items():
                col = schema.index(name)
                grid[:, col] = value
                observed[:, col] = True

            stays_by_icu[icu].append(PatientStay(
                stay_id=f"s{icu_idx}_{i:05d}",
                patient_id=f"p{icu_idx}_{i:05d}",
                icu_id=icu,
                stay_index=1,
                length_of_stay=float(30.0 + rng.exponential(40.0)),
                grid=grid,
                observed=observed,
                sepsis_onset_hour=onset,
            ))
    return CohortPartition(schema=schema, stays_by_icu=stays_by_icu)


def reference_export_csv(partition, out_dir):
    """The per-row writer: one csv.writer row per observed cell."""
    os.makedirs(out_dir, exist_ok=True)
    schema = partition.schema
    ts_specs = [f for f in schema.features if f.name not in STATIC_NAMES]
    paths = {name: os.path.join(out_dir, f"{name}.csv")
             for name in ("static", "timeseries", "labels")}
    stays = partition.all_stays()
    with open(paths["static"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stay_id", "patient_id", "icu", "stay_index", "los_hours",
                    "gender", "ethnicity", "age", "height", "weight",
                    "diabetes"])
        for s in stays:
            w.writerow([
                s.stay_id, s.patient_id, s.icu_id, s.stay_index,
                repr(s.length_of_stay),
                schema["gender"].decode(s.grid[0, schema.index("gender")]),
                schema["ethnicity"].decode(
                    s.grid[0, schema.index("ethnicity")]),
                repr(float(s.grid[0, schema.index("age")])),
                repr(float(s.grid[0, schema.index("height")])),
                repr(float(s.grid[0, schema.index("weight")])),
                int(round(s.grid[0, schema.index("diabetes")])),
            ])
    with open(paths["timeseries"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stay_id", "hour_offset", "feature", "value"])
        for s in stays:
            for spec in ts_specs:
                col = schema.index(spec.name)
                for h in range(s.grid.shape[0]):
                    if s.observed[h, col]:
                        w.writerow([s.stay_id, repr(h + 0.5), spec.name,
                                    repr(float(s.grid[h, col]))])
    with open(paths["labels"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stay_id", "sepsis_onset_hour"])
        for s in stays:
            onset = ("" if s.sepsis_onset_hour is None
                     else repr(s.sepsis_onset_hour))
            w.writerow([s.stay_id, onset])
    return paths


def assert_same_cohort(got, want):
    assert list(got.stays_by_icu) == list(want.stays_by_icu)
    for icu in want.stays_by_icu:
        assert len(got.stays_by_icu[icu]) == len(want.stays_by_icu[icu])
        for g, w in zip(got.stays_by_icu[icu], want.stays_by_icu[icu]):
            assert (g.stay_id, g.patient_id, g.icu_id, g.stay_index) == \
                (w.stay_id, w.patient_id, w.icu_id, w.stay_index)
            assert type(g.length_of_stay) is float
            assert g.length_of_stay == w.length_of_stay
            assert type(g.sepsis_onset_hour) is type(w.sepsis_onset_hour)
            assert g.sepsis_onset_hour == w.sepsis_onset_hour
            assert g.grid.dtype == w.grid.dtype
            np.testing.assert_array_equal(g.observed, w.observed)
            np.testing.assert_array_equal(np.isnan(g.grid),
                                          np.isnan(w.grid))
            assert g.grid.tobytes() == w.grid.tobytes(), g.stay_id


def assert_same_files(got, want):
    assert got.keys() == want.keys()
    for name in want:
        with open(got[name], "rb") as a, open(want[name], "rb") as b:
            assert a.read() == b.read(), name


class TestBatchedGeneration:
    @pytest.mark.parametrize("config", [
        small_config(),
        small_config(slow_frac=0.4, sign_flip_p=0.5),
        small_config(noise_scale=0.0),
        small_config(missingness=0.0),
        SynthConfig(counts={"CCU": 9, "NSICU": 4}, seed=7),
    ], ids=["default", "slow-burners", "no-noise", "no-missingness",
            "icus-left-out"])
    def test_bit_identical_to_per_stay_loop(self, config):
        assert_same_cohort(generate_cohort(config),
                           reference_generate_cohort(config))

    def test_slow_burners_flip_signs(self):
        """The slow-burner configuration does exercise sign flips: some
        septic signal column falls below its no-drift value."""
        cfg = small_config(slow_frac=0.4, noise_scale=0.0, missingness=0.0)
        flat = generate_cohort(dataclasses.replace(cfg, signal_amp=0.0))
        part = generate_cohort(cfg)
        cols = [default_schema().index(n) for n in SIGNAL_FEATURES]
        drift = np.stack([s.grid[:, cols] for s in part.all_stays()]) \
            - np.stack([s.grid[:, cols] for s in flat.all_stays()])
        assert (drift < 0).any() and (drift > 0).any()

    def test_ramp_is_the_inline_formula(self):
        """signal_drift on arrays gives the bits of the per-stay inline
        ramp and of its own scalar form."""
        rng = np.random.default_rng(0)
        onsets = np.concatenate([[6.0 + 1e-6, 30.0, 18.5],
                                 6.0 + 24.0 * rng.random(200)])
        hours = np.arange(N_HOURS)
        for lead in (26.0, 1.0, 7.3):
            batched = signal_drift(hours, onsets[:, None], lead)
            for onset, row in zip(onsets.tolist(), batched):
                inline = np.clip((hours - (onset - lead)) / lead, 0.0, 1.0)
                assert row.tobytes() == inline.tobytes()
                scalar = [signal_drift(float(h), onset, lead) for h in hours]
                assert row.tolist() == scalar

    def test_stays_are_views_into_one_stack_per_icu(self):
        part = generate_cohort(small_config())
        for stays in part.stays_by_icu.values():
            base = stays[0].grid.base
            assert base is not None and base.shape[0] == len(stays)
            assert all(s.grid.base is base for s in stays)


def hand_built_partition(n_random=6):
    """Stays whose ids need csv quoting, values whose repr is scientific,
    one stay with no time-series cell, and random sparse stays with
    values across 27 orders of magnitude."""
    schema = default_schema()
    ts_cols = [i for i, f in enumerate(schema.features)
               if f.name not in STATIC_NAMES]
    static_cols = [schema.index(n) for n in STATIC_NAMES]
    rng = np.random.default_rng(2024)

    def stay(stay_id, cells, onset=None, los=40.0):
        grid = np.full((N_HOURS, schema.n_features), np.nan)
        observed = np.zeros((N_HOURS, schema.n_features), dtype=bool)
        grid[:, static_cols] = [1.0, 2.0, 70.5, 1e-05, 82.25, 1.0]
        observed[:, static_cols] = True
        for (h, col), value in cells.items():
            grid[h, col] = value
            observed[h, col] = True
        return PatientStay(stay_id=stay_id, patient_id=f"p-{stay_id}",
                           icu_id="MICU", stay_index=1, length_of_stay=los,
                           grid=grid, observed=observed,
                           sepsis_onset_hour=onset)

    hr, vent = schema.index("heart_rate"), schema.index("mech_vent")
    stays = [
        stay("plain", {(0, hr): 1e-05, (29, hr): -2.5e-07, (3, vent): 1.0},
             onset=6.0 + 1e-6),
        stay("has,comma", {(5, ts_cols[0]): 1e+16, (5, hr): 0.1}),
        stay('has"quote', {(h, hr): -3.0 * h for h in range(N_HOURS)},
             los=1e+16),
        stay("silent", {}, onset=29.5),
        stay('both,"x"', {(7, ts_cols[-1]): 0.0, (8, hr): 5e-324}),
    ]
    for k in range(n_random):
        mask = rng.random((N_HOURS, len(ts_cols))) < 0.3
        values = (rng.standard_normal(mask.shape)
                  * 10.0 ** rng.integers(-9, 18, mask.shape))
        cells = {(h, ts_cols[j]): values[h, j] for h, j in zip(*mask.nonzero())}
        stays.append(stay(f"r{k}", cells))
    by_icu = {icu: [] for icu in ICU_NAMES}
    by_icu["MICU"] = stays
    return CohortPartition(schema=schema, stays_by_icu=by_icu)


class TestBlockExport:
    @pytest.mark.parametrize("block", [3, synthgen.EXPORT_BLOCK_STAYS])
    def test_hand_built_bytes_match_csv_writer(self, tmp_path, monkeypatch,
                                               block):
        monkeypatch.setattr(synthgen, "EXPORT_BLOCK_STAYS", block)
        part = hand_built_partition()
        assert len(part.all_stays()) % 3 != 0  # a last, short block
        assert_same_files(export_csv(part, tmp_path / "new"),
                          reference_export_csv(part, tmp_path / "old"))

    def test_ids_quoted_as_csv_writer_does(self, tmp_path):
        paths = export_csv(hand_built_partition(n_random=0), tmp_path)
        with open(paths["timeseries"], newline="") as fh:
            text = fh.read()
        assert '\r\n"has,comma",5.5,platelet,1e+16\r\n' in text
        assert '\r\n"has""quote",0.5,heart_rate,-0.0\r\n' in text
        assert "\r\nplain,29.5,heart_rate,-2.5e-07\r\n" in text
        assert "silent" not in text  # no time-series cell, no row

    @pytest.mark.parametrize("block", [3, synthgen.EXPORT_BLOCK_STAYS])
    def test_generated_bytes_match_csv_writer(self, tmp_path, monkeypatch,
                                              block):
        monkeypatch.setattr(synthgen, "EXPORT_BLOCK_STAYS", block)
        part = generate_cohort(small_config(slow_frac=0.4))
        assert_same_files(export_csv(part, tmp_path / "new"),
                          reference_export_csv(part, tmp_path / "old"))

    def test_hand_built_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synthgen, "EXPORT_BLOCK_STAYS", 3)
        part = hand_built_partition()
        paths = export_csv(part, tmp_path)
        back = ingest_csv(paths["static"], paths["timeseries"],
                          paths["labels"])
        assert_same_cohort(back, part)


class TestPooledExport:
    """The timeseries.csv blocks formatted in-process and in a fork pool."""

    @staticmethod
    def force_workers(monkeypatch, workers):
        """Run the export's blocks on ``workers`` processes, and fail a
        block formatted anywhere else."""
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: workers)
        parent, real = os.getpid(), synthgen._timeseries_block

        def checked(block, shared):
            assert (os.getpid() != parent) == (workers > 1)
            return real(block, shared)
        monkeypatch.setattr(synthgen, "_timeseries_block", checked)

    @pytest.mark.parametrize("block", [3, synthgen.EXPORT_BLOCK_STAYS])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, workers,
                                    block):
        part = generate_cohort(SynthConfig(
            counts={icu: 40 for icu in ICU_NAMES}, seed=11))
        assert len(part.all_stays()) > synthgen.EXPORT_BLOCK_STAYS
        self.force_workers(monkeypatch, workers)
        monkeypatch.setattr(synthgen, "EXPORT_BLOCK_STAYS", block)
        assert_same_files(export_csv(part, tmp_path / "new"),
                          reference_export_csv(part, tmp_path / "old"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_error_fails_export(self, tmp_path, monkeypatch, workers):
        self.force_workers(monkeypatch, workers)
        monkeypatch.setattr(synthgen, "EXPORT_BLOCK_STAYS", 3)
        real = synthgen._timeseries_block

        def failing(block, shared):
            if block.start == 6:
                raise SynthError("no rows for the block at stay 6")
            return real(block, shared)
        monkeypatch.setattr(synthgen, "_timeseries_block", failing)
        with pytest.raises(SynthError, match="block at stay 6"):
            export_csv(hand_built_partition(), tmp_path)
        assert multiprocessing.active_children() == []
