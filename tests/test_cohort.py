import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhorizon.cohort import (
    CohortError, Normalization, UnfillableColumn, aggregate_hours,
    apply_inclusion, feature_means, impute_grids, ingest_csv, make_splits,
    stack_stays,
)
from fedhorizon.schema import default_schema
from fedhorizon.synthgen import SynthConfig, export_csv, generate_cohort

from conftest import make_stay

SCHEMA = default_schema()


class TestApplyInclusion:
    def test_adult_first_long_stay_kept(self):
        stay = make_stay(los=45.0)
        assert apply_inclusion([stay]) == [stay]

    def test_short_stay_excluded(self):
        assert apply_inclusion([make_stay(los=29.0)]) == []

    def test_second_stay_excluded(self):
        first = make_stay("s1", patient_id="p", los=45.0, stay_index=1)
        second = make_stay("s2", patient_id="p", los=60.0, stay_index=2)
        assert apply_inclusion([first, second]) == [first]

    def test_unknown_icu_excluded(self):
        assert apply_inclusion([make_stay(icu="PICU")]) == []

    def test_order_preserved_and_idempotent(self):
        stays = [make_stay(f"s{i}", los=30 + i) for i in range(5)]
        once = apply_inclusion(stays)
        assert once == stays
        assert apply_inclusion(once) == once


def _aggregate_rows(rows, n_stays, n_features):
    """Per-row reference: walk the rows in order, keep the latest offset of
    each (stay, hour, feature) cell, a later row winning a tie."""
    grid = np.full((n_stays, 30, n_features), np.nan)
    best = {}
    for stay, hour, feature, value in rows:
        if hour >= 30:
            continue
        cell = (stay, int(hour), feature)
        if cell not in best or hour >= best[cell]:
            best[cell] = hour
            grid[cell] = value
    return grid, ~np.isnan(grid)


def _columns(rows):
    stay, hour, feature, value = zip(*rows) if rows else ((), (), (), ())
    return (np.array(stay, dtype=np.intp), np.array(hour, dtype=np.float64),
            np.array(feature, dtype=np.intp), np.array(value, dtype=np.float64))


def _lexsort_aggregate(stay, hour, feature, value, n_stays, n_features):
    """The sort-based aggregation aggregate_hours replaced: sort rows by
    cell, then stably by hour, and keep the last row of each cell."""
    keep = hour < 30
    hour = hour[keep]
    cell = ((stay[keep] * 30 + hour.astype(np.intp)) * n_features
            + feature[keep])
    order = np.lexsort((hour, cell))
    cell = cell[order]
    last = np.ones(cell.shape, dtype=bool)
    last[:-1] = cell[1:] != cell[:-1]
    size = n_stays * 30 * n_features
    grid = np.full(size, np.nan)
    observed = np.zeros(size, dtype=bool)
    grid[cell[last]] = value[keep][order[last]]
    observed[cell[last]] = True
    shape = (n_stays, 30, n_features)
    return grid.reshape(shape), observed.reshape(shape)


ROWS = st.lists(st.tuples(
    st.integers(0, 2),
    # quarter hours: many same-hour ties, and offsets at or past hour 30
    st.integers(0, 4 * 33).map(lambda q: q / 4),
    st.integers(0, 3),
    st.integers(-5, 5).map(float),
), max_size=60)


class TestAggregateHours:
    @given(ROWS)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_reference(self, rows):
        grid, observed = aggregate_hours(*_columns(rows), 3, 4)
        ref_grid, ref_observed = _aggregate_rows(rows, 3, 4)
        assert np.array_equal(observed, ref_observed)
        assert np.array_equal(grid, ref_grid, equal_nan=True)

    @given(st.lists(st.integers(0, 4 * 33), unique=True, min_size=1,
                    max_size=40), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_distinct_timestamps_any_order(self, quarters, random):
        rows = [(q % 2, q / 4, q % 3, float(q)) for q in quarters]
        shuffled = list(rows)
        random.shuffle(shuffled)
        grid, observed = aggregate_hours(*_columns(shuffled), 2, 3)
        ref_grid, ref_observed = _aggregate_rows(rows, 2, 3)
        assert np.array_equal(observed, ref_observed)
        assert np.array_equal(grid, ref_grid, equal_nan=True)

    @given(ROWS)
    @settings(max_examples=200, deadline=None)
    def test_equals_lexsort_aggregation_bit_for_bit(self, rows):
        grid, observed = aggregate_hours(*_columns(rows), 3, 4)
        ref_grid, ref_observed = _lexsort_aggregate(*_columns(rows), 3, 4)
        assert observed.tobytes() == ref_observed.tobytes()
        assert grid.tobytes() == ref_grid.tobytes()

    def test_exact_duplicates_apart_in_file_order(self):
        # (stay 1, hour 4.5, feature 2) three times, other rows between;
        # the last of them in file order wins, also over an earlier hour
        rows = [(1, 4.5, 2, 10.0), (0, 4.5, 2, 1.0), (1, 4.25, 2, 7.0),
                (1, 4.5, 2, 20.0), (1, 4.5, 0, 3.0), (1, 9.0, 2, 5.0),
                (1, 4.5, 2, 30.0), (1, 4.0, 2, 40.0), (0, 4.5, 2, 2.0)]
        grid, observed = aggregate_hours(*_columns(rows), 2, 3)
        assert grid[1, 4, 2] == 30.0
        assert grid[0, 4, 2] == 2.0
        assert observed.sum() == 4
        ref_grid, ref_observed = _lexsort_aggregate(*_columns(rows), 2, 3)
        assert observed.tobytes() == ref_observed.tobytes()
        assert grid.tobytes() == ref_grid.tobytes()
        ref_grid, _ = _aggregate_rows(rows, 2, 3)
        assert np.array_equal(grid, ref_grid, equal_nan=True)


def _full_stack_impute(grids, observed, training_means):
    """The whole-stack imputation impute_grids replaced: previous and next
    observed hours of every cell, np.interp's formula on every cell, then
    the edge, observed and training-mean rules as full-stack selections."""
    n_hours = grids.shape[1]
    empty = ~observed.any(axis=1)
    hours = np.arange(n_hours)[:, None]
    prev = np.maximum.accumulate(np.where(observed, hours, -1), axis=1)
    after = np.where(observed, hours, n_hours)[:, ::-1]
    nxt = np.minimum.accumulate(after, axis=1)[:, ::-1]
    y0 = np.take_along_axis(grids, np.maximum(prev, 0), axis=1)
    y1 = np.take_along_axis(grids, np.minimum(nxt, n_hours - 1), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - y0) / (nxt - prev)
        out = slope * (hours - prev) + y0
    out = np.where(prev < 0, y1, out)
    out = np.where(nxt == n_hours, y0, out)
    out = np.where(observed, grids, out)
    return np.where(empty[:, None, :], training_means, out)


# how one (stay, feature) column of a test stack is observed
COLUMN_KINDS = ("random", "random", "empty", "one", "first", "last",
                "first_and_last", "full")


def _column_mask(kind, rng):
    mask = np.zeros(30, dtype=bool)
    if kind == "random":
        mask = rng.random(30) < rng.uniform(0.05, 0.95)
    elif kind == "one":
        mask[rng.integers(30)] = True
    elif kind in ("first", "first_and_last"):
        mask[0] = True
    if kind in ("last", "first_and_last"):
        mask[29] = True
    if kind == "full":
        mask[:] = True
    return mask


class TestImputeGridsMatchesFullStack:
    @given(st.integers(0, 4), st.integers(1, 4), st.data(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, n_stays, n_features, data, seed):
        kinds = data.draw(st.lists(st.sampled_from(COLUMN_KINDS),
                                   min_size=n_stays * n_features,
                                   max_size=n_stays * n_features))
        rng = np.random.default_rng(seed)
        observed = np.zeros((n_stays, 30, n_features), dtype=bool)
        for i, kind in enumerate(kinds):
            observed[i // n_features, :, i % n_features] = _column_mask(
                kind, rng)
        scale = 10.0 ** rng.integers(-3, 6)
        grids = np.where(observed, rng.normal(size=observed.shape) * scale,
                         np.nan)
        means = rng.normal(size=n_features) * scale
        out = impute_grids(grids, observed, means)
        want = _full_stack_impute(grids, observed, means)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()
        assert not np.isnan(out).any()

    @pytest.mark.parametrize("n_stays", [0, 3])
    def test_fully_observed_stack_is_copied(self, n_stays):
        grids = np.random.default_rng(5).normal(size=(n_stays, 30, 4))
        observed = np.ones(grids.shape, dtype=bool)
        out = impute_grids(grids, observed, np.full(4, np.nan))
        assert out.tobytes() == grids.tobytes()
        assert not np.shares_memory(out, grids)

    def test_non_contiguous_stack(self):
        rng = np.random.default_rng(4)
        observed = rng.random((6, 30, 5)) < 0.5
        observed[1, :, 2] = False
        grids = np.where(observed, rng.normal(size=observed.shape), np.nan)
        means = rng.normal(size=5)
        out = impute_grids(grids[::2], observed[::2], means)
        want = _full_stack_impute(grids[::2], observed[::2], means)
        assert out.tobytes() == want.tobytes()

    def test_unfillable_column_names_grid_and_feature(self):
        observed = np.ones((3, 30, 4), dtype=bool)
        observed[:, :, 3] = False
        observed[:, 5, 3] = True  # a mean is needed only for empty columns
        grids = np.where(observed, 1.0, np.nan)
        means = np.array([0.0, np.nan, 0.0, np.nan])
        assert not np.isnan(impute_grids(grids, observed, means)).any()
        observed[2, :, 1] = False
        with pytest.raises(UnfillableColumn) as info:
            impute_grids(np.where(observed, 1.0, np.nan), observed, means)
        assert (info.value.grid, info.value.feature) == (2, 1)
        assert isinstance(info.value, CohortError)


class TestImpute:
    """``impute_grids`` on one-grid stacks."""

    def _column(self, pairs):
        grid = np.full((1, 30, 26), 0.0)
        observed = np.ones((1, 30, 26), dtype=bool)
        grid[0, :, 5] = np.nan
        observed[0, :, 5] = False
        for h, v in pairs:
            grid[0, h, 5] = v
            observed[0, h, 5] = True
        return grid, observed

    def test_interior_linear_interpolation(self):
        grid, observed = self._column([(2, 10.0), (5, 16.0)])
        out = impute_grids(grid, observed, np.zeros(26))[0]
        assert out[3, 5] == pytest.approx(12.0)
        assert out[4, 5] == pytest.approx(14.0)

    def test_fully_missing_column_uses_training_mean(self):
        grid, observed = self._column([])
        means = np.zeros(26)
        means[5] = 7.5
        out = impute_grids(grid, observed, means)[0]
        assert np.all(out[:, 5] == 7.5)

    def test_edge_gaps_extend_nearest_value(self):
        # oracle: single observed point, every cell must equal it
        grid, observed = self._column([(10, 3.0)])
        out = impute_grids(grid, observed, np.zeros(26))[0]
        assert np.all(out[:, 5] == 3.0)

    def test_matches_reference_interpolation(self):
        # independent reference: manual interpolation on the same inputs
        rng = np.random.default_rng(3)
        pairs = [(2, 1.0), (7, 4.0), (13, -2.0), (25, 9.0)]
        grid, observed = self._column(pairs)
        out = impute_grids(grid, observed, np.zeros(26))[0]
        hours = np.array([h for h, _ in pairs], dtype=float)
        vals = np.array([v for _, v in pairs])
        for h in range(30):
            if h <= 2:
                expect = 1.0
            elif h >= 25:
                expect = 9.0
            else:
                right = np.searchsorted(hours, h)
                if hours[right - 1] == h:
                    expect = vals[right - 1]
                else:
                    h0, h1 = hours[right - 1], hours[right]
                    w = (h - h0) / (h1 - h0)
                    expect = (1 - w) * vals[right - 1] + w * vals[right]
            assert out[h, 5] == pytest.approx(expect)

    def test_observed_cells_never_altered_and_complete(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(1, 30, 26))
        observed = rng.random((1, 30, 26)) > 0.4
        masked = np.where(observed, grid, np.nan)
        out = impute_grids(masked, observed, np.zeros(26))
        assert np.array_equal(out[observed], grid[observed])
        assert not np.isnan(out).any()

    def test_missing_mean_for_fully_missing_column_errors(self):
        grid, observed = self._column([])
        means = np.zeros(26)
        means[5] = np.nan
        with pytest.raises(CohortError):
            impute_grids(grid, observed, means)


class TestIngestCsv:
    def _write(self, tmp_path, static, timeseries, labels):
        paths = {}
        for name, text in (("static", static), ("timeseries", timeseries),
                           ("labels", labels)):
            p = tmp_path / f"{name}.csv"
            p.write_text(text)
            paths[name] = str(p)
        return paths

    STATIC = (
        "stay_id,patient_id,icu,stay_index,los_hours,gender,ethnicity,"
        "age,height,weight,diabetes\n"
        "s1,p1,MICU,1,45.0,F,WHITE,60,170,70,0\n"
        "s2,p2,CCU,1,20.0,M,ASIAN,70,180,90,1\n"
        "s3,p1,SICU,2,60.0,F,WHITE,60,170,70,0\n"
    )
    TS = ("stay_id,hour_offset,feature,value\n"
          "s1,3.2,heart_rate,80\n"
          "s1,3.8,heart_rate,84\n")
    LABELS = ("stay_id,sepsis_onset_hour\n"
              "s1,12.5\n"
              "s2,\n"
              "s3,\n")

    def test_toy_fixture_keeps_one_stay(self, tmp_path):
        paths = self._write(tmp_path, self.STATIC, self.TS, self.LABELS)
        part = ingest_csv(paths["static"], paths["timeseries"], paths["labels"])
        # s2 too short, s3 is a second stay
        assert len(part.all_stays()) == 1
        stay = part.stays_by_icu["MICU"][0]
        assert stay.stay_id == "s1"
        assert stay.sepsis_onset_hour == 12.5
        assert stay.grid[3, SCHEMA.index("heart_rate")] == 84.0

    def test_empty_timeseries_leaves_cells_missing(self, tmp_path):
        paths = self._write(tmp_path, self.STATIC,
                            "stay_id,hour_offset,feature,value\n", self.LABELS)
        part = ingest_csv(paths["static"], paths["timeseries"], paths["labels"])
        stay = part.stays_by_icu["MICU"][0]
        assert not stay.observed[:, SCHEMA.index("heart_rate")].any()
        # static features are always observed
        assert stay.observed[:, SCHEMA.index("age")].all()

    def test_unknown_stay_in_labels_names_the_id(self, tmp_path):
        labels = "stay_id,sepsis_onset_hour\nghost,5.0\n"
        paths = self._write(tmp_path, self.STATIC, self.TS, labels)
        with pytest.raises(CohortError, match="ghost"):
            ingest_csv(paths["static"], paths["timeseries"], paths["labels"])

    def test_duplicate_stay_id_errors(self, tmp_path):
        static = self.STATIC + "s1,p9,MICU,1,40.0,M,OTHER,50,175,80,0\n"
        paths = self._write(tmp_path, static, self.TS, self.LABELS)
        with pytest.raises(CohortError, match="duplicate"):
            ingest_csv(paths["static"], paths["timeseries"], paths["labels"])

    def test_onset_out_of_range_errors(self, tmp_path):
        labels = "stay_id,sepsis_onset_hour\ns1,31.0\n"
        paths = self._write(tmp_path, self.STATIC, self.TS, labels)
        with pytest.raises(CohortError, match="31.0"):
            ingest_csv(paths["static"], paths["timeseries"], paths["labels"])

    def test_malformed_row_reports_line_number(self, tmp_path):
        ts = "stay_id,hour_offset,feature,value\ns1,notanumber,heart_rate,80\n"
        paths = self._write(tmp_path, self.STATIC, ts, self.LABELS)
        with pytest.raises(CohortError, match=":2"):
            ingest_csv(paths["static"], paths["timeseries"], paths["labels"])


    def _ingest(self, tmp_path, static=None, ts=None, labels=None):
        paths = self._write(tmp_path, static or self.STATIC, ts or self.TS,
                            labels or self.LABELS)
        return ingest_csv(paths["static"], paths["timeseries"], paths["labels"])

    @pytest.mark.parametrize("hour", ["nan", "inf", "-inf"])
    def test_non_finite_hour_offset_names_line(self, tmp_path, hour):
        ts = self.TS + f"s1,{hour},heart_rate,80\n"
        with pytest.raises(CohortError, match=r"timeseries\.csv:4: non-finite "
                                              r"hour_offset"):
            self._ingest(tmp_path, ts=ts)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        ts = self.TS + f"s1,4.0,heart_rate,{value}\n"
        with pytest.raises(CohortError, match=r"timeseries\.csv:4: non-finite "
                                              r"value"):
            self._ingest(tmp_path, ts=ts)

    @pytest.mark.parametrize("column", ["los_hours", "age", "height", "weight"])
    def test_non_finite_static_number_names_line(self, tmp_path, column):
        lines = self.STATIC.splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index(column)] = "nan"
        lines[2] = ",".join(row)
        static = "\n".join(lines) + "\n"
        with pytest.raises(CohortError,
                           match=rf"static\.csv:3: non-finite {column}"):
            self._ingest(tmp_path, static=static)

    @pytest.mark.parametrize("row,got", [("s1,3.0,heart_rate", 3),
                                         ("s1,3.0,heart_rate,80,1", 5)])
    def test_wrong_field_count_names_physical_line(self, tmp_path, row, got):
        # blank lines are skipped but still counted
        ts = self.TS + "\n\n" + row + "\n"
        with pytest.raises(CohortError, match=rf"timeseries\.csv:6: expected 4 "
                                              rf"fields, got {got}"):
            self._ingest(tmp_path, ts=ts)

    def test_wrong_static_field_count_names_line(self, tmp_path):
        static = self.STATIC + "s4,p4,MICU,1,45.0,F,WHITE,60,170,70\n"
        with pytest.raises(CohortError, match=r"static\.csv:5: expected 11 "
                                              r"fields, got 10"):
            self._ingest(tmp_path, static=static)

    def test_unknown_stay_and_feature_name_line(self, tmp_path):
        ts = self.TS + "\ns1x,1.0,heart_rate,80\n"
        with pytest.raises(CohortError, match=r":5: unknown stay_id 's1x'"):
            self._ingest(tmp_path, ts=ts)
        ts = self.TS + "s1,1.0,serum_rhubarb,80\n"
        with pytest.raises(CohortError, match=r":4: unknown feature "
                                              r"'serum_rhubarb'"):
            self._ingest(tmp_path, ts=ts)

    def test_negative_hour_offset_names_line(self, tmp_path):
        ts = self.TS + "s1,-0.5,heart_rate,80\n"
        with pytest.raises(CohortError, match=r":4: negative hour_offset -0.5"):
            self._ingest(tmp_path, ts=ts)

    def test_non_numeric_onset_names_line(self, tmp_path):
        labels = "stay_id,sepsis_onset_hour\ns1,soon\n"
        with pytest.raises(CohortError, match=r"labels\.csv:2"):
            self._ingest(tmp_path, labels=labels)

    def test_quoted_fields_and_hash_are_data(self, tmp_path):
        static = self.STATIC.replace("s1,p1,MICU", '"s#1,a",p1,MICU')
        labels = self.LABELS.replace("s1,", '"s#1,a",')
        ts = ("stay_id,hour_offset,feature,value\n"
              '"s#1,a",3.2,heart_rate,80\n'
              '"s#1,a",3.8,"heart_rate",84\n')
        part = self._ingest(tmp_path, static=static, ts=ts, labels=labels)
        stay = part.stays_by_icu["MICU"][0]
        assert stay.stay_id == "s#1,a"
        assert stay.grid[3, SCHEMA.index("heart_rate")] == 84.0

    def test_stays_are_views_into_one_stack(self, tmp_path):
        static = self.STATIC + "s4,p4,CCU,1,50.0,M,WHITE,55,175,80,1\n"
        labels = self.LABELS + "s4,\n"
        part = self._ingest(tmp_path, static=static, labels=labels)
        a, b = part.stays_by_icu["MICU"][0], part.stays_by_icu["CCU"][0]
        assert a.grid.base is not None and a.grid.base is b.grid.base
        assert b.grid[0, SCHEMA.index("diabetes")] == 1.0
        assert np.isnan(b.grid[:, SCHEMA.index("heart_rate")]).all()


class TestMakeSplits:
    def _partition(self, n=10, n_pos=2, icu="MICU"):
        cfg = SynthConfig(counts={icu: n}, prevalence=0.5, seed=1)
        part = generate_cohort(cfg)
        # force an exact positive count for deterministic assertions
        stays = part.stays_by_icu[icu]
        for i, s in enumerate(stays):
            s.sepsis_onset_hour = 15.0 if i < n_pos else None
        return part

    def test_each_fold_tests_two_of_ten(self):
        part = make_splits(self._partition(), 0.2, 5, seed=7)
        assign = part.folds["MICU"]
        sizes = [sum(1 for f in assign.values() if f == k) for k in range(5)]
        assert sizes == [2, 2, 2, 2, 2]
        pos_folds = [assign[s.patient_id] for s in part.stays_by_icu["MICU"]
                     if s.septic]
        assert len(set(pos_folds)) == 2  # positives spread across folds

    def test_same_seed_identical(self):
        a = make_splits(self._partition(), 0.2, 5, seed=7)
        b = make_splits(self._partition(), 0.2, 5, seed=7)
        assert a.folds == b.folds

    def test_train_share_is_point_eight(self):
        part = make_splits(self._partition(), 0.2, 5, seed=7)
        train, test = part.train_test_stays("MICU", 0)
        assert len(train) / (len(train) + len(test)) == 0.8

    def test_too_few_patients_errors(self):
        with pytest.raises(CohortError, match="fewer"):
            make_splits(self._partition(n=3, n_pos=1), 0.2, 5, seed=7)

    def test_folds_partition_patients_with_stratification(self):
        part = self._partition(n=37, n_pos=11)
        split = make_splits(part, 0.2, 5, seed=3)
        assign = split.folds["MICU"]
        stays = part.stays_by_icu["MICU"]
        assert set(assign) == {s.patient_id for s in stays}
        pos_ids = {s.patient_id for s in stays if s.septic}
        per_fold_pos = [sum(1 for p in pos_ids if assign[p] == k)
                        for k in range(5)]
        assert max(per_fold_pos) - min(per_fold_pos) <= 1


def test_training_feature_means_ignores_missing_cells():
    a = make_stay("a")
    a.grid[:, 0] = 2.0
    b = make_stay("b")
    b.grid[:, 0] = 4.0
    b.observed[:, 0] = False
    means = feature_means(*stack_stays([a, b], 26))
    assert means[0] == 2.0


def test_normalization_zero_variance_guard():
    stays = [make_stay("a"), make_stay("b")]
    norm = Normalization.fit(stays)
    assert np.all(norm.std == 1.0)
    assert np.allclose(norm.apply(stays[0].grid), 0.0)
