import json
import os

import numpy as np
import pytest

from fedhorizon import experiment, pool
from fedhorizon.config import ConfigError, resolve_config
from fedhorizon.schema import ICU_NAMES, INPUT_WINDOW, N_HOURS
from fedhorizon.synthgen import SynthConfig, generate_cohort
from fedhorizon.windowing import WindowSet


def tiny_config(**overrides):
    base = {"folds": 2, "rounds": 2, "local_epochs": 1, "batch_size": 32,
            "lstm_units": 3, "lstm_layers": 1, "dense_units": 3,
            "settings": "local,federated", "seed": 11}
    base.update(overrides)
    return resolve_config(overrides=base)


@pytest.fixture(scope="module")
def tiny_partition():
    return generate_cohort(SynthConfig(counts={icu: 10 for icu in ICU_NAMES},
                                       seed=11))


class TestPrepareFold:
    def test_one_client_per_icu(self, tiny_partition):
        from fedhorizon.cohort import make_splits
        cfg = tiny_config()
        part = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                           cfg.seed)
        clients, test_sets = experiment.prepare_fold(part, 0, cfg)
        assert {c.icu_id for c in clients} == set(ICU_NAMES)
        assert set(test_sets) == set(ICU_NAMES)

    def test_training_data_normalized(self, tiny_partition):
        """Training windows must be z-scored with per-client statistics:
        near-zero mean per feature over the client's own training split."""
        from fedhorizon.cohort import make_splits
        cfg = tiny_config(time_channel=False)
        part = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                           cfg.seed)
        clients, _ = experiment.prepare_fold(part, 0, cfg)
        for c in clients:
            X = np.concatenate([c.X_train[:], c.X_val[:]])
            means = np.abs(X.mean(axis=(0, 1)))
            # statistics are fit on whole 30-hour grids while windows
            # resample interior hours, so the match is loose on 10 patients
            assert means.max() < 1.5
            assert X.std(axis=(0, 1)).max() < 4.0

    def test_window_ends_are_t_plus_5(self, tiny_partition):
        from fedhorizon.cohort import make_splits
        cfg = tiny_config()
        part = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                           cfg.seed)
        _, test_sets = experiment.prepare_fold(part, 0, cfg)
        ts = test_sets["MICU"]
        assert ts.window_ends.min() >= INPUT_WINDOW - 1
        assert ts.window_ends.max() <= 29

    def test_feature_no_stay_records_names_icu_stay_and_feature(self):
        from dataclasses import replace
        from fedhorizon.cohort import CohortError, make_splits
        part = generate_cohort(SynthConfig(
            counts={icu: 10 for icu in ICU_NAMES}, seed=11))
        col = part.schema.index("fio2")
        ccu = []
        for stay in part.stays_by_icu["CCU"]:
            observed = stay.observed.copy()
            observed[:, col] = False
            ccu.append(replace(stay, observed=observed,
                               grid=np.where(observed, stay.grid, np.nan)))
        part.stays_by_icu["CCU"] = ccu
        cfg = tiny_config()
        split = make_splits(part, cfg.test_fraction, cfg.folds, cfg.seed)
        first, _ = split.train_test_stays("CCU", 0)
        with pytest.raises(CohortError) as info:
            experiment.prepare_fold(split, 0, cfg)
        assert str(info.value) == (
            f"ICU CCU, stay {first[0].stay_id!r}: feature 'fio2' fully "
            f"missing and no training mean available")

    def test_deterministic(self, tiny_partition):
        from fedhorizon.cohort import make_splits
        cfg = tiny_config()
        part = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                           cfg.seed)
        a, _ = experiment.prepare_fold(part, 0, cfg)
        b, _ = experiment.prepare_fold(part, 0, cfg)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.X_train[:], cb.X_train[:])
            np.testing.assert_array_equal(ca.X_val[:], cb.X_val[:])

    @pytest.mark.parametrize("time_channel", [True, False])
    def test_windows_hold_each_stack_row_once(self, tiny_partition,
                                              time_channel):
        """Every client's training and validation windows and its ICU's
        test windows hold at most the ICU's stacked grids, plus the time
        channel's column: no window is stored as a block of its own."""
        from fedhorizon.cohort import make_splits
        cfg = tiny_config(time_channel=time_channel)
        part = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                           cfg.seed)
        clients, test_sets = experiment.prepare_fold(part, 0, cfg)
        columns = part.schema.n_features + time_channel
        for c in clients:
            train, test = part.train_test_stays(c.icu_id, 0)
            stacked = (len(train) + len(test)) * N_HOURS * columns * 8
            held = (c.X_train.rows.nbytes + c.X_val.rows.nbytes
                    + test_sets[c.icu_id].X.rows.nbytes)
            assert held <= stacked, c.icu_id
            assert len(c.X_train) == len(c.y_train) > 0


@pytest.fixture(scope="module")
def run(tiny_partition):
    return experiment.run_all_folds(tiny_partition, tiny_config())


class TestRunAllFolds:
    def test_report_cells(self, run):
        keys = set(run.fold_results[0].report)
        for icu in ICU_NAMES:
            assert ("federated", icu) in keys
            assert ("local", icu) in keys
        assert ("federated", "overall") in keys

    def test_fir_eda_attached_to_federated(self, run):
        overall = run.fold_results[0].report[("federated", "overall")]
        assert "fir" in overall and "eda" in overall
        assert "fir" not in run.fold_results[0].report[("local", "overall")]

    def test_round_logs_labelled(self, run):
        labels = set(run.fold_results[0].round_logs)
        assert "federated" in labels
        assert f"local/MICU" in labels

    def test_aggregate_covers_all_cells(self, run):
        assert set(run.aggregate.mean) == set(run.fold_results[0].report)

    def test_parallel_matches_sequential(self, tiny_partition, run,
                                         monkeypatch):
        """Pooled client tasks (the `run` fixture) reproduce in-process
        training."""
        monkeypatch.setattr(pool, "worker_count", lambda n_clients: 1)
        seq = experiment.run_all_folds(tiny_partition, tiny_config())
        for par_fr, seq_fr in zip(run.fold_results, seq.fold_results):
            assert seq_fr.report == par_fr.report
            assert seq_fr.round_logs == par_fr.round_logs

    def test_emit_reports_byte_deterministic(self, run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        experiment.emit_reports(run, str(a))
        experiment.emit_reports(run, str(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_metrics_json_schema(self, run, tmp_path):
        paths = experiment.emit_reports(run, str(tmp_path / "o"))
        with open(paths["metrics_json"]) as fh:
            doc = json.load(fh)
        assert set(doc) == {"config_hash", "seed", "n_folds", "rows",
                            "aggregate"}
        row = doc["rows"][0]
        assert set(row) == {"setting", "icu", "fold", "f1", "auc", "fir",
                            "eda", "per_horizon_f1"}
        folds = {r["fold"] for r in doc["rows"]}
        assert folds == {0, 1}

    def test_rounds_jsonl_schema(self, run, tmp_path):
        paths = experiment.emit_reports(run, str(tmp_path / "r"))
        with open(paths["rounds_jsonl"]) as fh:
            lines = [json.loads(line) for line in fh]
        assert lines
        for obj in lines:
            assert set(obj) == {"round", "client_losses", "val_f1",
                                "converged", "fold", "label"}


def test_include_fixed_payload(tiny_partition, tmp_path):
    cfg = tiny_config(settings="federated", fixed_horizons="25,5")
    result = experiment.run_all_folds(tiny_partition, cfg, include_fixed=True)
    for fr in result.fold_results:
        assert set(fr.fixed) == {25, 5}
        for payload in fr.fixed.values():
            assert payload["rounds"] >= 1
            assert payload["variable_rounds"] >= 1
            assert "overall" in payload["deltas"]
    paths = experiment.emit_reports(result, str(tmp_path / "fx"))
    assert os.path.exists(paths["fixed_csv"])
    with open(paths["fixed_csv"]) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["horizon", "icu", "delta_f1_mean", "rounds_fixed_mean",
                      "rounds_variable_mean"]


@pytest.mark.parametrize("fold_only", [False, True])
def test_include_fixed_needs_the_federated_setting(tiny_partition, fold_only):
    """The fixed suite compares against the federated model, and the
    settings it runs are the configured ones: without ``federated`` a
    fold fails naming the key, before any training."""
    from fedhorizon.cohort import make_splits
    cfg = tiny_config(settings="local", fixed_horizons="25")
    with pytest.raises(ConfigError, match=r"settings = local: .*'federated'"):
        if fold_only:
            split = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                                cfg.seed)
            experiment.run_fold(split, 0, cfg, include_fixed=True)
        else:
            experiment.run_all_folds(tiny_partition, cfg, include_fixed=True)


def _reference_prepare_fold(partition, fold, cfg):
    """The per-stay pipeline prepare_fold must match bit for bit: a running
    mean per stay, np.interp per stay and feature, statistics over stacked
    grids, and a window loop per stay. Returns {icu: (client fields, test
    fields)}."""
    from fedhorizon.schema import INPUT_WINDOW, N_HOURS

    def interp_impute(grid, observed, means):
        out = grid.copy()
        hours = np.arange(N_HOURS)
        for f in range(grid.shape[1]):
            col = observed[:, f]
            if not col.any():
                out[:, f] = means[f]
            elif not col.all():
                out[~col, f] = np.interp(hours[~col], hours[col], grid[col, f])
        return out

    def window_loop(pairs):
        X, y, h, ends, pids = [], [], [], [], []
        for grid, stay in pairs:
            onset = stay.sepsis_onset_hour
            for t in range(N_HOURS - INPUT_WINDOW + 1):
                if onset is not None and not (t + INPUT_WINDOW < onset):
                    break
                window = grid[t:t + INPUT_WINDOW, :]
                if cfg.time_channel:
                    tcol = np.full((INPUT_WINDOW, 1), t / (N_HOURS - INPUT_WINDOW))
                    window = np.concatenate([window, tcol], axis=1)
                X.append(window)
                y.append(0 if onset is None else 1)
                h.append(25 - t)
                ends.append(t + INPUT_WINDOW - 1)
                pids.append(stay.patient_id)
        return (np.stack(X), np.array(y, dtype=np.float64),
                np.array(h, dtype=np.int64), np.array(ends, dtype=np.float64),
                pids)

    out = {}
    for icu_index, icu in enumerate(ICU_NAMES):
        train, test = partition.train_test_stays(icu, fold)
        total = np.zeros(26)
        count = np.zeros(26)
        for s in train:
            total += np.where(s.observed, s.grid, 0.0).sum(axis=0)
            count += s.observed.sum(axis=0)
        means = np.full(26, np.nan)
        means[count > 0] = total[count > 0] / count[count > 0]
        train_imp = [interp_impute(s.grid, s.observed, means) for s in train]
        test_imp = [interp_impute(s.grid, s.observed, means) for s in test]
        data = np.stack(train_imp)
        mean, std = data.mean(axis=(0, 1)), data.std(axis=(0, 1))
        std = np.where(std < 1e-8, 1.0, std)
        train_pairs = [((g - mean) / std, s) for g, s in zip(train_imp, train)]
        test_pairs = [((g - mean) / std, s) for g, s in zip(test_imp, test)]

        rng = np.random.default_rng([cfg.seed, fold, icu_index, 0x5A11])
        pos = [p for p in train_pairs if p[1].septic]
        neg = [p for p in train_pairs if not p[1].septic]
        rng.shuffle(pos)
        rng.shuffle(neg)
        n_val_pos = max(1, round(cfg.val_fraction * len(pos))) if pos else 0
        n_val_neg = max(1, round(cfg.val_fraction * len(neg))) if neg else 0
        X_tr, y_tr, h_tr, _, _ = window_loop(pos[n_val_pos:] + neg[n_val_neg:])
        X_val, y_val, h_val, _, _ = window_loop(pos[:n_val_pos] + neg[:n_val_neg])
        n_pos = int(y_tr.sum())
        pos_weight = ((len(y_tr) - n_pos) / max(n_pos, 1)
                      if cfg.pos_weight == "auto" else float(cfg.pos_weight))
        client = (X_tr, y_tr, h_tr, X_val, y_val, h_val, pos_weight)
        X_te, y_te, h_te, ends_te, pids_te = window_loop(test_pairs)
        septic = sorted({s.patient_id for s in test if s.septic})
        out[icu] = (client, (X_te, y_te, h_te, ends_te, np.array(pids_te),
                             septic))
    return out


def _assert_same_bits(got, want, what):
    if isinstance(got, WindowSet):
        got = got[:]
    if isinstance(want, WindowSet):
        want = want[:]
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, what
        assert got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what
    else:
        assert type(got) is type(want) and got == want, what


class TestPrepareFoldMatchesPerStayReference:
    @pytest.fixture(scope="class")
    def split(self):
        from fedhorizon.cohort import make_splits
        # heavy missingness: interior gaps, edge gaps and empty columns
        part = generate_cohort(SynthConfig(
            counts={icu: 12 for icu in ICU_NAMES}, missingness=0.85, seed=5))
        return make_splits(part, 0.2, 3, seed=5)

    @pytest.mark.parametrize("time_channel", [True, False])
    @pytest.mark.parametrize("fold", [0, 2])
    def test_bit_identical(self, split, fold, time_channel):
        cfg = tiny_config(time_channel=time_channel, folds=3, seed=5)
        empty_columns = sum(int((~s.observed.any(axis=0)).sum())
                            for s in split.all_stays())
        assert empty_columns > 0  # the training-mean branch is exercised
        clients, test_sets = experiment.prepare_fold(split, fold, cfg)
        want = _reference_prepare_fold(split, fold, cfg)
        assert [c.icu_id for c in clients] == list(want)
        for c in clients:
            ref_client, ref_test = want[c.icu_id]
            fields = ("X_train", "y_train", "h_train", "X_val", "y_val",
                      "h_val", "loss_pos_weight")
            for name, ref in zip(fields, ref_client):
                _assert_same_bits(getattr(c, name), ref, f"{c.icu_id} {name}")
            test = test_sets[c.icu_id]
            fields = ("X", "y", "horizons", "window_ends", "patient_ids",
                      "septic_patients")
            for name, ref in zip(fields, ref_test):
                _assert_same_bits(getattr(test, name), ref,
                                  f"{c.icu_id} test {name}")

    def test_repeated_calls_leave_partition_unchanged(self, split):
        cfg = tiny_config(folds=3, seed=5)
        before = [(s.grid.tobytes(), s.observed.tobytes(), s.imputed,
                   s.sepsis_onset_hour) for s in split.all_stays()]
        first_clients, first_tests = experiment.prepare_fold(split, 1, cfg)
        second_clients, second_tests = experiment.prepare_fold(split, 1, cfg)
        after = [(s.grid.tobytes(), s.observed.tobytes(), s.imputed,
                  s.sepsis_onset_hour) for s in split.all_stays()]
        assert after == before
        for a, b in zip(first_clients, second_clients):
            for name in ("X_train", "y_train", "h_train", "X_val", "y_val",
                         "h_val"):
                _assert_same_bits(getattr(b, name), getattr(a, name), name)
        for icu, test in first_tests.items():
            _assert_same_bits(second_tests[icu].X, test.X, icu)
