import json
import os

import numpy as np
import pytest

from fedhorizon import experiment, federation
from fedhorizon.config import resolve_config
from fedhorizon.schema import ICU_NAMES, INPUT_WINDOW
from fedhorizon.synthgen import SynthConfig, generate_cohort


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
            X = np.concatenate([c.X_train, c.X_val])
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

    def test_deterministic(self, tiny_partition):
        from fedhorizon.cohort import make_splits
        cfg = tiny_config()
        part = make_splits(tiny_partition, cfg.test_fraction, cfg.folds,
                           cfg.seed)
        a, _ = experiment.prepare_fold(part, 0, cfg)
        b, _ = experiment.prepare_fold(part, 0, cfg)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.X_train, cb.X_train)
            np.testing.assert_array_equal(ca.X_val, cb.X_val)


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
        monkeypatch.setattr(federation, "worker_count", lambda n_clients: 1)
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
