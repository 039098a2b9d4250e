"""Per-fold experiment pipeline: preprocessing, training under each
evaluation setting, metric computation, fold aggregation, and report file
emission.

All fold-level randomness derives from (seed, fold). Folds run in order;
within a fold, federation trains the clients of a FedAvg round, and the
local and central trainings side by side, in worker processes, one per
usable CPU.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import federation, nn, windowing
from .cohort import CohortPartition, Normalization, impute_stay, make_splits, \
    training_feature_means
from .config import ExperimentConfig, config_hash, persist_config
from .metrics import DetectionRecord, aggregate_folds, confusion, eda, \
    earliest_detection, f1, fir, per_horizon_f1, roc_auc
from .schema import ICU_NAMES, INPUT_WINDOW


@dataclass
class TestSet:
    icu_id: str
    X: np.ndarray
    y: np.ndarray
    horizons: np.ndarray
    window_ends: np.ndarray
    patient_ids: list
    septic_patients: list  # patient ids with sepsis onset in the test split


@dataclass
class FoldResult:
    fold: int
    report: dict  # (setting, icu) -> {metric: value}
    round_logs: dict = field(default_factory=dict)  # label -> [dict]
    fixed: dict | None = None  # horizon -> comparison payload


def _sample_arrays(samples):
    X = np.stack([s.features for s in samples])
    y = np.array([s.label for s in samples], dtype=np.float64)
    h = np.array([s.horizon for s in samples], dtype=np.int64)
    ends = np.array([s.window_start + INPUT_WINDOW - 1 for s in samples],
                    dtype=np.float64)
    pids = [s.patient_id for s in samples]
    return X, y, h, ends, pids


def prepare_fold(partition: CohortPartition, fold: int, cfg: ExperimentConfig):
    """Build per-ICU clients (imputed, normalized, windowed) and test sets.

    Imputation means and z-score statistics come from the client's own
    training split; the validation carve-out is a stratified 10% of
    training patients, used only for convergence checks.
    """
    clients: list[federation.ClientState] = []
    test_sets: dict[str, TestSet] = {}
    for icu_index, icu in enumerate(ICU_NAMES):
        if icu not in partition.stays_by_icu or not partition.stays_by_icu[icu]:
            continue
        train_stays, test_stays = partition.train_test_stays(icu, fold)
        if not train_stays:
            raise federation.FederationError(
                f"ICU {icu}: empty training split in fold {fold}")
        means = training_feature_means(train_stays)
        train_imp = [impute_stay(s, means) for s in train_stays]
        test_imp = [impute_stay(s, means) for s in test_stays]
        norm = Normalization.fit(train_imp)
        for stay in train_imp + test_imp:
            stay.grid = norm.apply(stay.grid)

        rng = np.random.default_rng([cfg.seed, fold, icu_index, 0x5A11])
        pos = [s for s in train_imp if s.septic]
        neg = [s for s in train_imp if not s.septic]
        rng.shuffle(pos)
        rng.shuffle(neg)
        n_val_pos = max(1, round(cfg.val_fraction * len(pos))) if pos else 0
        n_val_neg = max(1, round(cfg.val_fraction * len(neg))) if neg else 0
        val_stays = pos[:n_val_pos] + neg[:n_val_neg]
        core_stays = pos[n_val_pos:] + neg[n_val_neg:]

        def window_all(stays):
            out = []
            for s in stays:
                out.extend(windowing.make_windows(s, time_channel=cfg.time_channel))
            return out

        tr_samples = window_all(core_stays)
        val_samples = window_all(val_stays)
        te_samples = window_all(test_imp)
        X_tr, y_tr, h_tr, _, _ = _sample_arrays(tr_samples)
        X_val, y_val, h_val, _, _ = _sample_arrays(val_samples)
        n_pos = int(y_tr.sum())
        n_neg = int(y_tr.shape[0] - n_pos)
        clients.append(federation.ClientState(
            icu_id=icu, index=icu_index,
            X_train=X_tr, y_train=y_tr, h_train=h_tr,
            X_val=X_val, y_val=y_val, h_val=h_val,
            pos_weight=cfg.pos_weight_value(n_pos, n_neg),
        ))
        X_te, y_te, h_te, ends_te, pids_te = _sample_arrays(te_samples)
        test_sets[icu] = TestSet(
            icu_id=icu, X=X_te, y=y_te, horizons=h_te, window_ends=ends_te,
            patient_ids=pids_te,
            septic_patients=sorted({s.patient_id for s in test_imp if s.septic}),
        )
    if not clients:
        raise federation.FederationError("partition has no populated ICUs")
    return clients, test_sets


def _model_config(cfg: ExperimentConfig) -> nn.ModelConfig:
    n_features = 26 + (1 if cfg.time_channel else 0)
    return nn.ModelConfig(
        n_features=n_features, lstm_units=cfg.lstm_units,
        lstm_layers=cfg.lstm_layers, dense_units=cfg.dense_units,
        dropout=cfg.dropout, seed=cfg.seed, dtype=cfg.dtype)


def _window_metrics(probs, y, horizons, threshold):
    counts = confusion(probs, y, threshold)
    metrics = {"f1": f1(counts)}
    try:
        metrics["auc"] = roc_auc(probs, y)
    except ValueError:
        metrics["auc"] = None
    for h, value in per_horizon_f1(probs, y, horizons, threshold).items():
        metrics[f"f1_h{h}"] = value
    return metrics


def _detections(test: TestSet, probs, threshold):
    """Earliest positive window end per septic test patient (None = missed)."""
    out = {}
    pid_arr = np.array(test.patient_ids)
    for pid in test.septic_patients:
        sel = pid_arr == pid
        out[pid] = earliest_detection(test.window_ends[sel], probs[sel], threshold)
    return out


def evaluate_fold(models: dict, test_sets: dict[str, TestSet],
                  cfg: ExperimentConfig) -> dict:
    """Fold report: (setting, icu|overall) -> metric dict.

    F1/AUC are window-level; FIR/EDA are patient-level comparisons of the
    federated model against each ICU's local model and are attached to
    the federated rows.
    """
    threshold = cfg.threshold
    report: dict = {}
    probs_cache: dict = {}
    icus = sorted(test_sets)

    for setting, per_setting in models.items():
        overall_probs, overall_y, overall_h = [], [], []
        for icu in icus:
            test = test_sets[icu]
            model = per_setting[icu] if setting == "local" else \
                per_setting[setting]
            probs = model.predict_proba(test.X)
            probs_cache[(setting, icu)] = probs
            report[(setting, icu)] = _window_metrics(
                probs, test.y, test.horizons, threshold)
            overall_probs.append(probs)
            overall_y.append(test.y)
            overall_h.append(test.horizons)
        report[(setting, "overall")] = _window_metrics(
            np.concatenate(overall_probs), np.concatenate(overall_y),
            np.concatenate(overall_h), threshold)

    if "federated" in models and "local" in models:
        all_records: list[DetectionRecord] = []
        for icu in icus:
            test = test_sets[icu]
            fed_det = _detections(test, probs_cache[("federated", icu)], threshold)
            loc_det = _detections(test, probs_cache[("local", icu)], threshold)
            records = [DetectionRecord(pid, loc_det[pid], fed_det[pid])
                       for pid in test.septic_patients]
            all_records.extend(records)
            if records:
                fed_flags = [r.t_federated is not None for r in records]
                loc_flags = [r.t_local is not None for r in records]
                report[("federated", icu)]["fir"] = fir(fed_flags, loc_flags)
                report[("federated", icu)]["eda"] = eda(records)
        if all_records:
            fed_flags = [r.t_federated is not None for r in all_records]
            loc_flags = [r.t_local is not None for r in all_records]
            report[("federated", "overall")]["fir"] = fir(fed_flags, loc_flags)
            report[("federated", "overall")]["eda"] = eda(all_records)
    return report


def run_fold(partition: CohortPartition, fold: int, cfg: ExperimentConfig,
             include_fixed: bool = False) -> FoldResult:
    clients, test_sets = prepare_fold(partition, fold, cfg)
    model_config = _model_config(cfg)
    train_kwargs = dict(
        seed=nn_seed_for_fold(cfg.seed, fold), rounds=cfg.rounds,
        local_epochs=cfg.local_epochs, batch_size=cfg.batch_size,
        lr=cfg.learning_rate, patience=cfg.patience,
        min_delta=cfg.min_delta, threshold=cfg.threshold)

    settings = list(cfg.settings)
    if include_fixed and "federated" not in settings:
        settings.append("federated")  # the fixed suite compares against it
    models: dict = {}
    raw_logs: dict = {}
    round_logs: dict = {}
    by_setting = federation.run_settings(settings, clients, model_config,
                                         **train_kwargs)
    for setting, (trained, logs) in by_setting.items():
        models[setting] = trained
        for label, entries in logs.items():
            key = label if setting != "local" else f"local/{label}"
            raw_logs[key] = entries
            round_logs[key] = [log.to_json_obj() for log in entries]

    result = FoldResult(fold=fold, report=evaluate_fold(models, test_sets, cfg),
                        round_logs=round_logs)

    if include_fixed:
        if not cfg.fixed_horizons:
            raise federation.FederationError("empty fixed-horizon list")
        variable_rounds = federation.convergence_rounds(
            raw_logs["federated"], cfg.patience, cfg.min_delta)
        fixed_models, fixed_logs = federation.run_fixed_window_suite(
            clients, list(cfg.fixed_horizons), model_config, **train_kwargs)
        fixed: dict = {}
        icus = sorted(test_sets)
        for horizon in cfg.fixed_horizons:
            deltas = {}
            over_probs, over_y = [], []
            for icu in icus:
                test = test_sets[icu]
                sel = test.horizons == horizon
                if not sel.any():
                    continue
                probs_fixed = fixed_models[horizon].predict_proba(test.X[sel])
                f1_fixed = f1(confusion(probs_fixed, test.y[sel], cfg.threshold))
                f1_var = result.report[("federated", icu)].get(f"f1_h{horizon}")
                if f1_var is not None:
                    deltas[icu] = f1_fixed - f1_var
                over_probs.append(probs_fixed)
                over_y.append(test.y[sel])
            probs_all = np.concatenate(over_probs)
            y_all = np.concatenate(over_y)
            f1_fixed_all = f1(confusion(probs_all, y_all, cfg.threshold))
            f1_var_all = result.report[("federated", "overall")].get(
                f"f1_h{horizon}")
            deltas["overall"] = (f1_fixed_all - f1_var_all
                                 if f1_var_all is not None else None)
            fixed[horizon] = {
                "deltas": deltas,
                "rounds": federation.convergence_rounds(
                    fixed_logs[horizon], cfg.patience, cfg.min_delta),
                "variable_rounds": variable_rounds,
            }
            round_logs[f"fixed_{horizon}h"] = [
                log.to_json_obj() for log in fixed_logs[horizon]]
        result.fixed = fixed
    return result


def nn_seed_for_fold(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, 0xF0, fold]).generate_state(1)[0])


@dataclass
class RunResult:
    cfg: ExperimentConfig
    fold_results: list[FoldResult]
    aggregate: object  # MetricReport

    def fold_reports(self):
        return [r.report for r in self.fold_results]


def run_all_folds(partition: CohortPartition, cfg: ExperimentConfig,
                  include_fixed: bool = False) -> RunResult:
    """Run every fold in order and aggregate."""
    partition = make_splits(partition, cfg.test_fraction, cfg.folds, cfg.seed)
    results = [run_fold(partition, k, cfg, include_fixed)
               for k in range(cfg.folds)]
    aggregate = aggregate_folds([r.report for r in results])
    return RunResult(cfg=cfg, fold_results=results, aggregate=aggregate)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _json_num(value):
    if value is None:
        return None
    if math.isinf(value):
        return "inf"
    return value


def _row_obj(setting, icu, fold, metrics) -> dict:
    per_h = {str(h): metrics[f"f1_h{h}"] for h in range(1, 26)
             if f"f1_h{h}" in metrics}
    return {
        "setting": setting,
        "icu": icu,
        "fold": fold,
        "f1": _json_num(metrics.get("f1")),
        "auc": _json_num(metrics.get("auc")),
        "fir": _json_num(metrics.get("fir")),
        "eda": _json_num(metrics.get("eda")),
        "per_horizon_f1": per_h,
    }


def emit_reports(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write metric JSON/CSV, per-horizon curves, FIR/EDA table, round
    logs and the resolved config. Deterministic byte-for-byte."""
    cfg = result.cfg
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    rows = []
    for fr in result.fold_results:
        for (setting, icu) in sorted(fr.report, key=lambda k: (k[0], k[1])):
            rows.append(_row_obj(setting, icu, fr.fold, fr.report[(setting, icu)]))
    rows.sort(key=lambda r: (r["setting"], r["icu"], r["fold"]))

    agg = {"mean": {}, "sd": {}}
    for kind, table in (("mean", result.aggregate.mean),
                        ("sd", result.aggregate.sd)):
        for (setting, icu), metrics in sorted(table.items()):
            agg[kind][f"{setting}|{icu}"] = {
                name: _json_num(value) for name, value in sorted(metrics.items())}

    doc = {"config_hash": config_hash(cfg), "seed": cfg.seed,
           "n_folds": cfg.folds, "rows": rows, "aggregate": agg}
    paths["metrics_json"] = os.path.join(out_dir, "metrics.json")
    with open(paths["metrics_json"], "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    paths["metrics_csv"] = os.path.join(out_dir, "metrics.csv")
    with open(paths["metrics_csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["setting", "icu", "fold", "f1", "auc", "fir", "eda"])
        for r in rows:
            w.writerow([r["setting"], r["icu"], r["fold"],
                        r["f1"], r["auc"], r["fir"], r["eda"]])

    # per-horizon curves: federated F1 and improvement over local, fold means
    paths["curves_csv"] = os.path.join(out_dir, "curves.csv")
    with open(paths["curves_csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["horizon", "icu", "f1", "improvement"])
        mean = result.aggregate.mean
        for (setting, icu) in sorted(mean):
            if setting != "federated":
                continue
            for h in range(1, 26):
                fed = mean[(setting, icu)].get(f"f1_h{h}")
                if fed is None:
                    continue
                loc = mean.get(("local", icu), {}).get(f"f1_h{h}")
                improvement = fed - loc if loc is not None else ""
                w.writerow([h, icu, fed, improvement])

    paths["fir_eda_csv"] = os.path.join(out_dir, "fir_eda.csv")
    with open(paths["fir_eda_csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["icu", "fir", "eda"])
        for (setting, icu) in sorted(result.aggregate.mean):
            if setting != "federated":
                continue
            metrics = result.aggregate.mean[(setting, icu)]
            if "fir" in metrics or "eda" in metrics:
                w.writerow([icu, _json_num(metrics.get("fir")),
                            _json_num(metrics.get("eda"))])

    paths["rounds_jsonl"] = os.path.join(out_dir, "rounds.jsonl")
    with open(paths["rounds_jsonl"], "w") as fh:
        for fr in result.fold_results:
            for label in sorted(fr.round_logs):
                for obj in fr.round_logs[label]:
                    line = dict(obj)
                    line["fold"] = fr.fold
                    line["label"] = label
                    fh.write(json.dumps(line, sort_keys=True))
                    fh.write("\n")

    if any(fr.fixed for fr in result.fold_results):
        paths["fixed_csv"] = os.path.join(out_dir, "compare_fixed.csv")
        with open(paths["fixed_csv"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["horizon", "icu", "delta_f1_mean", "rounds_fixed_mean",
                        "rounds_variable_mean"])
            horizons = sorted({h for fr in result.fold_results
                               for h in (fr.fixed or {})})
            for horizon in horizons:
                per_icu: dict[str, list] = {}
                rounds_fixed, rounds_var = [], []
                for fr in result.fold_results:
                    payload = (fr.fixed or {}).get(horizon)
                    if payload is None:
                        continue
                    rounds_fixed.append(payload["rounds"])
                    rounds_var.append(payload["variable_rounds"])
                    for icu, delta in payload["deltas"].items():
                        if delta is not None:
                            per_icu.setdefault(icu, []).append(delta)
                for icu in sorted(per_icu):
                    w.writerow([horizon, icu,
                                float(np.mean(per_icu[icu])),
                                float(np.mean(rounds_fixed)),
                                float(np.mean(rounds_var))])

    paths["config"] = persist_config(cfg, out_dir)
    return paths
