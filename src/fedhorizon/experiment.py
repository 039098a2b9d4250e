"""Per-fold experiment pipeline: preprocessing, training under each
evaluation setting, metric computation, fold aggregation, and report file
emission.

Each client split and each ICU's test split is one labelled
``windowing.WindowSet``: the fixed-window suite selects its horizon from
the set, and FIR/EDA read each window's stay and end hour from it.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import federation, nn, windowing
from .cohort import CohortError, CohortPartition, Normalization, \
    UnfillableColumn, feature_means, impute_grids, make_splits, stack_stays
from .cohort import impute_stay  # noqa: F401  (a name perfbench traces)
from .config import ConfigError, ExperimentConfig, config_hash, \
    persist_config
from .metrics import DetectionRecord, aggregate_folds, confusion, eda, \
    earliest_detection, f1, fir, per_horizon_f1, roc_auc
from .schema import ICU_NAMES, MAX_HORIZON


@dataclass
class TestSet:
    icu_id: str
    X: windowing.WindowSet  # labelled, gathered by the chunk in scoring
    patient_ids: np.ndarray  # per test stay, indexed by X.source
    septic_patients: list  # patient ids with sepsis onset in the test split

    # the windows' labels and horizons, by the names perfbench reads
    y = property(lambda self: self.X.y)
    horizons = property(lambda self: self.X.horizons)


@dataclass
class FoldResult:
    fold: int
    report: dict  # (setting, icu) -> {metric: value}
    round_logs: dict = field(default_factory=dict)  # label -> [dict]
    fixed: dict | None = None  # horizon -> comparison payload


def _impute(partition: CohortPartition, icu: str, stays, grids, observed,
            means):
    """``impute_grids`` of one ICU's stack, failing with the ICU, stay id and
    feature name of a column that cannot be filled."""
    try:
        return impute_grids(grids, observed, means)
    except UnfillableColumn as exc:
        raise CohortError(
            f"ICU {icu}, stay {stays[exc.grid].stay_id!r}: feature "
            f"{partition.schema.names[exc.feature]!r} fully missing and no "
            f"training mean available") from None


def prepare_fold(partition: CohortPartition, fold: int, cfg: ExperimentConfig):
    """Build per-ICU clients (imputed, normalized, windowed) and test sets.

    Imputation means and z-score statistics come from the client's own
    training split; the validation carve-out is a stratified 10% of
    training patients, used only for convergence checks. Each ICU's stays
    are processed as one (N, 30, F) stack; the partition is left unchanged.
    The training, validation and test window sets each hold their stays'
    rows once (see ``windowing.WindowSet``). On fold 0 of the seed-401
    default cohort, rows and first-row indices take 13.7, 1.5 and 3.8 MB
    over all ICUs, where (M, 6, F+1) window arrays took 61.1, 6.7 and
    17.2 MB. The core and validation sets keep rows of their own, so the
    validation set that each round joins across clients copies only
    validation rows. Nothing is kept between calls: caching each split's
    stacks would save little of a fold's time, and when windows were still
    arrays it raised the peak resident size of a one-fold federated run
    from 178 to 201 MB. A column that cannot be imputed fails with a
    CohortError naming the ICU, the stay id and the feature.
    """
    clients: list[federation.ClientState] = []
    test_sets: dict[str, TestSet] = {}
    n_features = partition.schema.n_features
    for icu_index, icu in enumerate(ICU_NAMES):
        if icu not in partition.stays_by_icu or not partition.stays_by_icu[icu]:
            continue
        train_stays, test_stays = partition.train_test_stays(icu, fold)
        if not train_stays:
            raise federation.FederationError(
                f"ICU {icu}: empty training split in fold {fold}")
        train_grids, train_observed = stack_stays(train_stays, n_features)
        test_grids, test_observed = stack_stays(test_stays, n_features)
        means = feature_means(train_grids, train_observed)
        train_grids = _impute(partition, icu, train_stays, train_grids,
                              train_observed, means)
        test_grids = _impute(partition, icu, test_stays, test_grids,
                             test_observed, means)
        norm = Normalization.from_grids(train_grids)
        train_grids = norm.apply(train_grids)
        test_grids = norm.apply(test_grids)
        train_onsets = windowing.stay_onsets(train_stays)

        rng = np.random.default_rng([cfg.seed, fold, icu_index, 0x5A11])
        pos = [i for i, s in enumerate(train_stays) if s.septic]
        neg = [i for i, s in enumerate(train_stays) if not s.septic]
        rng.shuffle(pos)
        rng.shuffle(neg)
        n_val_pos = max(1, round(cfg.val_fraction * len(pos))) if pos else 0
        n_val_neg = max(1, round(cfg.val_fraction * len(neg))) if neg else 0
        val = np.array(pos[:n_val_pos] + neg[:n_val_neg], dtype=np.intp)
        core = np.array(pos[n_val_pos:] + neg[n_val_neg:], dtype=np.intp)

        tr = windowing.cut_windows(train_grids[core], train_onsets[core],
                                   cfg.time_channel)
        va = windowing.cut_windows(train_grids[val], train_onsets[val],
                                   cfg.time_channel)
        clients.append(federation.ClientState(
            icu_id=icu, index=icu_index, X_train=tr, X_val=va,
            pos_weight=cfg.client_pos_weight,
        ))
        te = windowing.cut_windows(test_grids,
                                   windowing.stay_onsets(test_stays),
                                   cfg.time_channel)
        test_sets[icu] = TestSet(
            icu_id=icu, X=te,
            patient_ids=np.array([s.patient_id for s in test_stays]),
            septic_patients=sorted({s.patient_id for s in test_stays
                                    if s.septic}),
        )
    if not clients:
        raise federation.FederationError("partition has no populated ICUs")
    return clients, test_sets


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
    patient_ids = test.patient_ids[test.X.source]
    ends = test.X.ends
    out = {}
    for pid in test.septic_patients:
        sel = patient_ids == pid
        out[pid] = earliest_detection(ends[sel], probs[sel], threshold)
    return out


def _add_fir_eda(row: dict, records: list[DetectionRecord]) -> None:
    """FIR, then EDA, of these septic patients' detections, into ``row``;
    nothing when there are none."""
    if records:
        row["fir"] = fir([r.t_federated is not None for r in records],
                         [r.t_local is not None for r in records])
        row["eda"] = eda(records)


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
                probs, test.X.y, test.X.horizons, threshold)
            overall_probs.append(probs)
            overall_y.append(test.X.y)
            overall_h.append(test.X.horizons)
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
            _add_fir_eda(report[("federated", icu)], records)
        _add_fir_eda(report[("federated", "overall")], all_records)
    return report


def run_fold(partition: CohortPartition, fold: int, cfg: ExperimentConfig,
             include_fixed: bool = False) -> FoldResult:
    """Train and evaluate one fold; with ``include_fixed`` also the
    fixed-window suite, which compares against the federated model and so
    needs ``federated`` in ``cfg.settings``."""
    if include_fixed and "federated" not in cfg.settings:
        raise ConfigError(
            f"settings = {','.join(cfg.settings)}: the fixed-window suite "
            f"needs the 'federated' setting it compares against")
    clients, test_sets = prepare_fold(partition, fold, cfg)
    model_config = cfg.model_config(clients[0].X_train.shape[-1])
    train_kwargs = dict(
        seed=nn_seed_for_fold(cfg.seed, fold), rounds=cfg.rounds,
        local_epochs=cfg.local_epochs, batch_size=cfg.batch_size,
        lr=cfg.learning_rate, patience=cfg.patience,
        min_delta=cfg.min_delta, threshold=cfg.threshold)

    models: dict = {}
    round_logs: dict = {}
    by_setting = federation.run_settings(cfg.settings, clients, model_config,
                                         **train_kwargs)
    for setting, (trained, logs) in by_setting.items():
        models[setting] = trained
        for label, entries in logs.items():
            key = label if setting != "local" else f"local/{label}"
            round_logs[key] = [asdict(log) for log in entries]

    result = FoldResult(fold=fold, report=evaluate_fold(models, test_sets, cfg),
                        round_logs=round_logs)

    if include_fixed:
        if not cfg.fixed_horizons:
            raise federation.FederationError("empty fixed-horizon list")
        _, federated_logs = by_setting["federated"]
        variable_rounds = federation.convergence_rounds(
            federated_logs["federated"], cfg.patience)
        fixed_models, fixed_logs = federation.run_fixed_window_suite(
            clients, list(cfg.fixed_horizons), model_config, **train_kwargs)
        fixed: dict = {}
        icus = sorted(test_sets)
        for horizon in cfg.fixed_horizons:
            deltas = {}
            over_probs, over_y = [], []
            for icu in icus:
                sel = test_sets[icu].X.horizons == horizon
                if not sel.any():
                    continue
                X = test_sets[icu].X.select(sel)
                probs_fixed = fixed_models[horizon].predict_proba(X)
                f1_fixed = f1(confusion(probs_fixed, X.y, cfg.threshold))
                f1_var = result.report[("federated", icu)][f"f1_h{horizon}"]
                deltas[icu] = f1_fixed - f1_var
                over_probs.append(probs_fixed)
                over_y.append(X.y)
            f1_fixed_all = f1(confusion(np.concatenate(over_probs),
                                        np.concatenate(over_y), cfg.threshold))
            f1_var_all = result.report[("federated", "overall")][
                f"f1_h{horizon}"]
            deltas["overall"] = f1_fixed_all - f1_var_all
            fixed[horizon] = {
                "deltas": deltas,
                "rounds": federation.convergence_rounds(
                    fixed_logs[horizon], cfg.patience),
                "variable_rounds": variable_rounds,
            }
            round_logs[f"fixed_{horizon}h"] = [
                asdict(log) for log in fixed_logs[horizon]]
        result.fixed = fixed
    return result


def nn_seed_for_fold(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, 0xF0, fold]).generate_state(1)[0])


@dataclass
class RunResult:
    cfg: ExperimentConfig
    fold_results: list[FoldResult]
    aggregate: object  # MetricReport


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
    per_h = {str(h): metrics[f"f1_h{h}"] for h in range(1, MAX_HORIZON + 1)
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
            for h in range(1, MAX_HORIZON + 1):
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
                        per_icu.setdefault(icu, []).append(delta)
                for icu in sorted(per_icu):
                    w.writerow([horizon, icu,
                                float(np.mean(per_icu[icu])),
                                float(np.mean(rounds_fixed)),
                                float(np.mean(rounds_var))])

    paths["config"] = persist_config(cfg, out_dir)
    return paths
