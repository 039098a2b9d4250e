"""The benchmark's three workloads.

Each workload has a set-up, which the runner repeats to time it, and a
round: a fixed list of operations that every run attempts whole, so the
share of failed operations is the same in every run. Checks compare the
program's outputs with ``reference`` or with properties of the method.

All workloads use the default 7-ICU synthetic cohort (2,862 stays) made
from the run's seed, and fold 0 of the default 5-fold split where one fold
is trained.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
from fedhorizon import cohort, experiment, federation, nn, synthgen
from fedhorizon.config import ExperimentConfig

FOLD = 0
LOCAL_EPOCHS = 3
# Round budgets stay at or below the early-stopping patience (3), so early
# stopping can never cut a training call short and every commit trains the
# same number of rounds.
VARIABLE_ROUNDS = 1
FIXED_ROUNDS = 3
FIXED_HORIZONS = (25, 15, 5)
# ingest-score scores with a model trained in set-up for one round of one
# local epoch on fold 0's horizon-25 windows of the smallest ICU. Scoring
# cost does not depend on the weights, and the small client keeps the
# set-up, which every run repeats, short.
SCORER_HORIZON = 25
# Floor on the federated model's test AUC after VARIABLE_ROUNDS rounds,
# set well below the values the default cohort reaches on every seed.
AUC_FLOOR = 0.8
# Windows re-scored with another chunk size to show scores do not depend
# on how a batch is split.
CHUNK_CHECK_WINDOWS = 1500


class Run:
    """Operation counts, timed work and check results of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.windows = 0
        self.timed_s = 0.0
        self.rows_ingested = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.notes: dict = {}
        # context manager that keeps checks out of the trace
        self.untraced = contextlib.nullcontext

    def check(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


def make_config(seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig(seed=seed)
    cfg.synth = synthgen.SynthConfig(seed=seed)
    cfg.validate()
    return cfg


def model_config(cfg: ExperimentConfig, n_features: int) -> nn.ModelConfig:
    """The model the experiment pipeline trains for this configuration."""
    return nn.ModelConfig(
        n_features=n_features + (1 if cfg.time_channel else 0),
        lstm_units=cfg.lstm_units, lstm_layers=cfg.lstm_layers,
        dense_units=cfg.dense_units, dropout=cfg.dropout, seed=cfg.seed,
        dtype=cfg.dtype)


def train_kwargs(cfg: ExperimentConfig, rounds: int,
                 local_epochs: int) -> dict:
    if rounds > cfg.patience:
        raise ValueError("round budget above patience: early stopping "
                         "could cut training short")
    return dict(seed=experiment.nn_seed_for_fold(cfg.seed, FOLD),
                rounds=rounds, local_epochs=local_epochs,
                batch_size=cfg.batch_size, lr=cfg.learning_rate,
                patience=cfg.patience, min_delta=cfg.min_delta,
                threshold=cfg.threshold)


def model_vectors(model: nn.Model):
    return model.to_vector(), model.buffers_to_vector()


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------


def check_fold_windows(run: Run, split, fold: int, clients, tests) -> None:
    """Window counts per ICU, split and horizon follow the law computed from
    the stays' onsets; every window of a septic stay is positive."""
    run.check(sorted(c.icu_id for c in clients) == sorted(tests),
              f"fold {fold}: clients and test sets cover different ICUs")
    for client in clients:
        train, test = split.train_test_stays(client.icu_id, fold)
        for name, stays, horizons, labels in (
                ("train+validation", train,
                 np.concatenate([client.h_train, client.h_val]),
                 np.concatenate([client.y_train, client.y_val])),
                ("test", test, tests[client.icu_id].horizons,
                 tests[client.icu_id].y)):
            onsets = [s.sepsis_onset_hour for s in stays]
            run.check(np.array_equal(reference.histogram(horizons),
                                     reference.horizon_counts(onsets)),
                      f"fold {fold} {client.icu_id} {name}: windows per "
                      f"horizon differ from the law")
            positives = sum(reference.window_count(o) for o in onsets
                            if o is not None)
            run.check(int(labels.sum()) == positives,
                      f"fold {fold} {client.icu_id} {name}: "
                      f"{int(labels.sum())} positive windows, law gives "
                      f"{positives}")


def check_scores(run: Run, what: str, probs) -> None:
    run.check(probs.ndim == 1 and np.isfinite(probs).all()
              and (probs >= 0).all() and (probs <= 1).all(),
              f"{what}: scores not finite or outside [0, 1]")


def check_scoring(run: Run, model: nn.Model, before, X, probs) -> None:
    """Scoring left the model unchanged and does not depend on chunking."""
    after = model_vectors(model)
    run.check(all(np.array_equal(a, b) for a, b in zip(before, after)),
              "scoring changed the model")
    head = X[:CHUNK_CHECK_WINDOWS]
    with run.untraced():
        rechunked = model.predict_proba(head, batch_size=97)
    run.check(np.allclose(rechunked, probs[:len(head)], rtol=0, atol=1e-12),
              "scores depend on the chunk size")


def check_uplink(run: Run, measured: int, expected: int) -> None:
    run.check(measured == expected,
              f"uplink {measured} bytes, formula gives {expected}")


# ---------------------------------------------------------------------------
# fedavg-variable and fixed-suite: train fold 0 of a synthesized cohort
# ---------------------------------------------------------------------------


def setup_fold(seed: int, work_dir: str) -> dict:
    cfg = make_config(seed)
    partition = synthgen.generate_cohort(cfg.synth)
    split = cohort.make_splits(partition, cfg.test_fraction, cfg.folds,
                               cfg.seed)
    clients, tests = experiment.prepare_fold(split, FOLD, cfg)
    return dict(cfg=cfg, split=split, clients=clients, tests=tests,
                model_config=model_config(cfg, partition.schema.n_features))


def round_variable(state: dict, run: Run) -> None:
    """Federated training of the variable-horizon model, then scoring of
    the fold's test split, one operation per ICU."""
    cfg, clients, tests = state["cfg"], state["clients"], state["tests"]
    kwargs = train_kwargs(cfg, VARIABLE_ROUNDS, LOCAL_EPOCHS)
    start = time.perf_counter()
    model, logs = federation.run_federated(clients, state["model_config"],
                                           **kwargs)
    run.timed_s += time.perf_counter() - start
    run.attempted += 1
    run.windows += VARIABLE_ROUNDS * LOCAL_EPOCHS * sum(
        len(c.y_train) for c in clients)
    run.check(len(logs) == VARIABLE_ROUNDS,
              f"trained {len(logs)} rounds, budget {VARIABLE_ROUNDS}")

    before = model_vectors(model)
    probs = {}
    for icu in sorted(tests):
        probs[icu] = model.predict_proba(tests[icu].X)
        run.attempted += 1
    for icu in sorted(tests):
        check_scores(run, f"test {icu}", probs[icu])
    first = sorted(tests)[0]
    check_scoring(run, model, before, tests[first].X, probs[first])
    y = np.concatenate([tests[icu].y for icu in sorted(tests)])
    auc = reference.rank_auc(np.concatenate(
        [probs[icu] for icu in sorted(tests)]), y)
    run.check(auc >= AUC_FLOOR, f"test AUC {auc:.4f} below {AUC_FLOOR}")
    run.notes["test_auc"] = auc


def round_fixed(state: dict, run: Run) -> None:
    """The fixed-window suite: one federated model per horizon, then each
    model scores the test windows at its horizon."""
    cfg, clients, tests = state["cfg"], state["clients"], state["tests"]
    kwargs = train_kwargs(cfg, FIXED_ROUNDS, LOCAL_EPOCHS)
    start = time.perf_counter()
    models, logs = federation.run_fixed_window_suite(
        clients, list(FIXED_HORIZONS), state["model_config"], **kwargs)
    run.timed_s += time.perf_counter() - start
    run.attempted += 1
    for h in FIXED_HORIZONS:
        run.windows += FIXED_ROUNDS * LOCAL_EPOCHS * sum(
            int(np.sum(c.h_train == h)) for c in clients)
        run.check(len(logs[h]) == FIXED_ROUNDS,
                  f"horizon {h}: trained {len(logs[h])} rounds, "
                  f"budget {FIXED_ROUNDS}")

    for h in FIXED_HORIZONS:
        X = np.concatenate([tests[icu].X[tests[icu].horizons == h]
                            for icu in sorted(tests)])
        before = model_vectors(models[h])
        probs = models[h].predict_proba(X)
        run.attempted += 1
        check_scores(run, f"horizon {h} test", probs)
        check_scoring(run, models[h], before, X, probs)


def check_fold_setup(state: dict, run: Run) -> None:
    check_fold_windows(run, state["split"], FOLD, state["clients"],
                       state["tests"])
    for h in FIXED_HORIZONS:
        for c in state["clients"]:
            own = int(np.sum(c.h_train == h))
            run.check(federation.filter_client_horizon(c, h).n_k == own,
                      f"{c.icu_id} horizon {h}: filtered client size "
                      f"differs from its horizon-{h} windows")


def uplink_variable(state: dict) -> int:
    return reference.uplink_bytes(VARIABLE_ROUNDS, len(state["clients"]))


def uplink_fixed(state: dict) -> int:
    return reference.uplink_bytes(FIXED_ROUNDS, len(state["clients"]),
                                  models=len(FIXED_HORIZONS))


# ---------------------------------------------------------------------------
# ingest-score: CSV to scores, no training in the round
# ---------------------------------------------------------------------------


def setup_ingest(seed: int, work_dir: str) -> dict:
    cfg = make_config(seed)
    partition = synthgen.generate_cohort(cfg.synth)
    csv_dir = os.path.join(work_dir, f"csv-seed{seed}")
    paths = synthgen.export_csv(partition, csv_dir)
    icu = min(partition.icus, key=lambda i: len(partition.stays_by_icu[i]))
    smallest = cohort.CohortPartition(
        schema=partition.schema,
        stays_by_icu={icu: partition.stays_by_icu[icu]})
    split = cohort.make_splits(smallest, cfg.test_fraction, cfg.folds,
                               cfg.seed)
    clients, _ = experiment.prepare_fold(split, FOLD, cfg)
    mc = model_config(cfg, partition.schema.n_features)
    filtered = [federation.filter_client_horizon(c, SCORER_HORIZON)
                for c in clients]
    model, _ = federation.run_federated(filtered, mc,
                                        **train_kwargs(cfg, 1, 1))
    return dict(cfg=cfg, partition=partition, paths=paths, csv_dir=csv_dir,
                model=model, n_clients=len(clients), ingested=None)


def round_ingest(state: dict, run: Run) -> None:
    """Ingest the CSVs, split, then per fold: prepare, score the test
    windows, and attempt the fold's evaluation."""
    cfg, model, paths = state["cfg"], state["model"], state["paths"]
    start = time.perf_counter()
    ingested = cohort.ingest_csv(paths["static"], paths["timeseries"],
                                 paths["labels"])
    split = cohort.make_splits(ingested, cfg.test_fraction, cfg.folds,
                               cfg.seed)
    run.timed_s += time.perf_counter() - start
    run.attempted += 2
    run.rows_ingested += state["rows"]
    if state["ingested"] is None:
        state["ingested"] = ingested

    models = {"federated": {"federated": model},
              "local": {icu: model for icu in ingested.icus}}
    for fold in range(cfg.folds):
        start = time.perf_counter()
        clients, tests = experiment.prepare_fold(split, fold, cfg)
        run.timed_s += time.perf_counter() - start
        run.attempted += 1
        check_fold_windows(run, split, fold, clients, tests)
        del clients

        before = model_vectors(model)
        start = time.perf_counter()
        probs = {icu: model.predict_proba(tests[icu].X) for icu in tests}
        run.timed_s += time.perf_counter() - start
        run.attempted += 1
        run.windows += sum(len(t.y) for t in tests.values())
        for icu in tests:
            check_scores(run, f"fold {fold} test {icu}", probs[icu])
        first = sorted(tests)[0]
        check_scoring(run, model, before, tests[first].X, probs[first])

        run.attempted += 1
        try:
            report = experiment.evaluate_fold(models, tests, cfg)
        except Exception as exc:  # the fault is counted, not fatal
            run.failed += 1
            run.failures.append(f"evaluate_fold: {type(exc).__name__}: {exc}")
        else:
            check_evaluation(run, fold, report, tests, probs, cfg.threshold)


def check_evaluation(run: Run, fold: int, report: dict, tests, probs,
                     threshold: float) -> None:
    """The fold report's F1 and AUC equal the reference computed from the
    same probabilities."""
    icus = sorted(tests)
    rows = [(icu, probs[icu], tests[icu].y) for icu in icus]
    rows.append(("overall", np.concatenate([probs[i] for i in icus]),
                 np.concatenate([tests[i].y for i in icus])))
    for icu, p, y in rows:
        got = report[("federated", icu)]
        run.check(got["f1"] == reference.f1_score(p, y, threshold),
                  f"fold {fold} {icu}: F1 differs from the reference")
        if 0 < y.sum() < len(y):
            run.check(got["auc"] is not None and math.isclose(
                got["auc"], reference.rank_auc(p, y), rel_tol=1e-9),
                f"fold {fold} {icu}: AUC differs from the reference")


def count_timeseries_rows(partition) -> int:
    """Time-series observations of a partition: one CSV row each."""
    schema = partition.schema
    static = {"gender", "ethnicity", "age", "height", "weight", "diabetes"}
    cols = [schema.index(n) for n in schema.names if n not in static]
    return int(sum(s.observed[:, cols].sum() for s in partition.all_stays()))


def check_ingest_setup(state: dict, run: Run) -> None:
    """The exported time-series CSV has one row per observed cell."""
    state["rows"] = count_timeseries_rows(state["partition"])
    with open(state["paths"]["timeseries"]) as fh:
        lines = sum(1 for _ in fh) - 1
    run.check(lines == state["rows"],
              f"time-series CSV has {lines} rows, cohort has {state['rows']} "
              f"observations")


def check_ingested(state: dict, run: Run) -> None:
    """Ingested stays, onsets, masks and observed values equal the
    generated cohort exactly."""
    generated, ingested = state["partition"], state["ingested"]
    for icu, stays in generated.stays_by_icu.items():
        got = ingested.stays_by_icu.get(icu, [])
        run.check([s.stay_id for s in got] == [s.stay_id for s in stays],
                  f"{icu}: ingested stays differ from the generated cohort")
        for a, b in zip(stays, got):
            same = (a.sepsis_onset_hour == b.sepsis_onset_hour
                    and np.array_equal(a.observed, b.observed)
                    and np.array_equal(a.grid[a.observed], b.grid[b.observed]))
            if not same:
                run.check(False, f"stay {a.stay_id}: ingested onset, mask "
                                 f"or values differ from the generated cohort")
                break


def uplink_ingest(state: dict) -> int:
    # the scorer trained in set-up: one round of one client
    return reference.uplink_bytes(1, state["n_clients"])


def cleanup_ingest(state: dict) -> None:
    shutil.rmtree(state["csv_dir"], ignore_errors=True)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, work_dir) -> state
    setup_checks: Callable  # (state, run)
    round: Callable  # (state, run)
    uplink: Callable  # state -> bytes one set-up and one round hand over
    run_checks: Callable | None = None  # (state, run), after the last round
    cleanup: Callable | None = None  # state


WORKLOADS = {
    "fedavg-variable": Workload(setup_fold, check_fold_setup, round_variable,
                                uplink_variable),
    "fixed-suite": Workload(setup_fold, check_fold_setup, round_fixed,
                            uplink_fixed),
    "ingest-score": Workload(setup_ingest, check_ingest_setup, round_ingest,
                             uplink_ingest, check_ingested, cleanup_ingest),
}
