"""Spans and counters around the program's public functions.

Each function is wrapped where its caller looks it up: a module attribute
for ``module.func`` calls, the importing module's global for a
from-import, and the class attribute for methods. The source tree is never
edited; the patches live only in the benchmark's process.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level). Spans stay in memory and are written out
when the run ends. A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

import reference

# Metric functions, wrapped in every module that looks them up.
METRIC_FUNCTIONS = ("confusion", "f1", "roc_auc", "per_horizon_f1",
                    "earliest_detection")


class UplinkCounter:
    """Counts the bytes clients hand to ``federation.fedavg_aggregate``.

    Installed in traced and untraced runs alike: it adds one pass over a
    handful of short vectors per aggregation.
    """

    def __init__(self, federation):
        self.bytes = 0
        original = federation.fedavg_aggregate

        def fedavg_aggregate(updates):
            self.bytes += sum(vec.nbytes for vec, _ in updates)
            return original(updates)

        federation.fedavg_aggregate = fedavg_aggregate


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.aggregation_errors = 0
        self._stack: list[int] = []
        self._active = [True]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    # -- recording -------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_result=None,
             static: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one. ``on_result(counts, args, kwargs, result)`` adds counts
        after a call that returned.
        """
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        active = self._active

        def wrapper(*args, **kwargs):
            if not active[0]:
                return original(*args, **kwargs)
            index = len(spans)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            spans.append([span_name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except Exception:
                counts[span_name + ".failed"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def install(self, synthgen, cohort, windowing, experiment, nn,
                federation, metrics) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        self.wrap(synthgen, "generate_cohort", "synthgen.generate_cohort")
        self.wrap(synthgen, "export_csv", "synthgen.export_csv")
        self.wrap(cohort, "ingest_csv", "cohort.ingest_csv")
        self.wrap(cohort, "make_splits", "cohort.make_splits")
        # prepare_fold from-imports impute_stay and Normalization
        self.wrap(experiment, "impute_stay", "cohort.impute_stay")
        self.wrap(cohort.Normalization, "fit", "cohort.normalization",
                  static=True)
        self.wrap(cohort.Normalization, "apply", "cohort.normalization")
        self.wrap(windowing, "make_windows", "windowing.make_windows",
                  on_result=_count_len("windowing.windows_made"))
        self.wrap(experiment, "prepare_fold", "experiment.prepare_fold")
        self.wrap(experiment, "evaluate_fold", "experiment.evaluate_fold")

        self.wrap(nn, "forward", _forward_name, on_result=_count_trained)
        self.wrap(nn, "backward", "nn.backward")
        self.wrap(nn, "apply_update", "nn.apply_update")
        self.wrap(nn, "train_epochs", "nn.train_epochs")
        self.wrap(nn.Model, "predict_proba", "nn.predict_proba",
                  on_result=_count_scored)

        self.wrap(federation, "run_federated", "federation.run_federated")
        self.wrap(federation, "run_fixed_window_suite",
                  "federation.run_fixed_window_suite")
        self.wrap(federation, "run_round", "federation.run_round")
        self.wrap(federation, "validation_f1", "federation.validation_f1")
        self.wrap(federation, "fedavg_aggregate",
                  "federation.fedavg_aggregate",
                  on_result=self._check_aggregate)

        for module in (metrics, federation, experiment):
            for func in METRIC_FUNCTIONS:
                if hasattr(module, func):
                    self.wrap(module, func, "metrics." + func)

    def _check_aggregate(self, counts, args, kwargs, result) -> None:
        updates = args[0] if args else kwargs["updates"]
        counts["federation.uplink_bytes"] += sum(v.nbytes for v, _ in updates)
        expected = reference.weighted_mean(updates)
        if not np.allclose(result, expected, rtol=1e-9, atol=1e-12):
            self.aggregation_errors += 1

    # -- reporting -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[index]
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for index, (name, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += durations[index]
            self_time[name] += durations[index] - child_time[index]
        return calls, total, self_time

    def layer_metrics(self, rows_ingested: int) -> dict:
        """Every per-layer metric, in seconds or counts over the whole run."""
        calls, total, self_time = self.totals()
        tasks = calls["nn.train_epochs"]
        metric_spans = ["metrics." + f for f in METRIC_FUNCTIONS]
        seconds = {
            "synthgen.generate_cohort_s": total["synthgen.generate_cohort"],
            "synthgen.export_csv_s": total["synthgen.export_csv"],
            "cohort.ingest_csv_s": total["cohort.ingest_csv"],
            "cohort.make_splits_s": total["cohort.make_splits"],
            "cohort.impute_stay_s": total["cohort.impute_stay"],
            "cohort.normalization_s": total["cohort.normalization"],
            "windowing.make_windows_s": total["windowing.make_windows"],
            "experiment.prepare_fold_self_s":
                self_time["experiment.prepare_fold"],
            "experiment.evaluate_fold_s": total["experiment.evaluate_fold"],
            "nn.forward_train_s": total["nn.forward.train"],
            "nn.backward_s": total["nn.backward"],
            "nn.apply_update_s": total["nn.apply_update"],
            "nn.train_epochs_self_s": self_time["nn.train_epochs"],
            "nn.predict_proba_s": total["nn.predict_proba"],
            "federation.client_task_s":
                total["nn.train_epochs"] / tasks if tasks else 0.0,
            "federation.run_round_self_s": self_time["federation.run_round"],
            "federation.validation_f1_s": total["federation.validation_f1"],
            "federation.fedavg_aggregate_s":
                total["federation.fedavg_aggregate"],
            "metrics.metrics_s": sum(self_time[n] for n in metric_spans),
        }
        counts = {
            "cohort.rows_ingested": rows_ingested,
            "cohort.impute_stay_calls": calls["cohort.impute_stay"],
            "windowing.windows_made": self.counts["windowing.windows_made"],
            "experiment.evaluate_fold_failed":
                self.counts["experiment.evaluate_fold.failed"],
            "nn.train_batches": calls["nn.apply_update"],
            "nn.windows_trained": self.counts["nn.windows_trained"],
            "nn.windows_scored": self.counts["nn.windows_scored"],
            "federation.rounds": calls["federation.run_round"],
            "federation.client_tasks": tasks,
            "federation.aggregate_calls": calls["federation.fedavg_aggregate"],
            "metrics.confusion_calls": sum(calls[n] for n in metric_spans),
        }
        out = {name: (value, "s") for name, value in seconds.items()}
        out.update({name: (int(value), "count")
                    for name, value in counts.items()})
        out["federation.uplink_bytes"] = (
            int(self.counts["federation.uplink_bytes"]), "bytes")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _count_len(key):
    def on_result(counts, args, kwargs, result):
        counts[key] += len(result)
    return on_result


def _forward_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return "nn.forward." + mode


def _count_trained(counts, args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    if mode == "train":
        X = args[1] if len(args) > 1 else kwargs["X"]
        counts["nn.windows_trained"] += X.shape[0]


def _count_scored(counts, args, kwargs, result):
    counts["nn.windows_scored"] += len(result)
