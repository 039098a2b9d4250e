"""Evaluation metrics: F1, rank (Mann-Whitney) ROC AUC, federated improvement
ratio (FIR), early detection advantage (EDA), and per-horizon / per-fold
aggregation views.

F1 and AUC are window-level; FIR and EDA are patient-level with the
any-window-positive rule (a patient counts as detected at the first
window whose prediction is positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schema import MAX_HORIZON


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(probs, labels, threshold: float = 0.5) -> ConfusionCounts:
    """Threshold probabilities (positive iff prob >= threshold) and count."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise MetricError(f"length mismatch: {probs.shape} vs {labels.shape}")
    if not (0.0 < threshold < 1.0):
        raise MetricError(f"threshold {threshold} outside (0, 1)")
    pred = probs >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
    )


def f1(counts: ConfusionCounts) -> float:
    """F1 = 2*TP / (2*TP + FP + FN), defined as 0 when all three are 0."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 0.0
    return 2 * counts.tp / denom


def roc_auc(probs, labels) -> float:
    """Area under the ROC curve as the Mann-Whitney statistic, with
    mid-ranks for tied scores: P(score_pos > score_neg) + 0.5 P(tie)."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise MetricError("length mismatch between probs and labels")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: need at least one of each class")
    _, inverse, counts = np.unique(probs, return_inverse=True,
                                   return_counts=True)
    mid_rank = np.cumsum(counts) - (counts - 1) / 2.0  # 1-based
    rank_sum = mid_rank[inverse][labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class DetectionRecord:
    """Earliest correct positive window end (t+5) per septic patient for
    the local and federated models; None means never detected."""

    patient_id: str
    t_local: float | None
    t_federated: float | None


NEVER_DETECTED_HOUR = 29.0  # last possible window end


def fir(fed_detected, local_detected) -> float:
    """Federated improvement ratio over septic patients.

    Arguments are aligned boolean arrays (detected by each model).
    Convention: 0/0 -> 1.0 (no net difference), x/0 -> +inf.
    """
    fed = np.asarray(fed_detected, dtype=bool)
    loc = np.asarray(local_detected, dtype=bool)
    if fed.shape != loc.shape:
        raise MetricError("misaligned patient sets")
    num = int(np.sum(fed & ~loc))
    den = int(np.sum(loc & ~fed))
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def eda(records: list[DetectionRecord]) -> float:
    """Mean hours by which the federated model detects earlier than the
    local model; never-detected cases resolve to hour 29."""
    if not records:
        raise MetricError("empty detection record list")
    diffs = []
    for r in records:
        t_loc = NEVER_DETECTED_HOUR if r.t_local is None else r.t_local
        t_fed = NEVER_DETECTED_HOUR if r.t_federated is None else r.t_federated
        diffs.append(t_loc - t_fed)
    return float(np.mean(diffs))


def earliest_detection(window_ends, probs, threshold: float = 0.5):
    """First window end hour with a positive prediction, or None."""
    window_ends = np.asarray(window_ends, dtype=float)
    probs = np.asarray(probs, dtype=float)
    hit = probs >= threshold
    if not hit.any():
        return None
    return float(window_ends[hit].min())


def per_horizon_f1(probs, labels, horizons, threshold: float = 0.5
                   ) -> dict[int, float]:
    """F1 grouped by prediction horizon; horizons with no samples are
    absent from the result, never reported as zero."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    horizons = np.asarray(horizons, dtype=int)
    out = {}
    for h in range(1, MAX_HORIZON + 1):
        sel = horizons == h
        if not sel.any():
            continue
        out[h] = f1(confusion(probs[sel], labels[sel], threshold))
    return out


@dataclass
class MetricReport:
    """Mean/sd across folds for every (setting, icu) cell."""

    mean: dict = field(default_factory=dict)  # key -> metric -> value
    sd: dict = field(default_factory=dict)


def aggregate_folds(per_fold: list[dict]) -> MetricReport:
    """Unweighted mean and sample standard deviation across fold reports.

    Each fold report maps cell keys (e.g. ("federated", "MICU")) to metric
    dicts with scalar values; all folds must carry the same cells.
    """
    if len(per_fold) < 2:
        raise MetricError("need at least 2 folds to aggregate")
    keys = set(per_fold[0])
    for r in per_fold[1:]:
        if set(r) != keys:
            raise MetricError("fold shape mismatch: differing cell keys")
    report = MetricReport()
    for key in keys:
        metric_names = set().union(*(r[key].keys() for r in per_fold))
        report.mean[key] = {}
        report.sd[key] = {}
        for name in metric_names:
            values = [r[key].get(name) for r in per_fold]
            values = [v for v in values if v is not None and math.isfinite(v)]
            if not values:
                report.mean[key][name] = None
                report.sd[key][name] = None
                continue
            report.mean[key][name] = float(np.mean(values))
            report.sd[key][name] = (
                float(np.std(values, ddof=1)) if len(values) > 1 else 0.0)
    return report
