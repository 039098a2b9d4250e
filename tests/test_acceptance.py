"""Acceptance gate: nine criteria, one test (and one PASS/FAIL line) each.

Criteria 5-8 share a single full-scale run on the default synthetic
cohort (seed 42, 5 folds, three settings plus the fixed-horizon suite),
built once as a module-scoped fixture. All other criteria are
self-contained property/oracle suites with explicit runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from fedhorizon import experiment, nn, pool
from fedhorizon.cohort import PatientStay
from fedhorizon.config import resolve_config
from fedhorizon.federation import (
    ClientState, client_seed, convergence_rounds, fedavg_aggregate,
    run_federated,
)
from fedhorizon.metrics import (
    ConfusionCounts, DetectionRecord, confusion, eda, f1, fir, roc_auc,
)
from fedhorizon.schema import ICU_NAMES, N_HOURS, default_schema
from fedhorizon.synthgen import generate_cohort
from fedhorizon.windowing import make_windows

from conftest import window_set


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness against central finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    cfg = nn.ModelConfig(n_features=4, lstm_units=3, lstm_layers=3,
                         dense_units=3, dropout=0.2, seed=2)
    params = nn.init_params(cfg)
    buffers = nn.init_buffers(cfg)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 6, 4))
    y = rng.integers(0, 2, 8).astype(float)
    pos_weight = 1.3

    layout = nn.param_layout(cfg)

    def eval_loss(vec):
        # identical dropout draws and untouched buffers per evaluation
        p = nn.vector_to_params(vec, layout)
        b = {k: v.copy() for k, v in buffers.items()}
        probs, _ = nn.forward(p, X, "train", rng=np.random.default_rng(5),
                              buffers=b, config=cfg)
        return nn.loss(probs, y, pos_weight=pos_weight)

    b = {k: v.copy() for k, v in buffers.items()}
    _, state = nn.forward(params, X, "train", rng=np.random.default_rng(5),
                          buffers=b, config=cfg)
    analytic = nn.backward(params, state, y, pos_weight=pos_weight, config=cfg)
    theta = nn.params_to_vector(params, layout)

    step = 1e-4
    worst = 0.0
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        fd = (eval_loss(plus) - eval_loss(minus)) / (2 * step)
        diff = abs(fd - analytic[i])
        if diff < 1e-9:
            continue
        worst = max(worst, diff / max(abs(fd), abs(analytic[i]), 1e-6))
    elapsed = time.time() - start
    _report(1, worst < 1e-3 and elapsed < 30,
            f"{theta.size} params, worst relative error {worst:.2e}, "
            f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# criterion 2: metric oracles
# ---------------------------------------------------------------------------


def _pairwise_auc(probs, labels):
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_2_metric_oracles():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # a coarse grid forces ties, exercising the tie-handling branch
        probs = rng.integers(0, 12, n) / 12.0
        worst = max(worst, abs(roc_auc(probs, labels)
                               - _pairwise_auc(probs, labels)))
    auc_ok = worst <= 1e-12

    f1_ok = (
        f1(ConfusionCounts(tp=2, fp=1, fn=1, tn=0)) == 4 / 6
        and f1(ConfusionCounts(tp=0, fp=0, fn=0, tn=5)) == 0.0
        and f1(confusion([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0], 0.5)) == 0.5)

    fir_ok = (
        fir([True] * 4 + [False] * 2, [False] * 4 + [True] * 2) == 2.0
        and fir([True, False], [True, False]) == 1.0
        and fir([True], [False]) == math.inf)

    eda_ok = (
        eda([DetectionRecord("a", 10.0, 7.0)]) == 3.0
        and eda([DetectionRecord("a", 5.0, 3.0),
                 DetectionRecord("b", 8.0, 8.0)]) == 1.0
        and eda([DetectionRecord("a", None, 9.0)]) == 20.0)

    elapsed = time.time() - start
    _report(2, auc_ok and f1_ok and fir_ok and eda_ok and elapsed < 5,
            f"AUC max |rank - pairwise| = {worst:.1e} over 200 "
            f"instances; f1/fir/eda fixtures "
            f"{'ok' if f1_ok and fir_ok and eda_ok else 'BROKEN'}; "
            f"{elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 3: windowing law
# ---------------------------------------------------------------------------


def _full_stay(onset):
    schema = default_schema()
    n = schema.n_features
    return PatientStay(
        stay_id="s", patient_id="p", icu_id="MICU", stay_index=1,
        length_of_stay=48.0, grid=np.zeros((N_HOURS, n)),
        observed=np.ones((N_HOURS, n), dtype=bool),
        sepsis_onset_hour=onset, imputed=True)


def test_criterion_3_windowing_law():
    start = time.time()
    samples = make_windows(_full_stay(None))
    nonseptic_ok = (len(samples) == 25
                    and [s.horizon for s in samples] == list(range(25, 0, -1))
                    and all(s.label == 0 for s in samples))

    failures = []
    for onset in np.arange(6.5, 30.5, 0.5):
        onset = float(onset)
        got = len(make_windows(_full_stay(onset)))
        want = math.ceil(onset) - 6
        if got != want:
            failures.append((onset, got, want))
    elapsed = time.time() - start
    _report(3, nonseptic_ok and not failures and elapsed < 1,
            f"non-septic -> 25 samples, horizons 25..1: {nonseptic_ok}; "
            f"onset law mismatches over o in {{6.5,7,...,30}}: {failures}; "
            f"{elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# criterion 4: FedAvg algebra + single-client bit-identity
# ---------------------------------------------------------------------------


def test_criterion_4_fedavg_algebra():
    start = time.time()
    rng = np.random.default_rng(4)
    algebra_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 8))
        d = int(rng.integers(1, 50))
        vecs = [rng.normal(size=d) for _ in range(k)]
        weights = rng.integers(1, 1000, k).astype(float)
        out = fedavg_aggregate(list(zip(vecs, weights)))
        # permutation invariance
        perm = rng.permutation(k)
        out_perm = fedavg_aggregate([(vecs[i], weights[i]) for i in perm])
        if not np.allclose(out, out_perm, rtol=1e-12, atol=1e-12):
            algebra_ok = False
        # weight scale invariance
        out_scaled = fedavg_aggregate(list(zip(vecs, weights * 7.5)))
        if not np.allclose(out, out_scaled, rtol=1e-12, atol=1e-12):
            algebra_ok = False
        # bounded coordinate-wise by client extremes
        lo = np.min(vecs, axis=0)
        hi = np.max(vecs, axis=0)
        if not ((out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()):
            algebra_ok = False

    model_cfg = nn.ModelConfig(n_features=5, lstm_units=4, lstm_layers=2,
                               dense_units=4, seed=3)
    crng = np.random.default_rng(7)
    y = (np.arange(40) % 2).astype(float)
    X = crng.normal(size=(40, 6, 5)) + y[:, None, None]
    client = ClientState(icu_id="MICU", index=0,
                         X_train=window_set(X, y, crng.integers(1, 26, 40)),
                         X_val=window_set(X[:8], y[:8], np.full(8, 25)))
    fed_model, _ = run_federated([client], model_cfg, seed=5, rounds=3,
                                 early_stop=False)
    manual = nn.Model(model_cfg)
    for round_index in range(1, 4):
        nn.train_epochs(manual, client.X_train, client.y_train, epochs=3,
                        batch_size=64, seed=client_seed(5, 0, round_index),
                        lr=nn.ADAM_LR, pos_weight=1.0)
    identical = (np.array_equal(fed_model.to_vector(), manual.to_vector())
                 and np.array_equal(fed_model.buffers_to_vector(),
                                    manual.buffers_to_vector()))
    elapsed = time.time() - start
    _report(4, algebra_ok and identical and elapsed < 120,
            f"algebra on 100 instances: {algebra_ok}; single-client "
            f"federated == local bit-identical: {identical}; "
            f"{elapsed:.1f}s (< 2min)")


# ---------------------------------------------------------------------------
# criteria 5-8: one full-scale default run (shared fixture)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_run():
    cfg = resolve_config()
    partition = generate_cohort(cfg.synth)
    return experiment.run_all_folds(partition, cfg, include_fixed=True)


def _fold_mean(run, setting, icu, metric):
    return run.aggregate.mean[(setting, icu)].get(metric)


@pytest.mark.slow
def test_criterion_5_federated_beats_local(full_run):
    wins, losses = [], []
    for icu in ICU_NAMES:
        fed = _fold_mean(full_run, "federated", icu, "f1")
        loc = _fold_mean(full_run, "local", icu, "f1")
        (wins if fed > loc else losses).append(
            f"{icu}: fed {fed:.3f} vs local {loc:.3f}")
    fed_all = _fold_mean(full_run, "federated", "overall", "f1")
    loc_all = _fold_mean(full_run, "local", "overall", "f1")
    cen_all = _fold_mean(full_run, "central", "overall", "f1")
    overall_ok = fed_all > loc_all
    central_ok = cen_all >= fed_all - 0.02
    _report(5, len(wins) >= 6 and overall_ok and central_ok,
            f"federated > local for {len(wins)}/7 ICUs (need >= 6), losses: "
            f"{losses or 'none'}; overall fed {fed_all:.3f} > local "
            f"{loc_all:.3f}: {overall_ok}; central {cen_all:.3f} >= fed - "
            f"0.02: {central_ok}")


@pytest.mark.slow
def test_criterion_6_improvement_grows_with_horizon(full_run):
    def mean_improvement(horizons):
        deltas = []
        for h in horizons:
            fed = _fold_mean(full_run, "federated", "overall", f"f1_h{h}")
            loc = _fold_mean(full_run, "local", "overall", f"f1_h{h}")
            if fed is not None and loc is not None:
                deltas.append(fed - loc)
        return float(np.mean(deltas))

    far = mean_improvement(range(20, 26))
    near = mean_improvement(range(1, 6))
    _report(6, far > near,
            f"mean federated-local F1 improvement: horizons 20-25 = "
            f"{far:+.3f} vs horizons 1-5 = {near:+.3f}")


@pytest.mark.slow
def test_criterion_7_fir_eda(full_run):
    fir_value = _fold_mean(full_run, "federated", "overall", "fir")
    eda_value = _fold_mean(full_run, "federated", "overall", "eda")
    _report(7, fir_value is not None and fir_value > 1.0
            and eda_value is not None and eda_value > 0.0,
            f"overall FIR = {fir_value} (> 1), overall EDA = {eda_value} "
            f"hours (> 0)")


@pytest.mark.slow
def test_criterion_8_fixed_window_comparison(full_run):
    var_rounds, fixed_rounds, deltas = [], [], {}
    for fr in full_run.fold_results:
        for horizon, payload in fr.fixed.items():
            fixed_rounds.append(payload["rounds"])
            if payload["deltas"].get("overall") is not None:
                deltas.setdefault(horizon, []).append(
                    payload["deltas"]["overall"])
        var_rounds.append(fr.fixed[next(iter(fr.fixed))]["variable_rounds"])
    mean_var = float(np.mean(var_rounds))
    mean_fixed = float(np.mean(fixed_rounds))
    delta_means = {h: float(np.mean(v)) for h, v in sorted(deltas.items())}
    deltas_ok = all(abs(v) <= 0.05 for v in delta_means.values())
    _report(8, mean_var < mean_fixed and deltas_ok,
            f"variable model converges in {mean_var:.1f} rounds vs fixed "
            f"suite mean {mean_fixed:.1f}; per-horizon overall F1 deltas "
            f"{delta_means} all within +/-0.05: {deltas_ok}")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports, pooled and in-process
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path, monkeypatch):
    import os

    start = time.time()
    overrides = {"folds": 2, "rounds": 3, "local_epochs": 1,
                 "lstm_units": 4, "lstm_layers": 2, "dense_units": 4,
                 "seed": 17}
    cfg = resolve_config(overrides=overrides)
    cfg.synth.counts.update({icu: 14 for icu in ICU_NAMES})
    partition = generate_cohort(cfg.synth)

    dirs = {}
    for name in ("seq_a", "seq_b", "in_process"):
        run_cfg = resolve_config(overrides=overrides)
        run_cfg.synth.counts.update({icu: 14 for icu in ICU_NAMES})
        with monkeypatch.context() as patch:
            if name == "in_process":
                # every client task in this process instead of a worker pool
                patch.setattr(pool, "worker_count",
                              lambda n_clients: 1)
            result = experiment.run_all_folds(partition, run_cfg,
                                              include_fixed=True)
        out = tmp_path / name
        experiment.emit_reports(result, str(out))
        dirs[name] = out

    mismatches = []
    files = sorted(os.listdir(dirs["seq_a"]))
    for fname in files:
        ref = (dirs["seq_a"] / fname).read_bytes()
        for other in ("seq_b", "in_process"):
            if (dirs[other] / fname).read_bytes() != ref:
                mismatches.append(f"{other}/{fname}")
    elapsed = time.time() - start
    _report(9, bool(files) and not mismatches,
            f"{len(files)} report files byte-identical across a repeated "
            f"run and a run with every client task in-process; mismatches: "
            f"{mismatches or 'none'}; {elapsed:.1f}s")
