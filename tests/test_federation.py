import multiprocessing
from multiprocessing.pool import RemoteTraceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhorizon import federation, nn, pool
from fedhorizon.federation import (
    ClientState, FederationError, RoundLog, check_convergence, client_seed,
    convergence_rounds, fedavg_aggregate, filter_client_horizon, pool_clients,
    run_federated, run_fixed_window_suite, run_round, run_settings,
)

from conftest import window_set

N_FEATURES = 5
MODEL_CONFIG = nn.ModelConfig(n_features=N_FEATURES, lstm_units=4,
                              lstm_layers=2, dense_units=4, seed=3)


def make_client(index, n=24, seed=0, icu=None, n_val=8):
    """Small separable client: positives shifted up."""
    rng = np.random.default_rng([seed, index])

    def block(m):
        y = (np.arange(m) % 2).astype(float)
        X = rng.normal(size=(m, 6, N_FEATURES)) * 0.3 + y[:, None, None] * 1.5
        h = rng.integers(1, 26, m)
        return X, y, h

    X, y, h = block(n)
    Xv, yv, hv = block(n_val)
    return ClientState(icu_id=icu or f"icu{index}", index=index,
                       X_train=window_set(X), y_train=y, h_train=h,
                       X_val=window_set(Xv), y_val=yv, h_val=hv)


class TestFedavgAggregate:
    def test_two_equal_weights_is_midpoint(self):
        a, b = np.array([0.0, 2.0]), np.array([2.0, 4.0])
        np.testing.assert_allclose(fedavg_aggregate([(a, 3), (b, 3)]),
                                   [1.0, 3.0])

    def test_weighted_example(self):
        a, b = np.array([1.0]), np.array([4.0])
        assert fedavg_aggregate([(a, 1), (b, 2)])[0] == pytest.approx(3.0)

    def test_single_client_bit_identical(self):
        vec = np.random.default_rng(0).normal(size=1000)
        out = fedavg_aggregate([(vec, 137)])
        assert np.array_equal(out, vec)

    def test_identical_vectors_fixed_point(self):
        vec = np.random.default_rng(1).normal(size=50)
        out = fedavg_aggregate([(vec, 5), (vec.copy(), 11), (vec.copy(), 2)])
        np.testing.assert_allclose(out, vec, rtol=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_average_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 30))
        vecs = [rng.normal(size=d) for _ in range(k)]
        weights = rng.integers(1, 100, k).astype(float)
        out = fedavg_aggregate(list(zip(vecs, weights)))
        expected = np.average(np.stack(vecs), axis=0, weights=weights)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(FederationError):
            fedavg_aggregate([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(FederationError):
            fedavg_aggregate([(np.zeros(2), 1), (np.zeros(3), 1)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(FederationError):
            fedavg_aggregate([(np.zeros(2), 0)])


class TestClientSeed:
    def test_deterministic(self):
        assert client_seed(42, 3, 7) == client_seed(42, 3, 7)

    def test_varies_in_every_argument(self):
        base = client_seed(42, 3, 7)
        assert client_seed(43, 3, 7) != base
        assert client_seed(42, 4, 7) != base
        assert client_seed(42, 3, 8) != base


class TestCheckConvergence:
    def test_reference_trace(self):
        # improvement at round 2, then a 3-round plateau
        assert check_convergence([0.5, 0.6, 0.6, 0.6, 0.6], patience=3) == 2

    def test_still_improving(self):
        assert check_convergence([0.1, 0.2, 0.3, 0.4], patience=3) is None

    def test_tiny_improvements_do_not_reset(self):
        trace = [0.5, 0.5 + 5e-5, 0.5 + 8e-5, 0.5 + 9e-5]
        assert check_convergence(trace, patience=3, min_delta=1e-4) == 1

    def test_patience_boundary(self):
        # the plateau must span `patience` rounds beyond the improvement
        assert check_convergence([0.5, 0.5, 0.5, 0.5], patience=3) == 1
        assert check_convergence([0.5, 0.5, 0.5], patience=3) is None

    def test_accepts_round_logs(self):
        logs = [RoundLog(round=i + 1, val_f1=v)
                for i, v in enumerate([0.4, 0.7, 0.7, 0.7, 0.7])]
        assert check_convergence(logs, patience=3) == 2

    def test_bad_patience(self):
        with pytest.raises(FederationError):
            check_convergence([0.5], patience=0)


def test_convergence_rounds_falls_back_to_budget():
    logs = [RoundLog(round=i + 1, val_f1=0.1 * (i + 1)) for i in range(4)]
    assert convergence_rounds(logs, patience=3) == 4
    flat = [RoundLog(round=i + 1, val_f1=0.5) for i in range(5)]
    assert convergence_rounds(flat, patience=3) == 1


class TestRunRound:
    def test_changes_parameters(self):
        clients = [make_client(0), make_client(1)]
        model = nn.Model(MODEL_CONFIG)
        before = model.to_vector()
        new_model, log = run_round(model, clients, 1, seed=9)
        assert not np.array_equal(new_model.to_vector(), before)
        assert set(log.client_losses) == {"icu0", "icu1"}

    def test_global_model_untouched(self):
        clients = [make_client(0)]
        model = nn.Model(MODEL_CONFIG)
        before = model.to_vector().copy()
        run_round(model, clients, 1, seed=9)
        np.testing.assert_array_equal(model.to_vector(), before)

    def test_deterministic_across_calls(self):
        clients = [make_client(0), make_client(1)]
        m1, _ = run_round(nn.Model(MODEL_CONFIG), clients, 1, seed=9)
        m2, _ = run_round(nn.Model(MODEL_CONFIG), clients, 1, seed=9)
        np.testing.assert_array_equal(m1.to_vector(), m2.to_vector())

    def test_client_order_invariant(self):
        """Seeds hang off client.index, so shuffling the list is harmless
        up to the float summation order of the aggregate."""
        a, b = make_client(0), make_client(1)
        m1, _ = run_round(nn.Model(MODEL_CONFIG), [a, b], 1, seed=9)
        m2, _ = run_round(nn.Model(MODEL_CONFIG), [b, a], 1, seed=9)
        np.testing.assert_allclose(m1.to_vector(), m2.to_vector(),
                                   rtol=1e-12, atol=1e-12)

    def test_losses_finite(self):
        clients = [make_client(0)]
        _, log = run_round(nn.Model(MODEL_CONFIG), clients, 1, seed=9)
        assert np.isfinite(log.client_losses["icu0"])

    def test_client_task_scores_nothing(self, monkeypatch):
        """A client reports the loss it trained on; no eval-mode scoring."""
        calls = []
        predict_proba = nn.Model.predict_proba

        def counted(self, *args, **kwargs):
            calls.append(1)
            return predict_proba(self, *args, **kwargs)

        monkeypatch.setattr(nn.Model, "predict_proba", counted)
        clients = [make_client(0), make_client(1)]
        _, log = run_round(nn.Model(MODEL_CONFIG), clients, 1, seed=9)
        assert len(calls) == 0
        assert all(np.isfinite(v) for v in log.client_losses.values())

    def test_auto_pos_weight_weighs_by_own_labels(self):
        auto, fixed = make_client(0), make_client(0)
        for client in (auto, fixed):
            client.y_train = (np.arange(24) < 6).astype(float)  # 6 of 24
        auto.pos_weight = None
        fixed.pos_weight = 3.0
        assert auto.loss_pos_weight == 3.0
        m1, log1 = run_round(nn.Model(MODEL_CONFIG), [auto], 1, seed=9)
        m2, log2 = run_round(nn.Model(MODEL_CONFIG), [fixed], 1, seed=9)
        assert np.array_equal(m1.to_vector(), m2.to_vector())
        assert log1.client_losses == log2.client_losses


class TestRunFederated:
    def test_single_client_equals_local_training(self):
        """A one-client federation must reproduce plain sequential training
        bit-for-bit: FedAvg with one weight is the identity and optimizer
        state resets at round boundaries either way."""
        client = make_client(0, n=30)
        fed_model, logs = run_federated([client], MODEL_CONFIG, seed=5,
                                        rounds=3, early_stop=False)
        manual = nn.Model(MODEL_CONFIG)
        for round_index in range(1, 4):
            nn.train_epochs(manual, client.X_train, client.y_train, epochs=3,
                            batch_size=64,
                            seed=client_seed(5, client.index, round_index),
                            lr=nn.ADAM_LR, pos_weight=client.pos_weight)
        assert np.array_equal(fed_model.to_vector(), manual.to_vector())
        assert np.array_equal(fed_model.buffers_to_vector(),
                              manual.buffers_to_vector())
        assert len(logs) == 3

    def test_early_stopping_truncates(self):
        client = make_client(0, n=30)
        _, logs = run_federated([client], MODEL_CONFIG, seed=5, rounds=40)
        assert len(logs) < 40
        assert logs[-1].converged
        assert not any(log.converged for log in logs[:-1])

    def test_round_numbers_one_based(self):
        _, logs = run_federated([make_client(0)], MODEL_CONFIG, seed=5,
                                rounds=2, early_stop=False)
        assert [log.round for log in logs] == [1, 2]

    def test_empty_client_rejected(self):
        bad = make_client(0)
        bad.X_train = bad.X_train.select(slice(0, 0))
        bad.y_train = bad.y_train[:0]
        with pytest.raises(FederationError):
            run_federated([bad], MODEL_CONFIG, seed=5, rounds=1)

    def test_no_clients_rejected(self):
        with pytest.raises(FederationError):
            run_federated([], MODEL_CONFIG, seed=5, rounds=1)


class TestWorkerPool:
    @pytest.fixture
    def one_worker_per_client(self, monkeypatch):
        """Pool every multi-client run, whatever the host's CPU count."""
        monkeypatch.setattr(pool, "worker_count", lambda n_clients: n_clients)

    def test_worker_count_bounded_by_clients(self):
        assert pool.worker_count(1) == 1
        assert 1 <= pool.worker_count(64) <= 64

    def test_pooled_run_equals_serial_reference(self, one_worker_per_client):
        clients = [make_client(i, n=20 + 6 * i) for i in range(3)]
        fed_model, logs = run_federated(clients, MODEL_CONFIG, seed=5,
                                        rounds=2, early_stop=False)
        reference = nn.Model(MODEL_CONFIG)
        for round_index, log in enumerate(logs, start=1):
            params, buffers, losses = [], [], {}
            for client in clients:
                local = reference.copy()
                _, losses[client.icu_id] = nn.train_epochs(
                    local, client.X_train, client.y_train, epochs=3,
                    batch_size=64,
                    seed=client_seed(5, client.index, round_index),
                    lr=nn.ADAM_LR, pos_weight=client.pos_weight)
                params.append((local.to_vector(), client.n_k))
                buffers.append((local.buffers_to_vector(), client.n_k))
            reference = nn.Model(MODEL_CONFIG, fedavg_aggregate(params),
                                 fedavg_aggregate(buffers))
            assert log.client_losses == losses
        assert np.array_equal(fed_model.to_vector(), reference.to_vector())
        assert np.array_equal(fed_model.buffers_to_vector(),
                              reference.buffers_to_vector())

    def test_no_worker_left_after_return(self, one_worker_per_client):
        run_federated([make_client(0), make_client(1)], MODEL_CONFIG, seed=5,
                      rounds=1)
        assert multiprocessing.active_children() == []

    def test_worker_error_names_client_and_round(self, one_worker_per_client):
        clients = [make_client(0), make_client(1), make_client(2)]
        X = clients[1].X_train
        X.rows[X.first[3] + 2, 1] = np.nan  # window 3, hour 2, feature 1
        with pytest.raises(FederationError,
                           match="client icu1 failed in round 1") as info:
            run_federated(clients, MODEL_CONFIG, seed=5, rounds=2)
        assert isinstance(info.value.__cause__, RemoteTraceback)
        assert multiprocessing.active_children() == []

    def test_pooled_settings_equal_in_process(self, one_worker_per_client,
                                              monkeypatch):
        clients = [make_client(i, n=20 + 6 * i) for i in range(3)]
        pooled = federation.run_settings(("local", "central"), clients,
                                         MODEL_CONFIG, seed=5, rounds=2)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(pool, "worker_count", lambda n_clients: 1)
        alone = federation.run_settings(("local", "central"), clients,
                                        MODEL_CONFIG, seed=5, rounds=2)
        assert list(pooled) == ["local", "central"]
        assert list(pooled["local"][0]) == ["icu0", "icu1", "icu2"]
        for setting in pooled:
            models, logs = pooled[setting]
            ref_models, ref_logs = alone[setting]
            assert logs == ref_logs
            for name, model in models.items():
                assert np.array_equal(model.to_vector(),
                                      ref_models[name].to_vector())
                assert np.array_equal(model.buffers_to_vector(),
                                      ref_models[name].buffers_to_vector())

    def test_solo_error_names_client(self, one_worker_per_client):
        clients = [make_client(0), make_client(1), make_client(2)]
        X = clients[2].X_train
        X.rows[X.first[0], 0] = np.inf  # window 0, hour 0, feature 0
        with pytest.raises(FederationError,
                           match="client icu2 failed in round 1"):
            run_settings(["local"], clients, MODEL_CONFIG, seed=5, rounds=2)
        assert multiprocessing.active_children() == []


class TestPoolClients:
    def test_single_client_is_itself(self):
        client = make_client(0)
        assert pool_clients([client]) is client

    def test_concatenates_in_order(self):
        a, b = make_client(0, n=10), make_client(1, n=14)
        pooled = pool_clients([a, b])
        assert pooled.n_k == 24
        np.testing.assert_array_equal(pooled.X_train[:10], a.X_train[:])
        np.testing.assert_array_equal(pooled.X_train[10:], b.X_train[:])
        np.testing.assert_array_equal(pooled.y_train,
                                      np.concatenate([a.y_train, b.y_train]))

    def test_central_equals_local_on_pooled_data(self):
        """Central on two ICUs == Local on one pre-merged client with the
        same index."""
        a, b = make_client(0, n=10), make_client(1, n=14)
        pooled = pool_clients([a, b])
        m1, _ = run_federated([pooled], MODEL_CONFIG, seed=5, rounds=2)
        models, _ = run_settings(["central"], [a, b], MODEL_CONFIG, seed=5,
                                 rounds=2)["central"]
        assert np.array_equal(m1.to_vector(), models["central"].to_vector())

    def test_empty_rejected(self):
        with pytest.raises(FederationError):
            pool_clients([])

    @pytest.mark.parametrize("weight,expected", [(None, 4.0), (1.0, 1.0),
                                                 (2.5, 2.5)])
    def test_pos_weight_regimes(self, weight, expected):
        """A number passes through; only None (auto) weighs by the pooled
        labels, here 8 positives among 40 windows."""
        clients = [make_client(0, n=20), make_client(1, n=20)]
        for client in clients:
            client.y_train = (np.arange(20) < 4).astype(float)
            client.pos_weight = weight
        pooled = pool_clients(clients)
        assert pooled.pos_weight == weight
        assert pooled.loss_pos_weight == expected


class TestRunExperiment:
    def test_local_returns_one_model_per_icu(self):
        clients = [make_client(0), make_client(1), make_client(2)]
        models, logs = run_settings(["local"], clients, MODEL_CONFIG, seed=5,
                                    rounds=2)["local"]
        assert set(models) == {"icu0", "icu1", "icu2"}
        assert set(logs) == set(models)

    def test_federated_single_entry(self):
        clients = [make_client(0), make_client(1)]
        models, logs = run_settings(["federated"], clients, MODEL_CONFIG,
                                    seed=5, rounds=2)["federated"]
        assert set(models) == {"federated"}

    def test_single_client_federated_equals_local(self):
        client = make_client(0)
        fed, _ = run_settings(["federated"], [client], MODEL_CONFIG, seed=5,
                              rounds=2)["federated"]
        loc, _ = run_settings(["local"], [client], MODEL_CONFIG, seed=5,
                              rounds=2)["local"]
        assert np.array_equal(fed["federated"].to_vector(),
                              loc["icu0"].to_vector())

    def test_unknown_setting(self):
        with pytest.raises(FederationError):
            run_settings(["hybrid"], [make_client(0)], MODEL_CONFIG, seed=5)


class TestFilterClientHorizon:
    def test_filters_train_and_val(self):
        client = make_client(0, n=200, n_val=100)
        h = int(client.h_train[0])
        out = filter_client_horizon(client, h)
        assert (out.h_train == h).all()
        assert (out.h_val == h).all()
        assert out.n_k == int((client.h_train == h).sum())

    def test_val_falls_back_when_horizon_absent(self):
        client = make_client(0, n=200, n_val=8)
        client.h_val = np.full(8, 25)
        missing = next(h for h in range(1, 26)
                       if h != 25 and (client.h_train == h).any())
        out = filter_client_horizon(client, missing)
        np.testing.assert_array_equal(out.y_val, client.y_val)

    def test_no_samples_rejected(self):
        client = make_client(0, n=10)
        client.h_train = np.full(10, 5)
        with pytest.raises(FederationError):
            filter_client_horizon(client, 6)

    def test_bad_horizon_rejected(self):
        with pytest.raises(FederationError):
            filter_client_horizon(make_client(0), 26)

    def test_auto_pos_weight_recomputed(self):
        client = make_client(0, n=100)
        client.pos_weight = None  # auto
        out = filter_client_horizon(client, int(client.h_train[0]))
        sel = client.h_train == client.h_train[0]
        n_pos = int(client.y_train[sel].sum())
        assert out.pos_weight is None
        assert out.loss_pos_weight == (int(sel.sum()) - n_pos) / max(n_pos, 1)

    @pytest.mark.parametrize("weight", [1.0, 2.5])
    def test_fixed_pos_weight_passes_through(self, weight):
        client = make_client(0, n=100)
        client.pos_weight = weight
        out = filter_client_horizon(client, int(client.h_train[0]))
        assert out.pos_weight == out.loss_pos_weight == weight


def test_run_fixed_window_suite_returns_per_horizon_models():
    clients = [make_client(0, n=300), make_client(1, n=300)]
    models, logs = run_fixed_window_suite(
        clients, [25, 5], MODEL_CONFIG, seed=5, rounds=2, early_stop=False)
    assert set(models) == {25, 5}
    assert all(len(v) == 2 for v in logs.values())
    assert not np.array_equal(models[25].to_vector(), models[5].to_vector())
