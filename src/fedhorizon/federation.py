"""FedAvg simulation across ICU clients.

A round distributes the global model, trains three local epochs per
client, and aggregates the returned parameter and batch-norm vectors
(``nn.Model.vector`` and ``buffer_vector``, the model's own storage)
weighted by local window counts. Local and Central settings reuse the
same round loop with a single (per-ICU or pooled) client, so a one-client
federation is bit-identical to local training by construction.

Client-side randomness derives solely from (seed, client index, round),
so runs are reproducible regardless of execution order. Independent tasks
run through one executor, ``_executor``: in a fork pool of worker
processes, one per usable CPU, that inherit the shared data (the clients)
when they start, or in-process when one worker is enough. Per FedAvg
round only the two global vectors go out, and the trained vectors and
losses come back. Aggregation stays in the calling process, in client
order, so pooled and in-process runs are bit-identical. The one-client
trainings of the Local and Central settings are independent of each
other, so they go through the same executor, one training per task.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import nn
from .metrics import confusion, f1
from .schema import MAX_HORIZON


class FederationError(ValueError):
    pass


@dataclass
class ClientState:
    icu_id: str
    index: int  # stable client index used for seed derivation
    X_train: np.ndarray
    y_train: np.ndarray
    h_train: np.ndarray  # per-sample prediction horizon
    X_val: np.ndarray
    y_val: np.ndarray
    h_val: np.ndarray | None = None
    pos_weight: float = 1.0

    @property
    def n_k(self) -> int:
        """FedAvg weight: number of local training windows."""
        return int(self.y_train.shape[0])


@dataclass
class RoundLog:
    round: int  # 1-based
    client_losses: dict = field(default_factory=dict)
    val_f1: float = 0.0
    converged: bool = False

    def to_json_obj(self) -> dict:
        return {"round": self.round, "client_losses": self.client_losses,
                "val_f1": self.val_f1, "converged": self.converged}


def fedavg_aggregate(updates: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Coordinate-wise weighted average of parameter vectors.

    Weights are normalized first, so a single client's vector passes
    through bit-identically.
    """
    if not updates:
        raise FederationError("no client updates to aggregate")
    length = updates[0][0].shape
    total = 0.0
    for vec, weight in updates:
        if vec.shape != length:
            raise FederationError(
                f"parameter vector length mismatch: {vec.shape} vs {length}")
        if weight <= 0:
            raise FederationError(f"non-positive client weight {weight}")
        total += weight
    if total <= 0:
        raise FederationError("zero total weight")
    out = np.zeros(length, dtype=updates[0][0].dtype)
    for vec, weight in updates:
        out += (weight / total) * vec
    return out


def client_seed(seed: int, client_index: int, round_index: int) -> int:
    """Deterministic per-(client, round) seed; independent of run order."""
    return int(np.random.SeedSequence(
        [seed, client_index, round_index]).generate_state(1)[0])


def _eval_loss(model: nn.Model, X, y, pos_weight: float) -> float:
    probs = model.predict_proba(X)
    return nn.loss(probs, y, pos_weight=pos_weight)


def worker_count(n_tasks: int) -> int:
    """Worker processes for an ``_executor``: one per usable CPU, at most
    one per task. One means the tasks run in-process."""
    return min(len(os.sched_getaffinity(0)), n_tasks)


# What the pool workers of the open executor share, set once when each
# worker starts; the calling process never sets it.
_worker_shared = None


def _set_worker_shared(shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _map_in_process(task, shared, jobs) -> list:
    return [task(job, shared) for job in jobs]


@contextmanager
def _executor(task, shared, n_tasks: int):
    """Yields ``map_jobs(jobs)``, which returns ``[task(job, shared) ...]``.

    With one worker (``worker_count(n_tasks)``) the tasks run in-process.
    Otherwise they run in a fork pool whose workers inherit ``shared``
    instead of unpickling a copy each (this package starts no threads to
    fork from); the pool is terminated and joined on exit.
    """
    workers = worker_count(n_tasks)
    if workers <= 1:
        yield partial(_map_in_process, task, shared)
        return
    pool = multiprocessing.get_context("fork").Pool(
        workers, _set_worker_shared, (shared,))
    try:
        yield partial(pool.map, task, chunksize=1)
    finally:
        pool.terminate()
        pool.join()


def _client_task(job, shared: list[ClientState] | None = None):
    """Train one client for one round from the global vectors.

    ``job`` is ``(position, config, params, buffers, round_index, seed,
    local_epochs, batch_size, lr)`` and ``shared`` the clients (a pool
    worker's inherited ones when None). Returns the trained parameter and
    buffer vectors and the client's training loss.
    """
    (position, config, params, buffers, round_index, seed, local_epochs,
     batch_size, lr) = job
    client = (_worker_shared if shared is None else shared)[position]
    local = nn.Model(config, params, buffers)
    try:
        nn.train_epochs(
            local, client.X_train, client.y_train,
            epochs=local_epochs, batch_size=batch_size,
            seed=client_seed(seed, client.index, round_index),
            lr=lr, pos_weight=client.pos_weight)
    except nn.ModelError as exc:
        raise FederationError(
            f"client {client.icu_id} failed in round {round_index}: {exc}"
        ) from exc
    loss = _eval_loss(local, client.X_train, client.y_train, client.pos_weight)
    return local.vector, local.buffer_vector, loss


def run_round(global_model: nn.Model, clients: list[ClientState],
              round_index: int, seed: int, local_epochs: int = 3,
              batch_size: int = 64, lr: float = nn.ADAM_LR, map_jobs=None
              ) -> tuple[nn.Model, RoundLog]:
    """One FedAvg round. Optimizer state is client-local and reset at the
    start of every round (only parameters are exchanged).

    Client tasks run through ``map_jobs``, the map of an ``_executor``
    opened on these clients, or in-process when it is None.
    """
    if not clients:
        raise FederationError("round requires at least one client")
    if map_jobs is None:
        map_jobs = partial(_map_in_process, _client_task, clients)
    jobs = [(position, global_model.config, global_model.vector,
             global_model.buffer_vector, round_index, seed, local_epochs,
             batch_size, lr) for position in range(len(clients))]
    trained, trained_buffers, losses = zip(*map_jobs(jobs))
    weights = [client.n_k for client in clients]
    log = RoundLog(round=round_index, client_losses={
        client.icu_id: loss for client, loss in zip(clients, losses)})
    new_model = nn.Model(global_model.config,
                         fedavg_aggregate(list(zip(trained, weights))),
                         fedavg_aggregate(list(zip(trained_buffers, weights))))
    return new_model, log


def validation_f1(model: nn.Model, clients: list[ClientState],
                  threshold: float = 0.5) -> float:
    X = np.concatenate([c.X_val for c in clients])
    y = np.concatenate([c.y_val for c in clients])
    if X.shape[0] == 0:
        return 0.0
    probs = model.predict_proba(X)
    return f1(confusion(probs, y, threshold))


def check_convergence(logs, patience: int, min_delta: float = 1e-4):
    """First (1-based) round whose validation F1 is never improved upon by
    more than min_delta for `patience` consecutive rounds; None otherwise."""
    if patience < 1:
        raise FederationError("patience must be >= 1")
    f1s = [log.val_f1 if isinstance(log, RoundLog) else float(log) for log in logs]
    best = -np.inf
    best_round = None
    streak = 0
    for round_index, value in enumerate(f1s, start=1):
        if value > best + min_delta:
            best = value
            best_round = round_index
            streak = 0
        else:
            streak += 1
            if streak >= patience:
                return best_round
    return None


def run_federated(clients: list[ClientState], model_config: nn.ModelConfig,
                  seed: int, rounds: int, local_epochs: int = 3,
                  batch_size: int = 64, lr: float = nn.ADAM_LR,
                  patience: int = 3, min_delta: float = 1e-4,
                  threshold: float = 0.5, early_stop: bool = True
                  ) -> tuple[nn.Model, list[RoundLog]]:
    """Full federated training loop with convergence-based early stop.

    With ``early_stop`` enabled the returned model is the snapshot from
    the last round whose validation F1 improved by more than
    ``min_delta`` (the round check_convergence reports), not the final
    round; with ``early_stop=False`` the final-round model is returned.

    The clients train through an ``_executor``: in a fork pool of
    ``worker_count`` processes, closed before this returns or raises, or
    in-process for a single client.
    """
    if not clients:
        raise FederationError("no clients")
    for c in clients:
        if c.n_k == 0:
            raise FederationError(f"client {c.icu_id} has an empty training split")
    model = nn.Model(model_config)
    logs: list[RoundLog] = []
    best_f1 = -np.inf
    snapshot = None
    with _executor(_client_task, clients, len(clients)) as map_jobs:
        for round_index in range(1, rounds + 1):
            model, log = run_round(model, clients, round_index, seed,
                                   local_epochs=local_epochs,
                                   batch_size=batch_size, lr=lr,
                                   map_jobs=map_jobs)
            log.val_f1 = validation_f1(model, clients, threshold)
            if early_stop and log.val_f1 > best_f1 + min_delta:
                best_f1 = log.val_f1
                snapshot = model  # run_round builds a new model each round
            converged_at = check_convergence(logs + [log], patience, min_delta)
            log.converged = converged_at is not None
            logs.append(log)
            if early_stop and log.converged:
                break
    return (model if snapshot is None else snapshot), logs


def pool_clients(clients: list[ClientState]) -> ClientState:
    """Merge clients into one pooled client (the Central setting).

    Data are concatenated in client order; a single-client pool is the
    client itself, making Central on one ICU coincide with Local.
    """
    if not clients:
        raise FederationError("no clients to pool")
    if len(clients) == 1:
        return clients[0]
    n_pos = sum(int(c.y_train.sum()) for c in clients)
    n_total = sum(c.n_k for c in clients)
    # keep weighted pos_weight consistent with how clients were built
    pw = clients[0].pos_weight
    pooled = ClientState(
        icu_id="CENTRAL",
        index=clients[0].index,
        X_train=np.concatenate([c.X_train for c in clients]),
        y_train=np.concatenate([c.y_train for c in clients]),
        h_train=np.concatenate([c.h_train for c in clients]),
        X_val=np.concatenate([c.X_val for c in clients]),
        y_val=np.concatenate([c.y_val for c in clients]),
        h_val=(np.concatenate([c.h_val for c in clients])
               if all(c.h_val is not None for c in clients) else None),
        pos_weight=pw if pw == 1.0 else (n_total - n_pos) / max(n_pos, 1),
    )
    return pooled


def _solo_task(position: int, shared: tuple | None = None):
    """Train one client of ``shared`` = (clients, model config, training
    arguments) as a one-client federation, in-process."""
    clients, model_config, kwargs = _worker_shared if shared is None else shared
    return run_federated([clients[position]], model_config, **kwargs)


def train_alone(clients: list[ClientState], model_config: nn.ModelConfig,
                **kwargs) -> list[tuple[nn.Model, list[RoundLog]]]:
    """Train every client as its own one-client federation.

    The trainings are independent, so they run through one ``_executor``
    (a fork pool of ``worker_count`` processes for several clients),
    largest client first. Results come back in client order.
    """
    order = sorted(range(len(clients)), key=lambda i: -clients[i].n_k)
    with _executor(_solo_task, (clients, model_config, kwargs),
                   len(clients)) as map_jobs:
        trained = map_jobs(order)
    results = [None] * len(clients)
    for position, result in zip(order, trained):
        results[position] = result
    return results


def run_settings(settings, clients: list[ClientState],
                 model_config: nn.ModelConfig, seed: int, rounds: int = 50,
                 local_epochs: int = 3, batch_size: int = 64,
                 lr: float = nn.ADAM_LR, patience: int = 3,
                 min_delta: float = 1e-4, threshold: float = 0.5) -> dict:
    """Train under each evaluation setting.

    Returns {setting: ({name: Model}, {name: [RoundLog]})} in the order
    of ``settings``: one model per ICU for Local, a single "federated" /
    "central" entry otherwise. Local and Central run the same round loop
    with a single client, so budgets (rounds x local_epochs) and early
    stopping are directly comparable. Those one-client trainings (every
    Local client and the Central pool) go to ``train_alone`` together;
    Federated then trains its clients on its own per-round pool.
    """
    for setting in settings:
        if setting not in ("local", "federated", "central"):
            raise FederationError(f"unknown setting {setting!r}")
    kwargs = dict(seed=seed, rounds=rounds, local_epochs=local_epochs,
                  batch_size=batch_size, lr=lr, patience=patience,
                  min_delta=min_delta, threshold=threshold)
    solo = []  # (setting, name, client)
    if "local" in settings:
        solo += [("local", client.icu_id, client) for client in clients]
    if "central" in settings:
        solo.append(("central", "central", pool_clients(clients)))
    trained = train_alone([client for _, _, client in solo], model_config,
                          **kwargs)
    out = {}
    for setting in settings:
        if setting == "federated":
            model, logs = run_federated(clients, model_config, **kwargs)
            out[setting] = {"federated": model}, {"federated": logs}
            continue
        runs = [(name, result) for (owner, name, _), result
                in zip(solo, trained) if owner == setting]
        out[setting] = ({name: model for name, (model, _) in runs},
                        {name: logs for name, (_, logs) in runs})
    return out


def run_experiment(setting: str, clients: list[ClientState],
                   model_config: nn.ModelConfig, seed: int, **kwargs):
    """Train under one evaluation setting; see ``run_settings``.

    Returns ({name: Model}, {name: [RoundLog]}).
    """
    return run_settings([setting], clients, model_config, seed, **kwargs)[setting]


def convergence_rounds(logs: list[RoundLog], patience: int,
                       min_delta: float = 1e-4) -> int:
    """Rounds to convergence; the full budget if never converged."""
    converged = check_convergence(logs, patience, min_delta)
    return converged if converged is not None else len(logs)


def filter_client_horizon(client: ClientState, horizon: int) -> ClientState:
    if not (1 <= horizon <= MAX_HORIZON):
        raise FederationError(f"horizon {horizon} outside [1, {MAX_HORIZON}]")
    sel_tr = client.h_train == horizon
    if not sel_tr.any():
        raise FederationError(
            f"client {client.icu_id} has no training samples at horizon {horizon}")
    n_pos = int(client.y_train[sel_tr].sum())
    n_neg = int(sel_tr.sum()) - n_pos
    X_val, y_val, h_val = client.X_val, client.y_val, client.h_val
    if h_val is not None and (h_val == horizon).any():
        sel_val = h_val == horizon
        X_val, y_val, h_val = X_val[sel_val], y_val[sel_val], h_val[sel_val]
    return ClientState(
        icu_id=client.icu_id,
        index=client.index,
        X_train=client.X_train[sel_tr],
        y_train=client.y_train[sel_tr],
        h_train=client.h_train[sel_tr],
        X_val=X_val,
        y_val=y_val,
        h_val=h_val,
        pos_weight=(client.pos_weight if client.pos_weight == 1.0
                    else n_neg / max(n_pos, 1)),
    )


def run_fixed_window_suite(clients: list[ClientState], horizons: list[int],
                           model_config: nn.ModelConfig, seed: int, **kwargs):
    """One federated model per fixed horizon, trained on horizon-filtered
    samples. Returns ({horizon: Model}, {horizon: [RoundLog]})."""
    models, logs = {}, {}
    for horizon in horizons:
        filtered = [filter_client_horizon(c, horizon) for c in clients]
        model, log = run_federated(filtered, model_config, seed=seed, **kwargs)
        models[horizon] = model
        logs[horizon] = log
    return models, logs
