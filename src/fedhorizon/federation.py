"""FedAvg simulation across ICU clients.

A round distributes the global model, trains three local epochs per
client, and aggregates the returned parameter and batch-norm vectors
(``nn.Model.vector`` and ``buffer_vector``, the model's own storage)
weighted by local window counts. Local and Central settings reuse the
same round loop with a single (per-ICU or pooled) client, so a one-client
federation is bit-identical to local training by construction.

Client-side randomness derives solely from (seed, client index, round),
so runs are reproducible regardless of execution order. Independent tasks
run through ``pool.executor``: in a fork pool of worker processes, one
per usable CPU, that inherit the shared data (the clients) when they
start, or in-process when one worker is enough. Per FedAvg round only
the two global vectors go out, and the trained vectors and losses come
back. A client's loss is the one it trained on: the mean train-mode loss,
with dropout on, over its last local epoch; a client task scores nothing
in eval mode. Aggregation stays in the calling process, in client order, so
pooled and in-process runs are bit-identical. The one-client trainings of
the Local and Central settings are independent of each other, so they go
through the same executor, one training per task.

A client holds two labelled ``windowing.WindowSet``s, its training and
validation windows; pooling, horizon filtering and the validation join
select and join those sets, so each window keeps its label and horizon.

Early stopping is decided once, in ``run_federated``'s round loop, on the
F1 of the clients' validation windows joined once per federation:
``RoundLog.converged`` marks the rounds after ``patience`` rounds without
an improvement of more than ``min_delta``, and ``convergence_rounds``
reads the rounds to convergence from those logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nn, pool
from .config import VALID_SETTINGS
from .metrics import confusion, f1
from .schema import MAX_HORIZON
from .windowing import WindowSet


class FederationError(ValueError):
    pass


@dataclass
class ClientState:
    icu_id: str
    index: int  # stable client index used for seed derivation
    X_train: WindowSet  # labelled, gathered by the batch in training
    X_val: WindowSet
    pos_weight: float | None = 1.0  # None: auto, see loss_pos_weight

    # each split's labels and horizons, by the names perfbench reads
    y_train = property(lambda self: self.X_train.y)
    h_train = property(lambda self: self.X_train.horizons)
    y_val = property(lambda self: self.X_val.y)
    h_val = property(lambda self: self.X_val.horizons)

    @property
    def n_k(self) -> int:
        """FedAvg weight: number of local training windows."""
        return len(self.X_train)

    @property
    def loss_pos_weight(self) -> float:
        """The loss weight of a positive window: ``pos_weight``, or for
        None (auto) N_neg / N_pos of this client's training labels."""
        if self.pos_weight is not None:
            return self.pos_weight
        n_pos = int(self.X_train.y.sum())
        return (self.n_k - n_pos) / max(n_pos, 1)


@dataclass
class RoundLog:
    round: int  # 1-based
    # icu_id -> mean train-mode loss (dropout on) over the last local epoch
    client_losses: dict = field(default_factory=dict)
    val_f1: float = 0.0
    # set once `patience` rounds in a row have not improved the best F1
    converged: bool = False


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
    out = np.zeros(length, dtype=updates[0][0].dtype)
    for vec, weight in updates:
        out += (weight / total) * vec
    return out


def client_seed(seed: int, client_index: int, round_index: int) -> int:
    """Deterministic per-(client, round) seed; independent of run order."""
    return int(np.random.SeedSequence(
        [seed, client_index, round_index]).generate_state(1)[0])


def _client_task(job, clients: list[ClientState]):
    """Train one client for one round from the global vectors.

    ``job`` is ``(position, config, params, buffers, round_index, seed,
    local_epochs, batch_size, lr)``. Returns the trained parameter and
    buffer vectors and the client's training loss, as ``nn.train_epochs``
    reports it.
    """
    (position, config, params, buffers, round_index, seed, local_epochs,
     batch_size, lr) = job
    client = clients[position]
    local = nn.Model(config, params, buffers)
    try:
        _, loss = nn.train_epochs(
            local, client.X_train, client.X_train.y,
            epochs=local_epochs, batch_size=batch_size,
            seed=client_seed(seed, client.index, round_index),
            lr=lr, pos_weight=client.loss_pos_weight)
    except nn.ModelError as exc:
        raise FederationError(
            f"client {client.icu_id} failed in round {round_index}: {exc}"
        ) from exc
    return local.vector, local.buffer_vector, loss


def run_round(global_model: nn.Model, clients: list[ClientState],
              round_index: int, seed: int, local_epochs: int = 3,
              batch_size: int = 64, lr: float = nn.ADAM_LR, map_jobs=None
              ) -> tuple[nn.Model, RoundLog]:
    """One FedAvg round. Optimizer state is client-local and reset at the
    start of every round (only parameters are exchanged).

    Client tasks run through ``map_jobs``, the map of a ``pool.executor``
    opened on these clients, or in-process when it is None.
    """
    if not clients:
        raise FederationError("round requires at least one client")
    if map_jobs is None:
        map_jobs = pool.in_process(_client_task, clients)
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


def validation_f1(model: nn.Model, X: WindowSet,
                  threshold: float = 0.5) -> float:
    """F1 of ``model`` on the labelled validation windows ``X``."""
    if len(X) == 0:
        return 0.0
    return f1(confusion(model.predict_proba(X), X.y, threshold))


def run_federated(clients: list[ClientState], model_config: nn.ModelConfig,
                  seed: int, rounds: int, local_epochs: int = 3,
                  batch_size: int = 64, lr: float = nn.ADAM_LR,
                  patience: int = 3, min_delta: float = 1e-4,
                  threshold: float = 0.5, early_stop: bool = True
                  ) -> tuple[nn.Model, list[RoundLog]]:
    """Full federated training loop with convergence-based early stop.

    After each round the model is scored on the clients' validation
    windows, joined once in client order. A round improves when its F1
    exceeds the best so far by more than ``min_delta``; once ``patience``
    rounds in a row have not improved, that round's log and every later
    one read ``converged``. With ``early_stop`` the loop stops there and
    returns the model of the best round, also when the budget runs out
    first; with ``early_stop=False`` every round runs and the final
    round's model is returned.

    The clients train through a ``pool.executor``: in a fork pool of
    ``pool.worker_count`` processes, closed before this returns or
    raises, or in-process for a single client.
    """
    if not clients:
        raise FederationError("no clients")
    if patience < 1:
        raise FederationError("patience must be >= 1")
    for c in clients:
        if c.n_k == 0:
            raise FederationError(f"client {c.icu_id} has an empty training split")
    val = WindowSet.concatenate([c.X_val for c in clients])
    model = best_model = nn.Model(model_config)
    logs: list[RoundLog] = []
    best_f1 = -np.inf
    streak = 0  # rounds since the best one
    converged = False
    with pool.executor(_client_task, clients, len(clients)) as map_jobs:
        for round_index in range(1, rounds + 1):
            model, log = run_round(model, clients, round_index, seed,
                                   local_epochs=local_epochs,
                                   batch_size=batch_size, lr=lr,
                                   map_jobs=map_jobs)
            log.val_f1 = validation_f1(model, val, threshold)
            if log.val_f1 > best_f1 + min_delta:
                best_f1, best_model, streak = log.val_f1, model, 0
            else:
                streak += 1
            converged = log.converged = converged or streak >= patience
            logs.append(log)
            if early_stop and converged:
                break
    return (best_model if early_stop else model), logs


def pool_clients(clients: list[ClientState]) -> ClientState:
    """Merge clients into one pooled client (the Central setting).

    Data are concatenated in client order; a single-client pool is the
    client itself, making Central on one ICU coincide with Local. The pool
    keeps the first client's ``pos_weight``: a number, or None, which then
    weighs by the pooled labels.
    """
    if not clients:
        raise FederationError("no clients to pool")
    if len(clients) == 1:
        return clients[0]
    return replace(
        clients[0], icu_id="CENTRAL",
        X_train=WindowSet.concatenate([c.X_train for c in clients]),
        X_val=WindowSet.concatenate([c.X_val for c in clients]))


def _solo_task(position: int, shared: tuple):
    """Train one client of ``shared`` = (clients, model config, training
    arguments) as a one-client federation, in-process."""
    clients, model_config, kwargs = shared
    return run_federated([clients[position]], model_config, **kwargs)


def train_alone(clients: list[ClientState], model_config: nn.ModelConfig,
                **kwargs) -> list[tuple[nn.Model, list[RoundLog]]]:
    """Train every client as its own one-client federation.

    The trainings are independent, so they run through one
    ``pool.executor`` (a fork pool of ``pool.worker_count`` processes for
    several clients), largest client first. Results come back in client
    order.
    """
    order = sorted(range(len(clients)), key=lambda i: -clients[i].n_k)
    with pool.executor(_solo_task, (clients, model_config, kwargs),
                       len(clients)) as map_jobs:
        trained = list(map_jobs(order))
    results = [None] * len(clients)
    for position, result in zip(order, trained):
        results[position] = result
    return results


def run_settings(settings, clients: list[ClientState],
                 model_config: nn.ModelConfig, **train_kwargs) -> dict:
    """Train under each evaluation setting; ``train_kwargs`` are
    ``run_federated``'s training arguments (``seed`` and ``rounds`` are
    required).

    Returns {setting: ({name: Model}, {name: [RoundLog]})} in the order
    of ``settings``: one model per ICU for Local, a single "federated" /
    "central" entry otherwise. Local and Central run the same round loop
    with a single client, so budgets (rounds x local_epochs) and early
    stopping are directly comparable. Those one-client trainings (every
    Local client and the Central pool) go to ``train_alone`` together;
    Federated then trains its clients on its own per-round pool.
    """
    for setting in settings:
        if setting not in VALID_SETTINGS:
            raise FederationError(f"unknown setting {setting!r}")
    solo = []  # (setting, name, client)
    if "local" in settings:
        solo += [("local", client.icu_id, client) for client in clients]
    if "central" in settings:
        solo.append(("central", "central", pool_clients(clients)))
    trained = train_alone([client for _, _, client in solo], model_config,
                          **train_kwargs)
    out = {}
    for setting in settings:
        if setting == "federated":
            model, logs = run_federated(clients, model_config, **train_kwargs)
            out[setting] = {"federated": model}, {"federated": logs}
            continue
        runs = [(name, result) for (owner, name, _), result
                in zip(solo, trained) if owner == setting]
        out[setting] = ({name: model for name, (model, _) in runs},
                        {name: logs for name, (_, logs) in runs})
    return out


def convergence_rounds(logs: list[RoundLog], patience: int) -> int:
    """Rounds to convergence: the best round of a converged run, the first
    converged round less ``patience``; the rounds run if none converged."""
    for log in logs:
        if log.converged:
            return log.round - patience
    return len(logs)


def filter_client_horizon(client: ClientState, horizon: int) -> ClientState:
    """The client's windows at one horizon; validation keeps every window
    when none is at that horizon. ``pos_weight`` passes through, so None
    (auto) weighs by the filtered labels."""
    if not (1 <= horizon <= MAX_HORIZON):
        raise FederationError(f"horizon {horizon} outside [1, {MAX_HORIZON}]")
    sel_tr = client.X_train.horizons == horizon
    if not sel_tr.any():
        raise FederationError(
            f"client {client.icu_id} has no training samples at horizon {horizon}")
    sel_val = client.X_val.horizons == horizon
    X_val = client.X_val.select(sel_val) if sel_val.any() else client.X_val
    return replace(client, X_train=client.X_train.select(sel_tr), X_val=X_val)


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
