"""From-scratch attention-enhanced LSTM binary classifier.

Architecture: single-head scaled dot-product self-attention over the 6
time steps (with residual connection), three LSTM layers of 16 units,
each followed by batch normalization and dropout, a dense layer to 8
units with batch normalization and dropout, and a single sigmoid output.
Batch norm normalises over every axis but the last, and it updates its
running statistics in one place; one function draws every dropout mask.

All gradients are exact (verified against finite differences). A model's
parameters live in one flat vector with a documented layout, and its
batch-norm running statistics in a second one; the named arrays that
``forward`` and ``backward`` take are views into them. ``backward`` returns
the gradient as one vector of the same layout, which the Adam step takes
as it is. The two vectors are also the federated exchange format, so
nothing is packed or unpacked between a training step and an upload.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
CLAMP_EPS = 1e-7
GATE_ORDER = "ifgo"  # input, forget, cell, output


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    n_features: int  # F: 26, or 27 with the time channel
    lstm_units: int = 16
    lstm_layers: int = 3
    dense_units: int = 8
    dropout: float = 0.2
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("n_features", "lstm_units", "lstm_layers", "dense_units"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ModelError(f"dropout {self.dropout} outside [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ModelError(f"dtype must be 'float64' or 'float32', "
                             f"got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs defining the flat ParamVector layout.

    Order: attention q/k/v projections, then per LSTM layer the input
    weights, recurrent weights, gate bias (gates ordered i, f, g, o) and
    batch-norm scale/shift, then dense layer, its batch-norm, and the
    output neuron.
    """
    F, H, D = config.n_features, config.lstm_units, config.dense_units
    layout = [
        ("attn_wq", (F, F)), ("attn_bq", (F,)),
        ("attn_wk", (F, F)), ("attn_bk", (F,)),
        ("attn_wv", (F, F)), ("attn_bv", (F,)),
    ]
    for layer in range(config.lstm_layers):
        in_dim = F if layer == 0 else H
        layout += [
            (f"lstm{layer}_wx", (in_dim, 4 * H)),
            (f"lstm{layer}_wh", (H, 4 * H)),
            (f"lstm{layer}_b", (4 * H,)),
            (f"bn{layer}_gamma", (H,)),
            (f"bn{layer}_beta", (H,)),
        ]
    layout += [
        ("dense_w", (H, D)), ("dense_b", (D,)),
        ("bn_dense_gamma", (D,)), ("bn_dense_beta", (D,)),
        ("out_w", (D, 1)), ("out_b", (1,)),
    ]
    return layout


def buffer_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Batch-norm running statistics (non-trainable state)."""
    H, D = config.lstm_units, config.dense_units
    layout = []
    for layer in range(config.lstm_layers):
        layout += [(f"bn{layer}_mean", (H,)), (f"bn{layer}_var", (H,))]
    layout += [("bn_dense_mean", (D,)), ("bn_dense_var", (D,))]
    return layout


def n_params(config: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in param_layout(config))


def params_to_vector(params: dict[str, np.ndarray], layout) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name, _ in layout])


def vector_to_params(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Named views into ``vector``: writing to one writes to the vector."""
    sizes = [math.prod(shape) for _, shape in layout]
    expected = sum(sizes)
    if vector.shape != (expected,):
        raise ModelError(f"vector length {vector.shape} != expected ({expected},)")
    params = {}
    offset = 0
    for (name, shape), size in zip(layout, sizes):
        params[name] = vector[offset : offset + size].reshape(shape)
        offset += size
    return params


def init_params(config: ModelConfig, seed: int | None = None) -> dict[str, np.ndarray]:
    """Fan-in scaled uniform init; forget-gate bias 1, batch-norm scale 1."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    H = config.lstm_units
    params = {}
    for name, shape in param_layout(config):
        if name.endswith(("gamma",)):
            arr = np.ones(shape)
        elif name.endswith(("beta", "_b", "bq", "bk", "bv")):
            arr = np.zeros(shape)
            if "_b" in name and name.startswith("lstm"):
                arr[H : 2 * H] = 1.0  # forget gate
        else:
            limit = np.sqrt(1.0 / shape[0])
            arr = rng.uniform(-limit, limit, size=shape)
        params[name] = arr.astype(config.np_dtype)
    return params


def init_buffers(config: ModelConfig) -> dict[str, np.ndarray]:
    buffers = {}
    for name, shape in buffer_layout(config):
        init = np.ones if name.endswith("var") else np.zeros
        buffers[name] = init(shape, dtype=config.np_dtype)
    return buffers


@dataclass
class ForwardState:
    """Everything backward needs, cached by a train-mode forward pass."""

    X: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray  # (B, T, T) softmax weights, rows sum to 1
    layers: list  # per-LSTM-layer caches
    dense_in: np.ndarray
    dense_bn: tuple
    dense_mask: np.ndarray | None  # None without dropout
    dense_out: np.ndarray
    probs: np.ndarray


def _softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _sigmoid(x):
    # branch-free stable form: exp is only ever taken of -|x|, and each
    # element divides 1 (x >= 0) or e (x < 0; e <= 1) by 1 + e; in-place
    # steps spare the large temporaries of eval-size batches
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def attention_forward(params, X):
    """Scaled dot-product self-attention context (pre-residual).

    Returns (context, weights): context = softmax(QK^T / sqrt(F)) V.
    """
    q = X @ params["attn_wq"] + params["attn_bq"]
    k = X @ params["attn_wk"] + params["attn_bk"]
    v = X @ params["attn_wv"] + params["attn_bv"]
    scale = 1.0 / np.sqrt(X.shape[-1])
    attn = _softmax((q @ k.transpose(0, 2, 1)) * scale)
    context = attn @ v
    return context, (q, k, v, attn)


def _bn_forward(x, gamma, beta, running_mean, running_var, train):
    """Batch norm over every axis but the last; train mode uses the batch
    statistics and moves the running ones toward them, in place."""
    if train:
        axes = tuple(range(x.ndim - 1))
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = x - mu
    xhat *= inv_std
    out = gamma * xhat
    out += beta
    return out, (xhat, inv_std)


def _bn_backward(dy, gamma, cache):
    axes = tuple(range(dy.ndim - 1))
    # n stays a NumPy integer: NumPy 2 promotes float32 / np.int64 to
    # float64, while float32 / int stays float32, so a Python int would
    # change the bits of a model trained on float32 windows
    n = np.prod(dy.shape[:-1])
    xhat, inv_std = cache
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dx = (gamma * inv_std) * (dy - dbeta / n - xhat * (dgamma / n))
    return dx, dgamma, dbeta


def _dropout(x, rng, keep, dtype):
    """Inverted dropout: ``x`` times a fresh mask of 0 and 1/keep drawn
    from ``rng``; returns (dropped x, mask)."""
    mask = (rng.random(x.shape) < keep).astype(dtype) / keep
    return x * mask, mask


def _lstm_forward(layer_in, wx, wh, b, dtype, train):
    """One LSTM layer over all time steps.

    Returns the hidden states (B, T, H) and, in train mode, what backward
    needs: the activated gates (B, T, 4H), sigmoid of i, f, o and tanh of
    g, and the cell states (B, T, H); None for both in eval mode.
    """
    B, T, _ = layer_in.shape
    H = wh.shape[0]
    zx = layer_in @ wx
    zx += b  # (B, T, 4H), input part of all steps
    h = np.zeros((B, H), dtype=dtype)
    c = np.zeros((B, H), dtype=dtype)
    hs = np.empty((B, T, H), dtype=dtype)
    gates = cells = None
    if train:
        gates = np.empty((B, T, 4 * H), dtype=dtype)
        cells = np.empty_like(hs)
    for t in range(T):
        z = zx[:, t] + h @ wh
        s = _sigmoid(z)  # one vectorized call; the g block is replaced
        s[:, 2 * H : 3 * H] = np.tanh(z[:, 2 * H : 3 * H])
        c = s[:, H : 2 * H] * c
        c += s[:, :H] * s[:, 2 * H : 3 * H]
        h = np.tanh(c)
        h *= s[:, 3 * H :]
        hs[:, t] = h
        if train:
            gates[:, t] = s
            cells[:, t] = c
    return hs, gates, cells


def _lstm_backward(dh_seq, gates, cells, wh):
    """Gradient (B, T, 4H) of one LSTM layer's gate pre-activations from
    the gradient of its hidden states, through the recurrence."""
    B, T, H = dh_seq.shape
    # Everything off the recurrence, for all steps at once. The gate
    # gradients are dz = (d * scale) * slope with d = (di, df, dg, do):
    # scale, slope = s, 1 - s for the sigmoid gates i, f, o and
    # 1, 1 - g**2 for the tanh gate g. di, df, dg = dc * (g, c_prev, i).
    tanh_c = np.tanh(cells)
    d_tanh_c = 1.0 - tanh_c**2
    scale = gates.copy()
    scale[..., 2 * H : 3 * H] = 1.0
    slope = 1.0 - gates
    slope[..., 2 * H : 3 * H] = 1.0 - gates[..., 2 * H : 3 * H] ** 2
    partner = np.empty((B, T, 3, H), dtype=gates.dtype)
    partner[:, :, 0] = gates[..., 2 * H : 3 * H]
    partner[:, 0, 1] = 0.0
    partner[:, 1:, 1] = cells[:, :-1]
    partner[:, :, 2] = gates[..., :H]
    dz_all = np.empty((B, T, 4 * H), dtype=dh_seq.dtype)
    d_gate = np.empty((B, 4, H), dtype=np.result_type(dh_seq, gates, wh))
    d_flat = d_gate.reshape(B, 4 * H)
    dh_next = np.zeros((B, H), dtype=dh_seq.dtype)
    dc_next = np.zeros((B, H), dtype=dh_seq.dtype)
    for t in reversed(range(T)):
        dh = dh_seq[:, t] + dh_next
        dc = dh * gates[:, t, 3 * H :] * d_tanh_c[:, t] + dc_next
        np.multiply(dc[:, None, :], partner[:, t], out=d_gate[:, :3])
        np.multiply(dh, tanh_c[:, t], out=d_gate[:, 3])
        d_flat *= scale[:, t]
        dz = dz_all[:, t]
        np.multiply(d_flat, slope[:, t], out=dz)
        dh_next = dz @ wh.T
        dc_next = dc * gates[:, t, H : 2 * H]
    return dz_all


def forward(params, X, mode, rng=None, *, buffers, config: ModelConfig):
    """Run the network; returns (probabilities (B,), state).

    Train mode uses batch statistics (updating the running stats in
    ``buffers`` with momentum) and fresh dropout masks from ``rng``, and
    its state is the ForwardState that ``backward`` needs. Eval mode uses
    running statistics and no dropout, mutates nothing and keeps nothing:
    its state is None.
    """
    if X.ndim != 3:
        raise ModelError(f"expected (B, T, F) input, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ModelError("non-finite values in input batch")
    if mode not in ("train", "eval"):
        raise ModelError(f"unknown mode {mode!r}")
    train = mode == "train"
    B, T, F = X.shape
    if F != config.n_features:
        raise ModelError(f"input has {F} features, model expects {config.n_features}")
    if train and B < 2:
        raise ModelError("train mode needs batch size >= 2 (batch-norm variance)")
    drop = train and config.dropout > 0
    if drop and rng is None:
        raise ModelError("train mode requires an rng for dropout")
    keep = 1.0 - config.dropout

    context, (q, k, v, attn) = attention_forward(params, X)
    layer_in = context + X  # residual

    layers = []
    for layer in range(config.lstm_layers):
        hs, gates, cells = _lstm_forward(
            layer_in, params[f"lstm{layer}_wx"], params[f"lstm{layer}_wh"],
            params[f"lstm{layer}_b"], X.dtype, train)
        out, bn_cache = _bn_forward(
            hs, params[f"bn{layer}_gamma"], params[f"bn{layer}_beta"],
            buffers[f"bn{layer}_mean"], buffers[f"bn{layer}_var"], train)
        mask = None
        if drop:
            out, mask = _dropout(out, rng, keep, X.dtype)
        if train:
            layers.append({"input": layer_in, "gates": gates, "c": cells,
                           "h": hs, "bn": bn_cache, "mask": mask})
        layer_in = out

    u = layer_in[:, -1, :]  # final hidden state of the top LSTM layer
    dense_out, dense_bn = _bn_forward(
        u @ params["dense_w"] + params["dense_b"], params["bn_dense_gamma"],
        params["bn_dense_beta"], buffers["bn_dense_mean"],
        buffers["bn_dense_var"], train)
    dmask = None
    if drop:
        dense_out, dmask = _dropout(dense_out, rng, keep, X.dtype)

    probs = _sigmoid((dense_out @ params["out_w"] + params["out_b"]).ravel())
    if not train:
        return probs, None
    return probs, ForwardState(
        X=X, q=q, k=k, v=v, attn=attn, layers=layers, dense_in=u,
        dense_bn=dense_bn, dense_mask=dmask, dense_out=dense_out, probs=probs)


def loss(probs, labels, pos_weight: float = 1.0) -> float:
    """Mean weighted binary cross-entropy with probability clamping."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ModelError(f"shape mismatch: probs {probs.shape}, labels {labels.shape}")
    p = np.clip(probs, CLAMP_EPS, 1.0 - CLAMP_EPS)
    w = np.where(labels == 1.0, pos_weight, 1.0)
    terms = -w * (labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    return float(terms.mean())


def backward(params, state: ForwardState | None, labels,
             pos_weight: float = 1.0, *, config: ModelConfig):
    """Exact gradient of the mean BCE loss w.r.t. every parameter, as one
    new vector in ``param_layout`` order and ``config``'s dtype.

    Each gradient is assigned to its named view of the vector, which
    rounds a float64 gradient of a float32 model as ``astype`` would.
    Requires the state of a matching train-mode forward call.
    """
    if state is None:
        raise ModelError("backward needs a train-mode forward state")
    if len(state.layers) != config.lstm_layers:
        raise ModelError("mismatched forward state")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != state.probs.shape:
        raise ModelError("labels do not match the forward batch")
    B = labels.shape[0]
    H = config.lstm_units

    p_raw = state.probs
    p = np.clip(p_raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    w = np.where(labels == 1.0, pos_weight, 1.0)
    dp = -w * (labels / p - (1.0 - labels) / (1.0 - p)) / B
    dp = np.where((p_raw > CLAMP_EPS) & (p_raw < 1.0 - CLAMP_EPS), dp, 0.0)
    dlogits = dp * p_raw * (1.0 - p_raw)

    grad = np.empty(n_params(config), dtype=config.np_dtype)
    grads = vector_to_params(grad, param_layout(config))
    dlog = dlogits[:, None]
    grads["out_w"][...] = state.dense_out.T @ dlog
    grads["out_b"][...] = dlog.sum(axis=0)
    d_dense_out = dlog @ params["out_w"].T
    if state.dense_mask is not None:
        d_dense_out = d_dense_out * state.dense_mask
    d_dense_pre, dgamma, dbeta = _bn_backward(
        d_dense_out, params["bn_dense_gamma"], state.dense_bn)
    grads["bn_dense_gamma"][...] = dgamma
    grads["bn_dense_beta"][...] = dbeta
    grads["dense_w"][...] = state.dense_in.T @ d_dense_pre
    grads["dense_b"][...] = d_dense_pre.sum(axis=0)
    du = d_dense_pre @ params["dense_w"].T

    d_layer_out = np.zeros_like(state.layers[-1]["h"])
    d_layer_out[:, -1, :] = du

    for layer in reversed(range(config.lstm_layers)):
        cache = state.layers[layer]
        d_out = d_layer_out
        if cache["mask"] is not None:
            d_out = d_out * cache["mask"]
        dh_seq, dgamma, dbeta = _bn_backward(
            d_out, params[f"bn{layer}_gamma"], cache["bn"])
        grads[f"bn{layer}_gamma"][...] = dgamma
        grads[f"bn{layer}_beta"][...] = dbeta

        wx = params[f"lstm{layer}_wx"]
        x_in = cache["input"]
        dz_all = _lstm_backward(dh_seq, cache["gates"], cache["c"],
                                params[f"lstm{layer}_wh"])
        h_prev = np.concatenate(
            [np.zeros((B, 1, H), dtype=dh_seq.dtype), cache["h"][:, :-1]], axis=1)
        grads[f"lstm{layer}_wx"][...] = x_in.reshape(-1, x_in.shape[-1]).T @ dz_all.reshape(-1, dz_all.shape[-1])
        grads[f"lstm{layer}_wh"][...] = h_prev.reshape(-1, h_prev.shape[-1]).T @ dz_all.reshape(-1, dz_all.shape[-1])
        grads[f"lstm{layer}_b"][...] = dz_all.sum(axis=(0, 1))
        d_layer_out = dz_all @ wx.T  # gradient w.r.t. this layer's input

    # attention (with residual): layer0 input = context + X
    d_attn_out = d_layer_out
    attn, q, k, v = state.attn, state.q, state.k, state.v
    dV = attn.transpose(0, 2, 1) @ d_attn_out
    dA = d_attn_out @ v.transpose(0, 2, 1)
    dS = attn * (dA - (dA * attn).sum(axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(state.X.shape[-1])
    dQ = dS @ k * scale
    dK = dS.transpose(0, 2, 1) @ q * scale
    X_rows = state.X.reshape(-1, state.X.shape[-1])
    for name, d in (("q", dQ), ("k", dK), ("v", dV)):
        grads[f"attn_w{name}"][...] = X_rows.T @ d.reshape(-1, d.shape[-1])
        grads[f"attn_b{name}"][...] = d.sum(axis=(0, 1))

    return grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

ADAM_LR = 1e-3
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int, dtype=np.float64) -> "AdamState":
        return cls(m=np.zeros(n, dtype=dtype), v=np.zeros(n, dtype=dtype))


def apply_update(params_vec, grad_vec, state: AdamState,
                 lr: float = ADAM_LR):
    """One Adam step on the flat parameter vector, which it updates in
    place, as it does ``state.m`` and ``state.v``; returns the vector."""
    if params_vec.shape != grad_vec.shape:
        raise ModelError("parameter/gradient length mismatch")
    if not np.isfinite(grad_vec).all():
        raise ModelError("non-finite gradient; training aborted")
    b1, b2 = ADAM_BETAS
    state.step += 1
    state.m *= b1
    state.m += (1.0 - b1) * grad_vec
    state.v *= b2
    state.v += (1.0 - b2) * grad_vec**2
    m_hat = state.m / (1.0 - b1**state.step)
    v_hat = state.v / (1.0 - b2**state.step)
    params_vec -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params_vec


# ---------------------------------------------------------------------------
# Model wrapper and training loop
# ---------------------------------------------------------------------------


class Model:
    """Parameters and batch-norm buffers of one ModelConfig, held in two
    vectors it owns in ``config``'s dtype (given ones are copied and cast;
    by default they come from ``init_params``/``init_buffers``): ``vector``
    in ``param_layout`` order and ``buffer_vector`` in ``buffer_layout``
    order. ``params`` and ``buffers`` are dicts of named views into them,
    built once."""

    def __init__(self, config: ModelConfig, vector=None, buffer_vector=None):
        self.config = config
        self.layout = param_layout(config)
        buf_layout = buffer_layout(config)
        if vector is None:
            vector = params_to_vector(init_params(config), self.layout)
        if buffer_vector is None:
            buffer_vector = params_to_vector(init_buffers(config), buf_layout)
        self.vector = np.array(vector, dtype=config.np_dtype)
        self.buffer_vector = np.array(buffer_vector, dtype=config.np_dtype)
        self.params = vector_to_params(self.vector, self.layout)
        self.buffers = vector_to_params(self.buffer_vector, buf_layout)

    def __reduce__(self):
        # rebuild through the constructor so the views point into the vectors
        return Model, (self.config, self.vector, self.buffer_vector)

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()

    def buffers_to_vector(self) -> np.ndarray:
        return self.buffer_vector.copy()

    def copy(self) -> "Model":
        return Model(self.config, self.vector, self.buffer_vector)

    def predict_proba(self, X, batch_size: int = 512) -> np.ndarray:
        """Eval-mode probabilities; pure, safe for concurrent readers."""
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], batch_size):
            chunk = X[start : start + batch_size]
            probs, _ = forward(self.params, chunk, "eval",
                               buffers=self.buffers, config=self.config)
            out[start : start + chunk.shape[0]] = probs
        return out


def train_epochs(model: Model, X, y, epochs: int, batch_size: int, seed: int,
                 lr: float = ADAM_LR, pos_weight: float = 1.0
                 ) -> tuple[AdamState, float]:
    """Train in place for full seeded-shuffle passes over (X, y).

    Remainder batches of size 1 are dropped (batch-norm needs variance).
    Returns the optimizer state and the training loss: the mean train-mode
    loss, with dropout on, over the last epoch's batches, weighted by
    batch size (``loss`` of the probabilities each training step's
    ``forward`` returns). It is nan when no batch was trained.
    """
    if X.shape[0] == 0:
        raise ModelError("empty sample list")
    if epochs < 0:
        raise ModelError("epochs must be >= 0")
    rng = np.random.default_rng([seed, 0x7E41])
    n = X.shape[0]
    adam = AdamState.zeros(model.vector.size, dtype=model.config.np_dtype)
    loss_sum, counted = 0.0, 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.shape[0] < 2:
                continue
            probs, fstate = forward(model.params, X[idx], "train", rng=rng,
                                    buffers=model.buffers, config=model.config)
            if epoch == epochs - 1:
                loss_sum += loss(probs, y[idx], pos_weight) * idx.shape[0]
                counted += idx.shape[0]
            grad = backward(model.params, fstate, y[idx],
                            pos_weight=pos_weight, config=model.config)
            apply_update(model.vector, grad, adam, lr=lr)
    return adam, (loss_sum / counted if counted else math.nan)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Little-endian binary layout:
#   magic   8 bytes  b"FHZCKPT1"
#   hlen    uint32   header length in bytes
#   header  JSON     {"config": {...}, "layout_version": 1, "sections": [...]}
#   then for each section, float64 little-endian raw array bytes in the
#   order listed in header["sections"]: params, buffers, adam_m, adam_v,
#   norm_mean, norm_std. header carries each section's element count and
#   the adam step counter.

CHECKPOINT_MAGIC = b"FHZCKPT1"
LAYOUT_VERSION = 1


def save_checkpoint(path, model: Model, adam: AdamState | None = None,
                    norm_mean=None, norm_std=None) -> None:
    sections = {
        "params": model.vector.astype("<f8"),
        "buffers": model.buffer_vector.astype("<f8"),
    }
    if adam is not None:
        sections["adam_m"] = adam.m.astype("<f8")
        sections["adam_v"] = adam.v.astype("<f8")
    if norm_mean is not None:
        sections["norm_mean"] = np.asarray(norm_mean, dtype="<f8")
        sections["norm_std"] = np.asarray(norm_std, dtype="<f8")
    header = {
        "config": asdict(model.config),
        "layout_version": LAYOUT_VERSION,
        "adam_step": adam.step if adam is not None else None,
        "sections": [[name, int(arr.size)] for name, arr in sections.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in sections.items():
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Returns (model, adam_state_or_None, norm_mean_or_None, norm_std_or_None).

    A file that is no whole checkpoint of this layout fails with a
    ModelError naming the path, and the config key or section at fault.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"{path}: not a checkpoint file")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            version = header["layout_version"]
            config_fields, sections = header["config"], header["sections"]
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ModelError(
                f"{path}: unreadable checkpoint header: {exc!r}") from None
        if version != LAYOUT_VERSION:
            raise ModelError(f"{path}: unsupported layout version {version}")
        try:  # a TypeError names an unknown or missing key
            config = ModelConfig(**config_fields)
        except (TypeError, ModelError) as exc:
            raise ModelError(f"{path}: bad model config: {exc}") from None
        dtype = config.np_dtype
        arrays = {}
        for name, size in sections:
            data = fh.read(8 * size)
            if len(data) != 8 * size:
                raise ModelError(f"{path}: section {name!r} holds "
                                 f"{len(data) // 8} of its {size} values")
            arrays[name] = np.frombuffer(data, dtype="<f8").astype(dtype)
    try:
        model = Model(config, arrays["params"], arrays["buffers"])
    except KeyError as exc:
        raise ModelError(f"{path}: no {exc.args[0]!r} section") from None
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    adam = None
    if "adam_m" in arrays:
        adam = AdamState(m=arrays["adam_m"], v=arrays["adam_v"],
                         step=header["adam_step"])
    return model, adam, arrays.get("norm_mean"), arrays.get("norm_std")
