import dataclasses
import json
import math
import pickle
import struct

import numpy as np
import pytest

from fedhorizon import nn

TINY = nn.ModelConfig(n_features=4, lstm_units=3, lstm_layers=3,
                      dense_units=3, seed=11)


def _batch(rng, b=8, t=6, f=4):
    return rng.normal(size=(b, t, f)), rng.integers(0, 2, b).astype(float)


class TestInit:
    def test_deterministic(self):
        a = nn.params_to_vector(nn.init_params(TINY, seed=5), nn.param_layout(TINY))
        b = nn.params_to_vector(nn.init_params(TINY, seed=5), nn.param_layout(TINY))
        assert np.array_equal(a, b)

    def test_forget_gate_bias_is_one(self):
        params = nn.init_params(TINY)
        h = TINY.lstm_units
        for layer in range(TINY.lstm_layers):
            b = params[f"lstm{layer}_b"]
            assert np.all(b[h:2 * h] == 1.0)
            assert np.all(b[:h] == 0.0)

    def test_vector_length_closed_form(self):
        # hand count for F=27, H=16, L=3, D=8:
        # attention: 3*(27*27 + 27) = 2268
        # lstm0: 27*64 + 16*64 + 64 = 2816; lstm1/2: 16*64 + 16*64 + 64 = 2112
        # bn per lstm layer: 2*16 = 32 (x3)
        # dense: 16*8 + 8 = 136; bn_dense: 16; out: 8 + 1 = 9
        expected = 2268 + 2816 + 2 * 2112 + 3 * 32 + 136 + 16 + 9
        cfg = nn.ModelConfig(n_features=27)
        assert nn.n_params(cfg) == expected

    def test_bad_config_rejected(self):
        with pytest.raises(nn.ModelError):
            nn.ModelConfig(n_features=0)
        with pytest.raises(nn.ModelError):
            nn.ModelConfig(n_features=4, dropout=1.0)

    @pytest.mark.parametrize("dtype", ["float16x", "float16", "int64", ""])
    def test_bad_dtype_rejected(self, dtype):
        with pytest.raises(nn.ModelError, match="dtype must be"):
            nn.ModelConfig(n_features=4, dtype=dtype)


class TestVectorRoundTrip:
    def test_bit_exact(self):
        model = nn.Model(TINY)
        vec = model.to_vector()
        restored = nn.vector_to_params(vec, model.layout)
        for name in model.params:
            assert np.array_equal(model.params[name], restored[name])
        assert np.array_equal(nn.params_to_vector(restored, model.layout), vec)

    def test_wrong_length_rejected(self):
        model = nn.Model(TINY)
        with pytest.raises(nn.ModelError):
            nn.vector_to_params(np.zeros(3), model.layout)


class TestForward:
    def test_zero_params_give_half(self):
        model = nn.Model(TINY, np.zeros(nn.n_params(TINY)))
        X, _ = _batch(np.random.default_rng(0))
        probs = model.predict_proba(X)
        assert np.allclose(probs, 0.5)

    def test_eval_mode_is_pure_and_deterministic(self):
        model = nn.Model(TINY)
        X, _ = _batch(np.random.default_rng(1))
        before = model.buffers_to_vector()
        p1 = model.predict_proba(X)
        p2 = model.predict_proba(X)
        assert np.array_equal(p1, p2)
        assert np.array_equal(model.buffers_to_vector(), before)
        assert np.all((p1 > 0) & (p1 < 1))

    def test_single_timestep_attention_is_identity_weight(self):
        model = nn.Model(TINY)
        X = np.random.default_rng(2).normal(size=(3, 1, 4))
        context, (_, _, v, attn) = nn.attention_forward(model.params, X)
        assert np.allclose(attn, 1.0)
        assert np.allclose(context, v)

    def test_attention_rows_sum_to_one(self):
        model = nn.Model(TINY)
        X, _ = _batch(np.random.default_rng(3))
        _, state = nn.forward(model.params, X, "train",
                              rng=np.random.default_rng(0),
                              buffers=model.buffers, config=TINY)
        assert np.allclose(state.attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_eval_mode_keeps_no_state(self):
        model = nn.Model(TINY)
        X, _ = _batch(np.random.default_rng(3))
        probs, state = nn.forward(model.params, X, "eval",
                                  buffers=model.buffers, config=TINY)
        assert state is None
        assert np.array_equal(probs, model.predict_proba(X))

    def test_nonfinite_input_rejected(self):
        model = nn.Model(TINY)
        X, _ = _batch(np.random.default_rng(4))
        X[0, 0, 0] = np.nan
        with pytest.raises(nn.ModelError):
            nn.forward(model.params, X, "eval", buffers=model.buffers, config=TINY)

    def test_batch_of_one_in_train_mode_rejected(self):
        model = nn.Model(TINY)
        X = np.zeros((1, 6, 4))
        with pytest.raises(nn.ModelError):
            nn.forward(model.params, X, "train", rng=np.random.default_rng(0),
                       buffers=model.buffers, config=TINY)

    def test_train_mode_updates_running_stats(self):
        model = nn.Model(TINY)
        X, _ = _batch(np.random.default_rng(5))
        before = model.buffers_to_vector()
        nn.forward(model.params, X, "train", rng=np.random.default_rng(0),
                   buffers=model.buffers, config=TINY)
        assert not np.array_equal(model.buffers_to_vector(), before)


class TestLoss:
    def test_half_prob_positive_is_ln2(self):
        assert nn.loss(np.array([0.5]), np.array([1.0])) == pytest.approx(
            math.log(2), rel=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert nn.loss(np.array([1.0 - 1e-7]), np.array([1.0])) < 1e-6

    def test_batch_mean_of_identical_terms(self):
        got = nn.loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert got == pytest.approx(math.log(2), rel=1e-12)

    def test_pos_weight_scales_positive_terms(self):
        base = nn.loss(np.array([0.5]), np.array([1.0]), pos_weight=1.0)
        assert nn.loss(np.array([0.5]), np.array([1.0]), pos_weight=3.0) == \
            pytest.approx(3 * base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(nn.ModelError):
            nn.loss(np.array([0.5, 0.5]), np.array([1.0]))


class TestBackward:
    def test_zero_loss_zero_gradient(self):
        model = nn.Model(TINY)
        X, _ = _batch(np.random.default_rng(6))
        probs, state = nn.forward(model.params, X, "train",
                                  rng=np.random.default_rng(0),
                                  buffers=model.buffers, config=TINY)
        # labels equal to clamped predictions: thresholded exact probs
        gvec = nn.backward(model.params, state, probs, config=TINY)
        # gradient of -[p ln p + (1-p) ln(1-p)] wrt logits is 0 at y = p
        assert np.linalg.norm(gvec) < 1e-6

    def test_duplicating_the_batch_preserves_mean_gradient(self):
        cfg = nn.ModelConfig(n_features=4, lstm_units=3, dense_units=3,
                             dropout=0.0, seed=11)
        model = nn.Model(cfg)
        X, y = _batch(np.random.default_rng(7))
        _, s1 = nn.forward(model.params, X, "train",
                           rng=np.random.default_rng(0),
                           buffers={k: v.copy() for k, v in model.buffers.items()},
                           config=cfg)
        g1 = nn.backward(model.params, s1, y, config=cfg)
        X2, y2 = np.concatenate([X, X]), np.concatenate([y, y])
        _, s2 = nn.forward(model.params, X2, "train",
                           rng=np.random.default_rng(0),
                           buffers={k: v.copy() for k, v in model.buffers.items()},
                           config=cfg)
        g2 = nn.backward(model.params, s2, y2, config=cfg)
        assert np.allclose(g1, g2, atol=1e-10)

    def test_float32_gradient_is_float64_gradient_rounded(self):
        # float32 parameters on float64 windows compute in float64; the
        # gradient vector holds that gradient rounded as astype rounds it
        cfg32 = dataclasses.replace(TINY, dtype="float32")
        model = nn.Model(cfg32)
        params64 = nn.vector_to_params(model.vector.astype(np.float64),
                                       model.layout)
        X, y = _batch(np.random.default_rng(10))
        grads = []
        for params, cfg in ((model.params, cfg32), (params64, TINY)):
            _, state = nn.forward(params, X, "train",
                                  rng=np.random.default_rng(0),
                                  buffers=nn.init_buffers(cfg), config=cfg)
            grads.append(nn.backward(params, state, y, pos_weight=1.7,
                                     config=cfg))
        assert grads[0].dtype == np.float32 and grads[1].dtype == np.float64
        assert grads[0].tobytes() == grads[1].astype(np.float32).tobytes()

    @pytest.mark.parametrize("shape", [(8, 3), (8, 6, 3)])
    def test_batch_norm_gradient_of_float32_batch_is_float64(self, shape):
        # the batch count stays a NumPy integer, which NumPy 2 promotes
        # with float32 to float64; the bits of float32 training follow it
        x = np.random.default_rng(12).normal(size=shape).astype(np.float32)
        ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
        _, cache = nn._bn_forward(x, ones, zeros, zeros.copy(), ones.copy(),
                                  train=True)
        dx, _, _ = nn._bn_backward(x, ones, cache)
        assert dx.dtype == np.float64

    def test_stale_state_rejected(self):
        model = nn.Model(TINY)
        X, y = _batch(np.random.default_rng(8))
        _, state = nn.forward(model.params, X, "train",
                              rng=np.random.default_rng(0),
                              buffers=model.buffers, config=TINY)
        with pytest.raises(nn.ModelError):
            nn.backward(model.params, state, y[:-1], config=TINY)

    def test_eval_state_rejected(self):
        model = nn.Model(TINY)
        X, y = _batch(np.random.default_rng(9))
        _, state = nn.forward(model.params, X, "eval", buffers=model.buffers,
                              config=TINY)
        with pytest.raises(nn.ModelError, match="train-mode"):
            nn.backward(model.params, state, y, config=TINY)


def _reference_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _reference_lstm_forward(layer_in, wx, wh, b):
    """Plain per-gate loop: hidden states, gates (i, f, g, o) and cells."""
    B, T, _ = layer_in.shape
    H = wh.shape[0]
    zx = layer_in @ wx + b
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = {name: np.empty((B, T, H)) for name in "ifgoch"}
    for t in range(T):
        z = zx[:, t, :] + h @ wh
        s = _reference_sigmoid(z)
        i_g, f_g, o_g = s[:, :H], s[:, H:2 * H], s[:, 3 * H:]
        g_g = np.tanh(z[:, 2 * H:3 * H])
        c = f_g * c + i_g * g_g
        h = o_g * np.tanh(c)
        for name, value in zip("ifgoch", (i_g, f_g, g_g, o_g, c, h)):
            out[name][:, t] = value
    return out


def _reference_lstm_backward(dh_seq, ref, wh):
    """Plain per-gate loop for the gate pre-activation gradients."""
    B, T, H = dh_seq.shape
    i_g, f_g, g_g, o_g, cells = (ref[name] for name in "ifgoc")
    dz_all = np.empty((B, T, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in reversed(range(T)):
        dh = dh_seq[:, t] + dh_next
        tanh_c = np.tanh(cells[:, t])
        do = dh * tanh_c
        dc = dh * o_g[:, t] * (1.0 - tanh_c**2) + dc_next
        c_prev = cells[:, t - 1] if t > 0 else np.zeros_like(dc)
        dz = dz_all[:, t]
        dz[:, :H] = dc * g_g[:, t] * i_g[:, t] * (1.0 - i_g[:, t])
        dz[:, H:2 * H] = dc * c_prev * f_g[:, t] * (1.0 - f_g[:, t])
        dz[:, 2 * H:3 * H] = dc * i_g[:, t] * (1.0 - g_g[:, t] ** 2)
        dz[:, 3 * H:] = do * o_g[:, t] * (1.0 - o_g[:, t])
        dh_next = dz @ wh.T
        dc_next = dc * f_g[:, t]
    return dz_all


class TestLstmLayer:
    """The vectorized layer does the per-gate loop's arithmetic in the same
    order, so both agree bit for bit."""

    def _layer(self, seed):
        rng = np.random.default_rng(seed)
        B, T, F, H = 9, 6, 5, 4
        return (rng.normal(size=(B, T, F)), rng.normal(size=(F, 4 * H)),
                rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H),
                rng.normal(size=(B, T, H)))

    def test_sigmoid_matches_two_sided_form(self):
        x = np.concatenate([np.random.default_rng(13).normal(size=999) * 10,
                            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf]])
        assert np.array_equal(nn._sigmoid(x), _reference_sigmoid(x))

    def test_forward_matches_per_gate_loop(self):
        x, wx, wh, b, _ = self._layer(14)
        ref = _reference_lstm_forward(x, wx, wh, b)
        hs, gates, cells = nn._lstm_forward(x, wx, wh, b, x.dtype, train=True)
        assert np.array_equal(hs, ref["h"])
        assert np.array_equal(cells, ref["c"])
        assert np.array_equal(gates, np.concatenate(
            [ref[name] for name in "ifgo"], axis=-1))
        hs_eval, gates_eval, cells_eval = nn._lstm_forward(
            x, wx, wh, b, x.dtype, train=False)
        assert np.array_equal(hs_eval, ref["h"])
        assert gates_eval is None and cells_eval is None

    def test_backward_matches_per_gate_loop(self):
        x, wx, wh, b, dh_seq = self._layer(15)
        ref = _reference_lstm_forward(x, wx, wh, b)
        _, gates, cells = nn._lstm_forward(x, wx, wh, b, x.dtype, train=True)
        assert np.array_equal(nn._lstm_backward(dh_seq, gates, cells, wh),
                              _reference_lstm_backward(dh_seq, ref, wh))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        state = nn.AdamState.zeros(5)
        params = np.arange(5.0)
        out = nn.apply_update(params, np.zeros(5), state)
        assert np.array_equal(out, np.arange(5.0))

    def test_first_step_is_lr_times_sign(self):
        state = nn.AdamState.zeros(3)
        g = np.array([0.5, -2.0, 1e-3])
        out = nn.apply_update(np.zeros(3), g, state, lr=1e-3)
        assert np.allclose(out, -1e-3 * np.sign(g), rtol=1e-4)

    def test_deterministic(self):
        g = np.array([0.3, -0.7])
        a = nn.apply_update(np.zeros(2), g, nn.AdamState.zeros(2))
        b = nn.apply_update(np.zeros(2), g, nn.AdamState.zeros(2))
        assert np.array_equal(a, b)

    def test_nan_gradient_aborts(self):
        with pytest.raises(nn.ModelError):
            nn.apply_update(np.zeros(2), np.array([np.nan, 0.0]),
                            nn.AdamState.zeros(2))


class TestTrainEpochs:
    def _separable(self, n=100, seed=0):
        # class is a threshold on feature 0, constant over the window
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, n).astype(float)
        X = rng.normal(scale=0.3, size=(n, 6, 4))
        X[:, :, 0] += np.where(y == 1, 2.0, -2.0)[:, None]
        return X, y

    def test_zero_epochs_is_identity(self):
        """No epoch, or no batch of at least 2 windows: nothing trains and
        the loss is nan."""
        for n, epochs in ((100, 0), (1, 2)):
            model = nn.Model(TINY)
            before = model.to_vector()
            X, y = self._separable(n=n)
            adam, loss = nn.train_epochs(model, X, y, epochs=epochs,
                                         batch_size=16, seed=1)
            assert np.array_equal(model.to_vector(), before)
            assert adam.step == 0
            assert math.isnan(loss)

    def test_same_seed_same_result(self):
        X, y = self._separable()
        vecs = []
        for _ in range(2):
            model = nn.Model(TINY)
            nn.train_epochs(model, X, y, epochs=2, batch_size=16, seed=9)
            vecs.append(model.to_vector())
        assert np.array_equal(vecs[0], vecs[1])

    def test_loss_decreases_over_three_epochs(self):
        X, y = self._separable(seed=4)
        model = nn.Model(TINY)
        before = nn.loss(model.predict_proba(X), y)
        nn.train_epochs(model, X, y, epochs=3, batch_size=16, seed=2, lr=5e-3)
        after = nn.loss(model.predict_proba(X), y)
        assert after <= before

    def test_separable_fixture_reaches_f1_095(self):
        from fedhorizon.metrics import confusion, f1
        X, y = self._separable(seed=3)
        model = nn.Model(TINY)
        nn.train_epochs(model, X, y, epochs=20, batch_size=16, seed=5, lr=5e-3)
        probs = model.predict_proba(X)
        assert f1(confusion(probs, y, 0.5)) >= 0.95

    def test_empty_samples_rejected(self):
        model = nn.Model(TINY)
        with pytest.raises(nn.ModelError):
            nn.train_epochs(model, np.zeros((0, 6, 4)), np.zeros(0),
                            epochs=1, batch_size=4, seed=0)


def _reference_train_epochs(config, X, y, epochs, batch_size, seed,
                            lr=nn.ADAM_LR, pos_weight=1.0):
    """Training on a dict of separate arrays: a fresh unpack of the
    parameter vector on every batch and an out-of-place Adam step.
    Returns (parameter vector, buffers, Adam m, Adam v, Adam step, loss),
    where loss is the mean of the last epoch's batch losses weighted by
    batch size."""
    layout = nn.param_layout(config)
    vec = nn.params_to_vector(nn.init_params(config), layout)
    buffers = nn.init_buffers(config)
    m = np.zeros(vec.size, dtype=config.np_dtype)
    v = np.zeros(vec.size, dtype=config.np_dtype)
    step = 0
    b1, b2 = nn.ADAM_BETAS
    rng = np.random.default_rng([seed, 0x7E41])
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        batch_losses, batch_sizes = [], []
        for start in range(0, X.shape[0], batch_size):
            idx = order[start : start + batch_size]
            if idx.shape[0] < 2:
                continue
            params = {name: arr.copy() for name, arr
                      in nn.vector_to_params(vec, layout).items()}
            probs, state = nn.forward(params, X[idx], "train", rng=rng,
                                      buffers=buffers, config=config)
            batch_losses.append(nn.loss(probs, y[idx], pos_weight))
            batch_sizes.append(idx.shape[0])
            g = nn.backward(params, state, y[idx], pos_weight=pos_weight,
                            config=config)
            step += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g**2
            m_hat = m / (1.0 - b1**step)
            v_hat = v / (1.0 - b2**step)
            vec = vec - lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)
    loss = 0.0
    for batch_loss, size in zip(batch_losses, batch_sizes):
        loss += batch_loss * size
    loss /= sum(batch_sizes)
    return (vec, nn.params_to_vector(buffers, nn.buffer_layout(config)), m, v,
            step, loss)


class TestFlatStorage:
    """The model trains its own two vectors through views; the result is
    bit-identical to unpacking a copy of every array on every batch."""

    @pytest.mark.parametrize("dtype,x_dtype", [
        ("float64", np.float64), ("float32", np.float32),
        ("float32", np.float64)])
    def test_train_epochs_matches_unpack_per_batch(self, dtype, x_dtype):
        config = dataclasses.replace(TINY, dtype=dtype)
        X, y = _batch(np.random.default_rng(16), b=75)
        X = X.astype(x_dtype)
        model = nn.Model(config)
        adam, loss = nn.train_epochs(model, X, y, epochs=2, batch_size=16,
                                     seed=3, pos_weight=1.7)
        vec, buffers, m, v, step, ref_loss = _reference_train_epochs(
            config, X, y, epochs=2, batch_size=16, seed=3, pos_weight=1.7)
        assert model.vector.dtype == np.dtype(dtype)
        assert np.array_equal(model.to_vector(), vec)
        assert np.array_equal(model.buffers_to_vector(), buffers)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
        assert adam.step == step == 10
        assert loss == ref_loss
        for name, view in model.params.items():
            assert np.shares_memory(view, model.vector), name

    def test_pickled_model_keeps_views_into_its_vectors(self):
        model = nn.Model(TINY)
        X, y = _batch(np.random.default_rng(17), b=40)
        nn.train_epochs(model, X, y, epochs=1, batch_size=16, seed=1)
        restored = pickle.loads(pickle.dumps(model))
        assert np.array_equal(restored.to_vector(), model.to_vector())
        assert np.array_equal(restored.buffers_to_vector(),
                              model.buffers_to_vector())
        for name, view in restored.params.items():
            assert np.shares_memory(view, restored.vector), name
        for name, view in restored.buffers.items():
            assert np.shares_memory(view, restored.buffer_vector), name
        before = restored.to_vector()
        nn.train_epochs(restored, X, y, epochs=1, batch_size=16, seed=2)
        assert not np.array_equal(restored.to_vector(), before)

    def test_to_vector_is_a_copy(self):
        model = nn.Model(TINY)
        params, buffers = model.to_vector(), model.buffers_to_vector()
        model.to_vector()[:] = 7.0
        model.buffers_to_vector()[:] = 7.0
        assert np.array_equal(model.to_vector(), params)
        assert np.array_equal(model.buffers_to_vector(), buffers)

    def test_constructor_and_copy_own_their_storage(self):
        values = np.arange(nn.n_params(TINY), dtype=float)
        vec = values.copy()
        model = nn.Model(TINY, vec)
        twin = model.copy()
        vec[:] = 0.0
        model.params["out_b"][:] = -1.0  # the last value of the layout
        assert np.array_equal(model.vector[:-1], values[:-1])
        assert model.vector[-1] == -1.0
        assert np.array_equal(twin.to_vector(), values)

    def test_given_vectors_take_the_config_dtype(self):
        config = dataclasses.replace(TINY, dtype="float32")
        model = nn.Model(
            config,
            nn.params_to_vector(nn.init_params(TINY), nn.param_layout(TINY)),
            nn.params_to_vector(nn.init_buffers(TINY), nn.buffer_layout(TINY)))
        assert model.vector.dtype == np.float32
        assert model.buffer_vector.dtype == np.float32
        X, y = _batch(np.random.default_rng(18), b=40)
        adam, _ = nn.train_epochs(model, X, y, epochs=1, batch_size=16,
                                  seed=4)
        assert model.vector.dtype == adam.m.dtype == np.float32
        for name, view in model.params.items():
            assert view.dtype == np.float32, name


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = nn.Model(TINY)
        adam = nn.AdamState.zeros(nn.n_params(TINY))
        adam.m += 0.5
        adam.step = 7
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, model, adam, norm_mean=np.arange(4.0),
                           norm_std=np.ones(4))
        loaded, adam2, mean, std = nn.load_checkpoint(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.to_vector(), model.to_vector())
        assert np.array_equal(loaded.buffers_to_vector(),
                              model.buffers_to_vector())
        assert adam2.step == 7
        assert np.array_equal(adam2.m, adam.m)
        assert np.array_equal(mean, np.arange(4.0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(nn.ModelError):
            nn.load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        """A checkpoint's path, header (as a dict) and section bytes."""
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.Model(TINY))
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        return path, json.loads(blob[12:12 + hlen]), blob[12 + hlen:]

    @staticmethod
    def write(path, header, body=b""):
        blob = json.dumps(header).encode()
        path.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<I", len(blob))
                         + blob + body)

    def test_unknown_config_key_named(self, tmp_path):
        path, header, body = self.saved(tmp_path)
        header["config"]["attention_heads"] = 2
        self.write(path, header, body)
        with pytest.raises(nn.ModelError) as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)
        assert "'attention_heads'" in str(info.value)

    def test_missing_config_key_named(self, tmp_path):
        path, header, body = self.saved(tmp_path)
        del header["config"]["n_features"]
        self.write(path, header, body)
        with pytest.raises(nn.ModelError, match="n_features") as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_truncated_header_named(self, tmp_path):
        path, _, _ = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(nn.ModelError, match="unreadable checkpoint "
                                                 "header") as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_missing_section_named(self, tmp_path):
        path, header, body = self.saved(tmp_path)
        header["sections"] = header["sections"][:1]
        self.write(path, header, body)
        with pytest.raises(nn.ModelError, match="no 'buffers' section") \
                as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_short_section_named(self, tmp_path):
        path, header, body = self.saved(tmp_path)
        self.write(path, header, body[:-8])
        with pytest.raises(nn.ModelError) as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)
        assert "section 'buffers'" in str(info.value)
