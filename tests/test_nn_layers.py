"""Layer engine tests: hand-computed forward oracles, naive central-difference
gradient checks for every layer kind, purity, and checkpoint round-trips.

The FD helper here is its own textbook loop (shift one scalar, run two
forwards) over a single layer, so these checks do not lean on nn.gradcheck,
which tests/test_gradcheck.py covers on whole networks.
"""

import base64
import inspect
import json
import math
import tracemalloc
import typing

import numpy as np
import pytest

from pumpwatch.errors import ShapeError, UsageError
from pumpwatch.nn import layers
from pumpwatch.nn import (Conv1D, Dense, Flatten, LSTM, MaxPool1D, Network,
                          RepeatLast, Reshape, Tanh, Upsample1D, mse_loss)
from pumpwatch.nn.network import by_chunks


def _num_grad(loss_fn, arr, eps=1e-6):
    """Central differences w.r.t. every entry of arr (mutated in place)."""
    g = np.zeros_like(arr)
    flat, gf = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        lp = loss_fn()
        flat[i] = old - eps
        lm = loss_fn()
        flat[i] = old
        gf[i] = (lp - lm) / (2.0 * eps)
    return g


def _same_bits(a, b):
    """Bit-for-bit equality: unlike np.array_equal, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _signed_ties(rng, shape):
    """Small integers, so pools tie, with zeros of both signs."""
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    zeros = x == 0.0
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return x


def _check_layer_grads(layer, x, seed=0, atol=1e-7):
    """Compare backward() against naive FD for params and input."""
    rng = np.random.default_rng(seed)
    y0, _ = layer.forward(x.copy())
    target = rng.normal(size=y0.shape)

    def loss():
        y, _ = layer.forward(x)
        return mse_loss(y, target)[0]

    y, cache = layer.forward(x)
    _, lgrad = mse_loss(y, target)
    dx, pgrads = layer.backward(lgrad, cache)

    for name, arr in layer.params().items():
        num = _num_grad(loss, arr)
        assert np.allclose(pgrads[name], num, atol=atol), name
    num_dx = _num_grad(loss, x)
    assert np.allclose(dx, num_dx, atol=atol)


# ---------------------------------------------------------------- Dense

def test_dense_identity():
    layer = Dense(3, 3)
    layer.W[:] = np.eye(3)
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = layer.forward(x)
    assert np.array_equal(y, x)


def test_dense_hand_case():
    layer = Dense(3, 2)
    layer.W[:] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    layer.b[:] = [1.0, -1.0]
    y, _ = layer.forward(np.array([[1.0, 0.0, 2.0]]))
    assert np.array_equal(y, [[1 + 10 + 1, 2 + 12 - 1]])  # [12, 13]


def test_dense_applies_per_timestep():
    layer = Dense(2, 2)
    layer.W[:] = [[2.0, 0.0], [0.0, 3.0]]
    x = np.arange(12, dtype=np.float64).reshape(1, 6, 2)
    y, _ = layer.forward(x)
    assert y.shape == (1, 6, 2)
    assert np.array_equal(y[0, :, 0], 2.0 * x[0, :, 0])
    assert np.array_equal(y[0, :, 1], 3.0 * x[0, :, 1])


def test_dense_shape_error():
    with pytest.raises(ShapeError):
        Dense(3, 2).forward(np.zeros((1, 4)))


def test_single_linear_unit_gradient_is_36():
    # y = w*x, L = (y - t)^2 summed over the single element:
    # dL/dw = 2*(w*x - t)*x = 36 at w=2, x=3, t=0
    layer = Dense(1, 1)
    layer.W[:] = 2.0
    x = np.array([[3.0]])
    y, cache = layer.forward(x)
    assert y[0, 0] == 6.0
    # loss grad of (y-t)^2 with one element is 2*(y-t)
    _, pgrads = layer.backward(2.0 * (y - 0.0), cache)
    assert pgrads["W"][0, 0] == 36.0


def test_dense_fd_gradients():
    rng = np.random.default_rng(1)
    layer = Dense(3, 2)
    layer.init_params(seed=5)
    _check_layer_grads(layer, rng.normal(size=(4, 3)))
    _check_layer_grads(layer, rng.normal(size=(2, 5, 3)), seed=2)


# ---------------------------------------------------------------- Tanh

def test_tanh_saturation_and_zero():
    y, _ = Tanh().forward(np.array([[50.0, 0.0, -50.0]]))
    assert abs(y[0, 0] - 1.0) < 1e-9
    assert y[0, 1] == 0.0
    assert abs(y[0, 2] + 1.0) < 1e-9


def test_tanh_fd_gradient():
    rng = np.random.default_rng(3)
    _check_layer_grads(Tanh(), rng.normal(size=(3, 4)))


# ---------------------------------------------------------------- Conv1D

def test_conv_hand_case_right_padding():
    layer = Conv1D(1, 1, kernel_size=2)
    layer.W[0, 0, 0] = 10.0  # offset 0
    layer.W[1, 0, 0] = 1.0   # offset +1
    layer.b[0] = 0.5
    x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
    y, _ = layer.forward(x)
    # y_t = 10*x_t + 1*x_{t+1} + 0.5, with x_3 = 0 from the zero pad
    assert np.allclose(y[0, :, 0], [12.5, 23.5, 30.5])


def test_conv_multichannel_shapes():
    layer = Conv1D(3, 5)
    layer.init_params(seed=0)
    y, _ = layer.forward(np.zeros((2, 8, 3)))
    assert y.shape == (2, 8, 5)


def test_conv_shape_error():
    with pytest.raises(ShapeError):
        Conv1D(2, 4).forward(np.zeros((1, 8, 3)))


def test_conv_fd_gradients():
    rng = np.random.default_rng(4)
    layer = Conv1D(2, 3)
    layer.init_params(seed=7)
    _check_layer_grads(layer, rng.normal(size=(3, 6, 2)))


def test_conv_kernel_3():
    layer = Conv1D(1, 1, kernel_size=3)
    layer.W[:, 0, 0] = [1.0, 1.0, 1.0]
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    y, _ = layer.forward(x)
    assert np.allclose(y[0, :, 0], [6.0, 9.0, 7.0, 4.0])
    rng = np.random.default_rng(8)
    layer.init_params(seed=1)
    _check_layer_grads(layer, rng.normal(size=(2, 5, 1)))


def _conv_forward_ref(layer, x):
    """Concatenate-built columns, as the layer computed them before."""
    batch, time, _ = x.shape
    k = layer.kernel_size
    xp = np.concatenate([x, np.zeros((batch, k - 1, layer.in_channels))], axis=1)
    xcol = np.concatenate([xp[:, o:o + time, :] for o in range(k)], axis=2)
    y = xcol @ layer.W.reshape(-1, layer.filters) + layer.b
    return y, xcol


def _conv_backward_ref(layer, grad, xcol):
    """Fold through a zero-padded buffer, as the layer did before."""
    batch, time, _ = xcol.shape
    k, ch = layer.kernel_size, layer.in_channels
    g2 = grad.reshape(-1, layer.filters)
    gw = (xcol.reshape(-1, k * ch).T @ g2).reshape(layer.W.shape)
    dxcol = grad @ layer.W.reshape(-1, layer.filters).T
    dxp = np.zeros((batch, time + k - 1, ch))
    for o in range(k):
        dxp[:, o:o + time, :] += dxcol[:, :, o * ch:(o + 1) * ch]
    return dxp[:, :time, :], {"W": gw, "b": g2.sum(axis=0)}


@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
@pytest.mark.parametrize("time", [1, 3, 7])
def test_conv_matches_reference_bit_for_bit(kernel, time):
    rng = np.random.default_rng(30 + 3 * kernel + time)
    layer = Conv1D(3, 4, kernel_size=kernel)
    layer.init_params(seed=kernel)
    x = _signed_ties(rng, (5, time, 3))
    y, cache = layer.forward(x)
    want_y, want_cache = _conv_forward_ref(layer, x)
    assert _same_bits(y, want_y) and _same_bits(cache, want_cache)
    grad = rng.normal(size=y.shape)
    dx, pgrads = layer.backward(grad, cache)
    want_dx, want_pgrads = _conv_backward_ref(layer, grad, want_cache)
    assert _same_bits(dx, want_dx)
    assert pgrads.keys() == want_pgrads.keys()
    assert all(_same_bits(pgrads[n], want_pgrads[n]) for n in pgrads)


def test_conv_kernel_longer_than_input():
    layer = Conv1D(1, 2, kernel_size=3)
    layer.W[0, 0] = [2.0, -1.0]
    layer.W[1:] = 7.0  # offsets past the end see only the zero pad
    y, cache = layer.forward(np.array([[[3.0]]]))
    assert np.array_equal(y, [[[6.0, -3.0]]])
    dx, _ = layer.backward(np.array([[[1.0, 1.0]]]), cache)
    assert np.array_equal(dx, [[[1.0]]])


# ---------------------------------------------------------------- pooling

def _maxpool_forward_ref(x, p):
    batch, time, ch = x.shape
    xr = x.reshape(batch, time // p, p, ch)
    return xr.max(axis=2), xr.argmax(axis=2)


def _maxpool_backward_ref(grad, arg, shape, p):
    batch, time, ch = shape
    dxr = np.zeros((batch, time // p, p, ch))
    np.put_along_axis(dxr, arg[:, :, None, :], grad[:, :, None, :], axis=2)
    return dxr.reshape(shape)


@pytest.mark.parametrize("p", [2, 3])
def test_maxpool_matches_reference_bit_for_bit(p):
    rng = np.random.default_rng(40 + p)
    x = _signed_ties(rng, (4, 6 * p, 5))
    layer = MaxPool1D(p)
    y, cache = layer.forward(x)
    want_y, want_arg = _maxpool_forward_ref(x, p)
    assert _same_bits(y, want_y)
    grad = rng.normal(size=y.shape)
    grad[grad > 1.0] = -0.0
    grad[grad < -1.5] = -np.inf  # losing positions still get +0.0, not NaN
    dx, _ = layer.backward(grad, cache)
    assert _same_bits(dx, _maxpool_backward_ref(grad, want_arg, x.shape, p))


@pytest.mark.parametrize("p", [2, 3])
def test_maxpool_nan_anywhere_in_a_pool_gives_nan(p):
    rng = np.random.default_rng(50 + p)
    for pos in range(p):
        x = rng.normal(size=(2, 2 * p, 3))
        x[1, p + pos, 2] = np.nan
        y, _ = MaxPool1D(p).forward(x)
        assert np.isnan(y[1, 1, 2])
        assert np.isnan(y).sum() == 1


def test_maxpool_hand_case():
    x = np.array([3.0, 1.0, 2.0, 5.0]).reshape(1, 4, 1)
    y, _ = MaxPool1D().forward(x)
    assert np.array_equal(y[:, :, 0], [[3.0, 5.0]])


def test_maxpool_backward_routes_to_argmax():
    layer = MaxPool1D()
    x = np.array([3.0, 1.0, 2.0, 5.0]).reshape(1, 4, 1)
    y, cache = layer.forward(x)
    dx, _ = layer.backward(np.array([[[10.0], [20.0]]]), cache)
    assert np.array_equal(dx[0, :, 0], [10.0, 0.0, 0.0, 20.0])


def test_maxpool_tie_goes_to_first():
    layer = MaxPool1D()
    x = np.array([7.0, 7.0]).reshape(1, 2, 1)
    _, cache = layer.forward(x)
    dx, _ = layer.backward(np.array([[[1.0]]]), cache)
    assert np.array_equal(dx[0, :, 0], [1.0, 0.0])


def test_maxpool_shape_error_on_odd_time():
    with pytest.raises(ShapeError):
        MaxPool1D().forward(np.zeros((1, 5, 2)))


def test_maxpool_fd_gradient():
    # distinct values keep the max differentiable at the FD step size
    rng = np.random.default_rng(6)
    x = rng.permutation(24).astype(np.float64).reshape(2, 6, 2)
    _check_layer_grads(MaxPool1D(), x)


def test_upsample_hand_case():
    x = np.array([1.0, 2.0]).reshape(1, 2, 1)
    y, _ = Upsample1D(2).forward(x)
    assert np.array_equal(y[0, :, 0], [1.0, 1.0, 2.0, 2.0])


def test_upsample_fd_gradient():
    rng = np.random.default_rng(7)
    _check_layer_grads(Upsample1D(2), rng.normal(size=(2, 3, 2)))


@pytest.mark.parametrize("factor", [2, 3])
def test_upsample_matches_reference_bit_for_bit(factor):
    rng = np.random.default_rng(60 + factor)
    x = rng.normal(size=(3, 4, 2))
    layer = Upsample1D(factor)
    y, cache = layer.forward(x)
    assert _same_bits(y, np.repeat(x, factor, axis=1))
    grad = rng.normal(size=y.shape)
    grad[grad > 0.5] = -0.0
    grad[0, :factor] = -0.0  # an all -0.0 sum is +0.0
    dx, _ = layer.backward(grad, cache)
    assert _same_bits(dx, grad.reshape(3, 4, factor, 2).sum(axis=2))


@pytest.mark.parametrize("make", [
    lambda: Conv1D(1, 1, kernel_size=0),
    lambda: MaxPool1D(0),
    lambda: MaxPool1D(-2),
    lambda: Upsample1D(0),
], ids=["conv_kernel_0", "pool_0", "pool_minus_2", "upsample_0"])
def test_invalid_layer_size_raises_shape_error(make):
    with pytest.raises(ShapeError, match="must be >= 1"):
        make()


def test_pool_of_upsample_is_identity():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 4, 3))
    up, _ = Upsample1D(2).forward(x)
    down, _ = MaxPool1D(2).forward(up)
    assert np.array_equal(down, x)


def test_upsample_of_pool_preserves_shape():
    x = np.zeros((2, 8, 3))
    y, _ = MaxPool1D(2).forward(x)
    z, _ = Upsample1D(2).forward(y)
    assert z.shape == x.shape


# ------------------------------------------------- repeat/flatten/reshape

def test_repeat_last():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y, _ = RepeatLast(3).forward(x)
    assert y.shape == (2, 3, 2)
    for t in range(3):
        assert np.array_equal(y[:, t, :], x)


def test_repeat_last_fd_gradient():
    rng = np.random.default_rng(10)
    _check_layer_grads(RepeatLast(4), rng.normal(size=(2, 3)))


def test_flatten_reshape_roundtrip():
    x = np.arange(24, dtype=np.float64).reshape(2, 4, 3)
    flat, _ = Flatten().forward(x)
    assert flat.shape == (2, 12)
    # row-major: time-major then channel
    assert np.array_equal(flat[0, :3], x[0, 0, :])
    back, _ = Reshape((4, 3)).forward(flat)
    assert np.array_equal(back, x)


def test_flatten_reshape_fd_gradients():
    rng = np.random.default_rng(11)
    _check_layer_grads(Flatten(), rng.normal(size=(2, 3, 2)))
    _check_layer_grads(Reshape((3, 2)), rng.normal(size=(2, 6)))


def test_reshape_shape_error():
    with pytest.raises(ShapeError):
        Reshape((4, 3)).forward(np.zeros((1, 11)))


def test_flatten_empty_batch():
    # reshape(0, -1) cannot infer the column count of zero rows
    layer = Flatten()
    y, cache = layer.forward(np.empty((0, 4, 3)))
    assert y.shape == (0, 12)
    dx, _ = layer.backward(np.empty((0, 12)), cache)
    assert dx.shape == (0, 4, 3)


# ---------------------------------------------------------------- LSTM

def _lstm_ref(xs, W, U, b):
    """Scalar reference recurrence, written independently of the layer."""
    u = W.shape[1] // 4
    h = np.zeros(u)
    c = np.zeros(u)
    hs = []
    for x in xs:
        z = x @ W + h @ U + b
        i = 1.0 / (1.0 + np.exp(-z[:u]))
        f = 1.0 / (1.0 + np.exp(-z[u:2 * u]))
        g = np.tanh(z[2 * u:3 * u])
        o = 1.0 / (1.0 + np.exp(-z[3 * u:]))
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h.copy())
    return np.asarray(hs)


def test_lstm_single_step_hand_values():
    layer = LSTM(1, 1)
    layer.W[:] = [[0.5, -0.3, 0.8, 0.1]]
    layer.U[:] = [[0.2, 0.4, -0.6, 0.9]]
    layer.b[:] = [0.1, 1.0, 0.0, -0.2]
    x = np.array([[[2.0]]])
    y, _ = layer.forward(x)
    i = 1.0 / (1.0 + math.exp(-(2.0 * 0.5 + 0.1)))
    g = math.tanh(2.0 * 0.8)
    o = 1.0 / (1.0 + math.exp(-(2.0 * 0.1 - 0.2)))
    c = i * g  # f * 0 drops out on the first step
    want = o * math.tanh(c)
    assert abs(y[0, 0, 0] - want) < 1e-12


def test_lstm_matches_reference_recurrence():
    rng = np.random.default_rng(12)
    layer = LSTM(2, 3)
    layer.init_params(seed=3)
    x = rng.normal(size=(4, 5, 2))
    y, _ = layer.forward(x)
    for row in range(4):
        want = _lstm_ref(x[row], layer.W, layer.U, layer.b)
        assert np.allclose(y[row], want, atol=1e-12)


def test_lstm_last_only_equals_last_timestep():
    rng = np.random.default_rng(13)
    seq = LSTM(2, 3, return_sequences=True)
    seq.init_params(seed=4)
    last = LSTM(2, 3, return_sequences=False)
    last.init_params(seed=4)
    x = rng.normal(size=(3, 6, 2))
    y_seq, _ = seq.forward(x)
    y_last, _ = last.forward(x)
    assert np.array_equal(y_last, y_seq[:, -1, :])


def test_lstm_forget_bias_init():
    layer = LSTM(2, 4)
    layer.init_params(seed=0)
    assert np.array_equal(layer.b[4:8], np.ones(4))
    assert np.array_equal(layer.b[:4], np.zeros(4))
    assert np.array_equal(layer.b[8:], np.zeros(8))


def test_lstm_fd_gradients_sequences():
    rng = np.random.default_rng(14)
    layer = LSTM(2, 3)
    layer.init_params(seed=6)
    _check_layer_grads(layer, rng.normal(size=(2, 4, 2)))


def test_lstm_fd_gradients_last_only():
    rng = np.random.default_rng(15)
    layer = LSTM(2, 3, return_sequences=False)
    layer.init_params(seed=8)
    _check_layer_grads(layer, rng.normal(size=(2, 4, 2)))


def test_lstm_shape_error():
    with pytest.raises(ShapeError):
        LSTM(2, 3).forward(np.zeros((1, 4, 5)))


def test_lstm_extreme_preactivations_stay_finite():
    # |z| ~ 1e3 overflows a naive exp(-z) sigmoid; tanh saturates instead
    layer = LSTM(2, 3)
    layer.init_params(seed=5)
    layer.b[:] = 1e3 * np.where(np.arange(12) % 2, 1.0, -1.0)
    x = np.random.default_rng(23).normal(size=(2, 5, 2))
    with np.errstate(all="raise"):
        y, cache = layer.forward(x)
        dx, _ = layer.backward(np.ones_like(y), cache)
    _, _, _, gates = cache
    assert np.isfinite(y).all() and np.isfinite(dx).all()
    for block in (slice(0, 3), slice(3, 6), slice(9, 12)):  # i, f, o
        assert gates[..., block].min() >= 0.0 and gates[..., block].max() <= 1.0


@pytest.mark.parametrize("return_sequences", [True, False])
def test_lstm_cache_free_forward_matches_cached(return_sequences):
    layer = LSTM(2, 4, return_sequences=return_sequences)
    layer.init_params(seed=10)
    x = np.random.default_rng(24).normal(size=(3, 7, 2))
    cached, cache = layer.forward(x)
    free, no_cache = layer.forward(x, keep_cache=False)
    assert cache is not None and no_cache is None
    assert np.array_equal(free, cached)


@pytest.mark.parametrize("keep_cache", [True, False])
def test_lstm_projection_blocks_match_whole_chunk(monkeypatch, keep_cache):
    # 19 steps are blocks of 8, 8 and 3
    layer = LSTM(3, 4)
    layer.init_params(seed=11)
    x = np.random.default_rng(26).normal(size=(3, 19, 3))
    blocked, _ = layer.forward(x, keep_cache=keep_cache)
    monkeypatch.setattr(layers, "PROJECTION_STEPS", 19)
    whole, _ = layer.forward(x, keep_cache=keep_cache)
    assert _same_bits(blocked, whole)


def test_lstm_recipe_predict_memory_is_capped():
    # the whole-chunk input projection alone was 64 MiB of a 90.5 MiB peak
    from pumpwatch.models import build_lstm
    net = build_lstm(n=64, channels=3, seed=1).network
    x = np.random.default_rng(27).normal(size=(768, 64, 3))
    tracemalloc.start()
    try:
        by_chunks(lambda c: net.forward(c, keep_caches=False)[0], x, rows=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


def test_cnn_recipe_predict_memory_is_capped():
    # a 3-channel CNN peaked at 28.1 MiB in 512-row chunks, 14.4 MiB in 256
    from pumpwatch.models import build_cnn
    net = build_cnn(channels=3, seed=1).network
    x = np.random.default_rng(28).normal(size=(640, 64, 3))
    tracemalloc.start()
    try:
        net.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_lstm_recipe_predict_equals_cached_forward():
    from pumpwatch.models import build_lstm
    net = build_lstm(n=64, channels=3, seed=1).network
    x = np.random.default_rng(25).normal(size=(6, 64, 3))
    assert np.array_equal(by_chunks(lambda c: net.forward(c, keep_caches=False)[0], x,
                                    rows=512), net.forward(x)[0])


def _reference_lstm_backward(layer, grad, cache):
    """LSTM.backward as it was before dz went into the gates buffer: a
    separate (T, B, 4u) dz_all, the gates only read."""
    xt, hs, cs, gates = cache
    time, batch, _ = xt.shape
    u = layer.units
    if layer.return_sequences:
        grad_t = grad.transpose(1, 0, 2)
        dh = np.zeros((batch, u))
    else:
        dh = grad.copy()
    dz_all = np.empty((time, batch, 4 * u))
    dc = np.zeros((batch, u))
    dtc = np.empty((batch, u))
    deriv = np.empty((batch, 4 * u))
    Ut = layer.U.T
    for t in range(time - 1, -1, -1):
        if layer.return_sequences:
            dh += grad_t[t]
        a, tc, dz = gates[t], np.tanh(cs[t]), dz_all[t]
        np.multiply(hs[t], tc, out=dtc)
        np.subtract(a[:, 3 * u:], dtc, out=dtc)
        dtc *= dh
        dtc += dc
        np.multiply(dtc, a[:, 2 * u:3 * u], out=dz[:, :u])
        if t:
            np.multiply(dtc, cs[t - 1], out=dz[:, u:2 * u])
        else:
            dz[:, u:2 * u] = 0.0
        np.multiply(dtc, a[:, :u], out=dz[:, 2 * u:3 * u])
        np.multiply(dh, tc, out=dz[:, 3 * u:])
        np.multiply(dtc, a[:, u:2 * u], out=dc)
        np.subtract(layer._is_sigmoid, a, out=deriv)
        deriv *= a
        deriv += layer._is_tanh
        dz *= deriv
        np.matmul(dz, Ut, out=dh)
    dz2 = dz_all.reshape(-1, 4 * u)
    grads = {
        "W": xt.reshape(-1, layer.in_dim).T @ dz2,
        "U": hs[:-1].reshape(-1, u).T @ dz_all[1:].reshape(-1, 4 * u),
        "b": dz2.sum(axis=0),
    }
    return (dz_all @ layer.W.T).transpose(1, 0, 2), grads


@pytest.mark.parametrize("return_sequences", [True, False])
@pytest.mark.parametrize("batch,time,in_dim,units", [(3, 1, 2, 4), (5, 7, 3, 6),
                                                     (4, 19, 2, 5), (1, 9, 1, 1)])
def test_lstm_in_place_backward_matches_reference(return_sequences, batch, time,
                                                  in_dim, units):
    layer = LSTM(in_dim, units, return_sequences=return_sequences)
    layer.init_params(seed=batch * 100 + time)
    rng = np.random.default_rng(time)
    x = rng.normal(size=(batch, time, in_dim))
    y, ref_cache = layer.forward(x)
    grad = rng.normal(size=y.shape)
    want_dx, want = _reference_lstm_backward(layer, grad, ref_cache)
    _, cache = layer.forward(x)
    dx, got = layer.backward(grad, cache)
    assert _same_bits(dx, want_dx)
    assert set(got) == set(want)
    for name in want:
        assert _same_bits(got[name], want[name]), name


def test_lstm_backward_consumes_its_cache():
    layer = LSTM(2, 3)
    layer.init_params(seed=4)
    y, cache = layer.forward(np.random.default_rng(5).normal(size=(2, 4, 2)))
    layer.backward(np.ones_like(y), cache)
    with pytest.raises(UsageError, match="already consumed"):
        layer.backward(np.ones_like(y), cache)


# ---------------------------------------------------------------- loss

def test_mse_loss_value_and_grad():
    out = np.array([[2.0, 4.0]])
    value, grad = mse_loss(out, np.zeros((1, 2)))
    assert value == 10.0
    assert np.array_equal(grad, [[2.0, 4.0]])


def test_mse_loss_zero_at_target():
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    value, grad = mse_loss(x, x.copy())
    assert value == 0.0
    assert np.array_equal(grad, np.zeros((2, 3)))


def test_mse_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------- network

def _small_net():
    net = Network([Dense(4, 3), Tanh(), Dense(3, 4)])
    net.initialize(seed=42)
    return net


def test_forward_is_pure():
    net = _small_net()
    x = np.random.default_rng(16).normal(size=(5, 4))
    x_orig = x.copy()
    y1, _ = net.forward(x)
    y2, _ = net.forward(x)
    assert np.array_equal(y1, y2)
    assert np.array_equal(x, x_orig)


def test_zero_gradients_when_output_equals_target():
    net = _small_net()
    x = np.random.default_rng(17).normal(size=(3, 4))
    y, caches = net.forward(x)
    _, lgrad = mse_loss(y, y.copy())
    grads = net.backward(lgrad, caches)
    assert grads and all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())


def test_network_fd_gradients():
    net = _small_net()
    rng = np.random.default_rng(18)
    x = rng.normal(size=(4, 4))
    target = rng.normal(size=(4, 4))

    def loss():
        y, _ = net.forward(x, keep_caches=False)
        return mse_loss(y, target)[0]

    y, caches = net.forward(x)
    _, lgrad = mse_loss(y, target)
    grads = net.backward(lgrad, caches)
    for name, arr in net.parameters().items():
        num = _num_grad(loss, arr)
        assert np.allclose(grads[name], num, atol=1e-7), name


def test_shape_error_names_layer():
    net = Network([Dense(4, 3), Tanh(), Dense(5, 2)])
    with pytest.raises(ShapeError, match="layer 2"):
        net.forward(np.zeros((1, 4)))


def test_second_backward_on_the_same_caches_is_an_error():
    for net, x in ((_small_net(), np.ones((2, 4))),
                   (Network([LSTM(2, 3), Dense(3, 2)]).initialize(1), np.ones((2, 4, 2)))):
        y, caches = net.forward(x)
        _, lgrad = mse_loss(y, np.zeros_like(y))
        net.backward(lgrad, caches)
        assert caches == []
        with pytest.raises(UsageError):
            net.backward(lgrad, caches)


def test_backward_requires_caches():
    net = _small_net()
    with pytest.raises(UsageError):
        net.backward(np.zeros((1, 4)), None)
    with pytest.raises(UsageError):
        net.backward(np.zeros((1, 4)), [None])


def test_parameters_are_live_references():
    net = _small_net()
    params = net.parameters()
    assert list(params) == ["L0.W", "L0.b", "L2.W", "L2.b"]
    params["L0.W"][0, 0] = 123.0
    assert net.layers[0].W[0, 0] == 123.0
    assert net.param_count() == 4 * 3 + 3 + 3 * 4 + 4


def test_set_parameters_validation():
    net = _small_net()
    values = {k: v.copy() for k, v in net.parameters().items()}
    bad = dict(values)
    del bad["L0.b"]
    with pytest.raises(UsageError):
        net.set_parameters(bad)
    values["L0.W"] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        net.set_parameters(values)


def test_predict_matches_forward_in_chunks():
    net = _small_net()
    x = np.random.default_rng(19).normal(size=(10, 4))
    full, _ = net.forward(x, keep_caches=False)
    # chunked BLAS calls may round differently, so equivalence not identity
    assert np.allclose(by_chunks(lambda c: net.forward(c, keep_caches=False)[0], x,
                                 rows=3), full, atol=1e-12)
    assert np.array_equal(by_chunks(lambda c: net.forward(c, keep_caches=False)[0], x,
                                    rows=64), full)
    assert np.array_equal(net.predict(x), full)  # 10 rows are one PREDICT_ROWS chunk


def test_initialize_is_seed_deterministic():
    a = Network([Dense(4, 3), Tanh(), Dense(3, 4)]).initialize(7)
    b = Network([Dense(4, 3), Tanh(), Dense(3, 4)]).initialize(7)
    c = Network([Dense(4, 3), Tanh(), Dense(3, 4)]).initialize(8)
    assert np.array_equal(a.layers[0].W, b.layers[0].W)
    assert not np.array_equal(a.layers[0].W, c.layers[0].W)
    # layers do not share a stream
    assert not np.array_equal(a.layers[0].W, a.layers[2].W.T)


def test_glorot_bounds():
    layer = Dense(30, 20)
    layer.init_params(seed=9)
    limit = math.sqrt(6.0 / 50.0)
    assert np.abs(layer.W).max() <= limit
    assert np.abs(layer.W).max() > 0.5 * limit  # actually spreads out
    assert np.array_equal(layer.b, np.zeros(20))


# ---------------------------------------------------------------- ckpt

def test_checkpoint_roundtrip(tmp_path):
    net = Network([Conv1D(2, 3), Tanh(), MaxPool1D(), Flatten(),
                   Dense(6 * 3 // 2, 4), Tanh(), Dense(4, 2)])
    net.initialize(seed=11)
    x = np.random.default_rng(20).normal(size=(3, 6, 2))
    want = net.predict(x)

    path = tmp_path / "model.json"
    net.save(path)
    loaded = Network.load(path)
    for (n1, a1), (n2, a2) in zip(net.parameters().items(),
                                  loaded.parameters().items()):
        assert n1 == n2 and np.array_equal(a1, a2)
    assert np.array_equal(loaded.predict(x), want)


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    for build in (lambda: [Dense(3, 2), Tanh(), Dense(2, 3)],
                  lambda: [LSTM(2, 3), LSTM(3, 2, return_sequences=False), RepeatLast(4)]):
        p1, p2, p3 = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        for p in (p1, p2):
            Network(build()).initialize(5).save(p)
        Network.load(p1).save(p3)  # a loaded checkpoint saves back to the same bytes
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_checkpoint_rejects_wrong_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(UsageError):
        Network.load(path)


def _dense_checkpoint(first_weight):
    """The text of a Dense(2, 1) checkpoint whose L0.W[0, 0] is ``first_weight``."""
    def tensor(values):
        data = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")
        return {"shape": list(np.shape(values)), "data": data}
    return json.dumps({"format": "pumpwatch-model-v1", "layers": [Dense(2, 1).spec()],
                       "params": {"L0.W": tensor([[first_weight], [0.5]]),
                                  "L0.b": tensor([0.0])}})


@pytest.mark.parametrize("text, needle", [
    ('{"format": "pumpwatch-model-v1", "lay', "model.json"),
    ('{"format": "pumpwatch-model-v1", "layers": []}', "model.json"),
    ('{"format": "pumpwatch-model-v1", "layers": [{"kind": "Tanh", "size": 3}], '
     '"params": {}}', "model.json"),
    (_dense_checkpoint(float("nan")), "L0.W in .*model.json must be finite"),
    (_dense_checkpoint(float("inf")), "L0.W in .*model.json must be finite"),
], ids=["truncated", "no-params", "bad-layer-spec", "nan-weight", "inf-weight"])
def test_malformed_checkpoint_is_a_usage_error_naming_the_file(tmp_path, text, needle):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(UsageError, match=needle):
        Network.load(path)


def test_lstm_checkpoint_roundtrip(tmp_path):
    net = Network([LSTM(2, 3), LSTM(3, 2, return_sequences=False),
                   RepeatLast(4), Dense(2, 2)])
    net.initialize(seed=21)
    x = np.random.default_rng(22).normal(size=(2, 4, 2))
    want = net.predict(x)
    path = tmp_path / "lstm.json"
    net.save(path)
    assert np.array_equal(Network.load(path).predict(x), want)


@pytest.mark.parametrize("index, key", [(0, "kernel_size"), (2, "pool_size"),
                                        (3, "factor")])
def test_checkpoint_with_invalid_layer_size_raises_shape_error(tmp_path, index, key):
    net = Network([Conv1D(2, 3), Tanh(), MaxPool1D(), Upsample1D()]).initialize(12)
    path = tmp_path / "model.json"
    net.save(path)
    doc = json.loads(path.read_text())
    doc["layers"][index][key] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(ShapeError, match=f"{key} must be >= 1"):
        Network.load(path)


# Every layer kind, with each argument away from its default.
_NON_DEFAULT_LAYERS = [Dense(4, 3), Tanh(), Conv1D(2, 3, kernel_size=3), MaxPool1D(4),
                       Upsample1D(3), LSTM(2, 3, return_sequences=False), RepeatLast(5),
                       Flatten(), Reshape((2, 3))]


def test_non_default_layers_cover_every_kind():
    assert sorted(type(l).__name__ for l in _NON_DEFAULT_LAYERS) == \
        sorted(layers.LAYER_KINDS)


@pytest.mark.parametrize("cls", layers.LAYER_KINDS.values(), ids=lambda c: c.__name__)
def test_every_constructor_argument_is_annotated(cls):
    # spec() writes the annotated arguments only; one left bare would be lost
    hints = typing.get_type_hints(cls.__init__)
    assert list(hints) == list(inspect.signature(cls).parameters)
    assert set(hints.values()) <= {int, bool, list}


@pytest.mark.parametrize("layer", _NON_DEFAULT_LAYERS, ids=lambda l: type(l).__name__)
def test_spec_round_trips_and_describe_names_each_argument(layer):
    spec = layer.spec()
    assert layers.layer_from_spec(spec).spec() == spec
    described = layer.describe()
    assert described.startswith(f"{spec['kind']}(")
    for key, value in spec.items():
        if key != "kind":
            assert f"{key}={value}" in described


def test_spec_and_describe_of_a_dense_layer():
    assert Dense(4, 3).spec() == {"kind": "Dense", "in_dim": 4, "units": 3}
    assert Dense(4, 3).describe() == "Dense(in_dim=4,units=3)"


@pytest.mark.parametrize("layer, x", [
    (MaxPool1D(4), np.zeros((1, 6, 2))),
    (Upsample1D(3), np.zeros((1, 6))),
    (RepeatLast(5), np.zeros((1, 2, 3))),
    (Flatten(), np.zeros((1, 6))),
    (Reshape((2, 3)), np.zeros((1, 7))),
], ids=lambda v: type(v).__name__ if isinstance(v, layers.Layer) else "")
def test_shape_errors_start_with_describe(layer, x):
    with pytest.raises(ShapeError) as err:
        layer.forward(x)
    assert str(err.value).startswith(layer.describe() + ": ")


@pytest.mark.parametrize("index, key, value", [
    (0, "return_sequences", 0),
    (2, "repeat_count", True),
    (2, "repeat_count", "64"),
    (2, "repeat_count", 64.7),
    (0, "units", 3.0),
    (4, "target_shape", 6),
], ids=["return_sequences-0", "repeat_count-true", "repeat_count-string",
        "repeat_count-fraction", "units-float", "target_shape-int"])
def test_checkpoint_value_of_the_wrong_type_is_a_usage_error(tmp_path, index, key, value):
    net = Network([LSTM(2, 3), LSTM(3, 6, return_sequences=False), RepeatLast(4),
                   LSTM(6, 6, return_sequences=False), Reshape((2, 3)),
                   Dense(3, 2)]).initialize(13)
    path = tmp_path / "model.json"
    net.save(path)
    doc = json.loads(path.read_text())
    doc["layers"][index][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match=f"{key} of layer {index} of .*model.json"):
        Network.load(path)


def test_layer_spec_without_an_argument_is_a_usage_error():
    # return_sequences has a default, but a checkpoint must still hold it
    with pytest.raises(UsageError, match="LSTM layer 3 of model.json lacks the key "
                                         "'return_sequences'"):
        layers.layer_from_spec({"kind": "LSTM", "in_dim": 3, "units": 4},
                               "layer 3 of model.json")


@pytest.mark.parametrize("shape, bad", [([4.9, 128], "target_shape\\[0\\]"),
                                        ([4, "128"], "target_shape\\[1\\]"),
                                        ([4, True], "target_shape\\[1\\]")],
                         ids=["fraction", "string", "bool"])
def test_layer_spec_list_element_that_is_not_an_integer_is_a_usage_error(shape, bad):
    with pytest.raises(UsageError, match=f"{bad} of layer 17 must be an integer"):
        layers.layer_from_spec({"kind": "Reshape", "target_shape": shape}, "layer 17")


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
def test_predict_writes_the_bits_of_concatenated_chunk_forwards(count):
    net = Network([LSTM(2, 5), Dense(5, 3), Tanh(), Dense(3, 2)]).initialize(15)
    x = np.random.default_rng(count).normal(size=(count, 4, 2))
    chunks = [net.forward(x[s:s + 256], keep_caches=False)[0]
              for s in range(0, max(count, 1), 256)]
    assert _same_bits(net.predict(x), np.concatenate(chunks, axis=0))


def test_by_chunks_refuses_a_function_that_changes_the_row_count():
    x = np.zeros((300, 2))
    with pytest.raises(ShapeError, match="256 rows in, 1 rows out"):
        by_chunks(lambda chunk: chunk[:1], x)
