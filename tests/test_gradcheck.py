"""Gradient checker tests.

``grad_check`` shifts one weight at a time in place and reruns the network.
``_naive_stat`` here is a separate copy of that textbook loop over every
entry, so the statistic is checked against code the checker does not
share.  The tests also show that an injected gradient fault is detected at
its predicted magnitude and that the checker leaves every weight as it
found it, also when a forward raises.
"""

import numpy as np
import pytest

from pumpwatch import models
from pumpwatch.errors import UsageError
from pumpwatch.nn import (Conv1D, Dense, Flatten, LSTM, MaxPool1D, Network,
                          RepeatLast, Reshape, Tanh, Upsample1D, grad_check,
                          mse_loss)


def _dense_stack():
    net = Network([Dense(8, 6), Tanh(), Dense(6, 3), Tanh(),
                   Dense(3, 6), Tanh(), Dense(6, 8)])
    return net.initialize(seed=1), np.random.default_rng(1).normal(size=(8,))


def _conv_stack():
    net = Network([Conv1D(1, 3), Tanh(), MaxPool1D(),
                   Conv1D(3, 4), Tanh(), MaxPool1D(),
                   Flatten(), Dense(8, 5), Tanh(), Dense(5, 8), Tanh(),
                   Reshape((2, 4)),
                   Upsample1D(2), Conv1D(4, 3), Tanh(),
                   Upsample1D(2), Conv1D(3, 1)])
    return net.initialize(seed=2), np.random.default_rng(2).normal(size=(8, 1))


def _lstm_stack():
    net = Network([LSTM(2, 4), LSTM(4, 3),
                   LSTM(3, 4, return_sequences=False), RepeatLast(5),
                   LSTM(4, 3), Dense(3, 2)])
    return net.initialize(seed=3), np.random.default_rng(3).normal(size=(5, 2))


@pytest.mark.parametrize("builder", [_dense_stack, _conv_stack, _lstm_stack])
def test_grad_check_below_tolerance(builder):
    net, x = builder()
    assert grad_check(net, x, epsilon=1e-5) < 1e-4


def _naive_stat(net, x, epsilon=1e-5):
    """Reference statistic: truly modify each weight and rerun forward."""
    x1 = x[None]
    out, caches = net.forward(x1)
    _, lg = mse_loss(out, x1)
    analytic = net.backward(lg, caches)
    worst = 0.0
    for name, arr in net.parameters().items():
        flat = arr.reshape(-1)
        num = np.zeros(flat.size)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + epsilon
            lp = mse_loss(net.forward(x1, keep_caches=False)[0], x1)[0]
            flat[i] = old - epsilon
            lm = mse_loss(net.forward(x1, keep_caches=False)[0], x1)[0]
            flat[i] = old
            num[i] = (lp - lm) / (2.0 * epsilon)
        a = analytic[name].ravel()
        err = np.linalg.norm(a - num) / max(np.linalg.norm(a),
                                            np.linalg.norm(num), 1e-12)
        worst = max(worst, float(err))
    return worst


def test_fast_checker_agrees_with_weight_modification_route():
    # mixes every parameterised layer kind in one stack
    net = Network([LSTM(2, 3), Conv1D(3, 2), Tanh(), Flatten(), Dense(8, 8),
                   Reshape((4, 2))])
    net.initialize(seed=4)
    x = np.random.default_rng(4).normal(size=(4, 2))
    fast = grad_check(net, x, epsilon=1e-5)
    slow = _naive_stat(net, x, epsilon=1e-5)
    assert fast < 1e-6
    # both routes compute the same losses in the same order
    assert fast == slow


class _FaultyDense(Dense):
    """Backward returns parameter gradients scaled by 1.01."""

    def backward(self, grad, cache):
        dx, pgrads = super().backward(grad, cache)
        return dx, {k: 1.01 * v for k, v in pgrads.items()}


def test_injected_fault_is_detected():
    net = Network([Dense(6, 5), Tanh(), _FaultyDense(5, 6)])
    net.initialize(seed=6)
    x = np.random.default_rng(6).normal(size=(6,))
    err = grad_check(net, x, epsilon=1e-5)
    # analytic = 1.01 * true, so the statistic is 0.01/1.01 per definition
    assert 0.009 < err < 0.011


def test_zero_model_zero_input_is_well_defined():
    net = Network([Dense(4, 3), Tanh(), Dense(3, 4)])  # weights stay zero
    err = grad_check(net, np.zeros(4))
    assert err == 0.0 and np.isfinite(err)


def test_sampled_mode_is_seeded_and_consistent():
    net, x = _conv_stack()
    full = grad_check(net, x)
    a = grad_check(net, x, sample_per_tensor=10, seed=1)
    b = grad_check(net, x, sample_per_tensor=10, seed=1)
    c = grad_check(net, x, sample_per_tensor=10, seed=2)
    assert a == b
    assert a < 1e-4 and c < 1e-4 and full < 1e-4
    # a huge sample budget degenerates to the full sweep
    assert grad_check(net, x, sample_per_tensor=10**6) == full


class _FailingTanh(Tanh):
    """Tanh whose forward raises on its ``fail_at``-th call."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def forward(self, x, keep_cache=True):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("forward failed")
        return super().forward(x, keep_cache)


def _param_bits(net):
    return {name: arr.tobytes() for name, arr in net.parameters().items()}


@pytest.mark.parametrize("sample_per_tensor", [None, 5], ids=["full", "sampled"])
def test_parameters_are_bit_identical_afterwards(sample_per_tensor):
    net, x = _conv_stack()
    before = _param_bits(net)
    grad_check(net, x, sample_per_tensor=sample_per_tensor, seed=3)
    assert _param_bits(net) == before


@pytest.mark.parametrize("fail_at", [4, 5], ids=["plus-shift", "minus-shift"])
def test_parameters_are_restored_when_a_forward_raises(fail_at):
    # call 1 is the analytic pass; calls 2k and 2k+1 shift entry k-1 by +eps
    # and -eps, so the failure hits L0.W[0, 1] while it is shifted
    net = Network([Dense(4, 3), _FailingTanh(fail_at), Dense(3, 4)]).initialize(8)
    before = _param_bits(net)
    with pytest.raises(RuntimeError):
        grad_check(net, np.random.default_rng(8).normal(size=(4,)))
    assert _param_bits(net) == before


def test_shifts_reach_a_non_contiguous_parameter():
    net, x = _dense_stack()
    layer = net.layers[0]
    layer.W = np.asfortranarray(layer.W)  # reshape(-1) of it would be a copy
    assert not layer.W.flags.c_contiguous
    before = _param_bits(net)
    assert grad_check(net, x) < 1e-4
    assert _param_bits(net) == before


def test_accepts_wrapper_with_network_attribute():
    ae = models.build_cnn(timesteps=16, channels=1, bottleneck=4, seed=7)
    x = np.random.default_rng(7).normal(size=(16, 1))
    assert grad_check(ae, x, sample_per_tensor=20) < 1e-4


def test_usage_errors():
    net, x = _dense_stack()
    with pytest.raises(UsageError):
        grad_check(net, x, epsilon=0.0)
    with pytest.raises(UsageError):
        grad_check("not a network", x)
    with pytest.raises(UsageError):
        grad_check(Network([Tanh()]), np.zeros(3))  # no parameters
