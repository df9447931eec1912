"""Training loop and optimizer behaviour."""

import tracemalloc
import weakref

import numpy as np
import pytest

from pumpwatch.errors import ConfigError, TrainingError, UsageError
from pumpwatch.models import build_cnn, build_lstm
from pumpwatch.nn import LSTM, Adam, Dense, Network, Tanh, TrainConfig, train


def _net(seed=0):
    return Network([Dense(8, 4), Tanh(), Dense(4, 8)]).initialize(seed)


def _constant_windows(count=20):
    w = np.linspace(-0.5, 0.5, 8)
    return np.tile(w, (count, 1))


# ---------------------------------------------------------------- adam

def test_adam_first_step_magnitude():
    # with a constant gradient the first update is ~lr * sign(g)
    p = np.array([1.0, -2.0])
    opt = Adam({"p": p}, learning_rate=0.1)
    opt.step({"p": np.array([3.0, -5.0])})
    assert np.allclose(p, [0.9, -1.9], atol=1e-6)


def test_adam_updates_in_place():
    p = np.zeros(3)
    ref = p
    opt = Adam({"p": p}, learning_rate=0.5)
    opt.step({"p": np.ones(3)})
    assert ref is p and not np.array_equal(p, np.zeros(3))


def test_adam_converges_on_quadratic():
    # minimize (p - 3)^2 elementwise
    p = np.zeros(4)
    opt = Adam({"p": p}, learning_rate=0.1)
    for _ in range(500):
        opt.step({"p": 2.0 * (p - 3.0)})
    assert np.allclose(p, 3.0, atol=1e-3)


# ---------------------------------------------------------------- train

def test_memorizes_constant_windows():
    result = train(_net(), _constant_windows(),
                   TrainConfig(learning_rate=0.01, max_epochs=200,
                               early_stop_patience=200, seed=1))
    assert result.loss_history[-1] < 1e-6


def test_loss_non_increasing_after_warmup():
    # at the default learning rate the momentum transient settles early
    result = train(_net(), _constant_windows(),
                   TrainConfig(learning_rate=1e-3, max_epochs=60,
                               early_stop_patience=60, seed=1))
    hist = result.loss_history
    for i in range(10, len(hist) - 1):
        assert hist[i + 1] <= hist[i] * 1.05


def _varied_windows(count=20):
    return _constant_windows(count) + 0.01 * np.arange(count)[:, None]


def test_training_is_seed_deterministic():
    # varied windows + small batches, so the shuffle actually matters
    cfg = TrainConfig(learning_rate=0.005, batch_size=4, max_epochs=10, seed=3)
    r1 = train(_net(5), _varied_windows(), cfg)
    r2 = train(_net(5), _varied_windows(), cfg)
    assert r1.loss_history == r2.loss_history
    assert r1.val_history == r2.val_history

    r3 = train(_net(5), _varied_windows(),
               TrainConfig(learning_rate=0.005, batch_size=4, max_epochs=10, seed=4))
    assert r1.loss_history != r3.loss_history


def test_zero_learning_rate_is_a_null_update():
    net = _net(7)
    before = {k: v.copy() for k, v in net.parameters().items()}
    result = train(net, _constant_windows(),
                   TrainConfig(learning_rate=0.0, max_epochs=5,
                               early_stop_patience=99, seed=0))
    for k, v in net.parameters().items():
        assert np.array_equal(v, before[k])
    assert len(set(result.loss_history)) == 1  # flat history


def test_divergence_raises_with_epoch():
    # an absurd learning rate blows the parameters up within the first epoch
    net = _net(2)
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match="epoch"):
        train(net, _varied_windows(),
              TrainConfig(learning_rate=1e154, max_epochs=50,
                          early_stop_patience=99, seed=0))


def test_history_length_matches_epochs_run():
    result = train(_net(), _constant_windows(),
                   TrainConfig(learning_rate=0.01, max_epochs=7,
                               early_stop_patience=99, seed=0))
    assert result.epochs_run == 7
    assert len(result.loss_history) == 7
    assert len(result.val_history) == 7
    assert not result.stopped_early


def test_early_stopping_counts_stale_epochs():
    # lr = 0 keeps validation loss constant, so the stop fires after
    # exactly patience non-improving epochs following the first one
    result = train(_net(), _constant_windows(),
                   TrainConfig(learning_rate=0.0, max_epochs=50,
                               early_stop_patience=3, seed=0))
    assert result.stopped_early
    assert result.epochs_run == 4


def test_small_input_skips_validation_split():
    # fewer than 10 windows: no holdout, val history mirrors train history
    result = train(_net(), _constant_windows(6),
                   TrainConfig(learning_rate=0.01, max_epochs=3,
                               early_stop_patience=99, seed=0))
    assert result.val_history == result.loss_history


def test_validation_slice_is_the_tail():
    # make the last 10% pathological; the train loss should not see it
    windows = _constant_windows(20)
    windows[-2:] += 100.0
    result = train(_net(), windows,
                   TrainConfig(learning_rate=0.0, max_epochs=1,
                               early_stop_patience=9, seed=0))
    assert result.val_history[0] > result.loss_history[0]


def test_config_validation():
    for bad in (TrainConfig(learning_rate=-1e-3),
                TrainConfig(batch_size=0),
                TrainConfig(max_epochs=0),
                TrainConfig(early_stop_patience=0)):
        with pytest.raises(ConfigError):
            train(_net(), _constant_windows(), bad)


def test_empty_input_rejected():
    with pytest.raises(UsageError):
        train(_net(), np.zeros((0, 8)), TrainConfig())


def test_batch_size_does_not_change_epoch_loss_accounting():
    # the recorded epoch loss is a weighted mean over windows, so with
    # lr = 0 (no updates) it is identical for any batch size
    for bs in (1, 4, 7, 32):
        result = train(_net(9), _constant_windows(13),
                       TrainConfig(learning_rate=0.0, batch_size=bs,
                                   max_epochs=1, early_stop_patience=9, seed=0))
        if bs == 1:
            want = result.loss_history[0]
        else:
            assert np.isclose(result.loss_history[0], want, atol=1e-12)


# ---------------------------------------------------------------- memory

def test_step_activations_are_gone_before_the_next_forward():
    net = Network([LSTM(2, 4), Dense(4, 2)]).initialize(3)
    refs = []  # weak references to every output and cached array so far
    alive = []  # how many of them live when a training step's forward starts
    for idx, layer in enumerate(net.layers):
        def spy(x, keep_cache=True, _forward=layer.forward, _first=idx == 0):
            if keep_cache and _first:
                alive.append(sum(r() is not None for r in refs))
            y, cache = _forward(x, keep_cache)
            if keep_cache:
                parts = cache if isinstance(cache, tuple) else (cache,)
                refs.extend(weakref.ref(a) for a in (y, *parts)
                            if isinstance(a, np.ndarray))
            return y, cache
        layer.forward = spy
    windows = np.random.default_rng(4).normal(size=(20, 5, 2))
    train(net, windows, TrainConfig(batch_size=4, max_epochs=2))
    assert len(alive) == 10  # 18 training windows in batches of 4, 2 epochs
    assert alive == [0] * 10


def test_lstm_recipe_fit_holds_one_step_of_activations():
    # one step's caches are about 57 MiB; holding two steps' peaked at 116.5
    net = build_lstm(n=64, channels=3, seed=1).network
    windows = np.random.default_rng(5).normal(size=(192, 64, 3))
    tracemalloc.start()
    try:
        train(net, windows, TrainConfig(batch_size=64, max_epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


def test_cnn_recipe_fit_caches_no_column_matrix():
    # one B=128 step peaked at 35.1 MiB while every Conv1D cached its
    # (batch, time, kernel*channels) columns until backward; 26.2 caching x
    net = build_cnn(channels=3, seed=1).network
    windows = np.random.default_rng(29).normal(size=(142, 64, 3))  # 128 train
    tracemalloc.start()
    try:
        train(net, windows, TrainConfig(batch_size=128, max_epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 31 * 2**20
