"""Architecture recipe tests: width arithmetic, shape walks, marshalling,
and the trained-beats-untrained reconstruction property."""

import numpy as np
import pytest

from pumpwatch import nn
from pumpwatch.errors import ConfigError
from pumpwatch.models import (Autoencoder, DetectorKind, build_cnn, build_dnn,
                              build_lstm, dnn_widths, lstm_units)
from pumpwatch.nn import Conv1D, Dense, MaxPool1D, TrainConfig


def from_outputs(ae, outputs):
    """Network outputs back to (count, channels, 64) windows."""
    if ae.kind is DetectorKind.DNN:
        return outputs.reshape(len(outputs), ae.channels, 64)
    return outputs.transpose(0, 2, 1)


def reconstruct(ae, window):
    """Forward one (channels, 64) window; the output has the same shape."""
    out, _ = ae.network.forward(ae.to_inputs(np.asarray(window)[None]),
                                keep_caches=False)
    return from_outputs(ae, out)[0]


# ---------------------------------------------------------------- widths

def test_dnn_widths_n150():
    assert dnn_widths(64, 150) == (64, 150, 50, 38, 50, 150, 64)


def test_dnn_widths_n64():
    assert dnn_widths(64, 64) == (64, 64, 21, 16, 21, 64, 64)


def test_dnn_width_rounding_is_half_up():
    # 150/4 = 37.5 rounds up; 64/3 = 21.33 rounds down
    assert dnn_widths(64, 150)[3] == 38
    assert dnn_widths(64, 64)[2] == 21


def test_dnn_parameter_count_matches_width_arithmetic():
    widths = dnn_widths(64, 150)
    want = sum((widths[i] + 1) * widths[i + 1] for i in range(len(widths) - 1))
    ae = build_dnn(64, 150, seed=0)
    assert ae.param_count() == want
    # and per layer: weights + bias
    dense = [l for l in ae.network.layers if isinstance(l, Dense)]
    assert [(l.in_dim, l.units) for l in dense] == \
        [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]


def test_lstm_units_lists():
    assert lstm_units(150) == (150, 75, 38, 16, 16, 38, 75, 150)
    assert lstm_units(256) == (256, 128, 64, 16, 16, 64, 128, 256)
    assert lstm_units(16) == (16,) * 8


def test_lstm_floor_applies_to_small_quotients():
    # 150/16 = 9.375 would round to 9; the floor lifts it to 16
    assert lstm_units(150)[3] == 16


def test_dnn_bottleneck_compresses():
    from pumpwatch.util import round_half_up
    for channels in (1, 2, 3):
        for n in (64, 150, 200):
            assert round_half_up(n / 4) < 64 * channels


# ---------------------------------------------------------------- build

def test_build_dnn_structure():
    ae = build_dnn(64, 64, seed=1)
    kinds = [type(l).__name__ for l in ae.network.layers]
    # tanh after every dense except the final reconstruction layer
    assert kinds == ["Dense", "Tanh"] * 5 + ["Dense"]


def test_build_dnn_validation():
    with pytest.raises(ConfigError):
        build_dnn(64, 63)
    with pytest.raises(ConfigError):
        build_dnn(64, 201)
    with pytest.raises(ConfigError):
        build_dnn(0, 150)
    with pytest.raises(ConfigError):
        build_dnn(100, 150)  # not a window multiple
    ae = build_dnn(128, 150)  # infers 2 channels
    assert ae.channels == 2


def test_build_lstm_structure():
    ae = build_lstm(n=150, channels=3, seed=2)
    layers = ae.network.layers
    lstm = [l for l in layers if isinstance(l, nn.LSTM)]
    assert [l.units for l in lstm] == [150, 75, 38, 16, 16, 38, 75, 150]
    assert [l.return_sequences for l in lstm] == [True, True, True, False,
                                                 True, True, True, True]
    assert isinstance(layers[4], nn.RepeatLast) and layers[4].repeat_count == 64
    assert isinstance(layers[-1], nn.Dense)
    assert layers[-1].units == 3


def test_build_lstm_validation():
    with pytest.raises(ConfigError):
        build_lstm(n=15)


def test_build_cnn_encoder_shape_walk():
    ae = build_cnn(channels=1, bottleneck=32, seed=3)
    x = np.zeros((1, 64, 1))
    want = iter([(64, 16), (32, 16), (32, 32), (16, 32),
                 (16, 64), (8, 64), (8, 128), (4, 128)])
    for layer in ae.network.layers:
        x, _ = layer.forward(x)
        if isinstance(layer, (Conv1D, MaxPool1D)):
            assert x.shape[1:] == next(want)
        if x.ndim == 2:  # reached the flatten stage; encoder walk is done
            break
    assert next(want, None) is None


def test_build_cnn_bottleneck_width():
    ae = build_cnn(channels=1, bottleneck=32, seed=4)
    x = np.zeros((1, 64, 1))
    for layer in ae.network.layers:
        x, _ = layer.forward(x)
        if isinstance(layer, Dense):
            assert x.shape == (1, 32)
            break


def test_build_cnn_decoder_filter_order():
    ae = build_cnn(channels=2, seed=5)
    convs = [l for l in ae.network.layers if isinstance(l, Conv1D)]
    assert [c.filters for c in convs] == [16, 32, 64, 128, 128, 64, 32, 16, 2]
    # final reconstruction conv is linear: no tanh after it
    assert isinstance(ae.network.layers[-1], Conv1D)


def test_build_cnn_validation():
    with pytest.raises(ConfigError):
        build_cnn(timesteps=60)
    with pytest.raises(ConfigError):
        build_cnn(bottleneck=0)


# ---------------------------------------------------------------- shapes

@pytest.mark.parametrize("ae_builder,channels", [
    (lambda: build_dnn(64, 64, seed=6), 1),
    (lambda: build_dnn(192, 64, seed=6), 3),
    (lambda: build_lstm(n=16, channels=3, seed=7), 3),
    (lambda: build_cnn(channels=3, bottleneck=8, seed=8), 3),
])
def test_reconstruct_preserves_window_shape(ae_builder, channels):
    ae = ae_builder()
    window = np.random.default_rng(1).normal(size=(channels, 64))
    out = reconstruct(ae, window)
    assert out.shape == window.shape
    assert np.isfinite(out).all()


@pytest.mark.parametrize("ae_builder", [
    lambda: build_dnn(192, 64, seed=6),
    lambda: build_lstm(n=16, channels=3, seed=7),
    lambda: build_cnn(channels=3, bottleneck=8, seed=8),
], ids=["dnn", "lstm", "cnn"])
def test_predict_on_no_windows_is_empty(ae_builder):
    ae = ae_builder()
    x = ae.to_inputs(np.empty((0, 3, 64)))
    out = ae.network.predict(x)
    assert out.shape == x.shape and out.dtype == np.float64


def test_dnn_flattening_concatenates_channels():
    ae = Autoencoder(DetectorKind.DNN, network=None, channels=2)
    w = np.arange(2 * 2 * 64, dtype=np.float64).reshape(2, 2, 64)
    flat = ae.to_inputs(w)
    assert flat.shape == (2, 128)
    assert np.array_equal(flat[0, :64], w[0, 0])
    assert np.array_equal(flat[0, 64:], w[0, 1])
    assert np.array_equal(from_outputs(ae, flat), w)


def test_sequence_layout_is_time_major():
    ae = Autoencoder(DetectorKind.LSTM, network=None, channels=3)
    w = np.random.default_rng(2).normal(size=(4, 3, 64))
    x = ae.to_inputs(w)
    assert x.shape == (4, 64, 3)
    assert np.array_equal(x[1, 5, :], w[1, :, 5])
    assert np.array_equal(from_outputs(ae, x), w)


def test_window_errors_match_reconstruct():
    ae = build_dnn(64, 64, seed=9)
    wins = np.random.default_rng(3).normal(size=(5, 1, 64))
    errs = ae.window_errors(wins)
    assert errs.shape == (5,)
    for i in range(5):
        diff = reconstruct(ae, wins[i]) - wins[i]
        assert np.isclose(errs[i], np.mean(diff * diff), atol=1e-12)


# ---------------------------------------------------------------- training

def test_constant_window_reconstruction_error():
    ae = build_dnn(64, 64, seed=10)
    wins = np.tile(np.linspace(0.2, 0.8, 64), (32, 1, 1))
    ae.fit(wins, TrainConfig(learning_rate=0.01, max_epochs=200,
                             early_stop_patience=200, seed=0))
    out = reconstruct(ae, wins[0])
    assert np.abs(out - wins[0]).max() < 1e-2


def test_trained_beats_untrained_on_heldout(small_dataset):
    from pumpwatch.dataset import Dataset
    from pumpwatch.signal import (FeatureSetId, apply_normalizer,
                                  assemble_features, fit_normalizer, window)
    healthy = Dataset(samples=[s for s in small_dataset if not s.is_anomaly])
    mats = assemble_features(healthy, FeatureSetId.AUDIO)
    nz = fit_normalizer(mats[:15])
    wins = window(apply_normalizer(nz, mats))
    train_wins, held = wins[:200], wins[200:]
    assert len(held) >= 40

    fresh = build_dnn(64, 64, seed=11)
    untrained_errs = fresh.window_errors(held)

    trained = build_dnn(64, 64, seed=11)
    trained.fit(train_wins, TrainConfig(learning_rate=1e-3, max_epochs=30,
                                        early_stop_patience=30, seed=1))
    trained_errs = trained.window_errors(held)
    better = np.mean(trained_errs < untrained_errs)
    assert better >= 0.95
