"""The detector kinds, the three autoencoder recipes and their window marshalling.

- DNN: dense stack with widths x, n, n/3, n/4, n/3, n, x (round half up),
  tanh everywhere except the final linear reconstruction layer.  A
  multichannel window is flattened by concatenating its channels, so
  x = 64 * channels.
- LSTM: eight stacked recurrent layers with unit counts n, n/2, n/4, n/16,
  n/16, n/4, n/2, n rounded with a floor of 16.  The first three return
  sequences, the fourth returns only its last output, which is repeated
  across all 64 time steps; the remaining four return sequences and a
  per-time-step linear map projects back to the channel count.
- CNN: four conv(kernel 2) + max-pool(2) stages with 16/32/64/128 filters,
  a dense bottleneck, and a mirrored decoder of upsample(2) + conv stages
  at 128/64/32/16 filters plus a final linear conv to the channel count.

Sequence models take windows as (time=64, channels); the flat model takes
the concatenated vector.  ``Autoencoder`` hides that difference.

``DETECTORS`` declares each detector kind once, baselines included; no
other module branches on the kind.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

import numpy as np

from . import baseline, nn
from .baseline import flat_windows
from .errors import ConfigError, ShapeError
from .nn.network import Network
from .signal import WINDOW_SIZE
from .util import round_half_up


class DetectorKind(Enum):
    DNN = "dnn"
    LSTM = "lstm"
    CNN = "cnn"
    BM_PCA = "bm_pca"
    BM_IQR = "bm_iqr"

    @property
    def label(self):
        return self.name.replace("_", " ")


LSTM_FLOOR = 16
CNN_FILTERS = (16, 32, 64, 128)
DNN_N_RANGE = (64, 200)


# The size checks of the recipes, also run by DetectorSpec.validate so that
# a config is refused before anything is generated, fitted or written.
def check_dnn_n(n):
    lo, hi = DNN_N_RANGE
    if not lo <= n <= hi:
        raise ConfigError(f"DNN n must be in [{lo}, {hi}], got {n}")


def check_lstm_n(n):
    if n < LSTM_FLOOR:
        raise ConfigError(f"LSTM n must be >= {LSTM_FLOOR}, got {n}")


def check_cnn_bottleneck(bottleneck):
    if bottleneck < 1:
        raise ConfigError(f"CNN cnn_bottleneck must be >= 1, got {bottleneck}")


def _width(v):
    return max(1, round_half_up(v))


def dnn_widths(x, n):
    """Layer width walk for the dense recipe, input to output."""
    return (x, n, _width(n / 3), _width(n / 4), _width(n / 3), n, x)


def lstm_units(n):
    """Unit counts for the eight recurrent layers."""
    divisors = (1, 2, 4, 16, 16, 4, 2, 1)
    return tuple(max(LSTM_FLOOR, round_half_up(n / d)) for d in divisors)


class Autoencoder:
    """A built recipe plus the window <-> network-input marshalling."""

    def __init__(self, kind: DetectorKind, network: Network):
        self.kind = kind
        self.network = network

    def to_inputs(self, windows: np.ndarray) -> np.ndarray:
        """(count, channels, 64) -> network input layout."""
        windows = np.asarray(windows, dtype=np.float64)
        if self.kind is DetectorKind.DNN:
            return flat_windows(windows)
        return windows.transpose(0, 2, 1)

    def fit(self, windows: np.ndarray, cfg: nn.TrainConfig) -> nn.TrainResult:
        """Train on (count, channels, 64) windows, target = input."""
        return nn.train(self.network, self.to_inputs(windows), cfg)

    def window_errors(self, windows: np.ndarray) -> np.ndarray:
        """Per-window reconstruction MSE, batched."""
        x = self.to_inputs(windows)
        if len(x) == 0:
            return np.zeros(0)
        out = self.network.predict(x)  # a new array, so reduce it in place
        if out.shape != x.shape:
            raise ShapeError(f"the {self.kind.name} network maps {x.shape} to "
                             f"{out.shape}, not back to its input's shape")
        out -= x
        out *= out
        return out.reshape(len(x), -1).mean(axis=1)

    def param_count(self) -> int:
        return self.network.param_count()

    def save(self, path):
        self.network.save(path)

    @classmethod
    def load(cls, path, kind: DetectorKind) -> "Autoencoder":
        """A saved network; the recipe is not in the file."""
        return cls(kind, Network.load(path))


def _dnn_network(x, n) -> Network:
    widths = dnn_widths(x, n)
    layers = []
    for i in range(len(widths) - 1):
        layers.append(nn.Dense(widths[i], widths[i + 1]))
        if i < len(widths) - 2:
            layers.append(nn.Tanh())
    return Network(layers)


def build_dnn(x, n=150, seed=0) -> Autoencoder:
    """Dense recipe; x is the flattened window length (64 * channels)."""
    if x < 1 or x % WINDOW_SIZE != 0:
        raise ConfigError(f"x must be a positive multiple of the window size "
                          f"{WINDOW_SIZE}, got {x}")
    check_dnn_n(n)
    net = _dnn_network(x, n).initialize(seed)
    return Autoencoder(DetectorKind.DNN, net)


def build_lstm(n=150, timesteps=WINDOW_SIZE, channels=1, seed=0) -> Autoencoder:
    """Recurrent recipe; input (timesteps, channels) per window."""
    check_lstm_n(n)
    units = lstm_units(n)
    layers = [
        nn.LSTM(channels, units[0], return_sequences=True),
        nn.LSTM(units[0], units[1], return_sequences=True),
        nn.LSTM(units[1], units[2], return_sequences=True),
        nn.LSTM(units[2], units[3], return_sequences=False),
        nn.RepeatLast(timesteps),
        nn.LSTM(units[3], units[4], return_sequences=True),
        nn.LSTM(units[4], units[5], return_sequences=True),
        nn.LSTM(units[5], units[6], return_sequences=True),
        nn.LSTM(units[6], units[7], return_sequences=True),
        nn.Dense(units[7], channels),
    ]
    net = Network(layers).initialize(seed)
    return Autoencoder(DetectorKind.LSTM, net)


def build_cnn(timesteps=WINDOW_SIZE, channels=1, bottleneck=32, seed=0) -> Autoencoder:
    """Convolutional recipe; input (timesteps, channels) per window."""
    if timesteps % 16 != 0:
        raise ConfigError(f"timesteps must be divisible by 16, got {timesteps}")
    check_cnn_bottleneck(bottleneck)
    f1, f2, f3, f4 = CNN_FILTERS
    t4 = timesteps // 16
    layers = [
        nn.Conv1D(channels, f1), nn.Tanh(), nn.MaxPool1D(2),
        nn.Conv1D(f1, f2), nn.Tanh(), nn.MaxPool1D(2),
        nn.Conv1D(f2, f3), nn.Tanh(), nn.MaxPool1D(2),
        nn.Conv1D(f3, f4), nn.Tanh(), nn.MaxPool1D(2),
        nn.Flatten(),
        nn.Dense(t4 * f4, bottleneck), nn.Tanh(),
        nn.Dense(bottleneck, t4 * f4), nn.Tanh(),
        nn.Reshape((t4, f4)),
        nn.Upsample1D(2), nn.Conv1D(f4, f4), nn.Tanh(),
        nn.Upsample1D(2), nn.Conv1D(f4, f3), nn.Tanh(),
        nn.Upsample1D(2), nn.Conv1D(f3, f2), nn.Tanh(),
        nn.Upsample1D(2), nn.Conv1D(f2, f1), nn.Tanh(),
        nn.Conv1D(f1, channels),
    ]
    net = Network(layers).initialize(seed)
    return Autoencoder(DetectorKind.CNN, net)


def _fitted(ae: Autoencoder, windows, cfg: nn.TrainConfig) -> Autoencoder:
    ae.fit(windows, cfg)
    return ae


# One row per kind: the DetectorSpec keys that its size check ``check(spec)``
# and its ``fit(spec, (count, channels, 64) windows, train config, init seed)``
# read, its ``load(path)`` and its model's file name.  The callables look each
# function up by name when called, so a wrapper rebound over a module-level
# name (as the benchmark's tracer does) is the one that runs.
Detector = namedtuple("Detector", "keys check fit load artifact")
DETECTORS = {
    DetectorKind.DNN: Detector(("n", "train"), lambda s: check_dnn_n(s.n),
        lambda s, w, cfg, seed: _fitted(build_dnn(WINDOW_SIZE * w.shape[1], s.n,
                                                  seed=seed), w, cfg),
        lambda path: Autoencoder.load(path, DetectorKind.DNN), "model.json"),
    DetectorKind.LSTM: Detector(("n", "train"), lambda s: check_lstm_n(s.n),
        lambda s, w, cfg, seed: _fitted(build_lstm(s.n, channels=w.shape[1],
                                                   seed=seed), w, cfg),
        lambda path: Autoencoder.load(path, DetectorKind.LSTM), "model.json"),
    DetectorKind.CNN: Detector(
        ("cnn_bottleneck", "train"), lambda s: check_cnn_bottleneck(s.cnn_bottleneck),
        lambda s, w, cfg, seed: _fitted(build_cnn(channels=w.shape[1], seed=seed,
                                                  bottleneck=s.cnn_bottleneck), w, cfg),
        lambda path: Autoencoder.load(path, DetectorKind.CNN), "model.json"),
    DetectorKind.BM_PCA: Detector(("variance_target",),
        lambda s: baseline.check_variance_target(s.variance_target, ConfigError),
        lambda s, w, cfg, seed: baseline.pca_fit(flat_windows(w),
                                                 variance_target=s.variance_target),
        lambda path: baseline.PcaModel.load(path), "pca.json"),
    DetectorKind.BM_IQR: Detector((), lambda s: None,
        lambda s, w, cfg, seed: baseline.iqr_fit(flat_windows(w)),
        lambda path: baseline.IqrModel.load(path), "iqr.json"),
}
