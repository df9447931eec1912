"""Feature assembly: vibration norm, FFT magnitude, normalization, windows.

Eight feature sets are supported: the raw audio channel, the raw 3-axis
vibration channels, the per-time-index euclidean norm of those three axes
(called vib-1D; invariant under sensor rotation), the vib-1D + audio pair,
and the FFT magnitude variant of each.  Raw sets have length 1024, FFT sets
512.  Min-max normalization is fitted on train data only, one (min, max)
pair per channel pooled over all train samples and positions.  Windowing
cuts each channel into contiguous 64-point slices.

Features are whole-split arrays of shape (samples, channels, length), in
the channel order ``_BASES`` lists for the feature set; an FFT set keeps
its raw set's order.  They are cut from a split Dataset's columns: each
sensor channel is asked for by name as one (samples, length) view, so
this module never depends on the dataset's channel layout.  Every step
works on the array at once; each output element is computed by the same
floating-point operations the one-sample formula uses, so a split's
features do not depend on which other samples share the array.  Windows
of one split are one (samples * windows, channels, size) array,
sample-major: rows ``i * W .. (i + 1) * W - 1`` are sample i's windows in
time order.  They are the feature array cut and reshaped; no two windows
overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

import numpy as np

from .dataset import Dataset
from .errors import ShapeError, UsageError
from .util import JsonFields

WINDOW_SIZE = 64


class FeatureSetId(Enum):
    VIB1D = "vib1d"
    AUDIO = "audio"
    VIB3D = "vib3d"
    VIB1D_AUDIO = "vib1d_audio"
    FFT_VIB1D = "fft_vib1d"
    FFT_AUDIO = "fft_audio"
    FFT_VIB3D = "fft_vib3d"
    FFT_VIB1D_AUDIO = "fft_vib1d_audio"

    @property
    def is_fft(self):
        return self.name.startswith("FFT_")

    @property
    def base(self):
        """The raw feature set this one is the FFT of, or itself."""
        return self.name.removeprefix("FFT_")

    @property
    def label(self):
        """Human-readable name used in report tables."""
        return ("FFT " if self.is_fft else "") + _BASES[self.base][0]


# Report row order: raw sets first, then their FFT variants.
FEATURE_SET_ORDER = tuple(FeatureSetId)


# Each base feature set's report label and the raw sensor channels it reads,
# in channel order; the vib-1D channel is computed from the three vibration axes.
_BASES = {
    "VIB1D": ("Vibrations 1D", ["vib1d"]),
    "AUDIO": ("Audio", ["audio"]),
    "VIB3D": ("Vibrations 3D", ["vib_x", "vib_y", "vib_z"]),
    "VIB1D_AUDIO": ("Vibrations 1D & Audio", ["vib1d", "audio"]),
}


def _channels(fs: FeatureSetId) -> List[str]:
    return _BASES[fs.base][1]


def channel_count(fs: FeatureSetId) -> int:
    return len(_channels(fs))


def feature_length(fs: FeatureSetId) -> int:
    return 512 if fs.is_fft else 1024


@dataclass
class Normalizer(JsonFields):
    """Per-channel (min, max) fitted on the train set, and the
    ``FeatureSetId`` name of the feature set it was fitted for (empty if
    none was given)."""

    mins: np.ndarray
    maxs: np.ndarray
    feature_set: str = ""

    @classmethod
    def load(cls, path):
        """``JsonFields.load``, and no channel's max may lie below its min."""
        nz = super().load(path)
        below = np.flatnonzero(nz.maxs < nz.mins).tolist()
        if below:
            raise UsageError(f"maxs in {path} lie below mins in channels {below}")
        return nz


def vib_norm(vib_x, vib_y, vib_z) -> np.ndarray:
    """Elementwise euclidean norm of the three vibration axes.

    The norm is unchanged when the sensor is remounted in a rotated
    orientation (any orthogonal mixing of the axes), which is the point of
    the vib-1D feature.
    """
    x = np.asarray(vib_x, dtype=np.float64)
    y = np.asarray(vib_y, dtype=np.float64)
    z = np.asarray(vib_z, dtype=np.float64)
    if not (x.shape == y.shape == z.shape):
        raise ShapeError(f"vibration channels differ in shape: "
                         f"{x.shape}, {y.shape}, {z.shape}")
    return np.sqrt(x * x + y * y + z * z)


def fft_magnitude(series) -> np.ndarray:
    """First-half magnitude spectrum with 1/N scaling.

    out[k] = |sum_j series[j] * exp(-2i*pi*j*k/N)| / N for k = 0 .. N/2 - 1.
    Under this scaling a pure cosine of amplitude a lands at a/2 in its bin
    and a constant c lands at c in bin 0.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.shape[-1]
    if n < 2 or (n & (n - 1)) != 0:
        raise ShapeError(f"fft_magnitude needs a power-of-two length, got {n}")
    return np.abs(np.fft.rfft(x)[..., : n // 2]) / n


def assemble_features(ds: Dataset, fs: FeatureSetId) -> np.ndarray:
    """Build the (samples, channels, length) feature array of one split, one
    channel at a time: an FFT set holds one channel's spectrum at a time."""
    names, out = _channels(fs), None
    for c, name in enumerate(names):
        values = (vib_norm(*map(ds.channel_view, ("vib_x", "vib_y", "vib_z")))
                  if name == "vib1d" else ds.channel_view(name))
        values = fft_magnitude(values) if fs.is_fft else values
        if out is None:  # after the first channel, whose temporaries are gone
            out = np.empty((len(ds), len(names), values.shape[-1]))
        out[:, c] = values
    return out


def _check_features(arr, what) -> np.ndarray:
    try:
        arr = np.asarray(arr, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"{what} needs a (samples, channels, length) array: "
                         f"{exc}") from exc
    if arr.ndim != 3:
        raise ShapeError(f"{what} needs a (samples, channels, length) array, "
                         f"got shape {arr.shape}")
    return arr


def fit_normalizer(train, feature_set: str = "") -> Normalizer:
    """Per-channel min/max pooled over all train samples and positions;
    ``feature_set`` names the feature set they belong to."""
    train = _check_features(train, "fit_normalizer")
    if len(train) == 0:
        raise ShapeError("fit_normalizer needs at least one sample")
    return Normalizer(mins=train.min(axis=(0, 2)), maxs=train.max(axis=(0, 2)),
                      feature_set=feature_set)


def apply_normalizer(nz: Normalizer, features) -> np.ndarray:
    """Map each channel through (v - min) / (max - min).

    Values outside the train range extrapolate linearly (no clipping); a
    degenerate channel (max == min) maps to all zeros.
    """
    features = _check_features(features, "apply_normalizer")
    if features.shape[1] != nz.mins.shape[0]:
        raise ShapeError(f"normalizer has {nz.mins.shape[0]} channels, "
                         f"features have {features.shape[1]}")
    span = nz.maxs - nz.mins
    safe = np.where(span > 0, span, 1.0)
    out = features - nz.mins[:, None]
    out /= safe[:, None]
    out[:, span == 0, :] = 0.0
    return out


def window(features) -> np.ndarray:
    """Cut each channel into contiguous WINDOW_SIZE slices; drop the remainder.

    Returns (samples * windows, channels, WINDOW_SIZE), sample-major.
    """
    features = _check_features(features, "window")
    n, channels, length = features.shape
    count = length // WINDOW_SIZE
    if count == 0:
        raise ShapeError(f"feature length {length} shorter than window size "
                         f"{WINDOW_SIZE}")
    cut = features[:, :, :count * WINDOW_SIZE].reshape(n, channels, count, WINDOW_SIZE)
    return cut.transpose(0, 2, 1, 3).reshape(n * count, channels, WINDOW_SIZE)
