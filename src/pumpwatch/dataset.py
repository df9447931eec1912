"""Sample schema, synthetic pump-signal generator, dataset file I/O and splits.

A Dataset stores its samples as columns: ``channels`` is one
(samples, 4, length) float64 array in ``CHANNELS`` order, and each scalar
field of SensorSample is a 1-D array attribute of the same name.  Only this
module indexes the channel axis by number; others ask for a channel by name
(``Dataset.channel_view``).  SensorSample is the row view: iterating a
Dataset yields one per row, with Python scalars and channels that are views
into ``channels``, and ``Dataset(samples=rows)`` stacks rows into columns.

The synthetic generator models a pump running at one of five drive
frequencies: every channel is a small harmonic series at multiples of the
drive frequency plus Gaussian noise, and an anomaly changes the load by
boosting the 2nd harmonic and the noise floor.  Datasets round-trip through
a line-oriented JSON text format, and `split` carves out the healthy-only
train/threshold portions that the detectors are allowed to see.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetFormatError, ShapeError, SplitError
from .rng import SplitMix64, derive_seed
from .util import (check_keys, check_types_and_finiteness, field_types, round_half_up,
                   typed_fields, typed_value, unique_keys)

OPERATING_FREQS_HZ = (50, 100, 150, 200, 250)
CHANNEL_LENGTH = 1024
AUDIO_RATE_HZ = 16000.0
VIB_RATE_HZ = 6664.0

# Channel name -> sampling rate; also fixes the serialization order.
CHANNELS = {
    "audio": AUDIO_RATE_HZ,
    "vib_x": VIB_RATE_HZ,
    "vib_y": VIB_RATE_HZ,
    "vib_z": VIB_RATE_HZ,
}

_FORMAT_TAG = "pumpwatch-dataset-v2"

# generate_synthetic draws this many samples' streams at once, so that its
# transient arrays stay a fixed size however large the dataset.
GENERATE_BLOCK = 16


@dataclass(eq=False)
class SensorSample:
    """One recording, four 1024-point channels plus its id, time, drive
    frequency and label: a Dataset's row view."""

    sample_id: int
    timestamp: float
    operating_freq_hz: int
    audio: np.ndarray
    vib_x: np.ndarray
    vib_y: np.ndarray
    vib_z: np.ndarray
    is_anomaly: bool = False


def _scalars() -> dict:
    """Each scalar field of SensorSample, in field order, and its column dtype."""
    return {name: {int: np.int64, float: np.float64, bool: np.bool_}[tp]
            for name, tp in field_types(SensorSample).items() if name not in CHANNELS}


class Dataset:
    """Samples as columns, with provenance; see the module docstring.

    ``Dataset(samples=rows)`` stacks SensorSample rows, all of whose
    channels must have the first row's audio shape."""

    def __init__(self, samples=None, provenance="synthetic", generator_seed=None, *,
                 channels=None, **scalars):
        if samples is not None:
            channels, scalars = _stack(list(samples))
        self.channels, self.provenance, self.generator_seed = channels, provenance, generator_seed
        for name in _scalars():
            setattr(self, name, scalars[name])

    def __len__(self):
        return len(self.sample_id)

    def __iter__(self):
        names = list(_scalars())
        for values, chans in zip(zip(*(getattr(self, n).tolist() for n in names)), self.channels):
            yield SensorSample(**dict(zip(names, values)), **dict(zip(CHANNELS, chans)))

    def __eq__(self, other):
        return (isinstance(other, Dataset) and (self.provenance, self.generator_seed)
                == (other.provenance, other.generator_seed)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ["channels", *_scalars()]))

    def channel_view(self, name) -> np.ndarray:
        """The (samples, length) view of the channel ``name`` of CHANNELS."""
        return self.channels[:, list(CHANNELS).index(name)]

    def take(self, rows) -> Dataset:
        """A copy holding the given rows, in the given order."""
        return Dataset(provenance=self.provenance, generator_seed=self.generator_seed,
                       channels=self.channels[rows],
                       **{name: getattr(self, name)[rows] for name in _scalars()})

    def validate(self, first_line=None):
        """Raise DatasetFormatError at the first row that breaks a rule of
        docs/dataset-format.md, naming its sample, its first broken rule and,
        if row 0 is line ``first_line`` of a file, its line.  A bad header
        field is an error before any row."""
        _check_header(self.provenance, self.generator_seed)
        ids, freqs, length = self.sample_id, self.operating_freq_hz, self.channels.shape[2]
        finite = np.isfinite(self.channels).all(axis=2)
        rules = [(np.r_[False, ids[1:] <= ids[:-1]],
                  lambda i: f"sample_id {ids[i]} not greater than previous {ids[i - 1]}"),
                 (~np.isin(freqs, OPERATING_FREQS_HZ),
                  lambda i: f"operating_freq_hz {freqs[i]} not in {OPERATING_FREQS_HZ}"),
                 (~np.isfinite(self.timestamp), lambda i: "timestamp is not finite"),
                 (np.full(len(self), length != CHANNEL_LENGTH),
                  lambda i: f"channel audio has length {length}, expected {CHANNEL_LENGTH}"),
                 (~finite.all(axis=1), lambda i: f"channel {list(CHANNELS)[finite[i].argmin()]} "
                                                 "contains non-finite values")]
        faults = [(int(np.flatnonzero(bad)[0]), message) for bad, message in rules if bad.any()]
        if faults:
            row, message = min(faults, key=lambda fault: fault[0])
            raise DatasetFormatError(f"sample {ids[row]}: {message(row)}",
                                     line_number=None if first_line is None else first_line + row)


def _check_header(provenance, generator_seed, line_number=None):
    """Raise DatasetFormatError unless provenance is a string and
    generator_seed an integer or None."""
    error = functools.partial(DatasetFormatError, line_number=line_number)
    typed_value(provenance, str, "provenance", error)
    if generator_seed is not None:
        typed_value(generator_seed, int, "generator_seed", error)


def _stack(samples):
    """The channel array and the scalar columns of SensorSample rows."""
    want = np.shape(samples[0].audio) if samples else (CHANNEL_LENGTH,)
    channels = np.empty((len(samples), len(CHANNELS)) + want)
    for s, row in zip(samples, channels):
        for name, out in zip(CHANNELS, row):
            if np.shape(getattr(s, name)) != want:
                raise ShapeError(f"sample {s.sample_id}: channel {name} has shape "
                                 f"{np.shape(getattr(s, name))}, sample "
                                 f"{samples[0].sample_id}'s audio has {want}")
            out[...] = getattr(s, name)
    return channels, {name: np.array([getattr(s, name) for s in samples], dtype=dtype)
                      for name, dtype in _scalars().items()}


@dataclass
class SplitSpec:
    """Healthy-data split fractions for train and threshold; eval gets the
    healthy share they leave and every anomalous sample."""

    train_frac: float = 0.6
    threshold_frac: float = 0.2

    def validate(self):
        check_types_and_finiteness(self)
        if self.train_frac <= 0 or self.threshold_frac <= 0:
            raise ConfigError("split fractions must be positive")
        if self.train_frac + self.threshold_frac >= 1:
            raise ConfigError(f"train_frac {self.train_frac} + threshold_frac "
                              f"{self.threshold_frac} must be below 1, so eval keeps a share")


@dataclass
class GeneratorConfig:
    n_samples_per_condition: int = 100
    anomaly_fraction: float = 0.5
    base_amplitude: float = 1.0
    harmonic_count: int = 3
    noise_std: float = 0.1
    anomaly_harmonic_gain: float = 1.5
    anomaly_noise_gain: float = 2.0
    seed: int = 0

    def validate(self):
        check_types_and_finiteness(self)
        if self.n_samples_per_condition < 1:
            raise ConfigError("n_samples_per_condition must be >= 1")
        if not 0.0 <= self.anomaly_fraction <= 1.0:
            raise ConfigError("anomaly_fraction must be in [0, 1]")
        if self.harmonic_count < 1:
            raise ConfigError("harmonic_count must be >= 1")
        if self.anomaly_harmonic_gain <= 0 or self.anomaly_noise_gain <= 0:
            raise ConfigError("anomaly gains must be > 0")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")


def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset: equal (config, seed) gives equal bytes.

    Per condition, round-half-up(anomaly_fraction * n) samples are anomalous,
    and the ``"schedule"`` stream shuffles the order of all conditions'
    samples.  Each channel is sum over h = 1..harmonic_count of
    (base_amplitude / h) * sin(2*pi*h*f*t + phase) sampled at the channel
    rate, plus N(0, noise_std) noise.  Anomalies multiply the 2nd-harmonic
    amplitude and the noise level.  Sample ``i`` draws its channel ``ci``
    phases from stream ``"phase", i, ci`` and its noise from ``"noise", i,
    ci``, so the stream layout is stable under config changes elsewhere.
    ``docs/prng.md`` lists every stream.  The streams of up to
    ``GENERATE_BLOCK`` samples are drawn as one block per channel; each row
    equals its sample's own stream.
    """
    config.validate()
    schedule = []
    for freq in OPERATING_FREQS_HZ:
        n = config.n_samples_per_condition
        n_anom = round_half_up(config.anomaly_fraction * n)
        schedule.extend([(freq, True)] * n_anom)
        schedule.extend([(freq, False)] * (n - n_anom))
    SplitMix64(derive_seed(config.seed, "schedule")).shuffle(schedule)

    n = len(schedule)
    ids = np.arange(n, dtype=np.int64)
    freq_hz = np.array([freq for freq, _ in schedule], dtype=np.int64)
    anomalous = np.array([is_anom for _, is_anom in schedule], dtype=np.bool_)
    channels = np.empty((n, len(CHANNELS), CHANNEL_LENGTH))
    # derive_seed(seed, "phase", i, ci) == derive_seed(phase_root, i, ci).
    phase_root, noise_root = (derive_seed(config.seed, tag) for tag in ("phase", "noise"))
    for start in range(0, n, GENERATE_BLOCK):
        rows = range(start, min(start + GENERATE_BLOCK, n))
        block = slice(rows.start, rows.stop)
        freqs = freq_hz[block, None].astype(np.float64)
        anom = anomalous[block, None]
        for ci, rate in enumerate(CHANNELS.values()):
            t = np.arange(CHANNEL_LENGTH, dtype=np.float64) / rate
            phases = 2.0 * np.pi * SplitMix64(
                [derive_seed(phase_root, i, ci) for i in rows]).uniforms(config.harmonic_count)
            sig = np.zeros((len(rows), CHANNEL_LENGTH))
            for h in range(1, config.harmonic_count + 1):
                amp = config.base_amplitude / h
                if h == 2:
                    amp = np.where(anom, amp * config.anomaly_harmonic_gain, amp)
                sig += amp * np.sin(2.0 * np.pi * h * freqs * t + phases[:, h - 1:h])
            # noise_std * gain > 0 exactly when noise_std > 0: gains are > 0.
            if config.noise_std > 0:
                std = config.noise_std * np.where(anom, config.anomaly_noise_gain, 1.0)
                sig = sig + std * SplitMix64(
                    [derive_seed(noise_root, i, ci) for i in rows]).normals(CHANNEL_LENGTH)
            channels[block, ci] = sig
    return Dataset(provenance="synthetic", generator_seed=config.seed, channels=channels,
                   sample_id=ids, timestamp=1_700_000_000.0 + 60.0 * ids,
                   operating_freq_hz=freq_hz, is_anomaly=anomalous)


def save_dataset(ds: Dataset, path):
    """Write one header line plus one JSON object per sample.

    Floats are serialized with Python's shortest-round-trip repr, so the
    file reloads to bit-identical values.
    """
    ds.validate()
    with open(path, "w") as f:
        header = {"format": _FORMAT_TAG, "provenance": ds.provenance,
                  "generator_seed": ds.generator_seed}
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for s in ds:
            obj = {name: getattr(s, name) for name in _scalars()}
            obj.update((name, getattr(s, name).tolist()) for name in CHANNELS)
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_dataset(path) -> Dataset:
    """Parse and strictly validate a dataset file, one line into one row.

    Each rule of docs/dataset-format.md that a line breaks raises
    DatasetFormatError naming the line."""
    with open(path) as f:
        header_line = f.readline()
        if not header_line:
            raise DatasetFormatError("empty file", line_number=1)
        try:
            header = json.loads(header_line, object_pairs_hook=unique_keys)
        except ValueError as e:
            raise DatasetFormatError(f"header is not valid JSON: {e}", line_number=1)
        if not isinstance(header, dict):
            raise DatasetFormatError("header is not a JSON object", line_number=1)
        found = header.get("format")
        if found != _FORMAT_TAG:
            hint = ("; docs/dataset-format.md says how to convert a v1 file"
                    if found == "pumpwatch-dataset-v1" else "")
            raise DatasetFormatError(f"format tag {found!r}, expected {_FORMAT_TAG!r}{hint}",
                                     line_number=1)
        check_keys(header, ("format", "provenance", "generator_seed"), "the header",
                   functools.partial(DatasetFormatError, line_number=1))
        provenance, generator_seed = header.get("provenance", "file"), header.get("generator_seed")
        _check_header(provenance, generator_seed, line_number=1)
        n = sum(1 for _ in f)
        f.seek(0)
        f.readline()
        scalars = {name: np.empty(n, dtype=dtype) for name, dtype in _scalars().items()}
        channels = np.empty((n, len(CHANNELS), CHANNEL_LENGTH))
        for row, line in enumerate(f):
            try:
                _read_row(line, row, scalars, channels)
            except DatasetFormatError as e:
                raise DatasetFormatError(str(e), line_number=row + 2) from None
    ds = Dataset(provenance=provenance, generator_seed=generator_seed, channels=channels,
                 **scalars)
    ds.validate(first_line=2)
    return ds


def _read_row(line, row, scalars, channels):
    """Parse one sample line into row ``row`` of the columns."""
    if not line.strip():
        raise DatasetFormatError("blank line")
    try:
        obj = json.loads(line, object_pairs_hook=unique_keys)
    except ValueError as e:
        raise DatasetFormatError(f"not valid JSON: {e}")
    types = field_types(SensorSample)
    obj = typed_fields(obj, types, "the sample", DatasetFormatError, required=types)
    for name, column in scalars.items():
        try:
            column[row] = obj[name]
        except OverflowError:
            raise DatasetFormatError(f"{name} is outside the {column.dtype} range, "
                                     f"got {obj[name]!r:.40}")
    for name, out in zip(CHANNELS, channels[row]):
        if obj[name].shape != out.shape:
            raise DatasetFormatError(f"sample {obj['sample_id']}: channel {name} has "
                                     f"shape {obj[name].shape}, expected {out.shape}")
        out[...] = obj[name]


def split(ds: Dataset, spec: SplitSpec, seed: int):
    """Partition into (train, threshold_set, eval_set), each in sample_id order.

    Train and threshold hold only healthy samples; eval gets every anomalous
    sample plus the remaining healthy fraction.  Per operating frequency,
    the healthy rows are shuffled in sample_id order, so no channel value
    can move a row between parts.  Every row lands in exactly one part.
    """
    spec.validate()
    order = np.argsort(ds.sample_id, kind="stable")
    healthy, freqs = ~ds.is_anomaly[order], ds.operating_freq_hz[order]
    if healthy.sum() < 3:
        raise SplitError(f"need at least 3 healthy samples, got {healthy.sum()}")
    parts = ([], [], [])  # positions in ``order``, so sorting them sorts by id
    for freq in sorted(set(freqs.tolist())):
        group = np.flatnonzero(healthy & (freqs == freq)).tolist()
        SplitMix64(derive_seed(seed, "split", freq)).shuffle(group)
        n = len(group)
        n_train = min(round_half_up(spec.train_frac * n), n)
        n_thr = min(round_half_up(spec.threshold_frac * n), n - n_train)
        for part, cut in zip(parts, np.split(group, [n_train, n_train + n_thr])):
            part.extend(cut)
    parts[2].extend(np.flatnonzero(~healthy).tolist())
    return tuple(ds.take(order[sorted(part)]) for part in parts)
