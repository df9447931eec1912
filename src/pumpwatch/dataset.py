"""Sample schema, synthetic pump-signal generator, dataset file I/O and splits.

A recording (SensorSample) is one 1024-point snapshot of each sensor channel
plus metadata.  The synthetic generator models a pump running at one of five
drive frequencies: every channel is a small harmonic series at multiples of
the drive frequency plus Gaussian noise, and an anomaly changes the load by
boosting the 2nd harmonic and the noise floor.  Datasets round-trip through
a line-oriented JSON text format, and `split` carves out the healthy-only
train/threshold portions that the detectors are allowed to see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, DatasetFormatError, SplitError
from .rng import SplitMix64, derive_seed
from .util import check_finite, dataclass_from_dict, round_half_up

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

_FORMAT_TAG = "pumpwatch-dataset-v1"

# generate_synthetic draws this many samples' streams at once, so that its
# transient arrays stay a fixed size however large the dataset.
GENERATE_BLOCK = 16


@dataclass
class SensorSample:
    """One recording: four 1024-point channels plus acquisition metadata."""

    sample_id: int
    timestamp: float
    operating_freq_hz: int
    audio: np.ndarray
    vib_x: np.ndarray
    vib_y: np.ndarray
    vib_z: np.ndarray
    temperature: float
    rotation_tag: bool = False
    tube_id: int = 0
    is_anomaly: bool = False

    def channel(self, name):
        return getattr(self, name)

    def __eq__(self, other):
        if not isinstance(other, SensorSample):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass
class Dataset:
    """Ordered sample collection with provenance."""

    samples: list
    provenance: str = "synthetic"
    generator_seed: Optional[int] = None

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def validate(self):
        """Check the id invariant and every sample; raise on violation."""
        prev = None
        for s in self.samples:
            if prev is not None and s.sample_id <= prev:
                raise DatasetFormatError(
                    "sample_ids must be unique and strictly increasing "
                    f"(saw {s.sample_id} after {prev})")
            prev = s.sample_id
            validate_sample(s)


@dataclass
class SplitSpec:
    """Healthy-data split fractions; anomalous samples always go to eval."""

    train_frac: float = 0.6
    threshold_frac: float = 0.2
    eval_frac: float = 0.2

    def validate(self):
        check_finite(self)
        fracs = (self.train_frac, self.threshold_frac, self.eval_frac)
        if any(f <= 0 for f in fracs):
            raise ConfigError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)}")


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
        check_finite(self)
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


def validate_sample(s: SensorSample):
    if s.operating_freq_hz not in OPERATING_FREQS_HZ:
        raise DatasetFormatError(
            f"sample {s.sample_id}: operating_freq_hz {s.operating_freq_hz} "
            f"not in {OPERATING_FREQS_HZ}")
    for name in CHANNELS:
        ch = s.channel(name)
        if len(ch) != CHANNEL_LENGTH:
            raise DatasetFormatError(
                f"sample {s.sample_id}: channel {name} has length "
                f"{len(ch)}, expected {CHANNEL_LENGTH}")
        if not np.all(np.isfinite(ch)):
            raise DatasetFormatError(
                f"sample {s.sample_id}: channel {name} contains non-finite values")


def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset: equal (config, seed) gives equal bytes.

    Per condition, round-half-up(anomaly_fraction * n) samples are anomalous,
    and the ``"schedule"`` stream shuffles the order of all conditions'
    samples.  Each channel is sum over h = 1..harmonic_count of
    (base_amplitude / h) * sin(2*pi*h*f*t + phase) sampled at the channel
    rate, plus N(0, noise_std) noise.  Anomalies multiply the 2nd-harmonic
    amplitude and the noise level.  Sample ``i`` draws its channel ``ci``
    phases from stream ``"phase", i, ci``, its noise from ``"noise", i, ci``
    and its temperature jitter from ``"temp", i``, so the stream layout is
    stable under config changes elsewhere.  ``docs/prng.md`` lists every
    stream.  The streams of up to ``GENERATE_BLOCK`` samples are drawn as
    one block per channel; each row equals its sample's own stream.
    """
    config.validate()
    schedule = []
    for freq in OPERATING_FREQS_HZ:
        n = config.n_samples_per_condition
        n_anom = round_half_up(config.anomaly_fraction * n)
        schedule.extend([(freq, True)] * n_anom)
        schedule.extend([(freq, False)] * (n - n_anom))
    SplitMix64(derive_seed(config.seed, "schedule")).shuffle(schedule)

    # derive_seed(seed, "phase", i, ci) == derive_seed(phase_root, i, ci).
    phase_root, noise_root, temp_root = (derive_seed(config.seed, tag)
                                         for tag in ("phase", "noise", "temp"))
    samples = []
    for start in range(0, len(schedule), GENERATE_BLOCK):
        ids = range(start, min(start + GENERATE_BLOCK, len(schedule)))
        freqs = np.array([schedule[i][0] for i in ids], dtype=np.float64)[:, None]
        anom = np.array([schedule[i][1] for i in ids])[:, None]
        chans = {}
        for ci, (name, rate) in enumerate(CHANNELS.items()):
            t = np.arange(CHANNEL_LENGTH, dtype=np.float64) / rate
            phases = 2.0 * np.pi * SplitMix64(
                [derive_seed(phase_root, i, ci) for i in ids]).uniforms(config.harmonic_count)
            sig = np.zeros((len(ids), CHANNEL_LENGTH))
            for h in range(1, config.harmonic_count + 1):
                amp = config.base_amplitude / h
                if h == 2:
                    amp = np.where(anom, amp * config.anomaly_harmonic_gain, amp)
                sig += amp * np.sin(2.0 * np.pi * h * freqs * t + phases[:, h - 1:h])
            # noise_std * gain > 0 exactly when noise_std > 0: gains are > 0.
            if config.noise_std > 0:
                std = config.noise_std * np.where(anom, config.anomaly_noise_gain, 1.0)
                sig = sig + std * SplitMix64(
                    [derive_seed(noise_root, i, ci) for i in ids]).normals(CHANNEL_LENGTH)
            chans[name] = sig
        temp_noise = SplitMix64([derive_seed(temp_root, i) for i in ids]).normals(1)[:, 0]
        for j, i in enumerate(ids):
            freq, is_anom = schedule[i]
            samples.append(SensorSample(
                sample_id=i,
                timestamp=1_700_000_000.0 + 60.0 * i,
                operating_freq_hz=freq,
                temperature=40.0 + 0.002 * i + 0.05 * temp_noise[j],
                is_anomaly=is_anom,
                **{name: sig[j] for name, sig in chans.items()},
            ))
    return Dataset(samples=samples, provenance="synthetic", generator_seed=config.seed)


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
        for s in ds.samples:
            obj = {f.name: getattr(s, f.name) for f in fields(s)
                   if f.name not in CHANNELS}
            for name in CHANNELS:
                obj[name] = s.channel(name).tolist()
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def load_dataset(path) -> Dataset:
    """Parse and strictly validate a dataset file.

    Any malformed line, unknown or missing field, scalar of the wrong JSON
    type, wrong channel length or non-finite value raises DatasetFormatError
    naming the offending line.
    """
    samples = []
    with open(path) as f:
        header_line = f.readline()
        if not header_line:
            raise DatasetFormatError("empty file", line_number=1)
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"header is not valid JSON: {e}", line_number=1)
        if not isinstance(header, dict) or header.get("format") != _FORMAT_TAG:
            raise DatasetFormatError(
                f"missing or unknown format tag (expected {_FORMAT_TAG!r})", line_number=1)

        prev_id = None
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                raise DatasetFormatError("blank line", line_number=lineno)
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(f"not valid JSON: {e}", line_number=lineno)
            if not isinstance(obj, dict):
                raise DatasetFormatError("sample line is not a JSON object",
                                         line_number=lineno)
            missing = {f.name for f in fields(SensorSample)} - set(obj)
            if missing:  # also the fields SensorSample gives a default
                raise DatasetFormatError(f"missing fields {sorted(missing)}",
                                         line_number=lineno)
            try:
                sample = dataclass_from_dict(
                    SensorSample, obj, "sample line", error=DatasetFormatError,
                    **{name: np.asarray(obj[name], dtype=np.float64) for name in CHANNELS})
                validate_sample(sample)
            except (TypeError, ValueError) as e:
                raise DatasetFormatError(f"bad field value: {e}", line_number=lineno)
            except DatasetFormatError as e:
                raise DatasetFormatError(str(e), line_number=lineno)
            if prev_id is not None and sample.sample_id <= prev_id:
                raise DatasetFormatError(
                    f"sample_id {sample.sample_id} not greater than previous {prev_id}",
                    line_number=lineno)
            prev_id = sample.sample_id
            samples.append(sample)

    return Dataset(samples=samples,
                   provenance=header.get("provenance", "file"),
                   generator_seed=header.get("generator_seed"))


def split(ds: Dataset, spec: SplitSpec, seed: int):
    """Partition into (train, threshold_set, eval_set).

    Train and threshold contain only healthy samples; eval gets all anomalous
    samples plus the remaining healthy fraction.  The healthy shuffle is
    stratified per operating frequency and depends only on (sample_id,
    is_anomaly, operating_freq_hz, seed), so nothing about the channel data
    can leak into the partition.
    """
    spec.validate()
    healthy = [s for s in ds.samples if not s.is_anomaly]
    anomalous = [s for s in ds.samples if s.is_anomaly]
    if len(healthy) < 3:
        raise SplitError(f"need at least 3 healthy samples, got {len(healthy)}")

    train_ids, thr_ids, eval_ids = set(), set(), set()
    for freq in OPERATING_FREQS_HZ:
        group = sorted(s.sample_id for s in healthy if s.operating_freq_hz == freq)
        if not group:
            continue
        SplitMix64(derive_seed(seed, "split", freq)).shuffle(group)
        n = len(group)
        n_train = min(round_half_up(spec.train_frac * n), n)
        n_thr = min(round_half_up(spec.threshold_frac * n), n - n_train)
        train_ids.update(group[:n_train])
        thr_ids.update(group[n_train:n_train + n_thr])
        eval_ids.update(group[n_train + n_thr:])
    eval_ids.update(s.sample_id for s in anomalous)

    def subset(ids):
        picked = sorted((s for s in ds.samples if s.sample_id in ids),
                        key=lambda s: s.sample_id)
        return Dataset(samples=picked, provenance=ds.provenance,
                       generator_seed=ds.generator_seed)

    return subset(train_ids), subset(thr_ids), subset(eval_ids)
