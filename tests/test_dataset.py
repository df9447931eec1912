"""Generator, file format and split tests.

The generator oracle is an independent least-squares sinusoid fit: a clean
generated channel must be exactly a harmonic series at the drive frequency,
so fitting sin/cos columns recovers the configured amplitudes with ~zero
residual without reusing any generator code.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from pumpwatch.dataset import (CHANNEL_LENGTH, CHANNELS, GENERATE_BLOCK, Dataset,
                               GeneratorConfig, OPERATING_FREQS_HZ, SensorSample,
                               SplitSpec, generate_synthetic, load_dataset,
                               save_dataset, split)
from pumpwatch.errors import ConfigError, DatasetFormatError, SplitError
from pumpwatch.rng import SplitMix64, derive_seed
from pumpwatch.util import round_half_up


def _fit_tone(x, freq_hz, rate_hz, harmonics=(1,)):
    """Least-squares fit of sin/cos pairs; returns (amplitudes, rms residual)."""
    t = np.arange(len(x)) / rate_hz
    cols = []
    for h in harmonics:
        w = 2.0 * np.pi * h * freq_hz
        cols += [np.sin(w * t), np.cos(w * t)]
    a = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(a, x, rcond=None)
    amps = [float(np.hypot(coef[2 * i], coef[2 * i + 1])) for i in range(len(harmonics))]
    resid = x - a @ coef
    return amps, float(np.sqrt(np.mean(resid * resid)))


# ---------------------------------------------------------------- generator

def test_generator_counts_and_schedule():
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=6,
                                            anomaly_fraction=0.5, seed=3))
    assert len(ds) == 30
    assert [s.sample_id for s in ds] == list(range(30))
    for freq in OPERATING_FREQS_HZ:
        group = [s for s in ds if s.operating_freq_hz == freq]
        assert len(group) == 6
        assert sum(s.is_anomaly for s in group) == 3


@pytest.mark.parametrize("frac,expect_anom", [(0.0, 0), (0.25, 1), (0.5, 2),
                                              (0.7, 3), (1.0, 4)])
def test_generator_anomaly_rounding(frac, expect_anom):
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=4,
                                            anomaly_fraction=frac, seed=0))
    for freq in OPERATING_FREQS_HZ:
        group = [s for s in ds if s.operating_freq_hz == freq]
        assert sum(s.is_anomaly for s in group) == expect_anom


def test_generator_deterministic():
    cfg = GeneratorConfig(n_samples_per_condition=3, seed=17)
    assert generate_synthetic(cfg) == generate_synthetic(cfg)
    other = generate_synthetic(GeneratorConfig(n_samples_per_condition=3, seed=18))
    assert generate_synthetic(cfg) != other


def test_generator_sample_fields():
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=2, seed=1))
    for i, s in enumerate(ds):
        assert s.timestamp == 1_700_000_000.0 + 60.0 * i
        for name in CHANNELS:
            ch = getattr(s, name)
            assert ch.shape == (CHANNEL_LENGTH,) and np.isfinite(ch).all()


def test_clean_channel_is_a_pure_sine():
    # no noise, one harmonic: the fit recovers amplitude 1 with zero residual
    cfg = GeneratorConfig(n_samples_per_condition=2, anomaly_fraction=0.0,
                          harmonic_count=1, noise_std=0.0, seed=5)
    for s in generate_synthetic(cfg):
        for name, rate in CHANNELS.items():
            amps, resid = _fit_tone(getattr(s, name), s.operating_freq_hz, rate)
            assert abs(amps[0] - 1.0) < 1e-9
            assert resid < 1e-9


def test_harmonic_series_amplitudes_and_anomaly_gain():
    base = dict(n_samples_per_condition=2, harmonic_count=3, noise_std=0.0,
                base_amplitude=2.0, anomaly_harmonic_gain=1.5, seed=9)
    healthy = generate_synthetic(GeneratorConfig(anomaly_fraction=0.0, **base))
    anom = generate_synthetic(GeneratorConfig(anomaly_fraction=1.0, **base))
    for ds, h2_amp in ((healthy, 1.0), (anom, 1.5)):
        for s in ds:
            amps, resid = _fit_tone(s.audio, s.operating_freq_hz, CHANNELS["audio"],
                                    harmonics=(1, 2, 3))
            assert resid < 1e-9
            assert np.allclose(amps, [2.0, h2_amp, 2.0 / 3.0], atol=1e-9)


def test_anomaly_noise_gain_is_exact_doubling():
    # zero carrier isolates the noise; the anomalous stream reuses the same
    # derived seed, so gain 2.0 must scale it exactly
    base = dict(n_samples_per_condition=1, base_amplitude=0.0, noise_std=0.3,
                harmonic_count=1, anomaly_noise_gain=2.0, seed=4)
    healthy = generate_synthetic(GeneratorConfig(anomaly_fraction=0.0, **base))
    anom = generate_synthetic(GeneratorConfig(anomaly_fraction=1.0, **base))
    for sh, sa in zip(healthy, anom):
        assert sh.operating_freq_hz == sa.operating_freq_hz
        for name in CHANNELS:
            assert np.array_equal(getattr(sa, name), 2.0 * getattr(sh, name))


def _reference_samples(cfg):
    """The dataset built one sample and one stream at a time, as docs/prng.md
    specifies: yields (freq, is_anomaly, channels) per sample."""
    schedule = []
    for freq in OPERATING_FREQS_HZ:
        n = cfg.n_samples_per_condition
        n_anom = round_half_up(cfg.anomaly_fraction * n)
        schedule += [(freq, True)] * n_anom + [(freq, False)] * (n - n_anom)
    SplitMix64(derive_seed(cfg.seed, "schedule")).shuffle(schedule)
    for i, (freq, is_anom) in enumerate(schedule):
        chans = {}
        for ci, (name, rate) in enumerate(CHANNELS.items()):
            t = np.arange(CHANNEL_LENGTH, dtype=np.float64) / rate
            phases = 2.0 * np.pi * SplitMix64(
                derive_seed(cfg.seed, "phase", i, ci)).uniforms(cfg.harmonic_count)
            sig = np.zeros(CHANNEL_LENGTH)
            for h in range(1, cfg.harmonic_count + 1):
                amp = cfg.base_amplitude / h
                if is_anom and h == 2:
                    amp *= cfg.anomaly_harmonic_gain
                sig += amp * np.sin(2.0 * np.pi * h * freq * t + phases[h - 1])
            std = cfg.noise_std * (cfg.anomaly_noise_gain if is_anom else 1.0)
            if std > 0:
                sig = sig + std * SplitMix64(
                    derive_seed(cfg.seed, "noise", i, ci)).normals(CHANNEL_LENGTH)
            chans[name] = sig
        yield freq, is_anom, chans


@pytest.mark.parametrize("overrides", [
    dict(noise_std=0.0),
    dict(harmonic_count=1),
    dict(harmonic_count=5),
    dict(anomaly_fraction=0.0),
    dict(anomaly_fraction=1.0),
    dict(seed=2**63 + 5),
    dict(n_samples_per_condition=GENERATE_BLOCK // 5 + 3, anomaly_noise_gain=1.4,
         base_amplitude=0.25, noise_std=0.5, anomaly_harmonic_gain=1.05),
], ids=["no-noise", "one-harmonic", "five-harmonics", "no-anomalies",
        "all-anomalies", "seed-above-2**63", "more-than-one-block"])
def test_generator_equals_per_sample_reference(overrides):
    cfg = GeneratorConfig(**{"n_samples_per_condition": 2, "seed": 8, **overrides})
    ds = generate_synthetic(cfg)
    ref = list(_reference_samples(cfg))
    assert len(ds) == len(ref)
    for s, (freq, is_anom, chans) in zip(ds, ref):
        assert (s.operating_freq_hz, s.is_anomaly) == (freq, is_anom)
        for name in CHANNELS:
            assert getattr(s, name).tobytes() == chans[name].tobytes(), name


def test_generator_memory_is_bounded_by_its_output():
    # samples are drawn in fixed blocks, so transient arrays do not grow
    # with the dataset; drawing all samples at once peaked at 2x the output
    tracemalloc.start()
    try:
        ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    channel_bytes = sum(getattr(s, name).nbytes for s in ds for name in CHANNELS)
    assert peak <= 1.25 * channel_bytes


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(GeneratorConfig(n_samples_per_condition=0))
    with pytest.raises(ConfigError):
        generate_synthetic(GeneratorConfig(anomaly_fraction=1.5))
    with pytest.raises(ConfigError):
        generate_synthetic(GeneratorConfig(harmonic_count=0))
    with pytest.raises(ConfigError):
        generate_synthetic(GeneratorConfig(noise_std=-0.1))
    with pytest.raises(ConfigError):
        generate_synthetic(GeneratorConfig(anomaly_noise_gain=0.0))


# ---------------------------------------------------------------- file I/O

def test_roundtrip_identity(tmp_path):
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=3, seed=2))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_roundtrip_is_byte_deterministic(tmp_path):
    cfg = GeneratorConfig(n_samples_per_condition=2, seed=6)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(generate_synthetic(cfg), p1)
    save_dataset(generate_synthetic(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_carries_provenance(tmp_path):
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=1, seed=8))
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.provenance == "synthetic"
    assert loaded.generator_seed == 8


def test_resave_of_a_loaded_file_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(generate_synthetic(GeneratorConfig(n_samples_per_condition=2, seed=3)), p1)
    save_dataset(load_dataset(p1), p2)
    assert p2.read_bytes() == p1.read_bytes()


def test_rows_stack_back_into_the_same_columns():
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=2, seed=4))
    rows = list(ds)
    assert all(np.shares_memory(s.vib_y, ds.channels) for s in rows)
    assert Dataset(samples=rows, provenance=ds.provenance,
                   generator_seed=ds.generator_seed) == ds
    assert np.array_equal(ds.channel_view("vib_y"), np.stack([s.vib_y for s in rows]))


def test_load_memory_is_bounded_by_its_output(tmp_path):
    # the rows are parsed into one preallocated array; collecting them in a
    # list and stacking it at the end peaked at about 2x the output
    path = tmp_path / "ds.jsonl"
    save_dataset(generate_synthetic(GeneratorConfig(n_samples_per_condition=100)), path)
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ds.channels.nbytes


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _sample_obj(sample_id, **overrides):
    obj = {
        "sample_id": sample_id,
        "timestamp": 0.0,
        "operating_freq_hz": 50,
        "is_anomaly": False,
    }
    for name in CHANNELS:
        obj[name] = [0.0] * CHANNEL_LENGTH
    obj.update(overrides)
    return obj


_HEADER = json.dumps({"format": "pumpwatch-dataset-v2", "provenance": "test",
                      "generator_seed": None})


def test_load_rejects_bad_header(tmp_path):
    # only a v1 tag gets the pointer to the conversion notes
    path = tmp_path / "bad.jsonl"
    _write_lines(path, ['{"format":"something-else"}'])
    with pytest.raises(DatasetFormatError, match="^line 1: format tag 'something-else', "
                                                 "expected 'pumpwatch-dataset-v2'$"):
        load_dataset(path)


@pytest.mark.parametrize("header, match", [
    ('{"provenance":"test"}', "^line 1: format tag None, expected 'pumpwatch-dataset-v2'$"),
    ('["pumpwatch-dataset-v2"]', "^line 1: header is not a JSON object$"),
], ids=["no-tag", "not-an-object"])
def test_load_rejects_a_header_without_a_tag(tmp_path, header, match):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [header])
    with pytest.raises(DatasetFormatError, match=match):
        load_dataset(path)


def test_load_refuses_a_v1_file_naming_both_tags(tmp_path):
    # v1 lines also held temperature, rotation_tag and tube_id, which nothing
    # read; such a file is refused, not converted
    v1 = _sample_obj(0, temperature=40.0, rotation_tag=False, tube_id=0)
    path = tmp_path / "v1.jsonl"
    _write_lines(path, [_HEADER.replace("dataset-v2", "dataset-v1"), json.dumps(v1)])
    with pytest.raises(DatasetFormatError, match="line 1: format tag 'pumpwatch-dataset-v1', "
                                                 "expected 'pumpwatch-dataset-v2'; "
                                                 "docs/dataset-format.md says how to convert"):
        load_dataset(path)


@pytest.mark.parametrize("lines, match", [
    ([_HEADER, json.dumps(_sample_obj(0, is_anomaly=True))[:-1] + ',"is_anomaly":false}'],
     "line 2: .*repeated key 'is_anomaly'"),
    ([_HEADER[:-1] + ',"provenance":"rig 7"}', json.dumps(_sample_obj(0))],
     "line 1: .*repeated key 'provenance'"),
], ids=["sample-line", "header"])
def test_load_refuses_a_repeated_key(tmp_path, lines, match):
    # plain json keeps the last value, which would load the line as healthy
    path = tmp_path / "bad.jsonl"
    _write_lines(path, lines)
    with pytest.raises(DatasetFormatError, match=match):
        load_dataset(path)


@pytest.mark.parametrize("fields, match", [
    ({"provenance": [1, 2]}, "provenance must be a string"),
    ({"provenance": None}, "provenance must be a string"),
    ({"generator_seed": "seven"}, "generator_seed must be an integer"),
    ({"generator_seed": 7.5}, "generator_seed must be an integer"),
    ({"generator_seed": True}, "generator_seed must be an integer"),
])
def test_load_rejects_mistyped_header_fields(tmp_path, fields, match):
    header = {"format": "pumpwatch-dataset-v2", "provenance": "test", "generator_seed": 7}
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [json.dumps({**header, **fields}), json.dumps(_sample_obj(0))])
    with pytest.raises(DatasetFormatError, match=f"line 1: {match}"):
        load_dataset(path)


@pytest.mark.parametrize("fields, match", [
    ({"provenance": [1, 2]}, "provenance must be a string"),
    ({"generator_seed": "seven"}, "generator_seed must be an integer"),
])
def test_save_refuses_mistyped_header_fields(tmp_path, fields, match):
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=1, seed=9))
    for name, value in fields.items():
        setattr(ds, name, value)
    path = tmp_path / "bad.jsonl"
    with pytest.raises(DatasetFormatError, match=match):
        save_dataset(ds, path)
    assert not path.exists()


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(path)


def test_load_rejects_invalid_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(_sample_obj(0)), "{not json"])
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(path)


def test_load_rejects_blank_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, "", json.dumps(_sample_obj(0))])
    with pytest.raises(DatasetFormatError, match="line 2.*blank"):
        load_dataset(path)


def test_load_rejects_non_object_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, "[1,2,3]"])
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_load_rejects_unknown_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(_sample_obj(0, extra=1))])
    with pytest.raises(DatasetFormatError, match="line 2.*extra"):
        load_dataset(path)


def test_load_rejects_missing_field(tmp_path):
    obj = _sample_obj(0)
    del obj["timestamp"]
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError, match="line 2.*timestamp"):
        load_dataset(path)


# SensorSample gives this field a default; a file must still carry it, or
# a line without is_anomaly would load as a healthy sample.
@pytest.mark.parametrize("name", ["is_anomaly"])
def test_load_rejects_missing_defaulted_field(tmp_path, name):
    obj = _sample_obj(0)
    del obj[name]
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError,
                       match=f"^line 2: the sample lacks the keys \\['{name}'\\]$"):
        load_dataset(path)


def test_load_rejects_short_channel_citing_sample(tmp_path):
    obj = _sample_obj(5, audio=[0.0] * 1023)
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError, match="line 2.*sample 5.*audio.*1023"):
        load_dataset(path)


def test_load_rejects_nonfinite_channel(tmp_path):
    obj = _sample_obj(0, vib_y=[float("nan")] * CHANNEL_LENGTH)
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError, match="line 2.*vib_y.*non-finite"):
        load_dataset(path)


def test_load_rejects_bad_frequency(tmp_path):
    obj = _sample_obj(0, operating_freq_hz=60)
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError, match="line 2.*60"):
        load_dataset(path)


@pytest.mark.parametrize("field, value", [
    ("is_anomaly", "false"),
    ("operating_freq_hz", 100.6),
    ("sample_id", 0.9),
    ("operating_freq_hz", True),
])
def test_load_rejects_wrong_scalar_type(tmp_path, field, value):
    # A cast would read "false" as anomalous, 100.6 as 100, 0.9 as 0, true as 1.
    obj = _sample_obj(0)
    obj[field] = value
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError, match=f"line 2.*{field}"):
        load_dataset(path)


@pytest.mark.parametrize("field, value", [
    ("timestamp", float("nan")),
    ("timestamp", float("inf")),
    ("timestamp", float("-inf")),
])
def test_load_rejects_nonfinite_scalar(tmp_path, field, value):
    # Python's json reads NaN and Infinity; a NaN timestamp breaks the
    # timeline's (timestamp, sample_id) order
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(_sample_obj(0)),
                        json.dumps(_sample_obj(1, **{field: value}))])
    with pytest.raises(DatasetFormatError, match=f"line 3.*sample 1.*{field}"):
        load_dataset(path)


@pytest.mark.parametrize("field, value", [
    ("sample_id", 2**63),
    ("sample_id", -2**63 - 1),
    ("operating_freq_hz", 10**30),
    ("timestamp", 10**400),
], ids=["id-2**63", "id-below-int64", "freq-10**30", "timestamp-10**400"])
def test_load_rejects_a_number_its_column_cannot_hold(tmp_path, field, value):
    obj = _sample_obj(0)
    obj[field] = value
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError, match=f"line 2.*{field}"):
        load_dataset(path)


def test_load_rejects_an_integer_too_long_to_parse(tmp_path):
    # Python's int() refuses more than 4300 digits with a ValueError that is
    # not a JSONDecodeError; it is still an error naming the line
    line = json.dumps(_sample_obj(0)).replace('"sample_id": 0', '"sample_id": ' + "9" * 5000)
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, line])
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("value", [True, "0.5", 10**400], ids=["true", "string", "10**400"])
def test_load_rejects_a_channel_value_that_is_not_a_number(tmp_path, value):
    # A cast would read true as 1.0 and "0.5" as 0.5; 10**400 overflows float64
    obj = _sample_obj(0)
    obj["audio"][7] = value
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(obj)])
    with pytest.raises(DatasetFormatError,
                       match="line 2: audio in the sample must be a list of num"):
        load_dataset(path)


def test_load_rejects_non_increasing_ids(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_HEADER, json.dumps(_sample_obj(3)), json.dumps(_sample_obj(3))])
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(path)


def test_load_full_scale_file(tmp_path):
    # 3041 samples of the production shape, built without the generator
    chan = "[" + ",".join(["0"] * CHANNEL_LENGTH) + "]"
    path = tmp_path / "big.jsonl"
    with open(path, "w") as f:
        f.write(_HEADER + "\n")
        for i in range(3041):
            f.write('{"sample_id":%d,"timestamp":%d,"operating_freq_hz":50,'
                    '"is_anomaly":false,"audio":%s,"vib_x":%s,"vib_y":%s,"vib_z":%s}\n'
                    % (i, 60 * i, chan, chan, chan, chan))
    ds = load_dataset(path)
    assert len(ds) == 3041
    assert list(ds)[-1].sample_id == 3040


def test_save_validates_first(tmp_path):
    bad = Dataset(samples=[SensorSample(
        sample_id=0, timestamp=0.0, operating_freq_hz=50,
        audio=np.zeros(10), vib_x=np.zeros(10), vib_y=np.zeros(10), vib_z=np.zeros(10))])
    with pytest.raises(DatasetFormatError, match="audio"):
        save_dataset(bad, tmp_path / "x.jsonl")


def test_save_rejects_a_nonfinite_scalar(tmp_path):
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=1, seed=8))
    rows = list(ds)
    rows[3] = dataclasses.replace(rows[3], timestamp=float("nan"))
    with pytest.raises(DatasetFormatError, match="sample 3: timestamp"):
        save_dataset(Dataset(samples=rows), tmp_path / "x.jsonl")


def test_validate_names_the_first_offending_sample_and_channel():
    rows = list(generate_synthetic(GeneratorConfig(n_samples_per_condition=1, seed=8)))
    rows[1] = dataclasses.replace(rows[1], operating_freq_hz=60)
    bad = rows[0].vib_z.copy()
    bad[7] = np.inf
    rows[0] = dataclasses.replace(rows[0], vib_z=bad)
    with pytest.raises(DatasetFormatError, match="sample 0: channel vib_z"):
        Dataset(samples=rows).validate()
    rows[0] = dataclasses.replace(rows[0], vib_z=rows[2].vib_z)
    with pytest.raises(DatasetFormatError, match="sample 1: operating_freq_hz 60"):
        Dataset(samples=rows).validate()


# ---------------------------------------------------------------- split

def _gen(n_per_cond, frac, seed=0):
    return generate_synthetic(GeneratorConfig(
        n_samples_per_condition=n_per_cond, anomaly_fraction=frac, seed=seed))


def test_split_contract_counts():
    # 100 healthy + 100 anomalous at (0.6, 0.2, 0.2)
    ds = _gen(40, 0.5, seed=11)
    train, thr, ev = split(ds, SplitSpec(0.6, 0.2), seed=1)
    assert (len(train), len(thr), len(ev)) == (60, 20, 120)
    assert not any(s.is_anomaly for s in train)
    assert not any(s.is_anomaly for s in thr)
    assert sum(s.is_anomaly for s in ev) == 100


def test_split_stratified_per_condition():
    # 50 healthy per condition -> exactly 30/10/10 in every condition
    ds = _gen(50, 0.0, seed=2)
    train, thr, ev = split(ds, SplitSpec(0.6, 0.2), seed=3)
    for freq in OPERATING_FREQS_HZ:
        counts = tuple(sum(s.operating_freq_hz == freq for s in part)
                       for part in (train, thr, ev))
        assert counts == (30, 10, 10)


def test_split_partition_disjoint_exhaustive_sorted():
    ds = _gen(7, 0.4, seed=5)
    train, thr, ev = split(ds, SplitSpec(), seed=9)
    parts = [[s.sample_id for s in p] for p in (train, thr, ev)]
    for ids in parts:
        assert ids == sorted(ids)
    all_ids = sum(parts, [])
    assert sorted(all_ids) == [s.sample_id for s in ds]
    assert len(set(all_ids)) == len(all_ids)


def test_split_no_anomalous_leak_across_seeds():
    ds = _gen(5, 0.6, seed=8)
    for seed in range(25):
        train, thr, _ = split(ds, SplitSpec(), seed=seed)
        assert not any(s.is_anomaly for s in train)
        assert not any(s.is_anomaly for s in thr)


def test_split_zero_anomalous_boundary():
    ds = _gen(5, 0.0, seed=1)
    train, thr, ev = split(ds, SplitSpec(), seed=0)
    assert not any(s.is_anomaly for s in ev)
    assert len(train) + len(thr) + len(ev) == len(ds)


def test_split_seed_changes_partition_but_not_counts():
    ds = _gen(20, 0.5, seed=4)
    a = split(ds, SplitSpec(), seed=1)
    b = split(ds, SplitSpec(), seed=2)
    assert [len(p) for p in a] == [len(p) for p in b]
    assert {s.sample_id for s in a[0]} != {s.sample_id for s in b[0]}
    again = split(ds, SplitSpec(), seed=1)
    assert [{s.sample_id for s in p} for p in a] == [{s.sample_id for s in p} for p in again]


def test_split_ignores_channel_data():
    # poisoning every channel must not move a single sample between parts
    ds = _gen(6, 0.5, seed=13)
    ref = split(ds, SplitSpec(), seed=7)
    poisoned = generate_synthetic(GeneratorConfig(n_samples_per_condition=6,
                                                  anomaly_fraction=0.5, seed=13))
    for s in poisoned:
        for name in CHANNELS:
            getattr(s, name)[:] = 1e300
    got = split(poisoned, SplitSpec(), seed=7)
    for p_ref, p_got in zip(ref, got):
        assert [s.sample_id for s in p_ref] == [s.sample_id for s in p_got]


def test_split_too_few_healthy():
    ds = _gen(2, 0.8, seed=0)  # 1 healthy per condition... actually rhu(1.6)=2 anom
    healthy = sum(not s.is_anomaly for s in ds)
    assert healthy < 3
    with pytest.raises(SplitError):
        split(ds, SplitSpec(), seed=0)


def test_split_spec_validation():
    with pytest.raises(ConfigError, match="positive"):
        split(_gen(2, 0.0), SplitSpec(0.0, 0.2), seed=0)
    with pytest.raises(ConfigError, match="eval keeps a share"):
        split(_gen(2, 0.0), SplitSpec(0.8, 0.2), seed=0)


def test_split_puts_every_row_in_one_part_when_ids_repeat():
    # a repeated sample_id once sent a row to every part that held its id,
    # and a healthy row at an unknown frequency went to no part
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=8, seed=7))
    rows = [dataclasses.replace(s, sample_id=s.sample_id // 2) for s in ds]
    healthy = next(i for i, s in enumerate(rows) if not s.is_anomaly)
    rows[healthy] = dataclasses.replace(rows[healthy], operating_freq_hz=60)
    parts = split(Dataset(samples=rows), SplitSpec(), seed=0)
    assert sum(len(p) for p in parts) == len(ds)
    # timestamps are unique, so they name the rows
    stamps = [s.timestamp for p in parts for s in p]
    assert sorted(stamps) == [s.timestamp for s in ds]


def _id_set_split(ds, spec, seed):
    """The split that partitioned sample ids, before it partitioned rows:
    each part's ids in order."""
    healthy = [s for s in ds if not s.is_anomaly]
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
    eval_ids.update(s.sample_id for s in ds if s.is_anomaly)
    return [sorted(ids) for ids in (train_ids, thr_ids, eval_ids)]


def _reference_split_cases():
    for n, frac, seed in ((7, 0.4, 5), (10, 0.0, 1), (10, 1.0, 2), (6, 0.9, 3), (20, 0.5, 4)):
        yield f"n{n}-frac{frac}", _gen(n, frac, seed=seed)
    # the k-th condition keeps every k-th sample id: uneven condition sizes
    yield "uneven", Dataset(samples=[
        s for s in _gen(14, 0.3, seed=6)
        if s.sample_id % (OPERATING_FREQS_HZ.index(s.operating_freq_hz) + 1) == 0])
    yield "descending-ids", Dataset(samples=[
        dataclasses.replace(s, sample_id=1000 - 3 * s.sample_id) for s in _gen(9, 0.5, 7)])


@pytest.mark.parametrize("spec", [SplitSpec(), SplitSpec(0.5, 0.25)],
                         ids=["default", "half"])
def test_split_equals_id_set_reference(spec):
    for name, ds in _reference_split_cases():
        for seed in range(20):
            try:
                want = _id_set_split(ds, spec, seed)
            except SplitError:
                with pytest.raises(SplitError):
                    split(ds, spec, seed)
                continue
            got = [p.sample_id.tolist() for p in split(ds, spec, seed)]
            assert got == want, (name, seed)
