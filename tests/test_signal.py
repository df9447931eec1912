"""Feature pipeline tests.

The FFT oracle here is a naive O(N^2) DFT written from the definition, so
the fast implementation is checked against an independent route.
"""

import dataclasses

import numpy as np
import pytest

from pumpwatch import signal
from pumpwatch.dataset import GeneratorConfig, generate_synthetic
from pumpwatch.errors import ShapeError
from pumpwatch.signal import (FEATURE_SET_ORDER, FeatureSetId, Normalizer,
                              WINDOW_SIZE, apply_normalizer, assemble_features,
                              channel_count, feature_length, fft_magnitude,
                              fit_normalizer, vib_norm, window)


def channel_names(fs):
    """Channel names in the order of the feature array's channel axis."""
    names = signal._channels(fs)
    return ["fft_" + name for name in names] if fs.is_fft else list(names)


# ---------------------------------------------------------------- vib_norm

def test_vib_norm_pythagorean():
    out = vib_norm([3.0], [4.0], [0.0])
    assert np.allclose(out, [5.0])
    out = vib_norm([1.0, 2.0], [2.0, 3.0], [2.0, 6.0])
    assert np.allclose(out, [3.0, 7.0])


def test_vib_norm_shape_mismatch():
    with pytest.raises(ShapeError):
        vib_norm(np.zeros(4), np.zeros(4), np.zeros(5))


def test_vib_norm_rotation_invariant():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 256))
    ref = vib_norm(*v)
    for trial in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)  # orthogonal
        rot = q @ v
        assert np.allclose(vib_norm(*rot), ref, atol=1e-9)


# ---------------------------------------------------------------- fft

def _dft_mag(x):
    """Naive transform straight from the definition."""
    n = len(x)
    j = np.arange(n)
    out = np.empty(n // 2)
    for k in range(n // 2):
        re = np.sum(x * np.cos(2.0 * np.pi * j * k / n))
        im = -np.sum(x * np.sin(2.0 * np.pi * j * k / n))
        out[k] = np.hypot(re, im) / n
    return out


def test_fft_constant_lands_in_bin_zero():
    out = fft_magnitude(np.full(64, 2.5))
    assert abs(out[0] - 2.5) < 1e-12
    assert np.all(out[1:] < 1e-12)


def test_fft_pure_cosine_half_amplitude():
    n = 128
    t = np.arange(n)
    x = 3.0 * np.cos(2.0 * np.pi * 5 * t / n)
    out = fft_magnitude(x)
    assert abs(out[5] - 1.5) < 1e-12
    others = np.delete(out, 5)
    assert np.all(others < 1e-10)


@pytest.mark.parametrize("n", [8, 64, 128])
def test_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    assert np.allclose(fft_magnitude(x), _dft_mag(x), atol=1e-9)


def test_fft_batched_last_axis():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 64))
    out = fft_magnitude(x)
    assert out.shape == (3, 32)
    for row_in, row_out in zip(x, out):
        assert np.allclose(row_out, _dft_mag(row_in), atol=1e-9)


@pytest.mark.parametrize("n", [0, 1, 100, 1000, 1023])
def test_fft_rejects_non_power_of_two(n):
    with pytest.raises(ShapeError):
        fft_magnitude(np.zeros(n))


def test_fft_magnitude_bound():
    # |X_k| / N can never exceed mean |x|
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=256) * rng.uniform(0.1, 10)
        out = fft_magnitude(x)
        assert out.max() <= np.abs(x).mean() + 1e-12


# ---------------------------------------------------------------- assembly

@pytest.fixture(scope="module")
def one_sample():
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=1, seed=3))
    return ds.samples[0]


@pytest.fixture(scope="module")
def five_samples():
    return generate_synthetic(GeneratorConfig(n_samples_per_condition=1, seed=3)).samples


def test_feature_set_catalogue():
    assert len(FEATURE_SET_ORDER) == 8
    counts = [channel_count(fs) for fs in FEATURE_SET_ORDER]
    assert counts == [1, 1, 3, 2, 1, 1, 3, 2]
    lengths = [feature_length(fs) for fs in FEATURE_SET_ORDER]
    assert lengths == [1024, 1024, 1024, 1024, 512, 512, 512, 512]
    # report row order and labels: raw sets first, then their FFT variants
    assert [fs.label for fs in FEATURE_SET_ORDER] == [
        "Vibrations 1D", "Audio", "Vibrations 3D", "Vibrations 1D & Audio",
        "FFT Vibrations 1D", "FFT Audio", "FFT Vibrations 3D",
        "FFT Vibrations 1D & Audio"]


def test_assemble_shapes_all_sets(one_sample, five_samples):
    for fs in FEATURE_SET_ORDER:
        fm = assemble_features([one_sample], fs)
        assert fm.shape == (1, channel_count(fs), feature_length(fs))
        assert len(channel_names(fs)) == channel_count(fs)
        assert np.isfinite(fm).all()
        # row i of a split's array is sample i
        many = assemble_features(five_samples, fs)
        assert many.shape == (5, channel_count(fs), feature_length(fs))
        assert np.array_equal(many[2], assemble_features([five_samples[2]], fs)[0])


def test_assemble_vib1d_is_vib_norm(one_sample):
    fm = assemble_features([one_sample], FeatureSetId.VIB1D)[0]
    want = vib_norm(one_sample.vib_x, one_sample.vib_y, one_sample.vib_z)
    assert np.array_equal(fm[0], want)
    assert channel_names(FeatureSetId.VIB1D) == ["vib1d"]


def test_assemble_channel_order(one_sample):
    fm = assemble_features([one_sample], FeatureSetId.VIB1D_AUDIO)[0]
    assert channel_names(FeatureSetId.VIB1D_AUDIO) == ["vib1d", "audio"]
    assert np.array_equal(fm[1], one_sample.audio)

    fm3 = assemble_features([one_sample], FeatureSetId.VIB3D)[0]
    assert channel_names(FeatureSetId.VIB3D) == ["vib_x", "vib_y", "vib_z"]
    assert np.array_equal(fm3[1], one_sample.vib_y)


def test_assemble_fft_applies_per_channel(one_sample):
    fm = assemble_features([one_sample], FeatureSetId.FFT_VIB3D)[0]
    assert channel_names(FeatureSetId.FFT_VIB3D) == ["fft_vib_x", "fft_vib_y", "fft_vib_z"]
    assert np.allclose(fm[1], fft_magnitude(one_sample.vib_y))

    pair = assemble_features([one_sample], FeatureSetId.FFT_VIB1D_AUDIO)[0]
    assert channel_names(FeatureSetId.FFT_VIB1D_AUDIO) == ["fft_vib1d", "fft_audio"]
    v1d = vib_norm(one_sample.vib_x, one_sample.vib_y, one_sample.vib_z)
    assert np.allclose(pair[0], fft_magnitude(v1d))


def test_assemble_names_the_sample_with_a_different_channel_length(five_samples):
    short = dataclasses.replace(five_samples[3], audio=five_samples[3].audio[:1000])
    samples = five_samples[:3] + [short] + five_samples[4:]
    for fs in (FeatureSetId.AUDIO, FeatureSetId.VIB1D_AUDIO,
               FeatureSetId.FFT_VIB1D_AUDIO):
        with pytest.raises(ShapeError, match=f"sample {short.sample_id}: channel audio"):
            assemble_features(samples, fs)
    # sets that do not read the audio channel are unaffected
    assert assemble_features(samples, FeatureSetId.VIB3D).shape == (5, 3, 1024)

    skewed = dataclasses.replace(five_samples[1], vib_y=five_samples[1].vib_y[:512])
    with pytest.raises(ShapeError, match=f"sample {skewed.sample_id}: channel vib_y"):
        assemble_features([five_samples[0], skewed], FeatureSetId.VIB1D)


def test_assemble_empty_split():
    for fs in FEATURE_SET_ORDER:
        empty = assemble_features([], fs)
        assert empty.shape == (0, channel_count(fs), feature_length(fs))
        assert window(empty).shape == (0, channel_count(fs), WINDOW_SIZE)
        # an empty train split has nothing to fit a normalizer on
        with pytest.raises(ShapeError):
            fit_normalizer(empty)


# ---------------------------------------------------------------- normalizer

def _fm(values):
    """One sample's (channels, length) values as a one-sample feature array."""
    return np.asarray(values, dtype=np.float64)[None]


def test_fit_normalizer_pools_samples_and_positions():
    a = _fm([[0.0, 4.0], [10.0, 20.0]])
    b = _fm([[-2.0, 1.0], [15.0, 30.0]])
    nz = fit_normalizer(np.concatenate([a, b]))
    assert np.array_equal(nz.mins, [-2.0, 10.0])
    assert np.array_equal(nz.maxs, [4.0, 30.0])


def test_apply_normalizer_hand_case():
    nz = Normalizer(mins=np.array([0.0]), maxs=np.array([4.0]))
    out = apply_normalizer(nz, _fm([[0.0, 2.0, 4.0, 8.0, -4.0]]))
    assert np.allclose(out[0], [[0.0, 0.5, 1.0, 2.0, -1.0]])


def test_apply_normalizer_degenerate_channel():
    nz = Normalizer(mins=np.array([3.0, 0.0]), maxs=np.array([3.0, 1.0]))
    out = apply_normalizer(nz, _fm([[3.0, 3.0], [0.25, 0.75]]))[0]
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [0.25, 0.75])


def test_normalizer_maps_train_to_unit_interval():
    rng = np.random.default_rng(5)
    mats = np.stack([rng.normal(size=(2, 32)) * 7 + 3 for _ in range(6)])
    nz = fit_normalizer(mats)
    for fm in mats:
        out = apply_normalizer(nz, fm[None])
        assert out.min() >= 0.0 and out.max() <= 1.0
    # the extremes are attained somewhere in the pooled set
    pooled = apply_normalizer(nz, mats)
    assert np.isclose(pooled.min(), 0.0) and np.isclose(pooled.max(), 1.0)


def test_normalizer_channel_mismatch():
    nz = Normalizer(mins=np.zeros(2), maxs=np.ones(2))
    with pytest.raises(ShapeError):
        apply_normalizer(nz, _fm([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        fit_normalizer(np.zeros((0, 1, 2)))
    # features of differing lengths cannot form one array
    with pytest.raises(ShapeError):
        fit_normalizer([[[1.0]], [[1.0, 2.0]]])
    with pytest.raises(ShapeError):
        apply_normalizer(nz, [[[1.0]], [[1.0, 2.0]]])
    # a flat array is refused
    with pytest.raises(ShapeError):
        fit_normalizer(np.array([1.0, 2.0]))


# ---------------------------------------------------------------- windows

def test_window_counts(one_sample, five_samples):
    raw = assemble_features([one_sample], FeatureSetId.VIB3D)
    batch = window(raw)
    assert len(batch) == 16
    # windows are sample-major, in time order within a sample
    many = assemble_features(five_samples, FeatureSetId.VIB3D)
    wins = window(many)
    assert len(wins) == 5 * 16
    for i in range(5):
        for k in range(16):
            assert np.array_equal(wins[i * 16 + k], many[i, :, k * 64:(k + 1) * 64])

    fft = assemble_features([one_sample], FeatureSetId.FFT_AUDIO)
    assert len(window(fft)) == 8


def test_window_values_are_contiguous_slices():
    fm = _fm(np.arange(2 * 256, dtype=np.float64).reshape(2, 256))
    batch = window(fm)
    assert len(batch) == 4
    for i, w in enumerate(batch):
        assert w.shape == (2, WINDOW_SIZE)
        assert np.array_equal(w, fm[0][:, i * 64:(i + 1) * 64])
    # stitched windows reconstruct the original
    stitched = np.concatenate(list(batch), axis=1)
    assert np.array_equal(stitched, fm[0])


def test_window_drops_remainder():
    fm = _fm(np.zeros((1, 100)))
    assert len(window(fm)) == 1


def test_window_too_short():
    with pytest.raises(ShapeError):
        window(_fm(np.zeros((1, 63))))


def test_window_batch_to_array(one_sample):
    fm = assemble_features([one_sample], FeatureSetId.VIB1D_AUDIO)
    arr = window(fm)
    assert arr.shape == (16, 2, WINDOW_SIZE)
    assert np.array_equal(arr[3], fm[0][:, 3 * 64:4 * 64])


# ------------------------------------------- bit-for-bit against one sample
# The per-sample feature, normalizer and window code that the whole-split
# arrays replaced, kept as references: the batched calls must match them
# bit for bit, NaN included, so reports and timelines stay byte-identical.

def _ref_assemble_features(sample, fs):
    base = fs.name[4:] if fs.is_fft else fs.name
    if base == "VIB1D":
        chans = [vib_norm(sample.vib_x, sample.vib_y, sample.vib_z)]
    elif base == "AUDIO":
        chans = [np.asarray(sample.audio, dtype=np.float64)]
    elif base == "VIB3D":
        chans = [np.asarray(sample.vib_x, dtype=np.float64),
                 np.asarray(sample.vib_y, dtype=np.float64),
                 np.asarray(sample.vib_z, dtype=np.float64)]
    else:
        chans = [vib_norm(sample.vib_x, sample.vib_y, sample.vib_z),
                 np.asarray(sample.audio, dtype=np.float64)]
    if fs.is_fft:
        chans = [fft_magnitude(values) for values in chans]
    return np.stack(chans)


def _ref_apply_normalizer(nz, values):
    span = nz.maxs - nz.mins
    safe = np.where(span > 0, span, 1.0)
    out = (values - nz.mins[:, None]) / safe[:, None]
    out[span == 0, :] = 0.0
    return out


def _ref_window(values):
    wins = []
    start = 0
    while start + WINDOW_SIZE <= values.shape[1]:
        wins.append(values[:, start:start + WINDOW_SIZE].copy())
        start += WINDOW_SIZE
    return wins


def _ref_to_array(wins):
    return np.stack(wins)


@pytest.fixture(scope="module")
def mixed_samples():
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=4, seed=17))
    samples = list(ds.samples)
    # one sample with NaN in a vibration axis and in the audio channel
    vib_y = samples[5].vib_y.copy()
    vib_y[[0, 100, 700]] = np.nan
    audio = samples[5].audio.copy()
    audio[300] = np.nan
    samples[5] = dataclasses.replace(samples[5], vib_y=vib_y, audio=audio)
    return samples


@pytest.mark.parametrize("fs", FEATURE_SET_ORDER, ids=lambda fs: fs.name)
def test_batched_features_match_per_sample_code(mixed_samples, fs):
    ref = np.stack([_ref_assemble_features(s, fs) for s in mixed_samples])
    got = assemble_features(mixed_samples, fs)
    assert np.isnan(got[5]).any()
    assert np.array_equal(got, ref, equal_nan=True)

    healthy = np.delete(got, 5, axis=0)
    nz = fit_normalizer(healthy)
    stacked = np.stack([_ref_apply_normalizer(nz, v) for v in ref])
    assert np.array_equal(apply_normalizer(nz, got), stacked, equal_nan=True)

    # a degenerate channel still maps to zeros in every sample
    flat = Normalizer(mins=nz.mins.copy(), maxs=nz.mins.copy())
    assert np.array_equal(apply_normalizer(flat, got),
                          np.stack([_ref_apply_normalizer(flat, v) for v in ref]),
                          equal_nan=True)

    normed = apply_normalizer(nz, got)
    want = np.concatenate([_ref_to_array(_ref_window(v)) for v in normed])
    assert np.array_equal(window(normed), want, equal_nan=True)


def test_batched_window_matches_per_sample_code():
    values = np.random.default_rng(4).normal(size=(3, 2, 300))
    want = np.concatenate([_ref_to_array(_ref_window(v)) for v in values])
    got = window(values)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
