"""Acceptance gate: ten numbered release criteria, one test each.

Each test is self-contained and pins its tolerance inline. Reference
values come from independent in-test oracles (naive DFT, Jacobi
eigensolver, brute-force confusion counts, width-list arithmetic), never
from the implementation under test. The end-to-end criterion (8) trains
the whole detector grid on a separable synthetic fixture and dominates
the suite's runtime.
"""

import dataclasses
import math
import time

import numpy as np

from pumpwatch import detect
from pumpwatch.baseline import pca_fit, pca_scores
from pumpwatch.dataset import Dataset, GeneratorConfig, generate_synthetic
from pumpwatch.harness import (DetectorKind, DetectorSpec, ExperimentConfig,
                               run_experiment)
from pumpwatch.models import (build_cnn, build_dnn, build_lstm, dnn_widths,
                              lstm_units)
from pumpwatch.nn.gradcheck import grad_check
from pumpwatch.nn.train import TrainConfig
from pumpwatch.rng import SplitMix64
from pumpwatch.signal import (FEATURE_SET_ORDER, FeatureSetId,
                              assemble_features, fft_magnitude)


def test_criterion_01_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    recipes = [
        (build_dnn(64, n=150, seed=1), rng.normal(size=64), 40),
        (build_cnn(timesteps=64, channels=1, bottleneck=32, seed=2),
         rng.normal(size=(64, 1)), 40),
        (build_lstm(n=150, timesteps=64, channels=1, seed=3),
         rng.normal(size=(64, 1)), 25),
    ]
    started = time.perf_counter()
    for model, x, budget in recipes:
        err = grad_check(model, x, epsilon=1e-5, sample_per_tensor=budget,
                         seed=9)
        assert err < 1e-4, err
    assert time.perf_counter() - started < 60.0


def test_criterion_02_fft_matches_naive_dft():
    n = 1024
    k = np.arange(n // 2)
    ang = 2.0 * np.pi * np.outer(k, np.arange(n)) / n
    cos_mat, sin_mat = np.cos(ang), np.sin(ang)

    started = time.perf_counter()
    draws = SplitMix64(77).normals(100 * n).reshape(100, n)
    for x in draws:
        want = np.hypot(cos_mat @ x, sin_mat @ x) / n
        np.testing.assert_allclose(fft_magnitude(x), want, atol=1e-9, rtol=0)
    assert time.perf_counter() - started < 30.0


def _jacobi_eig(a, sweeps=100):
    a = a.copy()
    d = a.shape[0]
    vecs = np.eye(d)
    for _ in range(sweeps):
        if math.sqrt(float(np.sum(np.tril(a, -1) ** 2))) < 1e-14:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) < 1e-30:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(d)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    return np.diag(a).copy(), vecs


def test_criterion_03_pca_matches_eigendecomposition_oracle():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(100, 5)) @ rng.normal(size=(5, 5))
        model = pca_fit(x, variance_target=1.0)

        mean = x.mean(axis=0)
        cov = (x - mean).T @ (x - mean) / len(x)
        evals, evecs = _jacobi_eig(cov)
        assert np.allclose(evecs @ evecs.T, np.eye(5), atol=1e-10)
        assert np.allclose(evecs @ np.diag(evals) @ evecs.T, cov, atol=1e-10)
        for row, idx in enumerate(np.argsort(evals)[::-1]):
            vec = evecs[:, idx]
            if vec[np.argmax(np.abs(vec))] < 0:
                vec = -vec
            assert np.allclose(model.components[row], vec, atol=1e-8)

        probe = rng.normal(size=(20, 5))
        previous = None
        for k in range(1, 6):
            mean_score = pca_scores(pca_fit(x, k=k), probe).mean()
            if previous is not None:
                assert mean_score <= previous + 1e-12
            previous = mean_score
        assert np.all(pca_scores(model, probe) < 1e-12)


def test_criterion_04_architecture_widths_and_parameter_count():
    assert dnn_widths(64, 150) == (64, 150, 50, 38, 50, 150, 64)
    assert lstm_units(150) == (150, 75, 38, 16, 16, 38, 75, 150)

    widths = dnn_widths(64, 150)
    oracle = sum((w_in + 1) * w_out for w_in, w_out in zip(widths, widths[1:]))
    assert oracle == 38502
    assert build_dnn(64, n=150).network.param_count() == oracle


def _votes(errors, threshold_value):
    votes, _ = detect.classify([errors], detect.Threshold(
        value=threshold_value, mean=0.0, std=0.0, calibration_count=2))
    return votes[0]


def test_criterion_05_threshold_protocol():
    th = detect.calibrate_threshold([1.0, 2.0, 3.0])
    assert th.value == 2.0 + math.sqrt(2.0 / 3.0)
    assert th.mean == 2.0

    rng = np.random.default_rng(5)
    for _ in range(1000):
        errors = rng.gamma(2.0, 1.0, size=16)
        low, high = sorted(rng.uniform(0, errors.max() * 1.1, size=2))
        assert _votes(errors, low) >= _votes(errors, high)


def test_criterion_06_metrics_match_brute_force_confusion():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        predicted = rng.integers(0, 2, size=n).astype(bool).tolist()
        truth = rng.integers(0, 2, size=n).astype(bool).tolist()
        tp = fp = tn = fn = 0
        for p, t in zip(predicted, truth):
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif not p and t:
                fn += 1
            else:
                tn += 1
        m = detect.evaluate(predicted, truth)
        assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
        assert m.accuracy == (tp + tn) / n
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        pr = m.precision + m.recall
        assert m.f1 == (2 * m.precision * m.recall / pr if pr else 0.0)


def _rotated_copy(ds, seed):
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    rotated = []
    for s in ds:
        mixed = q @ np.stack([s.vib_x, s.vib_y, s.vib_z])
        rotated.append(dataclasses.replace(s, vib_x=mixed[0], vib_y=mixed[1],
                                           vib_z=mixed[2]))
    return Dataset(samples=rotated, provenance=ds.provenance,
                   generator_seed=ds.generator_seed)


def test_criterion_07_vibration_magnitude_is_rotation_invariant(tmp_path):
    gen = GeneratorConfig(n_samples_per_condition=10, seed=29, noise_std=0.3)
    ds = generate_synthetic(gen)
    assert len(ds) == 50
    rotated = _rotated_copy(ds, seed=55)

    for a, b in zip(assemble_features(ds, FeatureSetId.VIB1D),
                    assemble_features(rotated, FeatureSetId.VIB1D)):
        np.testing.assert_allclose(a, b, atol=1e-9, rtol=0)

    def flags(dataset, outdir):
        cfg = ExperimentConfig(
            generate=gen,
            feature_sets=[FeatureSetId.VIB1D],
            detectors=[DetectorSpec(kind=DetectorKind.DNN, n=64),
                       DetectorSpec(kind=DetectorKind.BM_IQR)],
            train=TrainConfig(max_epochs=10),
            output_dir=str(outdir))
        return {(r.detector.kind, r.feature_set): dict(zip(r.timeline["sample_id"].tolist(),
                                                           r.timeline["flagged"].tolist()))
                for r in run_experiment(cfg, dataset)}

    base = flags(ds, tmp_path / "base")
    mixed = flags(rotated, tmp_path / "rotated")
    assert base == mixed


def test_criterion_08_end_to_end_detection_on_separable_fixture(tmp_path):
    started = time.perf_counter()
    gen = GeneratorConfig(n_samples_per_condition=100, seed=11,
                          base_amplitude=0.25, noise_std=0.5)
    cfg = ExperimentConfig(
        generate=gen,
        feature_sets=list(FEATURE_SET_ORDER),
        detectors=[
            DetectorSpec(kind=DetectorKind.DNN,
                         train=TrainConfig(max_epochs=40, batch_size=32)),
            DetectorSpec(kind=DetectorKind.CNN,
                         train=TrainConfig(max_epochs=20, batch_size=32)),
            DetectorSpec(kind=DetectorKind.LSTM, n=64,
                         train=TrainConfig(max_epochs=4, batch_size=64)),
            DetectorSpec(kind=DetectorKind.BM_IQR),
        ],
        output_dir=str(tmp_path / "e2e"))
    f1 = {(r.detector.kind, r.feature_set): r.metrics.f1 for r in run_experiment(cfg)}

    assert f1[(DetectorKind.DNN, FeatureSetId.VIB3D)] >= 0.8
    assert f1[(DetectorKind.CNN, FeatureSetId.VIB3D)] >= 0.8
    assert f1[(DetectorKind.LSTM, FeatureSetId.VIB3D)] >= 0.8
    assert f1[(DetectorKind.BM_IQR, FeatureSetId.VIB1D)] >= 0.8
    for kind in (DetectorKind.DNN, DetectorKind.CNN, DetectorKind.LSTM):
        beats_coin_flip = sum(f1[(kind, fs)] > 0.5 for fs in FEATURE_SET_ORDER)
        assert beats_coin_flip >= 6, (kind, beats_coin_flip)
    assert time.perf_counter() - started < 900.0


def _small_grid_config(outdir):
    return ExperimentConfig(
        generate=GeneratorConfig(n_samples_per_condition=8, seed=7),
        feature_sets=[FeatureSetId.VIB1D, FeatureSetId.FFT_AUDIO],
        detectors=[DetectorSpec(kind=DetectorKind.DNN, n=64),
                   DetectorSpec(kind=DetectorKind.LSTM, n=64),
                   DetectorSpec(kind=DetectorKind.CNN, cnn_bottleneck=16),
                   DetectorSpec(kind=DetectorKind.BM_PCA),
                   DetectorSpec(kind=DetectorKind.BM_IQR)],
        train=TrainConfig(max_epochs=2),
        output_dir=str(outdir))


def test_criterion_09_identical_configs_are_byte_deterministic(tmp_path):
    outdir = tmp_path / "out"
    run_experiment(_small_grid_config(outdir))
    watched = ["report.txt", "report.csv", "report.json"] + \
        sorted(p.name for p in outdir.glob("timeline_*.csv"))
    assert len(watched) == 13  # 3 report files + 5 detectors x 2 feature sets
    snapshot = {name: (outdir / name).read_bytes() for name in watched}
    run_experiment(_small_grid_config(outdir))
    for name in watched:
        assert (outdir / name).read_bytes() == snapshot[name], name


def test_criterion_10_anomalous_samples_never_influence_fitting(tmp_path):
    ds = generate_synthetic(GeneratorConfig(n_samples_per_condition=8, seed=7))
    nan = np.full(1024, np.nan)
    poisoned = Dataset(
        samples=[dataclasses.replace(s, audio=nan, vib_x=nan, vib_y=nan,
                                     vib_z=nan) if s.is_anomaly else s
                 for s in ds],
        provenance=ds.provenance, generator_seed=ds.generator_seed)

    run_experiment(_small_grid_config(tmp_path / "clean"), ds)
    run_experiment(_small_grid_config(tmp_path / "poisoned"), poisoned)

    clean_files = sorted((tmp_path / "clean" / "artifacts").rglob("*.json"))
    assert len(clean_files) == 22  # 2 normalizers + 10 x (model + threshold)
    for path in clean_files:
        rel = path.relative_to(tmp_path / "clean")
        assert path.read_bytes() == (tmp_path / "poisoned" / rel).read_bytes(), rel
