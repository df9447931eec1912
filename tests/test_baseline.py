"""Statistical benchmark tests.

The PCA oracle is an in-test cyclic Jacobi eigensolver working on an
explicitly computed covariance matrix; it is self-validated (orthonormal
eigenvectors, reconstructs the matrix) before being compared against the
fitted model, so a shared bug with the implementation is ruled out.
"""

import json
import math

import numpy as np
import pytest

from pumpwatch.baseline import (IqrModel, PcaModel, iqr_fit, outlier_ratios,
                                pca_fit, pca_scores)
from pumpwatch.errors import ShapeError, UsageError


# ---------------------------------------------------------------- pca

def test_rank1_data_needs_one_component():
    t = np.linspace(-2, 2, 30)
    direction = np.array([3.0, 4.0]) / 5.0
    x = t[:, None] * direction + np.array([1.0, -1.0])
    m = pca_fit(x)
    assert m.k == 1
    assert abs(m.explained_variance_ratio - 1.0) < 1e-12
    assert np.allclose(np.abs(m.components[0]), direction, atol=1e-9)
    assert np.allclose(pca_scores(m, x), 0.0, atol=1e-18)


def test_full_variance_target_reconstructs_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6))
    m = pca_fit(x, variance_target=1.0)
    assert m.k == 6
    probe = rng.normal(size=(10, 6)) * 5
    assert np.all(pca_scores(m, probe) < 1e-9)


def test_hand_projection_score():
    # mean (0,0), component (1,0): v=(3,4) leaves residual (0,4), score 8
    train = np.array([[-3.0, 0.0], [3.0, 0.0]])
    m = pca_fit(train)
    assert m.k == 1
    assert np.allclose(m.mean, [0.0, 0.0])
    assert np.allclose(m.components, [[1.0, 0.0]], atol=1e-12)
    assert abs(pca_scores(m, np.array([[3.0, 4.0]]))[0] - 8.0) < 1e-12


def _jacobi_eig(a, sweeps=100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix."""
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-30:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def test_components_match_jacobi_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(100, 5)) @ rng.normal(size=(5, 5))
    m = pca_fit(x, variance_target=1.0)

    mean = x.mean(axis=0)
    cov = (x - mean).T @ (x - mean) / len(x)
    evals, evecs = _jacobi_eig(cov)
    # the oracle must stand on its own before we trust it
    assert np.allclose(evecs @ evecs.T, np.eye(5), atol=1e-10)
    assert np.allclose(evecs @ np.diag(evals) @ evecs.T, cov, atol=1e-10)

    order = np.argsort(evals)[::-1]
    for row, idx in enumerate(order):
        vec = evecs[:, idx]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        assert np.allclose(m.components[row], vec, atol=1e-8), row


def test_score_non_increasing_in_k():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 6)) @ np.diag([5, 4, 3, 2, 1, 0.5])
    probe = rng.normal(size=(20, 6))
    previous = None
    for k in range(1, 7):
        m = pca_fit(x, k=k)
        mean_score = pca_scores(m, probe).mean()
        if previous is not None:
            assert mean_score <= previous + 1e-12
        previous = mean_score


def test_components_orthonormal_and_sign_normalized():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 5))
    m = pca_fit(x, variance_target=1.0)
    assert np.allclose(m.components @ m.components.T, np.eye(m.k), atol=1e-8)
    for row in m.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_degenerate_train_set():
    x = np.tile([2.0, -1.0, 0.5], (10, 1))
    m = pca_fit(x)
    assert m.k == 1
    assert m.explained_variance_ratio == 1.0
    assert pca_scores(m, x[:1])[0] < 1e-18


def test_score_zero_iff_in_span():
    rng = np.random.default_rng(4)
    basis = np.linalg.qr(rng.normal(size=(4, 4)))[0][:, :2]
    coords = rng.normal(size=(30, 2))
    x = coords @ basis.T
    m = pca_fit(x, k=2)
    in_span = rng.normal(size=2) @ basis.T
    assert pca_scores(m, in_span[None])[0] < 1e-12
    off_span = in_span + 0.1 * np.linalg.qr(rng.normal(size=(4, 4)))[0][:, 3]
    assert pca_scores(m, off_span[None])[0] > 1e-6


def test_variance_target_selects_smallest_k():
    # eigenvalues 9, 4, 1 -> ratios [9/14, 13/14, 1]
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    coords = rng.normal(size=(4000, 3)) * np.array([3.0, 2.0, 1.0])
    x = coords @ basis.T
    assert pca_fit(x, variance_target=0.6).k == 1
    assert pca_fit(x, variance_target=0.7).k == 2
    assert pca_fit(x, variance_target=0.95).k == 3


def test_pca_fit_is_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 4))
    a = pca_fit(x)
    b = pca_fit(x.copy())
    assert np.array_equal(a.components, b.components)
    assert np.array_equal(a.mean, b.mean)


def test_pca_errors():
    with pytest.raises(UsageError):
        pca_fit(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        pca_fit(np.zeros(5))
    with pytest.raises(UsageError):
        pca_fit(np.zeros((5, 3)), variance_target=0.0)
    with pytest.raises(UsageError):
        pca_fit(np.zeros((5, 3)), variance_target=1.5)
    with pytest.raises(UsageError):
        pca_fit(np.zeros((5, 3)), k=4)
    with pytest.raises(UsageError):
        pca_fit(np.zeros((5, 3)), k=0)
    m = pca_fit(np.random.default_rng(7).normal(size=(10, 3)))
    with pytest.raises(ShapeError):
        pca_scores(m, np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        pca_scores(m, np.zeros((2, 4)))


# ---------------------------------------------------------------- iqr

def test_iqr_hand_quantiles():
    # values {0..4}: Q1=1, Q3=3, iqr=2, mean=2, fences [-1, 5]
    train = np.arange(5.0)[:, None]
    m = iqr_fit(train)
    assert np.allclose(m.means, [2.0])
    assert np.allclose(m.iqrs, [2.0])
    assert outlier_ratios(m, np.array([[6.0]]))[0] == 1.0
    assert outlier_ratios(m, np.array([[5.0]]))[0] == 0.0   # boundary is inside
    assert outlier_ratios(m, np.array([[-1.0]]))[0] == 0.0
    assert outlier_ratios(m, np.array([[-1.5]]))[0] == 1.0


def test_iqr_mean_vector_is_healthy():
    rng = np.random.default_rng(8)
    train = rng.normal(size=(40, 6))
    m = iqr_fit(train)
    assert outlier_ratios(m, m.means[None])[0] == 0.0


def test_iqr_constant_dimension_collapses_fence():
    train = np.column_stack([np.full(8, 3.0), np.arange(8.0)])
    m = iqr_fit(train)
    assert m.iqrs[0] == 0.0
    assert outlier_ratios(m, np.array([[3.0, 3.5]]))[0] == 0.0
    assert outlier_ratios(m, np.array([[3.0001, 3.5]]))[0] == 0.5


def test_nan_dimensions_count_as_outliers():
    # NaN fails both fence comparisons; it must not read as "inside"
    m = IqrModel(means=np.zeros(4), iqrs=np.ones(4))
    ratios = outlier_ratios(m, np.array([np.full(4, np.nan),
                                         [np.nan, 0.0, 0.0, 0.0]]))
    assert np.array_equal(ratios, [1.0, 0.25])


def test_outlier_ratio_is_a_fraction_of_dimensions():
    m = IqrModel(means=np.zeros(4), iqrs=np.ones(4))
    v = np.array([0.0, 0.0, 0.0, 9.0])  # one of four dims outside [-1.5, 1.5]
    assert outlier_ratios(m, v[None])[0] == 0.25
    batch = outlier_ratios(m, np.stack([v, np.zeros(4)]))
    assert np.array_equal(batch, [0.25, 0.0])


def test_iqr_affine_invariance():
    rng = np.random.default_rng(9)
    train = rng.normal(size=(50, 5))
    probes = rng.normal(size=(30, 5)) * 2.0
    base = iqr_fit(train)
    base_ratios = outlier_ratios(base, probes)

    scale = rng.uniform(0.5, 4.0, size=5)
    offset = rng.uniform(-10, 10, size=5)
    scaled = iqr_fit(train * scale + offset)
    scaled_ratios = outlier_ratios(scaled, probes * scale + offset)
    assert np.array_equal(base_ratios, scaled_ratios)


def test_iqr_model_file_with_a_ratio_threshold_is_refused(tmp_path):
    # iqr.json files once carried a ratio threshold that nothing read back;
    # an artifact key nothing reads is refused, as in a config file
    path = tmp_path / "iqr.json"
    path.write_text(json.dumps({"means": [0.0, 1.0], "iqrs": [2.0, 3.0],
                                "ratio_threshold": 0.25}))
    with pytest.raises(UsageError, match=r"unknown keys \['ratio_threshold'\] in .*iqr\.json"):
        IqrModel.load(path)


def test_iqr_errors():
    with pytest.raises(UsageError):
        iqr_fit(np.zeros((3, 2)))
    m = iqr_fit(np.random.default_rng(11).normal(size=(10, 3)))
    with pytest.raises(ShapeError):
        outlier_ratios(m, np.zeros((1, 4)))
    with pytest.raises(ShapeError):
        outlier_ratios(m, np.zeros((2, 4)))
