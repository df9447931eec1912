"""Statistical benchmark detectors: PCA reconstruction error and IQR fences.

Both consume the same flattened 64-point windows as the autoencoders and
plug into the identical calibrate-then-vote protocol from the detect
module, so the comparison tables differ only in the scoring function.
Like ``Autoencoder``, each fitted model scores windows with
``window_errors`` and round-trips through ``save``/``load``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from .util import JsonFields

FENCE_MULTIPLIER = 1.5


def flat_windows(windows):
    """(count, channels, 64) windows -> (count, channels * 64) vectors."""
    # Explicit column count: reshape(-1) cannot infer it for zero-length input.
    return windows.reshape(len(windows), int(np.prod(windows.shape[1:])))


@dataclass
class PcaModel(JsonFields):
    mean: np.ndarray
    components: np.ndarray  # (k, d), rows orthonormal
    k: int
    explained_variance_ratio: float

    SHAPES = {"components": ("k", "n")}

    def window_errors(self, windows):
        return pca_scores(self, flat_windows(windows))


@dataclass
class IqrModel(JsonFields):
    means: np.ndarray
    iqrs: np.ndarray

    def window_errors(self, windows):
        return outlier_ratios(self, flat_windows(windows))


def check_variance_target(variance_target, error=UsageError):
    """Raise ``error`` unless ``variance_target`` is in (0, 1]."""
    if not 0 < variance_target <= 1:
        raise error(f"variance_target must be in (0, 1], got {variance_target}")


def pca_fit(train, variance_target=0.95, k=None) -> PcaModel:
    """Principal components of the centered train covariance.

    k defaults to the smallest component count whose cumulative explained
    variance reaches ``variance_target``; pass ``k`` to force it.  Sign
    convention: each component's largest-magnitude entry is positive, which
    removes the eigenvector sign ambiguity and makes fits reproducible.
    A degenerate (all-identical) train set yields k = 1 with explained
    variance ratio 1.
    """
    x = np.asarray(train, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"pca_fit expects (count, dim) vectors, got {x.shape}")
    n, d = x.shape
    if n < 2:
        raise UsageError(f"pca_fit needs at least 2 vectors, got {n}")
    check_variance_target(variance_target)
    if k is not None and not 1 <= k <= d:
        raise UsageError(f"k must be in [1, {d}]")

    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    vecs = eigvecs[:, order].T  # rows = components, descending variance

    total = eigvals.sum()
    if total <= 0.0:
        chosen = k if k is not None else 1
        ratio = 1.0
    else:
        cum = np.cumsum(eigvals) / total
        if k is not None:
            chosen = k
        else:
            chosen = int(np.searchsorted(cum, variance_target - 1e-12) + 1)
            chosen = min(chosen, d)
        ratio = float(cum[chosen - 1])

    comps = vecs[:chosen].copy()
    for row in comps:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=comps, k=chosen,
                    explained_variance_ratio=ratio)


def _residuals(m: PcaModel, x):
    xc = x - m.mean
    return xc - (xc @ m.components.T) @ m.components


def pca_scores(m: PcaModel, vectors) -> np.ndarray:
    """Mean squared residual of each (count, dim) vector off the subspace."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.mean.shape[0]:
        raise ShapeError(f"vectors have shape {x.shape}, model expects "
                         f"(count, {m.mean.shape[0]})")
    r = _residuals(m, x)
    return (r * r).mean(axis=1)


def iqr_fit(train) -> IqrModel:
    """Per-dimension mean and interquartile range of the train vectors.

    Quantiles use linear interpolation between order statistics.  The
    vote threshold on the per-window outlier ratio is calibrated like any
    other detector's, on the held-out healthy threshold split.
    """
    x = np.asarray(train, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"iqr_fit expects (count, dim) vectors, got {x.shape}")
    if len(x) < 4:
        raise UsageError(f"iqr_fit needs at least 4 vectors, got {len(x)}")
    q1 = np.percentile(x, 25, axis=0)
    q3 = np.percentile(x, 75, axis=0)
    return IqrModel(means=x.mean(axis=0), iqrs=q3 - q1)


def outlier_ratios(m: IqrModel, vectors) -> np.ndarray:
    """Fraction of each vector's dimensions outside mean +/- 1.5 * iqr."""
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.means.shape[0]:
        raise ShapeError(f"vectors have shape {x.shape}, model expects "
                         f"(count, {m.means.shape[0]})")
    lo = m.means - FENCE_MULTIPLIER * m.iqrs
    hi = m.means + FENCE_MULTIPLIER * m.iqrs
    # Written as "not inside" so that a NaN counts as an outlier.
    outside = ~((x >= lo) & (x <= hi))
    return outside.mean(axis=1)
