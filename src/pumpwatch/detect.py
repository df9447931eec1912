"""Scoring, threshold calibration, majority vote, and evaluation metrics.

The detection protocol is the same for every detector: score each 64-point
window, calibrate threshold = mean + population standard deviation of the
window scores on held-out healthy data, let each window of a sample vote
(score strictly above threshold = anomalous), and flag the sample when at
least half of its windows vote anomalous (ties count as anomalous, biasing
toward recall).  A window whose score is not a number (NaN, e.g. from a
non-finite input that reached scoring) is not at or below the threshold,
so it votes anomalous instead of silently counting as healthy.

Scores, votes and thresholds take a split's window errors as one
(samples, windows) matrix, the per-window error vector reshaped: every
sample of a split has the same number of windows, and one sample is a
(1, windows) row.  A sample's score is the mean of its row, which adds in
the same order as a one-sample mean, so the timelines that print the
scores keep their last bit; ``np.add.reduceat`` over the flat vector adds
in another order and differs in the last bit on many rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ShapeError, UsageError
from .util import JsonFields


@dataclass
class Threshold(JsonFields):
    value: float
    mean: float
    std: float
    calibration_count: int


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int


def _error_matrix(errs) -> np.ndarray:
    errs = np.asarray(errs, dtype=np.float64)
    if errs.ndim != 2:
        raise ShapeError(f"window errors must be a (samples, windows) matrix, "
                         f"got shape {errs.shape}")
    if errs.shape[1] == 0:
        raise UsageError("a sample needs at least one window error")
    return errs


def make_score(errs) -> np.ndarray:
    """Sample scores: the mean window error of each row of ``errs``."""
    return _error_matrix(errs).mean(axis=1)


def calibrate_threshold(errors) -> Threshold:
    """mean + population standard deviation (divisor N) of every healthy error."""
    errors = np.ravel(errors).astype(np.float64)
    if len(errors) < 2:
        raise CalibrationError(f"need at least 2 calibration errors, got {len(errors)}")
    if not (np.isfinite(errors) & (errors >= 0)).all():
        raise CalibrationError("calibration errors must be finite and non-negative")
    mean, std = float(errors.mean()), float(errors.std())
    return Threshold(value=mean + std, mean=mean, std=std,
                     calibration_count=len(errors))


def classify(errs, th: Threshold):
    """Majority vote over the windows of each row of ``errs``: (votes, flagged).

    A window votes anomalous unless its error is at or below the threshold,
    so a NaN error votes anomalous; a sample is flagged when at least half
    of its windows vote.
    """
    errs = _error_matrix(errs)
    votes = (~(errs <= th.value)).sum(axis=1)
    return votes, votes * 2 >= errs.shape[1]


def evaluate(predicted, truth) -> Metrics:
    """Confusion counts and Acc/P/R/F1 with anomalous as the positive class.

    ``predicted`` and ``truth`` are equal-length boolean vectors.
    Zero-denominator conventions: precision, recall and F1 are 0 when their
    denominators are 0, so all-negative predictors still yield defined rows.
    """
    predicted, truth = np.asarray(predicted, dtype=bool), np.asarray(truth, dtype=bool)
    if predicted.ndim != 1 or predicted.shape != truth.shape or not len(predicted):
        raise UsageError(f"evaluate needs at least one pair, as two vectors of one "
                         f"length; got shapes {predicted.shape} and {truth.shape}")
    tn, fn, fp, tp = np.bincount(2 * predicted + truth, minlength=4).tolist()
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return Metrics(accuracy=(tp + tn) / len(predicted), precision=precision,
                   recall=recall, f1=f1, tp=tp, fp=fp, tn=tn, fn=fn)
